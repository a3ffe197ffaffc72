"""Command-line interface.

Subcommands map one-to-one onto the library operations: group-audit,
omega-dist, weil-count, serre-scan, certify, sieve-bound.  Reports are JSON
(default) or CSV of their rows (certify reports have none, so certify takes
JSON only); exit codes: 0 success, 2 usage error, 3 resource cap.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

from . import __version__, audits, certify, ecff, nt, numfield, sieve
from .errors import GalmaxError, InvalidInputError, ResourceCapError


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_curve_value(sys.argv[1:] if argv is None else argv))
    if [] in vars(args).values():  # argparse reads the value of --flag=-- as an empty list
        parser.error("an option value cannot be '--'")
    if args.command == "certify" and args.format == "csv":
        parser.error("--format csv needs report rows, and a certify report has none; use --format json")
    try:
        report = args.run(args)
    except ResourceCapError as e:
        print(f"resource cap exceeded: {e}", file=sys.stderr)
        return 3
    except (InvalidInputError, GalmaxError, ValueError) as e:
        parser.error(str(e))  # exits 2
    try:
        _emit(report, args)
    except OSError as e:  # an unwritable --out
        parser.error(f"cannot write the report: {e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write the report to a file instead of stdout")
    parser = argparse.ArgumentParser(prog="galmax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("group-audit", help="run the lemma audits at a modulus")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_run_group_audit)

    p = add_parser("omega-dist", help="splitting-class equidistribution over F_p^2")
    p.add_argument("--p", type=_int_list, required=True, help="comma-separated primes")
    p.add_argument("--m", type=int, default=2)
    p.set_defaults(run=_run_omega)

    p = add_parser("weil-count", help="count coefficient pairs with Delta in a power class")
    p.add_argument("--p", type=_int_list, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--gamma", type=int, default=1)
    p.set_defaults(run=_run_weil)

    p = add_parser("serre-scan", help="box scan of a certification check")
    p.add_argument("--x", type=_int_list, required=True)
    p.add_argument("--check", choices=("serre", "mod-ell", "disc-square"), default="serre")
    p.add_argument("--ell", type=int, default=5)
    p.add_argument("--prime-bound", type=int, default=500)
    p.add_argument("--l-max", type=int, default=13)
    p.set_defaults(run=_run_scan)

    p = add_parser("certify", help="certify one curve (Serre over Q; maximality over a field)")
    p.add_argument("--curve", required=True, help="a,b over Q or [..],[..] power-basis lists over a field")
    p.add_argument("--field", default=None, help="f=[c0,c1,...,1] monic integer polynomial")
    p.add_argument("--prime-bound", type=int, default=10**4)
    p.add_argument("--l-max", type=int, default=37)
    p.set_defaults(run=_run_certify)

    p = add_parser("sieve-bound", help="large sieve denominator L(Q) and bound shape")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--omega", default="", help="comma list p=num/den, e.g. 2=1/2,3=1/2")
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--rank", type=int, default=2)
    p.set_defaults(run=_run_sieve_bound)
    return parser


def _attach_curve_value(argv: list[str]) -> list[str]:
    """Rewrite ``--curve -1,0`` as ``--curve=-1,0``: argparse reads a value
    that starts with a minus sign and is not a plain number as a flag."""
    out: list[str] = []
    for arg in argv:
        if out[-1:] == ["--curve"] and re.match(r"-\d", arg):
            out[-1] = f"--curve={arg}"
        else:
            out.append(arg)
    return out


def _int_list(text: str) -> list[int]:
    values = [int(t) for t in text.split(",") if t.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    return values


# ---------------------------------------------------------------------------
# subcommand bodies; each returns {params, rows, caveats}


def _run_group_audit(args) -> dict:
    m = args.m
    reports = [audits.coverage_implies_sl2_audit(m, trials=args.trials, seed=args.seed)]
    # the coverage audit has checked 2 <= m <= 16; a prime power p^e with
    # e >= 2 gets the reduction audit, any other m the Goursat audit of
    # p^e times the cofactor, for p its least prime
    factors = nt.factorint(m)
    p = min(factors)
    e = factors[p]
    if len(factors) == 1 and e >= 2:
        reports.append(audits.reduction_lemma_audit(p, e, trials=args.trials, seed=args.seed))
    elif len(factors) > 1:
        reports.append(audits.goursat_audit(p**e, m // p**e, trials=args.trials, seed=args.seed))
    return {
        "params": {"m": m, "trials": args.trials, "seed": args.seed},
        "rows": [r.to_json() for r in reports],
        "caveats": [],
        "ok": all(r.ok for r in reports),
    }


def _run_omega(args) -> dict:
    rows = sieve.omega_report(args.p, m=args.m)
    return {"params": {"p": args.p, "m": args.m}, "rows": [r.to_json() for r in rows], "caveats": []}


def _run_weil(args) -> dict:
    rows = []
    for p in args.p:
        count, dev = ecff.weil_count(args.r, args.gamma, p)
        rows.append({"p": p, "r": args.r, "gamma": args.gamma, "count": count,
                     "expected": p * p / args.r, "deviation_norm": dev})
    return {"params": {"r": args.r, "gamma": args.gamma}, "rows": rows, "caveats": []}


def _run_scan(args) -> dict:
    params = certify.CertParams(prime_bound=args.prime_bound, l_max=args.l_max)
    rep = sieve.density_scan(args.x, check=args.check, params=params, ell=args.ell)
    return rep.to_json()


def _run_certify(args) -> dict:
    params = certify.CertParams(prime_bound=args.prime_bound, l_max=args.l_max)
    if args.field:
        K = _parse_field(args.field)
        a, b = _parse_field_curve(args.curve, K)
        curve = ecff.validate(a, b)
        report = certify.certify_maximal(curve, K, params)
        return report.to_json()
    coeffs = args.curve.split(",")
    if len(coeffs) != 2:
        raise InvalidInputError(f"{Q_CURVE_FORM}; got {_shown(args.curve)}")
    curve = ecff.validate(*(_fraction(c, Q_CURVE_FORM) for c in coeffs))
    # the report writes the integral model, up to 13 times as many digits
    if not all(_within_cap(Fraction(c)) for c in certify.integer_model(curve.a, curve.b)):
        raise _cap_error("the integral model (u^4 a, u^6 b) of the curve")
    report = certify.serre_check(curve, params)
    return report.to_json()


# digits allowed above and below the bar of every exact number the CLI reads
# or writes: inputs, the integral model of a Q curve, disc(f), L(Q).  Well inside
# Python's 4300-digit int-to-str limit, so every report can be written and read.
FRACTION_DIGIT_CAP = 1000
Q_CURVE_FORM = "--curve over Q needs two rationals a,b, e.g. --curve 1,1/2"
FIELD_FORM = "--field needs the integer coefficients of f, lowest degree first, e.g. --field f=[1,1,0,1]"
FIELD_CURVE_FORM = "--curve over a field needs two lists of rationals, e.g. --curve [0,1296],[0,0,11664]"
OMEGA_FORM = "--omega entries have the form p=num/den, e.g. 2=1/2"


def _within_cap(value: Fraction) -> bool:
    return max(abs(value.numerator), value.denominator) < 10**FRACTION_DIGIT_CAP


def _cap_error(what: str) -> ResourceCapError:
    return ResourceCapError(f"{what}: numerator and denominator are capped at {FRACTION_DIGIT_CAP} digits")


def _shown(text: str) -> str:
    """The text for an error message, cut after 20 characters."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}..."


def _fraction(text: str, form: str) -> Fraction:
    """An exact rational read from its own text (``1/2``, ``-3``, ``0.1``,
    ``1e400``), within FRACTION_DIGIT_CAP; its errors start with form, which names the option."""
    shown = _shown(text)
    # refuse before Fraction expands a long literal or a large exponent
    exponent = re.search(r"[eE][-+]?(\d+)", text)
    if len(text) > 4 * FRACTION_DIGIT_CAP or (exponent and int(exponent.group(1)) > FRACTION_DIGIT_CAP):
        raise _cap_error(shown)
    try:
        value = Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidInputError(f"{form}; {shown} is not a rational number") from None
    if not _within_cap(value):
        raise _cap_error(shown)
    return value


def _parse_field(text: str) -> numfield.MonogenicField:
    if text.startswith("f="):
        text = text[2:]
    try:
        coeffs = json.loads(text)
    except json.JSONDecodeError:
        raise InvalidInputError(f"{FIELD_FORM}; {_shown(text)} is not a JSON list") from None
    if not isinstance(coeffs, list) or not all(type(c) is int for c in coeffs):
        raise InvalidInputError(FIELD_FORM)
    if not all(_within_cap(Fraction(c)) for c in coeffs):
        raise _cap_error("a coefficient of the field polynomial")
    K = numfield.MonogenicField(coeffs)
    # a nonsquare-discriminant witness writes disc(f) in full
    if not _within_cap(Fraction(K.disc_f)):
        raise _cap_error("the discriminant of the field polynomial")
    return K


def _parse_field_curve(text: str, K: numfield.MonogenicField):
    """Two bracketed coefficient lists; each entry is read exactly from its
    own text, as over Q."""
    lists = re.fullmatch(r"\s*\[([^][]*)\]\s*,\s*\[([^][]*)\]\s*", text)
    if lists is None:
        raise InvalidInputError(FIELD_CURVE_FORM)
    return tuple(K.elem([_fraction(c, FIELD_CURVE_FORM) for c in v.split(",")] if v.strip() else []) for v in lists.groups())


def _run_sieve_bound(args) -> dict:
    omega = {}
    if args.omega:
        for part in args.omega.split(","):
            key, eq, val = part.partition("=")
            if not (eq and re.fullmatch(r"\s*[-+]?\d+\s*", key)):
                raise InvalidInputError(f"{OMEGA_FORM}; got {_shown(part)}")
            omega[int(key)] = _fraction(val, OMEGA_FORM)
    L, bound = sieve.sieve_bound(omega, args.Q, x=args.x, degree=args.degree, rank=args.rank)
    if not _within_cap(L):
        raise _cap_error("L(Q)")
    try:
        L_float = float(L)
    except OverflowError:
        raise InvalidInputError("L(Q) overflows a float") from None
    return {
        "params": {"Q": args.Q, "omega": {str(k): str(v) for k, v in omega.items()},
                   "x": args.x, "degree": args.degree, "rank": args.rank},
        "rows": [{"L": str(L), "L_float": L_float, "bound": bound}],
        "caveats": ["the implied constant of the sieve inequality is reported as 1 (shape only)"],
    }


# ---------------------------------------------------------------------------
# output plumbing


def _emit(report: dict, args) -> None:
    payload = {"tool_version": __version__}
    payload.update(report)
    if args.format == "json":
        text = json.dumps(payload, indent=2, default=str)
    else:
        rows = payload.get("rows", [])
        buf = io.StringIO()
        if rows:
            headers = sorted({k for row in rows for k in row}) if isinstance(rows[0], dict) else ["value"]
            writer = csv.DictWriter(buf, fieldnames=headers)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _csv_cell(v) for k, v in row.items()} if isinstance(row, dict) else {"value": row})
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _csv_cell(v):
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v, default=str)
    return v


if __name__ == "__main__":
    raise SystemExit(main())
