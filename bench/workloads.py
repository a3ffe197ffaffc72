"""The three workloads: their inputs, the timed call into galmax, and the gates.

A workload turns the seed into a stream of ops.  ``execute(op)`` is the only
code the harness times; it calls public galmax functions and returns the
JSON report a user would get.  ``check(op, report)`` returns the problems
found (an empty list when the op passed its correctness gate).
"""
from __future__ import annotations

import functools
import itertools
import json
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from galmax import audits, certify, ecff, modgroup, nt, numfield, sieve, subgroups

import recheck

REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Op:
    kind: str
    inputs: tuple
    ref: dict = field(default_factory=dict, compare=False)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile with at
    least ten samples beyond it; the maximum when there are ten or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


class Workload:
    """Defaults: one op per round, no per-op preparation, no traced extras."""

    ops_per_round = 1

    def before(self, op: Op) -> None:
        pass

    def trace_extras(self, samples) -> dict:
        return {}


def clear_caches() -> None:
    """Empty galmax's memo caches, so the next call pays for materialization
    as a fresh CLI process does (traced wrappers expose the cache as __wrapped__)."""
    for mod in (nt, ecff, modgroup, subgroups, audits, numfield, certify, sieve):
        for obj in vars(mod).values():
            for candidate in (obj, getattr(obj, "__wrapped__", None)):
                if callable(getattr(candidate, "cache_clear", None)):
                    candidate.cache_clear()
                    break


# ---------------------------------------------------------------------------
# certify: single-curve certificates over Q and over monogenic fields


CERTIFY_PARAMS = certify.CertParams(prime_bound=10**4, l_max=37)
# one block of the stream: 5 generic Q curves, 1 Q curve with a structural
# obstruction (rational 2-torsion or CM), 2 curves over a field
BLOCK = ("q", "q", "field", "q", "obstruction", "q", "field", "q")
Q_KINDS = ("anchor", "q", "obstruction")


def q_statuses(report: dict) -> dict:
    out = {"final": report["final"]["status"]}
    out.update({k: v["status"] for k, v in report["levels"].items()})
    return out


def field_statuses(report: dict) -> dict:
    out = {"final": report["final"]["status"], "field": report["field_certificate"]["status"]}
    out.update(report["per_m"])
    out.update({k: report["conditions"][k]["status"] for k in ("c", "d")})
    return out


class Certify(Workload):
    name = "certify"
    ops_per_round = len(BLOCK)  # whole blocks keep the mix of kinds fixed

    def __init__(self, seed: int):
        self.seed = seed
        reference = json.loads(REFERENCE.read_text())
        rng = random.Random(seed)
        self.pools = {}
        for kind in ("q", "obstruction", "field"):
            entries = [e for e in reference[kind] if e["kind"] != "anchor"]
            rng.shuffle(entries)
            self.pools[kind] = entries
        self.anchors = [self._op(e) for k in ("q", "field") for e in reference[k] if e["kind"] == "anchor"]
        self.cli_curves = rng.sample(self.pools["q"], 3)

    def _op(self, e: dict) -> Op:
        if "f" in e:
            return Op("field", (tuple(e["f"]), tuple(e["a"]), tuple(e["b"])), e["statuses"])
        kind = "anchor" if e["kind"] == "anchor" else ("q" if e["kind"] == "generic" else "obstruction")
        return Op(kind, (e["a"], e["b"]), e["statuses"])

    def stream(self):
        """Blocks of BLOCK kinds; the first block's first Q and field slots hold the anchors."""
        cursors = {k: itertools.cycle(v) for k, v in self.pools.items()}
        anchors = {"q": self.anchors[0], "field": self.anchors[1]}
        while True:
            for kind in BLOCK:
                yield anchors.pop(kind) if kind in anchors else self._op(next(cursors[kind]))

    def trace_ops(self) -> list[Op]:
        return list(itertools.islice(self.stream(), 2 * len(BLOCK)))

    def warm_up(self) -> None:
        for op in self.anchors:
            self.execute(op)

    @staticmethod
    def curve(op: Op):
        if op.kind == "field":
            f, a, b = op.inputs
            K = numfield.MonogenicField(f)
            return ecff.validate(K.elem(a), K.elem(b)), K
        a, b = op.inputs
        return ecff.validate(Fraction(a), Fraction(b)), None

    @classmethod
    def execute(cls, op: Op) -> dict:
        curve, K = cls.curve(op)
        if K is not None:
            return certify.certify_maximal(curve, K, CERTIFY_PARAMS).to_json()
        return certify.serre_check(curve, CERTIFY_PARAMS).to_json()

    def check(self, op: Op, report: dict) -> list[str]:
        if op.kind == "field":
            f, a, b = op.inputs
            got, levels = field_statuses(report), report["conditions"]["a"]
            problems = recheck.mod_ell_problems(levels, a, b, f)
        else:
            a, b = op.inputs
            got, levels = q_statuses(report), report["levels"]
            problems = recheck.mod_ell_problems(levels, a, b)
        if got != op.ref:
            diff = {k: (op.ref.get(k), got.get(k)) for k in set(got) | set(op.ref) if got.get(k) != op.ref.get(k)}
            problems.insert(0, f"statuses differ from the reference (expected, got): {diff}")
        return problems

    def cli_requests(self):
        for e in self.cli_curves:
            op = self._op(e)
            yield ["certify", f"--curve={e['a']},{e['b']}"], functools.partial(self.check, op)

    def summarize(self, samples) -> tuple[dict, dict]:
        q = [s.seconds for s in samples if s.op.kind in Q_KINDS]
        fld = [s.seconds for s in samples if s.op.kind == "field"]
        q_tail, pct, beyond = tail(q)
        per_s = len(samples) / sum(s.seconds for s in samples)
        e2e = {"op_p50_s": statistics.median(q), "op_tail_s": q_tail, "work_per_s": per_s}
        detail = {
            "certify_q_p50_s": e2e["op_p50_s"],
            "certify_q_tail_s": {"value": q_tail, "percentile": pct, "samples": len(q), "beyond": beyond},
            "certify_field_p50_s": statistics.median(fld) if fld else None,
            "certify_field_samples": len(fld),
            "certify_per_s": per_s,
        }
        return e2e, detail

    def trace_extras(self, samples) -> dict:
        """Signatures collected against the shortest prefix giving every
        level's verdict, found by binary search over the level functions."""
        ells = [p for p in nt.primes_up_to(CERTIFY_PARAMS.l_max) if p >= 5]

        def statuses(sigs, over_q):
            out = [certify.certify_mod_ell(sigs, ell).status for ell in ells]
            out += [certify.certify_mod_small(sigs, m).status for m in (4, 9)]
            if over_q:
                out += [certify.signature_elimination(sigs, 8).status,
                        certify.quadratic_entanglement_check(sigs).status]
            return out

        collected = needed = 0
        for op in (s.op for s in samples):
            if op.ref["final"] == "obstruction-certified":  # decided before any collection
                continue
            curve, K = self.curve(op)
            sigs = certify.collect_signatures(curve, CERTIFY_PARAMS, K)
            full = statuses(sigs, K is None)
            lo, hi = 0, len(sigs)
            while lo < hi:
                mid = (lo + hi) // 2
                if statuses(sigs[:mid], K is None) == full:
                    hi = mid
                else:
                    lo = mid + 1
            collected += len(sigs)
            needed += lo
        return {
            "certify.primes_needed": needed,
            "certify.useful_ratio": needed / collected if collected else 0.0,
        }


# ---------------------------------------------------------------------------
# box-scan: the Serre-criterion density scan over sup-norm boxes


SCAN_PARAMS = certify.CertParams(prime_bound=500, l_max=13)
SCAN_XS = (20, 40)
# (x, curves in the box, curves failing the check) at prime_bound 500, l_max 13
SCAN_EXPECTED = {20: (1676, 298), 40: (6556, 682), 10: (438, 128)}


def scan_problems(report: dict) -> list[str]:
    problems = []
    for row in report["rows"]:
        want = SCAN_EXPECTED.get(row["x"])
        if want != (row["total"], row["failures"]):
            problems.append(f"x={row['x']}: got {row['total']} curves / {row['failures']} failures, want {want}")
    return problems


class BoxScan(Workload):
    name = "box-scan"

    def __init__(self, seed: int):
        self.seed = seed  # recorded only: the box is the user's input

    def stream(self):
        return itertools.repeat(Op("scan", SCAN_XS))

    def trace_ops(self) -> list[Op]:
        return [Op("scan", SCAN_XS)]

    def execute(self, op: Op) -> dict:
        return sieve.density_scan(list(op.inputs), check="serre", params=SCAN_PARAMS).to_json()

    def check(self, op: Op, report: dict) -> list[str]:
        if [row["x"] for row in report["rows"]] != list(op.inputs):
            return [f"rows {report['rows']} do not cover x = {op.inputs}"]
        return scan_problems(report)

    def cli_requests(self):
        for _ in range(2):
            yield ["serre-scan", "--x", "10"], scan_problems

    def summarize(self, samples) -> tuple[dict, dict]:
        times = [s.seconds for s in samples]
        curves = sum(SCAN_EXPECTED[x][0] for x in SCAN_XS)
        per_s = curves * len(times) / sum(times)
        value, pct, beyond = tail(times)
        e2e = {"op_p50_s": statistics.median(times), "op_tail_s": value, "work_per_s": per_s}
        detail = {"scan_curves_per_s": per_s, "scan_s": {"p50": e2e["op_p50_s"], "samples": len(times)}}
        return e2e, detail

    def warm_up(self) -> None:
        sieve.density_scan([5], check="serre", params=SCAN_PARAMS)


# ---------------------------------------------------------------------------
# group-audit: the lemma audits ``galmax group-audit`` composes per modulus


AUDIT_MODULI = (5, 8, 9, 12, 16)
AUDIT_TRIALS = 1000
# audits beside coverage: reduction for prime powers, Goursat for coprime splits
AUDIT_EXTRA = {8: ("reduction", 2, 3), 9: ("reduction", 3, 2), 12: ("goursat", 4, 3), 16: ("reduction", 2, 4)}
# exhaustive sweeps test a fixed lattice: (modulus, audit) -> subgroups tested
AUDIT_PINS = {(5, "coverage"): 466, (8, "reduction"): 673, (9, "reduction"): 456}


def audit_problems(m: int, rows: list[dict]) -> list[str]:
    names = ["coverage"] + ([AUDIT_EXTRA[m][0]] if m in AUDIT_EXTRA else [])
    if len(rows) != len(names):
        return [f"m={m}: {len(rows)} audit reports, want {len(names)}"]
    problems = []
    for name, row in zip(names, rows):
        pinned = AUDIT_PINS.get((m, name))
        want_tested = pinned if pinned is not None else AUDIT_TRIALS
        want_mode = "exhaustive" if pinned is not None else "randomized"
        if row["counterexamples"]:
            problems.append(f"m={m} {name}: counterexamples {row['counterexamples'][:2]}")
        if row["nonvacuous_checks"] <= 0:
            problems.append(f"m={m} {name}: no nonvacuous checks")
        if (row["mode"], row["subgroups_tested"]) != (want_mode, want_tested):
            problems.append(f"m={m} {name}: {row['mode']} over {row['subgroups_tested']} subgroups, "
                            f"want {want_mode} over {want_tested}")
    return problems


class GroupAudit(Workload):
    name = "group-audit"
    ops_per_round = len(AUDIT_MODULI)

    def __init__(self, seed: int):
        self.seed = seed

    def stream(self):
        return (Op("audit", (m,)) for m in itertools.cycle(AUDIT_MODULI))

    def trace_ops(self) -> list[Op]:
        return [Op("audit", (m,)) for m in AUDIT_MODULI]

    def before(self, op) -> None:
        clear_caches()

    def warm_up(self) -> None:
        self.execute(Op("audit", (5,)))

    def execute(self, op: Op) -> list[dict]:
        (m,) = op.inputs
        kw = {"trials": AUDIT_TRIALS, "seed": self.seed}
        reports = [audits.coverage_implies_sl2_audit(m, **kw)]
        if m in AUDIT_EXTRA:
            name, q, n = AUDIT_EXTRA[m]
            fn = audits.reduction_lemma_audit if name == "reduction" else audits.goursat_audit
            reports.append(fn(q, n, **kw))
        return [r.to_json() for r in reports]

    def check(self, op: Op, rows: list[dict]) -> list[str]:
        return audit_problems(op.inputs[0], rows)

    def cli_requests(self):
        for _ in range(2):
            yield (["group-audit", "--m", "9", "--trials", str(AUDIT_TRIALS), "--seed", str(self.seed)],
                   lambda report: audit_problems(9, report["rows"]))

    def summarize(self, samples) -> tuple[dict, dict]:
        k = self.ops_per_round
        sweeps = [sum(s.seconds for s in samples[i:i + k]) for i in range(0, len(samples), k)]
        tested = sum(sum(r["subgroups_tested"] for r in s.output or []) for s in samples)
        value, pct, beyond = tail(sweeps)
        per_s = tested / sum(sweeps)
        e2e = {"op_p50_s": statistics.median(sweeps), "op_tail_s": value, "work_per_s": per_s}
        detail = {"audit_sweep_s": e2e["op_p50_s"], "sweeps": len(sweeps), "subgroups_tested_per_s": per_s}
        return e2e, detail

    def trace_extras(self, samples) -> dict:
        rows = [row for s in samples for row in s.output or []]
        return {
            "audits.nonvacuous_checks": sum(r["nonvacuous_checks"] for r in rows),
            "audits.subgroups_tested": sum(r["subgroups_tested"] for r in rows),
        }


WORKLOADS = {w.name: w for w in (Certify, BoxScan, GroupAudit)}
