"""Byte-for-byte regression test of CLI reports on a fixed corpus.

Each case is one ``galmax`` command line; its expected stdout is stored in
``tests/corpus/<slug>.txt``.  A refactoring that is meant to keep behaviour
must keep every report identical.  The signature tables are pinned the same
way, by a sha256 digest per level in ``tests/corpus/signature_tables.json``,
because the CLI corpus never reaches the prime tables or m = 2, 3.  The
Frobenius signature lists of a few curves and of one box are pinned by
digest in ``tests/corpus/frobenius_signatures.json``, because a report shows
only witness primes and failure counts.  When a change alters a report, a
table or a signature list on purpose, regenerate all three and review the
diff:

    PYTHONPATH=src python tests/test_report_corpus.py --regenerate

It prints each corpus file and digest whose bytes changed and leaves every
other file untouched.
"""
import contextlib
import hashlib
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from galmax import certify, cli, ecff, numfield, sieve
from galmax import subgroups as sg

CORPUS = Path(__file__).resolve().parent / "corpus"
TABLE_DIGESTS = CORPUS / "signature_tables.json"
TABLE_LEVELS = (2, 3, 4, 5, 7, 8, 9, 11, 13)
SIGNATURE_DIGESTS = CORPUS / "frobenius_signatures.json"

CASES = [
    ["certify", "--curve", "1,1", "--prime-bound", "500", "--l-max", "13"],
    ["certify", "--curve=-3,1", "--prime-bound", "500", "--l-max", "13"],
    ["certify", "--curve", "0,1", "--prime-bound", "500", "--l-max", "13"],
    ["certify", "--curve", "1/4,1/8", "--prime-bound", "500", "--l-max", "13"],
    ["certify", "--curve", "2,-1", "--prime-bound", "2000", "--l-max", "37"],
    ["certify", "--curve", "[0,1296],[0,0,11664]", "--field", "f=[1,1,0,1]"],
    ["certify", "--curve", "[1,1],[1,0]", "--field", "f=[-2,0,1]", "--prime-bound", "2000", "--l-max", "13"],
    # condition (d) over Q(mu_3): certified by cubic characters, by same-norm
    # incoherence, and (a quartic containing mu_3, no candidate set) left open
    ["certify", "--curve", "[-1],[1,1]", "--field", "f=[1,1,1]", "--prime-bound", "2000", "--l-max", "13"],
    ["certify", "--curve", "[2,1],[0,3]", "--field", "f=[1,1,1]", "--prime-bound", "2000", "--l-max", "13"],
    ["certify", "--curve", "[1],[1]", "--field", "f=[1,0,-1,0,1]", "--prime-bound", "2000", "--l-max", "13"],
    ["serre-scan", "--x", "5,10"],
    ["serre-scan", "--x", "20,40,80"],
    ["serre-scan", "--x", "5,10", "--check", "mod-ell", "--ell", "7"],
    ["serre-scan", "--x", "5,10,20", "--check", "disc-square"],
    ["group-audit", "--m", "4", "--trials", "20"],
    ["group-audit", "--m", "5", "--trials", "20"],
    ["group-audit", "--m", "8", "--trials", "20"],
    ["group-audit", "--m", "9", "--trials", "20"],
    ["group-audit", "--m", "12", "--trials", "20"],
    # Goursat (exhaustive) and reduction (randomized) sweeps of their own
    ["group-audit", "--m", "6", "--trials", "20"],
    ["group-audit", "--m", "16", "--trials", "20"],
    ["omega-dist", "--p", "101,199"],
    ["omega-dist", "--p", "101", "--format", "csv"],
    ["weil-count", "--p", "13,29,53", "--r", "2"],
    ["sieve-bound", "--Q", "30", "--omega", "2=1/2,3=1/3,5=1/4", "--x", "100"],
]
# the scan cap, SERRE_SCAN_X_CAP: 160 792 curves
SLOW_CASES = [
    ["serre-scan", "--x", "200"],
]


def slug(argv: list[str]) -> str:
    """File-name stem of a case; a minus sign before a digit becomes m."""
    text = re.sub(r"(?<![A-Za-z])-(?=\d)", "m", " ".join(argv).replace("--", " "))
    return re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_")


def report_bytes(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0, argv
    return buf.getvalue().encode()


@pytest.mark.parametrize("argv", [*CASES, *(pytest.param(a, marks=pytest.mark.slow) for a in SLOW_CASES)], ids=slug)
def test_report_matches_corpus(argv):
    expected = (CORPUS / f"{slug(argv)}.txt").read_bytes()
    assert report_bytes(argv) == expected


def table_digest(m: int) -> str:
    """sha256 over every entry's label, order, n_conjugates, codes and sorted
    signatures, plus the table's full signature set and scope."""
    tbl = sg.subgroup_signature_table(m)
    entries = [(e.label, e.order, e.n_conjugates, e.codes, sorted(e.signatures)) for e in tbl.entries]
    text = repr((tbl.m, entries, sorted(tbl.full_signatures), tbl.scope))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("m", TABLE_LEVELS)
def test_signature_table_matches_digest(m):
    assert table_digest(m) == json.loads(TABLE_DIGESTS.read_text())[str(m)]


def _rational_signatures(a, b, prime_bound=2000):
    curve = ecff.validate(Fraction(a), Fraction(b))
    return certify.collect_signatures(curve, certify.CertParams(prime_bound=prime_bound))


def _cubic_field_signatures():
    K = numfield.MonogenicField([1, 1, 0, 1])
    curve = ecff.validate(K.elem([0, 1296]), K.elem([0, 0, 11664]))
    return certify.collect_signatures(curve, certify.CertParams(prime_bound=2000), K)


SIGNATURE_CASES = {
    "q_1_1_prime_bound_2000": lambda: _rational_signatures(1, 1),
    "q_m3_1_prime_bound_2000": lambda: _rational_signatures(-3, 1),
    "q_1_4_1_8_prime_bound_2000": lambda: _rational_signatures(Fraction(1, 4), Fraction(1, 8)),
    "cubic_field_readme_prime_bound_2000": _cubic_field_signatures,
    "box_10_prime_bound_500": lambda: [_rational_signatures(a, b, 500) for a, b in zip(*(C.tolist() for C in sieve.enumerate_box(10)))],
}


def signature_digest(name: str) -> str:
    """sha256 over the JSON records of a case's signature rows (a list of
    rows, or one list per curve for a box): p, the root of the field
    polynomial (null over Q), a_p, the cubic and psi3 patterns and the
    3-torsion flag."""

    def plain(x):
        if isinstance(x, list):
            return [plain(y) for y in x]
        p, root, ap, cubic, psi3, flag = x
        return {"p": p, "root": None if root < 0 else root, "ap": ap, "cubic": certify.CUBIC_PATTERNS[cubic],
                "psi3": certify.PSI3_PATTERNS[psi3], "has_3pt": bool(flag)}

    return hashlib.sha256(json.dumps(plain(SIGNATURE_CASES[name]())).encode()).hexdigest()


@pytest.mark.parametrize("name", SIGNATURE_CASES)
def test_frobenius_signatures_match_digest(name):
    assert signature_digest(name) == json.loads(SIGNATURE_DIGESTS.read_text())[name]


def _write_if_changed(path: Path, data: bytes) -> None:
    """Write data to path unless it already holds exactly those bytes."""
    if path.exists() and path.read_bytes() == data:
        return
    path.write_bytes(data)
    print(f"regenerated {path.relative_to(CORPUS.parent.parent)}")


def _write_digests(path: Path, digests: dict) -> None:
    """Rewrite a digest file if any digest changed, naming each one that did."""
    old = json.loads(path.read_text()) if path.exists() else {}
    for name, digest in digests.items():
        if old.get(name) != digest:
            print(f"digest {path.name}[{name}]: {old.get(name)} -> {digest}")
    _write_if_changed(path, (json.dumps(digests, indent=1) + "\n").encode())


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    CORPUS.mkdir(exist_ok=True)
    for argv in CASES + SLOW_CASES:
        _write_if_changed(CORPUS / f"{slug(argv)}.txt", report_bytes(argv))
    _write_digests(TABLE_DIGESTS, {str(m): table_digest(m) for m in TABLE_LEVELS})
    _write_digests(SIGNATURE_DIGESTS, {name: signature_digest(name) for name in SIGNATURE_CASES})
