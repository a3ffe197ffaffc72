import contextlib
import io
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galmax import certify, cli, ecff, nt, sieve
from galmax import numfield as nf
from galmax.errors import InvalidInputError, ResourceCapError


def box_count(x: int) -> int:
    """|box(x)| over Z: (2x+1)^2 minus the singular pairs (-3t^2, 2t^3)."""
    total = (2 * x + 1) ** 2
    singular = 0
    t = 0
    while 3 * t * t <= x and 2 * t * t * t <= x:
        singular += 1 if t == 0 else 2
        t += 1
    return total - singular


def test_box_x1_has_eight_pairs():
    A, B = sieve.enumerate_box(1)
    assert A.dtype == B.dtype == np.int64
    pairs = list(zip(A.tolist(), B.tolist()))
    assert len(pairs) == 8
    assert (0, 0) not in pairs
    assert all(ecff.discriminant(a, b) != 0 for a, b in pairs)


@pytest.mark.parametrize("x", [0, 1, 5, 13, 20, 40])
def test_box_count_formula(x):
    A, B = sieve.enumerate_box(x)
    pairs = list(zip(A.tolist(), B.tolist()))
    assert pairs == sorted(pairs)  # a-major: a ascending, then b
    assert len(pairs) == box_count(x)
    # independently: (2x+1)^2 minus a direct scan of the singular locus
    singular = sum(
        1
        for a in range(-x, x + 1)
        for b in range(-x, x + 1)
        if ecff.discriminant(a, b) == 0
    )
    assert len(pairs) == (2 * x + 1) ** 2 - singular


def test_box_growth_is_roughly_4x2():
    assert abs(box_count(50) / 50**2 - 4) < 0.2


def test_box_cap():
    with pytest.raises(ResourceCapError):
        sieve.enumerate_box(10**4)


def test_batch_signatures_match_collect():
    # one signature_columns run per prime over the whole list gives each
    # curve the cells it gets on its own
    pairs = [(1, 1), (2, 3), (-1, 3)]
    batched = [[] for _ in pairs]
    for p, _, good, a, b in certify.prime_axis([a for a, _ in pairs], [b for _, b in pairs], 200):
        for k, *cell in zip(good.tolist(), *(col.tolist() for col in certify.signature_columns(p, a, b))):
            batched[k].append((p, *cell))
    for (a, b), cells in zip(pairs, batched):
        rows = certify.collect_signatures(ecff.validate(Fraction(a), Fraction(b)), certify.CertParams(prime_bound=200, l_max=5))
        assert cells == [(p, *signature) for p, _, *signature in rows]


def test_density_scan_disc_square():
    rep = sieve.density_scan([20], "disc-square")
    # independent enumeration with integer square testing
    direct = sum(
        1
        for a in range(-20, 21)
        for b in range(-20, 21)
        if ecff.discriminant(a, b) != 0
        and ecff.discriminant(a, b) >= 0
        and math.isqrt(ecff.discriminant(a, b)) ** 2 == ecff.discriminant(a, b)
    )
    assert rep.rows[0].failures == direct
    assert rep.rows[0].total == box_count(20)


def test_density_scan_empty_box_row():
    # x = 0 leaves only the singular pair (0, 0): an empty row
    rep = sieve.density_scan([0], "disc-square")
    assert rep.rows[0].total == 0 and rep.rows[0].failures == 0
    rep = sieve.density_scan([0], "serre", certify.CertParams(prime_bound=50, l_max=5))
    assert rep.rows[0].to_json()["x"] == 0


def test_density_scan_requires_increasing():
    with pytest.raises(InvalidInputError):
        sieve.density_scan([10, 10], "disc-square")


def test_density_scan_serre_caps():
    with pytest.raises(ResourceCapError):
        sieve.density_scan([300], "serre")


def test_density_scan_mod_ell():
    rep = sieve.density_scan([5], "mod-ell", certify.CertParams(prime_bound=300, l_max=5), ell=5)
    assert rep.rows[0].total == 118
    assert 0 <= rep.rows[0].failures < 118


def test_density_scan_serre_pins_the_x20_box():
    rep = sieve.density_scan([20])
    assert (rep.rows[0].total, rep.rows[0].failures) == (1676, 298)


@pytest.mark.parametrize("check, ell", [("mod-ell", 4), ("mod-ell", 9), ("bogus", 5)])
def test_density_scan_validates_before_scanning(monkeypatch, check, ell):
    def fail(*args, **kwargs):
        raise AssertionError("box enumerated or scanned before validation")

    monkeypatch.setattr(ecff, "batch_curve_data", fail)
    monkeypatch.setattr(sieve, "enumerate_box", fail)
    with pytest.raises(InvalidInputError):
        sieve.density_scan([40], check, ell=ell)
    with pytest.raises(ResourceCapError):
        sieve.density_scan([20, 300], "serre")
    # the box is built once, at the largest x: every x is checked first
    with pytest.raises(InvalidInputError):
        sieve.density_scan([-1, 5], "disc-square")
    with pytest.raises(ResourceCapError):
        sieve.density_scan([5, 500], "disc-square")


def test_density_scan_totals_match_box():
    rep = sieve.density_scan([10, 15], "disc-square")
    assert [r.total for r in rep.rows] == [box_count(10), box_count(15)]


@pytest.mark.parametrize("check", ["serre", "mod-ell", "disc-square"])
def test_density_scan_rows_match_scanning_each_x_alone(check):
    # the rows read off one walk of the largest box are the rows of each box scanned alone
    params = certify.CertParams(prime_bound=200, l_max=13)
    xs = [0, 3, 7, 12]
    rep = sieve.density_scan(xs, check, params, ell=7)
    alone = [sieve.density_scan([x], check, params, ell=7).rows[0] for x in xs]
    assert [r.to_json() for r in rep.rows] == [r.to_json() for r in alone]
    assert rep.rows[0].total == 0 and rep.rows[-1].failures > 0


def test_disc_square_check_matches_exact_integer_squares_at_the_cap():
    # the float square root is exact below 2^52; |Delta| peaks at the corners
    # of the capped box, and Delta(-x, 0) = 64 x^3 = 64000^2 there
    x = sieve.BOX_X_CAP
    A = np.array([-x, -x, x, x, 0, -3, 1], dtype=np.int64)
    B = np.array([0, x, x, -x, x, 1, 1], dtype=np.int64)
    D = ecff.discriminant(A, B)
    assert np.abs(D).max() < 4.2e9 and D[0] == 64000**2
    assert sieve._is_square(D).tolist() == [nt.is_perfect_square(d) for d in D.tolist()]
    near = np.array([64000**2 - 1, 64000**2 + 1, 64799**2, 64800**2 + 1, 2**52 - 1, -4], dtype=np.int64)
    assert sieve._is_square(near).tolist() == [nt.is_perfect_square(d) for d in near.tolist()]


@pytest.mark.parametrize(
    "pairs",
    [
        [(2**70 + 1, 3), (1, 1), (-(2**64), 2**65 + 7)],  # past 2^63: object arrays
        [(2**18, -(2**18)), (-(2**18), 2**18 - 1), (5, 7)],  # at the int64 bound
        [(2**18 + 1, 1), (1, 2)],  # just past it
    ],
)
def test_prime_axis_reduces_exact_coefficients_of_any_size(pairs):
    A, B = [a for a, _ in pairs], [b for _, b in pairs]
    steps = list(certify.prime_axis(A, B, 300))
    assert [p for p, *_ in steps] == [p for p in nt.primes_up_to(300) if p >= 5]
    for p, c, good, a, b in steps:
        assert c is None and a.dtype == b.dtype == np.int64
        want = [k for k, (u, v) in enumerate(pairs) if (-16 * (4 * u**3 + 27 * v**2)) % p != 0]
        assert good.tolist() == want
        assert a.tolist() == [pairs[k][0] % p for k in want]
        assert b.tolist() == [pairs[k][1] % p for k in want]


def test_omega_report():
    rows = sieve.omega_report([101, 199])
    assert len(rows) == 6
    for r in rows:
        assert math.isclose(r.frequency, r.observed / r.p**2)
        assert r.within_tolerance and r.deviation_sqrtp <= 3 * r.tolerance * math.sqrt(r.p)
    # frequencies at one p sum to 1 - 1/p
    s = sum(r.frequency for r in rows if r.p == 101)
    assert math.isclose(s, 1 - 1 / 101)
    # predictions are (1/6, 1/2, 1/3) from the group engine
    preds = {tuple(r.pattern): r.predicted for r in rows if r.p == 101}
    assert preds == {(1, 1, 1): 1 / 6, (2, 1): 1 / 2, (3,): 1 / 3}


def test_omega_report_reproducible():
    a = [r.to_json() for r in sieve.omega_report([101])]
    b = [r.to_json() for r in sieve.omega_report([101])]
    assert a == b


def test_sieve_bound_examples():
    L, _ = sieve.sieve_bound({}, 5)
    assert L == 1
    L, _ = sieve.sieve_bound({2: Fraction(1, 2)}, 2)
    assert L == 2
    L, _ = sieve.sieve_bound({2: Fraction(1, 2), 3: Fraction(1, 2)}, 6)
    assert L == 4
    # exact rational arithmetic
    L, _ = sieve.sieve_bound({2: Fraction(1, 3), 5: Fraction(2, 7)}, 10)
    assert L == 1 + Fraction(1, 2) + Fraction(2, 5) + Fraction(1, 5)


def fraction_sum_L(omega, Q):
    """L(Q) added up term by term in Fractions."""
    ratios = {p: w / (1 - w) for p, w in omega.items() if w > 0}
    total = Fraction(0)
    for q in range(1, Q + 1):
        factors = nt.factorint(q)
        if all(e == 1 and p in ratios for p, e in factors.items()):
            total += math.prod((ratios[p] for p in factors), start=Fraction(1))
    return total


@pytest.mark.parametrize("seed", range(6))
def test_sieve_bound_equals_the_fraction_sum(seed):
    rng = random.Random(seed)
    primes = nt.primes_up_to(60)
    omega = {p: Fraction(rng.randrange(0, 9), rng.randrange(9, 40)) for p in primes if rng.random() < 0.7}
    for Q in (1, 2, 30, 210, 400):
        assert sieve.sieve_bound(omega, Q)[0] == fraction_sum_L(omega, Q)


def test_squarefree_count_counts_the_terms_of_l():
    primes = list(nt.primes_up_to(60))
    for Q in (1, 2, 30, 210, 400):
        terms = sum(1 for q in range(1, Q + 1) if all(
            e == 1 and p in primes for p, e in nt.factorint(q).items()))
        assert sieve._squarefree_count(primes, Q, 10**6) == terms
        if terms > 1:  # stopped as soon as it passes the limit
            assert sieve._squarefree_count(primes, Q, terms - 2) == terms - 1


def test_sieve_bound_cap_raises_before_any_term_is_formed(monkeypatch):
    # omega_p = 1/p on the 9592 primes below 10^5 at Q = 3 * 10^5 is past
    # the cap; the 143 812-bit common denominator D is built before any term
    def no_denominator(*args):
        raise AssertionError("D was built before the cap was checked")

    monkeypatch.setattr(sieve.math, "prod", no_denominator)
    omega = {p: Fraction(1, p) for p in nt.primes_up_to(10**5)}
    with pytest.raises(ResourceCapError, match="squarefree terms"):
        sieve.sieve_bound(omega, 3 * 10**5)


def test_sieve_bound_monotone_in_q():
    omega = {2: Fraction(1, 2), 3: Fraction(1, 3), 5: Fraction(1, 5)}
    values = [sieve.sieve_bound(omega, q)[0] for q in (1, 2, 4, 8, 16, 32)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_sieve_bound_rejects_omega_one():
    with pytest.raises(InvalidInputError):
        sieve.sieve_bound({2: Fraction(1)}, 4)


def test_sieve_bound_with_x():
    L, bound = sieve.sieve_bound({2: Fraction(1, 2)}, 2, x=10.0, degree=1, rank=2)
    assert bound == (10.0**2 + 2**4) / 2


# ---------------------------------------------------------------------------
# CLI


def run_cli(*args):
    from io import StringIO

    import contextlib

    buf = StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue()


def test_cli_sieve_bound():
    code, out = run_cli("sieve-bound", "--Q", "6", "--omega", "2=1/2,3=1/2")
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0]["L"] == "4"
    assert data["tool_version"]


def test_cli_certify_json():
    code, out = run_cli("certify", "--curve", "1,1", "--l-max", "13", "--prime-bound", "1000")
    assert code == 0
    data = json.loads(out)
    assert data["final"]["status"] == "certified"
    assert data["curve"] == [1, 1]


def test_cli_certify_over_field():
    code, out = run_cli(
        "certify",
        "--curve",
        "[0,1296],[0,0,11664]",
        "--field",
        "f=[1,1,0,1]",
        "--l-max",
        "7",
        "--prime-bound",
        "500",
    )
    assert code == 0
    data = json.loads(out)
    assert data["conditions"]["d"]["status"] == "certified"


def test_cli_group_audit():
    code, out = run_cli("group-audit", "--m", "4", "--trials", "50")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(not r["counterexamples"] for r in data["rows"])


def test_cli_omega_csv(tmp_path):
    out_file = tmp_path / "omega.csv"
    code, _ = run_cli("omega-dist", "--p", "101", "--format", "csv", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert "predicted" in text.splitlines()[0]
    assert len(text.splitlines()) == 4


def test_cli_usage_error_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "galmax.cli", "certify", "--curve", "bogus"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_cli_resource_cap_exit_3():
    proc = subprocess.run(
        [sys.executable, "-m", "galmax.cli", "serre-scan", "--x", "5000", "--check", "disc-square"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3


@pytest.mark.parametrize("argv", [["certify", "--curve", "1,1"], ["serre-scan", "--x", "5"]])
def test_cli_huge_prime_bound_hits_the_cap(argv):
    # the prime sieve would otherwise allocate one byte per integer up to the bound
    proc = subprocess.run(
        [sys.executable, "-m", "galmax.cli", *argv, "--prime-bound", "1000000000000"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_over_q_leaves_sympy_unloaded():
    # only fields of degree > 4 and factorizations that resist Pollard rho need sympy
    code = "\n".join([
        "import contextlib, io, sys",
        "import galmax.cli",
        "loaded = ['sympy' in sys.modules]",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert galmax.cli.main(['certify', '--curve', '1,1', '--prime-bound', '500', '--l-max', '13']) == 0",
        "    loaded.append('sympy' in sys.modules)",
        "    assert galmax.cli.main(['serre-scan', '--x', '5']) == 0",
        "    loaded.append('sympy' in sys.modules)",
        "print(loaded)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False]"


def test_cli_over_fields_of_degree_up_to_4_leaves_sympy_unloaded():
    code = "\n".join([
        "import contextlib, io, sys",
        "import galmax.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert galmax.cli.main(['certify', '--curve', '[0,1296],[0,0,11664]', '--field', 'f=[1,1,0,1]',",
        "                            '--prime-bound', '2000', '--l-max', '13']) == 0",
        "    assert galmax.cli.main(['certify', '--curve', '[-3,-2,-2,2],[1,2,-3,3]', '--field', 'f=[3,-3,-1,1,1]',",
        "                            '--prime-bound', '2000', '--l-max', '13']) == 0",
        "print('sympy' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_weil_count():
    code, out = run_cli("weil-count", "--p", "13,29", "--r", "2")
    data = json.loads(out)
    assert [row["count"] for row in data["rows"]] == [78, 406]


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--curve", "1/0,1"],
        ["sieve-bound", "--Q", "5", "--omega", "2=1/0"],
        ["weil-count", "--p", "7", "--r", "0"],
        ["group-audit", "--m", "1"],
        ["certify", "--curve", "1,1", "--field", "[1,0,1]"],
        ["certify", "--curve", "[1],[1]", "--field", "5"],
        ["omega-dist", "--p", "9"],
        ["weil-count", "--p", "25"],
        ["omega-dist", "--p", "1000000000000000003"],
        ["group-audit", "--m", "16", "--trials", "0"],
        ["group-audit", "--m", "16", "--trials", "-5"],
        ["serre-scan", "--x", "3", "--check", "mod-ell", "--ell", "6"],
    ],
)
def test_cli_bad_input_is_a_usage_error(argv):
    proc = subprocess.run([sys.executable, "-m", "galmax.cli", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode in (2, 3), proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_bad_ell_names_the_value():
    argv = ["serre-scan", "--x", "3", "--check", "mod-ell", "--ell", "6"]
    proc = subprocess.run([sys.executable, "-m", "galmax.cli", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "ell must be a prime >= 5, got 6" in proc.stderr


def test_cli_curve_with_negative_leading_coefficient():
    argv = ["certify", "--curve", "-3,1", "--prime-bound", "500", "--l-max", "13"]
    proc = subprocess.run([sys.executable, "-m", "galmax.cli", *argv], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    corpus = Path(__file__).resolve().parent / "corpus" / "certify_curve_m3_1_prime_bound_500_l_max_13.txt"
    assert proc.stdout == corpus.read_bytes()


@pytest.mark.parametrize(
    "kwargs",
    [{"x": 1e200}, {"x": 0.0, "rank": -1}, {"x": math.nan}, {"x": math.inf}, {"x": -1.0},
     {"degree": -3}, {"rank": 0}, {"x": 100.0, "rank": 10**12}, {"x": 100.0, "degree": 10**21}],
)
def test_sieve_bound_rejects_bad_shape_parameters(kwargs):
    with pytest.raises(InvalidInputError):
        sieve.sieve_bound({2: Fraction(1, 2)}, 30, **kwargs)


@pytest.mark.parametrize("key", [1, 4, 0, -3, 9])
def test_sieve_bound_rejects_non_prime_omega_keys(key):
    with pytest.raises(InvalidInputError):
        sieve.sieve_bound({key: Fraction(1, 2)}, 6)
    with pytest.raises(InvalidInputError):
        sieve.sieve_bound({2: Fraction(1, 2), key: Fraction(1, 2)}, 6)
    with pytest.raises(SystemExit) as exit_info, contextlib.redirect_stderr(io.StringIO()):
        cli.main(["sieve-bound", "--Q", "6", f"--omega=2=1/2,{key}=1/2"])
    assert exit_info.value.code == 2


# ---------------------------------------------------------------------------
# CLI boundary fuzz: malformed values for every flag of every subcommand

TOKENS = (
    "", " ", ",", ",,", "0", "1", "-1", "2", "3", "4", "7", "1000", "-1000", "1e3", "1.5", "nan", "inf", "-inf",
    "1/0", "0/0", "1/2", "-1/2", "abc", "--", "1,", ",1", "1,,2", "0,0", "1,1", "-3,1", "1,1,1", "1,x", "[]",
    "[1]", "[1],[1]", "[0,1],[1]", "[1,1],[1,0]", "[1,0,1]", "[1,1,0,1]", "f=[1,1,0,1]", "f=[-2,0,1]", "f=[]",
    "[1.5,1]", "2=1/2", "2=1", "2=1/2,3=", "=", "serre", "mod-ell", "csv", "json",
)
# valid defaults that keep every run small: the mangled flag is appended last
SUBCOMMANDS = {
    "certify": (["--curve", "1,1", "--prime-bound", "100", "--l-max", "5"],
                ["--curve", "--field", "--prime-bound", "--l-max"]),
    "serre-scan": (["--x", "1", "--prime-bound", "100", "--l-max", "5"],
                   ["--x", "--check", "--ell", "--prime-bound", "--l-max"]),
    "group-audit": (["--m", "4", "--trials", "20"], ["--m", "--trials", "--seed"]),
    "omega-dist": (["--p", "7"], ["--p", "--m"]),
    "weil-count": (["--p", "7"], ["--p", "--r", "--gamma"]),
    "sieve-bound": (["--Q", "6"], ["--Q", "--omega", "--x", "--degree", "--rank"]),
}


@st.composite
def malformed_argv(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    defaults, flags = SUBCOMMANDS[command]
    mangled = draw(st.lists(st.tuples(st.sampled_from(flags + ["--format", "--out"]), st.sampled_from(TOKENS)),
                            min_size=1, max_size=3))
    return [command, *defaults, *(f"{flag}={token}" for flag, token in mangled)]


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-out")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=malformed_argv())
@example(argv=["serre-scan", "--x="])
@example(argv=["omega-dist", "--p="])
@example(argv=["weil-count", "--p="])
@example(argv=["sieve-bound", "--Q", "30", "--x", "1e200"])
@example(argv=["sieve-bound", "--Q", "30", "--x", "0", "--rank=-1"])
@example(argv=["sieve-bound", "--Q", "30", "--x", "nan"])
@example(argv=["sieve-bound", "--Q", "30", "--degree=-3"])
@example(argv=["sieve-bound", "--Q", "30", "--x", "100", "--rank", "1000000000000"])
@example(argv=["serre-scan", "--x", "2", "--ell", "4"])
@example(argv=["sieve-bound", "--Q", "30", "--out="])
@example(argv=["sieve-bound", "--Q", "6", "--omega=1=1/2"])
@example(argv=["certify", "--field", "f=[1,0,1]", "--curve", "[1e400],[1]", "--prime-bound", "100", "--l-max", "5"])
@example(argv=["certify", "--field", "f=[1,0,1]", "--curve", "[0.1],[1]", "--prime-bound", "100", "--l-max", "5"])
@example(argv=["certify", "--field", "f=[1,0,1]", "--curve", "[true],[1]", "--prime-bound", "100", "--l-max", "5"])
@example(argv=["certify", "--field", "f=[1,0,1]", "--curve", "[1/2],[1]", "--prime-bound", "100", "--l-max", "5"])
@example(argv=["certify", "--field", "f=[1,0,1]", "--curve", "[1/2,-3],[0.1]", "--prime-bound", "100", "--l-max", "5"])
@example(argv=["certify", "--field", "f=[1,0,1]", "--curve", "[[1]],[1]", "--prime-bound", "100", "--l-max", "5"])
@example(argv=["certify", "--field", "f=[1,0,1]", "--curve", "[1,],[1]", "--prime-bound", "100", "--l-max", "5"])
@example(argv=["certify", "--curve", "1e20000,1", "--prime-bound", "300", "--l-max", "5"])
@example(argv=["certify", "--field", "f=[1,0,1]", "--curve", "[1e20000],[1]", "--prime-bound", "100", "--l-max", "5"])
@example(argv=["group-audit", "--m", "4", "--trials", "1000001"])
@example(argv=["sieve-bound", "--Q", "6", "--omega", "2=" + "9" * 400 + "/1" + "0" * 400])
def test_cli_malformed_values_exit_cleanly(argv, out_dir):
    argv = [f"--out={out_dir / a[6:]}" if a.startswith("--out=") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    assert code in (0, 2, 3), argv


def _field_curve_report(curve):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["certify", "--field", "f=[1,0,1]", "--curve", curve, "--prime-bound", "100", "--l-max", "5"]) == 0
    return json.loads(buf.getvalue())


def _cli_exit(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv,flag,form", [
    (["certify", "--curve", "1"], "--curve", "a,b"),
    (["certify", "--curve", "1,2,3"], "--curve", "a,b"),
    (["sieve-bound", "--Q", "6", "--omega", "=1/2"], "--omega", "p=num/den"),
    (["sieve-bound", "--Q", "6", "--omega", "2=1/2,3"], "--omega", "p=num/den"),
    (["certify", "--curve", "1,x"], "--curve", "a,b"),
    (["sieve-bound", "--Q", "6", "--omega", "2=x"], "--omega", "p=num/den"),
    (["certify", "--field", "f=[1,0,1]", "--curve", "[x],[1]"], "--curve", "[0,1296],[0,0,11664]"),
    (["certify", "--curve", "[1],[1]", "--field", "f="], "--field", "f=[1,1,0,1]"),
    (["certify", "--curve", "[1],[1]", "--field", "f=[1,0,1"], "--field", "f=[1,1,0,1]"),
], ids=["curve-one-value", "curve-three-values", "omega-no-prime", "omega-no-value",
        "curve-not-a-number", "omega-not-a-number", "field-curve-not-a-number",
        "field-empty", "field-unclosed-list"])
def test_cli_malformed_values_name_the_flag(argv, flag, form):
    code, out, err = _cli_exit(argv)
    assert code == 2 and out == ""
    message = err.strip().splitlines()[-1]
    assert flag in message and form in message, message


@pytest.mark.parametrize("argv", [
    ["certify", "--curve", "1,1"],
    ["certify", "--field", "f=[1,1,0,1]", "--curve", "[0,1296],[0,0,11664]"],
], ids=["over-q", "over-field"])
def test_cli_certify_refuses_csv_before_any_work(argv, monkeypatch):
    # a certify report has no rows, so CSV output would be empty
    code, out, err = _cli_exit([*argv, "--format", "csv"])
    assert code == 2 and out == ""
    assert "--format" in err.strip().splitlines()[-1]

    def no_work(*args, **kwargs):
        raise AssertionError("certify started before --format was checked")

    monkeypatch.setattr(certify, "serre_check", no_work)
    monkeypatch.setattr(certify, "certify_maximal", no_work)
    assert _cli_exit([*argv, "--format", "csv"])[0] == 2


CAP = cli.FRACTION_DIGIT_CAP
AT_CAP, ABOVE_CAP = "9" * CAP, "1" + "0" * CAP


@pytest.mark.parametrize("argv", [
    ["certify", "--curve", "{},1", "--prime-bound", "100", "--l-max", "5"],
    ["certify", "--field", "f=[1,0,1]", "--curve", "[1],[1/{}]", "--prime-bound", "100", "--l-max", "5"],
    ["sieve-bound", "--Q", "6", "--omega", "2=1/{}"],
], ids=["q-curve", "field-entry", "omega"])
def test_cli_exact_inputs_are_capped_in_digits(argv):
    code, out, _ = _cli_exit([a.format(AT_CAP) for a in argv])
    assert code == 0
    json.loads(out)
    for over in (ABOVE_CAP, "1e20000"):
        code, _, err = _cli_exit([a.format(over) for a in argv])
        assert code == 3 and f"capped at {CAP} digits" in err


def test_cli_caps_the_integral_model_of_a_q_curve():
    # a = 10^-k has the integral model (10^(3k), 10^(6k)), written in full
    argv = ["certify", "--curve", "1e-{},1", "--prime-bound", "100", "--l-max", "5"]
    k = (CAP - 1) // 6
    code, out, _ = _cli_exit([a.format(k) for a in argv])
    assert code == 0 and json.loads(out)["curve"] == [10 ** (3 * k), 10 ** (6 * k)]
    code, _, err = _cli_exit([a.format(k + 1) for a in argv])
    assert code == 3 and "integral model" in err and f"capped at {CAP} digits" in err


def test_cli_caps_the_field_polynomial():
    # a nonsquare-discriminant witness writes disc(f) = -4c^3 - 27 of
    # f = x^3 + c x + 1 in full: c and disc(f) are both capped
    argv = ["certify", "--curve", "[1],[1]", "--field", "f=[1,{},0,1]", "--prime-bound", "300", "--l-max", "5"]
    for c, what in (("9" * 1500, "coefficient"), ("9" * (CAP // 3 + 1), "discriminant")):
        code, _, err = _cli_exit([a.format(c) for a in argv])
        assert code == 3 and what in err and f"capped at {CAP} digits" in err


def test_cli_sieve_bound_caps_its_terms():
    # Q passes the product of the 25 primes below 100, so L(Q) has 2^25 terms
    omega = ",".join(f"{p}=1/2" for p in nt.primes_up_to(100))
    argv = ["sieve-bound", "--Q", str(10**39), "--omega", omega]
    proc = subprocess.run([sys.executable, "-m", "galmax.cli", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3 and "squarefree terms" in proc.stderr, proc.stderr


def test_cli_field_report_writes_coefficients_as_rationals():
    assert _field_curve_report("[1/2,-3],[0.1]")["curve"] == [["1/2", "-3"], ["1/10", "0"]]


def test_cli_field_curve_entries_are_read_exactly():
    # each entry is parsed from its own text, never through a float
    assert _field_curve_report("[0.1],[1]") == _field_curve_report("[1/10],[1]")
    K = nf.MonogenicField([1, 0, 1])
    assert cli._parse_field_curve("[1/2,-3],[0.1]", K) == (K.elem([Fraction(1, 2), -3]), K.elem([Fraction(1, 10)]))
    for bad in ("[true],[1]", "[[1]],[1]", "[1,],[1]", "[1],[1],[1]", "[1e400]"):
        with pytest.raises(InvalidInputError):
            cli._parse_field_curve(bad, K)
