"""Box scans, equidistribution reports, and the large-sieve bound evaluator.

Boxes are sup-norm boxes of short Weierstrass coefficients, enumerated as
int64 coefficient arrays.  A scan walks one box, at the largest x asked for,
and reads each row off it: a curve's verdict does not depend on the other
curves in the box, so a row counts the curves of height max(|a|, |b|) <= x
and those among them that fail.  The box runs the same prime axis, per-cell
kernel, level tests and stream that certify one curve:
``certify.stream_levels`` feeds a ``certify.LevelAccumulator`` over the box
one prime at a time, each prime's ``certify.signature_columns`` over the
open curves with good reduction there (one blocked
``ecff.batch_curve_data`` sweep over x in F_p), and a curve leaves the
stream once every level test has certified it.  The Serre scan first runs
the structural screen (``certify.serre_obstruction``, exact) in one call on
the box's arrays; only unobstructed curves enter the stream.  Memory is
O(curves x level-test rows): one first-cell order per curve and condition,
and a curve's verdict is a few array operations instead of a loop over its
signatures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import certify, ecff, modgroup, nt
from .errors import InvalidInputError, ResourceCapError
from .subgroups import CUBIC_PATTERNS, pattern_ids_of_codes

BOX_X_CAP = 400
SERRE_SCAN_X_CAP = 200
# squarefree products summed into L(Q): one Fraction product each, and 2^n of
# them for n primes once Q passes their product
SIEVE_TERMS_CAP = 10**5


def enumerate_box(x: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, B): the nonsingular pairs (a, b) of the sup-norm box max(|a|, |b|)
    <= x as int64 arrays, a-major (a ascending, then b)."""
    x = int(x)
    if x < 0:
        raise InvalidInputError("box bound must be >= 0")
    if x > BOX_X_CAP:
        raise ResourceCapError(f"box bound {x} exceeds cap {BOX_X_CAP}")
    side = np.arange(-x, x + 1, dtype=np.int64)
    A, B = np.repeat(side, side.size), np.tile(side, side.size)
    # |Delta| <= 16 (4 x^3 + 27 x^2) < 4.2 * 10^9 at BOX_X_CAP: exact in int64
    nonsingular = ecff.discriminant(A, B) != 0
    return A[nonsingular], B[nonsingular]


# ---------------------------------------------------------------------------
# level tests over a box


def scan_levels(A, B, prime_bound: int, **tests) -> certify.LevelAccumulator:
    """Run level tests over the curves y^2 = x^3 + A[k] x + B[k] (int64
    arrays): certify.stream_levels feeds a certify.LevelAccumulator(len(A),
    **tests) one prime of the open curves at a time.  Each curve's
    certified() is the one a full feed gives; a certified curve's rows were
    set by the primes it was fed.  Memory is O(curves x level-test rows), not
    O(curves x primes)."""
    acc = certify.LevelAccumulator(len(A), **tests)
    for _ in certify.stream_levels(acc, A, B, prime_bound):
        pass
    return acc


# ---------------------------------------------------------------------------
# density scans


@dataclass
class ScanRow:
    x: int
    total: int
    failures: int

    @property
    def proportion(self) -> float:
        return self.failures / self.total if self.total else 0.0

    def to_json(self):
        return {"x": self.x, "total": self.total, "failures": self.failures, "proportion": self.proportion}


@dataclass
class ScanReport:
    check: str
    rows: list[ScanRow]
    params: dict
    caveats: list[str] = dc_field(default_factory=list)

    @property
    def nonincreasing(self) -> bool:
        props = [r.proportion for r in self.rows]
        return all(b <= a + 1e-12 for a, b in zip(props, props[1:]))

    def to_json(self):
        return {
            "check": self.check,
            "params": self.params,
            "rows": [r.to_json() for r in self.rows],
            "nonincreasing_trend": self.nonincreasing,
            "caveats": self.caveats,
        }


def density_scan(
    xs: Iterable[int],
    check: str = "serre",
    params: certify.CertParams | None = None,
    ell: int = 5,
) -> ScanReport:
    """Proportion of box curves failing the chosen certification check.

    checks: "serre" (full Serre criterion), "mod-ell" (single prime l),
    "disc-square" (discriminant a perfect square : exact arithmetic count).
    The asymptotic decay exponents are NOT reproducible at desk scale; the
    report only exhibits the trend.
    """
    if check not in ("serre", "mod-ell", "disc-square"):
        raise InvalidInputError(f"unknown check {check!r}")
    certify.check_ell(ell)  # the report records ell whatever the check
    xs = [int(x) for x in xs]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise InvalidInputError("xs must be strictly increasing")
    for x in xs:
        if x < 0:
            raise InvalidInputError("box bound must be >= 0")
        if check == "serre" and x > SERRE_SCAN_X_CAP:
            raise ResourceCapError(f"serre scan bound {x} exceeds cap {SERRE_SCAN_X_CAP}")
        if x > BOX_X_CAP:
            raise ResourceCapError(f"box bound {x} exceeds cap {BOX_X_CAP}")
    if params is None:
        params = certify.CertParams(prime_bound=500, l_max=13)
    # a curve's verdict does not depend on the other curves scanned, so one
    # walk of the largest box gives every row
    A, B = enumerate_box(max(xs, default=0))
    if check == "disc-square":
        fail = _is_square(ecff.discriminant(A, B))
    elif check == "serre":
        fail = _serre_failures(A, B, params)
    else:
        fail = ~scan_levels(A, B, params.prime_bound, ells=(ell,)).certified()
    height = np.maximum(np.abs(A), np.abs(B))
    rows = []
    for x in xs:
        inside = height <= x
        rows.append(ScanRow(x, int(inside.sum()), int((fail & inside).sum())))
    caveats = [
        "desk-scale trend check only; asymptotic exponents are out of reach at these box sizes",
    ]
    return ScanReport(check=check, rows=rows, params={"prime_bound": params.prime_bound, "l_max": params.l_max, "ell": ell}, caveats=caveats)


def _is_square(D: np.ndarray) -> np.ndarray:
    """Which entries of the int64 array D are perfect squares, exactly.  D
    holds box discriminants, |D| < 4.2 * 10^9 < 2^52 at BOX_X_CAP, so float64
    holds each entry and the correctly rounded sqrt of a square k^2 is k; the
    integer test root * root == D then decides every entry."""
    root = np.rint(np.sqrt(np.maximum(D, 0))).astype(np.int64)
    return root * root == D


def _serre_failures(A, B, params) -> np.ndarray:
    """Which box curves fail the Serre criterion: the structural screen over
    the whole box in one call, then every level test over the unobstructed
    curves (a curve failing either fails the criterion)."""
    # |A|, |B| <= SERRE_SCAN_X_CAP = 200 keep the screen exact in int64: S, R <= 401 in
    # nt.integer_roots_monic's bounds give values below 10^13, and 1728 * 64 * A^3 < 10^12
    torsion, _, cm, _ = certify.serre_obstruction(A, B)
    fail = torsion | cm
    rows = np.flatnonzero(~fail)
    tests = certify.serre_level_tests(params)
    fail[rows] = ~scan_levels(A[rows], B[rows], params.prime_bound, **tests).certified()
    return fail


# ---------------------------------------------------------------------------
# equidistribution report


@dataclass
class OmegaRow:
    p: int
    pattern: tuple
    observed: int
    frequency: float
    predicted: float
    deviation_sqrtp: float
    tolerance: float  # m^5 / sqrt(p) with safety factor 1

    @property
    def within_tolerance(self) -> bool:
        return self.deviation_sqrtp <= self.tolerance * math.sqrt(self.p)

    def to_json(self):
        return {
            "p": self.p,
            "pattern": list(self.pattern),
            "observed": self.observed,
            "frequency": self.frequency,
            "predicted": self.predicted,
            "deviation_times_sqrt_p": self.deviation_sqrtp,
            "tolerance": self.tolerance,
            "within_tolerance": self.within_tolerance,
        }


def omega_report(p_list: Iterable[int], m: int = 2) -> list[OmegaRow]:
    """Observed vs predicted class frequencies for the mod-2 splitting scan.

    Predictions are |C| / |SL2(Z/2)| = (1/6, 1/2, 1/3) for the three
    conjugacy classes, read off the group engine rather than hard-coded.
    """
    if m != 2:
        raise InvalidInputError("omega reports are implemented for m = 2")
    classes = modgroup.conjugacy_classes(2, "GL2", det_filter=1)
    sl2_order = modgroup.sl2_order(2)
    # each class is a sorted code array; its first entry is the representative
    pattern_of_class = {CUBIC_PATTERNS[pattern_ids_of_codes(cl[0], 2)[0]]: cl.size for cl in classes}
    rows = []
    for p in sorted(set(int(p) for p in p_list)):
        counts = ecff.omega_counts_mod2(p)
        for pattern in sorted(pattern_of_class, reverse=True):
            predicted = pattern_of_class[pattern] / sl2_order
            freq = counts[pattern] / p**2
            rows.append(
                OmegaRow(
                    p=p,
                    pattern=pattern,
                    observed=counts[pattern],
                    frequency=freq,
                    predicted=predicted,
                    deviation_sqrtp=abs(freq - predicted) * math.sqrt(p),
                    tolerance=m**5 / math.sqrt(p),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# large sieve bound


def sieve_bound(
    omega: dict[int, Fraction],
    Q: int,
    x: float | None = None,
    degree: int = 1,
    rank: int = 2,
) -> tuple[Fraction, float | None]:
    """Exact L(Q) and the sieve bound shape (x^(degree*rank) + Q^(2*rank)) / L(Q).

    L(Q) sums, over squarefree q <= Q supported on the given primes, the
    products of omega_p / (1 - omega_p); every key of omega must be a prime,
    and raises ResourceCapError past SIEVE_TERMS_CAP such q.
    The implied constant of the bound is reported as 1: shape only, not a
    certified inequality.
    """
    if Q < 1:
        raise InvalidInputError("Q must be >= 1")
    if degree < 1 or rank < 1:
        raise InvalidInputError("degree and rank must be >= 1")
    if x is not None and not (math.isfinite(x) and x >= 0):
        raise InvalidInputError("x must be a finite number >= 0")
    ratios = {}
    for p, w in omega.items():
        if not nt.is_prime(p):
            raise InvalidInputError(f"omega key {p} is not a prime")
        w = Fraction(w)
        if not (0 <= w < 1):
            raise InvalidInputError(f"omega_{p} = {w} outside [0, 1)")
        if w > 0:
            ratios[int(p)] = w / (1 - w)
    primes = sorted(p for p in ratios if p <= Q)
    if _squarefree_count(primes, Q, SIEVE_TERMS_CAP) > SIEVE_TERMS_CAP:
        raise ResourceCapError(f"L(Q) has more than {SIEVE_TERMS_CAP} squarefree terms")
    # L(Q) * D in integers, D = prod d_p over the ratios n_p/d_p; a term's cofactor is D / prod of its d_p
    D = math.prod(ratios[p].denominator for p in primes)
    numerator = 0

    def expand(i: int, prod_val: int, num: int, cofactor: int):
        nonlocal numerator
        numerator += num * cofactor
        for j in range(i, len(primes)):
            q = primes[j]
            if prod_val * q > Q:
                break
            expand(j + 1, prod_val * q, num * ratios[q].numerator, cofactor // ratios[q].denominator)

    expand(0, 1, 1, D)
    total = Fraction(numerator, D)
    if x is None:
        return total, None
    try:  # float powers: an exact Q^(2 rank) could be huge before it overflows
        bound = (x ** (degree * rank) + float(Q) ** (2 * rank)) / float(total)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise InvalidInputError("the sieve bound overflows a float")
    return total, bound


def _squarefree_count(primes: list[int], Q: int, limit: int) -> int:
    """Number of squarefree q <= Q supported on the sorted primes, counted
    with int comparisons only and stopped once it passes limit."""
    count, stack = 0, [(0, 1)]  # (index of the next prime allowed, q)
    while stack and count <= limit:
        i, q = stack.pop()
        count += 1
        for j in range(i, len(primes)):
            if q * primes[j] > Q:
                break
            stack.append((j + 1, q * primes[j]))
    return count
