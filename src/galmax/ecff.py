"""Short Weierstrass curves y^2 = x^3 + ax + b, the only model galmax
builds: the discriminant and a validated curve over Q or a number field, the
quadratic character tables of prime fields, the exhaustive family counts over
all coefficient pairs mod p used by the statistics harness, the per-cell
Frobenius kernel and the rational CM j-invariants.

One per-cell kernel, ``batch_curve_data``, computes everything a Frobenius
signature needs (the trace, the root count of the cubic, the root count of
the 3-division quartic and the 3-torsion flag) for a batch of (curve, prime)
cells at once, a whole box at one prime or one curve at a run of primes.
It splits the batch into runs of cells, sweeps x for the traces of each
run (vectorised, in blocks of x values by cells) and reads the rest off the
trace.  Family scans over all coefficient pairs mod p are vectorized to
O(p^2).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import nt
from .errors import BadReductionError, InvalidInputError, ResourceCapError, SingularCurveError

FAMILY_SCAN_P_CAP = 2000
BATCH_CELLS = 1 << 16  # (x, cell) entries per run and per block of the batch_curve_data sweep
KERNEL_P_CAP = 1 << 21  # the a_p sweep's cubic x^3 + Ax + B is exact in int64 below it


def discriminant(a, b):
    """Delta = -16(4a^3 + 27b^2), in whatever exact ring a and b live in."""
    return -16 * (4 * a * a * a + 27 * b * b)


@dataclass(frozen=True)
class ShortWeierstrass:
    """y^2 = x^3 + ax + b over Q (Fraction coefficients) or a number field."""

    a: object
    b: object
    delta: object

    @property
    def is_rational(self) -> bool:
        return isinstance(self.a, (int, Fraction))


def validate(a, b) -> ShortWeierstrass:
    """Build a curve, rejecting singular coefficient pairs."""
    delta = discriminant(a, b)
    if not delta:
        raise SingularCurveError(delta=delta)
    return ShortWeierstrass(a, b, delta)


# ---------------------------------------------------------------------------
# prime-field machinery


def _check_p(p: int):
    if p < 5 or not nt.is_prime(p):
        raise InvalidInputError(f"prime fields require a prime p >= 5, got {p}")


def _cell_primes(p):
    """p as _run_data takes it: one prime (returned as a Python int), or an
    int64 array with one prime per cell; every distinct prime is checked,
    and one of KERNEL_P_CAP or more is refused with ResourceCapError."""
    one = isinstance(p, (int, np.integer))
    p = int(p) if one else np.asarray(p, dtype=np.int64)
    for q in [p] if one else np.unique(p).tolist():
        _check_p(q)
        if q >= KERNEL_P_CAP:
            raise ResourceCapError(f"the Frobenius kernel takes primes below 2^21, got {q}")
    return p


@lru_cache(maxsize=64)
def quadratic_character_table(p: int) -> np.ndarray:
    """chi[v] = (v/p), the Legendre symbol, as an int8 array of length p."""
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    squares = (np.arange(1, (p - 1) // 2 + 1, dtype=np.int64) ** 2) % p
    chi[squares] = 1
    chi.setflags(write=False)
    return chi


# ---------------------------------------------------------------------------
# family scans over all (r, s) in F_p^2


def _root_count_grid(p: int) -> np.ndarray:
    """count[r, s] = number of roots of x^3 + rx + s, for all pairs at once."""
    if p > FAMILY_SCAN_P_CAP:
        raise ResourceCapError(f"family scan at p={p} exceeds cap {FAMILY_SCAN_P_CAP}")
    counts = np.zeros(p * p, dtype=np.int32)
    r = np.arange(p, dtype=np.int64)
    for x in range(p):
        x3 = x * x % p * x % p
        s = (-(x3 + r * x)) % p
        np.add.at(counts, r * p + s, 1)
    return counts.reshape(p, p)


def omega_counts_mod2(p: int) -> dict[tuple[int, ...], int]:
    """Exact count of nonsingular (r, s) by splitting pattern of the cubic."""
    _check_p(p)
    counts = _root_count_grid(p)
    r = np.arange(p, dtype=np.int64)
    good = _disc_mod(p, r[:, None], r) != 0
    return {
        (1, 1, 1): int(((counts == 3) & good).sum()),
        (2, 1): int(((counts == 1) & good).sum()),
        (3,): int(((counts == 0) & good).sum()),
    }


def weil_count(r: int, gamma: int, p: int) -> tuple[int, float]:
    """#{(a, b): Delta_{a,b} nonzero and equal to gamma * c^r for some unit c},
    together with the normalized deviation |count - p^2/r| / p^(3/2)."""
    _check_p(p)
    if r < 1:
        raise InvalidInputError(f"r must be >= 1, got {r}")
    if (p - 1) % r != 0:
        raise InvalidInputError(f"need p = 1 mod r, got p={p}, r={r}")
    gamma %= p
    if gamma == 0:
        raise InvalidInputError("gamma must be a unit")
    if p > FAMILY_SCAN_P_CAP:
        raise ResourceCapError(f"family scan at p={p} exceeds cap {FAMILY_SCAN_P_CAP}")
    targets = np.zeros(p, dtype=bool)
    targets[[gamma * pow(c, r, p) % p for c in range(1, p)]] = True
    a = np.arange(p, dtype=np.int64)[:, None]
    b = np.arange(p, dtype=np.int64)[None, :]
    delta = -16 * _disc_mod(p, a, b) % p
    count = int(targets[delta].sum())
    deviation = abs(count - p * p / r) / p**1.5
    return count, deviation


def _disc_mod(p: int, A, B) -> np.ndarray:
    """4A^3 + 27B^2 = -Delta/16 mod p for int64 arrays A and B; reducing after
    every product keeps it exact for any p below 2^31."""
    A = np.asarray(A, dtype=np.int64) % p
    B = np.asarray(B, dtype=np.int64) % p
    return (4 * (A * A % p) % p * A + 27 * (B * B % p)) % p


def _x_sum(p, n: int, term) -> np.ndarray:
    """Sum over x in F_p of term(x), an (x, cell) array for a column of x
    values, in blocks of about BATCH_CELLS entries: one int64 per cell.  With
    one prime per cell, x runs below the largest and each cell masks x >= p."""
    total = np.zeros(n, dtype=np.int64)
    block = max(1, BATCH_CELLS // max(n, 1))
    bound = p if isinstance(p, int) else int(p.max(initial=0))
    for x0 in range(0, bound, block):
        x = np.arange(x0, min(x0 + block, bound), dtype=np.int64)[:, None]
        values = term(x)
        total += (values if isinstance(p, int) else values * (x < p)).sum(axis=0)
    return total


def _character(p):
    """chi(v) = (v/p), the Legendre symbol, for v reduced mod p: a lookup in
    p's cached table, or with one prime per cell in the tables of the
    distinct primes laid end to end, at an offset per cell."""
    if isinstance(p, int):
        return quadratic_character_table(p).__getitem__
    primes, cell_prime = np.unique(p, return_inverse=True)
    table = np.concatenate([quadratic_character_table(q) for q in primes.tolist()])
    offset = (np.cumsum(primes) - primes)[cell_prime.reshape(p.shape)]
    return lambda v: table[v + offset]


def batch_curve_data(p, A, B):
    """Traces and splitting data for n curves at good primes p >= 5.

    p is one prime for every cell (a Python int) or an int64 array with one
    prime per cell, and cell k is the curve y^2 = x^3 + A[k] x + B[k] at
    the prime of cell k.  Returns (ap, cubic_roots, psi3_roots,
    psi3_point_flag), one entry per cell: the trace a_p, the number of
    roots of x^3 + Ax + B, the number of roots of psi3 = 3x^4 + 6Ax^2 +
    12Bx - A^2 (the x-coordinates of the four order-3 subgroups) and
    whether E(F_p) has a point of order 3.  A and B are int64 arrays (or
    sequences of ints that fit); raises InvalidInputError if a cell's p is
    not a prime >= 5 or an array p does not hold one prime per cell, and
    BadReductionError, naming the prime, if p divides a cell's discriminant.
    No cells give four empty columns.

    Cells of several primes come in prime order, as a stream feeds them
    (any other order gives the same columns, in runs sized less well).  They
    are split into runs worth about BATCH_CELLS (x, cell) entries of sweep,
    and a run never splits one prime's cells; a run of one prime is swept
    with p as an int.  So one curve at p < BATCH_CELLS, or a whole box at
    one prime, takes a single vectorised pass.
    """
    A, B = np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64)
    if isinstance(p, (int, np.integer)):
        return _run_data(p, A, B)
    p = np.asarray(p, dtype=np.int64)
    if p.shape != A.shape:
        raise InvalidInputError(f"{p.size} cell primes for {A.size} curves")
    if not p.size:  # no cells: the four empty columns an int p gives
        return _run_data(5, A, B)
    starts = (np.flatnonzero(p[1:] != p[:-1]) + 1).tolist()  # the first cell of each prime after the first
    runs, lo = [], 0
    for start, end in zip(starts, starts[1:] + [p.size]):
        if (end - lo) * int(p[end - 1]) > BATCH_CELLS:
            runs.append((lo, start))
            lo = start
    runs.append((lo, p.size))
    # a run of one prime takes the int sweep: sweeping every box batch with
    # per-cell primes took 0.25 s for density_scan([20, 40]), against 0.17 s
    data = [_run_data(p[lo] if (p[lo:hi] == p[lo]).all() else p[lo:hi], A[lo:hi], B[lo:hi]) for lo, hi in runs]
    return data[0] if len(data) == 1 else tuple(np.concatenate(col) for col in zip(*data))


def _run_data(p, A, B):
    """batch_curve_data of one run, p one prime or one prime per cell.

    Only a_p = -sum_x chi(x^3 + Ax + B) is swept over x, in blocks of about
    BATCH_CELLS (x, cell) entries; the cells of several primes sweep x below
    the largest and mask x >= p per cell.  The cubic is reduced mod p once:
    with x, A, B < p < 2^21 (KERNEL_P_CAP), x^3 + Ax + B < 2^63 is exact in
    int64, and x^3 is built on the column of x values, not per cell.  The
    rest is read off X^2 - a_p X + p, the characteristic polynomial of
    Frobenius, mod 2 and mod 3:
    - the cubic has no root if #E(F_p) = p + 1 - a_p is odd, else 3 roots if
      Delta is a square mod p and 1 root if not; the flag is 3 | p + 1 - a_p;
    - psi3 has a root for each Frobenius-stable line of E[3].  At p = 2 mod 3
      there are two if 3 | a_p, none otherwise.  At p = 1 mod 3 there are
      none if 3 | a_p; otherwise Frobenius has the double eigenvalue
      lambda = -a_p and fixes one line, or all four if it is scalar, which
      needs E[3] in E(F_p) (lambda = 1, 9 | p + 1 - a_p) or in the quadratic
      twist (lambda = -1, 9 | p + 1 + a_p).  Only those cells get a second
      sweep, which counts the roots of psi3.
    """
    p = _cell_primes(p)
    A, B = A % p, B % p
    disc = _disc_mod(p, A, B)
    if not disc.all():
        bad = p if isinstance(p, int) else p[np.argmin(disc != 0)]
        raise BadReductionError(f"singular reduction at p={bad}")
    chi = _character(p)
    ap = -_x_sum(p, A.size, lambda x: chi((x * x * x + A * x + B) % p))
    cubic_roots = np.where(ap % 2, 0, np.where(chi(-disc % p) == 1, 3, 1))
    t = ap % 3
    psi3_roots = np.where(p % 3 == 2, np.where(t == 0, 2, 0), np.where(t == 0, 0, 1))
    scalar = np.flatnonzero((p % 3 == 1) & (t != 0) & ((p + 1 + np.where(t == 1, ap, -ap)) % 9 == 0))
    if scalar.size:
        a, b, q = A[scalar], B[scalar], p if isinstance(p, int) else p[scalar]
        psi3_roots[scalar] = _x_sum(
            q, scalar.size, lambda x: (3 * (x * x % q) ** 2 + 6 * a * (x * x % q) + 12 * b * x - a * a) % q == 0
        )
    return ap, cubic_roots, psi3_roots, (p + 1 - ap) % 3 == 0


# ---------------------------------------------------------------------------
# the rational CM j-invariants


# The thirteen rational j-invariants of curves with complex multiplication
# (orders of class number one; see Silverman, Advanced Topics in the
# Arithmetic of Elliptic Curves, Appendix A §3).
CM_J_INVARIANTS = {
    0: -3,
    54000: -12,
    -12288000: -27,
    1728: -4,
    287496: -16,
    -3375: -7,
    16581375: -28,
    8000: -8,
    -32768: -11,
    -884736: -19,
    -884736000: -43,
    -147197952000: -67,
    -262537412640768000: -163,
}
