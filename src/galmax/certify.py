"""Frobenius sampling and sound certification of large torsion Galois images.

Everything here turns Frobenius signatures (trace, norm, torsion splitting
data at good degree-one primes) into one-sided verdicts.  The splitting
patterns come from the root counts of the 2- and 3-division polynomials by
``subgroups.pattern_ids``, the rule the signature tables use for matrices.
``prime_axis`` walks the good primes of n curves, over Q or a monogenic
field, and ``signature_columns`` turns a batch of (curve, prime) cells into
int64 columns, with one kernel call per chunk of a curve's primes.  Every
level test (mod l >= 5 by characteristic-polynomial witnesses, mod 4, 8, 9
by table elimination, the quadratic entanglement conditions) is one
``LevelAccumulator``, and ``stream_levels`` is the one loop that feeds it:
it walks the axis for the curves still open, feeds their columns in chunks,
and a curve leaves the stream as soon as every level test has certified it.
``serre_check`` and ``certify_maximal`` stream one curve in chunks of
doubling length and read each witness off the columns fed; box scans
(``sieve``) stream a whole box one prime at a time.  Certification is
monotone in the cells fed and every witness is the first cell (in prime
order) meeting its condition, so an early stop changes no verdict and no
witness, and a curve left uncertified sees every prime.
``collect_signatures`` and the list-taking level functions are only a row
view of the columns, kept for the benchmark's trace mode and for the
digests and reference tests: a signature is a row of SignatureColumns.

A subtlety the level-72 step depends on: containment of SL2 at levels 8 and
9 in the separate projections does not by itself give SL2(Z/72Z) in the
joint image; the obstructions are exactly couplings of the 2-torsion
permutation sign with a quadratic Dirichlet character of conductor dividing
72 (the seven quadratic subfields of Q(mu_72)).  With the determinant image
full and each such coupling refuted by an explicit prime, fullness at 72
follows: any failure of kernel-determinant coverage factors through a
character of the projection, the only order-2 character of SL2(Z/8)^ab
= Z/4 is the mod-2 permutation sign, and SL2(Z/9)^ab = Z/3 admits no
order-2 or order-4 quotient at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from . import ecff, nt, numfield
from .errors import InvalidInputError, ResourceCapError
from .subgroups import (
    CUBIC_PATTERNS, EPS_BY_CUBIC_ID, PSI3_PATTERNS, SignatureTable, _maximal, pattern_ids, subgroup_signature_table,
)
from .verdict import Verdict, certified, inconclusive, obstruction

# the quadratic subfields of Q(mu_72), by fundamental discriminant
ENTANGLEMENT_DISCRIMINANTS = (-3, -4, 8, -8, 12, 24, -24)

# nt.primes_up_to allocates one byte per integer up to the bound, and the
# per-cell kernel takes primes below ecff.KERNEL_P_CAP = 2^21
PRIME_BOUND_CAP = 10**6
# every prime up to l_max is a mod-l level, and each level's witness test
# reads a quadratic character table of length l
L_MAX_CAP = 100

_MOD_ELL_WITNESSES = ("split semisimple", "nonsplit semisimple", "projective order > 5")
_MOD_ELL_CONDITIONS = (
    "split semisimple with nonzero trace",
    "nonsplit semisimple with nonzero trace",
    "projective order > 5",
)


@dataclass(frozen=True)
class CertParams:
    """Knobs for signature collection and certification."""

    prime_bound: int = 10**4
    l_max: int = 37

    def __post_init__(self):
        if self.prime_bound < 30:
            raise InvalidInputError("prime_bound must be >= 30")
        if self.prime_bound > PRIME_BOUND_CAP:
            raise ResourceCapError(f"prime_bound {self.prime_bound} exceeds cap {PRIME_BOUND_CAP}")
        if self.l_max < 5:
            raise InvalidInputError("l_max must be >= 5")
        if self.l_max > L_MAX_CAP:
            raise ResourceCapError(f"l_max {self.l_max} exceeds cap {L_MAX_CAP}")


def integer_model(a, b) -> tuple[int, int]:
    """Rescale (a, b) -> (u^4 a, u^6 b) to integers; same curve over Q."""
    a, b = Fraction(a), Fraction(b)
    u = math.lcm(a.denominator, b.denominator)
    A = a * u**4
    B = b * u**6
    return int(A), int(B)


class SignatureColumns(NamedTuple):
    """Frobenius signatures as equal-length int64 columns, one entry per
    cell: the prime p (the norm of a degree-one prime), the root c of the
    field polynomial (-1 over Q), a_p, the cubic and psi3 pattern ids and
    the 3-torsion flag (-1: missing)."""

    p: np.ndarray
    root: np.ndarray
    ap: np.ndarray
    cubic: np.ndarray
    psi3: np.ndarray
    flag: np.ndarray

    @classmethod
    def of_rows(cls, rows) -> "SignatureColumns":
        """Columns of signature rows (p, root, a_p, cubic, psi3, flag);
        raises InvalidInputError for a row of any other width."""
        rows, width = list(rows), len(cls._fields)
        short = next((row for row in rows if len(row) != width), None)
        if short is not None:
            raise InvalidInputError(f"signature row {tuple(short)} has {len(short)} fields, not the {width} fields {cls._fields}")
        return cls(*np.array(rows, dtype=np.int64).reshape(-1, width).T)


# prime_axis keeps Q coefficients in int64 up to this size: |A|, |B| <= 2^18
# give |Delta| = 16 |4 A^3 + 27 B^2| <= 16 (2^56 + 27 * 2^36) < 2^61
_INT64_COEFFICIENT = 1 << 18


def prime_axis(A, B, prime_bound: int, K: numfield.MonogenicField | None = None, live=None):
    """Yield (p, c, curves, A mod P, B mod P) for every degree-one prime
    P = (p, c) with 5 <= p <= prime_bound, in increasing order of p: the
    indices of the curves y^2 = x^3 + A[k] x + B[k] with good reduction at
    P, and their coefficients reduced mod P, as int64 arrays.

    Over Q (K None), A and B hold exact integers of any size.  They are
    reduced as int64 arrays when every |A|, |B| <= _INT64_COEFFICIENT, and
    as object arrays, mod p before any int64 conversion, otherwise; c is
    None and a curve is good at p when p does not divide its discriminant.
    Over K they hold field elements, c runs over the roots of f mod p, and
    a curve is good at every P over p
    when p does not divide 6 disc(f) N(Delta) times its coefficient
    denominators.

    live, if given, is a bool mask over the curves that the caller may
    clear between primes: a curve is tested and reduced only while live.
    """
    live = np.ones(len(A), dtype=bool) if live is None else live
    if K is None:
        A, B = np.array(A, dtype=object), np.array(B, dtype=object)
        if max(np.abs(A).max(initial=0), np.abs(B).max(initial=0)) <= _INT64_COEFFICIENT:
            A, B = A.astype(np.int64), B.astype(np.int64)
        disc = ecff.discriminant(A, B)
        for p in nt.primes_up_to(prime_bound):
            if p >= 5:
                rows = np.flatnonzero(live)
                good = rows[disc[rows] % p != 0]
                yield p, None, good, (A[good] % p).astype(np.int64), (B[good] % p).astype(np.int64)
        return
    bad = np.array([_bad_number(K, a, b) for a, b in zip(A, B)], dtype=object)
    for P in numfield.degree_one_primes(K, prime_bound):
        if P.p >= 5:
            rows = np.flatnonzero(live)
            good = rows[bad[rows] % P.p != 0]
            a, b = ([numfield.reduce_elem(C[k], P) for k in good.tolist()] for C in (A, B))
            yield P.p, P.c, good, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)


def _bad_number(K: numfield.MonogenicField, a, b) -> int:
    norm = int(numfield._integerize_power_class(ecff.discriminant(a, b), 1).norm())
    return 6 * abs(K.disc_f) * abs(norm) * math.lcm(a.denominator_lcm(), b.denominator_lcm())


def _axis_coefficients(curve: ecff.ShortWeierstrass, K: numfield.MonogenicField | None):
    """(A, B, K) of one curve for prime_axis: the integer model over Q, the
    power-basis coefficients over the field of the coefficients."""
    _check_field(curve, K)
    if curve.is_rational:
        a, b = integer_model(curve.a, curve.b)
        return [a], [b], None
    return [curve.a], [curve.b], curve.a.field


def _check_field(curve: ecff.ShortWeierstrass, K: numfield.MonogenicField | None) -> None:
    """Refuse a K given that is not the field of the curve's coefficients."""
    field = None if curve.is_rational else curve.a.field
    if K is not None and K != field:
        raise InvalidInputError(f"the curve's coefficients lie in {field or 'Q'}, not in the field {K} given")


def signature_columns(p, A, B):
    """Frobenius signatures of the cells y^2 = x^3 + A[k] x + B[k] at good
    primes p >= 5, as int64 columns (a_p, cubic pattern id, psi3 pattern id,
    3-torsion flag), one entry per cell, from one ecff.batch_curve_data
    call, which takes p, A and B as they come.  Pattern ids index
    CUBIC_PATTERNS and PSI3_PATTERNS.
    The roots of the cubic are the 2-torsion points Frobenius fixes and the
    roots of psi3 the lines of E[3] it fixes, so the patterns follow from
    the root counts and det = p by subgroups.pattern_ids, with no polynomial
    arithmetic.
    """
    ap, cubic_roots, psi3_roots, has_3pt = ecff.batch_curve_data(p, A, B)
    return (ap, *pattern_ids(cubic_roots, psi3_roots, p), has_3pt.astype(np.int64))


def _chunk_columns(steps: list) -> tuple[np.ndarray, SignatureColumns]:
    """(curve of each cell, its signature columns) for a nonempty list of
    prime_axis steps, in prime order, from one signature_columns call."""
    p, c, curves, a, b = zip(*steps)
    sizes = [good.size for good in curves]
    p, root = np.repeat(p, sizes), np.repeat([-1 if r is None else r for r in c], sizes)
    curves, a, b = (np.concatenate(col) for col in (curves, a, b))
    return curves, SignatureColumns(p, root, *signature_columns(p, a, b))


def collect_signatures(
    curve: ecff.ShortWeierstrass,
    params: CertParams = CertParams(),
    K: numfield.MonogenicField | None = None,
) -> list[tuple]:
    """One curve's signatures at every good degree-one prime of prime_axis
    up to the bound, with no early stop, as rows (p, root, a_p, cubic id,
    psi3 id, flag) of SignatureColumns in prime order.  K, if given, must be
    the field of the curve's coefficients."""
    A, B, K = _axis_coefficients(curve, K)
    steps = [step for step in prime_axis(A, B, params.prime_bound, K) if step[2].size]
    return list(zip(*(col.tolist() for col in _chunk_columns(steps)[1]))) if steps else []


def _columns(rows: list) -> SignatureColumns:
    """Columns of signature rows, their cells in prime order (stably), as a
    stream feeds them.  Raises InvalidInputError for a pattern id that is
    neither -1 (missing) nor an index of CUBIC_PATTERNS or PSI3_PATTERNS, or
    a flag outside {-1, 0, 1}."""
    cols = SignatureColumns.of_rows(rows)
    for name, bound in (("cubic", len(CUBIC_PATTERNS)), ("psi3", len(PSI3_PATTERNS)), ("flag", 2)):
        stray = np.setdiff1d(getattr(cols, name), range(-1, bound))
        if stray.size:
            raise InvalidInputError(f"{name} {stray[0]} is not -1 or in 0..{bound - 1}")
    order = np.argsort(cols.p, kind="stable")
    return SignatureColumns(*(col[order] for col in cols))


# ---------------------------------------------------------------------------
# the level tests, for one curve or a box


def check_ell(ell: int) -> None:
    """Raise InvalidInputError unless ell is a prime >= 5 (a mod-l level),
    ResourceCapError if it exceeds L_MAX_CAP."""
    if ell > L_MAX_CAP:
        raise ResourceCapError(f"l = {ell} exceeds cap {L_MAX_CAP}")
    if ell < 5 or not nt.is_prime(ell):
        raise InvalidInputError(f"ell must be a prime >= 5, got {ell}")


def _mod_ell_hits(ell: np.ndarray, chi, norm, ap) -> np.ndarray:
    """hits[i, j, k]: whether cell k witnesses condition j of certify_mod_ell
    (split, nonsplit, projective order > 5) at the prime ell[i]; never where
    that prime divides the norm.  ell is a column of primes, and chi their
    quadratic characters, as ecff._character(ell) reads them.

    With t, d the trace and determinant mod ell and u = t^2/d, the tests
    u in {0, 1, 2, 4} and u^2 - 3u + 1 = 0 are taken times d and d^2, so no
    inverse is needed and every product stays below ell^2.
    """
    t, d = ap % ell, norm % ell
    t2 = t * t % ell
    disc = (t2 - 4 * d) % ell
    sign = chi(disc)
    split = (t != 0) & (disc != 0) & (sign == 1)
    nonsplit = (t != 0) & (sign == -1)
    order = (t2 != 0) & (t2 != d) & (t2 != 2 * d % ell) & (t2 != 4 * d % ell)
    order &= (t2 * t2 - 3 * t2 * d + d * d) % ell != 0
    return np.stack([split, nonsplit, order], axis=1) & (d != 0)[:, None]


@lru_cache(maxsize=None)
def _entanglement_characters() -> np.ndarray:
    """chi[i, n mod 24] = (D_i / n) for the coupling discriminants D_i, all
    of which are discriminants dividing 24, so (D/n) has period |D| in n."""
    return np.array([[nt.kronecker(D, r) for r in range(24)] for D in ENTANGLEMENT_DISCRIMINANTS])


def _cell_keys(m: int, norm, ap, cubic, psi3, flag) -> np.ndarray:
    """Dense key of each cell's level-m signature (trace and determinant mod
    m, plus the cubic pattern at m = 4, 8 or the psi3 pattern and 3-torsion
    flag at m = 9), -1 where the cell has none."""
    key = ap % m * m + norm % m
    usable = np.gcd(norm, m) == 1
    if m in (4, 8):
        usable &= cubic >= 0
        key = key * len(CUBIC_PATTERNS) + cubic
    elif m == 9:
        usable &= (psi3 >= 0) & (flag >= 0)
        key = (key * len(PSI3_PATTERNS) + psi3) * 2 + flag
    return np.where(usable, key, -1)


@dataclass(frozen=True)
class _Level:
    """An elimination level: signature classes numbered in sorted order, the
    class of each dense cell key (-1: not realizable in GL2(Z/m)), the
    entries x classes membership matrix of the table, the units mod m, the
    signature-maximal entries (subgroups._maximal of the entries' class
    sets), and hits[r, c], whether class c meets row r of the level's block
    of LevelAccumulator.first: determinant units[r], then a class missed by
    each maximal entry in turn.  A class missed by a maximal entry is missed
    by every entry inside it, so these rows decide the level."""

    table: SignatureTable
    classes: tuple
    class_of_key: np.ndarray
    member: np.ndarray
    units: np.ndarray
    maximal: tuple
    hits: np.ndarray


@lru_cache(maxsize=None)
def _level(m: int) -> _Level:
    if m in (2, 3):
        raise InvalidInputError("signature elimination handles m = 4, 8, 9 and primes 5..13")
    table = subgroup_signature_table(m)
    classes = tuple(sorted(table.full_signatures))
    t, d = (np.array([sig[i] for sig in classes], dtype=np.int64) for i in (0, 1))
    cubic = np.array([CUBIC_PATTERNS.index(sig[2]) if m in (4, 8) else 0 for sig in classes], dtype=np.int64)
    psi3 = np.array([PSI3_PATTERNS.index(sig[2]) if m == 9 else 0 for sig in classes], dtype=np.int64)
    flag = np.array([int(sig[3]) if m == 9 else 0 for sig in classes], dtype=np.int64)
    class_of_key = np.full(m * m * len(CUBIC_PATTERNS) * len(PSI3_PATTERNS) * 2, -1, dtype=np.int64)
    class_of_key[_cell_keys(m, d, t, cubic, psi3, flag)] = np.arange(len(classes))
    member = np.array([[sig in e.signatures for sig in classes] for e in table.entries], dtype=bool)
    units = np.array([u for u in range(m) if math.gcd(u, m) == 1], dtype=np.int64)
    maximal = tuple(_maximal(range(len(table.entries)), lambda e: table.entries[e].signatures))
    hits = np.vstack([d[None] == units[:, None], ~member[list(maximal)]])
    return _Level(table, classes, class_of_key, member, units, maximal, hits)


class LevelAccumulator:
    """Streaming state of the level tests for n curves.

    ``feed`` takes a batch of cells as equal-length columns (curve index,
    norm, a_p, cubic and psi3 pattern ids, 3-torsion flag; -1 for a missing
    pattern or flag), such as one prime's signature_columns over a box or a
    chunk of one curve's primes.  Cells are numbered in feed order.  The
    whole state is one int64 array, first[r, k]: the order of curve k's
    first cell meeting condition r (UNSET: none yet).  Its rows come in one
    block per level test: the three conditions of certify_mod_ell at each
    ell (witnesses[ell] is a view of its rows); at each elimination level m,
    one row per unit mod m (a cell of that determinant) and one per
    signature-maximal table entry (a cell whose class the entry misses; see
    _Level); one row per entanglement coupling (a cell refuting it).  A
    curve is certified once every row is set.
    """

    UNSET = np.iinfo(np.int64).max

    def __init__(self, n: int, ells=(), ms=(), entanglement: bool = False):
        ells = tuple(ells)
        for ell in ells:
            check_ell(ell)
        self.n = n
        self.cells = 0
        self.levels = {m: _level(m) for m in ms}
        sizes = [3 * len(ells), *(len(lv.hits) for lv in self.levels.values())]
        sizes.append(len(ENTANGLEMENT_DISCRIMINANTS) if entanglement else 0)
        self.first = np.full((sum(sizes), n), self.UNSET)
        bounds = np.cumsum([0, *sizes]).tolist()
        # row slices of first: C-contiguous views, as _first needs
        self._blocks = [self.first[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        mod_ell, *level_rows, self.refuted = self._blocks
        self.witnesses = dict(zip(ells, mod_ell.reshape(len(ells), 3, n)))
        self._level_rows = dict(zip(self.levels, level_rows))
        self._ells = np.array(ells, dtype=np.int64)[:, None]
        self._ell_chi = ecff._character(self._ells) if ells else None

    def feed(self, curves, norm, ap, cubic, psi3, flag) -> None:
        """Take a batch of cells: every ell's witness test in one pass over
        the (ell, cell) grid, then each elimination level's rows through its
        class table, then the entanglement refutations; each block of rows
        lowered in one pass."""
        curves, norm, ap, cubic, psi3, flag = (
            np.asarray(v, dtype=np.int64) for v in (curves, norm, ap, cubic, psi3, flag)
        )
        over = ap * ap > 4 * norm
        if over.any():
            k = np.flatnonzero(over)[0]
            raise InvalidInputError(f"trace {ap[k]} violates the Hasse bound at {norm[k]}")
        order = self.cells + np.arange(curves.size)
        self.cells += curves.size
        if self._ell_chi is not None:
            self._first(self._blocks[0], _mod_ell_hits(self._ells, self._ell_chi, norm, ap), curves, order)
        for m, lv in self.levels.items():
            keys = _cell_keys(m, norm, ap, cubic, psi3, flag)
            use = np.flatnonzero(keys >= 0)
            classes = lv.class_of_key[keys[use]]
            if (classes < 0).any():
                stray = sorted(set(norm[use][classes < 0].tolist()))
                raise InvalidInputError(f"the signatures at p = {stray} are those of no matrix in GL2(Z/{m})")
            self._first(self._level_rows[m], lv.hits[:, classes], curves[use], order[use])
        if len(self.refuted):
            use = (cubic >= 0) & (norm % 2 != 0) & (norm % 3 != 0)
            eps = EPS_BY_CUBIC_ID[cubic]
            self._first(self.refuted, use & (_entanglement_characters()[:, norm % 24] != eps), curves, order)

    @staticmethod
    def _first(first, hits, curves, order) -> None:
        """Lower first[..., k] to the order of curve k's first cell in
        hits[..., :], every row in one pass (first is C-contiguous, so its
        reshape is a view)."""
        row, cell = np.divmod(np.flatnonzero(hits), curves.size)
        np.minimum.at(first.reshape(-1), row * first.shape[-1] + curves[cell], order[cell])

    def certified(self, curves=slice(None)) -> np.ndarray:
        """Which of the given curves (default: all) have every row of first
        set.  Each block of rows is read only for the curves every earlier
        block passed."""
        k = np.arange(self.n)[curves]
        out = np.ones(k.size, dtype=bool)
        for block in self._blocks:
            passing = np.flatnonzero(out)
            out[passing] = (block[:, k[passing]] != self.UNSET).all(axis=0)
        return out

    # -- verdicts for one curve fed the columns cols

    def mod_ell_verdict(self, ell: int, cols: SignatureColumns) -> Verdict:
        first = self.witnesses[ell][:, 0]
        if (first != self.UNSET).all():
            return certified(
                *(_witness(("condition", c), ("p", int(cols.p[i])), ("ap", int(cols.ap[i])))
                  for c, i in zip(_MOD_ELL_WITNESSES, first)),
                ell=ell,
            )
        return inconclusive(ell=ell, unmet_conditions=[c for c, i in zip(_MOD_ELL_CONDITIONS, first) if i == self.UNSET])

    def elimination_verdict(self, m: int, cols: SignatureColumns) -> Verdict:
        lv = self.levels[m]
        seen = self._level_rows[m][: len(lv.units), 0] != self.UNSET
        if not seen.any():
            return inconclusive(m=m, reason="no usable signatures")
        if not seen.all():
            return inconclusive(m=m, reason="determinant coverage incomplete", seen=lv.units[seen].tolist())
        # each entry's witness is the first cell whose class it misses
        keys = _cell_keys(m, cols.p, cols.ap, cols.cubic, cols.psi3, cols.flag)
        cells = np.flatnonzero(keys >= 0)
        classes = lv.class_of_key[keys[cells]]
        misses = ~lv.member[:, classes]
        eliminated = misses.any(axis=1)
        entries = lv.table.entries
        if not eliminated.all():
            survivors = [e.label for e, out in zip(entries, eliminated) if not out]
            return inconclusive(m=m, surviving_subgroups=survivors, table_scope=lv.table.scope)
        return certified(
            *(
                _witness(("eliminated", e.label), ("by_signature", lv.classes[classes[i]]), ("p", int(cols.p[cells[i]])))
                for e, i in zip(entries, misses.argmax(axis=1).tolist())
            ),
            m=m,
            table_scope=lv.table.scope,
        )

    def entanglement_verdict(self, cols: SignatureColumns) -> Verdict:
        first = self.refuted[:, 0]
        if (first != self.UNSET).all():
            return certified(
                *(
                    _witness(("coupling_discriminant", D), ("p", int(cols.p[i])), ("pattern", CUBIC_PATTERNS[cols.cubic[i]]))
                    for D, i in zip(ENTANGLEMENT_DISCRIMINANTS, first)
                ),
                statement="no quadratic entanglement of conductor dividing 72",
            )
        return inconclusive(surviving_discriminants=[D for D, i in zip(ENTANGLEMENT_DISCRIMINANTS, first) if i == self.UNSET])


@lru_cache(maxsize=1 << 14)
def _witness(*fields) -> dict:
    """The witness dict with these (key, value) fields, one object for all
    equal witnesses.  Level witnesses name a table entry or condition, a
    small prime and a few residues, so they repeat across curves: 500
    random curves over Q (|a|, |b| <= 10^4, prime bound 10^4) gave 45 000
    of them but only 1 848 distinct ones.  Shared, a kept Q report holds
    about half the memory (14 KB, not 26 KB), which matters to a caller
    that keeps many reports, as bench/run.py keeps every op's.  Like every
    witness, it is a value that no caller mutates: editing one in place
    would change every report that holds it, and every later one."""
    return dict(fields)


def _accumulate(cols: SignatureColumns, **levels) -> LevelAccumulator:
    """Feed one curve's columns, in order, to a one-curve accumulator."""
    acc = LevelAccumulator(1, **levels)
    acc.feed(np.zeros(cols.p.size, dtype=np.int64), cols.p, cols.ap, cols.cubic, cols.psi3, cols.flag)
    return acc


# stream_levels feeds a chunk once it holds this many cells, or as many as
# the curves have been fed on average if that is more
_FIRST_CHUNK = 16


def stream_levels(
    acc: LevelAccumulator, A, B, prime_bound: int, K: numfield.MonogenicField | None = None
) -> Iterator[tuple[np.ndarray, SignatureColumns]]:
    """Feed acc the signature columns of the curves y^2 = x^3 + A[k] x + B[k]
    (as prime_axis takes them) until acc certifies every curve or the primes
    run out, and yield each fed chunk as (curve of each cell, its columns).

    A chunk holds the prime_axis steps walked since the last feed, and ends
    at the first prime that brings it to at least max(_FIRST_CHUNK, cells
    fed so far / curves) cells: one prime of a box, runs of 16, 16, 32, 64,
    ... primes for one curve, so a decided curve stops within twice the
    primes it needed (or 16) and the accumulator is fed only O(log primes)
    times.  Its signatures take one kernel call, which plans its own sweep
    (see ecff.batch_curve_data).  After each chunk, the curves it fed that
    acc now certifies leave the stream: later primes neither reduce nor
    feed them.  Certification is monotone in the cells fed, so every curve
    ends with the outcome a full feed gives; a curve left uncertified sees
    every prime.
    """
    if acc.n == 0:
        return
    live = np.ones(acc.n, dtype=bool)
    chunk, held, fed = [], 0, 0
    for p, c, good, a, b in prime_axis(A, B, prime_bound, K, live):
        if not good.size:
            continue
        chunk.append((p, c, good, a, b))
        held += good.size
        if held >= max(_FIRST_CHUNK, fed // acc.n):
            yield _feed_chunk(acc, chunk, live)
            chunk, held, fed = [], 0, fed + held
            if not live.any():
                return
    if chunk:
        yield _feed_chunk(acc, chunk, live)


def _feed_chunk(acc: LevelAccumulator, chunk: list, live: np.ndarray) -> tuple[np.ndarray, SignatureColumns]:
    """Feed the signatures of the cells in chunk as one batch, then clear
    in live the curves of the chunk that acc now certifies."""
    curves, cols = _chunk_columns(chunk)
    acc.feed(curves, cols.p, cols.ap, cols.cubic, cols.psi3, cols.flag)
    fed = np.zeros(acc.n, dtype=bool)
    fed[curves] = True
    rows = np.flatnonzero(fed)
    live[rows[acc.certified(rows)]] = False
    return curves, cols


def _stream_curve(
    curve: ecff.ShortWeierstrass, params: CertParams, K: numfield.MonogenicField | None = None, **levels
) -> tuple[LevelAccumulator, SignatureColumns]:
    """Stream one curve through a one-curve accumulator running the given
    level tests; the accumulator and the columns it was fed, in feed order."""
    acc = LevelAccumulator(1, **levels)
    A, B, K = _axis_coefficients(curve, K)
    chunks = [SignatureColumns.of_rows([])]
    chunks += [cols for _, cols in stream_levels(acc, A, B, params.prime_bound, K)]
    return acc, SignatureColumns(*(np.concatenate(col) for col in zip(*chunks)))


# ---------------------------------------------------------------------------
# mod-l certification for primes l >= 5


def certify_mod_ell(sigs: list, ell: int) -> Verdict:
    """Certify image >= SL2(F_ell) from characteristic polynomial data.

    Soundness: a subgroup of GL2(F_l) not containing SL2 has projective image
    inside a Borel, a Cartan normalizer, or an exceptional (A4/S4/A5) group.
    Witness (i), split nonscalar semisimple with nonzero trace, escapes the
    nonsplit Cartan normalizer; witness (ii), nonsplit with nonzero trace,
    escapes the Borel and the split Cartan normalizer; witness (iii), with
    u = t^2/d outside {0, 1, 2, 4} and u^2 - 3u + 1 != 0, has projective
    order > 5 and escapes the exceptional groups.  Each witness is the first
    signature, in prime order, that meets its condition.
    """
    cols = _columns(sigs)
    return _accumulate(cols, ells=(ell,)).mod_ell_verdict(ell, cols)


# ---------------------------------------------------------------------------
# elimination against signature tables


def signature_elimination(sigs: list, m: int) -> Verdict:
    """Eliminate every tabled proper full-determinant subgroup at level m.

    Certified requires (1) the observed determinants to cover all units mod m
    (so the image provably has full determinant and the table applies) and
    (2) every table entry to miss at least one observed signature; the
    witness for an entry is the first signature, in prime order, whose
    class the entry misses, with its prime p.
    """
    cols = _columns(sigs)
    return _accumulate(cols, ms=(m,)).elimination_verdict(m, cols)


def certify_mod_small(sigs: list, m: int) -> Verdict:
    """Certify image >= SL2(Z/mZ) for m = 4 or 9 by table elimination."""
    if m not in (4, 9):
        raise InvalidInputError("certify_mod_small handles m in {4, 9}")
    return signature_elimination(sigs, m)


def quadratic_entanglement_check(sigs: list) -> Verdict:
    """Refute the couplings of the 2-torsion permutation sign with each
    quadratic character of conductor dividing 72.

    If the image were contained in {g : eps(g mod 2) = chi_D(det g)} the
    sign of the Frobenius permutation of the three 2-torsion points would
    equal the Kronecker symbol (D/p) at every good prime.
    """
    cols = _columns(sigs)
    return _accumulate(cols, entanglement=True).entanglement_verdict(cols)


# ---------------------------------------------------------------------------
# Serre curves over Q


@dataclass
class SerreReport:
    verdict: Verdict
    params: CertParams
    curve: tuple
    levels: dict = dc_field(default_factory=dict)
    notes: list = dc_field(default_factory=list)
    primes_scanned: int = 0  # good primes fed before every level certified, or all of them

    def to_json(self):
        return {
            "curve": list(self.curve),
            "params": {"prime_bound": self.params.prime_bound, "l_max": self.params.l_max},
            "primes_scanned": self.primes_scanned,
            "levels": {str(k): v.to_json() for k, v in self.levels.items()},
            "final": self.verdict.to_json(),
            "caveats": self.notes,
        }


def serre_check(curve: ecff.ShortWeierstrass, params: CertParams = CertParams()) -> SerreReport:
    """Certify the Serre-curve criterion over Q, or a structural obstruction.

    Certified means: mod-l image contains SL2 for every prime 5 <= l <= l_max,
    the mod-4 and mod-9 images contain SL2, no quadratic entanglement of
    conductor dividing 72 exists, and the curve passes the CM screen.  The
    criterion then gives the full mod-72 statement (see the module notes),
    and in particular an adelic index of exactly 2 away from primes > l_max.

    Obstructions are structural only: a rational 2-torsion point (image
    index >= 3) or a CM j-invariant (infinite index); an obstructed curve is
    not streamed at all.  The stream stops as soon as every level is
    certified, and primes_scanned counts the good primes it fed.
    """
    if not curve.is_rational:
        raise InvalidInputError("serre_check applies to curves over Q")
    A, B = integer_model(curve.a, curve.b)
    report = SerreReport(verdict=inconclusive(), params=params, curve=(A, B))
    torsion, x, cm, j = serre_obstruction(A, B)
    structural = [{"kind": "rational 2-torsion", "x": str(x)}] if torsion else []
    structural += [{"kind": "complex multiplication", "j": str(j)}] if cm else []
    if structural:
        report.verdict = obstruction(*structural, statement="the adelic index exceeds 2 (proper mod-2 image / CM)")
    else:
        acc, cols = _stream_curve(curve, params, **serre_level_tests(params))
        report.verdict, report.levels = _serre_levels(acc, cols, params)
        report.primes_scanned = cols.p.size
    report.notes.append(
        f"mod-l surjectivity checked for primes up to l_max = {params.l_max}; "
        "larger primes are covered only heuristically"
    )
    return report


def serre_obstruction(A, B):
    """The structural screen of the integer curves y^2 = x^3 + Ax + B, A and B
    Python ints or int64 arrays, elementwise like nt.least_integer_root:
    (torsion, x, cm, j), torsion where the cubic has an integer root (a
    rational 2-torsion point) and x its least one, cm where j = -1728 (4A)^3
    / Delta is an integer among the thirteen CM j-invariants."""
    torsion, x = nt.least_integer_root([B, A, 0, 1])
    j_num, j_den = -1728 * 64 * A**3, ecff.discriminant(A, B)
    j = j_num // j_den
    cm = (j_num % j_den == 0) & (sum(j == cm_j for cm_j in ecff.CM_J_INVARIANTS) > 0)
    return torsion, x, cm, j


def serre_level_tests(params: CertParams) -> dict:
    """The level tests of the Serre criterion, as LevelAccumulator keywords."""
    return {"ells": _primes_in(5, params.l_max), "ms": (4, 9, 8), "entanglement": True}


def _serre_levels(acc: LevelAccumulator, cols: SignatureColumns, params: CertParams):
    levels: dict = {ell: acc.mod_ell_verdict(ell, cols) for ell in acc.witnesses}
    levels.update((m, acc.elimination_verdict(m, cols)) for m in acc.levels)
    levels["entanglement"] = acc.entanglement_verdict(cols)
    pending = [k for k, v in levels.items() if not v.is_certified]
    if pending:
        return inconclusive(unresolved_levels=[str(k) for k in pending]), levels
    return (
        certified(
            f"criterion satisfied at 4, 8, 9, the entanglement conditions, and all primes 5..{params.l_max}",
            l_max=params.l_max,
        ),
        levels,
    )


# ---------------------------------------------------------------------------
# maximality over a monogenic field


@dataclass
class MaximalityReport:
    verdict: Verdict
    statement: str
    conditions: dict
    field_certificate: Verdict
    params: CertParams
    curve: tuple  # (a, b), each as its tuple of power-basis coefficients: (a,) over Q
    field: tuple
    primes_scanned: int = 0  # degree-one primes fed to conditions (a) and (b)

    def to_json(self):
        per_m = {}
        per_m.update({str(m): v.status for m, v in self.conditions["b"].items()})
        per_m.update({str(ell): v.status for ell, v in self.conditions["a"].items()})
        return {
            "curve": [[str(x) for x in c] for c in self.curve],
            "field": list(self.field),
            "params": {"prime_bound": self.params.prime_bound, "l_max": self.params.l_max},
            "primes_scanned": self.primes_scanned,
            "per_m": per_m,
            "conditions": {
                "a": {str(ell): v.to_json() for ell, v in self.conditions["a"].items()},
                "b": {str(m): v.to_json() for m, v in self.conditions["b"].items()},
                "c": self.conditions["c"].to_json(),
                "d": self.conditions["d"].to_json(),
            },
            "field_certificate": self.field_certificate.to_json(),
            "final": self.verdict.to_json(),
            "witnesses": [str(w) for w in self.verdict.witnesses],
            "statement": self.statement,
        }


def certify_maximal(
    curve: ecff.ShortWeierstrass,
    K: numfield.MonogenicField | None = None,
    params: CertParams = CertParams(),
) -> MaximalityReport:
    """Certify that the torsion image is the full determinant-compatible
    group over a monogenic field (and all of GL2(Zhat) when the field is
    certified linearly disjoint from the cyclotomics).

    Conditions: (a) SL2 mod every prime 5..l_max, (b) SL2 mod 4 and mod 9,
    (c) sqrt(Delta) not cyclotomic, (d) no cube roots of unity in the field
    or cbrt(Delta) not cyclotomic.  (a) and (b) are one stream that stops
    once both are certified; primes_scanned counts the primes it fed.  K,
    if given, must be the field of the curve's coefficients.
    """
    _check_field(curve, K)
    if curve.is_rational:
        return MaximalityReport(
            verdict=obstruction(
                "k = Q",
                reason="over Q every abelian extension is cyclotomic, so sqrt(disc) "
                "always lies in the cyclotomic closure and the image index is >= 2",
            ),
            statement="not maximal over Q (discriminant entanglement is unavoidable)",
            conditions={"a": {}, "b": {}, "c": inconclusive(), "d": inconclusive()},
            field_certificate=inconclusive(),
            params=params,
            curve=((curve.a,), (curve.b,)),
            field=(),
        )
    K = curve.a.field
    acc, cols = _stream_curve(curve, params, K, ells=_primes_in(5, params.l_max), ms=(4, 9))
    cond_a = {ell: acc.mod_ell_verdict(ell, cols) for ell in acc.witnesses}
    cond_b = {m: acc.elimination_verdict(m, cols) for m in acc.levels}
    cond_c = numfield.sqrt_cyclotomic_certificate(curve.delta, prime_budget=params.prime_bound)
    mu3 = numfield.mu_n_membership(K, 3)
    if mu3.is_certified:
        cond_d = mu3
    else:
        cond_d = numfield.cbrt_cyclotomic_certificate(curve.delta, prime_budget=params.prime_bound)
    field_cert = numfield.cyclotomic_intersection_certificate(K)
    per_m = dict(cond_b)
    per_m.update(cond_a)
    final = assemble_maximality(per_m, cond_c, cond_d)
    if final.is_certified and field_cert.is_certified:
        statement = "image is all of GL2(Zhat) (maximal, and the field is linearly disjoint from Q^cyc)"
    elif final.is_certified:
        statement = "image is the full determinant-compatible group over the field"
    else:
        statement = "not certified"
    return MaximalityReport(
        verdict=final,
        statement=statement,
        conditions={"a": cond_a, "b": cond_b, "c": cond_c, "d": cond_d},
        field_certificate=field_cert,
        params=params,
        curve=(curve.a.coeffs, curve.b.coeffs),
        field=K.coeffs,
        primes_scanned=cols.p.size,
    )


def assemble_maximality(per_m: Mapping[int, Verdict], disc_sqrt: Verdict, disc_cbrt_or_mu3: Verdict) -> Verdict:
    """Combine the per-level verdicts over a monogenic field into the overall
    maximal-image verdict.

    The required levels are 4, 9 and every prime from 5 up to the largest
    prime present.  Certification needs every input certified; any certified
    obstruction dominates; otherwise the result is inconclusive.
    """
    levels = sorted(per_m)
    if 4 not in levels or 9 not in levels:
        raise InvalidInputError("per-level verdicts must cover m = 4 and m = 9")
    primes_present = [m for m in levels if m not in (4, 9)]
    if not primes_present:
        raise InvalidInputError("per-level verdicts must cover the primes 5..l_max")
    l_max = max(primes_present)
    expected = _primes_in(5, l_max)
    missing = [p for p in expected if p not in per_m]
    if missing:
        raise InvalidInputError(f"missing per-prime verdicts for {missing}")
    for p in primes_present:
        if p not in expected:
            raise InvalidInputError(f"unexpected level {p} in per-level verdicts")

    parts = dict(per_m)
    parts["sqrt-disc"] = disc_sqrt
    parts["cbrt-disc-or-mu3"] = disc_cbrt_or_mu3
    bad = [k for k, v in parts.items() if v.is_obstruction]
    if bad:
        return obstruction(*[f"obstruction at {k}" for k in bad], levels=levels)
    pending = [k for k, v in parts.items() if v.is_inconclusive]
    if pending:
        return inconclusive(unresolved=[str(k) for k in pending], levels=levels)
    return certified(
        f"levels 4, 9 and primes 5..{l_max} certified; discriminant root conditions certified",
        l_max=l_max,
    )


def _primes_in(lo: int, hi: int) -> list[int]:
    return [p for p in nt.primes_up_to(hi) if p >= lo]

