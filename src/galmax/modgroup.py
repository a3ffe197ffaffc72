"""Exact arithmetic for subgroups of GL2 and SL2 over Z/mZ.

Matrices are encoded as integers ((a*m + b)*m + c)*m + d so that whole
element sets live in numpy arrays; all group-level operations (closure,
derived subgroup, conjugacy orbits, reductions) are vectorized scans over
those code arrays.  Integer codes sort lexicographically by (a, b, c, d),
which is the canonical element order used for representatives and reports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Literal, NamedTuple, Sequence

import numpy as np

from . import nt
from .errors import InvalidInputError, ResourceCapError

Ambient = Literal["SL2", "GL2"]

SL2_MODULUS_CAP = 27
GL2_MODULUS_CAP = 16
GROUP_ORDER_CAP = 2**20


class MatModM(NamedTuple):
    """A 2x2 matrix (a b; c d) over Z/mZ with unit determinant."""

    m: int
    a: int
    b: int
    c: int
    d: int

    @property
    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.m

    @property
    def trace(self) -> int:
        return (self.a + self.d) % self.m

    def mul(self, other: "MatModM") -> "MatModM":
        if other.m != self.m:
            raise InvalidInputError("modulus mismatch")
        m = self.m
        return MatModM(
            m,
            (self.a * other.a + self.b * other.c) % m,
            (self.a * other.b + self.b * other.d) % m,
            (self.c * other.a + self.d * other.c) % m,
            (self.c * other.b + self.d * other.d) % m,
        )

    def inv(self) -> "MatModM":
        m = self.m
        di = pow(self.det, -1, m)
        return MatModM(m, (self.d * di) % m, (-self.b * di) % m, (-self.c * di) % m, (self.a * di) % m)

    def reduce(self, m_target: int) -> "MatModM":
        if self.m % m_target != 0:
            raise InvalidInputError(f"{m_target} does not divide modulus {self.m}")
        return MatModM(m_target, self.a % m_target, self.b % m_target, self.c % m_target, self.d % m_target)

    def code(self) -> int:
        return ((self.a * self.m + self.b) * self.m + self.c) * self.m + self.d


def mat(m: int, a: int, b: int, c: int, d: int) -> MatModM:
    """Canonicalize entries and check the unit-determinant invariant."""
    if m < 1:
        raise InvalidInputError("modulus must be >= 1")
    M = MatModM(m, a % m, b % m, c % m, d % m)
    if math.gcd(M.det, m) != 1:
        raise InvalidInputError(f"matrix {M} has non-unit determinant {M.det} mod {m}")
    return M


def identity(m: int) -> MatModM:
    return MatModM(m, 1 % m, 0, 0, 1 % m)


# ---------------------------------------------------------------------------
# integer-code representation


def decode(codes: np.ndarray, m: int):
    codes = np.asarray(codes, dtype=np.int64)
    d = codes % m
    c = (codes // m) % m
    b = (codes // (m * m)) % m
    a = codes // (m * m * m)
    return a, b, c, d


def encode(a, b, c, d, m: int) -> np.ndarray:
    return ((np.asarray(a, dtype=np.int64) * m + b) * m + c) * m + d


def mat_from_code(code: int, m: int) -> MatModM:
    a, b, c, d = decode(np.array([code]), m)
    return MatModM(m, int(a[0]), int(b[0]), int(c[0]), int(d[0]))


def mul_codes(codes: np.ndarray, g: MatModM) -> np.ndarray:
    """Right-multiply every encoded matrix by g."""
    m = g.m
    a, b, c, d = decode(codes, m)
    na = (a * g.a + b * g.c) % m
    nb = (a * g.b + b * g.d) % m
    nc = (c * g.a + d * g.c) % m
    nd = (c * g.b + d * g.d) % m
    return encode(na, nb, nc, nd, m)


def mul_codes_left(g: MatModM, codes: np.ndarray) -> np.ndarray:
    m = g.m
    a, b, c, d = decode(codes, m)
    na = (g.a * a + g.b * c) % m
    nb = (g.a * b + g.b * d) % m
    nc = (g.c * a + g.d * c) % m
    nd = (g.c * b + g.d * d) % m
    return encode(na, nb, nc, nd, m)


def conj_codes(g: MatModM, codes: np.ndarray) -> np.ndarray:
    return mul_codes(mul_codes_left(g, codes), g.inv())


def det_of_codes(codes: np.ndarray, m: int) -> np.ndarray:
    a, b, c, d = decode(codes, m)
    return (a * d - b * c) % m


def trace_of_codes(codes: np.ndarray, m: int) -> np.ndarray:
    a, _, _, d = decode(codes, m)
    return (a + d) % m


def reduce_codes(codes: np.ndarray, m: int, m_target: int) -> np.ndarray:
    a, b, c, d = decode(codes, m)
    return encode(a % m_target, b % m_target, c % m_target, d % m_target, m_target)


def closure_codes(m: int, gen_codes: Sequence[int], stop_above: int | None = None) -> np.ndarray | None:
    """Sorted codes of the subgroup generated by gen_codes.

    The generated submonoid of a finite group is the generated subgroup, so a
    breadth-first sweep under right multiplication by the generators suffices.
    With stop_above set, returns None as soon as more than stop_above elements
    are seen (early exit for is-it-the-full-group tests).
    """
    gens = [mat_from_code(int(c), m) for c in dict.fromkeys(int(c) for c in gen_codes)]
    seen = np.zeros(m**4, dtype=bool)
    ident = identity(m).code()
    seen[ident] = True
    frontier = np.array([ident], dtype=np.int64)
    count = 1
    while frontier.size:
        new_parts = []
        for g in gens:
            prod = mul_codes(frontier, g)
            prod = prod[~seen[prod]]
            if prod.size:
                prod = np.unique(prod)
                seen[prod] = True
                new_parts.append(prod)
        if not new_parts:
            break
        frontier = np.unique(np.concatenate(new_parts))
        count += frontier.size
        if stop_above is not None and count > stop_above:
            return None
    return np.nonzero(seen)[0].astype(np.int64)


# ---------------------------------------------------------------------------
# group orders and standard generators


def sl2_order(m: int) -> int:
    """|SL2(Z/mZ)| = m^3 * prod_{p | m} (1 - p^-2)."""
    if m == 1:
        return 1
    n = m**3
    for p in nt.factorint(m):
        n = n // (p * p) * (p * p - 1)
    return n


def gl2_order(m: int) -> int:
    """|GL2(Z/mZ)| = phi(m) * |SL2(Z/mZ)| (determinant is onto the units)."""
    if m == 1:
        return 1
    return nt.euler_phi(m) * sl2_order(m)


def sl2_generators(m: int) -> list[MatModM]:
    """The two elementary matrices, which generate SL2(Z/mZ) for every m."""
    if m == 1:
        return [identity(1)]
    return [mat(m, 1, 1, 0, 1), mat(m, 1, 0, 1, 1)]


def gl2_generators(m: int) -> list[MatModM]:
    gens = sl2_generators(m)
    if m > 2:
        gens += [mat(m, u, 0, 0, 1) for u in range(2, m) if math.gcd(u, m) == 1]
    return gens


# ---------------------------------------------------------------------------
# subgroup handles


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup of GL2(Z/mZ): generators plus the materialized element set.

    ``codes`` is the sorted tuple of integer codes of all elements; it is the
    identity of the subgroup for hashing and deduplication purposes.
    """

    m: int
    generators: tuple[MatModM, ...]
    codes: tuple[int, ...]
    label: str | None = None

    @property
    def order(self) -> int:
        return len(self.codes)

    @property
    def elements(self) -> tuple[MatModM, ...]:
        return tuple(mat_from_code(c, self.m) for c in self.codes)

    def code_array(self) -> np.ndarray:
        return np.asarray(self.codes, dtype=np.int64)

    def __contains__(self, g: MatModM) -> bool:
        return g.m == self.m and _bisect_contains(self.codes, g.code())

    def to_json(self) -> dict:
        return {
            "modulus": self.m,
            "order": self.order,
            "label": self.label,
            "generators": [list(g[1:]) for g in self.generators],
        }


def _bisect_contains(sorted_tuple: tuple[int, ...], value: int) -> bool:
    import bisect

    i = bisect.bisect_left(sorted_tuple, value)
    return i < len(sorted_tuple) and sorted_tuple[i] == value


def _handle_from_codes(m: int, gens: Iterable[MatModM], codes: np.ndarray, label: str | None = None) -> SubgroupHandle:
    return SubgroupHandle(m, tuple(gens), tuple(int(c) for c in codes), label)


@lru_cache(maxsize=64)
def enumerate_group(
    m: int,
    ambient: Ambient = "SL2",
    modulus_cap: int | None = None,
) -> SubgroupHandle:
    """Materialize the full group SL2(Z/mZ) or GL2(Z/mZ) by direct scan.

    The element scan doubles as a check of the standard order formulas; a
    mismatch would be an internal error.
    """
    if ambient not in ("SL2", "GL2"):
        raise InvalidInputError(f"ambient must be 'SL2' or 'GL2', got {ambient!r}")
    if m < 1:
        raise InvalidInputError("modulus must be >= 1")
    cap = modulus_cap if modulus_cap is not None else (SL2_MODULUS_CAP if ambient == "SL2" else GL2_MODULUS_CAP)
    if m > cap:
        raise ResourceCapError(f"modulus {m} exceeds {ambient} materialization cap {cap}")
    expected = sl2_order(m) if ambient == "SL2" else gl2_order(m)
    if expected > GROUP_ORDER_CAP:
        raise ResourceCapError(f"group order {expected} exceeds cap {GROUP_ORDER_CAP}")
    codes = np.arange(m**4, dtype=np.int64)
    dets = det_of_codes(codes, m)
    if ambient == "SL2":
        keep = dets == 1 % m
    else:
        g = np.gcd(dets, m)
        keep = g == 1
    codes = codes[keep]
    assert codes.size == expected, f"order formula mismatch for {ambient}(Z/{m}): {codes.size} != {expected}"
    gens = sl2_generators(m) if ambient == "SL2" else gl2_generators(m)
    return _handle_from_codes(m, gens, codes, label=f"{ambient}(Z/{m})")


def closure(m: int, gens: Iterable[MatModM | Sequence[int]]) -> SubgroupHandle:
    """Smallest subgroup of GL2(Z/mZ) containing the generators."""
    mats: list[MatModM] = []
    for g in gens:
        if isinstance(g, MatModM):
            if g.m != m:
                raise InvalidInputError("generator modulus mismatch")
            mats.append(mat(m, g.a, g.b, g.c, g.d))
        else:
            mats.append(mat(m, *g))
    if m > SL2_MODULUS_CAP:
        raise ResourceCapError(f"modulus {m} exceeds closure cap {SL2_MODULUS_CAP}")
    codes = closure_codes(m, [g.code() for g in mats])
    return _handle_from_codes(m, mats, codes)


# ---------------------------------------------------------------------------
# derived subgroup and abelianization


def derived_subgroup(H: SubgroupHandle) -> SubgroupHandle:
    """Commutator subgroup of H, as the normal closure of generator commutators.

    [H, H] is generated by the H-conjugates of the commutators of a generating
    set, so the algorithm grows a generating set T: whenever some conjugate of
    T by a generator of H escapes <T>, it is added and the closure recomputed.
    """
    m = H.m
    gens = list(H.generators)
    if not gens:
        gens = [mat_from_code(c, m) for c in H.codes]
    ident = identity(m).code()
    T: list[int] = sorted(
        {x.mul(y).mul(x.inv()).mul(y.inv()).code() for x in gens for y in gens} - {ident}
    )
    current = closure_codes(m, T)
    stable = False
    while not stable:
        stable = True
        in_k = np.zeros(m**4, dtype=bool)
        in_k[current] = True
        for g in gens:
            conj = conj_codes(g, np.asarray(T or [ident], dtype=np.int64))
            escaped = conj[~in_k[conj]]
            if escaped.size:
                T = sorted(set(T) | {int(c) for c in escaped})
                current = closure_codes(m, T)
                stable = False
                break
    comm_gens = tuple(mat_from_code(int(c), m) for c in T[:4]) or (identity(m),)
    return _handle_from_codes(m, comm_gens, current, label=(H.label or "H") + "'")


class Abelianization(NamedTuple):
    order: int
    is_cyclic: bool


def abelianization_order(H: SubgroupHandle) -> Abelianization:
    """|H / H'| together with whether the quotient is cyclic."""
    Hp = derived_subgroup(H)
    index = H.order // Hp.order
    if index == 1:
        return Abelianization(1, True)
    reps, coset_of = _coset_partition(H, Hp)
    # the quotient is abelian; it is cyclic iff some coset has order == index
    for r in reps:
        if _coset_order(r, coset_of, reps, H.m, index) == index:
            return Abelianization(index, True)
    return Abelianization(index, False)


def _coset_partition(H: SubgroupHandle, K: SubgroupHandle):
    """Left cosets of K in H: returns (representatives, code -> coset id map)."""
    k_codes = K.code_array()
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for c in H.codes:
        if c in coset_of:
            continue
        rep = mat_from_code(c, H.m)
        coset = mul_codes_left(rep, k_codes)
        cid = len(reps)
        reps.append(c)
        for x in coset.tolist():
            coset_of[x] = cid
    return reps, coset_of


def _coset_order(rep_code: int, coset_of: dict[int, int], reps: list[int], m: int, cap: int) -> int:
    g = mat_from_code(rep_code, m)
    x = g
    ident_cid = coset_of[identity(m).code()]
    for k in range(1, cap + 1):
        if coset_of[x.code()] == ident_cid:
            return k
        x = x.mul(g)
    return cap + 1


# ---------------------------------------------------------------------------
# conjugacy classes


@dataclass(frozen=True)
class ConjClass:
    """A conjugation orbit in GL2 or SL2 over Z/mZ."""

    m: int
    ambient: Ambient
    representative: MatModM
    member_codes: tuple[int, ...]
    trace: int
    det: int

    @property
    def size(self) -> int:
        return len(self.member_codes)

    def to_json(self) -> dict:
        return {
            "modulus": self.m,
            "ambient": self.ambient,
            "representative": list(self.representative[1:]),
            "size": self.size,
            "trace": self.trace,
            "det": self.det,
        }


def conjugacy_classes(m: int, ambient: Ambient = "GL2", det_filter: int | None = None) -> list[ConjClass]:
    """Partition of the (optionally det-filtered) group into conjugation orbits.

    Orbits are computed under conjugation by the full ambient group, via
    breadth-first search with the standard ambient generators.  Classes are
    sorted by their minimal element code, which is also the representative.
    """
    G = enumerate_group(m, ambient)
    codes = G.code_array()
    if det_filter is not None:
        d = det_filter % m
        if math.gcd(d, m) != 1:
            raise InvalidInputError(f"det filter {det_filter} is not a unit mod {m}")
        codes = codes[det_of_codes(codes, m) == d]
    gens = sl2_generators(m) if ambient == "SL2" else gl2_generators(m)
    in_set = np.zeros(m**4, dtype=bool)
    in_set[codes] = True
    assigned = np.zeros(m**4, dtype=bool)
    classes: list[ConjClass] = []
    for c in codes.tolist():
        if assigned[c]:
            continue
        orbit = _conj_orbit(m, c, gens)
        assigned[orbit] = True
        rep = mat_from_code(int(orbit[0]), m)
        classes.append(
            ConjClass(
                m,
                ambient,
                rep,
                tuple(int(x) for x in orbit),
                rep.trace,
                rep.det,
            )
        )
    classes.sort(key=lambda cl: cl.member_codes[0])
    return classes


def _conj_orbit(m: int, code: int, gens: list[MatModM]) -> np.ndarray:
    seen = np.zeros(m**4, dtype=bool)
    seen[code] = True
    frontier = np.array([code], dtype=np.int64)
    while frontier.size:
        new_parts = []
        for g in gens:
            conj = conj_codes(g, frontier)
            conj = conj[~seen[conj]]
            if conj.size:
                conj = np.unique(conj)
                seen[conj] = True
                new_parts.append(conj)
        frontier = np.unique(np.concatenate(new_parts)) if new_parts else np.array([], dtype=np.int64)
    return np.nonzero(seen)[0].astype(np.int64)


# ---------------------------------------------------------------------------
# reduction and class coverage


def reduce_mod(H: SubgroupHandle, m_target: int) -> SubgroupHandle:
    """Entrywise reduction of H to Z/m_target; the image is a subgroup."""
    if m_target < 1 or H.m % m_target != 0:
        raise InvalidInputError(f"{m_target} does not divide {H.m}")
    codes = np.unique(reduce_codes(H.code_array(), H.m, m_target))
    gens = tuple(g.reduce(m_target) for g in H.generators)
    return _handle_from_codes(m_target, gens, codes, label=f"{H.label or 'H'} mod {m_target}")


class CoverageResult(NamedTuple):
    meets_all: bool
    missing: ConjClass | None
    classes_checked: int


def meets_all_classes_with_det(H: SubgroupHandle, d: int) -> CoverageResult:
    """Does H intersect every GL2-conjugacy class of determinant d?"""
    d = d % H.m
    if math.gcd(d, H.m) != 1:
        raise InvalidInputError(f"{d} is not a unit mod {H.m}")
    classes = [cl for cl in conjugacy_classes(H.m, "GL2", det_filter=d)]
    members = set(H.codes)
    for cl in classes:
        if members.isdisjoint(cl.member_codes):
            return CoverageResult(False, cl, len(classes))
    return CoverageResult(True, None, len(classes))
