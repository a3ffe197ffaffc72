"""Subgroup enumeration and signature tables for small GL2/SL2 over Z/mZ.

``SmallGroupTable`` is the dense Cayley table of a materialized group of
modest order, for exact subgroup-lattice enumeration by cyclic extension.
Every subgroup of a solvable group has a subnormal chain with prime cyclic
quotients, so repeatedly extending known subgroups K by normalizing
elements g with g^p in K finds the complete lattice whenever the ambient
group is solvable.  For GL2/SL2 over F_5 and F_7 the non-solvable subgroups
are exactly the determinant preimages containing SL2, which are appended
explicitly.

``subgroup_signature_table`` builds on it: for a modulus m in {2, 3, 4, 8, 9}
or a prime up to 13, the proper subgroups H with surjective determinant not
containing SL2, together with the set of Frobenius-visible signatures each
can produce.  For m <= 4 the table is the literal full lattice; for primes
and for m = 8, 9 it consists of the maximal such subgroups, which eliminate
exactly the same observation sets (any smaller subgroup realizes a subset
of the signatures of a maximal one).

A signature at m = 2, 4, 8 or 3, 9 carries the splitting pattern, the cycle
type on the 2-torsion points or on the lines of E[3].  ``pattern_ids`` is
the one rule for it: the pattern follows from how many points or lines are
fixed, and the determinant.  ``certify`` applies it to the root counts of a
Frobenius class and the tables to matrix codes, through
``pattern_ids_of_codes``.

Every table is built from matrix codes and sorted code arrays; a lattice
mask over ``SmallGroupTable.codes`` selects a subgroup's codes.
``modgroup.closure_block`` is the one closure: it gives the octahedral
preimage at a prime and, at m = 9, the complements in each quotient by a
normal subgroup of the mod-3 kernel, closing the candidates of each in one
sweep from generator codes.  ``SmallGroupTable`` gives the lattices for
m <= 4 and, at m = 9, the maximal subgroups of GL2(F_3) and the lattice of
the mod-3 kernel.  ``modgroup.conjugacy_representatives`` keeps one
subgroup per conjugacy class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import modgroup as mg
from . import nt
from .errors import InvalidInputError, ResourceCapError

LATTICE_ORDER_CAP = 2600


class SmallGroupTable:
    """Dense multiplication table of a small group, for its subgroup lattice."""

    def __init__(self, codes: np.ndarray, m: int):
        """One row per entry of the sorted array ``codes``, a group mod m."""
        if codes.size > LATTICE_ORDER_CAP:
            raise ResourceCapError(f"group of order {codes.size} exceeds lattice cap {LATTICE_ORDER_CAP}")
        self.m = m
        self.codes = np.asarray(codes, dtype=np.int64)
        self.n = int(self.codes.size)
        row_of = np.full(m**4, -1, dtype=np.int64)
        row_of[self.codes] = np.arange(self.n)
        # entry [i, j] is the row of codes[i] * codes[j]: both rows of codes[i]
        # go through the row table of codes[j], for columns j in blocks of 2^14 entries
        m2, block = m * m, max(1, 2**14 // self.n)
        tops, bottoms = np.divmod(self.codes, m2)
        self.cayley = np.empty((self.n, self.n), dtype=np.int32)
        for j in range(0, self.n, block):
            rows = mg._row_tables(self.codes[j:j + block], m)
            self.cayley[:, j:j + block] = row_of[rows[:, tops] * m2 + rows[:, bottoms]].T
        self.identity = int(row_of[mg.identity(m)])
        # inverse: the unique j with i*j = identity
        self.inv = np.empty(self.n, dtype=np.int32)
        rows, cols = np.nonzero(self.cayley == self.identity)
        self.inv[rows] = cols

    @classmethod
    def for_group(cls, m: int, ambient: mg.Ambient) -> "SmallGroupTable":
        return cls(mg.enumerate_group(m, ambient), m)

    def power_map(self, p: int) -> np.ndarray:
        acc = np.full(self.n, self.identity, dtype=np.int64)
        e = p
        cur = np.arange(self.n)
        while e:
            if e & 1:
                acc = self.cayley[acc, cur]
            cur = self.cayley[cur, cur]
            e >>= 1
        return acc

    def subgroup_lattice(self) -> list[np.ndarray]:
        """All subgroups, as boolean masks over the element list.

        Exact for solvable groups; for GL2/SL2 over F_5 and F_7 the SL2-
        containing subgroups are appended (every non-solvable subgroup there
        contains SL2, since the proper subgroups of SL2(F_l) are solvable for
        l in {5, 7}).
        """
        order_primes = list(nt.factorint(self.n))
        solvable = set(order_primes) <= {2, 3}
        if not solvable and self.m not in (5, 7):
            raise InvalidInputError(
                f"exhaustive lattice supported only for solvable ambients or GL2/SL2 mod 5, 7 (order {self.n})"
            )
        pow_maps = {p: self.power_map(p) for p in order_primes}
        trivial = np.zeros(self.n, dtype=bool)
        trivial[self.identity] = True
        # each subgroup is kept once, as the bytes of its mask (a dict keeps
        # them in the order found), and queued with the generators it was
        # built from
        key = trivial.tobytes()
        found = {key: None}
        queue = [(key, np.zeros(0, dtype=np.int64))]
        all_idx = np.arange(self.n)
        while queue:
            key, gens = queue.pop()
            K = np.frombuffer(key, dtype=bool)
            members = all_idx[K]
            for p in order_primes:
                cand = all_idx[~K & K[pow_maps[p]]]
                # g normalizes K iff it conjugates every generator of K into K
                conj = self.cayley[self.cayley[cand[:, None], gens], self.inv[cand][:, None]]
                g = cand[K[conj].all(axis=1)]
                if not g.size:
                    continue
                # row i: <K, g_i> = K, g_i K, ..., g_i^(p-1) K
                ext = np.repeat(K[None, :], g.size, axis=0)
                rows = np.arange(g.size)
                x = g
                for _ in range(p - 1):
                    ext[rows[:, None], self.cayley[x[:, None], members]] = True
                    x = self.cayley[x, g]
                # <K, g_j> = <K, g_i> iff g_j lies in it: only the first g of
                # each extension builds it
                for i in rows[np.argmax(ext[:, g], axis=1) == rows]:
                    key = ext[i].tobytes()
                    if key not in found:
                        found[key] = None
                        queue.append((key, np.append(gens, g[i])))
        if not solvable:
            found.update(dict.fromkeys(m_.tobytes() for m_ in self._sl2_overgroup_masks()))
        return [np.frombuffer(key, dtype=bool) for key in found]

    def _sl2_overgroup_masks(self) -> list[np.ndarray]:
        dets = mg.det_of_codes(self.codes, self.m)
        sl2_mask = dets == 1
        units = [u for u in range(1, self.m) if math.gcd(u, self.m) == 1]
        masks = []
        for u in units:
            # subgroup of units generated by u
            sub = {1}
            x = u
            while x not in sub:
                sub.add(x)
                x = (x * u) % self.m
            masks.append(np.isin(dets, sorted(sub)))
        # always include SL2 itself
        masks.append(sl2_mask)
        return masks


# ---------------------------------------------------------------------------
# signature tables


@dataclass(frozen=True)
class TableEntry:
    label: str
    order: int
    n_conjugates: int
    codes: tuple[int, ...]
    signatures: frozenset


@dataclass(frozen=True)
class SignatureTable:
    """Proper full-determinant subgroups (not containing SL2) and their signatures."""

    m: int
    entries: tuple[TableEntry, ...]
    full_signatures: frozenset
    scope: str  # "all-subgroups" or "maximal-only"


# The splitting pattern of a Frobenius class, or of a matrix g, is its cycle
# type on the three points of E[2] (the roots of the cubic) or on the four
# lines of E[3] (the roots of psi3), and both are read off how many of them
# it fixes.  On E[2], 3, 1 or 0 fixed points give (1,1,1), (2,1) or (3).  On
# the lines of E[3], g acts through PGL2(F_3) = S4, and 4, 2 or 1 fixed lines
# give (1,1,1,1), (2,1,1) or (3,1).  With no fixed line the pattern is (2,2)
# or (4), as the permutation is even or odd, and it is even exactly when
# det g is 1 mod 3, because PSL2(F_3) = A4.  For Frobenius at p, det is p.
# Patterns are numbered in sorted-tuple order, so that sorting signatures by
# pattern id sorts them by pattern.
CUBIC_PATTERNS = ((1, 1, 1), (2, 1), (3,))
PSI3_PATTERNS = ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
# pattern id by fixed count (-1: no class fixes that many), and the psi3 id
# of a class fixing no line by det mod 3
_CUBIC_ID_BY_FIXED = np.array([2, 1, -1, 0])  # (3), (2,1), -, (1,1,1)
_PSI3_ID_BY_FIXED = np.array([-1, 3, 1, -1, 0])  # by det, (3,1), (2,1,1), -, (1,1,1,1)
_PSI3_ID_UNFIXED = np.array([-1, 2, 4])  # -, (2,2), (4)
# sign of the permutation of the 2-torsion points, by cubic pattern id
EPS_BY_CUBIC_ID = np.array([1, -1, 1])


def pattern_ids(fixed_points, fixed_lines, det):
    """(cubic pattern id, psi3 pattern id) of classes that fix fixed_points
    of the three points of E[2] and fixed_lines of the four lines of E[3],
    with determinant det (ints or int arrays).  The ids index CUBIC_PATTERNS
    and PSI3_PATTERNS; -1 marks a count no class has."""
    fixed_lines = np.asarray(fixed_lines)
    psi3 = np.where(fixed_lines == 0, _PSI3_ID_UNFIXED[np.asarray(det) % 3], _PSI3_ID_BY_FIXED[fixed_lines])
    return _CUBIC_ID_BY_FIXED[fixed_points], psi3


def pattern_ids_of_codes(codes: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """pattern_ids of each matrix code mod m: the cubic id reads g mod 2 and
    is meaningful when 2 | m, the psi3 id reads g mod 3 and is meaningful
    when 3 | m."""
    a, b, c, d = mg.decode(codes, m)
    fixed = []
    for q in (2, 3):
        # g fixes the line through (x, y) iff g(x, y) is a multiple of it:
        # c x^2 + (d - a) x y - b y^2 = 0 mod q; at q = 2 a line is a point
        form = [(c * x * x + (d - a) * x * y - b * y * y) % q == 0 for x, y in [(1, 0)] + [(k, 1) for k in range(q)]]
        fixed.append(np.sum(form, axis=0))
    return pattern_ids(*fixed, mg.det_of_codes(codes, m))


def signatures_of_codes(codes: np.ndarray, m: int) -> frozenset:
    """Frobenius-visible signatures of a set of matrices mod m.

    m = 2, 4, 8: (trace, det, splitting pattern of the mod-2 action on the
    three 2-torsion points).  m = 3, 9: (trace, det, pattern of the mod-3
    action on the four lines, fixed-vector flag).  prime m: (trace, det).
    """
    codes = np.asarray(codes, dtype=np.int64)
    tr, dt = mg.trace_of_codes(codes, m), mg.det_of_codes(codes, m)
    columns = [tr.tolist(), dt.tolist()]
    if m in (2, 4, 8):
        columns.append([CUBIC_PATTERNS[i] for i in pattern_ids_of_codes(codes, m)[0].tolist()])
    elif m in (3, 9):
        columns.append([PSI3_PATTERNS[i] for i in pattern_ids_of_codes(codes, m)[1].tolist()])
        # a fixed nonzero vector mod 3 is an eigenvalue 1: 1 - trace + det = 0
        columns.append(((1 - tr + dt) % 3 == 0).tolist())
    return frozenset(zip(*columns))


def _det_is_full(codes: np.ndarray, m: int) -> bool:
    dets = set(int(d) for d in mg.det_of_codes(codes, m))
    units = {u for u in range(m) if math.gcd(u, m) == 1}
    return dets == units


@lru_cache(maxsize=16)
def subgroup_signature_table(m: int) -> SignatureTable:
    """Signature table used for elimination-style certification at level m."""
    if m in (2, 3, 4):
        return _table_from_lattice(m)
    if m == 8:
        return _table_mod8()
    if m == 9:
        return _table_mod9()
    if m in (5, 7, 11, 13):
        return _table_prime(m)
    raise InvalidInputError(f"signature tables are built for m in {{2,3,4,8,9}} or primes <= 13, got {m}")


def _entry(label: str, codes: np.ndarray, m: int, n_conjugates: int) -> TableEntry:
    return TableEntry(label, int(codes.size), n_conjugates, tuple(codes.tolist()), signatures_of_codes(codes, m))


def _table(m: int, entries, scope: str) -> SignatureTable:
    """The table of the given entries, with the signatures of all of GL2(Z/m)."""
    return SignatureTable(m, tuple(entries), signatures_of_codes(mg.enumerate_group(m, "GL2"), m), scope)


def _table_from_lattice(m: int) -> SignatureTable:
    table = SmallGroupTable.for_group(m, "GL2")
    sl2_rows = np.searchsorted(table.codes, mg.enumerate_group(m, "SL2"))
    candidates = [
        table.codes[msk] for msk in table.subgroup_lattice()
        if not msk[sl2_rows].all() and _det_is_full(table.codes[msk], m)
    ]
    entries = [
        _entry(f"H{k}(order {codes.size})", codes, m, n_conj)
        for k, (codes, n_conj) in enumerate(mg.conjugacy_representatives(m, candidates))
    ]
    return _table(m, sorted(entries, key=lambda e: (-e.order, e.label)), "all-subgroups")


# -- prime level: Borel, Cartan normalizers, octahedral preimage -------------


def _prime_table_masks(ell: int) -> list[tuple[str, np.ndarray]]:
    codes = mg.enumerate_group(ell, "GL2")
    a, b, c, d = mg.decode(codes, ell)
    out = []
    out.append(("borel", codes[c == 0]))
    split = ((b == 0) & (c == 0)) | ((a == 0) & (d == 0))
    out.append(("split-cartan-normalizer", codes[split]))
    eps = next(x for x in range(2, ell) if nt.kronecker(x, ell) == -1)
    inner = (a == d) & (b == (eps * c) % ell)
    outer = (d == (ell - a) % ell) & (b == (-eps * c) % ell)
    out.append(("nonsplit-cartan-normalizer", codes[inner | outer]))
    oct_codes = _octahedral_preimage(ell)
    if oct_codes is not None:
        out.append(("octahedral", oct_codes))
    return out


def _octahedral_preimage(ell: int) -> np.ndarray | None:
    """Full preimage in GL2(F_ell) of an S4 inside PGL2, when its determinant
    image is all the units (that is the only case a full-det subgroup can sit
    inside it).

    A non-scalar g has projective order 2, 3 or 4 exactly when
    u = trace^2 / det is 0, 1 or 2; S4 has 9, 8 and 6 elements of those
    orders.  The preimage of <s, c> for s of projective order 4 and c of
    order 3 is the closure of s, c and the scalars.
    """
    codes = mg.enumerate_group(ell, "GL2")
    inv = np.array([0] + [pow(x, -1, ell) for x in range(1, ell)], dtype=np.int64)
    tr = mg.trace_of_codes(codes, ell)
    u = (tr * tr % ell) * inv[mg.det_of_codes(codes, ell)] % ell
    a, b, c, d = mg.decode(codes, ell)
    scalar = (b == 0) & (c == 0) & (a == d)
    order = 24 * (ell - 1)
    s = int(codes[np.argmax(u == 2)])
    # the scalars are generated by a primitive root times the identity
    root = nt.primitive_root(ell)
    scalars = mg.mat(ell, root, 0, 0, root)
    candidates = codes[u == 1].tolist()
    # blocks of 1, 2, 4, ... candidates (up to the memory budget): an early
    # candidate usually passes, and a long search pays O(log) block calls
    start, size, cap = 0, 1, mg.closure_block_size(ell, order)
    while start < len(candidates):
        block = [[s, cand, scalars] for cand in candidates[start : start + size]]
        start, size = start + size, min(2 * size, cap)
        for pre in mg.closure_block(ell, block, stop_above=order):
            if pre is None or pre.size != order:
                continue
            rows = np.searchsorted(codes, pre)
            counts = [int(((u[rows] == k) & ~scalar[rows]).sum()) for k in (0, 1, 2)]
            if counts == [9 * (ell - 1), 8 * (ell - 1), 6 * (ell - 1)]:
                return pre if _det_is_full(pre, ell) else None
    return None


def _table_prime(ell: int) -> SignatureTable:
    n_conj = {"borel": ell + 1, "split-cartan-normalizer": ell * (ell + 1) // 2,
              "nonsplit-cartan-normalizer": ell * (ell - 1) // 2}
    entries = [
        _entry(label, codes, ell, n_conj.get(label, 0))
        for label, codes in _prime_table_masks(ell) if _det_is_full(codes, ell)
    ]
    return _table(ell, entries, "maximal-only")


# -- m = 8: mod-4 preimages plus the sign/determinant couplings --------------


def _table_mod8() -> SignatureTable:
    """Maximal full-det subgroups of GL2(Z/8) not containing SL2(Z/8).

    A maximal such subgroup either has a proper mod-4 image (then it is the
    preimage of a maximal entry of the level-4 table) or reduces onto a group
    containing SL2(Z/4); exhaustive enumeration of the 24587 subgroups of
    GL2(Z/8) shows the latter are exactly the two couplings
    {g : eps(g mod 2) = chi_D(det g)} for D = 8 and D = -8 (the quadratic
    characters of conductor exactly 8).  That enumeration is pinned by a
    slow test rather than rerun here.
    """
    codes = mg.enumerate_group(8, "GL2")
    dt = mg.det_of_codes(codes, 8)
    eps = EPS_BY_CUBIC_ID[pattern_ids_of_codes(codes, 8)[0]]
    entries = []
    for D in (8, -8):
        chi = np.array([nt.kronecker(D, int(d)) for d in dt])
        member = codes[eps == chi]
        assert _det_is_full(member, 8)
        entries.append(_entry(f"sign-det coupling D={D}", member, 8, 1))
    red4 = mg.reduce_codes(codes, 8, 4)
    for e in _maximal(subgroup_signature_table(4).entries, lambda e: set(e.codes)):
        member = codes[np.isin(red4, np.array(e.codes))]
        entries.append(_entry(f"preimage of level-4 {e.label}", member, 8, e.n_conjugates))
    return _table(8, entries, "maximal-only")


def _maximal(items, members) -> list:
    """The items whose member set lies strictly inside no other item's, in
    input order; ``members`` maps an item to its set."""
    sets = [members(x) for x in items]
    return [x for x, s in zip(items, sets) if not any(s < t for t in sets)]


# -- m = 9: maximal full-det subgroups not containing SL2 --------------------


def _table_mod9() -> SignatureTable:
    sl2_set = set(mg.enumerate_group(9, "SL2").tolist())
    picked = [
        (label, member_codes) for label, member_codes in _maximal_candidates_mod9()
        if _det_is_full(member_codes, 9) and not sl2_set <= set(member_codes.tolist())
    ]
    final = _maximal(picked, lambda entry: set(entry[1].tolist()))
    return _table(9, [_entry(label, mc, 9, 0) for label, mc in final], "maximal-only")


def _maximal_candidates_mod9() -> list[tuple[str, np.ndarray]]:
    """Maximal-subgroup candidates of GL2(Z/9).

    Case (a): preimages of the maximal subgroups of GL2(F_3), one per
    conjugacy class.
    Case (b): subgroups M that surject mod 3 and meet the mod-3 kernel
    K = I + 3*M2(F_3) in a maximal GL2(Z/9)-normalized subgroup K0 of K.
    K is elementary abelian of order 81 and conjugation acts on it through
    GL2(F_3), so the K0 are the I + 3*S for the maximal invariant subspaces S
    of M2(F_3); they are read off the lattice of K (212 subgroups) as the
    maximal proper members that are their own conjugacy class, largest
    first.  Each M is the preimage of a complement to
    K/K0 in G/K0.  Together the cases cover every maximal subgroup: a
    maximal M either contains K (case a) or M.K = G with M meeting K in a
    maximal normal subgroup of G inside K (case b).
    """
    codes = mg.enumerate_group(9, "GL2")
    red3 = mg.reduce_codes(codes, 9, 3)
    out: list[tuple[str, np.ndarray]] = []

    # case (a): preimages of conjugates are conjugate
    t3 = SmallGroupTable.for_group(3, "GL2")
    proper3 = [t3.codes[msk] for msk in t3.subgroup_lattice() if not msk.all()]
    maximal3 = _maximal(proper3, lambda sub: set(sub.tolist()))
    for k, (sub, _) in enumerate(mg.conjugacy_representatives(3, maximal3)):
        sel = np.isin(red3, sub)
        out.append((f"pre-mod3-max{k}(order {int(sel.sum())})", codes[sel]))

    # case (b)
    K = codes[red3 == mg.identity(3)]
    kt = SmallGroupTable(K, 9)
    proper = [kt.codes[msk] for msk in kt.subgroup_lattice() if not msk.all()]
    # GL2(Z/9) normalizes a subgroup iff the subgroup is its whole conjugacy class
    normalized = [sub for sub, n_conj in mg.conjugacy_representatives(9, proper) if n_conj == 1]
    for K0 in sorted(_maximal(normalized, lambda sub: set(sub.tolist())), key=lambda sub: -sub.size):
        name = f"dim{round(math.log(K0.size, 3))}"
        for j, member_codes in enumerate(_complement_preimages_mod9(K0, K)):
            out.append((f"level9-{name}-complement{j}(order {member_codes.size})", member_codes))
    return out


def _complement_preimages_mod9(K0: np.ndarray, K: np.ndarray) -> list[np.ndarray]:
    """Subgroups M of GL2(Z/9) with M mod 3 full and M meeting the mod-3
    kernel K exactly in K0, one per conjugacy class.

    K0 is normal, so a subgroup containing it is the closure of generators
    plus a generating set of K0, and each coset of K0 is named by its least
    code.  M/K0 is a complement to K/K0 in G/K0, of order |GL2(F_3)| = 48,
    so it holds a Sylow 2-subgroup (order 16) and is generated by it and any
    element of order 3 in it.  Sylow subgroups are conjugate, so every class has a
    member containing one fixed P/K0, grown least coset first through
    normalizers: the candidates are P plus each coset t of order 3, closed
    in one sweep.
    """
    codes = mg.enumerate_group(9, "GL2")
    cosets = mg._sorted_unique(mg.mul_codes(codes[:, None], K0, 9).min(axis=1))
    in_K0 = np.zeros(9**4, dtype=bool)
    in_K0[K0] = True
    # the cosets of 2-power order (g^16 in K0) and of order 3
    power = cosets
    for _ in range(4):
        power = mg.mul_codes(power, power, 9)
    two_power = cosets[in_K0[power]]
    cube = mg.mul_codes(mg.mul_codes(cosets, cosets, 9), cosets, 9)
    order_three = cosets[in_K0[cube] & ~in_K0[cosets]]
    # a generating set of K0, grown greedily: K0 is elementary abelian of
    # order at most 27, so it takes at most 3 codes
    k0, span = [], {mg.identity(9)}
    for x in K0.tolist():
        if x not in span:
            k0.append(x)
            span = set(mg.closure_codes(9, k0).tolist())

    gens: list[int] = []
    P = K0
    while P.size < 16 * K0.size:
        in_P = np.zeros(9**4, dtype=bool)
        in_P[P] = True
        for g in two_power[~in_P[two_power]].tolist():
            if not in_P[mg.conj_codes(g, P, 9)].all():
                continue
            grown = mg.closure_codes(9, gens + [g] + k0)
            index = grown.size // K0.size
            if index & (index - 1) == 0:
                gens.append(g)
                P = grown
                break
        else:
            raise RuntimeError("sylow 2-subgroup construction stalled")

    # 26 candidates for |K0| = 27 and 98 for |K0| = 3, both within
    # closure_block_size(9, target) = 159
    target = 48 * K0.size
    in_K = np.zeros(9**4, dtype=bool)
    in_K[K] = True
    closures = mg.closure_block(9, [gens + [t] + k0 for t in order_three.tolist()], stop_above=target)
    complements = [C for C in closures if C is not None and C.size == target and in_K[C].sum() == K0.size]
    return [C for C, _ in mg.conjugacy_representatives(9, complements)]
