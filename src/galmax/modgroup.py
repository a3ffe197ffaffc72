"""Exact arithmetic for subgroups of GL2 and SL2 over Z/mZ.

A matrix is its integer code ((a*m + b)*m + c)*m + d: ``mat``,
``identity`` and the standard generators return Python ints, and product,
inverse, determinant and trace (``mul_codes``, ``inv_code``,
``det_of_codes``, ``trace_of_codes``) each have one implementation, which
works elementwise on an int (giving ints) or an int64 array alike.  A set of
matrices is the sorted int64 array of their codes: ``enumerate_group``
(cached, read-only), ``closure_codes``, ``derived_subgroup`` and each class
of ``conjugacy_classes`` are one, and every group-level operation (closure,
derived subgroup, abelianization, conjugacy orbits, reductions) is a
vectorized scan over such arrays.  Subgroups are closed in blocks:
``closure_block`` closes many generator sets in one breadth-first sweep, as
many as the memory budget in ``closure_block_size`` allows, and
``closure_codes`` is its one-set case.  Integer codes sort lexicographically
by (a, b, c, d), the canonical element order of representatives and
reports.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Literal, NamedTuple, Sequence

import numpy as np

from . import nt
from .errors import InvalidInputError, ResourceCapError

Ambient = Literal["SL2", "GL2"]

SL2_MODULUS_CAP = 27
GL2_MODULUS_CAP = 16
GROUP_ORDER_CAP = 2**20


# ---------------------------------------------------------------------------
# integer-code representation


def decode(codes, m: int):
    """Entries (a, b, c, d) of a code, elementwise on an int or an int64 array."""
    top, bottom = divmod(codes, m * m)
    return (*divmod(top, m), *divmod(bottom, m))


def encode(a, b, c, d, m: int):
    return ((a * m + b) * m + c) * m + d


def mat(m: int, a: int, b: int, c: int, d: int) -> int:
    """The code of (a b; c d) mod m, which must have unit determinant."""
    if m < 1:
        raise InvalidInputError("modulus must be >= 1")
    code = encode(a % m, b % m, c % m, d % m, m)
    if math.gcd(det := det_of_codes(code, m), m) != 1:
        raise InvalidInputError(f"matrix ({a} {b}; {c} {d}) has non-unit determinant {det} mod {m}")
    return code


def identity(m: int) -> int:
    return encode(1 % m, 0, 0, 1 % m, m)


def mul_codes(x, y, m: int):
    """Products x * y of codes, elementwise with broadcasting."""
    a, b, c, d = decode(x, m)
    e, f, g, h = decode(y, m)
    return encode((a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m, m)


def inv_code(x: int, m: int) -> int:
    """Inverse of one code: the adjugate times the inverse determinant."""
    x = int(x)
    a, b, c, d = decode(x, m)
    s = pow(det_of_codes(x, m), -1, m)
    return encode(d * s % m, -b * s % m, -c * s % m, a * s % m, m)


def conj_codes(g: int, codes, m: int):
    """g x g^-1 for each code x."""
    return mul_codes(mul_codes(g, codes, m), inv_code(g, m), m)


def det_of_codes(codes, m: int):
    a, b, c, d = decode(codes, m)
    return (a * d - b * c) % m


def trace_of_codes(codes, m: int):
    a, _, _, d = decode(codes, m)
    return (a + d) % m


def reduce_codes(codes, m: int, m_target: int):
    a, b, c, d = decode(codes, m)
    return encode(a % m_target, b % m_target, c % m_target, d % m_target, m_target)


def _row_tables(gen_codes: np.ndarray, m: int) -> np.ndarray:
    """Right multiplication by each generator, row by row.

    A code is top*m^2 + bottom, where top = a*m + b and bottom = c*m + d are
    the codes of the two rows.  Right multiplication by g sends each row
    (x, y) to (x, y)*g on its own, so entry [i, x*m + y] is the code of the
    row (x, y)*g_i for the i-th code in gen_codes.
    """
    a, b, c, d = (v[:, None] for v in decode(gen_codes, m))
    x, y = np.divmod(np.arange(m * m, dtype=np.int64), m)
    return ((x * a + y * c) % m) * m + (x * b + y * d) % m


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) by sorting and dropping repeats: numpy's np.unique hashes
    int64 arrays first, which costs several times more at the sizes of these
    closures and reductions."""
    a = np.sort(a)
    return a[np.append(True, a[1:] != a[:-1])] if a.size else a


# The memory budget of one closure block of B sets: B * m^4 keys share one
# mask, and B closures of the largest order allowed bound its frontiers.
BLOCK_CODES_CAP = 2**20
BLOCK_ELEMENTS_CAP = 2**18


def closure_block_size(m: int, stop_above: int | None = None) -> int:
    """How many generator sets one closure_block call may close at modulus m."""
    bound = gl2_order(m) if stop_above is None else max(stop_above, 1)
    return max(1, min(BLOCK_CODES_CAP // m**4, BLOCK_ELEMENTS_CAP // bound))


def closure_codes(m: int, gen_codes: Sequence[int], stop_above: int | None = None) -> np.ndarray | None:
    """Sorted codes of the group generated by gen_codes; None if it has more than stop_above elements."""
    return closure_block(m, [gen_codes], stop_above)[0]


def closure_block(m: int, gen_sets: Sequence[Sequence[int]], stop_above: int | None = None) -> list:
    """closure_codes of each generator set, all in one breadth-first sweep.

    The generated submonoid of a finite group is the generated subgroup, so
    right multiplication by the generators suffices.  Set t owns the keys
    t*m^4 + code.  Sets are padded to the longest by repeating a generator
    (the identity for an empty set), which leaves each closure unchanged.
    """
    m2, m4, B, k = m * m, m**4, len(gen_sets), max([1, *map(len, gen_sets)])
    if B * m4 >= 2**31:
        raise ResourceCapError(f"{B} closures mod {m} overflow the int32 keys")
    ident = identity(m)
    gens = np.array([list(s) + [s[0] if len(s) else ident] * (k - len(s)) for s in gen_sets], dtype=np.int64)
    # row r times the j-th generator of set t, at [j, t*m^2 + r]: as the top
    # row of a code, and as the bottom row of a key in set t
    rows = _row_tables(gens.T.ravel(), m).astype(np.int32).reshape(k, B * m2)
    offsets = np.arange(B, dtype=np.int32) * m4
    tops, bottoms = rows * m2, rows + np.repeat(offsets, m2)
    frontier = offsets + ident
    unseen = np.ones(B * m4, dtype=bool)
    unseen[frontier] = False
    count, live = np.ones(B, dtype=np.int64), np.ones(B, dtype=bool)
    while frontier.size:
        # key = (t*m^2 + top)*m^2 + bottom
        q, bottom = np.divmod(frontier, m2)
        bottom += q // m2 * m2
        fresh = []
        for top_j, bottom_j in zip(tops, bottoms):
            # one generator permutes the keys, so its unseen products are new
            prod = top_j[q] + bottom_j[bottom]
            prod = prod[unseen[prod]]
            unseen[prod] = False
            fresh.append(prod)
        frontier = np.concatenate(fresh)
        if stop_above is not None:
            t = frontier // m4
            count += np.bincount(t, minlength=B)
            live = count <= stop_above
            frontier = frontier[live[t]]
    keys = np.flatnonzero(~unseen)
    closures = np.split(keys % m4, np.searchsorted(keys, offsets[1:]))
    return [codes if alive else None for alive, codes in zip(live, closures)]


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


def sl2_generators(m: int) -> list[int]:
    """The two elementary matrices, which generate SL2(Z/mZ) for every m."""
    if m == 1:
        return [identity(1)]
    return [mat(m, 1, 1, 0, 1), mat(m, 1, 0, 1, 1)]


def gl2_generators(m: int) -> list[int]:
    gens = sl2_generators(m)
    if m > 2:
        gens += [mat(m, u, 0, 0, 1) for u in range(2, m) if math.gcd(u, m) == 1]
    return gens


# ---------------------------------------------------------------------------
# full groups, derived subgroup and abelianization


@lru_cache(maxsize=64)
def enumerate_group(m: int, ambient: Ambient = "SL2") -> np.ndarray:
    """Sorted codes of the full group SL2(Z/mZ) or GL2(Z/mZ), by direct scan.

    The array is cached and shared, so it is read-only.  The element scan
    doubles as a check of the standard order formulas; a mismatch would be an
    internal error.
    """
    if ambient not in ("SL2", "GL2"):
        raise InvalidInputError(f"ambient must be 'SL2' or 'GL2', got {ambient!r}")
    if m < 1:
        raise InvalidInputError("modulus must be >= 1")
    cap = SL2_MODULUS_CAP if ambient == "SL2" else GL2_MODULUS_CAP
    if m > cap:
        raise ResourceCapError(f"modulus {m} exceeds {ambient} materialization cap {cap}")
    expected = sl2_order(m) if ambient == "SL2" else gl2_order(m)
    if expected > GROUP_ORDER_CAP:
        raise ResourceCapError(f"group order {expected} exceeds cap {GROUP_ORDER_CAP}")
    codes = np.arange(m**4, dtype=np.int64)
    dets = det_of_codes(codes, m)
    codes = codes[dets == 1 % m] if ambient == "SL2" else codes[np.gcd(dets, m) == 1]
    assert codes.size == expected, f"order formula mismatch for {ambient}(Z/{m}): {codes.size} != {expected}"
    codes.flags.writeable = False
    return codes


def derived_subgroup(m: int, gens: Sequence[int]) -> np.ndarray:
    """Sorted codes of [H, H] for H generated by gens, as the normal closure of
    the generator commutators.

    [H, H] is generated by the H-conjugates of the commutators of a generating
    set, so the algorithm grows a generating set T: whenever some conjugate of
    T by a generator of H escapes <T>, it is added and the closure recomputed.
    """
    ident = identity(m)
    T: list[int] = sorted(
        {mul_codes(mul_codes(x, y, m), mul_codes(inv_code(x, m), inv_code(y, m), m), m) for x in gens for y in gens}
        - {ident}
    )
    current = closure_codes(m, T)
    stable = False
    while not stable:
        stable = True
        in_k = np.zeros(m**4, dtype=bool)
        in_k[current] = True
        for g in gens:
            conj = conj_codes(g, np.array(T or [ident], dtype=np.int64), m)
            escaped = conj[~in_k[conj]]
            if escaped.size:
                T = sorted(set(T) | {int(c) for c in escaped})
                current = closure_codes(m, T)
                stable = False
                break
    return current


class Abelianization(NamedTuple):
    order: int
    is_cyclic: bool


def abelianization_order(m: int, gens: Sequence[int]) -> Abelianization:
    """|H / H'| for H generated by gens, together with whether the quotient is
    cyclic.

    h generates H/H' iff no power h^k with 0 < k < [H : H'] lies in H'; the
    powers of every h in H are taken at once.
    """
    H = closure_codes(m, gens)
    in_derived = np.zeros(m**4, dtype=bool)
    in_derived[derived_subgroup(m, gens)] = True
    index = H.size // int(np.count_nonzero(in_derived))
    generates = ~in_derived[H]
    power = H
    for _ in range(2, index):
        power = mul_codes(power, H, m)
        generates &= ~in_derived[power]
    return Abelianization(index, index == 1 or bool(generates.any()))


# ---------------------------------------------------------------------------
# conjugacy classes


def conjugacy_classes(m: int, ambient: Ambient = "GL2", det_filter: int | None = None) -> list[np.ndarray]:
    """Partition of the (optionally det-filtered) group into conjugation
    orbits, each a sorted code array.

    Orbits are under conjugation by the standard ambient generators.  Labels
    start at each element's index; a pass lowers each to the least of its
    label's label and its conjugates' labels.  Generators permute the finite
    set, so the stable label of an orbit is its least code, its first entry:
    the representative and the sort key of the classes.
    """
    codes = enumerate_group(m, ambient)
    if det_filter is not None:
        d = det_filter % m
        if math.gcd(d, m) != 1:
            raise InvalidInputError(f"det filter {det_filter} is not a unit mod {m}")
        codes = codes[det_of_codes(codes, m) == d]
    gens = sl2_generators(m) if ambient == "SL2" else gl2_generators(m)
    index_of = np.zeros(m**4, dtype=np.int64)
    index_of[codes] = np.arange(codes.size)
    images = [index_of[conj_codes(g, codes, m)] for g in gens]
    label = np.arange(codes.size)
    while not np.array_equal(label, lowered := np.minimum.reduce([label[label], *(label[i] for i in images)])):
        label = lowered
    roots = np.flatnonzero(label == np.arange(codes.size))
    # cut the codes, grouped by label, after each class; the last piece is empty
    return np.split(codes[np.argsort(label, kind="stable")], np.cumsum(np.bincount(label)[roots]))[:-1]


@lru_cache(maxsize=8)
def _conjugation_tables(m: int) -> tuple[np.ndarray, ...]:
    """Conjugation by each standard GL2 generator, as a permutation of all m^4 codes."""
    tables = tuple(conj_codes(g, np.arange(m**4), m) for g in gl2_generators(m))
    for table in tables:
        table.flags.writeable = False
    return tables


def conjugacy_representatives(m: int, subgroups: Sequence[np.ndarray]) -> list[tuple[np.ndarray, int]]:
    """The first subgroup of each GL2(Z/mZ)-conjugacy class among subgroups
    (sorted code arrays), in input order, with the size of its class.

    A class is the orbit of its first member under conjugation by the
    standard GL2 generators, through the cached ``_conjugation_tables``; a
    sort names each image.
    """
    perms = _conjugation_tables(m)
    claimed: set[bytes] = set()
    out = []
    for codes in subgroups:
        codes = np.asarray(codes, dtype=np.int64)
        if codes.tobytes() in claimed:
            continue
        orbit, frontier = {codes.tobytes()}, [codes]
        while frontier:
            cur = frontier.pop()
            for perm in perms:
                image = np.sort(perm[cur])
                if (key := image.tobytes()) not in orbit:
                    orbit.add(key)
                    frontier.append(image)
        claimed |= orbit
        out.append((codes, len(orbit)))
    return out
