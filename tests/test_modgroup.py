import math
import random

import numpy as np
import pytest

from galmax import modgroup as mg
from galmax.errors import InvalidInputError, ResourceCapError


def brute_force_count(m, ambient):
    count = 0
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    det = (a * d - b * c) % m
                    if ambient == "SL2" and det == 1 % m:
                        count += 1
                    elif ambient == "GL2" and math.gcd(det, m) == 1:
                        count += 1
    return count


@pytest.mark.parametrize(
    "m,ambient,expected",
    [(1, "SL2", 1), (2, "SL2", 6), (4, "GL2", 96), (9, "SL2", 648), (5, "SL2", 120), (6, "SL2", 144)],
)
def test_enumerate_group_orders(m, ambient, expected):
    G = mg.enumerate_group(m, ambient)
    assert G.size == expected
    # cross-check against a fully independent quadruple loop
    if m <= 6:
        assert G.size == brute_force_count(m, ambient)


def test_order_formulas_match_enumeration():
    for m in range(1, 14):
        assert mg.enumerate_group(m, "SL2").size == mg.sl2_order(m)
    for m in range(1, 11):
        assert mg.enumerate_group(m, "GL2").size == mg.gl2_order(m)


def test_enumerate_group_is_read_only():
    # the cached array is shared by every caller
    G = mg.enumerate_group(5, "GL2")
    with pytest.raises(ValueError):
        G[0] = 0
    assert G is mg.enumerate_group(5, "GL2") and G[0] == mg.mat(5, 0, 1, 1, 0)


def test_enumerate_group_caps():
    with pytest.raises(ResourceCapError):
        mg.enumerate_group(32, "SL2")
    with pytest.raises(ResourceCapError):
        mg.enumerate_group(25, "GL2")


def test_matrix_invariants():
    M = mg.mat(7, 2, 3, 1, 4)
    assert mg.det_of_codes(M, 7) == 5
    assert mg.mul_codes(M, mg.inv_code(M, 7), 7) == mg.identity(7)
    with pytest.raises(InvalidInputError):
        mg.mat(6, 2, 0, 0, 3)  # det 6 = 0 mod 6


def closure(m, entries):
    """closure_codes of generators given by their entries (a, b, c, d)."""
    return mg.closure_codes(m, [mg.mat(m, *e) for e in entries])


def test_closure_elementary_generates_sl2_mod_5():
    H = closure(5, [(1, 1, 0, 1), (1, 0, 1, 1)])
    assert H.size == 120


def test_closure_trivial_and_minus_identity():
    assert closure(5, []).size == 1
    H = closure(7, [(-1, 0, 0, -1)])
    assert H.size == 2


def test_closure_rejects_non_unit_det():
    with pytest.raises(InvalidInputError):
        closure(6, [(1, 0, 0, 2)])


def test_closure_idempotent_and_conjugation_stable():
    rng = random.Random(5)
    G = mg.enumerate_group(8, "SL2")
    for _ in range(5):
        gens = [int(G[rng.randrange(G.size)]) for _ in range(2)]
        H = mg.closure_codes(8, gens)
        H2 = mg.closure_codes(8, H)
        assert H.tolist() == H2.tolist()
        # closed under conjugation by its own elements
        for g in H[:6].tolist():
            assert set(mg.conj_codes(g, H, 8).tolist()) == set(H.tolist())


def test_derived_subgroup_values():
    assert mg.derived_subgroup(5, mg.sl2_generators(5)).size == 120
    assert mg.derived_subgroup(3, mg.gl2_generators(3)).size == 24
    assert mg.derived_subgroup(5, []).size == 1


def test_derived_subgroup_is_normal_with_abelian_quotient():
    H = mg.enumerate_group(4, "SL2").tolist()
    Hp = mg.derived_subgroup(4, mg.sl2_generators(4))
    hp = set(Hp.tolist())
    for g in H[:10]:
        assert set(mg.conj_codes(g, Hp, 4).tolist()) == hp
    # abelian quotient: commutators of random elements land in H'
    rng = random.Random(1)
    for _ in range(20):
        x = H[rng.randrange(len(H))]
        y = H[rng.randrange(len(H))]
        comm = mg.mul_codes(mg.mul_codes(x, y, 4), mg.mul_codes(mg.inv_code(x, 4), mg.inv_code(y, 4), 4), 4)
        assert comm in hp


@pytest.mark.parametrize("m", list(range(2, 25)))
def test_abelianization_gcd_formula(m):
    ab = mg.abelianization_order(m, mg.sl2_generators(m))
    assert ab.order == math.gcd(m, 12)
    assert ab.is_cyclic


def test_abelianization_examples():
    assert mg.abelianization_order(12, mg.sl2_generators(12)) == (12, True)
    assert mg.abelianization_order(2, mg.sl2_generators(2)).order == 2
    assert mg.abelianization_order(7, mg.sl2_generators(7)).order == 1
    # GL2(Z/4)^ab and GL2(Z/8)^ab are not cyclic
    assert mg.abelianization_order(4, mg.gl2_generators(4)) == (4, False)
    assert mg.abelianization_order(8, mg.gl2_generators(8)) == (8, False)


def test_conjugacy_classes_mod2_det1():
    classes = mg.conjugacy_classes(2, "GL2", det_filter=1)
    assert sorted(c.size for c in classes) == [1, 2, 3]


def test_conjugacy_classes_mod3_det1():
    classes = mg.conjugacy_classes(3, "GL2", det_filter=1)
    assert len(classes) == 5
    assert sum(c.size for c in classes) == 24


def test_conjugacy_classes_partition_and_invariants():
    for m, ambient in [(5, "GL2"), (4, "SL2"), (9, "SL2")]:
        G = mg.enumerate_group(m, ambient)
        classes = mg.conjugacy_classes(m, ambient)
        assert sum(c.size for c in classes) == G.size
        seen = set()
        for c in classes:
            assert G.size % c.size == 0
            assert not seen & set(c.tolist())
            seen.update(c.tolist())
            for code in c.tolist()[:6]:
                assert mg.trace_of_codes(code, m) == mg.trace_of_codes(c[0], m)
                assert mg.det_of_codes(code, m) == mg.det_of_codes(c[0], m)
        # scalar classes are singletons
        ident = mg.identity(m)
        assert any(c.tolist() == [ident] for c in classes)


def test_conjugacy_classes_rejects_bad_filter():
    with pytest.raises(InvalidInputError):
        mg.conjugacy_classes(4, "GL2", det_filter=2)


def reduce_mod(codes, m, m_target):
    """Sorted codes of the entrywise reduction of codes mod m to Z/m_target."""
    return np.unique(mg.reduce_codes(codes, m, m_target)).tolist()


def test_reduce_mod():
    r = reduce_mod(mg.enumerate_group(8, "SL2"), 8, 4)
    assert len(r) == 48
    assert r == mg.enumerate_group(4, "SL2").tolist()
    t = reduce_mod(mg.enumerate_group(9, "SL2"), 9, 1)
    assert len(t) == 1
    single = closure(9, [(1, 0, 0, 1)])
    assert len(reduce_mod(single, 9, 3)) == 1


@pytest.mark.parametrize("m,m2", [(8, 4), (8, 2), (12, 6), (9, 3)])
def test_reduce_mod_full_groups_surject(m, m2):
    assert reduce_mod(mg.enumerate_group(m, "SL2"), m, m2) == mg.enumerate_group(m2, "SL2").tolist()


def missed_class(codes, m, d):
    """The first GL2-conjugacy class of determinant d that the codes miss, or None."""
    members = set(codes.tolist())
    return next((cl for cl in mg.conjugacy_classes(m, "GL2", det_filter=d) if members.isdisjoint(cl.tolist())), None)


def test_meets_all_classes():
    G5 = mg.enumerate_group(5, "GL2")
    assert missed_class(G5, 5, 1) is None
    S5 = mg.enumerate_group(5, "SL2")
    assert missed_class(S5, 5, 1) is None
    borel = closure(5, [(a, b, 0, d) for a in (1, 2, 3, 4) for d in (1, 2, 3, 4) for b in range(5)])
    assert borel.size == 80
    missing = missed_class(borel, 5, 1)
    assert missing is not None
    # the missed class has irreducible characteristic polynomial
    rep = int(missing[0])
    disc = (mg.trace_of_codes(rep, 5) ** 2 - 4 * mg.det_of_codes(rep, 5)) % 5
    assert pow(disc, 2, 5) != 0 and pow(disc, (5 - 1) // 2, 5) == 5 - 1
    with pytest.raises(InvalidInputError):
        missed_class(borel, 5, 5)


# ---------------------------------------------------------------------------
# the array engines against plain-Python references on entry tuples


def entries(code, m):
    """(a, b, c, d) of a code, by plain division."""
    a, rest = divmod(code, m**3)
    b, rest = divmod(rest, m * m)
    return (a, b, *divmod(rest, m))


def code_of(x, m):
    a, b, c, d = x
    return ((a * m + b) * m + c) * m + d


def matmodm_mul(x, y, m):
    """The product of two matrices mod m given as entry tuples (a, b, c, d)."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m)


@pytest.mark.parametrize("m", range(2, 17))
def test_mul_codes_matches_matmodm_mul(m):
    codes = mg.enumerate_group(m, "GL2")
    elements = [entries(c, m) for c in codes.tolist()]
    rng = random.Random(m)
    for g in [*mg.sl2_generators(m), *(int(codes[rng.randrange(codes.size)]) for _ in range(2))]:
        want = [code_of(matmodm_mul(x, entries(g, m), m), m) for x in elements]
        assert mg.mul_codes(codes, g, m).tolist() == want
        assert [mg.mul_codes(x, g, m) for x in codes.tolist()[:8]] == want[:8]


@pytest.mark.parametrize("m", [2, 5, 9, 12, 16])
def test_code_arithmetic_serves_ints_and_arrays(m):
    # a Python int in gives Python ints out, equal to the array version's entry
    codes = mg.enumerate_group(m, "GL2")
    g = mg.sl2_generators(m)[0]
    on_arrays = [*mg.decode(codes, m), mg.det_of_codes(codes, m), mg.trace_of_codes(codes, m),
                 mg.reduce_codes(codes, m, 2), mg.conj_codes(g, codes, m)]
    for i in range(0, codes.size, max(1, codes.size // 50)):
        x = int(codes[i])
        one = [*mg.decode(x, m), mg.det_of_codes(x, m), mg.trace_of_codes(x, m),
               mg.reduce_codes(x, m, 2), mg.conj_codes(g, x, m)]
        assert all(type(v) is int for v in one)
        assert one == [int(col[i]) for col in on_arrays]
        a, b, c, d = entries(x, m)
        assert one[4:6] == [(a * d - b * c) % m, (a + d) % m]
        inv = mg.inv_code(x, m)
        assert type(inv) is int and matmodm_mul(entries(x, m), entries(inv, m), m) == (1 % m, 0, 0, 1 % m)


def reference_closure(m, gen_codes):
    """Breadth-first closure under right multiplication, in plain Python."""
    gens = [entries(c, m) for c in gen_codes]
    ident = (1 % m, 0, 0, 1 % m)
    seen = {code_of(ident, m)}
    frontier = [ident]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = matmodm_mul(x, g, m)
                if code_of(y, m) not in seen:
                    seen.add(code_of(y, m))
                    fresh.append(y)
        frontier = fresh
    return sorted(seen)


@pytest.mark.parametrize(
    "m,ambient", [(m, "GL2") for m in range(2, 17)] + [(m, "SL2") for m in (18, 25, 27)]
)
def test_closure_codes_matches_reference_bfs(m, ambient):
    codes = mg.enumerate_group(m, ambient)
    rng = random.Random(1000 + m)
    for k in range(4):
        gens = [int(codes[rng.randrange(codes.size)]) for _ in range(k)]
        want = reference_closure(m, gens)
        got = mg.closure_codes(m, gens)
        assert got.dtype == np.int64 and got.tolist() == want, (m, gens)
        # stop_above: None exactly when the closure is larger than the bound
        assert mg.closure_codes(m, gens, stop_above=len(want)).tolist() == want
        if len(want) > 1:
            assert mg.closure_codes(m, gens, stop_above=len(want) - 1) is None


@pytest.mark.parametrize(
    "m,ambient", [(m, "GL2") for m in range(2, 17)] + [(m, "SL2") for m in (18, 25, 27)]
)
def test_closure_block_matches_one_set_closures(m, ambient):
    # one block mixing generator sets of 0 to 4 elements
    codes = mg.enumerate_group(m, ambient)
    rng = random.Random(2000 + m)
    sets = [[int(codes[rng.randrange(codes.size)]) for _ in range(k)] for k in (2, 0, 4, 1, 3, 1)]
    wants = [reference_closure(m, gens) for gens in sets]
    got = mg.closure_block(m, sets)
    assert [c.tolist() for c in got] == wants
    assert all(c.dtype == np.int64 for c in got)
    assert [c.tolist() for c in got] == [mg.closure_codes(m, gens).tolist() for gens in sets]
    # under one stop_above, the largest closures stop and the others close,
    # one of them with exactly stop_above elements
    stop = sorted(set(map(len, wants)))[-2]
    got = mg.closure_block(m, sets, stop_above=stop)
    want = [w if len(w) <= stop else None for w in wants]
    assert None in want and want[1] is not None
    assert [None if c is None else c.tolist() for c in got] == want
    for gens, c in zip(sets, got):
        one = mg.closure_codes(m, gens, stop_above=stop)
        assert (one is None and c is None) or one.tolist() == c.tolist()


@pytest.mark.parametrize("m,stop_above", [(2, None), (8, None), (16, None), (16, 1536), (27, 8748)])
def test_closure_block_size_keeps_the_memory_budget(m, stop_above):
    size = mg.closure_block_size(m, stop_above)
    bound = mg.gl2_order(m) if stop_above is None else stop_above
    assert size >= 1
    assert size == 1 or size * m**4 <= mg.BLOCK_CODES_CAP
    assert size == 1 or size * bound <= mg.BLOCK_ELEMENTS_CAP


def test_closure_block_refuses_keys_past_int32():
    with pytest.raises(ResourceCapError):
        mg.closure_codes(216, [])
    with pytest.raises(ResourceCapError):
        mg.closure_block(16, [[]] * 2**15)


def conj_orbit_reference(m, code, gens):
    """The conjugation orbit of one code, by breadth-first search over sets."""
    seen, frontier = {code}, [code]
    while frontier:
        images = np.concatenate([mg.conj_codes(g, np.array(frontier, dtype=np.int64), m) for g in gens])
        frontier = sorted(set(images.tolist()) - seen)
        seen.update(frontier)
    return tuple(sorted(seen))


@pytest.mark.parametrize(
    "m,ambient,det",
    [(m, "GL2", 1) for m in range(2, 17)]
    + [(m, "GL2", m - 1) for m in range(3, 17)]
    + [(m, "GL2", None) for m in range(2, 7)]
    + [(m, "SL2", None) for m in range(2, 17)],
)
def test_conjugacy_classes_match_orbit_bfs(m, ambient, det):
    codes = mg.enumerate_group(m, ambient)
    if det is not None:
        codes = codes[mg.det_of_codes(codes, m) == det]
    gens = mg.sl2_generators(m) if ambient == "SL2" else mg.gl2_generators(m)
    want, assigned = [], set()
    for code in codes.tolist():
        if code not in assigned:
            want.append(conj_orbit_reference(m, code, gens))
            assigned.update(want[-1])
    classes = mg.conjugacy_classes(m, ambient, det_filter=det)
    assert [tuple(cl.tolist()) for cl in classes] == want
    for cl in classes:
        # a sorted code array, whose first entry is the representative
        assert cl.dtype == np.int64 and (np.diff(cl) > 0).all()
        assert len(set(mg.trace_of_codes(cl, m).tolist())) == len(set(mg.det_of_codes(cl, m).tolist())) == 1


def test_conjugacy_classes_of_an_empty_det_slice():
    assert mg.conjugacy_classes(5, "SL2", det_filter=2) == []
