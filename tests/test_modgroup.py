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
    assert G.order == expected
    # cross-check against a fully independent quadruple loop
    if m <= 6:
        assert G.order == brute_force_count(m, ambient)


def test_order_formulas_match_enumeration():
    for m in range(1, 14):
        assert mg.enumerate_group(m, "SL2").order == mg.sl2_order(m)
    for m in range(1, 11):
        assert mg.enumerate_group(m, "GL2").order == mg.gl2_order(m)


def test_enumerate_group_caps():
    with pytest.raises(ResourceCapError):
        mg.enumerate_group(32, "SL2")
    with pytest.raises(ResourceCapError):
        mg.enumerate_group(25, "GL2")


def test_matrix_invariants():
    M = mg.mat(7, 2, 3, 1, 4)
    assert M.det == 5
    assert M.mul(M.inv()) == mg.identity(7)
    with pytest.raises(InvalidInputError):
        mg.mat(6, 2, 0, 0, 3)  # det 6 = 0 mod 6


def test_closure_elementary_generates_sl2_mod_5():
    H = mg.closure(5, [(1, 1, 0, 1), (1, 0, 1, 1)])
    assert H.order == 120


def test_closure_trivial_and_minus_identity():
    assert mg.closure(5, []).order == 1
    H = mg.closure(7, [(-1, 0, 0, -1)])
    assert H.order == 2


def test_closure_rejects_non_unit_det():
    with pytest.raises(InvalidInputError):
        mg.closure(6, [(1, 0, 0, 2)])


def test_closure_idempotent_and_conjugation_stable():
    rng = random.Random(5)
    G = mg.enumerate_group(8, "SL2")
    for _ in range(5):
        gens = [G.elements[rng.randrange(G.order)] for _ in range(2)]
        H = mg.closure(8, gens)
        H2 = mg.closure(8, H.elements)
        assert H.codes == H2.codes
        # closed under conjugation by its own elements
        arr = H.code_array()
        for g in H.elements[:6]:
            assert set(mg.conj_codes(g, arr).tolist()) == set(H.codes)


def test_derived_subgroup_values():
    assert mg.derived_subgroup(mg.enumerate_group(5, "SL2")).order == 120
    assert mg.derived_subgroup(mg.enumerate_group(3, "GL2")).order == 24
    triv = mg.closure(5, [])
    assert mg.derived_subgroup(triv).order == 1


def test_derived_subgroup_is_normal_with_abelian_quotient():
    H = mg.enumerate_group(4, "SL2")
    Hp = mg.derived_subgroup(H)
    hp = set(Hp.codes)
    arr = Hp.code_array()
    for g in H.elements[:10]:
        assert set(mg.conj_codes(g, arr).tolist()) == hp
    # abelian quotient: commutators of random elements land in H'
    rng = random.Random(1)
    for _ in range(20):
        x = H.elements[rng.randrange(H.order)]
        y = H.elements[rng.randrange(H.order)]
        comm = x.mul(y).mul(x.inv()).mul(y.inv())
        assert comm.code() in hp


@pytest.mark.parametrize("m", list(range(2, 25)))
def test_abelianization_gcd_formula(m):
    ab = mg.abelianization_order(mg.enumerate_group(m, "SL2"))
    assert ab.order == math.gcd(m, 12)
    assert ab.is_cyclic


def test_abelianization_examples():
    assert mg.abelianization_order(mg.enumerate_group(12, "SL2")) == (12, True)
    assert mg.abelianization_order(mg.enumerate_group(2, "SL2")).order == 2
    assert mg.abelianization_order(mg.enumerate_group(7, "SL2")).order == 1


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
        assert sum(c.size for c in classes) == G.order
        seen = set()
        for c in classes:
            assert G.order % c.size == 0
            assert not seen & set(c.member_codes)
            seen.update(c.member_codes)
            for code in list(c.member_codes)[:6]:
                M = mg.mat_from_code(code, m)
                assert M.trace == c.trace and M.det == c.det
        # scalar classes are singletons
        ident = mg.identity(m).code()
        assert any(c.member_codes == (ident,) for c in classes)


def test_conjugacy_classes_rejects_bad_filter():
    with pytest.raises(InvalidInputError):
        mg.conjugacy_classes(4, "GL2", det_filter=2)


def reduce_mod(H, m_target):
    """Sorted codes of the entrywise reduction of H to Z/m_target."""
    return tuple(np.unique(mg.reduce_codes(H.code_array(), H.m, m_target)).tolist())


def test_reduce_mod():
    r = reduce_mod(mg.enumerate_group(8, "SL2"), 4)
    assert len(r) == 48
    assert r == mg.enumerate_group(4, "SL2").codes
    t = reduce_mod(mg.enumerate_group(9, "SL2"), 1)
    assert len(t) == 1
    single = mg.closure(9, [(1, 0, 0, 1)])
    assert len(reduce_mod(single, 3)) == 1


@pytest.mark.parametrize("m,m2", [(8, 4), (8, 2), (12, 6), (9, 3)])
def test_reduce_mod_full_groups_surject(m, m2):
    assert reduce_mod(mg.enumerate_group(m, "SL2"), m2) == mg.enumerate_group(m2, "SL2").codes


def missed_class(H, d):
    """The first GL2-conjugacy class of determinant d that H misses, or None."""
    members = set(H.codes)
    return next((cl for cl in mg.conjugacy_classes(H.m, "GL2", det_filter=d) if members.isdisjoint(cl.member_codes)), None)


def test_meets_all_classes():
    G5 = mg.enumerate_group(5, "GL2")
    assert missed_class(G5, 1) is None
    S5 = mg.enumerate_group(5, "SL2")
    assert missed_class(S5, 1) is None
    borel = mg.closure(5, [(a, b, 0, d) for a in (1, 2, 3, 4) for d in (1, 2, 3, 4) for b in range(5)])
    assert borel.order == 80
    missing = missed_class(borel, 1)
    assert missing is not None
    # the missed class has irreducible characteristic polynomial
    rep = missing.representative
    disc = (rep.trace**2 - 4 * rep.det) % 5
    assert pow(disc, 2, 5) != 0 and pow(disc, (5 - 1) // 2, 5) == 5 - 1
    with pytest.raises(InvalidInputError):
        missed_class(borel, 5)


# ---------------------------------------------------------------------------
# the array engines against plain-Python references on MatModM.mul


def matrix_of_code(code, m):
    a, rest = divmod(code, m**3)
    b, rest = divmod(rest, m * m)
    return mg.MatModM(m, a, b, *divmod(rest, m))


@pytest.mark.parametrize("m", range(2, 17))
def test_mul_codes_matches_matmodm_mul(m):
    codes = mg.enumerate_group(m, "GL2").code_array()
    elements = [matrix_of_code(c, m) for c in codes.tolist()]
    rng = random.Random(m)
    for g in [*mg.sl2_generators(m), *(elements[rng.randrange(len(elements))] for _ in range(2))]:
        assert mg.mul_codes(codes, g).tolist() == [x.mul(g).code() for x in elements]


def reference_closure(m, gen_codes):
    """Breadth-first closure under right multiplication, in plain Python."""
    gens = [mg.mat_from_code(c, m) for c in gen_codes]
    seen = {mg.identity(m).code()}
    frontier = [mg.identity(m)]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = x.mul(g)
                if y.code() not in seen:
                    seen.add(y.code())
                    fresh.append(y)
        frontier = fresh
    return sorted(seen)


@pytest.mark.parametrize(
    "m,ambient", [(m, "GL2") for m in range(2, 17)] + [(m, "SL2") for m in (18, 25, 27)]
)
def test_closure_codes_matches_reference_bfs(m, ambient):
    codes = mg.enumerate_group(m, ambient).code_array()
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
