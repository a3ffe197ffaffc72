import math
import random
from itertools import combinations

import numpy as np
import pytest

from galmax import modgroup as mg
from galmax import subgroups as sg


def two_generator_sweep(m, ambient):
    """Independent subgroup search: closures of all generator pairs."""
    G = mg.enumerate_group(m, ambient).tolist()
    out = {tuple(mg.closure_codes(m, []).tolist())}
    for g in G:
        out.add(tuple(mg.closure_codes(m, [g]).tolist()))
    for g1, g2 in combinations(G, 2):
        out.add(tuple(mg.closure_codes(m, [g1, g2]).tolist()))
    return out


def lattice(m, ambient):
    """Every subgroup of the ambient group, as its sorted tuple of codes."""
    table = sg.SmallGroupTable.for_group(m, ambient)
    return [tuple(table.codes[msk].tolist()) for msk in table.subgroup_lattice()]


def test_lattice_s3_complete():
    lat = lattice(2, "GL2")
    assert len(lat) == 6
    assert sorted(len(h) for h in lat) == [1, 2, 2, 2, 3, 6]


def test_lattice_sl2_f3_known_count():
    lat = lattice(3, "SL2")
    # the classical lattice of the binary tetrahedral group
    orders = sorted(len(h) for h in lat)
    assert orders == [1, 2, 3, 3, 3, 3, 4, 4, 4, 6, 6, 6, 6, 8, 24]


@pytest.mark.parametrize("m,ambient", [(2, "GL2"), (3, "SL2"), (3, "GL2")])
def test_lattice_contains_every_two_generated_subgroup(m, ambient):
    lat = set(lattice(m, ambient))
    sweep = two_generator_sweep(m, ambient)
    assert sweep <= lat


@pytest.mark.parametrize(
    "m,ambient",
    [(3, "GL2"), (4, "GL2"), (4, "SL2"), (5, "GL2"), (6, "SL2"), (8, "SL2"), (9, "SL2")],
)
def test_lattice_counting_identities(m, ambient):
    """#subgroups of prime order p equals #order-p elements / (p - 1)."""
    table = sg.SmallGroupTable.for_group(m, ambient)
    masks = table.subgroup_lattice()
    for p in (2, 3, 5, 7):
        # x^p = 1 for the identity and exactly the elements of order p
        n_elems = int((table.power_map(p) == table.identity).sum()) - 1
        n_subs = sum(1 for msk in masks if msk.sum() == p)
        assert n_subs == n_elems // (p - 1), (m, ambient, p)


@pytest.mark.parametrize("m", [3, 4])
def test_conjugacy_representatives_match_brute_force(m):
    """Conjugating by every element of GL2(Z/m): the representatives are
    pairwise non-conjugate, their classes cover the lattice, and each class
    has |GL2| / |normalizer| members."""
    G = mg.enumerate_group(m, "GL2").tolist()
    subs = lattice(m, "GL2")
    picked = mg.conjugacy_representatives(m, [np.array(h) for h in subs])
    reps = [tuple(codes.tolist()) for codes, _ in picked]
    images = {r: [tuple(np.sort(mg.conj_codes(g, np.array(r), m)).tolist()) for g in G] for r in reps}
    for r, s in combinations(reps, 2):
        assert s not in images[r]
    assert sum(size for _, size in picked) == len(subs)
    for r, (_, size) in zip(reps, picked):
        assert size == len(G) // images[r].count(r)


def test_lattice_closure_property_sampled():
    table = sg.SmallGroupTable.for_group(8, "SL2")
    masks = table.subgroup_lattice()
    rng = random.Random(0)
    for msk in rng.sample(masks, 40):
        members = np.nonzero(msk)[0]
        for _ in range(10):
            i = int(members[rng.randrange(members.size)])
            j = int(members[rng.randrange(members.size)])
            assert msk[table.cayley[i, j]]


def test_nonsolvable_completion_gl2_f5():
    """Sampled subgroups must always appear in the computed lattice."""
    lat = set(lattice(5, "GL2"))
    G = mg.enumerate_group(5, "GL2")
    rng = random.Random(3)
    for _ in range(60):
        gens = [int(G[rng.randrange(G.size)]) for _ in range(rng.choice((1, 2, 3)))]
        assert tuple(mg.closure_codes(5, gens).tolist()) in lat


# ---------------------------------------------------------------------------
# signature tables


def line_cycle_type(code: int, m: int, q: int) -> tuple[int, ...]:
    """Cycle type of g mod q on the q + 1 lines of F_q^2 (the three nonzero
    vectors at q = 2), by following each line's orbit."""
    a, b, c, d = (x % q for x in mg.decode(code, m))

    def line(x, y):
        # the representative whose first nonzero coordinate is 1
        x, y = x % q, y % q
        inv = pow(x or y, -1, q)
        return (x * inv % q, y * inv % q)

    image = {v: line(a * v[0] + b * v[1], c * v[0] + d * v[1]) for v in [(0, 1)] + [(1, k) for k in range(q)]}
    unseen, lengths = set(image), []
    while unseen:
        start = v = unseen.pop()
        length = 1
        while (v := image[v]) != start:
            unseen.remove(v)
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@pytest.mark.parametrize("m", [2, 3, 4, 8, 9])
def test_pattern_ids_match_cycle_types_on_every_code(m):
    codes = mg.enumerate_group(m, "GL2")
    cubic, psi3 = sg.pattern_ids_of_codes(codes, m)
    q, patterns, ids = (2, sg.CUBIC_PATTERNS, cubic) if m % 2 == 0 else (3, sg.PSI3_PATTERNS, psi3)
    for code, i in zip(codes.tolist(), ids.tolist()):
        assert patterns[i] == line_cycle_type(code, m, q), (m, code)


def test_signature_table_mod2_example():
    tbl = sg.subgroup_signature_table(2)
    assert len(tbl.entries) == 3  # conjugacy classes
    assert sum(e.n_conjugates for e in tbl.entries) == 5  # proper subgroups of S3


def test_signature_table_mod4_every_entry_full_det():
    tbl = sg.subgroup_signature_table(4)
    assert tbl.entries
    sl2 = set(mg.enumerate_group(4, "SL2").tolist())
    for e in tbl.entries:
        dets = {mg.det_of_codes(c, 4) for c in e.codes}
        assert dets == {1, 3}
        assert not sl2 <= set(e.codes)


def test_signature_table_mod5_borel_omits_nonsquare_disc():
    tbl = sg.subgroup_signature_table(5)
    borel = next(e for e in tbl.entries if e.label == "borel")
    for t, d in borel.signatures:
        disc = (t * t - 4 * d) % 5
        assert disc == 0 or pow(disc, 2, 5) == disc * disc % 5 and pow(disc, (5 - 1) // 2, 5) == 1


def test_signature_table_prime_layout():
    for ell, has_oct in [(5, True), (7, False), (11, True), (13, True)]:
        tbl = sg.subgroup_signature_table(ell)
        labels = {e.label for e in tbl.entries}
        assert {"borel", "split-cartan-normalizer", "nonsplit-cartan-normalizer"} <= labels
        assert ("octahedral" in labels) == has_oct
        borel = next(e for e in tbl.entries if e.label == "borel")
        assert borel.order == ell * (ell - 1) ** 2


def test_signature_table_entries_eliminable():
    """Every table entry misses a signature of the full group, so elimination
    can succeed in principle."""
    for m in (2, 3, 4, 8, 9, 5, 7, 13):
        tbl = sg.subgroup_signature_table(m)
        for e in tbl.entries:
            assert tbl.full_signatures - e.signatures, (m, e.label)


def test_mod9_table_shape():
    tbl = sg.subgroup_signature_table(9)
    orders = sorted(e.order for e in tbl.entries)
    assert orders == [144, 972, 1296]
    full = mg.gl2_order(9)
    for e in tbl.entries:
        assert full % e.order == 0


def _is_full_det_sl2_missing(codes, m):
    dets = {mg.det_of_codes(int(c), m) for c in codes}
    units = {u for u in range(m) if math.gcd(u, m) == 1}
    if dets != units:
        return False
    sl2 = set(mg.enumerate_group(m, "SL2").tolist())
    return not sl2 <= set(int(c) for c in codes)


@pytest.mark.parametrize("m,trials", [(4, 150), (9, 150)])
def test_table_covers_sampled_subgroups_up_to_conjugacy(m, trials):
    """Soundness of elimination: every full-det subgroup not containing SL2
    fits inside a table entry after conjugation."""
    tbl = sg.subgroup_signature_table(m)
    entry_sets = [set(e.codes) for e in tbl.entries]
    gcodes = mg.enumerate_group(m, "GL2")
    gens = mg.gl2_generators(m)
    rng = random.Random(11)
    tested = 0
    for _ in range(trials):
        k = rng.choice((1, 2, 2, 3))
        seed = [int(gcodes[rng.randrange(gcodes.size)]) for _ in range(k)]
        codes = mg.closure_codes(m, seed)
        if not _is_full_det_sl2_missing(codes, m):
            continue
        tested += 1
        found = False
        seen = set()
        frontier = [np.sort(codes)]
        while frontier and not found:
            cur = frontier.pop()
            if any(set(int(x) for x in cur) <= es for es in entry_sets):
                found = True
                break
            for g in gens:
                img = np.sort(mg.conj_codes(g, cur, m))
                key = img.tobytes()
                if key not in seen:
                    seen.add(key)
                    frontier.append(img)
        assert found, f"sampled subgroup of order {codes.size} not covered at m={m}"
    assert tested >= 10


def test_mod8_couplings_are_subgroups_with_expected_shape():
    tbl = sg.subgroup_signature_table(8)
    couplings = [e for e in tbl.entries if e.label.startswith("sign-det")]
    assert len(couplings) == 2
    for e in couplings:
        assert e.order == mg.gl2_order(8) // 2
        # closed under multiplication (sampled)
        codes = list(e.codes)
        cset = set(codes)
        rng = random.Random(2)
        for _ in range(40):
            x = rng.choice(codes)
            y = rng.choice(codes)
            assert mg.mul_codes(x, y, 8) in cset
        # mod-4 image is everything
        red = set(mg.reduce_codes(np.array(codes), 8, 4).tolist())
        assert red == set(mg.enumerate_group(4, "GL2").tolist())


@pytest.mark.slow
def test_mod8_coupling_completeness_exhaustive():
    """Pin the classification fact behind the level-8 step of serre_check:
    the only subgroups of GL2(Z/8) with full determinant and mod-4 image
    containing SL2(Z/4) that do not contain SL2(Z/8) are the two couplings."""
    table = sg.SmallGroupTable.for_group(8, "GL2")
    masks = table.subgroup_lattice()
    assert len(masks) == 24587
    sl2_8 = set(mg.enumerate_group(8, "SL2").tolist())
    sl2_4 = set(mg.enumerate_group(4, "SL2").tolist())
    tbl = sg.subgroup_signature_table(8)
    couplings = {
        frozenset(e.codes) for e in tbl.entries if e.label.startswith("sign-det")
    }
    found = set()
    for msk in masks:
        codes = table.codes[msk]
        dets = set(int(d) for d in mg.det_of_codes(codes, 8))
        if dets != {1, 3, 5, 7}:
            continue
        cs = set(int(c) for c in codes)
        if sl2_8 <= cs:
            continue
        red = set(int(c) for c in np.unique(mg.reduce_codes(codes, 8, 4)))
        if sl2_4 <= red:
            found.add(frozenset(cs))
    assert found == couplings
