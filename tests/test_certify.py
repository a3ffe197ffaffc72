import math
import random
from fractions import Fraction

import numpy as np
import pytest

from galmax import certify, ecff, nt, sieve
from galmax import numfield as nf
from galmax.errors import InvalidInputError, ResourceCapError
from galmax.subgroups import subgroup_signature_table
from galmax.verdict import certified, inconclusive, obstruction
from weierstrass import invariants

E11 = ecff.validate(Fraction(1), Fraction(1))
PARAMS = certify.CertParams(prime_bound=1000, l_max=13)


@pytest.fixture(scope="module")
def sigs_e11():
    return certify.collect_signatures(E11, PARAMS)


def test_cert_params_validation():
    with pytest.raises(InvalidInputError):
        certify.CertParams(prime_bound=10)
    with pytest.raises(InvalidInputError):
        certify.CertParams(l_max=3)
    assert certify.CertParams(prime_bound=certify.PRIME_BOUND_CAP).prime_bound == 10**6
    with pytest.raises(ResourceCapError):
        certify.CertParams(prime_bound=certify.PRIME_BOUND_CAP + 1)


def test_frob_signature_hasse():
    # a_5 = 7 > 2 sqrt(5): the accumulator's feed refuses the row
    with pytest.raises(InvalidInputError, match="Hasse") as info:
        certify.certify_mod_ell([(5, -1, 7, -1, -1, -1)], 7)
    assert info.traceback[-1].name == "feed"


def test_integer_model():
    assert certify.integer_model(Fraction(1, 2), Fraction(1, 3)) == (
        Fraction(1, 2) * 6**4,
        Fraction(1, 3) * 6**6,
    )
    assert certify.integer_model(1, 1) == (1, 1)


def test_collect_signatures_e11(sigs_e11):
    by_p = {s[0]: s for s in sigs_e11}
    assert by_p[5][2] == -3  # point count 9 over F_5
    assert all(ap * ap <= 4 * p and root == -1 for p, root, ap, *_ in sigs_e11)
    assert [s[0] for s in sigs_e11] == sorted(by_p)  # in prime order
    # bad primes skipped: 2, 31 divide 6 * 496
    assert 2 not in by_p and 3 not in by_p and 31 not in by_p
    # signatures match the engine run on a batch that holds other curves too
    for p, _, *signature in list(by_p.values())[:20]:
        # 4a^3 + 27b^2 is the prime 239 for (-1, 3) and 1823 for (5, 7)
        cols = certify.signature_columns(p, [p - 1, 1, 5 % p], [3, 1, 7 % p])
        assert [int(col[1]) for col in cols] == signature


def test_certify_mod_ell_empty_is_inconclusive():
    v = certify.certify_mod_ell([], 7)
    assert v.is_inconclusive
    assert len(v.diagnostics["unmet_conditions"]) == 3


def test_certify_mod_ell_synthetic_witnesses():
    sigs = [
        (23, -1, 3, -1, -1, -1),  # t^2-4d = 1, a square mod 7
        (17, -1, 1, -1, -1, -1),  # t^2-4d = 3, a nonsquare mod 7
        (5, -1, 1, -1, -1, -1),  # u = 3, projective order > 5
    ]
    assert certify.certify_mod_ell(sigs, 7).is_certified
    # the first signature alone has u = 1 and a square discriminant: only (i)
    assert certify.certify_mod_ell(sigs[:1], 7).is_inconclusive


def test_certify_mod_ell_rejects_small_ell():
    with pytest.raises(InvalidInputError):
        certify.certify_mod_ell([], 3)


def test_certify_mod_ell_e11(sigs_e11):
    for ell in (5, 7, 11, 13):
        assert certify.certify_mod_ell(sigs_e11, ell).is_certified


# which condition of certify_mod_ell each tabled subgroup can never meet
_MOD_ELL_ESCAPES = {"nonsplit-cartan-normalizer": 0, "borel": 1, "split-cartan-normalizer": 1, "octahedral": 2}


@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_mod_ell_witnesses_escape_the_tabled_subgroups(ell):
    """The soundness claim of certify_mod_ell, checked on the prime tables:
    no signature (t, d) of an entry meets the condition that entry escapes,
    and the signatures of GL2(F_ell) meet all three."""
    column = np.array([[ell]])

    def conditions_met(signatures):
        t, d = np.array(sorted(signatures)).T
        return certify._mod_ell_hits(column, ecff._character(column), d, t)[0].any(axis=1)

    tbl = subgroup_signature_table(ell)
    for e in tbl.entries:
        assert not conditions_met(e.signatures)[_MOD_ELL_ESCAPES[e.label]], (ell, e.label)
    assert conditions_met(tbl.full_signatures).all()


def test_certify_mod_small_e11(sigs_e11):
    assert certify.certify_mod_small(sigs_e11, 4).is_certified
    assert certify.certify_mod_small(sigs_e11, 9).is_certified
    with pytest.raises(InvalidInputError):
        certify.certify_mod_small(sigs_e11, 8)


def test_certify_mod_small_inconclusive_names_survivors():
    # disc of E(-3, 1) is 1296 = 36^2: the mod-2 image is cyclic of order 3,
    # so Borel-type candidates at level 4 can never be eliminated
    E = ecff.validate(Fraction(-3), Fraction(1))
    sigs = certify.collect_signatures(E, PARAMS)
    v = certify.certify_mod_small(sigs, 4)
    assert v.is_inconclusive
    assert v.diagnostics["surviving_subgroups"]


def test_elimination_determinism_under_order(sigs_e11):
    shuffled = list(sigs_e11)
    random.Random(9).shuffle(shuffled)
    for m in (4, 9):
        assert certify.certify_mod_small(shuffled, m).to_json() == certify.certify_mod_small(
            sigs_e11, m
        ).to_json()
    assert certify.certify_mod_ell(shuffled, 5).status == certify.certify_mod_ell(sigs_e11, 5).status


LEVEL_FUNCTIONS = (
    lambda sigs: certify.certify_mod_ell(sigs, 5),
    lambda sigs: certify.signature_elimination(sigs, 8),
    lambda sigs: certify.certify_mod_small(sigs, 4),
    certify.quadratic_entanglement_check,
)


@pytest.mark.parametrize("field, value", [(3, 3), (3, -2), (4, 5), (4, -2), (5, 2), (5, -2)],
                         ids=["cubic-3", "cubic-minus-2", "psi3-5", "psi3-minus-2", "flag-2", "flag-minus-2"])
def test_level_functions_refuse_rows_outside_the_pattern_ids(sigs_e11, field, value):
    # ids index CUBIC_PATTERNS and PSI3_PATTERNS, -1 marking a missing one
    stray = list(sigs_e11[3])
    stray[field] = value
    for level in LEVEL_FUNCTIONS:
        with pytest.raises(InvalidInputError, match=f"{('cubic', 'psi3', 'flag')[field - 3]} {value} "):
            level([*sigs_e11[:3], tuple(stray)])


def test_monotonicity_adding_signatures(sigs_e11):
    half = sigs_e11[: len(sigs_e11) // 2]
    for m in (4, 9):
        if certify.certify_mod_small(half, m).is_certified:
            assert certify.certify_mod_small(sigs_e11, m).is_certified
    for ell in (5, 7):
        if certify.certify_mod_ell(half, ell).is_certified:
            assert certify.certify_mod_ell(sigs_e11, ell).is_certified


def test_entanglement_check_e11(sigs_e11):
    assert certify.quadratic_entanglement_check(sigs_e11).is_certified


def test_entanglement_check_detects_conductor_dividing_72():
    # disc(E(6, 2)) = -16 * 972 with square class -3: the D = -3 coupling is real
    E = ecff.validate(Fraction(6), Fraction(2))
    sigs = certify.collect_signatures(E, PARAMS)
    v = certify.quadratic_entanglement_check(sigs)
    assert v.is_inconclusive
    assert v.diagnostics["surviving_discriminants"] == [-3]
    rep = certify.serre_check(E, PARAMS)
    assert rep.verdict.is_inconclusive
    assert "entanglement" in rep.verdict.diagnostics["unresolved_levels"]


def test_serre_check_certifies_e11():
    rep = certify.serre_check(E11, PARAMS)
    assert rep.verdict.is_certified
    # re-assertable consistency: every level in the report is certified
    for key, v in rep.levels.items():
        assert v.is_certified, key
    js = rep.to_json()
    assert js["final"]["status"] == "certified"


def test_serre_check_obstructions():
    rep = certify.serre_check(ecff.validate(Fraction(0), Fraction(1)), PARAMS)
    assert rep.verdict.is_obstruction
    kinds = {w["kind"] for w in rep.verdict.witnesses}
    assert "rational 2-torsion" in kinds
    # the witness is recheckable
    x = Fraction(next(w["x"] for w in rep.verdict.witnesses if w["kind"] == "rational 2-torsion"))
    assert x**3 + 0 * x + 1 == 0

    rep = certify.serre_check(ecff.validate(Fraction(0), Fraction(2)), PARAMS)
    kinds = {w["kind"] for w in rep.verdict.witnesses}
    assert kinds == {"complex multiplication"}  # x^3 + 2 is irreducible, j = 0

    rep = certify.serre_check(ecff.validate(Fraction(1), Fraction(0)), PARAMS)
    kinds = {w["kind"] for w in rep.verdict.witnesses}
    assert "complex multiplication" in kinds  # j = 1728


def test_serre_obstruction_on_a_box_matches_per_curve_reference():
    # every curve with x <= 40 in one int64-array call, against brute-force
    # roots (a root y != 0 has y^2 <= |A| + |B|) and the j-invariant of the
    # long Weierstrass model
    A, B = sieve.enumerate_box(40)
    pairs = list(zip(A.tolist(), B.tolist()))
    torsion, x, cm, j = certify.serre_obstruction(A, B)
    assert torsion.sum() and cm.sum()
    for k, (a, b) in enumerate(pairs):
        bound = math.isqrt(abs(a) + abs(b))
        roots = [y for y in range(-bound, bound + 1) if y**3 + a * y + b == 0]
        jj = invariants(0, 0, 0, a, b).j
        is_cm = jj.denominator == 1 and jj.numerator in ecff.CM_J_INVARIANTS
        assert (bool(torsion[k]), bool(cm[k])) == (bool(roots), is_cm), (a, b)
        assert not roots or x[k] == roots[0], (a, b)
        assert not is_cm or j[k] == jj, (a, b)


def test_serre_check_rejects_field_curves():
    K = nf.MonogenicField([1, 1, 0, 1])
    E = ecff.validate(K.elem([0, 1296]), K.elem([0, 0, 11664]))
    with pytest.raises(InvalidInputError):
        certify.serre_check(E)


def test_cross_method_agreement_sample():
    """The characteristic-polynomial criterion and table elimination must
    agree on certified-ness at l = 5, 7 (build-failing on disagreement)."""
    rng = random.Random(17)
    pairs = []
    while len(pairs) < 25:
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        if ecff.discriminant(a, b) != 0:
            pairs.append((a, b))
    for a, b in pairs:
        sigs = certify.collect_signatures(ecff.validate(Fraction(a), Fraction(b)), PARAMS)
        for ell in (5, 7):
            crit = certify.certify_mod_ell(sigs, ell).is_certified
            elim = certify.signature_elimination(sigs, ell).is_certified
            assert crit == elim, (a, b, ell)


def test_certify_maximal_cubic_field_example():
    K = nf.MonogenicField([1, 1, 0, 1])
    E = ecff.validate(K.elem([0, 1296]), K.elem([0, 0, 11664]))
    rep = certify.certify_maximal(E, K, certify.CertParams(prime_bound=3000, l_max=17))
    assert rep.verdict.is_certified
    assert "GL2(Zhat)" in rep.statement
    assert rep.field_certificate.is_certified
    js = rep.to_json()
    assert js["conditions"]["c"]["status"] == "certified"
    assert js["conditions"]["d"]["status"] == "certified"


def test_certify_maximal_refuses_a_field_other_than_the_curves():
    # the field certificates walk the field of the discriminant, so a K that
    # differs from it would bound the conductor from the wrong field
    K, L = nf.MonogenicField([1, 1, 0, 1]), nf.MonogenicField([-2, 0, 1])
    E = ecff.validate(K.elem([0, 1296]), K.elem([0, 0, 11664]))
    params = certify.CertParams(prime_bound=500, l_max=13)
    for call in (
        lambda: certify.certify_maximal(E, L, params),
        lambda: certify.collect_signatures(E, params, L),
        lambda: certify.certify_maximal(E11, K, params),
        lambda: certify.collect_signatures(E11, params, K),
    ):
        with pytest.raises(InvalidInputError):
            call()
    assert certify.certify_maximal(E, K, params).to_json() == certify.certify_maximal(E, None, params).to_json()


def test_certify_maximal_over_q_is_obstructed():
    rep = certify.certify_maximal(E11, params=PARAMS)
    assert rep.verdict.is_obstruction


def test_certify_maximal_rationals_always_obstructed():
    # CM, rational 2-torsion and a Serre curve alike: the obstruction over Q
    # needs no signatures
    for a, b in [(0, 1), (-1, 0), (1, 1), (Fraction(1, 4), Fraction(1, 8))]:
        rep = certify.certify_maximal(ecff.validate(Fraction(a), Fraction(b)), params=PARAMS)
        assert rep.verdict.is_obstruction
        assert rep.verdict.witnesses == ("k = Q",)
        assert rep.conditions["a"] == {} and rep.conditions["b"] == {}


def _verdicts_for(l_max):
    per_m = {4: certified("w4"), 9: certified("w9")}
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p <= l_max:
            per_m[p] = certified(f"w{p}")
    return per_m


def test_assemble_maximality_all_certified():
    v = certify.assemble_maximality(_verdicts_for(13), certified("sqrt"), certified("cbrt"))
    assert v.is_certified


def test_assemble_maximality_inconclusive_propagates():
    v = certify.assemble_maximality(_verdicts_for(13), inconclusive(), certified("cbrt"))
    assert v.is_inconclusive
    assert "sqrt-disc" in v.diagnostics["unresolved"]


def test_assemble_maximality_requires_complete_levels():
    per_m = _verdicts_for(13)
    del per_m[7]
    with pytest.raises(InvalidInputError):
        certify.assemble_maximality(per_m, certified("s"), certified("c"))


def test_assemble_maximality_monotone():
    base = _verdicts_for(7)
    base[7] = inconclusive()
    v1 = certify.assemble_maximality(base, certified("s"), certified("c"))
    assert v1.is_inconclusive
    upgraded = dict(base)
    upgraded[7] = certified("w7")
    v2 = certify.assemble_maximality(upgraded, certified("s"), certified("c"))
    assert v2.is_certified


def test_obstruction_dominates():
    per_m = _verdicts_for(7)
    per_m[5] = obstruction("bad")
    v = certify.assemble_maximality(per_m, inconclusive(), certified("c"))
    assert v.is_obstruction


# ---------------------------------------------------------------------------
# plain-Python reference: the per-signature loops the level accumulator
# replaced, kept as the specification of its verdicts.  A signature is a row
# (p, root, a_p, cubic id, psi3 id, flag); -1 marks a missing pattern or flag.


def _ref_certify_mod_ell(sigs, ell):
    wit_split = wit_nonsplit = wit_order = None
    for s in sigs:
        p, _, ap, *_ = s
        if p % ell == 0:
            continue
        t, d = ap % ell, p % ell
        disc = (t * t - 4 * d) % ell
        if t != 0 and disc != 0 and wit_split is None and nt.kronecker(disc, ell) == 1:
            wit_split = s
        if t != 0 and wit_nonsplit is None and nt.kronecker(disc, ell) == -1:
            wit_nonsplit = s
        if wit_order is None and d % ell != 0:
            u = t * t * pow(d, -1, ell) % ell
            if u not in (0, 1, 2, 4 % ell) and (u * u - 3 * u + 1) % ell != 0:
                wit_order = s
        if wit_split and wit_nonsplit and wit_order:
            return certified(
                {"condition": "split semisimple", "p": wit_split[0], "ap": wit_split[2]},
                {"condition": "nonsplit semisimple", "p": wit_nonsplit[0], "ap": wit_nonsplit[2]},
                {"condition": "projective order > 5", "p": wit_order[0], "ap": wit_order[2]},
                ell=ell,
            )
    missing = [
        name
        for name, w in [
            ("split semisimple with nonzero trace", wit_split),
            ("nonsplit semisimple with nonzero trace", wit_nonsplit),
            ("projective order > 5", wit_order),
        ]
        if w is None
    ]
    return inconclusive(ell=ell, unmet_conditions=missing)


def _ref_signature_tuple(s, m):
    p, _, ap, cubic, psi3, flag = s
    t, d = ap % m, p % m
    if m in (4, 8):
        if cubic < 0:
            return None
        return (t, d, certify.CUBIC_PATTERNS[cubic])
    if m == 9:
        if psi3 < 0 or flag < 0:
            return None
        return (t, d, certify.PSI3_PATTERNS[psi3], bool(flag))
    return (t, d)


def _ref_signature_elimination(sigs, m):
    table = subgroup_signature_table(m)
    observed = {}  # signature -> the first row showing it
    dets = set()
    for s in sigs:
        if math.gcd(s[0], m) != 1:
            continue
        sig = _ref_signature_tuple(s, m)
        if sig is None:
            continue
        observed.setdefault(sig, s)
        dets.add(s[0] % m)
    if not observed:
        return inconclusive(m=m, reason="no usable signatures")
    stray = observed.keys() - table.full_signatures
    if stray:
        raise AssertionError(f"observed signatures {stray} not realizable in GL2(Z/{m}): internal bug")
    units = {u for u in range(1, m) if math.gcd(u, m) == 1}
    if dets != units:
        return inconclusive(m=m, reason="determinant coverage incomplete", seen=sorted(dets))
    survivors = []
    witnesses = []
    for e in table.entries:
        # the first signature in list order whose class the entry misses
        first = next((s for sig, s in observed.items() if sig not in e.signatures), None)
        if first is not None:
            witnesses.append({"eliminated": e.label, "by_signature": _ref_signature_tuple(first, m), "p": first[0]})
        else:
            survivors.append(e.label)
    if survivors:
        return inconclusive(m=m, surviving_subgroups=survivors, table_scope=table.scope)
    return certified(*witnesses, m=m, table_scope=table.scope)


_REF_EPS_BY_PATTERN = {(1, 1, 1): 1, (2, 1): -1, (3,): 1}


def _ref_quadratic_entanglement_check(sigs):
    alive = {D: None for D in certify.ENTANGLEMENT_DISCRIMINANTS}
    for p, _, _, cubic, _, _ in sigs:
        if cubic < 0 or p % 2 == 0 or p % 3 == 0:
            continue
        pattern = certify.CUBIC_PATTERNS[cubic]
        eps = _REF_EPS_BY_PATTERN[pattern]
        for D in [D for D, w in alive.items() if w is None]:
            if nt.kronecker(D, p) != eps:
                alive[D] = {"coupling_discriminant": D, "p": p, "pattern": pattern}
        if all(w is not None for w in alive.values()):
            return certified(*alive.values(), statement="no quadratic entanglement of conductor dividing 72")
    survivors = [D for D, w in alive.items() if w is None]
    return inconclusive(surviving_discriminants=survivors)


LEVEL_CHECKS = (
    [(f"ell={ell}", lambda s, ell=ell: certify.certify_mod_ell(s, ell), lambda s, ell=ell: _ref_certify_mod_ell(s, ell))
     for ell in (5, 7, 11, 13)]
    + [(f"m={m}", lambda s, m=m: certify.signature_elimination(s, m),
        lambda s, m=m: _ref_signature_elimination(s, m)) for m in (4, 8, 9)]
    + [("entanglement", certify.quadratic_entanglement_check, _ref_quadratic_entanglement_check)]
)


def _assert_levels_match_reference(sigs, label):
    for name, engine, reference in LEVEL_CHECKS:
        assert engine(sigs).to_json() == reference(sigs).to_json(), (label, name)


@pytest.fixture(scope="module")
def box10():
    A, B = sieve.enumerate_box(10)
    pairs = list(zip(A.tolist(), B.tolist()))
    params = certify.CertParams(prime_bound=500)
    return pairs, [certify.collect_signatures(ecff.validate(Fraction(a), Fraction(b)), params) for a, b in pairs]


def test_levels_match_reference_on_box(box10):
    pairs, sigs_by_curve = box10
    assert len(pairs) == 438
    for pair, sigs in zip(pairs, sigs_by_curve):
        _assert_levels_match_reference(sigs, pair)


def test_box_scan_matches_reference_per_curve(box10):
    # the box path feeds the accumulator one prime at a time; per curve it
    # must certify exactly when every reference verdict of the criterion does
    pairs, sigs_by_curve = box10
    params = certify.CertParams(prime_bound=500, l_max=13)
    box = sieve.scan_levels(*sieve.enumerate_box(10), 500, **certify.serre_level_tests(params)).certified()
    for k, sigs in enumerate(sigs_by_curve):
        verdicts = [_ref_certify_mod_ell(sigs, ell) for ell in (5, 7, 11, 13)]
        verdicts += [_ref_signature_elimination(sigs, m) for m in (4, 9, 8)]
        verdicts.append(_ref_quadratic_entanglement_check(sigs))
        assert box[k] == all(v.is_certified for v in verdicts), pairs[k]


def test_levels_match_reference_on_cubic_field_curve():
    K = nf.MonogenicField([1, 1, 0, 1])
    E = ecff.validate(K.elem([0, 1296]), K.elem([0, 0, 11664]))
    sigs = certify.collect_signatures(E, certify.CertParams(prime_bound=2000), K)
    _assert_levels_match_reference(sigs, "cubic field")


def test_levels_match_reference_on_short_and_partial_lists(sigs_e11):
    _assert_levels_match_reference([], "empty")
    for s in sigs_e11[:12]:
        _assert_levels_match_reference([s], s[0])
    # primes 1 mod 4 only: determinant coverage fails at 4 and 8
    _assert_levels_match_reference([s for s in sigs_e11 if s[0] % 4 == 1], "p = 1 mod 4")
    # signatures without splitting data only feed the mod-l conditions
    bare = [(p, -1, ap, -1, -1, -1) for p, _, ap, *_ in sigs_e11[:60]]
    _assert_levels_match_reference(bare, "bare")


def test_accumulator_keeps_the_signature_checks():
    acc = certify.LevelAccumulator(2, ells=(5,), ms=(4,), entanglement=True)
    with pytest.raises(InvalidInputError):  # the Hasse bound: a_7 = 6 > 2 sqrt(7)
        acc.feed([0], [7], [6], [0], [0], [0])
    with pytest.raises(AssertionError):  # odd trace with trivial mod-2 image
        acc.feed([1], [5], [1], [certify.CUBIC_PATTERNS.index((1, 1, 1))], [0], [0])
    with pytest.raises(InvalidInputError):
        certify.LevelAccumulator(1, ells=(9,))
    # determinant coverage: primes 1 mod 4 alone eliminate every entry at
    # m = 4 for E(1, 1) but never show determinant 3
    rows = [(p, -1, *(int(v[0]) for v in certify.signature_columns(p, [1], [1])))
            for p in nt.primes_up_to(503) if p % 4 == 1 or p == 503]
    head, cols = (certify.SignatureColumns.of_rows(r) for r in (rows[:-1], rows))
    half = certify._accumulate(head, ms=(4,))
    verdict = half.elimination_verdict(4, head)  # usable: determinant 1 was seen
    assert verdict.diagnostics == {"m": 4, "reason": "determinant coverage incomplete", "seen": [1]}
    assert not half.certified()[0]
    # the cell at 503 = 3 mod 4 completes the coverage, and every entry's
    # witness is a prime 1 mod 4: those alone had eliminated every entry
    p, _, ap, cubic, psi3, flag = rows[-1]
    half.feed([0], [p], [ap], [cubic], [psi3], [flag])
    verdict = half.elimination_verdict(4, cols)
    assert verdict.is_certified and half.certified()[0]
    assert len(verdict.witnesses) == 42 and all(w["p"] % 4 == 1 for w in verdict.witnesses)
    fresh = certify.LevelAccumulator(3, ells=(5,), ms=(4,), entanglement=True)
    assert not fresh.certified().any()
    assert certify.LevelAccumulator(1).certified().all()  # no level tests asked


MAXIMAL_ENTRIES = {4: (1, 2, 5), 8: (0, 1, 2, 3, 4, 5), 9: (0, 1, 2), 5: (2, 3), 7: (1, 2), 11: (1, 2), 13: (1, 2)}


def test_level_rows_are_the_signature_maximal_entries():
    # a class eliminating a listed entry eliminates every entry inside it,
    # so the listed entries' rows decide the whole table
    for m, maximal in MAXIMAL_ENTRIES.items():
        lv = certify._level(m)
        assert lv.maximal == maximal
        sets = [e.signatures for e in lv.table.entries]
        listed = [sets[e] for e in maximal]
        assert all(any(s <= t for t in listed) for s in sets)
        assert not any(s < t for s in listed for t in listed)
    ells = (5, 7, 11, 13)
    acc = certify.LevelAccumulator(2, ells=ells, ms=tuple(MAXIMAL_ENTRIES), entanglement=True)
    rows = 3 * len(ells) + sum(nt.euler_phi(m) + len(maximal) for m, maximal in MAXIMAL_ENTRIES.items()) + 7
    assert acc.first.shape == (rows, 2) and acc.first.dtype == np.int64


@pytest.mark.parametrize("m", list(MAXIMAL_ENTRIES))
def test_cells_inside_one_table_entry_never_certify_its_level(m):
    # the level rows are sound: cells of exactly the classes of one entry
    # (of full determinant, as every tabled entry is) leave it surviving
    lv = certify._level(m)
    for e in lv.table.entries:
        sigs = sorted(e.signatures)
        t, d = (np.array([s[i] for s in sigs]) for i in (0, 1))
        norm = d + 100 * m * m  # any norm = d mod m obeys the Hasse bound here
        cubic = [certify.CUBIC_PATTERNS.index(s[2]) if m in (4, 8) else 0 for s in sigs]
        psi3 = [certify.PSI3_PATTERNS.index(s[2]) if m == 9 else 0 for s in sigs]
        flag = [int(s[3]) if m == 9 else 0 for s in sigs]
        cols = certify.SignatureColumns(norm, np.full(len(sigs), -1), t, *(np.array(c) for c in (cubic, psi3, flag)))
        acc = certify._accumulate(cols, ms=(m,))
        assert not acc.certified()[0], (m, e.label)
        assert e.label in acc.elimination_verdict(m, cols).diagnostics["surviving_subgroups"]


def test_production_paths_build_no_frobsignature(monkeypatch):
    # certify and box scans run on columns end to end; signature rows are a
    # view only, which every level function reads through certify._columns
    K = nf.MonogenicField([1, 1, 0, 1])
    cubic = ecff.validate(K.elem([0, 1296]), K.elem([0, 0, 11664]))
    runs = [
        lambda: certify.serre_check(E11, PARAMS),
        lambda: certify.serre_check(ecff.validate(Fraction(-3), Fraction(1)), PARAMS),
        lambda: certify.certify_maximal(cubic, K, certify.CertParams(prime_bound=2000, l_max=13)),
        lambda: sieve.density_scan([5, 10]),
        lambda: sieve.density_scan([5, 10], "mod-ell", ell=7),
    ]
    expected = [run().to_json() for run in runs]

    def no_rows(rows):
        raise AssertionError("a production path took the signature row view")

    monkeypatch.setattr(certify, "_columns", no_rows)
    with pytest.raises(AssertionError, match="row view"):
        certify.certify_mod_ell([], 5)
    assert [run().to_json() for run in runs] == expected


def test_ell_cap_is_checked_before_any_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("primes or character tables built before the l cap was checked")

    monkeypatch.setattr(nt, "primes_up_to", fail)
    monkeypatch.setattr(ecff, "quadratic_character_table", fail)
    assert certify.L_MAX_CAP == 100
    with pytest.raises(ResourceCapError):
        certify.CertParams(l_max=10**9)
    with pytest.raises(ResourceCapError):
        certify.check_ell(10**9 + 7)
    with pytest.raises(ResourceCapError):
        certify.LevelAccumulator(1, ells=(10**9 + 7,))
    for check in ("serre", "mod-ell", "disc-square"):
        with pytest.raises(ResourceCapError):
            sieve.density_scan([1], check, ell=10**9 + 7)
    assert certify.CertParams(l_max=certify.L_MAX_CAP).l_max == 100


# ---------------------------------------------------------------------------
# the early-stopping stream


CUBIC_FIELD = nf.MonogenicField([1, 1, 0, 1])


def _report(case, prime_bound):
    params = certify.CertParams(prime_bound=prime_bound)
    if case == "cubic":
        E = ecff.validate(CUBIC_FIELD.elem([0, 1296]), CUBIC_FIELD.elem([0, 0, 11664]))
        return certify.certify_maximal(E, CUBIC_FIELD, params).to_json()
    a, b = (Fraction(v) for v in case.split(","))
    return certify.serre_check(ecff.validate(a, b), params).to_json()


@pytest.mark.parametrize("case", ["1,1", "1/4,1/8", "cubic"])
def test_certified_reports_do_not_depend_on_the_prime_bound(case):
    # the stream stops where every level is certified, and each witness is
    # the first cell meeting its condition, so a larger bound changes nothing
    short, full = (_report(case, bound) for bound in (2000, 10**4))
    assert full["final"]["status"] == "certified"
    assert short.pop("params") != full.pop("params")
    assert short == full
    assert 16 <= full["primes_scanned"] <= 64


def test_certified_curve_runs_the_kernel_at_few_primes(monkeypatch):
    kernel, feed, primes, calls, chunks = ecff.batch_curve_data, certify.LevelAccumulator.feed, [], [], []

    def counting(p, A, B):
        primes.extend(np.broadcast_to(p, len(A)).tolist())  # every cell's prime
        calls.append(p)
        return kernel(p, A, B)

    def feeding(self, curves, *cols):
        chunks.append(len(curves))
        return feed(self, curves, *cols)

    monkeypatch.setattr(ecff, "batch_curve_data", counting)
    monkeypatch.setattr(certify.LevelAccumulator, "feed", feeding)
    rep = certify.serre_check(E11, certify.CertParams(prime_bound=10**4))
    assert rep.verdict.is_certified
    assert 0 < len(primes) <= 64
    assert rep.primes_scanned == len(set(primes)) == len(primes)
    # one kernel call per chunk fed: the 32 primes of the certificate are two chunks of 16
    assert rep.primes_scanned == 32 and len(calls) == len(chunks) == 2


def test_primes_scanned_counts_every_prime_of_an_undecided_curve():
    E = ecff.validate(Fraction(-3), Fraction(1))  # square discriminant: m = 4 never certifies
    rep = certify.serre_check(E, PARAMS)
    assert rep.verdict.is_inconclusive
    assert rep.primes_scanned == len(certify.collect_signatures(E, PARAMS)) == rep.to_json()["primes_scanned"]
    assert certify.serre_check(ecff.validate(Fraction(0), Fraction(1)), PARAMS).primes_scanned == 0  # obstructed


def _full_feed(A, B, prime_bound, **tests):
    """Every cell of every curve y^2 = x^3 + A[k] x + B[k], fed at once with no early stop."""
    cells = [
        (good, np.full(good.size, p), *certify.signature_columns(p, a, b))
        for p, _, good, a, b in certify.prime_axis(A, B, prime_bound)
    ]
    acc = certify.LevelAccumulator(len(A), **tests)
    acc.feed(*(np.concatenate(col) for col in zip(*cells)))
    return acc


@pytest.mark.parametrize("x", [10, 20])
def test_box_stream_certifies_what_a_full_feed_certifies(x):
    A, B = sieve.enumerate_box(x)
    tests = certify.serre_level_tests(certify.CertParams(prime_bound=500, l_max=13))
    stream = sieve.scan_levels(A, B, 500, **tests)
    full = _full_feed(A, B, 500, **tests)
    assert stream.cells < full.cells / 2  # decided curves left the stream early
    assert np.array_equal(stream.certified(), full.certified())
    assert full.certified().any() and not full.certified().all()
