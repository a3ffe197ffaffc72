import subprocess
import sys

import pytest

from galmax import audits, modgroup as mg
from galmax.errors import InvalidInputError, ResourceCapError


@pytest.mark.parametrize("m,tested", [(2, 6), (3, 55), (4, 234), (5, 466)])
def test_coverage_exhaustive_zero_counterexamples(m, tested):
    r = audits.coverage_implies_sl2_audit(m)
    assert r.mode == "exhaustive"
    assert r.subgroups_tested == tested
    assert r.ok
    assert r.nonvacuous_checks >= 1


def test_coverage_randomized_m4_m9():
    for m in (4, 9):
        r = audits.coverage_implies_sl2_audit(m, trials=300, seed=1, mode="randomized")
        assert r.ok
        assert r.subgroups_tested == 300
        assert r.trials == 300 and r.seed == 1


def test_coverage_cap_is_checked_before_any_work():
    with pytest.raises(ResourceCapError):
        audits.coverage_implies_sl2_audit(2**61 - 1)


@pytest.mark.parametrize("trials", [0, -5])
def test_audits_reject_nonpositive_trials(trials):
    with pytest.raises(InvalidInputError):
        audits.coverage_implies_sl2_audit(16, trials=trials)
    with pytest.raises(InvalidInputError):
        audits.reduction_lemma_audit(2, 4, trials=trials)
    with pytest.raises(InvalidInputError):
        audits.goursat_audit(4, 3, trials=trials)


def test_coverage_boundary_ell3_nonsquare_det():
    """The coverage implication genuinely fails at (ell, d) = (3, 2): the
    Sylow 2-subgroup of GL2(F_3) meets all three determinant-2 classes but
    does not contain SL2(F_3).  This pins why the audit restricts the tested
    determinants to 1 for ell = 3."""
    classes = mg.conjugacy_classes(3, "GL2", det_filter=2)
    assert len(classes) == 3
    # a Sylow 2-subgroup of GL2(F_3), order 16 (semidihedral)
    sylow = mg.closure(3, [(0, 1, 1, 1), (0, 1, 2, 0)])
    assert sylow.order == 16
    members = set(sylow.codes)
    for c in classes:
        assert not members.isdisjoint(c.member_codes)
    assert not set(mg.enumerate_group(3, "SL2").codes) <= members


def test_coverage_report_serializes():
    r = audits.coverage_implies_sl2_audit(2)
    js = r.to_json()
    assert {"lemma", "mode", "trials", "seed", "counterexamples"} <= set(js)


def test_reduction_exhaustive_sl2_mod8():
    r = audits.reduction_lemma_audit(2, 3)
    assert r.mode == "exhaustive"
    assert r.ok
    # only the full group surjects mod 4, which is the content of the lemma
    assert r.nonvacuous_checks == 1
    assert r.subgroups_tested == 673


def test_reduction_exhaustive_sl2_mod9():
    r = audits.reduction_lemma_audit(3, 2)
    assert r.ok and r.mode == "exhaustive"


def test_reduction_randomized():
    r = audits.reduction_lemma_audit(3, 3, mode="randomized", trials=200, seed=7)
    assert r.ok and r.nonvacuous_checks == 200
    r = audits.reduction_lemma_audit(5, 2, mode="randomized", trials=200, seed=8)
    assert r.ok and r.nonvacuous_checks == 200


def test_reduction_full_group_passes_trivially():
    r = audits.reduction_lemma_audit(2, 2)
    assert r.ok


def test_reduction_input_validation():
    with pytest.raises(InvalidInputError):
        audits.reduction_lemma_audit(4, 2)
    with pytest.raises(ResourceCapError):
        audits.reduction_lemma_audit(2, 6)
    with pytest.raises(InvalidInputError):
        audits.reduction_lemma_audit(3, 1)  # no applicable lemma below level 9


def test_goursat_exhaustive_2_3():
    r = audits.goursat_audit(2, 3)
    assert r.mode == "exhaustive"
    assert r.ok
    assert r.subgroups_tested == 152
    assert r.nonvacuous_checks == 1


def test_goursat_vacuous_with_unit_factor():
    r = audits.goursat_audit(1, 5)
    assert r.ok


def test_goursat_randomized_4_3():
    r = audits.goursat_audit(4, 3, trials=200, seed=5)
    assert r.mode == "randomized"
    assert r.ok and r.nonvacuous_checks == 200


def test_goursat_rejects_non_coprime():
    with pytest.raises(InvalidInputError):
        audits.goursat_audit(2, 4)


def test_randomized_audits_are_reproducible():
    a = audits.reduction_lemma_audit(5, 2, mode="randomized", trials=50, seed=42)
    b = audits.reduction_lemma_audit(5, 2, mode="randomized", trials=50, seed=42)
    assert a.to_json() == b.to_json()


def test_audits_import_leaves_sympy_unloaded():
    # the group audits never factor, so their import must not pay for sympy
    code = "import sys, galmax.audits; print('sympy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
