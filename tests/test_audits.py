import random
import subprocess
import sys

import pytest

from galmax import audits, modgroup as mg
from galmax.errors import InvalidInputError, ResourceCapError
from galmax.subgroups import SmallGroupTable
from test_verdict import assert_json_values


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
    sylow = mg.closure_codes(3, [mg.mat(3, 0, 1, 1, 1), mg.mat(3, 0, 1, 2, 0)])
    assert sylow.size == 16
    members = set(sylow.tolist())
    for c in classes:
        assert not members.isdisjoint(c.tolist())
    assert not set(mg.enumerate_group(3, "SL2").tolist()) <= members


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


def test_cli_import_builds_no_tables():
    # importing the CLI builds no signature table, group, conjugation table
    # or level, and sieves only the trial primes of nt.factorint: that work
    # belongs to the first call that needs it
    code = (
        "import galmax.cli\n"
        "from galmax import certify, modgroup, nt, subgroups\n"
        "caches = [subgroups.subgroup_signature_table, modgroup.enumerate_group,\n"
        "          modgroup._conjugation_tables, certify._level]\n"
        "print(*(f.cache_info().currsize for f in caches), nt.primes_up_to.cache_info().currsize)\n"
        "nt.primes_up_to(1 << 10)\n"
        "print(nt.primes_up_to.cache_info().hits)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0", "0", "0", "0", "1", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--curve", "1,1"],
        ["certify", "--curve", "[0,1296],[0,0,11664]", "--field", "f=[1,1,0,1]"],
        ["serre-scan", "--x", "10"],
    ],
)
def test_cli_runs_leave_sympy_unloaded(argv):
    # the README promise: certify over Q and over fields of degree up to 4,
    # and box scans, never load sympy
    code = (
        "import contextlib, io, sys\n"
        "from galmax import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(sys.argv[1:])\n"
        "print(status, 'sympy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0", "False"]


# ---------------------------------------------------------------------------
# the array coverage test against the set-based check it replaced


def set_based_coverage(m, dets, subgroups):
    """(subgroups tested, nonvacuous checks, counterexamples) of the coverage
    check done on Python sets; subgroups yields (codes, description) pairs."""
    class_sets = {d: [frozenset(c.tolist()) for c in mg.conjugacy_classes(m, "GL2", det_filter=d)] for d in dets}
    sl2 = set(mg.enumerate_group(m, "SL2").tolist())
    tested, nonvacuous, counterexamples = 0, 0, []
    for codes, description in subgroups:
        members = set(int(c) for c in codes)
        tested += 1
        for d in dets:
            if all(not members.isdisjoint(cl) for cl in class_sets[d]):
                nonvacuous += 1
                if not sl2 <= members:
                    counterexamples.append({"det": d, "subgroup": description})
    return tested, nonvacuous, counterexamples


def lattice_subgroups(m):
    table = SmallGroupTable.for_group(m, "GL2")
    for mask in table.subgroup_lattice():
        codes = table.codes[mask]
        yield codes, [int(x) for x in codes[:8]]


def audit_counts(r):
    return r.subgroups_tested, r.nonvacuous_checks, r.counterexamples


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_coverage_matches_set_based_check_on_lattices(m):
    r = audits.coverage_implies_sl2_audit(m)
    assert audit_counts(r) == set_based_coverage(m, r.details["dets_tested"], lattice_subgroups(m))


def test_coverage_matches_set_based_check_randomized_m9():
    m, trials, seed = 9, 300, 1
    r = audits.coverage_implies_sl2_audit(m, trials=trials, seed=seed)
    assert r.mode == "randomized"

    def sampled():  # the audit's seeded draw
        rng = random.Random(seed)
        gcodes = mg.enumerate_group(m, "GL2")
        borel = gcodes[mg.decode(gcodes, m)[2] == 0]
        for _ in range(trials):
            pool = borel if rng.random() < 0.5 else gcodes
            gens = [int(pool[rng.randrange(pool.size)]) for _ in range(rng.choice((1, 2, 2, 3)))]
            yield mg.closure_codes(m, gens), {"generators": gens}

    assert audit_counts(r) == set_based_coverage(m, r.details["dets_tested"], sampled())


def test_coverage_test_matches_set_based_check_at_the_ell3_boundary():
    # with d = 2 added at m = 3 the implication fails: the sweep must record
    # the counterexamples of the set-based check, in lattice order, the
    # Sylow 2-subgroups among them
    report = audits._report("class coverage forces SL2", "exhaustive", 1, 0, {"m": 3, "dets_tested": [1, 2]})
    assert audits._sweep(report, audits._class_coverage(3, [1, 2]), 3, "GL2") is report
    want = set_based_coverage(3, [1, 2], lattice_subgroups(3))
    assert audit_counts(report) == want
    counterexamples = report.counterexamples
    assert counterexamples and all(list(c) == ["det", "subgroup"] and c["det"] == 2 for c in counterexamples)
    sylow = mg.closure_codes(3, [mg.mat(3, 0, 1, 1, 1), mg.mat(3, 0, 1, 2, 0)])
    assert {"det": 2, "subgroup": sylow[:8].tolist()} in counterexamples
    assert not report.ok and report.to_json()["counterexamples"] == counterexamples


def test_audits_cap_trials_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the trials cap was checked")

    monkeypatch.setattr(mg, "conjugacy_classes", no_work)
    monkeypatch.setattr(mg, "enumerate_group", no_work)
    monkeypatch.setattr(mg, "closure_codes", no_work)
    monkeypatch.setattr(mg, "closure_block", no_work)
    too_many = audits.TRIALS_CAP + 1
    with pytest.raises(ResourceCapError):
        audits.coverage_implies_sl2_audit(16, trials=too_many)
    with pytest.raises(ResourceCapError):
        audits.reduction_lemma_audit(2, 4, trials=too_many)
    with pytest.raises(ResourceCapError):
        audits.goursat_audit(4, 3, trials=too_many)


@pytest.mark.parametrize("audit,modulus,stop_above", [
    (lambda trials: audits.coverage_implies_sl2_audit(8, trials=trials, seed=3), 8, None),
    (lambda trials: audits.reduction_lemma_audit(2, 4, mode="randomized", trials=trials, seed=3), 16, 1536),
    (lambda trials: audits.goursat_audit(4, 3, mode="randomized", trials=trials, seed=3), 12, 576),
], ids=["coverage", "reduction", "goursat"])
def test_sweep_in_blocks_matches_one_closure_at_a_time(audit, modulus, stop_above, monkeypatch):
    size = mg.closure_block_size(modulus, stop_above)
    assert size > 1
    for trials in (1, size, size + 1):
        blocked = audit(trials).to_json()
        with monkeypatch.context() as patch:
            patch.setattr(mg, "closure_block_size", lambda m, stop_above=None: 1)
            alone = audit(trials).to_json()
        assert blocked == alone and blocked["subgroups_tested"] == trials


# ---------------------------------------------------------------------------
# the seeded draws, pinned: generator codes and report descriptions for seed 0

COVERAGE_DRAWS_16 = [
    [4701, 23113, 45795], [64001, 47883], [45362, 13223], [36867], [28530, 9044],
]
LIFTING_DRAWS_16 = [
    ([56717, 38993], [[13, 13, 8, 13], [9, 8, 5, 1]]),
    ([22849, 5269], [[5, 9, 4, 1], [1, 4, 9, 5]]),
    ([56717, 21521], [[13, 13, 8, 13], [5, 4, 1, 1]]),
    ([23821, 56401], [[5, 13, 0, 13], [13, 12, 5, 1]]),
    ([6469, 37017], [[1, 9, 4, 5], [9, 0, 9, 9]]),
    ([39297, 21713, 38985], [[9, 9, 8, 1], [5, 4, 13, 1], [9, 8, 4, 9]]),
]
CRT_DRAWS_4_3 = [
    ([2449, 2901, 7102, 2641], [[1, 5, 0, 1], [1, 8, 1, 9], [4, 1, 3, 10], [1, 6, 4, 1]]),
    ([9989, 8753, 17539, 2683], [[5, 9, 4, 5], [5, 0, 9, 5], [10, 1, 9, 7], [1, 6, 7, 7]]),
    ([9941, 2373, 12358, 3046], [[5, 9, 0, 5], [1, 4, 5, 9], [7, 1, 9, 10], [1, 9, 1, 10]]),
    ([9989, 16717, 3241, 1777], [[5, 9, 4, 5], [9, 8, 1, 1], [1, 10, 6, 1], [1, 0, 4, 1]]),
    ([16329, 9229, 3169, 12223], [[9, 5, 4, 9], [5, 4, 1, 1], [1, 10, 0, 1], [7, 0, 10, 7]]),
]


def test_seeded_draws_are_pinned():
    coverage = list(audits._coverage_draws(16, len(COVERAGE_DRAWS_16), random.Random(0)))
    assert coverage == [(gens, {"generators": gens}) for gens in COVERAGE_DRAWS_16]
    lifting = list(audits._lifting_draws([4], 16, len(LIFTING_DRAWS_16), random.Random(0)))
    assert lifting == [(gens, {"generators": entries}) for gens, entries in LIFTING_DRAWS_16]
    crt = list(audits._crt_draws(4, 3, len(CRT_DRAWS_4_3), random.Random(0)))
    assert crt == [(gens, {"generators": entries}) for gens, entries in CRT_DRAWS_4_3]
    for draws in (coverage, lifting, crt):
        assert_json_values([list(d) for d in draws])


@pytest.mark.parametrize("modulus,draws", [
    (16, lambda: audits._coverage_draws(16, 5, random.Random(0))),
    (16, lambda: audits._lifting_draws([4], 16, 5, random.Random(0))),
    (12, lambda: audits._crt_draws(4, 3, 5, random.Random(0))),
], ids=["coverage", "reduction", "goursat"])
def test_failed_randomized_checks_report_json_values(modulus, draws):
    # a check that always fails records every draw as a counterexample
    report = audits._report("always fails", "randomized", 5, 0, {})
    audits._sweep(report, lambda codes: [(False, {"order": codes.size})], modulus, "SL2", draws())
    assert len(report.counterexamples) == 5 and not report.ok
    assert_json_values(report.to_json())
