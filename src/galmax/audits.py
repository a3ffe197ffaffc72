"""Executable audits of the group-theoretic lemmas behind the certification.

Each audit hunts for counterexamples to one implication:

* coverage: meeting every GL2-conjugacy class of a fixed determinant forces
  the subgroup to contain SL2 (all determinants for prime m, determinant 1
  for composite m);
* reduction: a subgroup of SL2(Z/l^n) surjecting mod l (l >= 5) or mod l^2
  (any l) is the full group;
* goursat: a subgroup of SL2(Z/mn), gcd(m, n) = 1, surjecting onto both
  factors is the full group.

Exhaustive modes sweep a complete subgroup lattice; randomized modes sample
seeded generator sets constructed so that the hypothesis of the implication
holds by construction (each trial is a real test, not a vacuous one).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import modgroup as mg
from . import nt
from .errors import InvalidInputError, ResourceCapError
from .subgroups import LATTICE_ORDER_CAP, SmallGroupTable

EXHAUSTIVE_COVERAGE_MODULI = (2, 3, 4, 5)
TRIALS_CAP = 10**6


@dataclass
class AuditReport:
    lemma: str
    mode: str
    trials: int | None
    seed: int | None
    subgroups_tested: int
    nonvacuous_checks: int
    counterexamples: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "mode": self.mode,
            "trials": self.trials,
            "seed": self.seed,
            "subgroups_tested": self.subgroups_tested,
            "nonvacuous_checks": self.nonvacuous_checks,
            "counterexamples": self.counterexamples,
            "details": self.details,
        }


def _require_trials(trials: int) -> None:
    # with no trials a randomized audit tests nothing and still reports ok
    if trials < 1:
        raise InvalidInputError(f"need trials >= 1, got {trials}")
    if trials > TRIALS_CAP:
        raise ResourceCapError(f"trials {trials} exceeds cap {TRIALS_CAP}")


# ---------------------------------------------------------------------------
# coverage audit


def coverage_implies_sl2_audit(m: int, trials: int = 1000, seed: int = 0, mode: str | None = None) -> AuditReport:
    """det-d class coverage implies containment of SL2(Z/mZ).

    Tested determinants: every unit d for primes m >= 5, and d = 1 otherwise.
    The implication genuinely fails for (m, d) = (3, 2): the Sylow 2-subgroup
    of GL2(F_3), of order 16, meets all three determinant-2 classes without
    containing SL2(F_3).  See tests for that boundary case.
    """
    if m < 2:
        raise InvalidInputError(f"coverage audit needs a modulus m >= 2, got {m}")
    _require_trials(trials)
    if m > mg.GL2_MODULUS_CAP:
        raise ResourceCapError(f"modulus {m} exceeds GL2 materialization cap {mg.GL2_MODULUS_CAP}")
    if mode is None:
        mode = "exhaustive" if m in EXHAUSTIVE_COVERAGE_MODULI else "randomized"
    dets = [d for d in range(1, m) if math.gcd(d, m) == 1] if (nt.is_prime(m) and m >= 5) else [1]
    covered = _class_coverage(m, dets)
    report = AuditReport(
        lemma="class coverage forces SL2",
        mode=mode,
        trials=trials if mode == "randomized" else None,
        seed=seed if mode == "randomized" else None,
        subgroups_tested=0,
        nonvacuous_checks=0,
        details={"m": m, "dets_tested": dets},
    )

    def check(codes: np.ndarray, describe) -> None:
        report.subgroups_tested += 1
        for d, contains_sl2 in covered(codes):
            report.nonvacuous_checks += 1
            if not contains_sl2:
                report.counterexamples.append({"det": d, "subgroup": describe()})

    if mode == "exhaustive":
        if m not in EXHAUSTIVE_COVERAGE_MODULI:
            raise ResourceCapError(f"exhaustive coverage audit supported for m in {EXHAUSTIVE_COVERAGE_MODULI}")
        table = SmallGroupTable.for_group(m, "GL2")
        for mask in table.subgroup_lattice():
            codes = table.mask_to_codes(mask)
            check(codes, lambda c=codes: [int(x) for x in c[:8]])
    else:
        rng = random.Random(seed)
        G = mg.enumerate_group(m, "GL2")
        gcodes = G.code_array()
        borel = gcodes[mg.decode(gcodes, m)[2] == 0]
        for _ in range(trials):
            pool = borel if rng.random() < 0.5 else gcodes
            gens = [int(pool[rng.randrange(pool.size)]) for _ in range(rng.choice((1, 2, 2, 3)))]
            codes = mg.closure_codes(m, gens)
            check(codes, lambda g=gens: {"generators": g})
    return report


def _class_coverage(m: int, dets: list[int]):
    """The test behind the coverage audit, as a function of an array of
    distinct codes: the pairs (d, whether the codes contain SL2(Z/mZ)) for
    each d in dets such that the codes meet every GL2-conjugacy class of
    determinant d."""
    # class_id[d][code]: 1 + index of the det-d class of code, 0 off det d
    class_id = {}
    for d in dets:
        classes = mg.conjugacy_classes(m, "GL2", det_filter=d)
        ids = np.zeros(m**4, dtype=np.int64)
        for k, cl in enumerate(classes, start=1):
            ids[list(cl.member_codes)] = k
        class_id[d] = (ids, len(classes))
    in_sl2 = np.zeros(m**4, dtype=bool)
    in_sl2[mg.enumerate_group(m, "SL2").code_array()] = True
    sl2_order = mg.sl2_order(m)

    def covered(codes: np.ndarray) -> list[tuple[int, bool]]:
        contains_sl2 = np.count_nonzero(in_sl2[codes]) == sl2_order
        return [
            (d, contains_sl2) for d, (ids, n) in class_id.items()
            if np.bincount(ids[codes], minlength=n + 1)[1:].all()
        ]

    return covered


# ---------------------------------------------------------------------------
# reduction audit


def reduction_lemma_audit(
    ell: int, n: int, mode: str | None = None, trials: int = 1000, seed: int = 0
) -> AuditReport:
    """Surjectivity mod l (l >= 5) or mod l^2 lifts to all of SL2(Z/l^n)."""
    if not nt.is_prime(ell) or n < 1:
        raise InvalidInputError("need a prime ell and level n >= 1")
    _require_trials(trials)
    modulus = ell**n
    if modulus > mg.SL2_MODULUS_CAP:
        raise ResourceCapError(f"l^n = {modulus} exceeds materialization cap {mg.SL2_MODULUS_CAP}")
    full_order = mg.sl2_order(modulus)
    hyp_levels = ([ell] if ell >= 5 else []) + ([ell * ell] if n >= 2 else [])
    if not hyp_levels:
        raise InvalidInputError(f"no lemma applies to (ell, n) = ({ell}, {n})")
    if mode is None:
        mode = "exhaustive" if full_order <= LATTICE_ORDER_CAP and ell in (2, 3) else "randomized"
    report = AuditReport(
        lemma="mod-l / mod-l^2 surjectivity lifts to prime powers",
        mode=mode,
        trials=trials if mode == "randomized" else None,
        seed=seed if mode == "randomized" else None,
        subgroups_tested=0,
        nonvacuous_checks=0,
        details={"ell": ell, "n": n, "hypothesis_levels": hyp_levels},
    )

    def check(codes: np.ndarray, describe) -> None:
        report.subgroups_tested += 1
        for level in hyp_levels:
            image = mg._sorted_unique(mg.reduce_codes(codes, modulus, level))
            if image.size != mg.sl2_order(level):
                continue
            report.nonvacuous_checks += 1
            if codes.size != full_order:
                report.counterexamples.append(
                    {"hypothesis_level": level, "order": int(codes.size), "subgroup": describe()}
                )

    if mode == "exhaustive":
        table = SmallGroupTable.for_group(modulus, "SL2")
        for mask in table.subgroup_lattice():
            codes = table.mask_to_codes(mask)
            check(codes, lambda c=codes: [int(x) for x in c[:8]])
    else:
        rng = random.Random(seed)
        # only levels strictly below the modulus give a nonvacuous hypothesis
        sampling_levels = [L for L in hyp_levels if L < modulus] or hyp_levels
        for _ in range(trials):
            level = sampling_levels[rng.randrange(len(sampling_levels))]
            gens = _lifted_generators(level, modulus, rng)
            if rng.random() < 0.5:
                gens.append(_random_kernel_element(level, modulus, rng))
            codes = mg.closure_codes(modulus, [g.code() for g in gens], stop_above=full_order // 2)
            if codes is None:
                # early exit: more than half the group seen, hence the full group
                report.subgroups_tested += 1
                report.nonvacuous_checks += 1
                continue
            check(codes, lambda g=gens: {"generators": [list(x[1:]) for x in g]})
    return report


def _lifted_generators(level: int, modulus: int, rng: random.Random) -> list[mg.MatModM]:
    """Lifts of the standard generators of SL2(Z/level), each multiplied by a
    random determinant-1 element of the kernel of reduction to that level, so
    the closure surjects mod level by construction."""
    gens = []
    for g in mg.sl2_generators(level):
        lift = _fix_det(mg.MatModM(modulus, g.a, g.b, g.c, g.d), modulus)
        gens.append(lift.mul(_random_kernel_element(level, modulus, rng)))
    return gens


def _random_kernel_element(level: int, modulus: int, rng: random.Random) -> mg.MatModM:
    while True:
        entries = [rng.randrange(modulus // level) for _ in range(4)]
        M = mg.MatModM(
            modulus,
            (1 + level * entries[0]) % modulus,
            (level * entries[1]) % modulus,
            (level * entries[2]) % modulus,
            (1 + level * entries[3]) % modulus,
        )
        if math.gcd(M.det, modulus) == 1:
            return _fix_det(M, modulus)


def _fix_det(M: mg.MatModM, modulus: int) -> mg.MatModM:
    """Scale the first row so the determinant becomes exactly 1.

    The determinant of a lift is 1 + (level)*u, whose inverse is also
    1 mod level, so the scaled matrix reduces to the same thing."""
    d = M.det
    if d == 1:
        return M
    s = pow(d, -1, modulus)
    return mg.MatModM(modulus, (M.a * s) % modulus, (M.b * s) % modulus, M.c, M.d)


# ---------------------------------------------------------------------------
# goursat audit


def goursat_audit(m: int, n: int, mode: str | None = None, trials: int = 1000, seed: int = 0) -> AuditReport:
    """Surjecting onto both coprime factors forces all of SL2(Z/mnZ)."""
    if m < 1 or n < 1 or math.gcd(m, n) != 1:
        raise InvalidInputError("need coprime positive m, n")
    _require_trials(trials)
    modulus = m * n
    if modulus > mg.SL2_MODULUS_CAP:
        raise ResourceCapError(f"mn = {modulus} exceeds materialization cap")
    full_order = mg.sl2_order(modulus)
    if mode is None:
        mode = "exhaustive" if full_order <= 400 else "randomized"
    report = AuditReport(
        lemma="coprime factor surjectivity forces the product",
        mode=mode,
        trials=trials if mode == "randomized" else None,
        seed=seed if mode == "randomized" else None,
        subgroups_tested=0,
        nonvacuous_checks=0,
        details={"m": m, "n": n},
    )

    def check(codes: np.ndarray, describe) -> None:
        report.subgroups_tested += 1
        for level in (m, n):
            if level > 1 and mg._sorted_unique(mg.reduce_codes(codes, modulus, level)).size != mg.sl2_order(level):
                return
        report.nonvacuous_checks += 1
        if codes.size != full_order:
            report.counterexamples.append({"order": int(codes.size), "subgroup": describe()})

    if mode == "exhaustive":
        table = SmallGroupTable.for_group(modulus, "SL2")
        for mask in table.subgroup_lattice():
            codes = table.mask_to_codes(mask)
            check(codes, lambda c=codes: [int(x) for x in c[:8]])
    else:
        rng = random.Random(seed)
        full_m = mg.enumerate_group(m, "SL2").code_array() if m > 1 else None
        full_n = mg.enumerate_group(n, "SL2").code_array() if n > 1 else None
        for _ in range(trials):
            gens = _crt_generators(m, n, rng, full_m, full_n)
            codes = mg.closure_codes(modulus, [g.code() for g in gens], stop_above=full_order // 2)
            if codes is None:
                report.subgroups_tested += 1
                report.nonvacuous_checks += 1
                continue
            check(codes, lambda g=gens: {"generators": [list(x[1:]) for x in g]})
    return report


def _crt_generators(m: int, n: int, rng: random.Random, full_m, full_n) -> list[mg.MatModM]:
    """Generators surjecting onto both factors: standard generators on one
    side are paired with random elements on the other, both ways."""
    modulus = m * n
    gens: list[mg.MatModM] = []

    def combine(gm: mg.MatModM, gn: mg.MatModM) -> mg.MatModM:
        entries = []
        for i in range(1, 5):
            entries.append(_crt2(gm[i], m, gn[i], n))
        return mg.MatModM(modulus, *entries)

    def rand_mat(level: int, pool) -> mg.MatModM:
        if pool is None:
            return mg.identity(level)
        return mg.mat_from_code(int(pool[rng.randrange(pool.size)]), level)

    for g in mg.sl2_generators(m):
        gens.append(combine(g, rand_mat(n, full_n)))
    for g in mg.sl2_generators(n):
        gens.append(combine(rand_mat(m, full_m), g))
    return gens


def _crt2(am: int, m: int, an: int, n: int) -> int:
    if m == 1:
        return an % n
    if n == 1:
        return am % m
    inv = pow(m, -1, n)
    return (am + m * ((an - am) * inv % n)) % (m * n)

