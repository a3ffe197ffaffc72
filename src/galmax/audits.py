"""Executable audits of the group-theoretic lemmas behind the certification.

Each audit hunts for counterexamples to one implication:

* coverage: meeting every GL2-conjugacy class of a fixed determinant forces
  the subgroup to contain SL2 (all determinants for prime m, determinant 1
  for composite m);
* reduction: a subgroup of SL2(Z/l^n) surjecting mod l (l >= 5) or mod l^2
  (any l) is the full group;
* goursat: a subgroup of SL2(Z/mn), gcd(m, n) = 1, surjecting onto both
  factors is the full group.

An audit is a check, a function from the sorted code array of a subgroup
(``modgroup``'s one subgroup format) to its nonvacuous tests of the
implication, run by one sweep, ``_sweep``.  Exhaustive modes sweep a
complete subgroup lattice; randomized modes sweep the closures of seeded
sets of generator codes constructed so that the hypothesis of the
implication holds by construction (each trial is a real test, not a vacuous
one), closed in blocks by ``modgroup.closure_block``, whose memory budget
sets the size.  The draws build each generator as a code with ``modgroup``'s
code arithmetic; a report shows its entries (a, b, c, d) as plain ints.
"""
from __future__ import annotations

import itertools
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
    subgroups_tested: int = 0
    nonvacuous_checks: int = 0
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


def _report(lemma: str, mode: str, trials: int, seed: int, details: dict) -> AuditReport:
    """An empty report; trials and seed are recorded for randomized runs only."""
    randomized = mode == "randomized"
    return AuditReport(lemma, mode, trials if randomized else None, seed if randomized else None, details=details)


def _require_trials(trials: int) -> None:
    # with no trials a randomized audit tests nothing and still reports ok
    if trials < 1:
        raise InvalidInputError(f"need trials >= 1, got {trials}")
    if trials > TRIALS_CAP:
        raise ResourceCapError(f"trials {trials} exceeds cap {TRIALS_CAP}")


def _sweep(report: AuditReport, check, m: int, ambient: mg.Ambient, draws=None, stop_above=None) -> AuditReport:
    """Run check on every subgroup of the ambient group mod m (draws None) or
    on the closure of each seeded generator set of draws, and record it.

    check maps a sorted code array to one (implication holds, counterexample
    fields) pair per nonvacuous test it makes.  draws yields (generator codes,
    description) pairs; a lattice subgroup is described by its first eight
    codes.  A failed test is recorded as a counterexample: its fields plus the
    description.  With stop_above set to half the group, a closure that passes
    it is the whole group, for which the implication holds: it counts as one
    nonvacuous check.
    """
    if draws is None:
        table = SmallGroupTable.for_group(m, ambient)
        lattice = (table.codes[mask] for mask in table.subgroup_lattice())
        subgroups = ((codes, codes[:8].tolist()) for codes in lattice)
    else:
        subgroups = _closed_in_blocks(m, draws, stop_above)
    for codes, about in subgroups:
        report.subgroups_tested += 1
        if codes is None:
            report.nonvacuous_checks += 1
            continue
        for holds, fields in check(codes):
            report.nonvacuous_checks += 1
            if not holds:
                report.counterexamples.append({**fields, "subgroup": about})
    return report


def _closed_in_blocks(m: int, draws, stop_above):
    """(closure or None, description) for each draw, closed a block at a time."""
    size = mg.closure_block_size(m, stop_above)
    draws = iter(draws)
    while block := list(itertools.islice(draws, size)):
        gens, abouts = zip(*block)
        yield from zip(mg.closure_block(m, gens, stop_above), abouts)


def _surjects(codes: np.ndarray, modulus: int, level: int) -> bool:
    """Whether the codes mod modulus reduce onto all of SL2(Z/level)."""
    return mg._sorted_unique(mg.reduce_codes(codes, modulus, level)).size == mg.sl2_order(level)


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
    if mode == "exhaustive" and m not in EXHAUSTIVE_COVERAGE_MODULI:
        raise ResourceCapError(f"exhaustive coverage audit supported for m in {EXHAUSTIVE_COVERAGE_MODULI}")
    dets = [d for d in range(1, m) if math.gcd(d, m) == 1] if (nt.is_prime(m) and m >= 5) else [1]
    report = _report("class coverage forces SL2", mode, trials, seed, {"m": m, "dets_tested": dets})
    draws = None if mode == "exhaustive" else _coverage_draws(m, trials, random.Random(seed))
    return _sweep(report, _class_coverage(m, dets), m, "GL2", draws)


def _class_coverage(m: int, dets: list[int]):
    """The check behind the coverage audit: for each d in dets such that the
    codes meet every GL2-conjugacy class of determinant d, whether they
    contain SL2(Z/mZ)."""
    # class_id[d][code]: 1 + index of the det-d class of code, 0 off det d
    class_id = {}
    for d in dets:
        classes = mg.conjugacy_classes(m, "GL2", det_filter=d)
        ids = np.zeros(m**4, dtype=np.int64)
        for k, cl in enumerate(classes, start=1):
            ids[cl] = k
        class_id[d] = (ids, len(classes))
    in_sl2 = np.zeros(m**4, dtype=bool)
    in_sl2[mg.enumerate_group(m, "SL2")] = True
    sl2_order = mg.sl2_order(m)

    def check(codes: np.ndarray) -> list:
        contains_sl2 = np.count_nonzero(in_sl2[codes]) == sl2_order
        return [
            (contains_sl2, {"det": d}) for d, (ids, n) in class_id.items()
            if np.bincount(ids[codes], minlength=n + 1)[1:].all()
        ]

    return check


def _coverage_draws(m: int, trials: int, rng: random.Random):
    """One to three elements of GL2(Z/mZ), half the time all upper triangular."""
    gcodes = mg.enumerate_group(m, "GL2")
    borel = gcodes[mg.decode(gcodes, m)[2] == 0]
    for _ in range(trials):
        pool = borel if rng.random() < 0.5 else gcodes
        gens = [int(pool[rng.randrange(pool.size)]) for _ in range(rng.choice((1, 2, 2, 3)))]
        yield gens, {"generators": gens}


def _matrix_draw(gens: list[int], m: int) -> tuple[list[int], dict]:
    """A drawn generator set as sweep input: codes, and entries for the report."""
    return gens, {"generators": [list(mg.decode(g, m)) for g in gens]}


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
    report = _report(
        "mod-l / mod-l^2 surjectivity lifts to prime powers", mode, trials, seed,
        {"ell": ell, "n": n, "hypothesis_levels": hyp_levels},
    )

    def check(codes: np.ndarray) -> list:
        return [
            (codes.size == full_order, {"hypothesis_level": level, "order": codes.size})
            for level in hyp_levels if _surjects(codes, modulus, level)
        ]

    draws = None if mode == "exhaustive" else _lifting_draws(hyp_levels, modulus, trials, random.Random(seed))
    return _sweep(report, check, modulus, "SL2", draws, stop_above=full_order // 2)


def _lifting_draws(hyp_levels: list[int], modulus: int, trials: int, rng: random.Random):
    """Generator sets surjecting mod a hypothesis level, sometimes with one
    more kernel element."""
    # only levels strictly below the modulus give a nonvacuous hypothesis
    sampling_levels = [L for L in hyp_levels if L < modulus] or hyp_levels
    for _ in range(trials):
        level = sampling_levels[rng.randrange(len(sampling_levels))]
        gens = _lifted_generators(level, modulus, rng)
        if rng.random() < 0.5:
            gens.append(_random_kernel_element(level, modulus, rng))
        yield _matrix_draw(gens, modulus)


def _lifted_generators(level: int, modulus: int, rng: random.Random) -> list[int]:
    """Lifts of the standard generators of SL2(Z/level), each multiplied by a
    random determinant-1 element of the kernel of reduction to that level, so
    the closure surjects mod level by construction."""
    gens = []
    for g in mg.sl2_generators(level):
        lift = _fix_det(mg.encode(*mg.decode(g, level), modulus), modulus)
        gens.append(mg.mul_codes(lift, _random_kernel_element(level, modulus, rng), modulus))
    return gens


def _random_kernel_element(level: int, modulus: int, rng: random.Random) -> int:
    while True:
        e = [rng.randrange(modulus // level) for _ in range(4)]
        M = mg.encode(1 + level * e[0], level * e[1], level * e[2], 1 + level * e[3], modulus)
        if math.gcd(mg.det_of_codes(M, modulus), modulus) == 1:
            return _fix_det(M, modulus)


def _fix_det(M: int, modulus: int) -> int:
    """Scale the first row so the determinant becomes exactly 1.

    The determinant of a lift is 1 + (level)*u, whose inverse is also
    1 mod level, so the scaled matrix reduces to the same thing."""
    s = pow(mg.det_of_codes(M, modulus), -1, modulus)
    return mg.mul_codes(mg.encode(s, 0, 0, 1, modulus), M, modulus)


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
    report = _report("coprime factor surjectivity forces the product", mode, trials, seed, {"m": m, "n": n})

    def check(codes: np.ndarray) -> list:
        if not (_surjects(codes, modulus, m) and _surjects(codes, modulus, n)):
            return []
        return [(codes.size == full_order, {"order": codes.size})]

    draws = None if mode == "exhaustive" else _crt_draws(m, n, trials, random.Random(seed))
    return _sweep(report, check, modulus, "SL2", draws, stop_above=full_order // 2)


def _crt_draws(m: int, n: int, trials: int, rng: random.Random):
    """Generator sets surjecting onto both factors: standard generators on one
    side are paired with random elements on the other, both ways."""
    pools = {k: mg.enumerate_group(k, "SL2") for k in (m, n) if k > 1}
    inv = pow(m, -1, n)

    def combine(gm: int, gn: int) -> int:
        # the CRT lift of each entry pair
        return mg.encode(*(x + m * ((y - x) * inv % n) for x, y in zip(mg.decode(gm, m), mg.decode(gn, n))), m * n)

    def rand_mat(level: int) -> int:
        pool = pools.get(level)
        return mg.identity(level) if pool is None else int(pool[rng.randrange(pool.size)])

    for _ in range(trials):
        yield _matrix_draw([combine(g, rand_mat(n)) for g in mg.sl2_generators(m)]
                           + [combine(rand_mat(m), g) for g in mg.sl2_generators(n)], m * n)

