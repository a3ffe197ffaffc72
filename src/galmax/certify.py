"""Frobenius sampling and sound certification of large torsion Galois images.

Everything here turns lists of Frobenius signatures (trace, norm, torsion
splitting data at good primes) into one-sided verdicts:

* ``certify_mod_ell`` certifies image >= SL2(F_l) for primes l >= 5 from
  characteristic-polynomial conditions that rule out the Borel, the two
  Cartan normalizers, and the exceptional projective images.
* ``certify_mod_small`` certifies image >= SL2(Z/mZ) for m = 4, 9 by
  eliminating every proper full-determinant subgroup against enriched
  signatures (trace, determinant, torsion splitting pattern).
* ``serre_check`` combines those with the quadratic entanglement conditions
  at the 2-power levels to certify the Serre-curve criterion over Q.

A subtlety the level-72 step depends on: containment of SL2 at levels 8 and
9 in the separate projections does not by itself give SL2(Z/72Z) in the
joint image; the obstructions are exactly couplings of the 2-torsion
permutation sign with a quadratic Dirichlet character of conductor dividing
72 (the seven quadratic subfields of Q(mu_72)).  With the determinant image
full and each such coupling refuted by an explicit prime, fullness at 72
follows: any failure of kernel-determinant coverage factors through a
character of the projection, the only order-2 character of SL2(Z/8)^ab
= Z/4 is the mod-2 permutation sign, and SL2(Z/9)^ab = Z/3 admits no
order-2 or order-4 quotient at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from . import ecff, nt, numfield
from .errors import InvalidInputError, ResourceCapError
from .subgroups import subgroup_signature_table
from .verdict import Verdict, certified, inconclusive, obstruction

# the quadratic subfields of Q(mu_72), by fundamental discriminant
ENTANGLEMENT_DISCRIMINANTS = (-3, -4, 8, -8, 12, 24, -24)

_EPS_BY_PATTERN = {(1, 1, 1): 1, (2, 1): -1, (3,): 1}

# nt.primes_up_to allocates one byte per integer up to the bound, and the
# int64 products of the per-prime kernel and of psi3_splits_over_fp2 stay
# exact only while p^3 < 2^63
PRIME_BOUND_CAP = 10**6

CUBIC_PATTERN_BY_ROOTS = {0: (3,), 1: (2, 1), 3: (1, 1, 1)}
PSI3_PATTERN_BY_ROOTS = {1: (3, 1), 2: (2, 1, 1), 4: (1, 1, 1, 1)}


@dataclass(frozen=True)
class CertParams:
    """Knobs for signature collection and certification."""

    prime_bound: int = 10**4
    l_max: int = 37
    seed: int = 0

    def __post_init__(self):
        if self.prime_bound < 30:
            raise InvalidInputError("prime_bound must be >= 30")
        if self.prime_bound > PRIME_BOUND_CAP:
            raise ResourceCapError(f"prime_bound {self.prime_bound} exceeds cap {PRIME_BOUND_CAP}")
        if self.l_max < 5:
            raise InvalidInputError("l_max must be >= 5")


@dataclass(frozen=True)
class FrobSignature:
    """Computable shadow of a Frobenius class at a good degree-one prime."""

    norm: int
    ap: int
    p: int
    root: int | None = None  # root of the field polynomial for primes over k
    cubic_pattern: tuple | None = None
    psi3_pattern: tuple | None = None
    has_3pt: bool | None = None

    def __post_init__(self):
        if self.ap * self.ap > 4 * self.norm:
            raise InvalidInputError(f"trace {self.ap} violates the Hasse bound at {self.norm}")

    def residues(self, m: int) -> tuple[int, int]:
        return self.ap % m, self.norm % m

    def to_json(self):
        return {
            "p": self.p,
            "root": self.root,
            "ap": self.ap,
            "cubic": self.cubic_pattern,
            "psi3": self.psi3_pattern,
            "has_3pt": self.has_3pt,
        }


def integer_model(a, b) -> tuple[int, int]:
    """Rescale (a, b) -> (u^4 a, u^6 b) to integers; same curve over Q."""
    a, b = Fraction(a), Fraction(b)
    u = math.lcm(a.denominator, b.denominator)
    A = a * u**4
    B = b * u**6
    return int(A), int(B)


def collect_signatures(
    curve: ecff.ShortWeierstrass,
    params: CertParams = CertParams(),
    K: numfield.MonogenicField | None = None,
) -> list[FrobSignature]:
    """Signatures at every good (degree-one) prime up to the bound.

    Over Q all good rational primes are used; over a monogenic field, the
    degree-one primes of the defining order.  Bad primes are skipped.
    """
    if curve.is_rational:
        return _collect_rational(curve, params)
    if K is None:
        K = curve.a.field
    return _collect_over_field(curve, K, params)


def _collect_rational(curve, params) -> list[FrobSignature]:
    A, B = integer_model(curve.a, curve.b)
    delta = ecff.discriminant(A, B)
    out = []
    for p in nt.primes_up_to(params.prime_bound):
        if p < 5 or delta % p == 0:
            continue
        out += signatures_at(p, [A % p], [B % p])
    return out


def _collect_over_field(curve, K, params) -> list[FrobSignature]:
    a, b = curve.a, curve.b
    delta = curve.delta
    d_int = numfield._integerize_power_class(delta, 1)
    norm = int(d_int.norm())
    den = math.lcm(a.denominator_lcm(), b.denominator_lcm())
    bad = 6 * abs(K.disc_f) * abs(norm) * den
    out = []
    for P in numfield.degree_one_primes(K, params.prime_bound):
        if P.p < 5 or bad % P.p == 0:
            continue
        ap_ = numfield.reduce_elem(a, P)
        bp_ = numfield.reduce_elem(b, P)
        out += signatures_at(P.p, [ap_], [bp_], roots=[P.c])
    return out


def signatures_at(p: int, A, B, roots=None) -> list[FrobSignature]:
    """Signatures of the curves y^2 = x^3 + A[k] x + B[k] at a prime p >= 5
    where all of them have good reduction, from one batch_curve_data run.

    A and B are reduced mod p (int64 arrays or lists of ints); roots[k] is
    the root of the field polynomial for a prime over k, None over Q.  A
    rootless psi3 factors as (2,2) or (4) by psi3_splits_over_fp2.
    """
    ap, cubic_roots, psi3_roots, has_3pt = ecff.batch_curve_data(p, A, B)
    psi3 = [PSI3_PATTERN_BY_ROOTS.get(r) for r in psi3_roots.tolist()]
    rootless = [k for k, pattern in enumerate(psi3) if pattern is None]
    if rootless:
        a = np.asarray(A, dtype=np.int64)[rootless]
        b = np.asarray(B, dtype=np.int64)[rootless]
        if len(rootless) == 1:  # Python ints: nt.poly_mulmod is far slower on one-element arrays
            a, b = int(a[0]), int(b[0])
        splits = np.atleast_1d(ecff.psi3_splits_over_fp2(p, a, b)).tolist()
        for k, split in zip(rootless, splits):
            psi3[k] = (2, 2) if split else (4,)
    if roots is None:
        roots = [None] * len(psi3)
    return [
        FrobSignature(norm=p, ap=t, p=p, root=c, cubic_pattern=CUBIC_PATTERN_BY_ROOTS[n3],
                      psi3_pattern=pattern, has_3pt=flag)
        for t, n3, pattern, flag, c in zip(ap.tolist(), cubic_roots.tolist(), psi3, has_3pt.tolist(), roots)
    ]


# ---------------------------------------------------------------------------
# mod-l certification for primes l >= 5


def certify_mod_ell(sigs: Iterable[FrobSignature], ell: int) -> Verdict:
    """Certify image >= SL2(F_ell) from characteristic polynomial data.

    Soundness: a subgroup of GL2(F_l) not containing SL2 has projective image
    inside a Borel, a Cartan normalizer, or an exceptional (A4/S4/A5) group.
    Witness (i), split nonscalar semisimple with nonzero trace, escapes the
    nonsplit Cartan normalizer; witness (ii), nonsplit with nonzero trace,
    escapes the Borel and the split Cartan normalizer; witness (iii), with
    u = t^2/d outside {0, 1, 2, 4} and u^2 - 3u + 1 != 0, has projective
    order > 5 and escapes the exceptional groups.
    """
    if ell < 5 or not nt.is_prime(ell):
        raise InvalidInputError("certify_mod_ell needs a prime l >= 5")
    wit_split = wit_nonsplit = wit_order = None
    for s in sigs:
        if s.norm % ell == 0:
            continue
        t, d = s.residues(ell)
        disc = (t * t - 4 * d) % ell
        if t != 0 and disc != 0 and wit_split is None and nt.legendre(disc, ell) == 1:
            wit_split = s
        if t != 0 and wit_nonsplit is None and nt.legendre(disc, ell) == -1:
            wit_nonsplit = s
        if wit_order is None and d % ell != 0:
            u = t * t * pow(d, -1, ell) % ell
            if u not in (0, 1, 2, 4 % ell) and (u * u - 3 * u + 1) % ell != 0:
                wit_order = s
        if wit_split and wit_nonsplit and wit_order:
            return certified(
                {"condition": "split semisimple", "p": wit_split.p, "ap": wit_split.ap},
                {"condition": "nonsplit semisimple", "p": wit_nonsplit.p, "ap": wit_nonsplit.ap},
                {"condition": "projective order > 5", "p": wit_order.p, "ap": wit_order.ap},
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


# ---------------------------------------------------------------------------
# elimination against signature tables


def _signature_tuple(s: FrobSignature, m: int):
    t, d = s.residues(m)
    if m in (4, 8):
        if s.cubic_pattern is None:
            return None
        return (t, d, s.cubic_pattern)
    if m == 9:
        if s.psi3_pattern is None or s.has_3pt is None:
            return None
        return (t, d, s.psi3_pattern, s.has_3pt)
    return (t, d)


def signature_elimination(sigs: Iterable[FrobSignature], m: int) -> Verdict:
    """Eliminate every tabled proper full-determinant subgroup at level m.

    Certified requires (1) the observed determinants to cover all units mod m
    (so the image provably has full determinant and the table applies) and
    (2) every table entry to miss at least one observed signature.
    """
    table = subgroup_signature_table(m)
    observed = set()
    dets = set()
    for s in sigs:
        if math.gcd(s.norm, m) != 1:
            continue
        sig = _signature_tuple(s, m)
        if sig is None:
            continue
        observed.add(sig)
        dets.add(s.norm % m)
    if not observed:
        return inconclusive(m=m, reason="no usable signatures")
    stray = observed - table.full_signatures
    if stray:
        raise AssertionError(f"observed signatures {stray} not realizable in GL2(Z/{m}): internal bug")
    units = {u for u in range(1, m) if math.gcd(u, m) == 1}
    if dets != units:
        return inconclusive(m=m, reason="determinant coverage incomplete", seen=sorted(dets))
    survivors = []
    witnesses = []
    for e in table.entries:
        missed = observed - e.signatures
        if missed:
            witnesses.append({"eliminated": e.label, "by_signature": sorted(missed)[0]})
        else:
            survivors.append(e.label)
    if survivors:
        return inconclusive(m=m, surviving_subgroups=survivors, table_scope=table.scope)
    return certified(*witnesses, m=m, table_scope=table.scope)


def certify_mod_small(sigs: Iterable[FrobSignature], m: int) -> Verdict:
    """Certify image >= SL2(Z/mZ) for m = 4 or 9 by table elimination."""
    if m not in (4, 9):
        raise InvalidInputError("certify_mod_small handles m in {4, 9}")
    return signature_elimination(sigs, m)


def quadratic_entanglement_check(sigs: Iterable[FrobSignature]) -> Verdict:
    """Refute the couplings of the 2-torsion permutation sign with each
    quadratic character of conductor dividing 72.

    If the image were contained in {g : eps(g mod 2) = chi_D(det g)} the
    sign of the Frobenius permutation of the three 2-torsion points would
    equal the Kronecker symbol (D/p) at every good prime.
    """
    alive: dict[int, dict | None] = {D: None for D in ENTANGLEMENT_DISCRIMINANTS}
    for s in sigs:
        if s.cubic_pattern is None or s.norm % 2 == 0 or s.norm % 3 == 0:
            continue
        eps = _EPS_BY_PATTERN[s.cubic_pattern]
        for D in [D for D, w in alive.items() if w is None]:
            if nt.kronecker(D, s.norm) != eps:
                alive[D] = {"coupling_discriminant": D, "p": s.p, "pattern": s.cubic_pattern}
        if all(w is not None for w in alive.values()):
            return certified(*alive.values(), statement="no quadratic entanglement of conductor dividing 72")
    survivors = [D for D, w in alive.items() if w is None]
    return inconclusive(surviving_discriminants=survivors)


# ---------------------------------------------------------------------------
# Serre curves over Q


@dataclass
class SerreReport:
    verdict: Verdict
    params: CertParams
    curve: tuple
    levels: dict = dc_field(default_factory=dict)
    notes: list = dc_field(default_factory=list)

    def to_json(self):
        return {
            "curve": list(self.curve),
            "params": {"prime_bound": self.params.prime_bound, "l_max": self.params.l_max},
            "levels": {str(k): v.to_json() for k, v in self.levels.items()},
            "final": self.verdict.to_json(),
            "caveats": self.notes,
        }


def serre_check(curve: ecff.ShortWeierstrass, params: CertParams = CertParams()) -> SerreReport:
    """Certify the Serre-curve criterion over Q, or a structural obstruction.

    Certified means: mod-l image contains SL2 for every prime 5 <= l <= l_max,
    the mod-4 and mod-9 images contain SL2, no quadratic entanglement of
    conductor dividing 72 exists, and the curve passes the CM screen.  The
    criterion then gives the full mod-72 statement (see the module notes),
    and in particular an adelic index of exactly 2 away from primes > l_max.

    Obstructions are structural only: a rational 2-torsion point (image
    index >= 3) or a CM j-invariant (infinite index).
    """
    if not curve.is_rational:
        raise InvalidInputError("serre_check applies to curves over Q")
    A, B = integer_model(curve.a, curve.b)
    report = SerreReport(verdict=inconclusive(), params=params, curve=(A, B))
    verdict, levels = _serre_obstructions(A, B)
    if verdict is None:
        sigs = collect_signatures(curve, params)
        verdict, levels = _serre_levels(sigs, params)
    report.levels = levels
    report.verdict = verdict
    report.notes.append(
        f"mod-l surjectivity checked for primes up to l_max = {params.l_max}; "
        "larger primes are covered only heuristically"
    )
    return report


def serre_verdict_from_signatures(a: int, b: int, sigs: list[FrobSignature], params: CertParams) -> Verdict:
    """Serre verdict for an integer curve with pre-collected signatures."""
    verdict, _ = _serre_obstructions(a, b)
    if verdict is not None:
        return verdict
    verdict, _ = _serre_levels(sigs, params)
    return verdict


def _serre_obstructions(A: int, B: int):
    structural = []
    roots = nt.rational_roots_of_monic_cubic(Fraction(A), Fraction(B))
    if roots:
        structural.append({"kind": "rational 2-torsion", "x": str(roots[0])})
    cm = ecff.cm_screen(ecff.validate(Fraction(A), Fraction(B)))
    if cm.status == "definitely-cm":
        structural.append({"kind": "complex multiplication", "j": str(cm.j)})
    if structural:
        return (
            obstruction(*structural, statement="the adelic index exceeds 2 (proper mod-2 image / CM)"),
            {},
        )
    return None, {}


def _serre_levels(sigs: list[FrobSignature], params: CertParams):
    levels: dict = {}
    for ell in _primes_in(5, params.l_max):
        levels[ell] = certify_mod_ell(sigs, ell)
    levels[4] = certify_mod_small(sigs, 4)
    levels[9] = certify_mod_small(sigs, 9)
    levels[8] = signature_elimination(sigs, 8)
    levels["entanglement"] = quadratic_entanglement_check(sigs)
    pending = [k for k, v in levels.items() if not v.is_certified]
    if pending:
        return inconclusive(unresolved_levels=[str(k) for k in pending]), levels
    return (
        certified(
            f"criterion satisfied at 4, 8, 9, the entanglement conditions, and all primes 5..{params.l_max}",
            l_max=params.l_max,
        ),
        levels,
    )


# ---------------------------------------------------------------------------
# maximality over a monogenic field


@dataclass
class MaximalityReport:
    verdict: Verdict
    statement: str
    conditions: dict
    field_certificate: Verdict
    params: CertParams
    curve: tuple
    field: tuple

    def to_json(self):
        per_m = {}
        per_m.update({str(m): v.status for m, v in self.conditions["b"].items()})
        per_m.update({str(ell): v.status for ell, v in self.conditions["a"].items()})
        return {
            "curve": [str(c) for c in self.curve],
            "field": list(self.field),
            "params": {"prime_bound": self.params.prime_bound, "l_max": self.params.l_max},
            "per_m": per_m,
            "conditions": {
                "a": {str(ell): v.to_json() for ell, v in self.conditions["a"].items()},
                "b": {str(m): v.to_json() for m, v in self.conditions["b"].items()},
                "c": self.conditions["c"].to_json(),
                "d": self.conditions["d"].to_json(),
            },
            "field_certificate": self.field_certificate.to_json(),
            "final": self.verdict.to_json(),
            "witnesses": [str(w) for w in self.verdict.witnesses],
            "statement": self.statement,
        }


def certify_maximal(
    curve: ecff.ShortWeierstrass,
    K: numfield.MonogenicField | None = None,
    params: CertParams = CertParams(),
) -> MaximalityReport:
    """Certify that the torsion image is the full determinant-compatible
    group over a monogenic field (and all of GL2(Zhat) when the field is
    certified linearly disjoint from the cyclotomics).

    Conditions: (a) SL2 mod every prime 5..l_max, (b) SL2 mod 4 and mod 9,
    (c) sqrt(Delta) not cyclotomic, (d) no cube roots of unity in the field
    or cbrt(Delta) not cyclotomic.
    """
    if curve.is_rational:
        return MaximalityReport(
            verdict=obstruction(
                "k = Q",
                reason="over Q every abelian extension is cyclotomic, so sqrt(disc) "
                "always lies in the cyclotomic closure and the image index is >= 2",
            ),
            statement="not maximal over Q (discriminant entanglement is unavoidable)",
            conditions={"a": {}, "b": {}, "c": inconclusive(), "d": inconclusive()},
            field_certificate=inconclusive(),
            params=params,
            curve=(curve.a, curve.b),
            field=(),
        )
    if K is None:
        K = curve.a.field
    sigs = collect_signatures(curve, params, K)
    cond_a = {ell: certify_mod_ell(sigs, ell) for ell in _primes_in(5, params.l_max)}
    cond_b = {4: certify_mod_small(sigs, 4), 9: certify_mod_small(sigs, 9)}
    cond_c = numfield.sqrt_cyclotomic_certificate(curve.delta, K, prime_budget=params.prime_bound)
    mu3 = numfield.mu_n_membership(K, 3)
    if mu3.is_certified:
        cond_d = mu3
    else:
        cond_d = numfield.cbrt_cyclotomic_certificate(curve.delta, K, prime_budget=params.prime_bound)
    field_cert = numfield.cyclotomic_intersection_certificate(K)
    per_m = dict(cond_b)
    per_m.update(cond_a)
    final = assemble_maximality(per_m, cond_c, cond_d)
    if final.is_certified and field_cert.is_certified:
        statement = "image is all of GL2(Zhat) (maximal, and the field is linearly disjoint from Q^cyc)"
    elif final.is_certified:
        statement = "image is the full determinant-compatible group over the field"
    else:
        statement = "not certified"
    return MaximalityReport(
        verdict=final,
        statement=statement,
        conditions={"a": cond_a, "b": cond_b, "c": cond_c, "d": cond_d},
        field_certificate=field_cert,
        params=params,
        curve=(curve.a, curve.b),
        field=K.coeffs,
    )


def assemble_maximality(per_m: Mapping[int, Verdict], disc_sqrt: Verdict, disc_cbrt_or_mu3: Verdict) -> Verdict:
    """Combine the per-level verdicts over a monogenic field into the overall
    maximal-image verdict.

    The required levels are 4, 9 and every prime from 5 up to the largest
    prime present.  Certification needs every input certified; any certified
    obstruction dominates; otherwise the result is inconclusive.
    """
    levels = sorted(per_m)
    if 4 not in levels or 9 not in levels:
        raise InvalidInputError("per-level verdicts must cover m = 4 and m = 9")
    primes_present = [m for m in levels if m not in (4, 9)]
    if not primes_present:
        raise InvalidInputError("per-level verdicts must cover the primes 5..l_max")
    l_max = max(primes_present)
    expected = [p for p in range(5, l_max + 1) if nt.is_prime(p)]
    missing = [p for p in expected if p not in per_m]
    if missing:
        raise InvalidInputError(f"missing per-prime verdicts for {missing}")
    for p in primes_present:
        if p not in expected:
            raise InvalidInputError(f"unexpected level {p} in per-level verdicts")

    parts = dict(per_m)
    parts["sqrt-disc"] = disc_sqrt
    parts["cbrt-disc-or-mu3"] = disc_cbrt_or_mu3
    bad = [k for k, v in parts.items() if v.is_obstruction]
    if bad:
        return obstruction(*[f"obstruction at {k}" for k in bad], levels=levels)
    pending = [k for k, v in parts.items() if v.is_inconclusive]
    if pending:
        return inconclusive(unresolved=[str(k) for k in pending], levels=levels)
    return certified(
        f"levels 4, 9 and primes 5..{l_max} certified; discriminant root conditions certified",
        l_max=l_max,
    )


def _primes_in(lo: int, hi: int) -> list[int]:
    return [p for p in nt.primes_up_to(hi) if p >= lo]

