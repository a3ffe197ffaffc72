import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galmax import nt
from galmax import numfield as nf
from galmax.errors import BadReductionError, InvalidInputError

CUBIC = nf.MonogenicField([1, 1, 0, 1])  # x^3 + x + 1, disc -31
EISENSTEIN = nf.MonogenicField([1, 1, 1])  # x^2 + x + 1 = Q(mu_3)


def test_field_validation():
    assert CUBIC.disc_f == -31
    with pytest.raises(InvalidInputError):
        nf.MonogenicField([2, 0, 2])  # not monic
    with pytest.raises(InvalidInputError):
        nf.MonogenicField([-1, 0, 1])  # x^2 - 1 reducible
    with pytest.raises(InvalidInputError):
        nf.MonogenicField([5])  # constant


def test_field_arithmetic():
    a = CUBIC.alpha()
    assert (a * a * a).coeffs == (-1, -1, 0)  # alpha^3 = -alpha - 1
    x = CUBIC.elem([Fraction(1, 2), 3, Fraction(-2, 5)])
    assert (x - x).is_zero()
    assert x.norm() != 0
    assert CUBIC.elem([7]).norm() == 343  # N of a rational is its cube


def test_field_constructor_and_norm_match_sympy():
    # irreducibility, discriminant, norm and repr, checked against
    # sympy on random small quadratics, cubics and quartics
    # and on products of two quadratics (x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2))
    import random

    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(3)
    polys = [[rng.randint(-12, 12) for _ in range(d)] + [1] for d in rng.choices((2, 3, 4), k=400)]
    for _ in range(100):
        b, c, e, g = (rng.randint(-9, 9) for _ in range(4))
        polys.append([int(v) for v in reversed(sympy.Poly((x**2 + b * x + c) * (x**2 + e * x + g), x).all_coeffs())])
    polys += [[4, 0, 0, 0, 1], [1, 0, 0, 0, 1], [1, 0, 1, 0, 1], [-1, 0, 0, 0, 1]]
    # degrees 5 and 6 take sympy's irreducibility test: x^5 - x - 1, x^6 + 3,
    # (x^2 + 1)(x^3 + x + 1) and (x^3 + 2)(x^3 - 2)
    polys += [[-1, -1, 0, 0, 0, 1], [3, 0, 0, 0, 0, 0, 1], [1, 1, 1, 2, 0, 1], [-4, 0, 0, 0, 0, 0, 1]]
    for coeffs in polys:
        P = sympy.Poly(list(reversed(coeffs)), x)
        if not P.is_irreducible:
            with pytest.raises(InvalidInputError, match=re.escape(f"{P.as_expr()} is reducible over Q")):
                nf.MonogenicField(coeffs)
            continue
        K = nf.MonogenicField(coeffs)
        assert K.disc_f == int(sympy.discriminant(P)), coeffs
        assert repr(K) == f"MonogenicField({P.as_expr()})"
        el = K.elem([Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(K.degree)])
        if el.is_zero():
            continue
        g = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(el.coeffs))
        assert el.norm() == Fraction(str(sympy.resultant(P.as_expr(), g, x))), coeffs


def test_field_constructor_does_not_factor_the_constant_term():
    # irreducibility by bisection: constant terms with 2^30 divisors (the
    # product of the first 30 primes) or with two 40-digit prime factors
    # take milliseconds; the subprocess caps the time and the memory
    import math
    import resource
    import subprocess
    import sys

    import sympy

    x = sympy.Symbol("x")
    primorial = math.prod(sympy.primerange(2, 114))
    p, q = int(sympy.nextprime(10**39)), int(sympy.nextprime(3 * 10**39))
    fields = [[primorial, 0, 1], [primorial, 0, 0, 1], [primorial, 0, 0, 0, 1], [p * q, 0, 1], [p * q, 1, 0, 1],
              [p * q, 3, 1, 0, 1]]
    reducible = [[int(c) for c in reversed(sympy.Poly(e, x).all_coeffs())]
                 for e in ((x**2 + p) * (x**2 + q), (x - p) * (x**3 + q), (x**2 + p * x + q) * (x**2 - q * x + p),
                           (x - p) * (x - q), (x**2 + primorial) * (x**2 - primorial * x - 1))]
    code = "\n".join([
        "from galmax import numfield",
        "from galmax.errors import InvalidInputError",
        f"print([numfield.MonogenicField(f).disc_f for f in {fields}])",
        f"for f in {reducible}:",
        "    try:",
        "        numfield.MonogenicField(f)",
        "    except InvalidInputError:",
        "        continue",
        "    raise AssertionError(f)",
    ])

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          preexec_fn=cap_memory)
    assert proc.returncode == 0, proc.stderr
    expected = [int(sympy.discriminant(sympy.Poly(list(reversed(f)), x))) for f in fields]
    assert proc.stdout.strip() == str(expected)


def test_norm_of_alpha():
    assert CUBIC.alpha().norm() == -1  # (-1)^3 * f(0)
    assert EISENSTEIN.alpha().norm() == 1


def test_degree_one_primes_examples():
    primes = list(nf.degree_one_primes(CUBIC, 50))
    assert nf.DegreeOnePrime(3, 1) in primes  # f(1) = 3
    assert all(p != 2 for p, _ in primes)  # f has no root mod 2
    # at most deg f primes over any p
    from collections import Counter

    by_p = Counter(p for p, _ in primes)
    assert max(by_p.values()) <= 3
    # every pair is verified: f(c) = 0 mod p
    for p, c in primes:
        assert (c**3 + c + 1) % p == 0


def test_degree_one_primes_congruence_filter(monkeypatch):
    # the cube-residue loop reduces only at the degree-one primes p = 1 mod 3
    primes = []
    reduce_elem = nf.reduce_elem
    monkeypatch.setattr(nf, "reduce_elem", lambda x, P: primes.append(P.p) or reduce_elem(x, P))
    assert nf.cbrt_cyclotomic_certificate(EISENSTEIN.elem([8]), prime_budget=200).is_inconclusive
    assert primes and all(p % 3 == 1 for p in primes)


def test_degree_one_prime_density_chebotarev_band():
    """Soft sanity: total root count over p <= 10^4 tracks pi(10^4) within 10%."""
    primes = list(nf.degree_one_primes(CUBIC, 10**4))
    n_primes = len(nt.primes_up_to(10**4))
    assert abs(len(primes) - n_primes) / n_primes < 0.10


def test_degree_one_primes_match_horner_across_chunks():
    # the memo's chunks run past ROOT_SPLIT_FROM; a walk to 500 and then one
    # to 3000 read the same roots as a Horner pass at every prime
    K = nf.MonogenicField([3, -1, 0, 2, 1])  # x^4 + 2x^3 - x + 3
    nf._found_roots.cache_clear()
    reference = [
        nf.DegreeOnePrime(p, c)
        for p in nt.primes_up_to(3000)
        if K.disc_f % p
        for c in range(p)
        if (c**4 + 2 * c**3 - c + 3) % p == 0
    ]
    assert list(nf.degree_one_primes(K, 500)) == [P for P in reference if P.p <= 500]
    assert list(nf.degree_one_primes(K, 3000)) == reference
    assert list(nf.degree_one_primes(K, 1000)) == [P for P in reference if P.p <= 1000]


def test_degree_one_prime_walk_stops_where_its_reader_stops(monkeypatch):
    # a walk read to p ~ 100 finds roots for no prime beyond about twice the
    # last one it read, and a second walk of the field reads the memo
    asked = []
    roots_mod_primes = nt.roots_mod_primes
    monkeypatch.setattr(nt, "roots_mod_primes", lambda f, primes: asked.extend(primes) or roots_mod_primes(f, primes))
    nf._found_roots.cache_clear()
    for P in nf.degree_one_primes(CUBIC, 10**6):
        if P.p > 100:
            break
    assert 0 < max(asked) <= 2 * P.p
    before = len(asked)
    assert [Q for Q in nf.degree_one_primes(CUBIC, P.p)][-1] == P
    assert len(asked) == before


def test_reduce_elem_examples():
    P = nf.DegreeOnePrime(3, 1)
    a = CUBIC.alpha()
    assert nf.reduce_elem(a, P) == 1
    assert nf.reduce_elem(a * a + 1, P) == 2
    assert nf.reduce_elem(CUBIC.elem([Fraction(2, 5)]), nf.DegreeOnePrime(3, 1)) == (2 * pow(5, -1, 3)) % 3
    with pytest.raises(BadReductionError):
        nf.reduce_elem(CUBIC.elem([Fraction(1, 3)]), P)


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(st.integers(-20, 20), min_size=3, max_size=3),
    ys=st.lists(st.integers(-20, 20), min_size=3, max_size=3),
    dens=st.sampled_from([1, 2, 5, 7]),
)
def test_reduce_elem_is_ring_homomorphism(xs, ys, dens):
    P = nf.DegreeOnePrime(11, 2)  # f(2) = 11
    x = CUBIC.elem([Fraction(v, dens) for v in xs])
    y = CUBIC.elem(ys)
    assert nf.reduce_elem(x + y, P) == (nf.reduce_elem(x, P) + nf.reduce_elem(y, P)) % 11
    assert nf.reduce_elem(x * y, P) == (nf.reduce_elem(x, P) * nf.reduce_elem(y, P)) % 11


# ---------------------------------------------------------------------------
# certificates


def test_sqrt_certificate_never_certifies_rational_square_classes():
    a = CUBIC.alpha()
    for delta in [
        CUBIC.elem([9]),
        CUBIC.elem([5]),  # sqrt(5) lies in Q^cyc
        CUBIC.elem([-7]),
        (a * a + 1) * (a * a + 1) * 7,
        a * a * CUBIC.elem([-3]),
    ]:
        v = nf.sqrt_cyclotomic_certificate(delta, prime_budget=1500)
        assert not v.is_certified, delta


def test_sqrt_certificate_certifies_cubic_field_curve_discriminant():
    a = CUBIC.alpha()
    delta = CUBIC.elem([64]) + 91 * a + 27 * a * a  # = -64 a^3 - 27 a^4
    v = nf.sqrt_cyclotomic_certificate(delta, prime_budget=2000)
    assert v.is_certified
    assert v.witnesses


def test_sqrt_certificate_monotone_in_budget():
    a = CUBIC.alpha()
    delta = CUBIC.elem([64]) + 91 * a + 27 * a * a
    small = nf.sqrt_cyclotomic_certificate(delta, prime_budget=2000)
    big = nf.sqrt_cyclotomic_certificate(delta, prime_budget=4000)
    assert small.is_certified and big.is_certified


def test_sqrt_certificate_rejects_zero():
    with pytest.raises(InvalidInputError):
        nf.sqrt_cyclotomic_certificate(CUBIC.elem([]))


def test_cbrt_certificate_odd_degree_short_circuit():
    v = nf.cbrt_cyclotomic_certificate(CUBIC.elem([2]))
    assert v.is_certified
    assert v.witnesses[0]["kind"] == "degree parity"


def test_cbrt_certificate_over_eisenstein_field():
    # cbrt(2) is genuinely not cyclotomic over Q(mu_3): cube-ness of 2 at
    # p = 1 mod 3 is governed by p = x^2 + 27 y^2, not by any congruence
    v = nf.cbrt_cyclotomic_certificate(EISENSTEIN.elem([2]), prime_budget=500)
    assert v.is_certified
    # a perfect cube stays inconclusive
    v = nf.cbrt_cyclotomic_certificate(EISENSTEIN.elem([8]), prime_budget=500)
    assert v.is_inconclusive
    a = EISENSTEIN.alpha()
    v = nf.cbrt_cyclotomic_certificate(a * a * a, prime_budget=500)
    assert v.is_inconclusive


# ---------------------------------------------------------------------------
# reference: conditions (c) and (d) as two separate loops over degree-one
# primes, the square and the cube test written out on their own; the one
# shared loop must give the same verdicts, witnesses and diagnostics


def _reference_sqrt_certificate(delta, K, prime_budget):
    d0 = nf._integerize_power_class(delta, 2)
    n = int(d0.norm())
    support = nf._support_primes(K, n)
    if support is None:
        return nf.inconclusive(reason="norm too large to factor for a conductor bound")
    candidates = nf._fundamental_discriminants(support)
    if len(candidates) > nf.CANDIDATE_CHARACTER_CAP:
        return nf.inconclusive(reason=f"too many candidate characters ({len(candidates)})")
    alive = {D: None for D in candidates}
    trivial_alive = True
    witnesses = []
    sym_by_p = {}
    bad = 2 * abs(K.disc_f) * abs(n)
    for P in nf.degree_one_primes(K, prime_budget):
        if bad % P.p == 0:
            continue
        v = nf.reduce_elem(d0, P)
        if v == 0:
            continue
        s = nt.kronecker(v, P.p)
        prev = sym_by_p.get(P.p)
        if prev is not None and prev != s:
            witnesses.append({"kind": "same-norm incoherence", "p": P.p, "symbols": [prev, s]})
            return nf.certified(*witnesses, mechanism="two degree-one primes over one p disagree")
        sym_by_p[P.p] = s
        if trivial_alive and s == -1:
            trivial_alive = False
            witnesses.append({"kind": "trivial character refuted", "p": P.p, "c": P.c, "symbol": s})
        for D in [D for D, w in alive.items() if w is None]:
            if nt.kronecker(D, P.p) != s:
                alive[D] = (P.p, P.c, s)
                witnesses.append({"kind": "character refuted", "D": D, "p": P.p, "c": P.c, "symbol": s})
        if not trivial_alive and all(w is not None for w in alive.values()):
            return nf.certified(*witnesses, mechanism="all candidate quadratic characters refuted")
    survivors = [D for D, w in alive.items() if w is None] + (["trivial"] if trivial_alive else [])
    return nf.inconclusive(
        surviving_characters=[str(s) for s in survivors],
        primes_scanned=len(sym_by_p),
        note="symbols consistent with a cyclotomic character within budget",
    )


def _reference_cbrt_certificate(delta, K, prime_budget):
    if K.degree % 2 == 1:
        return nf.certified(
            {"kind": "degree parity", "degree": K.degree},
            mechanism="odd-degree fields contain no primitive cube root of unity",
        )
    d0 = nf._integerize_power_class(delta, 3)
    n = int(d0.norm())
    support = nf._support_primes(K, 3 * n)
    if support is not None:
        support = [q for q in support if q != 3]
    use_characters = K.degree == 2 and support is not None
    cubic_mods = [q for q in (support or []) if q % 3 == 1] + [9]
    alive = {}
    if use_characters:
        dlogs = {q: _reference_dlog_table(q) for q in cubic_mods}
        exps = [e for e in itertools.product(range(3), repeat=len(cubic_mods)) if any(e)]
        if len(exps) > nf.CANDIDATE_CHARACTER_CAP:
            use_characters = False
        else:
            alive = {e: None for e in exps}
    trivial_alive = True
    witnesses = []
    cube_by_p = {}
    bad = 6 * abs(K.disc_f) * abs(n)
    for P in nf.degree_one_primes(K, prime_budget):
        if P.p % 3 != 1 or bad % P.p == 0:
            continue
        v = nf.reduce_elem(d0, P)
        if v == 0:
            continue
        is_cube = pow(v, (P.p - 1) // 3, P.p) == 1
        prev = cube_by_p.get(P.p)
        if prev is not None and prev != is_cube:
            witnesses.append({"kind": "same-norm incoherence", "p": P.p, "cube_flags": [prev, is_cube]})
            return nf.certified(*witnesses, mechanism="two degree-one primes over one p disagree on cube-ness")
        cube_by_p[P.p] = is_cube
        if trivial_alive and not is_cube:
            trivial_alive = False
            witnesses.append({"kind": "trivial character refuted", "p": P.p, "c": P.c})
        if use_characters:
            for e in [e for e, w in alive.items() if w is None]:
                val = 0
                skip = False
                for q, eq in zip(cubic_mods, e):
                    if P.p % q == 0:
                        skip = True
                        break
                    val = (val + eq * dlogs[q][P.p % q]) % 3
                if skip:
                    continue
                if (val == 0) != is_cube:
                    alive[e] = (P.p, P.c)
                    witnesses.append({"kind": "character refuted", "exponents": list(e), "p": P.p})
            if not trivial_alive and all(w is not None for w in alive.values()):
                return nf.certified(*witnesses, mechanism="all candidate cubic characters refuted")
    survivors = [str(e) for e, w in alive.items() if w is None] + (["trivial"] if trivial_alive else [])
    return nf.inconclusive(
        surviving_characters=survivors,
        primes_scanned=len(cube_by_p),
        note="cube residues consistent with a cyclotomic character within budget",
    )


def _reference_dlog_table(q):
    """x -> (discrete log of x mod q) mod 3, to the base of the smallest
    primitive root (2 for q = 9)."""
    order = 6 if q == 9 else q - 1
    g = 2 if q == 9 else next(g for g in range(2, q) if all(pow(g, order // pf, q) != 1 for pf in nt.factorint(order)))
    return {pow(g, k, q): k % 3 for k in range(order)}


# x^2 + x + 1, x^2 + 3, x^2 + 1, x^2 - 2, x^2 + 5, x^2 - 7, x^2 + x + 7,
# x^3 + x + 1, x^3 - 2, x^3 - 3x - 1, x^4 - x^2 + 1, x^4 + 1
REFERENCE_FIELDS = [[1, 1, 1], [3, 0, 1], [1, 0, 1], [-2, 0, 1], [5, 0, 1], [-7, 0, 1], [7, 1, 1],
                    [1, 1, 0, 1], [-2, 0, 0, 1], [-1, -3, 0, 1], [1, 0, -1, 0, 1], [1, 0, 0, 0, 1]]


def _reference_battery():
    """(field, delta) pairs: rational and non-rational deltas, perfect
    squares and perfect cubes, some with denominators."""
    for coeffs in REFERENCE_FIELDS:
        K = nf.MonogenicField(coeffs)
        a = K.alpha()
        deltas = [K.elem([c]) for c in (2, -1, 3, -3, 7, 12, Fraction(5, 2), 4, 8)]
        deltas += [a, a + 1, 2 * a - 3, a * a + a + 5, (a + 1) * (a + 1), (a + 2) * (a + 2) * (a + 2),
                   (a - 1) * (a - 1) * 3, a * a * a * 2, (a + Fraction(1, 3)) * 5]
        for delta in deltas:
            yield K, delta


def _check_against_reference():
    checked = 0
    for K, delta in _reference_battery():
        for budget in (300, 2000):
            new = nf.sqrt_cyclotomic_certificate(delta, prime_budget=budget).to_json()
            assert new == _reference_sqrt_certificate(delta, K, budget).to_json(), (K, delta, budget)
            new = nf.cbrt_cyclotomic_certificate(delta, prime_budget=budget).to_json()
            assert new == _reference_cbrt_certificate(delta, K, budget).to_json(), (K, delta, budget)
            checked += 1
    return checked


def test_certificates_match_two_loop_reference():
    assert _check_against_reference() == 2 * 18 * len(REFERENCE_FIELDS)


def test_certificates_match_two_loop_reference_over_the_character_cap(monkeypatch):
    # a cap of 1 makes sqrt return early and cbrt fall back to incoherence
    monkeypatch.setattr(nf, "CANDIDATE_CHARACTER_CAP", 1)
    assert _check_against_reference() == 2 * 18 * len(REFERENCE_FIELDS)


def test_mu_n_membership():
    v = nf.mu_n_membership(CUBIC, 3)
    assert v.is_certified and v.witnesses[0]["kind"] == "degree argument"
    qi = nf.MonogenicField([1, 0, 1])
    assert nf.mu_n_membership(qi, 4, prime_budget=500).is_inconclusive  # consistent presence
    sqrt2 = nf.MonogenicField([-2, 0, 1])
    v = nf.mu_n_membership(sqrt2, 3)
    assert v.is_certified and v.witnesses[0]["p"] == 17
    with pytest.raises(InvalidInputError):
        nf.mu_n_membership(CUBIC, 1)


def test_cyclotomic_intersection_certificate():
    assert nf.cyclotomic_intersection_certificate(CUBIC).is_certified
    assert nf.cyclotomic_intersection_certificate(nf.MonogenicField([-5, 0, 1])).is_inconclusive
    cyclic_cubic = nf.MonogenicField([-1, -3, 0, 1])  # x^3 - 3x - 1, disc 81, inside Q(mu_9)
    assert nf.cyclotomic_intersection_certificate(cyclic_cubic).is_inconclusive


def test_cyclotomic_intersection_pattern_witness():
    # x^5 - x - 1: disc is not a square and degree 5 is prime -> certified
    K5 = nf.MonogenicField([-1, -1, 0, 0, 0, 1])
    v = nf.cyclotomic_intersection_certificate(K5)
    assert v.is_certified
    # x^5 + 20x + 16: Galois group A5 and disc 1024000000 = 32000^2, so only
    # a prime with unequal factor degrees certifies
    A5 = nf.MonogenicField([16, 20, 0, 0, 0, 1])
    assert A5.disc_f == 32000**2
    v = nf.cyclotomic_intersection_certificate(A5)
    assert v.is_certified
    assert v.witnesses[0] == {"kind": "unequal factor pattern", "p": 7, "pattern": [3, 1, 1]}


@pytest.mark.parametrize("coeffs", [[1, -3, 0, 1], [1, -2, -1, 1], [-1, -3, 0, 1]])
def test_cyclotomic_intersection_skips_the_primes_of_a_cyclic_cubic(coeffs, monkeypatch):
    # a cubic with square discriminant is cyclic, so no factor pattern can
    # certify: the verdict is reached without factoring at any prime
    K = nf.MonogenicField(coeffs)
    assert nt.is_perfect_square(K.disc_f)

    def no_factoring(*args):
        raise AssertionError("factor_degrees_mod_p called for a cyclic cubic")

    monkeypatch.setattr(nt, "factor_degrees_mod_p", no_factoring)
    v = nf.cyclotomic_intersection_certificate(K)
    assert v.is_inconclusive
    assert v.diagnostics == {"note": "consistent with an abelian (cyclotomic) field; not certified"}
