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
    assert (x * x.inverse()).as_rational() == 1
    assert x.norm() != 0
    assert CUBIC.elem([7]).norm() == 343  # N of a rational is its cube


def test_field_constructor_and_norm_match_sympy():
    # irreducibility, discriminant, norm, inverse and repr, checked against
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
        assert (el * el.inverse()).as_rational() == 1


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


def test_degree_one_primes_congruence_filter():
    primes = list(nf.degree_one_primes(CUBIC, 200, congruence_filter=(1, 3)))
    assert primes and all(p % 3 == 1 for p, _ in primes)


def test_degree_one_prime_density_chebotarev_band():
    """Soft sanity: total root count over p <= 10^4 tracks pi(10^4) within 10%."""
    primes = list(nf.degree_one_primes(CUBIC, 10**4))
    n_primes = len(nt.primes_up_to(10**4))
    assert abs(len(primes) - n_primes) / n_primes < 0.10


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
        v = nf.sqrt_cyclotomic_certificate(delta, CUBIC, prime_budget=1500)
        assert not v.is_certified, delta


def test_sqrt_certificate_certifies_cubic_field_curve_discriminant():
    a = CUBIC.alpha()
    delta = CUBIC.elem([64]) + 91 * a + 27 * a * a  # = -64 a^3 - 27 a^4
    v = nf.sqrt_cyclotomic_certificate(delta, CUBIC, prime_budget=2000)
    assert v.is_certified
    assert v.witnesses


def test_sqrt_certificate_monotone_in_budget():
    a = CUBIC.alpha()
    delta = CUBIC.elem([64]) + 91 * a + 27 * a * a
    small = nf.sqrt_cyclotomic_certificate(delta, CUBIC, prime_budget=2000)
    big = nf.sqrt_cyclotomic_certificate(delta, CUBIC, prime_budget=4000)
    assert small.is_certified and big.is_certified


def test_sqrt_certificate_rejects_zero():
    with pytest.raises(InvalidInputError):
        nf.sqrt_cyclotomic_certificate(CUBIC.zero(), CUBIC)


def test_cbrt_certificate_odd_degree_short_circuit():
    v = nf.cbrt_cyclotomic_certificate(CUBIC.elem([2]), CUBIC)
    assert v.is_certified
    assert v.witnesses[0]["kind"] == "degree parity"


def test_cbrt_certificate_over_eisenstein_field():
    # cbrt(2) is genuinely not cyclotomic over Q(mu_3): cube-ness of 2 at
    # p = 1 mod 3 is governed by p = x^2 + 27 y^2, not by any congruence
    v = nf.cbrt_cyclotomic_certificate(EISENSTEIN.elem([2]), EISENSTEIN, prime_budget=500)
    assert v.is_certified
    # a perfect cube stays inconclusive
    v = nf.cbrt_cyclotomic_certificate(EISENSTEIN.elem([8]), EISENSTEIN, prime_budget=500)
    assert v.is_inconclusive
    a = EISENSTEIN.alpha()
    v = nf.cbrt_cyclotomic_certificate(a * a * a, EISENSTEIN, prime_budget=500)
    assert v.is_inconclusive


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
