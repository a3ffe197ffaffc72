import math
import random
from fractions import Fraction

import sympy

from galmax import nt


def test_is_prime_matches_sympy():
    for n in [*range(-3, 3000), *range(2**32 - 300, 2**32 + 300), 10**18 + 3, 10**18 + 9]:
        assert nt.is_prime(n) == sympy.isprime(n), n


def test_prime_divisors_and_phi_match_sympy():
    for n in range(1, 3000):
        assert nt.prime_divisors(n) == sorted(sympy.primefactors(n)), n
        assert nt.euler_phi(n) == sympy.totient(n), n


def test_kronecker_matches_sympy():
    rng = random.Random(5)
    for _ in range(20000):
        d = rng.randint(-10**6, 10**6)
        n = rng.randint(1, 10**5) * rng.choice((1, 2, 4, 8))
        assert nt.kronecker(d, n) == sympy.kronecker_symbol(d, n), (d, n)


def divisor_roots(A, B):
    """Reference: integer roots of y^3 + A y + B among the divisors of B."""
    if B == 0:
        r = math.isqrt(max(-A, 0))
        cands = {0, r, -r}
    else:
        cands = {s * d for d in sympy.divisors(abs(B)) for s in (1, -1)}
    return sorted(y for y in cands if y**3 + A * y + B == 0)


def test_cubic_roots_match_divisor_method():
    rng = random.Random(3)
    pairs = [(A, B) for A in range(-30, 31) for B in range(-30, 31)]
    pairs += [(rng.randint(-10**4, 10**4), rng.randint(-10**5, 10**5)) for _ in range(500)]
    pairs += [(-(r * r + r * s + s * s), r * s * (r + s)) for r in range(-12, 13) for s in range(-12, 13)]
    for A, B in pairs:
        assert nt.rational_roots_of_monic_cubic(A, B) == divisor_roots(A, B), (A, B)


def test_cubic_roots_with_large_known_roots():
    rng = random.Random(4)
    for _ in range(50):
        r, s = rng.randint(-10**40, 10**40), rng.randint(-10**40, 10**40)
        # (y - r)(y - s)(y + r + s)
        A, B = -(r * r + r * s + s * s), r * s * (r + s)
        assert nt.rational_roots_of_monic_cubic(A, B) == sorted({r, s, -r - s})
        # one known root r; the quadratic cofactor y^2 + r y + r^2 + A2 is random
        A2 = rng.randint(-10**80, 10**80)
        roots = nt.rational_roots_of_monic_cubic(A2, -(r**3 + A2 * r))
        assert r in roots and all(y**3 + A2 * y - (r**3 + A2 * r) == 0 for y in roots)
    # the coefficient that used to stall the divisor enumeration
    assert nt.rational_roots_of_monic_cubic(1, 10**84 + 1) == []
    assert nt.rational_roots_of_monic_cubic(Fraction(-1, 4), Fraction(0)) == [Fraction(-1, 2), 0, Fraction(1, 2)]
