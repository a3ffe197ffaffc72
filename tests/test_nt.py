import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from galmax import nt


def test_is_prime_matches_sympy():
    for n in [*range(-3, 3000), *range(2**32 - 300, 2**32 + 300), 10**18 + 3, 10**18 + 9]:
        assert nt.is_prime(n) == sympy.isprime(n), n


def test_primes_up_to_is_memoized_and_immutable():
    for bound in (0, 1, 2, 3, 100, 7919, 10**4):
        primes = nt.primes_up_to(bound)
        assert primes == tuple(sympy.primerange(2, bound + 1))
        assert nt.primes_up_to(bound) is primes  # one sieve per bound, shared
    with pytest.raises(TypeError):
        nt.primes_up_to(100)[0] = 4


def test_factorint_and_phi_match_sympy_below_3000():
    # every n below 3000: the trial division that stops at sqrt(n)
    for n in range(1, 3000):
        assert nt.factorint(n) == {int(p): e for p, e in sympy.factorint(n).items()}, n
        assert nt.euler_phi(n) == sympy.totient(n), n


def test_primitive_root_is_least_unit_of_full_order():
    def order(g, n):
        k, x = 1, g % n
        while x != 1 % n:
            k, x = k + 1, x * g % n
        return k

    for n in [*nt.primes_up_to(200), 9]:
        phi = nt.euler_phi(n)
        units = [g for g in range(1, n) if math.gcd(g, n) == 1]
        assert nt.primitive_root(n) == next(g for g in units if order(g, n) == phi), n
    with pytest.raises(ValueError):
        nt.primitive_root(8)


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
        assert nt.integer_roots_monic([B, A, 0, 1]) == divisor_roots(A, B), (A, B)
    # the same pairs as one int64-array call: S <= 1.1 * 10^5 and R <= 104
    # here, so integer_roots_monic's bounds keep every value below 10^17
    A, B = np.array(pairs, dtype=np.int64).T
    found, least = nt.least_integer_root([B, A, 0, 1])
    assert list(zip(found.tolist(), least.tolist())) == [nt.least_integer_root([b, a, 0, 1]) for a, b in pairs]
    assert [y for y, hit in zip(least.tolist(), found.tolist()) if hit] == [r[0] for r in map(divisor_roots, A.tolist(), B.tolist()) if r]


def test_cubic_roots_with_large_known_roots():
    rng = random.Random(4)
    for _ in range(50):
        r, s = rng.randint(-10**40, 10**40), rng.randint(-10**40, 10**40)
        # (y - r)(y - s)(y + r + s)
        A, B = -(r * r + r * s + s * s), r * s * (r + s)
        assert nt.integer_roots_monic([B, A, 0, 1]) == sorted({r, s, -r - s})
        # one known root r; the quadratic cofactor y^2 + r y + r^2 + A2 is random
        A2 = rng.randint(-10**80, 10**80)
        roots = nt.integer_roots_monic([-(r**3 + A2 * r), A2, 0, 1])
        assert r in roots and all(y**3 + A2 * y - (r**3 + A2 * r) == 0 for y in roots)
    # the coefficient that used to stall the divisor enumeration
    assert nt.integer_roots_monic([10**84 + 1, 1, 0, 1]) == []
    # x^3 - x/4 at x = y/2 is (y^3 - y)/8
    assert [Fraction(y, 2) for y in nt.integer_roots_monic([0, -1, 0, 1])] == [Fraction(-1, 2), 0, Fraction(1, 2)]


def test_is_prime_matches_sympy_above_2_32():
    # Baillie-PSW above 2^32: random odd numbers, primes, semiprimes, prime
    # squares, Chernick's Carmichael numbers (6k+1)(12k+1)(18k+1) and a
    # strong pseudoprime to every prime base up to 23
    rng = random.Random(6)
    ns = [rng.randrange(2**32, 2**100) | 1 for _ in range(1500)]
    ns += [int(sympy.nextprime(rng.randrange(2**32, 2**90))) for _ in range(100)]
    ns += [int(sympy.nextprime(rng.randrange(2**17, 2**45))) * int(sympy.nextprime(rng.randrange(2**17, 2**45)))
           for _ in range(200)]
    ns += [int(sympy.nextprime(rng.randrange(2**16, 2**40))) ** 2 for _ in range(50)]
    ns += [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(300, 3000)
           if all(sympy.isprime(j * k + 1) for j in (6, 12, 18))]
    ns += [3825123056546413051, 318665857834031151167461, 2**61 - 1, 2**89 - 1, 2**64 + 13]
    for n in ns:
        assert nt.is_prime(n) == sympy.isprime(n), n


def test_factorint_matches_sympy(monkeypatch):
    rng = random.Random(7)
    ns = [1, 2, 2**40, 3**30 * 7, 600851475143, (10**9 + 7) ** 3 * 11]
    ns += [rng.randrange(1, 10**18) for _ in range(100)]
    for n in ns:
        assert nt.factorint(n) == {int(p): e for p, e in sympy.factorint(n).items()}, n
    # products of 2 to 4 primes below 2^28, checked against the primes drawn
    # (sympy.factorint takes seconds on some of them)
    for _ in range(60):
        primes = [int(sympy.nextprime(rng.randrange(2, 2**28))) for _ in range(rng.randint(2, 4))]
        assert nt.factorint(math.prod(primes)) == {p: primes.count(p) for p in sorted(set(primes))}, primes
    assert nt.factorint(-12) == {2: 2, 3: 1}
    with pytest.raises(ValueError):
        nt.factorint(0)
    # a cofactor rho does not split within its budget is left to sympy
    monkeypatch.setattr(nt, "RHO_STEPS", 0)
    n = int(sympy.nextprime(2**40)) * int(sympy.nextprime(2**41)) * 5
    assert nt.factorint(n) == {int(p): e for p, e in sympy.factorint(n).items()}


def test_integer_roots_monic_match_sympy():
    # planted integer roots times a random monic cofactor, degrees 1 to 6
    rng = random.Random(8)
    x = sympy.Symbol("x")
    for _ in range(600):
        roots = [rng.randint(-40, 40) for _ in range(rng.randint(0, 3))]
        cofactor = [1] + [rng.randint(-25, 25) for _ in range(rng.randint(1 - min(len(roots), 1), 3))]
        P = sympy.Poly(sympy.Poly(cofactor, x).as_expr() * sympy.prod([x - r for r in roots]), x)
        coeffs = [int(c) for c in reversed(P.all_coeffs())]
        assert nt.integer_roots_monic(coeffs) == sorted(int(r) for r in P.ground_roots()), coeffs
    # 40-digit roots, and constant terms with 2^30 divisors or two 40-digit
    # prime factors: bisection never factors them
    r, s = 10**40 + 7, -(3 * 10**39 + 11)
    P = sympy.Poly((x - r) * (x - s) * (x**2 + 5 * x + 10**41), x)
    assert nt.integer_roots_monic([int(c) for c in reversed(P.all_coeffs())]) == [s, r]
    primorial = math.prod(sympy.primerange(2, 114))
    semiprime = int(sympy.nextprime(10**39)) * int(sympy.nextprime(3 * 10**39))
    for a0 in (primorial, -primorial, semiprime):
        assert nt.integer_roots_monic([a0, 0, 1]) == []
        assert nt.integer_roots_monic([a0, 1, 0, 0, 1]) == []
    assert nt.integer_roots_monic([-(primorial**2), 0, 1]) == [-primorial, primorial]
