import sympy

from galmax import nt


def test_is_prime_matches_sympy():
    for n in [*range(-3, 3000), *range(2**32 - 300, 2**32 + 300), 10**18 + 3, 10**18 + 9]:
        assert nt.is_prime(n) == sympy.isprime(n), n


def test_prime_divisors_and_phi_match_sympy():
    for n in range(1, 3000):
        assert nt.prime_divisors(n) == sorted(sympy.primefactors(n)), n
        assert nt.euler_phi(n) == sympy.totient(n), n
