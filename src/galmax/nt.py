"""Small number-theory helpers used throughout the package."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def primes_up_to(bound: int) -> list[int]:
    """All primes p <= bound, ascending."""
    if bound < 2:
        return []
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def legendre(a: int, p: int) -> int:
    """Quadratic residue symbol (a/p) in {-1, 0, 1} for odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n >= 1."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    if n < 0:
        raise ValueError("kronecker defined here for n >= 1 only")
    result = 1
    # split off the 2-part of n
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    # Jacobi symbol (d/n) for odd n by quadratic reciprocity
    d %= n
    while d:
        while d % 2 == 0:
            d //= 2
            if n % 8 in (3, 5):
                result = -result
        d, n = n, d
        if d % 4 == 3 and n % 4 == 3:
            result = -result
        d %= n
    return result if n == 1 else 0


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| (delegates to sympy)."""
    import sympy

    return {int(p): int(e) for p, e in sympy.factorint(abs(n)).items()}


def is_prime(n: int) -> bool:
    """Primality: trial division for n < 2^32, sympy's isprime above that."""
    if n >= 1 << 32:
        import sympy

        return bool(sympy.isprime(n))
    if n < 4:
        return n >= 2
    if n % 2 == 0 or n % 3 == 0:
        return False
    for q in range(5, math.isqrt(n) + 1, 6):
        if n % q == 0 or n % (q + 2) == 0:
            return False
    return True


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out


def euler_phi(m: int) -> int:
    for q in prime_divisors(m):
        m = m // q * (q - 1)
    return m


def poly_mulmod(f: list, g: list, mod_poly: list, p: int) -> list:
    """Product of f and g modulo (mod_poly, p); mod_poly monic, little-endian.

    Runs elementwise: each coefficient may be a Python int or an int64 array
    (all arrays of one length), so one call reduces many polynomials at once.
    """
    prod = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            prod[i + j] = (prod[i + j] + fi * gj) % p
    d = len(mod_poly) - 1
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i]
        shift = i - d
        for j in range(d):
            prod[shift + j] = (prod[shift + j] - c * mod_poly[j]) % p
    out = [c % p for c in prod[:d]]
    return out + [0] * (d - len(out))


def x_pow_mod(e: int, mod_poly: list, p: int) -> list:
    """x^e modulo (mod_poly, p), elementwise like poly_mulmod."""
    d = len(mod_poly) - 1
    result = [1] + [0] * (d - 1)
    base = ([0, 1] + [0] * (d - 2))[:d]
    if d == 1:
        base = [(-mod_poly[0]) % p]
    while e:
        if e & 1:
            result = poly_mulmod(result, base, mod_poly, p)
        base = poly_mulmod(base, base, mod_poly, p)
        e >>= 1
    return result


def poly_gcd_mod_p(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd of two polynomials over F_p (little-endian)."""

    def trim(h):
        while h and h[-1] % p == 0:
            h = h[:-1]
        return [c % p for c in h]

    f, g = trim(f), trim(g)
    while g:
        inv = pow(g[-1], -1, p)
        g = [c * inv % p for c in g]
        while len(f) >= len(g):
            if not f:
                break
            c = f[-1]
            shift = len(f) - len(g)
            f = [(fi - c * g[i - shift]) % p if i >= shift else fi for i, fi in enumerate(f)]
            f = trim(f)
        f, g = g, f
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def factor_degrees_mod_p(coeffs: list[int], p: int) -> list[int]:
    """Degrees of the irreducible factors of a squarefree monic poly mod p.

    Distinct-degree factorization: gcd with x^(p^i) - x peels off the product
    of all degree-i factors.
    """
    f = [c % p for c in coeffs]
    degrees = []
    i = 1
    while len(f) - 1 >= 1:
        d = len(f) - 1
        if i > d:
            break
        xpi = x_pow_mod(p**i, f, p)
        xpi_minus_x = list(xpi)
        if len(xpi_minus_x) < 2:
            xpi_minus_x = xpi_minus_x + [0] * (2 - len(xpi_minus_x))
        xpi_minus_x[1] = (xpi_minus_x[1] - 1) % p
        g = poly_gcd_mod_p(f, xpi_minus_x, p)
        if len(g) - 1 >= 1:
            degrees.extend([i] * ((len(g) - 1) // i))
            f = poly_divexact_mod_p(f, g, p)
        i += 1
    if len(f) - 1 >= 1:
        degrees.append(len(f) - 1)
    return sorted(degrees, reverse=True)


def poly_divexact_mod_p(f: list[int], g: list[int], p: int) -> list[int]:
    """Exact quotient f / g over F_p (g monic, assumed to divide f)."""
    f = [c % p for c in f]
    out = [0] * (len(f) - len(g) + 1)
    while f and len(f) >= len(g):
        c = f[-1]
        k = len(f) - len(g)
        out[k] = c
        f = [(fi - c * g[i - k]) % p if i >= k else fi for i, fi in enumerate(f)]
        while f and f[-1] == 0:
            f.pop()
    return out


def rational_roots_of_monic_cubic(a: Fraction | int, b: Fraction | int) -> list[Fraction]:
    """Rational roots of x^3 + a*x + b with rational a, b."""
    a, b = Fraction(a), Fraction(b)
    # clear denominators: x = y/t turns the cubic into a monic integer one
    t = math.lcm(a.denominator, b.denominator)
    # y^3 + (a t^2) y + (b t^3) = 0 with y = t x; coefficients are integers
    A = a * t * t
    B = b * t * t * t
    assert A.denominator == 1 and B.denominator == 1
    return [Fraction(y, t) for y in _integer_roots_monic_cubic(int(A), int(B))]


def _integer_roots_monic_cubic(A: int, B: int) -> list[int]:
    """Sorted integer roots of f(y) = y^3 + A*y + B, found without factoring B.

    f is monotone on the integers of each piece cut at the critical points
    +-sqrt(-A/3), so bisection finds the one possible root of each piece.  A
    root y != 0 has y^2 = -A - B/y <= |A| + |B|, which bounds the search.
    """
    f = lambda y: y * y * y + A * y + B
    R = math.isqrt(abs(A) + abs(B)) + 1
    if A >= 0:
        pieces = [(-R, R, 1)]
    else:
        c = math.isqrt(-A // 3)  # floor of sqrt(-A/3)
        pieces = [(-R, -c - 1, 1), (-c, c, -1), (c + 1, R, 1)]
    roots = []
    for lo, hi, sign in pieces:
        # least y in [lo, hi] with sign * f(y) >= 0
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * f(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        if f(lo) == 0:
            roots.append(lo)
    return roots
