"""Small number-theory helpers used throughout the package."""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def primes_up_to(bound: int) -> tuple[int, ...]:
    """All primes p <= bound, ascending; memoized, so the result is an
    immutable tuple that every caller shares."""
    if bound < 2:
        return ()
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return tuple(np.flatnonzero(sieve).tolist())


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


# Pollard-Brent steps per polynomial before a cofactor is left to sympy
RHO_STEPS = 1 << 16
_TRIAL_PRIMES = primes_up_to(1 << 10)


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| (|n| >= 1), primes ascending: trial
    division by the primes q below 2^10 while q^2 <= n, then Pollard-Brent
    rho on the cofactors.  A cofactor that rho does not split within
    RHO_STEPS steps (two large prime factors) is factored by sympy, the only
    use of sympy here; the factorization is unique, so the result never
    depends on which method found it."""
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out: dict[int, int] = {}
    for q in _TRIAL_PRIMES:
        if q * q > n:
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    cofactors = [n] if n > 1 else []
    while cofactors:
        m = cofactors.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = next(filter(None, (_pollard_brent(m, c) for c in (1, 3, 5))), None)
        if d is None:
            import sympy

            for p, e in sympy.factorint(m).items():
                out[int(p)] = out.get(int(p), 0) + int(e)
        else:
            cofactors += [d, m // d]
    return dict(sorted(out.items()))


def _pollard_brent(n: int, c: int) -> int | None:
    """A proper divisor of the odd composite n from Brent's cycle search on
    x^2 + c mod n, or None within RHO_STEPS steps."""
    y, r, q, g, steps = 2, 1, 1, 1, 0
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += 128
        steps += r
        r *= 2
        if steps > RHO_STEPS:
            return None
    if g == n:  # the batched product overshot: replay its steps one at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g if g != n else None


def is_prime(n: int) -> bool:
    """Primality: trial division for n < 2^32, the Baillie-PSW test above
    (a strong Fermat test to base 2 and a strong Lucas test, exact below
    2^64 and with no known counterexample above)."""
    if n >= 1 << 32:
        return all(n % q for q in primes_up_to(100)) and _strong_fermat_2(n) and _strong_lucas(n)
    if n < 4:
        return n >= 2
    if n % 2 == 0 or n % 3 == 0:
        return False
    for q in range(5, math.isqrt(n) + 1, 6):
        if n % q == 0 or n % (q + 2) == 0:
            return False
    return True


def _strong_fermat_2(n: int) -> bool:
    """Strong probable-prime test to base 2 of the odd n > 2."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of the odd n > 2 with no prime factor
    below 100, with Selfridge's parameters: D the first of 5, -7, 9, -11, ...
    with (D/n) = -1, P = 1, Q = (1 - D) / 4."""
    if is_perfect_square(n):  # no such D exists
        return False
    D = 5
    while (j := kronecker(D, n)) != -1:
        if j == 0:  # D shares a factor with n > |D|
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1

    def half(v):
        v %= n
        return (v + n if v % 2 else v) // 2

    # U_k, V_k and Q^k mod n, for k running over the leading bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def euler_phi(m: int) -> int:
    for q in factorint(m):
        m = m // q * (q - 1)
    return m


def primitive_root(n: int) -> int:
    """The least unit mod n of order phi(n); ValueError if there is none."""
    phi = euler_phi(n)
    for g in range(1, n):
        if math.gcd(g, n) == 1 and all(pow(g, phi // q, n) != 1 for q in factorint(phi)):
            return g
    raise ValueError(f"no primitive root mod {n}")


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


def integer_roots_monic(coeffs: list[int]) -> list[int]:
    """Sorted distinct integer roots of the monic integer polynomial f with
    the little-endian coeffs, found without factoring the constant term.

    Every root has |y| < R, the least R >= 0 with R^n > sum |a_i| R^i
    (Cauchy), found by bisection in [0, S], S = 1 + sum |a_i|.  The finite
    difference g(y + 1) - g(y) of a degree-k g has degree k - 1, and g is
    monotone on every run of integers where it keeps one sign.  Cutting
    [-R, R] at the sign change of each difference of f in turn, from the
    linear one down, leaves 2^(n-1) runs (some empty) with f monotone, and
    bisection finds f's first root in each; a run's roots are consecutive.
    The cost grows with the number of digits of the coefficients only.

    The bisections run elementwise, like poly_mulmod, on coefficients that
    are Python ints (one polynomial of any size) or int64 arrays (one per
    entry, read by least_integer_root).  On int64 the caller keeps every
    value below 2^63: below 2 (2S)^n while finding R, 2^n S (3R + n)^n after.
    """
    roots = set()
    for y, hi in _monotone_runs(coeffs):
        while y <= hi and _evaluate(coeffs, y) == 0:
            roots.add(y)
            y += 1
    return sorted(roots)


def least_integer_root(coeffs):
    """(found, y), elementwise as in integer_roots_monic: whether f has an
    integer root, and its least one (0 if none)."""
    found, least = False, 0
    for y, hi in reversed(_monotone_runs(coeffs)):
        hit = (y <= hi) & (_evaluate(coeffs, y) == 0)
        found, least = found | hit, least + (y - least) * hit
    return found, least


def _monotone_runs(coeffs) -> list:
    """The runs [lo, hi] of integer_roots_monic in increasing order, as (y,
    hi), y f's first root in the run if any; empty runs (lo > hi) are kept,
    so every entry of an array has the same runs."""
    n = len(coeffs) - 1
    S = 1 + sum(abs(c) for c in coeffs[:-1])
    # R^n - sum |a_i| R^i - 1 changes sign once on R >= 0, and is > 0 at S
    R = _first_nonnegative([-abs(coeffs[0]) - 1, *(-abs(c) for c in coeffs[1:-1]), 1], 0, S, _powers_of_two(S))
    bits = _powers_of_two(2 * R + 1)
    diffs = [list(coeffs)]
    for _ in range(n - 1):  # g(y + 1) - g(y) = sum over i < k of C(k, i) g_k y^i
        g = diffs[-1]
        diffs.append([sum(math.comb(k, i) * g[k] for k in range(i + 1, len(g))) for i in range(len(g) - 1)])
    runs = [(-R, R, 1)]  # (lo, hi, s), s = +-1 with s g non-decreasing on the run
    for g in reversed(diffs[1:]):
        # s g < 0 on [lo, c - 1] and >= 0 on [c, hi]: g's antidifference runs
        # against s on the first and with s on the second, one step further
        cut = []
        for lo, hi, s in runs:
            c = _first_nonnegative([s * a for a in g], lo, hi, bits)
            cut += [(lo, c - 1 + ((lo < c) & (c <= R)), -s), (c, hi + ((c <= hi) & (hi < R)), s)]
        runs = cut
    return [(_first_nonnegative([s * a for a in coeffs], lo, hi, bits), hi) for lo, hi, s in runs]


def _powers_of_two(x) -> list[int]:
    """2^(k-1), ..., 2, 1 for the least k with 2^k > every entry of x >= 0."""
    return [1 << k for k in reversed(range(max(np.ravel(x).tolist(), default=0).bit_length()))]


def _evaluate(coeffs: list, y):
    v = 0
    for c in reversed(coeffs):
        v = v * y + c
    return v


def _first_nonnegative(g: list, lo, hi, bits: list[int]):
    """The least y in [lo, hi] with g(y) >= 0, or hi + 1, for g negative
    exactly on an initial run of [lo, hi]: binary lifting from lo - 1 by the
    powers of two in bits, whose sum must reach the answer minus lo."""
    y = lo - 1
    for b in bits:
        y = y + b * ((y + b <= hi) & (_evaluate(g, y + b) < 0))
    return y + 1
