"""Small number-theory helpers used throughout the package."""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ResourceCapError


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


def poly_mulmod(f: np.ndarray, g: np.ndarray, mod_poly: np.ndarray, p) -> np.ndarray:
    """Product of f and g modulo (mod_poly, p), mod_poly monic.  Each is an
    int64 array of coefficient rows, little-endian, and the arithmetic runs
    elementwise over the axes after the first, with p one prime or one prime
    per entry, so one call reduces many polynomials at once.  The rows of f
    and g lie in [0, p); the products are exact while deg(mod_poly) p^2 <
    2^63.  One shifted multiply-add per row of f, then one
    multiply-subtract per power of x the reduction removes."""
    d = len(mod_poly) - 1
    prod = np.zeros((max(len(f) + len(g) - 1, d), *f.shape[1:]), dtype=np.int64)
    for i, fi in enumerate(f):
        prod[i : i + len(g)] += fi * g
    prod %= p
    for i in range(len(prod) - 1, d - 1, -1):
        prod[i - d : i] = (prod[i - d : i] - prod[i] * mod_poly[:d]) % p
    return prod[:d]


def poly_pow_mod(base: np.ndarray, e, mod_poly: np.ndarray, p) -> np.ndarray:
    """base^e modulo (mod_poly, p), on coefficient rows like poly_mulmod.  e
    is an int, or an int64 array with one exponent per entry: each bit is
    then a masked multiply, and entries of different exponents share every
    squaring."""
    result = np.zeros((len(mod_poly) - 1, *mod_poly.shape[1:]), dtype=np.int64)
    result[0] = 1
    base = poly_mulmod(result[:1], base, mod_poly, p)
    per_entry = not isinstance(e, int)
    while e.any() if per_entry else e:
        if per_entry:
            result = np.where(e & 1, poly_mulmod(result, base, mod_poly, p), result)
        elif e & 1:
            result = poly_mulmod(result, base, mod_poly, p)
        base = poly_mulmod(base, base, mod_poly, p)
        e = e >> 1
    return result


def factor_degrees_mod_p(coeffs: list[int], p: int) -> list[int]:
    """Degrees of the irreducible factors of a squarefree monic poly mod p.

    Distinct-degree factorization: gcd with x^(p^i) - x peels off the product
    of all degree-i factors, and x^(p^i) is the p-th power of x^(p^(i-1)),
    reduced modulo what is left of f.  The int64 arithmetic of poly_mulmod
    is exact while deg(f) p^2 < 2^63; a larger p is refused with
    ResourceCapError.
    """
    if (len(coeffs) - 1) * p * p >= 1 << 63:
        raise ResourceCapError(f"factor_degrees_mod_p takes deg(f) p^2 < 2^63, got p={p} at degree {len(coeffs) - 1}")
    f = [c % p for c in coeffs]
    degrees, xpi, i = [], np.array([0, 1]), 1
    while i <= len(f) - 1:
        xpi = poly_pow_mod(xpi, p, np.array(f), p)
        xpi_minus_x = np.append(xpi, 0)
        xpi_minus_x[1] -= 1
        g, k = _gcd_rows(np.array(f)[:, None], xpi_minus_x[:, None] % p, p)
        if k[0] >= 1:
            degrees.extend([i] * (int(k[0]) // i))
            f = poly_divexact_mod_p(f, g[: k[0] + 1, 0].tolist(), p)
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


# roots_mod_primes evaluates f at every c in F_p below this prime and splits
# above it (it must exceed 2, where no square splits).  Measured on a 2-vCPU
# host, per chunk of primes of a numfield walk, for x^2 + 2, x^3 + x + 1 and
# x^4 - x^2 + 1: the primes in [512, 1024) took 3.5, 3.0 and 3.4 ms to
# evaluate and 6.0, 9.2 and 17.9 ms to split; those in [1024, 2048) 14.4,
# 10.9 and 13.8 ms to evaluate and 5.8, 12.6 and 23.5 ms to split; those in
# [2048, 4096) 48-55 ms to evaluate and 7.0-25.5 ms to split.  Quadratic
# fields, the most walked to the end, gain most from splitting early.
ROOT_SPLIT_FROM = 1024
# _split_roots tries a window of _SPLIT_COLUMNS // m consecutive deltas at once
# on each of the m factors left, while m < _SPLIT_COLUMNS, so that the last few
# factors of a chunk take fewer rounds.  Walking the 74 fields of the
# benchmark's certify pool to 10^4 (numfield.degree_one_primes, 2-vCPU host,
# medians of 7 interleaved runs in one process) took 3.67 s with one delta per
# round, and 2.82, 2.44, 3.08 and 7.51 s at 32, 128, 512 and 2048; a second
# set read 2.76, 2.46 and 2.61 s at 64, 128 and 256.
_SPLIT_COLUMNS = 128


def roots_mod_primes(f: list[int], primes) -> tuple[np.ndarray, np.ndarray]:
    """The roots of the monic integer polynomial f (little-endian) modulo
    each of the ascending primes p (deg(f) p^2 < 2^63), as two int64 arrays
    (p, c) of the pairs with f(c) = 0 mod p, in increasing order of p and
    then of c.

    Below ROOT_SPLIT_FROM, f is evaluated at every c in F_p, for all those
    primes in one flat pass.  Above it the roots are split out by
    Cantor-Zassenhaus (Cohen, GTM 138, 1.6), every prime a lane of the
    elementwise polynomial arithmetic: with e = (p - 1) / 2 and
    w = (x + delta)^e mod g, the roots of g are -delta (if g(-delta) = 0)
    and those of gcd(g, w - 1) and of gcd(g, w + 1).  The first round takes
    g = f and delta = 0, which also drops the factors of f with no root, as
    gcd(f, x^p - x) would, since x^p - x = x (x^e - 1)(x^e + 1).  Later
    rounds take the next deltas on the factors of degree >= 2 left, all of
    whose roots lie in F_p; delta = -c splits off the root c, so the rounds
    end by delta = p.
    """
    primes = np.asarray(primes, dtype=np.int64)
    small, large = primes[primes < ROOT_SPLIT_FROM], primes[primes >= ROOT_SPLIT_FROM]
    p = np.repeat(small, small)
    c = np.arange(p.size) - np.repeat(np.cumsum(small) - small, small)
    value = np.zeros(p.size, dtype=np.int64)
    for coeff in reversed(f):
        value = (value * c + _residues(coeff, p)) % p
    lane, root = _split_roots(f, large)
    order = np.lexsort((root, lane))
    return np.concatenate([p[value == 0], large[lane[order]]]), np.concatenate([c[value == 0], root[order]])


def _residues(n: int, p: np.ndarray) -> np.ndarray:
    """n mod each entry of the int64 array p, for an int n of any size."""
    if abs(n) < 1 << 62:
        return n % p
    return (n % p.astype(object)).astype(np.int64)


def _split_roots(f: list[int], p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lane, root) for every root of f mod p[lane], p odd primes, by the
    rounds of roots_mod_primes.  A round takes every factor g left at once,
    each at a window of t consecutive deltas (t = 1 unless fewer than
    _SPLIT_COLUMNS factors are left): one power, modulo x^(deg f - deg g) g
    so that every modulus has the degree of f, and one gcd call for w - 1
    and w + 1 side by side.  Each factor moves on by the first delta of its
    window where neither gcd is the whole factor, or stays whole for the
    next window."""
    d = len(f) - 1
    rows = np.arange(d + 1)[:, None]
    lanes, roots = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    # factor i left lies in lane[i], as column i of g, of degree k[i]
    lane, g, k = np.arange(p.size), np.array([_residues(c, p) for c in f]), np.full(p.size, d)
    delta = 0
    while lane.size:
        m = lane.size
        t = max(1, _SPLIT_COLUMNS // m)
        # column r m + i tries factor i at delta + r; the gcds take w - 1 in
        # the first t m columns and w + 1 in the next
        at = np.repeat(np.arange(delta, delta + t), m)
        q, tried, shift = np.tile(p[lane], t), np.tile(g, t), d - np.tile(k, t)
        value = 0
        for coeff in tried[::-1]:
            value = (value * (q - at) + coeff) % q
        modulus = np.take_along_axis(tried, np.maximum(rows - shift, 0), axis=0) * (rows >= shift)
        w = np.vstack([poly_pow_mod(np.array([at, np.ones_like(at)]), (q - 1) // 2, modulus, q), np.zeros_like(q)])
        q2 = np.tile(q, 2)
        parts, degree = _gcd_rows(np.hstack([tried, tried]), np.hstack([w - (rows == 0), w + (rows == 0)]) % q2, q2)
        split = (degree.reshape(2, t, m) != k).all(axis=0) | (k == 1)
        moved = split.any(axis=0)
        col = split.argmax(axis=0)[moved] * m + np.flatnonzero(moved)
        hit = col[value[col] == 0]
        halves = np.concatenate([col, col + t * m])
        linear, more = halves[degree[halves] == 1], halves[degree[halves] >= 2]
        lanes += [lane[hit % m], lane[linear % m]]
        roots += [(q - at)[hit] % q[hit], -parts[0, linear] % q2[linear]]
        lane = np.concatenate([lane[more % m], lane[~moved]])
        g = np.hstack([parts[:, more], g[:, ~moved]])
        k = np.concatenate([degree[more], k[~moved]])
        delta += t
    return np.concatenate(lanes), np.concatenate(roots)


def _gcd_rows(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(monic gcd, its degree) of the polynomials a[:, k] and b[:, k] over
    F_p[k] for every column k (coefficient rows little-endian, a nonzero).
    Euclid by cross-multiplied steps a <- lc(b) a - lc(a) x^(deg a - deg b) b,
    which need no inverse; each lowers deg a + deg b, swapping a and b when
    b's degree is the larger, until b is 0."""
    rows, cols = np.arange(len(a))[:, None], np.arange(a.shape[1])

    def degree(h):
        nonzero = h != 0
        return np.where(nonzero.any(axis=0), len(h) - 1 - nonzero[::-1].argmax(axis=0), -1)

    da, db = degree(a), degree(b)
    while (db >= 0).any():
        swap = db > da
        a, b, da, db = np.where(swap, b, a), np.where(swap, a, b), np.maximum(da, db), np.minimum(da, db)
        shift = rows - (da - db)
        under = np.take_along_axis(b, np.maximum(shift, 0), axis=0) * (shift >= 0)
        a = np.where(db >= 0, (b[db, cols] * a - a[da, cols] * under) % p, a)
        da = degree(a)
    lead = a[da, cols]
    inverse = poly_pow_mod(lead[None], p - 2, np.array([np.zeros_like(lead), np.ones_like(lead)]), p)[0]
    return a * inverse % p, da


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
