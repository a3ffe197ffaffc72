"""Monogenic number fields k = Q[x]/(f): power-basis arithmetic, degree-one
primes, and one-sided certificates that roots of a discriminant do not lie in
the cyclotomic closure of k.

The certificates rest on one fact: if the r-th root of Delta lies in
k^cyc = k * Q^cyc, the residue symbol of Delta at a degree-one prime (p, c)
is determined by p modulo a conductor supported on the primes dividing
2 * 3 * disc(f) * Norm(Delta).  Any incoherence with that shape (two primes
over the same p disagreeing, or every candidate character refuted) certifies
that the root is NOT cyclotomic.  One residue-incoherence loop serves both
r = 2 and r = 3; the square- and cube-root certificates only build its
candidate characters.  The certificates never assert the positive direction.

What belongs to the field alone is found once per field: the roots of f mod
p, in chunks of primes that a small memo keyed on the field keeps for the
stream and both residue certificates to read, and the memoized
``mu_n_membership`` and ``cyclotomic_intersection_certificate``.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from . import nt
from .errors import BadReductionError, InvalidInputError
from .verdict import Verdict, certified, inconclusive

CANDIDATE_CHARACTER_CAP = 4096
FACTOR_DIGIT_CAP = 70


class MonogenicField:
    """Q[x]/(f) for a monic irreducible integer polynomial f of degree >= 2."""

    def __init__(self, coeffs: Iterable[int]):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) < 3 or coeffs[-1] != 1:
            raise InvalidInputError("need a monic integer polynomial of degree >= 2 (little-endian, leading 1)")
        self.coeffs = coeffs
        self.degree = len(coeffs) - 1
        if not _is_irreducible(coeffs):
            raise InvalidInputError(f"{_poly_text(coeffs)} is reducible over Q")
        # reduction table: x^k mod f for k = d .. 2d-2, as integer rows
        d = self.degree
        rows = []
        rows.append([-c for c in coeffs[:d]])  # x^d
        for _ in range(d - 2):
            prev = rows[-1]
            shifted = [0] + prev[:-1]
            shifted = [s + prev[-1] * r for s, r in zip(shifted, rows[0])]
            rows.append(shifted)
        self._reduction_rows = rows
        # disc f = (-1)^(d(d-1)/2) Res(f, f') = (-1)^(d(d-1)/2) N(f'(alpha)) for monic f
        derivative = self.elem([k * c for k, c in enumerate(coeffs) if k])
        self.disc_f = (-1) ** (d * (d - 1) // 2) * int(derivative.norm())

    def __eq__(self, other):
        return isinstance(other, MonogenicField) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"MonogenicField({_poly_text(self.coeffs)})"

    def elem(self, coeffs) -> "FieldElem":
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            raise InvalidInputError("coefficient list longer than the field degree")
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        return FieldElem(self, tuple(coeffs))

    def alpha(self) -> "FieldElem":
        return self.elem([0, 1])


@dataclass(frozen=True)
class FieldElem:
    """Element of a monogenic field in the power basis, exact rationals."""

    field: MonogenicField
    coeffs: tuple[Fraction, ...]

    def _check(self, other):
        if self.field != other.field:
            raise InvalidInputError("elements of different fields")

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElem(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElem(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return FieldElem(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        out = prod[:d]
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                row = self.field._reduction_rows[k - d]
                for j in range(d):
                    out[j] += c * row[j]
        return FieldElem(self.field, tuple(out))

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.elem([other])
        return NotImplemented

    def __bool__(self):
        return any(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _matrix(self) -> list[list[Fraction]]:
        """The matrix of multiplication by self in the power basis: column j
        holds the coordinates of self * alpha^j."""
        columns, x = [], self
        for _ in range(self.field.degree):
            columns.append(x.coeffs)
            x = x * self.field.alpha()
        return [list(row) for row in zip(*columns)]

    def norm(self) -> Fraction:
        """Field norm: the determinant of multiplication by self (the
        resultant of f with the representing polynomial), by Gaussian
        elimination over Q."""
        rows, det = self._matrix(), Fraction(1)
        for col in range(len(rows)):
            pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                rows[col], rows[pivot], det = rows[pivot], rows[col], -det
            lead = rows[col][col]
            det *= lead
            for r in range(col + 1, len(rows)):
                if rows[r][col]:
                    factor = rows[r][col] / lead
                    rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
        return det

    def denominator_lcm(self) -> int:
        return math.lcm(*(c.denominator for c in self.coeffs))

    def __repr__(self):
        return f"FieldElem({list(self.coeffs)})"


def _is_irreducible(coeffs: tuple[int, ...]) -> bool:
    """Irreducibility over Q of a monic integer polynomial (little-endian).

    By Gauss's lemma a factorization over Q is one into monic integer
    factors, so up to degree 3 the polynomial is irreducible iff it has no
    integer root, and in degree 4 iff also it is no product of two monic
    integer quadratics (x^2 + bx + c)(x^2 + ex + g).  For f = x^4 + a3 x^3
    + a2 x^2 + a1 x + a0 with roots r_i, c + g is then an integer root of
    the resolvent cubic y^3 - a2 y^2 + (a1 a3 - 4 a0) y + 4 a0 a2 - a0 a3^2
    - a1^2, whose roots are r1 r2 + r3 r4 and its conjugates; c and g are
    the roots of t^2 - (c + g) t + a0, and b and e those of
    t^2 - a3 t + a2 - (c + g).  Every step finds integer roots by
    bisection, so no coefficient is factored.
    Degrees above 4 are left to sympy.
    """
    d = len(coeffs) - 1
    if d > 4:
        import sympy

        return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x")).is_irreducible
    if nt.integer_roots_monic(list(coeffs)):
        return False
    if d < 4:
        return True
    a0, a1, a2, a3, _ = coeffs
    resolvent = [4 * a0 * a2 - a0 * a3 * a3 - a1 * a1, a1 * a3 - 4 * a0, -a2, 1]
    for s in nt.integer_roots_monic(resolvent):
        cg = nt.integer_roots_monic([a0, -s, 1])  # c g = a0, c + g = s
        be = nt.integer_roots_monic([a2 - s, -a3, 1])  # b e = a2 - s, b + e = a3
        if cg and be:
            (c, g), (b, e) = (cg[0], cg[-1]), (be[0], be[-1])
            if a1 in (b * g + c * e, b * c + e * g):
                return False
    return True


def _poly_text(coeffs) -> str:
    """An integer polynomial (little-endian coefficients) written in x, the
    highest degree first, e.g. x**3 + x + 1."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            power = "" if k == 0 else "x" if k == 1 else f"x**{k}"
            body = str(abs(c)) if not power else power if abs(c) == 1 else f"{abs(c)}*{power}"
            terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in terms[1:])


class DegreeOnePrime(NamedTuple):
    """A degree-one prime (p, c) of Z[alpha]: f(c) = 0 mod p, p coprime to
    disc(f), with residue field F_p via alpha -> c."""

    p: int
    c: int


_FIRST_ROOT_BOUND = 64


def degree_one_primes(K: MonogenicField, bound: int) -> Iterator[DegreeOnePrime]:
    """The degree-one primes (p, c) with p <= bound, p coprime to disc(f),
    in increasing order of p and then of c.  They are read lazily from the
    field's memo (_found_roots), which finds the roots of f mod p in chunks
    of primes, each to twice the bound of the one before (the first to
    _FIRST_ROOT_BOUND), and never beyond the bound asked for: a caller that
    stops early pays for primes up to about twice the last one it read, and
    the walks that read one field's primes again (the stream and the
    residue certificates) share the roots found."""
    if bound < 2:
        raise InvalidInputError("bound must be >= 2")
    return _degree_one_primes(K, bound)


def _degree_one_primes(K: MonogenicField, bound: int) -> Iterator[DegreeOnePrime]:
    found = _found_roots(K)
    for i in itertools.count():
        if i == len(found.chunks):
            if found.bound >= bound:
                return
            found.extend(min(max(2 * found.bound, _FIRST_ROOT_BOUND), bound), nt.primes_up_to(bound))
        p, c = found.chunks[i]
        for q, r in zip(p.tolist(), c.tolist()):
            if q > bound:
                return
            yield DegreeOnePrime(q, r)


class _Roots:
    """The degree-one primes of one field found so far: every one with
    p <= bound, as chunks of int64 arrays (p, c) in walk order."""

    def __init__(self, K: MonogenicField):
        self.K, self.bound, self.chunks = K, 1, []

    def extend(self, bound: int, primes: tuple[int, ...]) -> None:
        """Find the roots at the primes p in (self.bound, bound], read off
        primes, which holds them all."""
        lo, hi = bisect.bisect_right(primes, self.bound), bisect.bisect_right(primes, bound)
        self.chunks.append(nt.roots_mod_primes(self.K.coeffs, [q for q in primes[lo:hi] if self.K.disc_f % q]))
        self.bound = bound


@lru_cache(maxsize=8)
def _found_roots(K: MonogenicField) -> _Roots:
    """The memo of K's degree-one primes, for the few fields used last: at
    the largest prime bound (10^6) it holds some 78 000 roots, 1.25 MB."""
    return _Roots(K)


def reduce_elem(x: FieldElem, P: DegreeOnePrime) -> int:
    """Image of x in the residue field F_p of (p, c)."""
    p, c = P
    total = 0
    for i, coeff in enumerate(x.coeffs):
        if coeff.denominator % p == 0:
            raise BadReductionError(f"denominator divisible by p={p}")
        total += coeff.numerator * pow(coeff.denominator, -1, p) * pow(c, i, p)
    return total % p


# ---------------------------------------------------------------------------
# certificates


def _integerize_power_class(delta: FieldElem, r: int) -> FieldElem:
    """Multiply by an r-th power of a rational to land in Z[alpha] (this does
    not change the class of delta modulo r-th powers)."""
    t = delta.denominator_lcm()
    return delta * Fraction(t**r)


def _support_primes(K: MonogenicField, n: int) -> list[int] | None:
    """Odd primes dividing disc(f) * n != 0; None when factoring is hopeless."""
    targets = abs(K.disc_f) * abs(n)
    if targets >= 10**FACTOR_DIGIT_CAP:  # more than FACTOR_DIGIT_CAP digits
        return None
    return sorted(q for q in nt.factorint(targets) if q != 2)


def _residue_incoherence(d0: FieldElem, n: int, r: int, prime_budget: int, characters: dict | None) -> Verdict:
    """Certify that the r-th root (r = 2 or 3) of the integral d0 of norm n
    is not in k^cyc, from whether d0 is an r-th power at the degree-one
    primes (p, c), p = 1 mod r, p <= prime_budget, p coprime to 2 r disc(f) n.

    characters maps each candidate label to "is this character trivial at
    p"; the trivial character is a candidate too.  Two primes over one p
    that disagree certify, and so does refuting every candidate; None (the
    candidates are unknown) leaves only the first.  Witnesses show Legendre
    symbols and discriminants D for r = 2, cube flags and exponent vectors
    for r = 3.
    """
    K, quadratic = d0.field, r == 2
    show = (lambda flag: 1 if flag else -1) if quadratic else bool  # a Legendre symbol or a cube flag
    alive, trivial_alive, witnesses, flag_by_p = list(characters or ()), True, [], {}
    bad = 2 * r * abs(K.disc_f) * abs(n)
    for P in degree_one_primes(K, prime_budget):
        if P.p % r != 1 or bad % P.p == 0:
            continue
        flag = pow(reduce_elem(d0, P), (P.p - 1) // r, P.p) == 1  # d0 is a unit at P: P does not divide n
        if flag_by_p.setdefault(P.p, flag) != flag:
            key = "symbols" if quadratic else "cube_flags"
            witnesses.append({"kind": "same-norm incoherence", "p": P.p, key: [show(not flag), show(flag)]})
            on = "" if quadratic else " on cube-ness"
            return certified(*witnesses, mechanism=f"two degree-one primes over one p disagree{on}")
        if trivial_alive and not flag:
            trivial_alive = False
            trivial = {"kind": "trivial character refuted", "p": P.p, "c": P.c}
            witnesses.append(trivial | {"symbol": -1} if quadratic else trivial)
        survivors = []
        for label in alive:
            if characters[label](P.p) == flag:
                survivors.append(label)
            elif quadratic:
                witnesses.append({"kind": "character refuted", "D": label, "p": P.p, "c": P.c, "symbol": show(flag)})
            else:
                witnesses.append({"kind": "character refuted", "exponents": list(label), "p": P.p})
        alive = survivors
        if characters is not None and not trivial_alive and not alive:
            kind = "quadratic" if quadratic else "cubic"
            return certified(*witnesses, mechanism=f"all candidate {kind} characters refuted")
    return inconclusive(
        surviving_characters=[str(label) for label in alive] + (["trivial"] if trivial_alive else []),
        primes_scanned=len(flag_by_p),
        note=f"{'symbols' if quadratic else 'cube residues'} consistent with a cyclotomic character within budget",
    )


def sqrt_cyclotomic_certificate(delta: FieldElem, prime_budget: int = 10**4) -> Verdict:
    """Certify sqrt(delta) not in k^cyc, by quadratic symbol incoherence.

    If sqrt(delta) were cyclotomic, the Legendre symbol of delta mod (p,c) at
    p would agree with a Kronecker symbol (D/p) for some fundamental
    discriminant D supported on the primes of the conductor bound.  The
    certificate refutes every candidate D (including the trivial one) at
    explicit degree-one primes, or finds two primes over one p with
    different symbols.  Failure to refute is reported as inconclusive, never
    as containment.
    """
    K = delta.field
    if delta.is_zero():
        raise InvalidInputError("delta must be nonzero")
    d0 = _integerize_power_class(delta, 2)
    n = int(d0.norm())
    support = _support_primes(K, n)
    if support is None:
        return inconclusive(reason="norm too large to factor for a conductor bound")
    candidates = _fundamental_discriminants(support)
    if len(candidates) > CANDIDATE_CHARACTER_CAP:
        return inconclusive(reason=f"too many candidate characters ({len(candidates)})")
    characters = {D: lambda p, D=D: nt.kronecker(D, p) == 1 for D in candidates}
    return _residue_incoherence(d0, n, 2, prime_budget, characters)


def _fundamental_discriminants(support_odd_primes: list[int]) -> list[int]:
    """Nontrivial fundamental discriminants with prime support in the given
    odd primes and 2."""
    base = [1]
    for q in support_odd_primes:
        q_star = q if q % 4 == 1 else -q
        base = base + [b * q_star for b in base]
    return [D for b in base for D in (b, -4 * b, 8 * b, -8 * b) if D != 1]


def cbrt_cyclotomic_certificate(delta: FieldElem, prime_budget: int = 10**4) -> Verdict:
    """Certify the cube-root condition: either mu_3 is not in k (odd degree),
    or cbrt(delta) is not in k^cyc.

    Cube-ness of delta at degree-one primes p = 1 mod 3 would be a function
    of p modulo a bounded conductor if cbrt(delta) were cyclotomic.  Two
    primes over the same p with different cube-ness certify incoherence; for
    quadratic fields (where mu_3 in k forces k = Q(sqrt(-3)) up to the
    split condition) single cubic Dirichlet characters are also refuted.
    """
    K = delta.field
    if delta.is_zero():
        raise InvalidInputError("delta must be nonzero")
    if K.degree % 2 == 1:
        return certified(
            {"kind": "degree parity", "degree": K.degree},
            mechanism="odd-degree fields contain no primitive cube root of unity",
        )
    d0 = _integerize_power_class(delta, 3)
    n = int(d0.norm())
    support = _support_primes(K, 3 * n)
    characters = None
    if K.degree == 2 and support is not None:
        cubic_mods = [q for q in support if q % 3 == 1] + [9]
        if 3 ** len(cubic_mods) - 1 <= CANDIDATE_CHARACTER_CAP:
            exponents = itertools.product(range(3), repeat=len(cubic_mods))
            characters = {
                e: lambda p, e=e: sum(ei * _cubic_index(p, q) for ei, q in zip(e, cubic_mods)) % 3 == 0
                for e in exponents
                if any(e)
            }
    return _residue_incoherence(d0, n, 3, prime_budget, characters)


@lru_cache(maxsize=4096)
def _cubic_index(x: int, q: int) -> int:
    """The discrete log mod 3 of the unit x mod q, to the base of the
    smallest primitive root g, for q = 9 and primes q = 1 mod 3 (where cube
    classes are proper): the k with x^(phi/3) = z^k, z = g^(phi/3)."""
    phi = 6 if q == 9 else q - 1
    return _cube_roots_of_unity(q, phi).index(pow(x, phi // 3, q))


@lru_cache(maxsize=128)
def _cube_roots_of_unity(q: int, phi: int) -> list[int]:
    """z^0, z^1, z^2 mod q for z = g^(phi/3), g the smallest primitive root."""
    g = nt.primitive_root(q)
    return [pow(g, k * phi // 3, q) for k in range(3)]


# ---------------------------------------------------------------------------
# roots of unity and cyclotomic intersection


@lru_cache(maxsize=64)
def mu_n_membership(K: MonogenicField, n: int, prime_budget: int = 300) -> Verdict:
    """Is mu_n contained in k?  certified absence or consistent presence;
    memoized, as a property of the field.

    phi(n) must divide the degree for containment; otherwise any degree-one
    prime p with p != 1 mod n (and p coprime to n disc f) is a witness of
    absence, since the residue field of a degree-one prime would have to
    contain n-th roots of unity.
    """
    if n < 2:
        raise InvalidInputError("n must be >= 2")
    phi = nt.euler_phi(n)
    if K.degree % phi != 0:
        return certified(
            {"kind": "degree argument", "phi": phi, "degree": K.degree},
            statement=f"mu_{n} not contained: phi({n}) = {phi} does not divide {K.degree}",
        )
    for P in degree_one_primes(K, prime_budget):
        if (n * K.disc_f) % P.p == 0:
            continue
        if P.p % n != 1:
            return certified(
                {"kind": "witness prime", "p": P.p, "c": P.c, "residue": P.p % n},
                statement=f"mu_{n} not contained: degree-one prime {P.p} is not 1 mod {n}",
            )
    return inconclusive(
        note=f"all degree-one primes up to {prime_budget} are 1 mod {n}; consistent with mu_{n} in k"
    )


@lru_cache(maxsize=64)
def cyclotomic_intersection_certificate(K: MonogenicField, prime_budget: int = 200) -> Verdict:
    """Certify k intersect Q^cyc = Q for odd prime degree fields; memoized,
    as a property of the field.

    A prime-degree field has no intermediate subfields, so a nontrivial
    cyclotomic intersection forces k itself to be abelian, hence cyclic of
    odd prime order, which makes disc(f) a square and every unramified
    Frobenius factor pattern equal-degree.  A nonsquare discriminant or an
    unequal-degree pattern therefore certifies the trivial intersection.
    """
    d = K.degree
    if d == 2 or not nt.is_prime(d):
        return inconclusive(note="certificate applies to odd prime degrees only")
    if K.disc_f < 0 or not nt.is_perfect_square(K.disc_f):
        return certified(
            {"kind": "nonsquare discriminant", "disc": K.disc_f},
            statement="Galois closure is non-abelian, so no subfield lies in Q^cyc",
        )
    abelian = inconclusive(note="consistent with an abelian (cyclotomic) field; not certified")
    if d == 3:
        # an irreducible cubic with square discriminant is cyclic, so each of
        # its unramified patterns is (1,1,1) or (3) and no prime can certify
        return abelian
    for p in nt.primes_up_to(prime_budget):
        if K.disc_f % p == 0:
            continue
        degs = nt.factor_degrees_mod_p(list(K.coeffs), p)
        if len(set(degs)) > 1:
            return certified(
                {"kind": "unequal factor pattern", "p": p, "pattern": degs},
                statement="Frobenius cycle type rules out a cyclic (abelian) Galois group",
            )
    return abelian

