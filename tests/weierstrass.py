"""Long Weierstrass models y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, as
an independent reference for the short models y^2 = x^3 + ax + b that galmax
builds: the standard invariants (Silverman, The Arithmetic of Elliptic
Curves, III.1) and the short model they give."""
from fractions import Fraction
from typing import NamedTuple

from galmax import ecff


class Invariants(NamedTuple):
    c4: object
    c6: object
    disc: object
    j: object  # None over a number field


def invariants(a1, a2, a3, a4, a6) -> Invariants:
    """c4, c6, Delta and j = c4^3 / Delta, in whatever exact ring the
    coefficients live in (int, Fraction or a number-field element).  Field
    elements have no division, so over a field j is None: compare two j as
    c4^3 Delta' = c4'^3 Delta."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    j = Fraction(c4 * c4 * c4) / disc if isinstance(disc, (int, Fraction)) else None
    return Invariants(c4, c6, disc, j)


def short_model(a1, a2, a3, a4, a6) -> ecff.ShortWeierstrass:
    """Complete the square and cube: the short model (-27 c4, -54 c6), with the
    same j and a discriminant 6^12 times the long one.  Already-short input
    passes through."""
    if not a1 and not a2 and not a3:
        return ecff.validate(a4, a6)
    c4, c6, _, _ = invariants(a1, a2, a3, a4, a6)
    return ecff.validate(-27 * c4, -54 * c6)
