"""Jacobian probe for pairs of polynomials in two variables.

The ring k[x, y] is viewed asymmetrically as polynomials in y whose
coefficients are rational functions of x.  Under that view a pair (f, g)
with constant nonzero Jacobian determinant should have both y-derivatives
inside k(x)[f, g], which the degree-semigroup engine can decide with exact
certificates over k(x).  A generator for tame automorphism pairs provides
positive instances.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .field_poly import BivarExpr, Fraction, Poly, RatFunc
from .subalgebra import MembershipResult, _Frozen, is_member

__all__ = [
    "BiPoly",
    "Prop21Report",
    "jacobian_det",
    "prop21_probe",
    "random_tame_automorphism",
]


class BiPoly(_Frozen):
    """Polynomial in x and y, stored as a Poly in y over RatFunc(x).

    Genuinely polynomial inputs keep denominator 1 throughout; the
    rational-function coefficients only matter for derivative quotients.
    """

    __slots__ = ("yp",)

    def __init__(self, yp: Poly):
        object.__setattr__(self, "yp", yp)

    def __repr__(self):
        return f"BiPoly(yp={self.yp!r})"

    @classmethod
    def from_terms(cls, terms) -> "BiPoly":
        """Build from a map (x-exponent, y-exponent) -> rational coeff."""
        x = RatFunc.x()
        by_j = {}
        for (i, j), c in terms.items():
            by_j[j] = by_j.get(j, RatFunc(0)) + x**i * Fraction(c)
        top = max(by_j, default=-1)
        return cls(Poly([by_j.get(j, RatFunc(0)) for j in range(top + 1)], RatFunc))

    @classmethod
    def x(cls) -> "BiPoly":
        return cls(Poly.constant(RatFunc.x(), RatFunc))

    @classmethod
    def y(cls) -> "BiPoly":
        return cls(Poly.variable(RatFunc))

    @classmethod
    def constant(cls, c) -> "BiPoly":
        return cls(Poly.constant(RatFunc(c), RatFunc))

    @property
    def y_degree(self):
        return self.yp.degree

    def __add__(self, other):
        return BiPoly(self.yp + other.yp)

    def __sub__(self, other):
        return BiPoly(self.yp - other.yp)

    def __neg__(self):
        return BiPoly(-self.yp)

    def __mul__(self, other):
        return BiPoly(self.yp * other.yp)

    def __pow__(self, e: int):
        return BiPoly(self.yp**e)

    def scale(self, c) -> "BiPoly":
        return BiPoly(self.yp.scale(RatFunc(c)))

    def partial_y(self) -> "BiPoly":
        return BiPoly(self.yp.derivative())

    def partial_x(self) -> "BiPoly":
        return BiPoly(Poly(tuple(c.derivative() for c in self.yp.coeffs), RatFunc))

    def is_scalar(self) -> bool:
        """Constant in both variables."""
        return self.yp.is_constant and self.yp.constant_value().is_rational_constant

    def scalar_value(self):
        v = self.yp.constant_value()
        if not v.is_rational_constant:
            raise ValueError("value depends on x")
        num = v.num.constant_value()
        den = v.den.constant_value()
        return num / den

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.yp == other.yp

    def __hash__(self):
        return hash(("amoh.BiPoly", self.yp))


Prop21Report = namedtuple("Prop21Report", "jacobian_constant fy_member gy_member")


def jacobian_det(f: BiPoly, g: BiPoly) -> BiPoly:
    """f_x * g_y - f_y * g_x, exactly."""
    return f.partial_x() * g.partial_y() - f.partial_y() * g.partial_x()


def prop21_probe(f: BiPoly, g: BiPoly) -> Prop21Report:
    """Whether the Jacobian determinant is a nonzero scalar, plus the
    memberships of f_y and g_y in k(x)[f, g].

    When both inputs have y-degree 0 the subalgebra over k(x) is trivial
    and both derivatives are 0, which is a member of anything; that case
    short-circuits with empty certificates.
    """
    det = jacobian_det(f, g)
    det_scalar = det.is_scalar() and bool(det.yp.constant_value())
    if f.yp.is_constant and g.yp.is_constant:
        trivial = MembershipResult(True, BivarExpr.zero(), None)
        return Prop21Report(det_scalar, trivial, trivial)
    fy = is_member(f.partial_y().yp, f.yp, g.yp)
    gy = is_member(g.partial_y().yp, f.yp, g.yp)
    return Prop21Report(det_scalar, fy, gy)


def random_tame_automorphism(seed: int, steps: int, max_deg: int = 16):
    """Random tame automorphism image of (x, y): composes elementary
    substitutions (adding a polynomial in one generator to the other via a
    swap-conjugated triangular map), swaps, and nonzero scalings.  The
    Jacobian determinant stays a nonzero scalar by the chain rule.  Moves
    that would push the y-degree past max_deg fall back to lower
    substitution degrees.  Deterministic in seed.
    """
    rng = random.Random(seed)
    cur_f, cur_g = BiPoly.x(), BiPoly.y()
    for _ in range(steps):
        move = rng.choice(("sub", "sub", "swap", "scale"))
        if move == "swap":
            cur_f, cur_g = cur_g, cur_f
            continue
        if move == "scale":
            c1 = rng.choice((-3, -2, -1, 1, 2, 3))
            c2 = rng.choice((-3, -2, -1, 1, 2, 3))
            cur_f, cur_g = cur_f.scale(c1), cur_g.scale(c2)
            continue
        pdeg = rng.randint(1, 2)
        while pdeg and pdeg * max(cur_f.y_degree, 0) > max_deg:
            pdeg -= 1
        coeffs = [rng.randint(-3, 3) for _ in range(pdeg + 1)]
        while not coeffs[-1]:
            coeffs[-1] = rng.randint(-3, 3)
        shift = BiPoly.constant(0)
        for c in reversed(coeffs):
            shift = shift * cur_f + BiPoly.constant(c)
        cur_g = cur_g + shift
    return cur_f, cur_g
