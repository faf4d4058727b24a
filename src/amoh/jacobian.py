"""Jacobian probe for pairs of polynomials in two variables.

The ring k[x, y] is viewed asymmetrically as polynomials in y whose
coefficients are rational functions of x: a plane map is a :class:`Poly`
over :class:`RatFunc`.  Under that view a pair (f, g) with constant nonzero
Jacobian determinant should have both y-derivatives inside k(x)[f, g],
which the degree-semigroup engine can decide with exact certificates over
k(x).  A generator for tame automorphism pairs provides positive instances.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .field_poly import BivarExpr, Poly, RatFunc
from .subalgebra import MembershipResult, is_member

__all__ = [
    "Prop21Report",
    "jacobian_det",
    "prop21_probe",
    "random_tame_automorphism",
]


Prop21Report = namedtuple("Prop21Report", "jacobian_constant fy_member gy_member")


def _partial_x(p: Poly) -> Poly:
    return Poly([c.derivative() for c in p.coeffs], RatFunc)


def jacobian_det(f: Poly, g: Poly) -> Poly:
    """f_x * g_y - f_y * g_x, exactly."""
    return _partial_x(f) * g.derivative() - f.derivative() * _partial_x(g)


def prop21_probe(f: Poly, g: Poly) -> Prop21Report:
    """Whether the Jacobian determinant is a nonzero scalar, plus the
    memberships of f_y and g_y in k(x)[f, g].

    When both inputs have y-degree 0 the subalgebra over k(x) is trivial
    and both derivatives are 0, which is a member of anything; that case
    short-circuits with empty certificates.
    """
    det = jacobian_det(f, g)
    det_scalar = det.is_constant and det.constant_value().is_rational_constant and bool(det)
    if f.is_constant and g.is_constant:
        trivial = MembershipResult(True, BivarExpr.zero(RatFunc), None)
        return Prop21Report(det_scalar, trivial, trivial)
    fy = is_member(f.derivative(), f, g)
    gy = is_member(g.derivative(), f, g)
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
    cur_f, cur_g = Poly.constant(RatFunc.x(), RatFunc), Poly.variable(RatFunc)
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
        while pdeg and pdeg * max(cur_f.degree, 0) > max_deg:
            pdeg -= 1
        coeffs = [rng.randint(-3, 3) for _ in range(pdeg + 1)]
        while not coeffs[-1]:
            coeffs[-1] = rng.randint(-3, 3)
        cur_g = cur_g + Poly(coeffs, RatFunc).compose(cur_f)
    return cur_f, cur_g
