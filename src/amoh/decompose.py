"""Functional decomposition: inner factors shared by a pair of polynomials.

A pair (f, g) may factor jointly through some h as f = f~(h), g = g~(h).
The maximal such h (normalized monic with zero constant term, which kills
the affine ambiguity) is the faithful parameter of the pair; the parameter
z itself is faithful exactly when that maximal h is linear.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import BadDegree, NotComposable, TrivialAlgebra
from .field_poly import Poly

__all__ = [
    "Decomposition",
    "left_cofactor",
    "common_parameter",
]


class Decomposition(namedtuple("Decomposition", "h f_tilde g_tilde")):
    """Common inner factor h (monic, h(0) = 0, maximal degree) with the
    outer cofactors: f = f_tilde(h) and g = g_tilde(h) exactly."""

    __slots__ = ()


def _right_factor_pair(f: Poly, e: int):
    """(h, cofactor) for the unique normalized inner factor of degree e,
    or None.  The top coefficients of monic f determine h triangularly:
    in h(z)^r with r = deg f / e, the coefficient of z^(deg f - k) is
    r*a_k plus terms in a_1..a_{k-1}, where h = z^e + a_1 z^(e-1) + ...
    """
    if f.is_constant:
        raise BadDegree("cannot extract an inner factor from a constant")
    n = f.degree
    if e < 1 or n % e:
        raise BadDegree(f"inner degree {e} does not divide {n}")
    fm = f.monic()
    r = n // e
    field = f.field
    z = Poly.variable(field)
    h = z**e
    for k in range(1, e):
        cur = h**r
        delta = fm.coeff(n - k) - cur.coeff(n - k)
        if delta:
            h = h + (z ** (e - k)).scale(delta / r)
    try:
        return h, left_cofactor(f, h)
    except NotComposable:
        return None


def left_cofactor(f: Poly, h: Poly) -> Poly:
    """The unique f~ with f = f~(h), by h-adic expansion: every digit of f
    base h must be a constant.  Verified by recomposition before returning."""
    if h.is_constant:
        raise NotComposable("inner factor must be nonconstant")
    digits = []
    cur = f
    while not cur.is_zero:
        cur, rem = divmod(cur, h)
        if not rem.is_constant:
            raise NotComposable("a base-h digit is nonconstant")
        digits.append(rem.constant_value())
    tilde = Poly(digits, f.field)
    if tilde.compose(h) != f:
        raise NotComposable("recomposition mismatch")
    return tilde


def _decompose_at(f: Poly, g: Poly, e: int):
    """The Decomposition of (f, g) through f's normalized inner factor of
    degree e, or None when f has none or g is no polynomial in it."""
    pair = _right_factor_pair(f, e)
    if pair is None:
        return None
    h, f_tilde = pair
    try:
        return Decomposition(h, f_tilde, left_cofactor(g, h))
    except NotComposable:
        return None


def _divisors_desc(value: int):
    return [e for e in range(value, 0, -1) if value % e == 0]


def common_parameter(f: Poly, g: Poly) -> Decomposition:
    """Maximal-degree normalized h with both f and g polynomial in h.

    Candidate degrees run over the divisors of gcd(deg f, deg g) from the
    largest down; the first inner factor of f that also works for g wins,
    and when none above 1 does, h = z.  When one input is constant it
    composes through anything, so h comes from the other input alone.
    """
    fc, gc = f.is_constant, g.is_constant
    if fc and gc:
        raise TrivialAlgebra("both inputs are constant")
    if fc or gc:
        main = g if fc else f
        h = (main - Poly.constant(main.coeff(0), main.field)).monic()
        return Decomposition(h, left_cofactor(f, h), left_cofactor(g, h))
    for e in _divisors_desc(math.gcd(f.degree, g.degree))[:-1]:
        dec = _decompose_at(f, g, e)
        if dec is not None:
            return dec
    # degree 1 needs no arithmetic: every polynomial is one in h = z
    return Decomposition(Poly.variable(f.field), f, g)
