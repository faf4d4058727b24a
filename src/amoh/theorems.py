"""Executable forms of the two degree statements about k[f, g].

check_strong_am: if k[f, g] contains elements of degrees m - a and n - a
for some 0 < a <= min(m, n), then one of m, n divides the other.  The
checker decides applicability through the degree semigroup, constructs
explicit witnesses when applicable, and treats any violation of the
conclusion as an internal bug.

check_prop22: for monic f, g, if n*f'*g - m*f*g' is a nonzero constant and
f^(n/d) - g^(m/d) is constant (d = gcd), the curve is an embedded line of
the shape f = z + c, g = (z + c)^n - b.  The checker verifies the chain of
intermediate identities exactly rather than trusting the endpoint.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import (
    InternalInconsistency,
    NotInSemigroup,
    NotMonic,
    PreconditionViolated,
)
from .field_poly import BivarExpr, Poly
from .line import is_line
from .subalgebra import _product, delta_sequence, sagbi_basis, semigroup_represent

__all__ = [
    "StrongAmReport",
    "Prop22Report",
    "check_strong_am",
    "check_prop22",
]


StrongAmReport = namedtuple(
    "StrongAmReport",
    "applicable a u_degree v_degree u_witness v_witness divisibility_holds",
)

Prop22Report = namedtuple(
    "Prop22Report",
    "condition_221_holds a condition_222_holds b is_line canonical_c canonical_b "
    "derived_derivatives_verified",
)


def _witness(alphas, deltas, basis) -> BivarExpr:
    """Monic element of degree sum(alphas[i] * deltas[i]): the product of
    the deltas' greedy factorizations over the basis, to the powers alphas,
    canonical over Q as the certificates' per-degree products are."""
    red = basis._reducer
    factors = []
    for alpha, delta in zip(alphas, deltas):
        counts = red.factor(delta) if alpha else {}
        if counts is None:
            raise InternalInconsistency(f"degree {delta} not realized by the basis")
        factors += ((red.by_degree[d], alpha * c) for d, c in counts.items())
    return _product(factors, basis.f.field, basis._implicit)


def check_strong_am(f: Poly, g: Poly, a: int) -> StrongAmReport:
    """Degree-gap test: applicable iff both m - a and n - a lie in the
    degree semigroup of k[f, g]; then explicit witnesses are built and the
    divisibility conclusion is asserted."""
    if f.is_constant or g.is_constant:
        raise PreconditionViolated("both curve components must be nonconstant")
    m, n = f.degree, g.degree
    if not isinstance(a, int) or a < 1 or a > min(m, n):
        raise PreconditionViolated(f"need 1 <= a <= min({m}, {n}), got {a!r}")
    divisibility = n % m == 0 or m % n == 0
    delta = delta_sequence(f, g)
    try:
        u_repr = semigroup_represent(m - a, delta)
        v_repr = semigroup_represent(n - a, delta)
    except NotInSemigroup:
        return StrongAmReport(False, a, m - a, n - a, None, None, divisibility)
    basis = sagbi_basis(f, g)
    u_witness = _witness(u_repr.alphas, delta.deltas, basis)
    v_witness = _witness(v_repr.alphas, delta.deltas, basis)
    if not divisibility:
        raise InternalInconsistency(
            "witness degrees exist but neither input degree divides the other"
        )
    return StrongAmReport(True, a, m - a, n - a, u_witness, v_witness, divisibility)


def check_prop22(f: Poly, g: Poly) -> Prop22Report:
    """Check the two constant conditions and, when both hold, verify the
    derived derivative identities, the line verdict, and the canonical
    shape (if deg f <= deg g) exactly."""
    if f.is_constant or g.is_constant:
        raise NotMonic("inputs must be nonconstant")
    one = f.field(1)
    if f.lead != one or g.lead != one:
        raise NotMonic("inputs must be monic")
    m, n = f.degree, g.degree
    d = math.gcd(m, n)
    combo = (f.derivative() * g).scale(n) - (f * g.derivative()).scale(m)
    cond221 = combo.is_constant and not combo.is_zero
    a_val = combo.constant_value() if cond221 else None
    diff = f ** (n // d) - g ** (m // d)
    cond222 = diff.is_constant
    b_val = diff.constant_value() if cond222 else None

    verdict = is_line(f, g)
    derived_ok = False
    canonical_c = canonical_b = None
    if cond221 and cond222:
        if not b_val:
            raise InternalInconsistency("conditions force b nonzero (f, g coprime)")
        # derivative of the constant difference, cleared of the 1/d factor
        e_diff = (f ** (n // d - 1) * f.derivative()).scale(n) - (
            g ** (m // d - 1) * g.derivative()
        ).scale(m)
        if not e_diff.is_zero:
            raise InternalInconsistency("derivative of constant difference nonzero")
        e_subst = (f ** (n // d - 1)).scale(a_val) + g.derivative().scale(b_val * m)
        if not e_subst.is_zero:
            raise InternalInconsistency("substituted identity failed")
        g_prime = (f ** (n // d - 1)).scale(-a_val / (m * b_val))
        f_prime = (g ** (m // d - 1)).scale(-a_val / (n * b_val))
        if g.derivative() != g_prime or f.derivative() != f_prime:
            raise InternalInconsistency("derived derivative identities failed")
        derived_ok = True
        if not verdict.is_line:
            raise InternalInconsistency("conditions hold but line verdict is false")
        if m <= n:
            if m != 1:
                raise InternalInconsistency("conditions with m <= n force deg f = 1")
            canonical_c = f.coeff(0)
            canonical_b = b_val
            z = Poly.variable(f.field)
            shape = (z + Poly.constant(canonical_c, f.field)) ** n - Poly.constant(
                b_val, f.field
            )
            if g != shape:
                raise InternalInconsistency("canonical shape mismatch")
    return Prop22Report(
        cond221,
        a_val,
        cond222,
        b_val,
        verdict.is_line,
        canonical_c,
        canonical_b,
        derived_ok,
    )
