"""The brute-force membership oracle: plain linear algebra over the
products f^i g^j, independent of basis completion and subduction.

The certificate tests compare is_member's answers against it.  It reuses
the library's fraction-free echelon (`_products`, `_echelon_insert`), which
the implicit equation is found with too.
"""

from fractions import Fraction

from amoh import BivarExpr, InternalInconsistency
from amoh.subalgebra import _echelon_insert, _products


def _echelon_span(f, g, bound):
    """Echelon rows spanning the _products up to bound, each inserted with
    the combination {(i, j): 1}."""
    ech = {}
    for i, j, p in _products(f, g, bound):
        _echelon_insert(ech, p, {(i, j): 1})
    return ech


def brute_force_member(u, f, g, bound):
    """Independent membership search over Q (TypeError otherwise): u's
    numerators, under a key of their own, reduce against _echelon_span.
    Returns a certificate or None; absence within the bound proves nothing."""
    if not (u.field is f.field is g.field is Fraction):
        raise TypeError("the brute-force oracle is over the rationals only")
    r, combo = _echelon_insert(_echelon_span(f, g, bound), u.nums, {None: 1})
    if r:
        return None
    # c * u == -sum(combo[i, j] * (f.den * f)^i * (g.den * g)^j), c = combo[None] * u.den
    c = combo.pop(None) * u.den
    s = -1 if c > 0 else 1
    consumed = BivarExpr._make(
        {(i, j): s * v * f.den**i * g.den**j for (i, j), v in combo.items()}, abs(c), Fraction
    )
    if consumed.eval(f, g) != u:
        raise InternalInconsistency("echelon certificate failed to re-evaluate")
    return consumed
