"""Reference oracles the tests compare the library against.

The brute-force membership oracle is plain linear algebra over the
products f^i g^j, independent of basis completion and subduction; the
certificate tests compare is_member's answers against it.  It reuses the
library's fraction-free echelon (`_products`, `_echelon_insert`), which the
implicit equation is found with too.

`greedy_factor` is the degree factorization over suffix reachability
tables, as `_Reducer` computes it from three degrees on; the tests hold the
arithmetic of one- and two-degree reducers against it.
"""

from fractions import Fraction

from amoh import BivarExpr, InternalInconsistency
from amoh.subalgebra import _echelon_insert, _products, _reachable


def greedy_factor(degrees, deg):
    """Counts per degree summing to deg, largest degree first, each taken
    as often as the smaller degrees can still make up the rest, read off
    the _reachable tables of every suffix; None if deg is no sum of
    degrees."""
    degs = sorted(degrees, reverse=True)
    if deg < 0:
        return None
    tables = [_reachable(degs[k:], deg) for k in range(len(degs) + 1)]
    if not tables[0][deg]:
        return None
    counts = {}
    for k, d in enumerate(degs):
        c = deg // d
        while c > 0 and not tables[k + 1][deg - c * d]:
            c -= 1
        if c:
            counts[d] = c
            deg -= c * d
    return counts


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
