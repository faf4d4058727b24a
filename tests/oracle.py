"""Reference oracles the tests compare the library against.

The brute-force membership oracle is plain linear algebra over the
products f^i g^j, independent of basis completion and subduction; the
certificate tests compare is_member's answers against it.  It reuses the
library's fraction-free echelon (`_products`, `_echelon_insert`), which the
implicit equation is found with too.

`greedy_factor` is the degree factorization over suffix reachability
tables, as `_Reducer` computes it from three degrees on; the tests hold the
arithmetic of one- and two-degree reducers against it.

`complete_every_subduction` is basis completion that subducts every
element in every interreduction pass, whether or not its degree is a sum of
the others', and keeps subducting against a degree-1 element; the library's
completion skips both kinds of idle work and must give the same elements,
recipes and provenances.
"""

import math
from fractions import Fraction

from amoh import BivarExpr, InternalInconsistency, TrivialAlgebra
from amoh.subalgebra import (
    SagbiBasis,
    _adjoin,
    _Budget,
    _echelon_insert,
    _gcd_is_deg_h,
    _generators,
    _products,
    _reachable,
    _Reducer,
)


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


def _interreduce_every_subduction(work, scalar_field, budget: _Budget):
    """Subduct each element against the others until nothing moves."""
    while True:
        budget.tick("interreduction")
        for el in sorted(work, key=lambda e: -e.degree):
            reducer = _Reducer([o for o in work if o is not el], scalar_field, budget)
            r, steps = reducer.reduce(el.poly)
            if r != el.poly:
                work.remove(el)
                _adjoin(work, r, ((1, 1, ((el, 1),)),), steps, reducer)
                break
        else:
            return


def complete_every_subduction(f, g, cap: int) -> SagbiBasis:
    """The library's _complete, with every subduction run: each generator
    is subducted as it goes in, and interreduction subducts every element."""
    scalar_field = f.field
    if g.field is not scalar_field:
        raise TypeError("generators must share one coefficient field")
    budget = _Budget(cap)
    work = []
    X, Y, _ = _generators(scalar_field)
    for p, gen in ((g, Y), (f, X)):
        if not p.is_constant:
            reducer = _Reducer(work, scalar_field, budget)
            r, steps = reducer.reduce(p)
            _adjoin(work, r, ((1, 1, ((gen, 1),)),), steps, reducer)
    if not work:
        raise TrivialAlgebra("both generators are constant")

    while True:
        _interreduce_every_subduction(work, scalar_field, budget)
        if _gcd_is_deg_h(f, g, work):
            break
        full = _Reducer(work, scalar_field, budget)
        running = work[0].degree
        for j in range(1, len(work)):
            budget.tick("relation")
            el = work[j]
            nxt = math.gcd(running, el.degree)
            q = running // nxt
            running = nxt
            got = _Reducer(work[:j], scalar_field, budget).product(q * el.degree)
            if got is None:
                raise InternalInconsistency(
                    "basis degrees are not telescopic in work-list order; "
                    "this should be unreachable for two generators"
                )
            prod, factors = got
            r, steps = full.reduce(el.poly**q - prod)
            if _adjoin(work, r, ((1, 1, ((el, q),)), (-1, 1, factors)), steps, full):
                break
        else:
            # a round without a new element checked every position
            break

    elements = tuple(sorted(work, key=lambda e: e.degree))
    return SagbiBasis(elements=elements, f=f, g=g)
