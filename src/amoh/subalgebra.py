"""Degree-semigroup engine for subalgebras k[f, g] of k[z].

Basis completion here is a one-variable SAGBI computation.  Leading degrees
of elements of k[f, g] form an additive semigroup; a basis is complete when
that semigroup equals the one generated by the basis element degrees.
Completion interleaves two moves until a fixpoint, or until the gcd of
the element degrees is deg h (see _complete):

* interreduction: an element whose degree is a sum of the other element
  degrees is subducted against them and replaced by its remainder, or
  dropped when the remainder is constant.  Any other element is left as it
  is with no subduction run, as the degrees already show that none would
  take a step; and a degree-1 element, once in, is kept alone, as every
  other element subducts to a constant against it;
* relation resolution: taken in work-list order, each element degree,
  multiplied by the quotient of consecutive gcds along that order, is a
  sum of earlier degrees (the degree semigroup of k[f, g] is telescopic,
  and the order in which elements were adjoined already shows it); the
  matching difference of monic products drops in degree, and a
  nonconstant irreducible remainder is a new element.

Degree questions are coin problems.  A reducer of one or two degrees
answers them by arithmetic (divisibility, and one congruence modulo the
smaller degree); from three degrees on it keeps dynamic-programming
reachability tables (_Reducer).  Subduction
computes polynomials only and records each step as plain integers: the
degree, the lead numerator it cancelled and the remainder's denominator
then.  A basis element's recipe keeps the same integers, one record
(num, den, factors) per term, and `_expand` builds the provenance from it
only when one is read.  A certificate takes the canonical product of
each step's degree instead, memoized once per degree beside the monic
product that subduction subtracts (`_Reducer.certificate`).  Both sums,
of num / den times an expression, are one `_lincomb` over one common
denominator.

All public functions are pure; completed bases are cached per (f, g, cap).
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress, repeat
from operator import mul, sub

from .decompose import _decompose_at
from .errors import (
    InternalInconsistency,
    InternalLimitExceeded,
    NotInSemigroup,
    PreconditionViolated,
    TrivialAlgebra,
)
from .field_poly import BivarExpr, Poly, _cached_power

__all__ = [
    "SagbiElement",
    "SagbiBasis",
    "MembershipResult",
    "DeltaSequence",
    "SemigroupRepr",
    "sagbi_basis",
    "is_member",
    "delta_sequence",
    "semigroup_represent",
]

CAP_ENV_VAR = "AMOH_ITER_CAP"


class _Frozen:
    """Refuses attribute assignment and deletion, as a frozen record does."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SagbiElement(_Frozen):
    """One basis element: a monic polynomial, its recipe and its degree.
    The recipe's records (num, den, factors) add up num / den times the
    _product of the factors to poly: integers over Q, den negative after a
    negative lead, and over RatFunc the coefficient num over den 1.  The
    provenance (it evaluates to poly) and its powers are built on read.
    Equality and hash read poly and degree only."""

    def __init__(self, poly: Poly, recipe: tuple, degree: int):
        self.__dict__.update(poly=poly, recipe=recipe, degree=degree, _pows={}, _canon_pows={})

    def __repr__(self):
        return f"SagbiElement(poly={self.poly!r}, degree={self.degree!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.poly, self.degree) == (other.poly, other.degree)

    def __hash__(self):
        return hash((self.poly, self.degree))

    @cached_property
    def provenance(self) -> BivarExpr:
        return _expand(self.recipe, self.poly.field)


@lru_cache(maxsize=None)
def _generators(field):
    """(X, Y, 1) as expressions over field, built once per field; no
    expression is changed in place, so all callers share them."""
    one = field(1)
    return BivarExpr.monomial(1, 0, one), BivarExpr.monomial(0, 1, one), BivarExpr.const(one)


def _product(factors, field, implicit=None) -> BivarExpr:
    """The product of the factors' sources to their exponents, as an
    expression over field.  A source is a basis element, whose provenance
    counts, or the generator X or Y itself.

    Plain, the element powers are the ones cached on each element.  With
    implicit (an _Implicit of the basis), the powers are its canonical
    ones and every partial product is reduced, so the product is
    canonical.  A single factor's product is its cached power itself."""
    times = mul if implicit is None else implicit._mul
    got = None
    for src, e in factors:
        if implicit is not None:
            p = implicit.power(src, e)
        elif isinstance(src, BivarExpr):
            p = src**e
        else:
            p = _cached_power(src._pows, src.provenance, e)
        got = p if got is None else times(got, p)
    return _generators(field)[2] if got is None else got


def _lincomb(terms, field) -> BivarExpr:
    """The sum over the (num, den, expr) terms of num / den times expr, as
    an expression over field: integers num and den over Q, den maybe
    negative; over RatFunc num is the coefficient and den is 1.

    The sum is assembled in one pass over one common denominator, the lcm
    of den * expr.den over the terms: each term adds
    num * (lcm // (den * expr.den)) times expr's numerators into one dict,
    where a key that cancels is popped, as BivarExpr._add does, so the
    terms keep the order of a sequential sum."""
    lcm = math.lcm(*(den * expr.den for _, den, expr in terms))
    acc = {}
    for num, den, expr in terms:
        # keeps the sign of a negative den, also when the lcm is 1
        scale = lcm // (den * expr.den)
        k = num if scale == 1 else num * scale
        for key, v in expr.nums.items():
            s = acc.get(key, 0) + v * k
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return BivarExpr._make(acc, lcm, field)


def _expand(recipe, field) -> BivarExpr:
    """The sum over the (num, den, factors) records of a recipe of num / den
    times the plain _product of the factors, as an expression over field:
    how a basis element's provenance is built from its recipe.  Records
    with num 0 are skipped, and their products never built."""
    return _lincomb([(num, den, _product(fs, field)) for num, den, fs in recipe if num], field)


def _products(f: Poly, g: Poly, bound: int):
    """(i, j, integer numerators of F^i G^j) over Q by weight i * deg f +
    j * deg g <= bound, then i; F and G are the numerators of f and g.  A
    constant generator takes exponent 0 only."""
    m = 0 if f.is_constant else f.degree
    n = 0 if g.is_constant else g.degree
    F, G = (Poly._make(p.nums, 1, Fraction) for p in (f, g))
    fpows, gpows = {0: Poly.one()}, {0: Poly.one()}
    for _, i, j in sorted(
        (i * m + j * n, i, j)
        for i in range(bound // m + 1 if m else int(bound >= 0))
        for j in range((bound - i * m) // n + 1 if n else 1)
    ):
        yield i, j, (_cached_power(fpows, F, i) * _cached_power(gpows, G, j)).nums


def _echelon_insert(ech, p, combo: dict):
    """Reduce integer numerators p and their integer combination combo
    fraction-free against the rows (lead index -> (p, combo)); a survivor
    goes in primitive with a positive lead.  Returns the reduced pair.
    Each row is a nonzero multiple of the monic row over Q."""
    while p:
        row = ech.get(len(p) - 1)
        if row is None:
            break
        q, qcombo = row
        gcd = math.gcd(p[-1], q[-1])
        a, b = q[-1] // gcd, p[-1] // gcd
        # a * p - b * q: the tops cancel
        p = list(map(sub, map(mul, p, repeat(a)), map(mul, q, repeat(b))))
        while p and not p[-1]:
            p.pop()
        combo = {k: a * v for k, v in combo.items()}
        for k, v in qcombo.items():
            s = combo.get(k, 0) - b * v
            if s:
                combo[k] = s
            else:
                combo.pop(k, None)
    if p:
        content = math.gcd(*p, *combo.values())
        if p[-1] < 0:
            content = -content
        p = [x // content for x in p]
        combo = {k: v // content for k, v in combo.items()}
        ech[len(p) - 1] = (p, combo)
    return p, combo


class _Implicit:
    """Reduction modulo the implicit equation R(X, Y) of a pair (f, g) over
    Q, both nonconstant.

    R generates every relation between f and g.  Its only term of Y-degree
    m = deg f / deg h is c * Y^m for a constant c, where deg h is the gcd of
    the basis degrees; so every element of k[f, g] has exactly one
    expression with Y-degree below m, its remainder modulo R.  R itself is
    found on first use, and not at all while every expression reduced
    already has Y-degree below m.

    Canonical powers are cached on each element; the basis reducer
    memoizes each degree's canonical product (_product) beside the monic
    product that subduction subtracts."""

    def __init__(self, f: Poly, g: Poly, m: int):
        self.f, self.g, self.m = f, g, m

    @cached_property
    def equation(self) -> BivarExpr:
        """R with coprime integer coefficients and c > 0.

        The _products go into the echelon of _echelon_insert.  Every relation
        is a multiple of R, so the first product that the earlier ones span
        gives R; its weight is deg f * deg g / deg h."""
        f, g = self.f, self.g
        bound = self.m * g.degree
        ech = {}
        for i, j, p in _products(f, g, bound):
            p, combo = _echelon_insert(ech, p, {(i, j): 1})
            if not p:
                # sum(combo[i, j] * F^i * G^j) == 0, and F^i * G^j is
                # f^i * g^j times the i-th and j-th powers of the denominators
                return self._normalize(
                    {(i, j): v * f.den**i * g.den**j for (i, j), v in combo.items()}
                )
        raise InternalInconsistency(f"no relation between f and g up to weight {bound}")

    def _normalize(self, nums: dict) -> BivarExpr:
        # R's leading term in Y is c * Y^m, or the remainders are not unique
        m = self.m
        tops = [(i, j) for i, j in nums if j >= m]
        if tops != [(0, m)]:
            raise InternalInconsistency(
                f"implicit equation is not monic of Y-degree {m}: terms {sorted(tops)}"
            )
        content = math.gcd(*nums.values())
        if nums[0, m] < 0:
            content = -content
        return BivarExpr._make({k: v // content for k, v in nums.items()}, 1, Fraction)

    @cached_property
    def _rows(self):
        """(c, rows): R = c * Y^m + the sum of v * X^i * Y^k over the
        pairs (i, v) in rows[k]."""
        m, nums = self.m, self.equation.nums
        rows = [[] for _ in range(m)]
        for (i, j), v in nums.items():
            if j < m:
                rows[j].append((i, v))
        return nums[0, m], rows

    def reduce(self, nums: dict, den: int) -> BivarExpr:
        """The remainder modulo R of the expression nums / den over Q
        (integer numerators), as a BivarExpr.

        Rows of Y-degree j >= m are cleared from the top down, each by
        subtracting its multiple of R * Y^(j - m) / c.  Clearing a row
        divides it by c once, so scaling everything by c to the number of
        such rows at the start makes every division exact."""
        m = self.m
        top = max((j for _, j in nums), default=-1)
        if top < m:
            return BivarExpr._make(nums, den, Fraction)
        c, rows = self._rows
        scale = c ** (top - m + 1)
        by_row = {}
        for (i, j), v in nums.items():
            by_row.setdefault(j, {})[i] = v * scale
        den *= scale
        for j in range(top, m - 1, -1):
            row = by_row.pop(j, None)
            if not row:
                continue
            for k, rk in enumerate(rows):
                if not rk:
                    continue
                out = by_row.setdefault(j - m + k, {})
                for i1, v1 in row.items():
                    q = v1 // c
                    for i2, v2 in rk:
                        key = i1 + i2
                        s = out.get(key, 0) - q * v2
                        if s:
                            out[key] = s
                        else:
                            out.pop(key, None)
        return BivarExpr._make(
            {(i, j): v for j, row in by_row.items() for i, v in row.items()}, den, Fraction
        )

    def _mul(self, a: BivarExpr, b: BivarExpr) -> BivarExpr:
        prod = a * b
        return self.reduce(prod.nums, prod.den)

    def power(self, el, e: int) -> BivarExpr:
        """The canonical form of el's provenance to the e-th power, cached
        on el apart from the plain powers: each power is the reduced
        product of the one below and the reduced provenance."""
        pows = el._canon_pows
        if not pows:
            prov = el.provenance
            pows[1] = self.reduce(prov.nums, prov.den)
        return _cached_power(pows, pows[1], e, self._mul)


class SagbiBasis(namedtuple("SagbiBasis", "elements f g"), _Frozen):
    # Without __slots__ an instance has a __dict__, which holds the reducer.

    @property
    def degrees(self) -> tuple:
        return tuple(e.degree for e in self.elements)

    @cached_property
    def _reducer(self) -> "_Reducer":
        return _Reducer(self.elements, self.f.field)

    @cached_property
    def _implicit(self):
        """Reduction modulo the implicit equation over Q, or None: over
        RatFunc, or with a constant generator, whose certificates use one
        generator only and are canonical already."""
        f, g = self.f, self.g
        if f.field is not Fraction or f.is_constant or g.is_constant:
            return None
        return _Implicit(f, g, f.degree // math.gcd(*self.degrees))


MembershipResult = namedtuple("MembershipResult", "member certificate obstruction_degree")


class DeltaSequence(namedtuple("DeltaSequence", "deltas ds h")):
    """Degrees (deltas) and the gcd chain (ds) of the degree semigroup.

    deltas[0] = deg g and deltas[1] = deg f; each later entry is the
    smallest semigroup degree not divisible by the running gcd.  ds lists
    the gcds of the prefixes deltas[0..i] for i >= 1; it decreases strictly
    and ends at the gcd of the whole semigroup (1 exactly when the
    parameter is faithful).
    """

    __slots__ = ()


class SemigroupRepr(namedtuple("SemigroupRepr", "alphas")):
    """Nonnegative coordinates of a degree over a delta sequence, with the
    tail entries reduced modulo the gcd-chain quotients (which makes them
    unique)."""

    __slots__ = ()


class _Budget:
    """Completion work meter.  Blowing it raises rather than looping."""

    __slots__ = ("remaining",)

    def __init__(self, cap: int):
        self.remaining = cap

    def tick(self, what: str):
        self.remaining -= 1
        if self.remaining < 0:
            raise InternalLimitExceeded(
                f"completion work cap exhausted during {what}; "
                f"raise the cap ({CAP_ENV_VAR}) if the input is legitimate"
            )


def _resolve_cap(f: Poly, g: Poly) -> int:
    env = os.environ.get(CAP_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise PreconditionViolated(
                f"{CAP_ENV_VAR} must be a positive integer, got {env!r}"
            )
        return value
    m = max(f.degree, 0)
    n = max(g.degree, 0)
    return max(64, 10 * (m + n) * (m + n))


def _reachable(degrees, bound: int, start=b"\x01") -> bytearray:
    """table[v] == 1 iff v is a value that start marks (only 0 by default)
    plus a nonnegative integer combination of degrees."""
    table = bytearray(bound + 1)
    table[:len(start)] = start
    for d in degrees:
        for v in range(d, bound + 1):
            if table[v - d]:
                table[v] = 1
    return table


_MISSING = object()


class _Reducer:
    """Subduction engine over elements with pairwise distinct degrees.

    Factors a degree greedily, largest element degree first, each taken as
    often as the smaller ones can still make up the rest.  Over one or two
    degrees that is arithmetic (_factor_small); from three degrees on it
    reads suffix reachability tables, built on demand.  It memoizes element
    powers and, per degree, the monic
    product that subduction subtracts and, once a certificate asks for it,
    that product's expression in (f, g); all grow on demand.  A memo entry
    holds a product's numerators below its lead with their indexes, its
    support: all of them when that is the smaller form, else only the
    nonzero ones.
    """

    def __init__(self, items, scalar_field, budget: _Budget | None = None):
        self.field = scalar_field
        self.budget = budget
        self.by_degree = {it.degree: it for it in items}
        self.degs_desc = sorted(self.by_degree, reverse=True)
        self.tables = None
        self.bound = -1
        self.poly_pows = {}
        self.factorizations = {}
        self.products = {}

    def _ensure(self, bound: int):
        if self.tables is not None and bound <= self.bound:
            return
        b = max(bound, 2 * self.bound, 16)
        # tables[k] marks the sums of degs_desc[k:], built from the empty end
        tables = [_reachable((), b)]
        for d in reversed(self.degs_desc):
            tables.append(_reachable((d,), b, tables[-1]))
        tables.reverse()
        self.tables = tables
        self.bound = b

    def representable(self, deg: int) -> bool:
        if deg < 0:
            return False
        if len(self.degs_desc) < 3:
            return self._factor_small(deg) is not None
        self._ensure(deg)
        return bool(self.tables[0][deg])

    def factor(self, deg: int):
        """Counts per degree summing to deg, greedily taking the largest
        degree as often as the remaining suffix allows.  None if deg is not
        representable."""
        if len(self.degs_desc) < 3:
            return self._factor_small(deg) if deg >= 0 else None
        if not self.representable(deg):
            return None
        counts = {}
        for k, d in enumerate(self.degs_desc):
            suffix = self.tables[k + 1]
            c = deg // d
            while c > 0 and not suffix[deg - c * d]:
                c -= 1
            if c:
                counts[d] = c
                deg -= c * d
        return counts

    def _factor_small(self, deg: int):
        """factor(deg) over at most two degrees, deg >= 0, by arithmetic.
        One degree d takes deg / d copies when d divides deg.  For a > b
        with g = gcd(a, b), the greedy count c of a is the largest
        c <= deg // a with c * a = deg (mod b): c = (deg/g) * (a/g)^-1 modulo
        b/g, raised by multiples of b/g; b makes up the rest."""
        degs = self.degs_desc
        if not degs:
            return {} if deg == 0 else None
        a = degs[0]
        if len(degs) == 1:
            if deg % a:
                return None
            return {a: deg // a} if deg else {}
        b = degs[1]
        g = math.gcd(a, b)
        if deg % g:
            return None
        m = b // g
        least = deg // g * pow(a // g, -1, m) % m
        top = deg // a
        if least > top:
            return None
        c = top - (top - least) % m
        rest = (deg - c * a) // b
        counts = {}
        if c:
            counts[a] = c
        if rest:
            counts[b] = rest
        return counts

    def product(self, deg: int):
        """(monic product of element powers of degree deg, its recipe
        factors), multiplied from the cached powers (a single factor's is
        its cached power itself); None if deg is not representable.  The
        factors tuple of a degree is built once."""
        factors = self.factorizations.get(deg, _MISSING)
        if factors is _MISSING:
            counts = self.factor(deg)
            if counts is not None:
                factors = tuple((self.by_degree[d], c) for d, c in counts.items())
            else:
                factors = None
            self.factorizations[deg] = factors
        if factors is None:
            return None
        p = None
        for el, c in factors:
            pw = _cached_power(self.poly_pows.setdefault(el.degree, {}), el.poly, c)
            p = pw if p is None else p * pw
        return p, factors

    def _memo(self, deg: int):
        """The memo entry of degree deg, built from product(deg) once: None
        if deg is not representable, else [factors, den, nums, support,
        expr], the product being nums[i] / den at index support[i] below
        the lead, and expr its expression (canonical()), None until asked
        for.  The support is range(deg) with the product's own numerators,
        unless at most half the entries below the lead are nonzero: then
        only those are kept, as two slots per entry then take no more room
        than one per index."""
        got = self.products.get(deg, _MISSING)
        if got is not _MISSING:
            return got
        got = self.product(deg)
        if got is not None:
            p, factors = got
            nums, support = p.nums, range(deg)
            # the lead is nonzero, so the zeros counted are all below it
            if 2 * (deg - nums.count(0)) <= deg:
                support = tuple(compress(support, nums))
                nums = tuple(map(nums.__getitem__, support))
            got = [factors, p.den, nums, support, None]
        self.products[deg] = got
        return got

    def canonical(self, deg: int, implicit) -> BivarExpr:
        """The expression of the monic product of degree deg (representable)
        in (f, g): the _product of its factors, canonical modulo implicit
        when given, built once and kept in the memo entry.  The basis
        reducer is passed its basis's _implicit every time."""
        entry = self._memo(deg)
        expr = entry[4]
        if expr is None:
            expr = entry[4] = _product(entry[0], self.field, implicit)
        return expr

    def reduce(self, u: Poly):
        """Subduct u; returns (remainder, steps).  The remainder is constant
        or has leading degree outside the degree semigroup.  Each step is
        the record (deg, top, d) of plain integers over Q: the remainder
        then had degree deg and lead top / d, and lost top / d times the
        monic product of degree deg.  So u is the remainder plus the sum of
        those multiples (certificate() builds that sum; _adjoin keeps the
        records in a recipe).  Over RatFunc top is the lead and d is 1.

        The remainder is one list of numerators over one denominator d, as
        Poly stores it, and it becomes a Poly, in lowest terms, only at the
        end.  A step scales it in one pass if it must, then subtracts the
        memoized product over its support in place, entry by entry."""
        if u.field is not self.field:
            raise TypeError("polynomial is over a different field than the basis")
        nums, d = list(u.nums), u.den
        steps = []
        products = self.products
        while len(nums) > 1:
            deg = len(nums) - 1
            # the dict itself on a hit, saving a method call per step
            got = products[deg] if deg in products else self._memo(deg)
            if got is None:
                break
            if self.budget is not None:
                self.budget.tick("subduction")
            _, dp, pnums, support, _ = got
            top = nums.pop()
            steps.append((deg, top, d))
            # r - (top / d) * prod, with prod = pnums / dp monic (lead dp):
            # over d * s, with s = dp / gcd(top, dp), it is
            # s * nums - (top * s / dp) * pnums, and the tops cancel
            if dp != 1:
                g = math.gcd(top, dp)
                top //= g
                s = dp // g
                if s != 1:
                    d *= s
                    nums = list(map(mul, nums, repeat(s)))
            for k, v in zip(support, pnums):
                nums[k] -= v * top
            while nums and not nums[-1]:
                nums.pop()
        return Poly._make(nums, d, self.field), tuple(steps)

    def certificate(self, steps, implicit, rest: Poly | None = None) -> BivarExpr:
        """The _lincomb over the step records (deg, top, d) of top / d times
        the canonical(deg, implicit) product, plus the constant rest if
        given: an expression of u - remainder, or of u itself when rest is
        u's constant remainder.  With an implicit equation every product is
        canonical, so the sum is too.  The steps come from this reducer's
        reduce(), which built the memo entry of each step's degree; each
        expression is read from its entry, and canonical() called only
        when it is not built yet, which saves two method calls per step."""
        products = self.products
        terms = []
        for deg, top, d in steps:
            expr = products[deg][4]
            terms.append((top, d, self.canonical(deg, implicit) if expr is None else expr))
        if rest is not None and rest.nums:
            terms.append((rest.nums[0], rest.den, _generators(self.field)[2]))
        return _lincomb(terms, self.field)


def _adjoin(work, r: Poly, head: tuple, steps: tuple, reducer: _Reducer) -> bool:
    """Append the remainder r = eval(head) - (what reducer's steps took),
    head a recipe, as a fresh monic element.  Its recipe is head and a
    record (-top, d, factors of deg) per step (deg, top, d), each divided
    by r's lead.  Constant remainders are absorbed (False)."""
    if r.is_constant:
        return False
    recipe = head + tuple((-top, d, reducer.factorizations[deg]) for deg, top, d in steps)
    if r.field is Fraction:
        # num / den over the lead nums[-1] / den
        recipe = tuple((num * r.den, den * r.nums[-1], fs) for num, den, fs in recipe)
    else:
        inv = r.field(1) / r.lead
        recipe = tuple((num * inv, 1, fs) for num, _, fs in recipe)
    work.append(SagbiElement(r.monic(), recipe, r.degree))
    return True


def _interreduce(work, scalar_field, budget: _Budget):
    """Subduct each element against the others until nothing moves.

    Only an element whose degree is a sum of the other degrees is
    subducted; any other is its own remainder, as no step could run.  Once
    a degree-1 element is in, it is kept alone: every other element
    subducts to a constant against it, and its own degree lies outside the
    others' semigroup, so its recipe never changes."""
    while True:
        budget.tick("interreduction")
        low = min(work, key=lambda e: e.degree)
        if low.degree == 1:
            work[:] = [low]
            return
        for el in sorted(work, key=lambda e: -e.degree):
            reducer = _Reducer([o for o in work if o is not el], scalar_field, budget)
            if reducer.representable(el.degree):
                # a step runs, so the remainder differs from el
                r, steps = reducer.reduce(el.poly)
                work.remove(el)
                _adjoin(work, r, ((1, 1, ((el, 1),)),), steps, reducer)
                break
        else:
            return


def _gcd_is_deg_h(f: Poly, g: Poly, work) -> bool:
    """Whether the gcd d of the work degrees is deg h: d = 1, or d > 1 over Q,
    a relation pending, and f, g polynomials in f's inner factor of degree d."""
    d = math.gcd(*(el.degree for el in work))
    if d == 1 or len(work) < 2 or f.field is not Fraction:
        return d == 1
    return _decompose_at(f, g, d) is not None


def _complete(f: Poly, g: Poly, cap: int) -> SagbiBasis:
    """Complete a basis of k[f, g], stopping once the gcd of the element
    degrees is deg h, when the relations left add nothing.  Sketch: for
    f = F(h), g = G(h) each step maps polynomials in the monic h to ones in
    h and scales degrees by deg h, so this is completion of the faithful
    (F, G) composed with h.  For faithful (f, g) the degrees are the values
    at the one place at infinity of R(X, Y) = 0.  In characteristic 0
    Abhyankar and Moh's semigroup theorem (J. reine angew. Math. 260/261,
    1973) says they are generated by delta_0 = N = deg_Y R, ..., delta_h,
    the degrees of G_k(f, g), G_k the d_k-th approximate root of R, of
    Y-degree N / d_k; d_k = gcd(delta_0, ..., delta_(k-1)) and d_k * delta_k
    fall strictly, to d_(h+1) = 1.  Its lemma: below Y-degree N / d_(k+1) a
    polynomial expands in X, G_1, ..., G_k with terms of distinct degrees in
    <delta_0, ..., delta_k>.  By induction the adjoined degrees are the
    delta_k: a product of elements of degrees delta_0, ..., delta_k and total
    degree D has Y-degree at most D * N / (d_k * delta_k), so the relation
    of the last element, as subduction leaves it, is G_(k+1) plus terms of
    Y-degree below N / d_(k+1), and by the lemma its degree, outside
    <delta_0, ..., delta_k>, is delta_(k+1).  At gcd 1 every delta_k is in;
    the last relation left is R itself.  Over k(x) d = 1 stops too; d > 1
    completes in full there, as the inner-factor test divides over Q only.

    Only subductions that can take a step run: the first generator goes in
    as it is, and so does a second one whose degree is no multiple of the
    first's; _interreduce skips the same idle work, and keeps a degree-1
    element alone.  The budget is never charged for what is skipped."""
    scalar_field = f.field
    if g.field is not scalar_field:
        raise TypeError("generators must share one coefficient field")
    budget = _Budget(cap)
    work = []
    X, Y, _ = _generators(scalar_field)
    for p, gen in ((g, Y), (f, X)):
        if not p.is_constant:
            reducer = _Reducer(work, scalar_field, budget)
            r, steps = reducer.reduce(p) if reducer.representable(p.degree) else (p, ())
            _adjoin(work, r, ((1, 1, ((gen, 1),)),), steps, reducer)
    if not work:
        raise TrivialAlgebra("both generators are constant")

    while True:
        _interreduce(work, scalar_field, budget)
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


def sagbi_basis(f: Poly, g: Poly) -> SagbiBasis:
    """Complete basis of k[f, g]: monic elements of pairwise distinct
    degrees whose degrees generate the whole degree semigroup, each with a
    provenance expression rebuilding it from (f, g).  Completion stops
    once the gcd of those degrees is deg h, with no relation left to check.

    Deterministic; raises TrivialAlgebra when both generators are constant,
    PreconditionViolated if the work cap (the AMOH_ITER_CAP environment
    variable, else 10*(deg f + deg g)^2) is not a positive integer and
    InternalLimitExceeded if it is hit.
    """
    return _sagbi_cached(f, g, _resolve_cap(f, g))


@lru_cache(maxsize=256)
def _sagbi_cached(f: Poly, g: Poly, cap: int) -> SagbiBasis:
    return _complete(f, g, cap)


def is_member(u: Poly, f: Poly, g: Poly, certify: bool = True) -> MembershipResult:
    """Decide u ∈ k[f, g], with a certificate on success and the degree of
    the irreducible remainder on failure.  The certificate is assembled
    after subduction from its step records and the constant remainder, in
    one pass over one common denominator (_Reducer.certificate); over Q it
    is canonical modulo the implicit equation.  certify=False gives the
    same verdict and obstruction degree with no certificate (None) and no
    expression arithmetic at all."""
    if f.is_constant and g.is_constant:
        raise TrivialAlgebra("membership in k[constants] is not meaningful here")
    basis = sagbi_basis(f, g)
    if not certify and basis.elements[0].degree == 1 and u.field is f.field:
        # a degree-1 element makes the degree semigroup all of N
        return MembershipResult(True, None, None)
    reducer = basis._reducer
    r, steps = reducer.reduce(u)
    if not r.is_constant:
        return MembershipResult(False, None, r.degree)
    if not certify:
        return MembershipResult(True, None, None)
    return MembershipResult(True, reducer.certificate(steps, basis._implicit, r), None)


def delta_sequence(f: Poly, g: Poly) -> DeltaSequence:
    """Delta sequence of the degree semigroup of k[f, g]: the two input
    degrees (g first), then repeatedly the smallest semigroup degree not
    divisible by the running gcd, together with the gcd chain."""
    if f.is_constant or g.is_constant:
        raise TrivialAlgebra("delta sequences need both generators nonconstant")
    deltas = [g.degree, f.degree]
    d = math.gcd(deltas[0], deltas[1])
    ds = [d]
    # a sum that d does not divide has a term, no larger, that d does not divide;
    # and what d divides stays divided as d shrinks, so one ascending pass does
    for v in sagbi_basis(f, g).degrees:
        if v % d:
            deltas.append(v)
            d = math.gcd(d, v)
            ds.append(d)
    return DeltaSequence(tuple(deltas), tuple(ds), len(deltas) - 1)


def _conductor(delta: DeltaSequence) -> int:
    """Conductor of the semigroup the deltas generate, in units of the
    final gcd e: every multiple of e from it on is in the semigroup.  The
    closed form for a telescopic sequence (the conductor of a plane-branch
    semigroup), scaled by e:
    sum((d[i-1] / d[i] - 1) * deltas[i] for i >= 1) - deltas[0] + e,
    with d[0] = deltas[0] and d[i] = ds[i-1]."""
    chain = (delta.deltas[0], *delta.ds)
    return (
        sum((chain[i - 1] // chain[i] - 1) * delta.deltas[i] for i in range(1, len(chain)))
        - delta.deltas[0]
        + delta.ds[-1]
    )


def _in_semigroup(target: int, delta: DeltaSequence) -> bool:
    """Whether target is a sum of deltas.  The reachability table stops at
    the conductor; above it membership is divisibility by the final gcd."""
    if target % delta.ds[-1]:
        return False
    return target >= _conductor(delta) or bool(_reachable(delta.deltas, target)[target])


def semigroup_represent(target: int, delta: DeltaSequence) -> SemigroupRepr:
    """Coordinates alphas with sum(alphas[i] * deltas[i]) == target.

    The tail (positions 2..h) is found back to front by the congruence
    argument: modulo the gcd of the earlier deltas, only the current one
    contributes, and its residue is invertible after dividing the chain
    gcd out.  That makes the tail unique; the head is tie-broken by
    maximizing alphas[0], then alphas[1].  Raises NotInSemigroup when no
    nonnegative solution exists.
    """
    if not isinstance(target, int) or target < 0:
        raise PreconditionViolated("represented degree must be a nonnegative integer")
    deltas, ds, h = delta.deltas, delta.ds, delta.h
    dp_says = _in_semigroup(target, delta)

    def fail():
        if dp_says:
            raise InternalInconsistency(
                f"descent found no representation of {target} but one exists"
            )
        raise NotInSemigroup(f"{target} is not in the semigroup of {deltas}")

    remaining = target
    tail = []
    for i in range(h, 1, -1):
        gcd_prev = ds[i - 2]
        gcd_cur = ds[i - 1]
        if remaining % gcd_cur:
            fail()
        q = gcd_prev // gcd_cur
        try:
            inv = pow((deltas[i] // gcd_cur) % q, -1, q)
        except ValueError as exc:
            raise InternalInconsistency("gcd chain quotient not coprime") from exc
        alpha = ((remaining // gcd_cur) * inv) % q
        remaining -= alpha * deltas[i]
        if remaining < 0:
            fail()
        tail.append(alpha)
    # rest mod deltas[1] repeats within deltas[1] steps of head0
    top = remaining // deltas[0]
    for head0 in range(top, max(top - deltas[1], -1), -1):
        rest = remaining - head0 * deltas[0]
        if rest % deltas[1] == 0:
            alphas = (head0, rest // deltas[1], *reversed(tail))
            break
    else:
        fail()
    if not dp_says or sum(a * d for a, d in zip(alphas, deltas)) != target:
        raise InternalInconsistency("representation disagrees with reachability")
    return SemigroupRepr(alphas)
