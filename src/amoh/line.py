"""Deciding whether a parametrized plane curve is an embedded line.

A pair (f, g) is an embedded line when k[f, g] = k[z].  Two independent
deciders live here: the derivative criterion (both f' and g' must be
members of k[f, g]) and a constructive elimination loop, the
Abhyankar–Moh descent, that repeatedly kills the leading term of the
higher-degree generator with a power of the lower one and, on success,
assembles an explicit two-variable inverse P with P(f, g) = z.  The two
routes are always cross-checked against each other; disagreement is a bug
and aborts.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

from .errors import InternalInconsistency, PreconditionViolated
from .field_poly import BivarExpr, Poly
from .subalgebra import _generators, _lincomb, is_member, sagbi_basis

__all__ = [
    "LineReason",
    "LineVerdict",
    "criterion_check",
    "reduce_to_line",
    "is_line",
    "random_line_curve",
]

CRITERION_HOLDS = "CriterionHolds"
ALGEBRA_TRIVIAL = "AlgebraTrivial"
DIVISIBILITY_FAILURE = "DivisibilityFailure"
UNFAITHFUL_PARAMETER = "UnfaithfulParameter"


class LineReason(namedtuple("LineReason", "kind which m n deg_h", defaults=(None,) * 4)):
    """Why a verdict holds.  kind is one of the module constants; the
    remaining fields carry the detail relevant to that kind."""

    __slots__ = ()


LineVerdict = namedtuple("LineVerdict", "is_line inverse reason")


def criterion_check(f: Poly, g: Poly) -> bool:
    """Derivative criterion: true iff the pair generates a nontrivial
    algebra and both derivatives are members of it."""
    if f.is_constant and g.is_constant:
        return False
    return all(is_member(p.derivative(), f, g, certify=False).member for p in (f, g))


def _run_power(squares: list, p: int):
    """L**p for p >= 1, where squares = [L, L**2, L**4, ...] holds the
    squares of one run's lower generator L and grows as p needs: the
    product of the squares at p's set bits, lowest first, as repeated
    squaring multiplies them.  A run's first step has its largest power,
    so the run squares only as far as repeated squaring of that power
    does, and each later step adds only its set-bit products."""
    while p >> len(squares):
        squares.append(squares[-1] * squares[-1])
    out = None
    for i, sq in enumerate(squares):
        if p >> i & 1:
            out = sq if out is None else out * sq
    return out


def _inverse(k: int, p: Poly, steps, f: Poly, g: Poly) -> BivarExpr:
    """Replay the elimination steps on (X, Y) to get work[k] = p as an
    expression in (f, g); p = c1*z + c0, so z = (expr - c0)/c1.  Each
    step is one _lincomb, expr_hi - c * expr_lo**power over one common
    denominator (over Q c enters as its integer numerator and
    denominator), with expr_lo**power from the run's squares.

    The inverse is checked to evaluate to z exactly, over Q on packed
    integers: its Kronecker value N is compared with den * z packed at the
    same width (BivarExpr._evaluates_to), and no Poly is read back."""
    field = f.field
    X, Y, one = _generators(field)
    exprs = [X, Y]
    run = squares = None
    for hi, power, c in steps:
        if hi != run:
            run, squares = hi, [exprs[1 - hi]]
        num, den = (c.numerator, c.denominator) if field is Fraction else (c, 1)
        exprs[hi] = _lincomb([(1, 1, exprs[hi]), (-num, den, _run_power(squares, power))], field)
    c0, c1 = p.coeff(0), p.coeff(1)
    inverse = (exprs[k] - one.scale(c0)).scale(field(1) / c1)
    if not inverse._evaluates_to(f, g, Poly.variable(field)):
        raise InternalInconsistency("tracked inverse does not evaluate to z")
    return inverse


def reduce_to_line(f: Poly, g: Poly) -> LineVerdict:
    """Constructive decider: repeatedly subtract a power of the lower
    generator to cancel the higher one's leading term (f's on a tie),
    recording each step (hi, power, c) so that both generators are
    expressions in the original (f, g).

    Each step is one integer pass over Q (Poly._cancel_lead): top minus
    c times low**power, with c = lead(top) / lead(low**power) the only
    Fraction built.  A run of steps against one lower generator takes
    low**power from that run's squares (_run_power), and a monomial low
    from Poly.__pow__, which needs no products.

    Stops successfully when a generator reaches degree 1 (replaying the
    steps on (X, Y) and inverting it yields the inverse), and
    unsuccessfully when neither degree divides the other, when a sole
    survivor has degree above 1, or when both collapse to constants.  The
    top degree strictly decreases, so at most deg f + deg g steps run.
    """
    work = [f, g]
    steps = []
    run = squares = None
    while True:
        for k, p in enumerate(work):
            if p.degree == 1:
                return LineVerdict(
                    True, _inverse(k, p, steps, f, g), LineReason(CRITERION_HOLDS)
                )
        pf, pg = work
        if pf.is_constant and pg.is_constant:
            return LineVerdict(False, None, LineReason(ALGEBRA_TRIVIAL))
        if pf.is_constant or pg.is_constant:
            survivor = pg if pf.is_constant else pf
            return LineVerdict(
                False, None, LineReason(UNFAITHFUL_PARAMETER, deg_h=survivor.degree)
            )
        hi = 0 if pf.degree >= pg.degree else 1
        top, low = work[hi], work[1 - hi]
        if top.degree % low.degree:
            return LineVerdict(
                False, None, LineReason(DIVISIBILITY_FAILURE, m=pf.degree, n=pg.degree)
            )
        power = top.degree // low.degree
        if hi != run:
            monomial = low.field is Fraction and len(low.nums) - low.nums.count(0) == 1
            run, squares = hi, None if monomial else [low]
        pw = low**power if squares is None else _run_power(squares, power)
        work[hi], c = top._cancel_lead(pw)
        steps.append((hi, power, c))


def is_line(f: Poly, g: Poly) -> LineVerdict:
    """Full decision with cross-validation.

    An unfaithful parameter (maximal common inner factor h of degree above
    1) is an immediate no.  deg h is the gcd of the basis degrees: by
    Lüroth Frac(k[f, g]) = k(h), whose nonzero elements have degrees
    (orders at infinity) filling (deg h)*Z, each a difference of two
    degrees in k[f, g] ⊂ k[h].  Otherwise both the elimination loop and
    the derivative criterion run and must agree; the elimination verdict,
    which carries the inverse, is returned.
    """
    if f.is_constant and g.is_constant:
        return LineVerdict(False, None, LineReason(ALGEBRA_TRIVIAL))
    deg_h = math.gcd(*sagbi_basis(f, g).degrees)
    if deg_h > 1:
        return LineVerdict(False, None, LineReason(UNFAITHFUL_PARAMETER, deg_h=deg_h))
    verdict = reduce_to_line(f, g)
    if verdict.is_line != criterion_check(f, g):
        raise InternalInconsistency(
            "elimination and derivative criterion disagree; this is a bug"
        )
    return verdict


def random_line_curve(seed: int, steps: int, max_coeff: int = 5):
    """Random embedded line, built from (z, 0) by invertible moves:
    swapping the generators, scaling one by a nonzero constant, and adding
    to one a polynomial in the other.  Every output satisfies
    k[f, g] = k[z] by construction; degrees stay at most 30 (substitution
    degrees shrink when they would overshoot).  Deterministic in seed;
    max_coeff < 1 raises PreconditionViolated.
    """
    if max_coeff < 1:
        raise PreconditionViolated(f"max_coeff must be at least 1, got {max_coeff!r}")
    rng = random.Random(seed)
    z = Poly.variable()
    cur_f, cur_g = z, Poly.zero()
    for _ in range(steps):
        move = rng.choice(("sub", "sub", "swap", "scale"))
        if move == "swap":
            cur_f, cur_g = cur_g, cur_f
            continue
        if move == "scale":
            c = rng.choice([v for v in range(-max_coeff, max_coeff + 1) if v])
            if rng.random() < 0.5:
                cur_f = cur_f.scale(c)
            else:
                cur_g = cur_g.scale(c)
            continue
        onto_f = rng.random() < 0.5
        other = cur_g if onto_f else cur_f
        pdeg = rng.randint(1, 5)
        while pdeg and pdeg * max(other.degree, 0) > 30:
            pdeg -= 1
        coeffs = [rng.randint(-max_coeff, max_coeff) for _ in range(pdeg + 1)]
        while not coeffs[-1]:
            coeffs[-1] = rng.randint(-max_coeff, max_coeff)
        shift = Poly(coeffs).compose(other)
        if onto_f:
            cur_f = cur_f + shift
        else:
            cur_g = cur_g + shift
    return cur_f, cur_g
