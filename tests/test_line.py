"""The line deciders: derivative criterion, constructive elimination, and
their agreement over the generated corpus."""

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoh import (
    BivarExpr,
    InternalInconsistency,
    Poly,
    PreconditionViolated,
    RatFunc,
    criterion_check,
    eval_bivariate,
    is_line,
    is_member,
    random_line_curve,
    reduce_to_line,
)
from amoh import line as line_module
from amoh.line import (
    ALGEBRA_TRIVIAL,
    CRITERION_HOLDS,
    DIVISIBILITY_FAILURE,
    UNFAITHFUL_PARAMETER,
    LineReason,
    LineVerdict,
)

from conftest import Z, const


# The elimination as it ran on Fractions, with a fresh power and a scaling
# per step, kept as the reference that the integer step and the one-pass
# replay must reproduce.  It is verbatim but for one edit: X and Y start
# over f's field (they were over Q, so every line over k(x) raised
# TypeError).

def _reference_inverse(k: int, p: Poly, steps, f: Poly, g: Poly) -> BivarExpr:
    one = f.field(1)
    exprs = [BivarExpr.monomial(1, 0, one), BivarExpr.monomial(0, 1, one)]
    for hi, power, c in steps:
        exprs[hi] = exprs[hi] - (exprs[1 - hi] ** power).scale(c)
    c0, c1 = p.coeff(0), p.coeff(1)
    inverse = (exprs[k] - BivarExpr.const(c0)).scale(p.field(1) / c1)
    if eval_bivariate(inverse, f, g) != Poly.variable(f.field):
        raise InternalInconsistency("tracked inverse does not evaluate to z")
    return inverse


def _reference_reduce_to_line(f: Poly, g: Poly) -> LineVerdict:
    field = f.field
    work = [f, g]
    steps = []
    while True:
        for k, p in enumerate(work):
            if p.degree == 1:
                return LineVerdict(
                    True, _reference_inverse(k, p, steps, f, g), LineReason(CRITERION_HOLDS)
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
        # one scale per step: the lead of low**power, times c, is top's
        c = top.lead * (field(1) / low.lead) ** power
        work[hi] = top - (low**power).scale(c)
        steps.append((hi, power, c))


class TestExampleCurve:
    def test_not_a_line(self, example_curve):
        verdict = is_line(*example_curve)
        assert not verdict.is_line
        assert verdict.inverse is None
        assert verdict.reason.kind == DIVISIBILITY_FAILURE

    def test_failure_carries_reduced_degrees(self, example_curve):
        # elimination first cancels z^6 against (z^3)^2, so the dead end
        # is reached at degrees (3, 2), not the original (3, 6)
        verdict = reduce_to_line(*example_curve)
        assert (verdict.reason.m, verdict.reason.n) == (3, 2)

    def test_no_line_builds_no_expression_products(self, example_curve, monkeypatch):
        # the inverse is built from the recorded steps only for a line
        calls = []
        original = BivarExpr.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(BivarExpr, "__mul__", counting)
        assert not is_line(*example_curve).is_line
        assert calls == []
        f = Z**2 + Z
        g = f**2 + Z
        verdict = is_line(f, g)
        assert verdict.is_line and calls
        assert eval_bivariate(verdict.inverse, f, g) == Z

    def test_criterion_blames_g(self, example_curve):
        f, g = example_curve
        assert not criterion_check(f, g)
        assert is_member(f.derivative(), f, g).member
        assert not is_member(g.derivative(), f, g).member


class TestSmallCases:
    def test_identity_pair(self):
        verdict = is_line(Z, Z**2)
        assert verdict.is_line
        assert eval_bivariate(verdict.inverse, Z, Z**2) == Z

    def test_tie_break_reduces_f_against_g(self):
        f, g = Z + const(1), Z + const(2)
        verdict = is_line(f, g)
        assert verdict.is_line
        assert eval_bivariate(verdict.inverse, f, g) == Z

    def test_constants_are_trivial(self):
        verdict = is_line(const(1), const(2))
        assert not verdict.is_line
        assert verdict.reason.kind == ALGEBRA_TRIVIAL
        assert not criterion_check(const(1), const(2))

    def test_one_constant_high_survivor(self):
        verdict = is_line(Z**2, const(3))
        assert not verdict.is_line
        assert verdict.reason.kind == UNFAITHFUL_PARAMETER
        assert verdict.reason.deg_h == 2

    def test_unfaithful_detected_before_elimination(self):
        f, g = Z**2, Z**4 + Z**2
        verdict = is_line(f, g)
        assert not verdict.is_line
        assert verdict.reason.kind == UNFAITHFUL_PARAMETER
        assert verdict.reason.deg_h == 2


class TestGenerator:
    def test_deterministic(self):
        assert random_line_curve(9, 7, 3) == random_line_curve(9, 7, 3)

    def test_zero_steps(self):
        f, g = random_line_curve(123, 0)
        assert f == Z and g.is_zero

    @pytest.mark.parametrize("max_coeff", [0, -2])
    def test_coefficient_bound_below_one_is_refused(self, max_coeff):
        # with max_coeff = 0 every drawn coefficient is 0, and redrawing a
        # zero lead coefficient never ends
        with pytest.raises(PreconditionViolated, match="max_coeff"):
            random_line_curve(9, 7, max_coeff)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6))
    def test_every_output_is_a_line(self, seed):
        f, g = random_line_curve(seed, 5, 3)
        verdict = is_line(f, g)
        assert verdict.is_line
        assert eval_bivariate(verdict.inverse, f, g) == Z


class TestCorpus:
    def test_deciders_agree_everywhere(self, corpus):
        for kind, f, g in corpus:
            fast = criterion_check(f, g)
            constructive = reduce_to_line(f, g)
            assert fast == constructive.is_line, (kind, f.coeffs, g.coeffs)

    def test_lines_have_verified_inverses(self, corpus):
        for kind, f, g in corpus:
            if kind != "line":
                continue
            verdict = reduce_to_line(f, g)
            assert verdict.is_line
            assert eval_bivariate(verdict.inverse, f, g) == Z

    def test_swap_symmetry_is_semantic(self, corpus):
        for kind, f, g in corpus[:60]:
            a, b = is_line(f, g), is_line(g, f)
            assert a.is_line == b.is_line
            if b.is_line:
                assert eval_bivariate(b.inverse, g, f) == Z

    def test_composition_breaks_lines(self, corpus):
        lines = [(f, g) for kind, f, g in corpus if kind == "line"]
        checked = 0
        for f, g in lines:
            if f.is_constant or g.is_constant or max(f.degree, g.degree) > 8:
                continue
            for k in (2, 3):
                inner = Z**k
                verdict = is_line(f.compose(inner), g.compose(inner))
                assert not verdict.is_line
                assert verdict.reason.kind == UNFAITHFUL_PARAMETER
                assert verdict.reason.deg_h >= k
            checked += 1
            if checked >= 15:
                break
        assert checked >= 10

    def test_pattern_curves_fail_divisibility(self, corpus):
        for kind, f, g in corpus:
            if kind != "pattern":
                continue
            verdict = reduce_to_line(f, g)
            assert not verdict.is_line
            assert verdict.reason.kind == DIVISIBILITY_FAILURE
            assert (verdict.reason.m, verdict.reason.n) == (3, 2)


def _as_ratfunc(p: Poly) -> Poly:
    return Poly([RatFunc(c) for c in p.coeffs], RatFunc)


def _ratfunc_lines():
    """Lines over k(x): random lines over Q moved by invertible steps with
    coefficients in x, so leads are rational functions, some negative."""
    x, y = RatFunc.x(), Poly.variable(RatFunc)
    a, b = -x / (x + 1), RatFunc(Poly([3, 0, 1]), Poly([-2, 1]))
    out = [(y.scale(a) + Poly.constant(x, RatFunc), (y**3).scale(b) + y)]
    for seed in range(40):
        f, g = random_line_curve(seed, 4, 2)
        if min(f.degree, g.degree) < 1 or max(f.degree, g.degree) > 4:
            continue
        f, g = _as_ratfunc(f), _as_ratfunc(g)
        g = g + (f**2).scale(b) if seed % 2 else g + f.scale(x)
        out.append((f.scale(a), g))
        out.append((g, f + g.scale(RatFunc(1) / x)))
    return out


class TestIntegerElimination:
    """reduce_to_line against the Fraction reference above: verdicts,
    reasons, the step records (hi, power, c) that build an inverse, and
    inverses (numerators and denominator) are equal.  Steps are recorded
    where both deciders hand them to their inverse builders, so for every
    line."""

    @pytest.fixture
    def compare(self, monkeypatch):
        logs = {}

        def recording(name, original):
            def builder(k, p, steps, f, g):
                logs[name] = list(steps)
                return original(k, p, steps, f, g)
            return builder

        monkeypatch.setattr(line_module, "_inverse", recording("new", line_module._inverse))
        monkeypatch.setattr(
            sys.modules[__name__], "_reference_inverse", recording("ref", _reference_inverse)
        )

        def check(f, g):
            logs.clear()
            got, want = reduce_to_line(f, g), _reference_reduce_to_line(f, g)
            assert (got.is_line, got.reason) == (want.is_line, want.reason)
            assert logs.get("new") == logs.get("ref")
            if want.inverse is None:
                assert got.inverse is None
            else:
                assert got.inverse.field is want.inverse.field
                assert (got.inverse.nums, got.inverse.den) == (want.inverse.nums, want.inverse.den)
            return got

        return check

    def test_corpus(self, corpus, compare):
        lines = sum(compare(f, g).is_line for _, f, g in corpus)
        assert 0 < lines < len(corpus)

    def test_random_lines(self, compare):
        for seed in range(200):
            f, g = random_line_curve(seed, 3 + seed % 8)
            compare(f, g)
            compare(g, f)

    @pytest.mark.parametrize("a, b", [
        (-1, 1), (Fraction(-3, 7), Fraction(5, 2)), (Fraction(2, 9), -6), (-4, Fraction(-1, 3)),
    ])
    def test_rational_and_negative_leads(self, compare, a, b):
        for seed in range(40):
            f, g = random_line_curve(1000 + seed, 6)
            compare(f.scale(a), g.scale(b))
            compare((f + g.scale(b)).scale(a), g)
        compare((Z**3).scale(a) + Z, (Z**6).scale(b) + Z**2)
        assert compare(Z.scale(a) + const(b), (Z**2).scale(b)).is_line

    def test_ratfunc_lines(self, compare):
        for f, g in _ratfunc_lines():
            assert compare(f, g).is_line


class TestHighPowerStep:
    @staticmethod
    def _count_products(monkeypatch, cls):
        calls = []
        original = cls.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(cls, "__mul__", counting)
        return calls

    @pytest.mark.parametrize("monomial", [True, False])
    def test_one_step_of_power_p_takes_log_p_products(self, monkeypatch, monomial):
        # one step of power 200: low**200 by repeated squaring is at most
        # 2 * 8 products (none for a monomial low), where building every
        # power from 1 up would take 199
        low = Z**2 if monomial else Z**2 + Z
        f, g = low**200 + Z, low
        polys = self._count_products(monkeypatch, Poly)
        exprs = self._count_products(monkeypatch, BivarExpr)
        verdict = reduce_to_line(f, g)
        assert verdict.is_line
        assert len(polys) <= (0 if monomial else 2 * (200).bit_length())
        assert len(exprs) <= 2 * (200).bit_length()
        assert eval_bivariate(verdict.inverse, f, g) == Z


class TestRunSquares:
    def test_one_run_against_a_non_monomial_low(self, monkeypatch):
        # f = z^2 + z and g = f + f^2 + ... + f^12 + z: eleven steps of
        # powers 12 down to 2 against the low f, then one of power 1
        # against g.  The run squares f up to f^8 once, and each step
        # multiplies the squares at its power's set bits, where a fresh
        # low**p per step would square again every time
        f = Z**2 + Z
        g = sum((f**k for k in range(2, 13)), f) + Z
        recorded = []
        monkeypatch.setattr(line_module, "_inverse", lambda k, p, steps, f, g: recorded.append(steps))
        polys = TestHighPowerStep._count_products(monkeypatch, Poly)
        assert reduce_to_line(f, g).is_line
        monkeypatch.undo()
        (steps,) = recorded
        assert [(hi, power) for hi, power, _ in steps] == [(1, p) for p in range(12, 1, -1)] + [(0, 1)]
        # a run's first step has its largest power: f^12 needs f^2, f^4, f^8
        squares = sum(
            max(power for _, power, _ in run).bit_length() - 1
            for _, run in itertools.groupby(steps, key=lambda step: step[0])
        )
        set_bits = sum(bin(power).count("1") - 1 for _, power, _ in steps)
        per_step = sum(power.bit_length() - 1 + bin(power).count("1") - 1 for _, power, _ in steps)
        assert len(polys) <= squares + set_bits < per_step
        assert eval_bivariate(reduce_to_line(f, g).inverse, f, g) == Z


class TestInverseCheck:
    def test_a_corrupted_step_is_caught(self, monkeypatch):
        # the replayed inverse of a step whose c is off no longer evaluates
        # to z, and the packed comparison says so
        f = Z**2 + Z
        g = f**3 + (f**2).scale(2) + Z
        recorded = []
        real = line_module._inverse
        monkeypatch.setattr(
            line_module, "_inverse", lambda *args: recorded.append(args) or real(*args)
        )
        verdict = reduce_to_line(f, g)
        monkeypatch.undo()
        (args,) = recorded
        k, p, steps, _, _ = args
        assert real(k, p, steps, f, g) == verdict.inverse
        for i, (hi, power, c) in enumerate(steps):
            for wrong in (c + 1, c - Fraction(1, 3), -c):
                broken = steps[:i] + [(hi, power, wrong)] + steps[i + 1:]
                with pytest.raises(InternalInconsistency, match="does not evaluate to z"):
                    real(k, p, broken, f, g)
