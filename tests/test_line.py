"""The line deciders: derivative criterion, constructive elimination, and
their agreement over the generated corpus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoh import (
    BivarExpr,
    Poly,
    PreconditionViolated,
    criterion_check,
    eval_bivariate,
    is_line,
    is_member,
    random_line_curve,
    reduce_to_line,
)
from amoh.line import (
    ALGEBRA_TRIVIAL,
    CRITERION_HOLDS,
    DIVISIBILITY_FAILURE,
    UNFAITHFUL_PARAMETER,
)

from conftest import Z, const


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
