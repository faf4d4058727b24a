"""Degree-divisibility reports and the constant-combination line test."""

from fractions import Fraction

import pytest

from amoh import (
    NotMonic,
    Poly,
    PreconditionViolated,
    check_prop22,
    check_strong_am,
    eval_bivariate,
    sagbi_basis,
)
from amoh.cli import corpus_pairs

from conftest import Z, const


class TestStrongAm:
    def test_example_applicable(self, example_curve):
        f, g = example_curve
        rep = check_strong_am(f, g, 1)
        assert rep.applicable
        assert (rep.u_degree, rep.v_degree) == (2, 5)
        assert rep.divisibility_holds
        u = eval_bivariate(rep.u_witness, f, g)
        v = eval_bivariate(rep.v_witness, f, g)
        assert u.degree == 2 and v.degree == 5

    def test_witnesses_over_a_degree_1_basis_are_canonical(self):
        # the basis of this line is one element h of degree 1, so the
        # witnesses are h^23 and h^7 (12650 and 1218 terms when the powers
        # of h's provenance were expanded in full); reduced modulo the
        # implicit equation they have Y-degree below deg f = 24
        f, g = next((f, g) for _, f, g in corpus_pairs(150, 9) if (f.degree, g.degree) == (24, 8))
        (h,) = sagbi_basis(f, g).elements
        rep = check_strong_am(f, g, 1)
        for witness, degree in ((rep.u_witness, 23), (rep.v_witness, 7)):
            assert len(witness.nums) <= 150
            assert max(j for _, j in witness.nums) < 24
            assert eval_bivariate(witness, f, g) == h.poly**degree

    def test_not_applicable_two_three(self):
        rep = check_strong_am(Z**2, Z**3, 1)
        assert not rep.applicable
        assert rep.u_witness is None and rep.v_witness is None

    def test_degenerate_low_degree(self):
        rep = check_strong_am(Z, Z**5, 1)
        assert rep.applicable
        assert (rep.u_degree, rep.v_degree) == (0, 4)
        assert eval_bivariate(rep.v_witness, Z, Z**5).degree == 4

    @pytest.mark.parametrize("a", [0, -1, 4])
    def test_a_out_of_range(self, example_curve, a):
        with pytest.raises(PreconditionViolated):
            check_strong_am(*example_curve, a)

    def test_constant_generator_rejected(self):
        with pytest.raises(PreconditionViolated):
            check_strong_am(const(2), Z**3, 1)

    def test_witness_degrees_exact_over_sample(self, corpus):
        sample = [
            (f, g)
            for kind, f, g in corpus
            if kind != "line" and not f.is_constant and not g.is_constant
        ][:12]
        for f, g in sample:
            for a in range(1, min(f.degree, g.degree) + 1):
                rep = check_strong_am(f, g, a)
                if not rep.applicable:
                    continue
                assert rep.divisibility_holds
                assert eval_bivariate(rep.u_witness, f, g).degree == rep.u_degree
                assert eval_bivariate(rep.v_witness, f, g).degree == rep.v_degree


def _grid_curve(c, b, n):
    f = Z + const(c)
    return f, f**n - const(b)


class TestProp22:
    def test_cubic_family_member(self):
        f, g = _grid_curve(1, 2, 3)
        rep = check_prop22(f, g)
        assert rep.condition_221_holds and rep.a == Fraction(-6)
        assert rep.condition_222_holds and rep.b == Fraction(2)
        assert rep.is_line
        assert rep.canonical_c == Fraction(1)
        assert rep.canonical_b == Fraction(2)
        assert rep.derived_derivatives_verified

    def test_example_curve_fails_first_condition(self, example_curve):
        rep = check_prop22(*example_curve)
        assert not rep.condition_221_holds
        # 6*f'*g - 3*f*g' = 12*z^4, not a nonzero constant
        assert rep.a is None

    def test_equal_generators_fail(self):
        rep = check_prop22(Z, Z)
        assert not rep.condition_221_holds

    def test_not_monic_rejected(self):
        with pytest.raises(NotMonic):
            check_prop22(Z.scale(2), Z**2)
        with pytest.raises(NotMonic):
            check_prop22(const(1), Z)

    def test_grid_slice_passes(self):
        for c in (-2, 0, 2):
            for b in (-3, 1, 2):
                for n in (2, 4, 7):
                    rep = check_prop22(*_grid_curve(c, b, n))
                    assert rep.condition_221_holds and rep.condition_222_holds
                    assert rep.is_line
                    assert rep.canonical_c == Fraction(c)
                    assert rep.canonical_b == Fraction(b)
                    assert rep.derived_derivatives_verified

    def test_perturbation_breaks_a_condition(self):
        for c, b, n in [(-1, 2, 3), (0, 1, 2), (3, -3, 5)]:
            f, g = _grid_curve(c, b, n)
            rep = check_prop22(f, g + Z)
            assert not (rep.condition_221_holds and rep.condition_222_holds)
