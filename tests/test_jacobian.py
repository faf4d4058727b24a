"""Planar maps over k(x): Jacobian determinants and derivative memberships.

A plane map is a bivariate polynomial held as a Poly in y over RatFunc(x)."""

from fractions import Fraction

from amoh import (
    Poly,
    RatFunc,
    eval_bivariate,
    jacobian_det,
    prop21_probe,
    random_tame_automorphism,
)
from amoh.jacobian import _partial_x


X, Y = Poly.constant(RatFunc.x(), RatFunc), Poly.variable(RatFunc)


def _scalar(p):
    """The rational value of a plane map that is constant in x and y."""
    assert p.is_constant
    v = p.constant_value()
    assert v.is_rational_constant
    return v


class TestBiPoly:
    def test_from_terms(self):
        # 2*x + y^2, from its coefficients in y
        two_x = RatFunc(Poly([0, 2]))
        p = Poly([two_x, RatFunc(0), RatFunc(Fraction(1))], RatFunc)
        assert p == X.scale(RatFunc(2)) + Y * Y

    def test_partials(self):
        p = X * X * Y + Y * Y
        assert p.derivative() == X * X + Y.scale(2)
        assert _partial_x(p) == (X * Y).scale(2)

    def test_y_degree(self):
        assert (X * X).degree == 0
        assert (X * Y * Y).degree == 2

    def test_pow(self):
        assert (X + Y) ** 2 == X * X + (X * Y).scale(RatFunc(2)) + Y * Y


class TestJacobianDet:
    def test_identity(self):
        assert _scalar(jacobian_det(X, Y)) == RatFunc(1)

    def test_swap_flips_sign(self):
        assert _scalar(jacobian_det(Y, X)) == RatFunc(-1)

    def test_shear_preserves_det(self):
        assert _scalar(jacobian_det(X, Y + X * X * X)) == RatFunc(1)

    def test_composition_multiplies_scalings(self):
        f, g = X.scale(RatFunc(3)), Y.scale(RatFunc(-2))
        assert _scalar(jacobian_det(f, g)) == RatFunc(-6)

    def test_degenerate_pair_is_zero(self):
        d = jacobian_det(X, X * X)
        assert d == Poly.constant(0, RatFunc)


class TestProbe:
    def test_shear(self):
        f, g = X, Y + X * X
        rep = prop21_probe(f, g)
        assert rep.jacobian_constant
        assert rep.fy_member.member and rep.gy_member.member
        # certificates are expressions in the pair itself
        # f_y = 0 and g_y = 1, both trivially in k(x)[f, g]
        assert rep.fy_member.certificate is not None

    def test_degenerate_y_free_pair(self):
        rep = prop21_probe(X, X * X - Poly.constant(1, RatFunc))
        assert not rep.jacobian_constant
        assert rep.fy_member.member and rep.gy_member.member
        for m in (rep.fy_member, rep.gy_member):
            assert m.certificate.is_zero and m.certificate.field is RatFunc

    def test_generator_determinism(self):
        assert random_tame_automorphism(4, 3) == random_tame_automorphism(4, 3)

    def test_probe_holds_on_generated_maps(self):
        for seed in range(12):
            f, g = random_tame_automorphism(seed, 4)
            rep = prop21_probe(f, g)
            assert rep.jacobian_constant
            assert rep.fy_member.member and rep.gy_member.member
            got_f = eval_bivariate(rep.fy_member.certificate, f, g)
            got_g = eval_bivariate(rep.gy_member.certificate, f, g)
            assert got_f == f.derivative()
            assert got_g == g.derivative()

    def test_y_degree_stays_capped(self):
        for seed in range(20):
            f, g = random_tame_automorphism(seed, 5, max_deg=16)
            assert max(f.degree, g.degree) <= 16
