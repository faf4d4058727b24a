"""Functional decomposition: inner factors, cofactors, common parameters."""

import random

import pytest

from amoh import (
    BadDegree,
    NotComposable,
    Poly,
    TrivialAlgebra,
    common_parameter,
    left_cofactor,
)
from amoh.decompose import _right_factor_pair

from conftest import Z, const


def _random_poly(rng, degree, spread=3):
    coeffs = [rng.randint(-spread, spread) for _ in range(degree)]
    coeffs.append(rng.choice([c for c in range(-spread, spread + 1) if c]))
    return Poly(coeffs)


class TestRightFactor:
    def test_recovers_known_inner(self):
        h = Z**2 + Z
        f = (Z**3 + const(1)).compose(h)
        got = _right_factor_pair(f, 2)[0]
        assert got.degree == 2
        assert left_cofactor(f, got).compose(got) == f

    def test_full_degree_factor(self):
        f = Z**4 + Z
        got = _right_factor_pair(f, 4)[0]
        assert left_cofactor(f, got).degree == 1

    def test_no_factor_returns_none(self):
        assert _right_factor_pair(Z**4 + Z, 2) is None

    @pytest.mark.parametrize("e", [0, -1, 3])
    def test_bad_degree(self, e):
        with pytest.raises(BadDegree):
            _right_factor_pair(Z**4, e)

    def test_constant_rejected(self):
        with pytest.raises(BadDegree):
            _right_factor_pair(const(4), 1)


class TestLeftCofactor:
    def test_exact_recovery(self):
        h = Z**3 - Z
        tilde = Z**2 + const(5)
        assert left_cofactor(tilde.compose(h), h) == tilde

    def test_not_composable(self):
        with pytest.raises(NotComposable):
            left_cofactor(Z**3 + Z, Z**2)

    def test_constant_inner_rejected(self):
        with pytest.raises(NotComposable):
            left_cofactor(Z**2, const(3))


class TestCommonParameter:
    def test_faithful_pair(self, example_curve):
        dec = common_parameter(*example_curve)
        assert dec.h.degree == 1

    def test_composed_pair_recovered(self):
        inner = Z**2
        f, g = (Z**3 + Z).compose(inner), (Z**2 - const(1)).compose(inner)
        dec = common_parameter(f, g)
        assert dec.h.degree == 2
        assert dec.f_tilde.compose(dec.h) == f
        assert dec.g_tilde.compose(dec.h) == g

    def test_degree_one_needs_no_division(self, monkeypatch):
        # coprime degrees leave only h = z; a pair with gcd 2 whose degree-2
        # candidate fails shows that the counter sees the divisions it does
        pairs = [
            ((Z**2 + Z) ** 3, Z),
            ((Z**3 + Z + const(1)) ** 2, Z**2 - Z.scale(3)),
            (Z**5 + Z, Z**7 + Z**2),
            (Z**4 + Z, Z**6 + Z**2),
        ]
        real = Poly.__divmod__
        for f, g in pairs:
            z = _right_factor_pair(f, 1)[0]
            want = (z, left_cofactor(f, z), left_cofactor(g, z))
            calls = []
            monkeypatch.setattr(Poly, "__divmod__", lambda a, b: calls.append(b) or real(a, b))
            dec = common_parameter(f, g)
            monkeypatch.undo()
            assert tuple(dec) == want
            assert dec.f_tilde == f and dec.g_tilde == g
            if f.degree % 2 or g.degree % 2:
                assert calls == []
            else:
                assert calls

    def test_both_constant(self):
        with pytest.raises(TrivialAlgebra):
            common_parameter(const(1), const(2))

    def test_one_constant_takes_whole_survivor(self):
        f = (Z**3).scale(2) + Z
        dec = common_parameter(f, const(7))
        assert dec.h.degree == 3
        assert dec.f_tilde.compose(dec.h) == f
        assert dec.g_tilde == const(7)

    def test_recovered_factor_is_monic(self):
        f, g = (Z**2).scale(3), (Z**4).scale(5) + Z**2
        dec = common_parameter(f, g)
        assert dec.h.lead == 1

    def test_round_trip_random_triples(self):
        rng = random.Random(11)
        for _ in range(30):
            e = rng.choice([2, 3])
            h = _random_poly(rng, e).monic()
            f_tilde = _random_poly(rng, rng.randint(1, 4))
            g_tilde = _random_poly(rng, rng.randint(1, 4))
            f, g = f_tilde.compose(h), g_tilde.compose(h)
            if f.is_constant and g.is_constant:
                continue
            dec = common_parameter(f, g)
            assert dec.h.degree >= e
            assert dec.f_tilde.compose(dec.h) == f
            assert dec.g_tilde.compose(dec.h) == g
