"""Exact polynomial, rational function, and two-variable expression layer."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoh import (
    NEG_INF,
    BivarExpr,
    DivisionByZeroPoly,
    Poly,
    RatFunc,
    eval_bivariate,
    parse_poly,
    random_line_curve,
    reduce_to_line,
)
from amoh.field_poly import (
    _KRONECKER_MIN_TERMS,
    _KRONECKER_WIDE_MIN_TERMS,
    _kronecker_mul,
    _pack,
    _schoolbook_mul,
    _unpack,
    _width,
)

from conftest import Z, const


def qpoly(max_degree=6, max_num=30):
    coeff = st.fractions(
        min_value=-max_num, max_value=max_num, max_denominator=12
    )
    return st.lists(coeff, min_size=0, max_size=max_degree + 1).map(
        lambda cs: Poly(cs)
    )


class TestPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]).is_zero

    def test_zero_degree_is_neg_inf(self):
        assert Poly.zero(Fraction).degree is NEG_INF
        assert NEG_INF < 0
        assert NEG_INF < -(10**9)
        assert not NEG_INF < NEG_INF

    def test_neg_inf_comparisons(self):
        for n in (-(10**9), -1, 0, 7):
            assert NEG_INF < n and NEG_INF <= n and NEG_INF != n
            assert not (NEG_INF > n or NEG_INF >= n or NEG_INF == n)
            assert n > NEG_INF and n >= NEG_INF
            assert not (n < NEG_INF or n <= NEG_INF)
        assert NEG_INF == NEG_INF and NEG_INF <= NEG_INF and NEG_INF >= NEG_INF
        assert not (NEG_INF != NEG_INF or NEG_INF < NEG_INF or NEG_INF > NEG_INF)
        with pytest.raises(TypeError):
            NEG_INF < 1.5
        with pytest.raises(TypeError):
            NEG_INF >= "0"

    def test_constant_and_variable(self):
        assert const(5).degree == 0
        assert Z.degree == 1
        assert const(0).is_zero

    def test_lead_of_zero_raises(self):
        with pytest.raises(DivisionByZeroPoly):
            Poly.zero(Fraction).lead

    def test_coeff_out_of_range(self):
        assert (Z**2).coeff(5) == 0
        assert (Z**2).coeff(2) == 1

    def test_square_of_binomial(self):
        assert (Z + const(1)) ** 2 == Z**2 + Z.scale(2) + const(1)

    def test_power_zero_is_one(self):
        assert (Z**3 + Z) ** 0 == Poly.one(Fraction)

    def test_derivative(self):
        p = Z**6 + Z**2
        assert p.derivative() == (Z**5).scale(6) + Z.scale(2)
        assert const(7).derivative().is_zero

    def test_compose(self):
        p = Z**2 + const(1)
        q = Z**3
        assert p.compose(q) == Z**6 + const(1)
        assert q.compose(p) == (Z**2 + const(1)) ** 3

    def test_monic(self):
        p = (Z**2).scale(3) + Z.scale(6)
        assert p.monic() == Z**2 + Z.scale(2)

    @pytest.mark.parametrize("coeffs, want", [
        ([1, 4, -2], [Fraction(-1, 2), -2, 1]),
        ([Fraction(1, 3), 0, Fraction(3, 5)], [Fraction(5, 9), 0, 1]),
        ([Fraction(-2, 7), Fraction(-5, 3)], [Fraction(6, 35), 1]),
        ([Fraction(-4, 9)], [1]),
    ])
    def test_monic_negative_and_rational_leads(self, coeffs, want):
        got = Poly(coeffs).monic()
        assert got == Poly(want)
        assert got.den > 0 and math.gcd(got.den, *got.nums) == 1
        assert list(got.coeffs) == [Fraction(c) / Fraction(coeffs[-1]) for c in coeffs]

    def test_monic_of_a_monic_poly_is_itself(self):
        for p in (Poly([Fraction(2, 3), -1, 1]), Z, Poly([1]), Poly.variable(RatFunc)):
            assert p.monic() is p

    def test_monic_over_ratfunc(self):
        x, y = RatFunc.x(), Poly.variable(RatFunc)
        lead = -x / (x + 1)
        p = (y**2).scale(lead) + y.scale(x) + Poly.constant(RatFunc(3), RatFunc)
        got = p.monic()
        assert got.field is RatFunc and got.lead == RatFunc(1)
        assert got.scale(lead) == p
        assert got.coeff(1) == -(x + 1) and got.coeff(0) == RatFunc(3) / lead

    def test_divmod_by_zero_raises(self):
        with pytest.raises(DivisionByZeroPoly):
            divmod(Z**2, Poly.zero(Fraction))

    def test_mixed_field_raises(self):
        rf = Poly.variable(RatFunc)
        with pytest.raises(TypeError):
            Z + rf

    def test_division_over_ratfunc_raises(self):
        y = Poly.variable(RatFunc)
        for a, b in ((y**2, y), (y, y**2), (y, Poly.zero(RatFunc)), (y, RatFunc.x())):
            with pytest.raises(TypeError):
                divmod(a, b)
        with pytest.raises(TypeError):
            y**2 // y
        with pytest.raises(TypeError):
            y**2 % y


class TestPolyProperties:
    @settings(deadline=None)
    @given(qpoly(), qpoly(), qpoly())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @settings(deadline=None)
    @given(qpoly(), qpoly())
    def test_divmod_invariant(self, a, b):
        if b.is_zero:
            return
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.degree < b.degree

    @settings(deadline=None, max_examples=40)
    @given(qpoly(3), qpoly(3), qpoly(3))
    def test_compose_associates(self, a, b, c):
        assert a.compose(b).compose(c) == a.compose(b.compose(c))

    @settings(deadline=None)
    @given(qpoly(), qpoly())
    def test_derivative_is_leibniz(self, a, b):
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


# -- a plain Fraction reference for the integer core -----------------------


def _strip(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return _strip(x + y for x, y in zip(a, b))


def _ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def _ref_divmod(a, b):
    rem, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for top in range(len(a) - 1, len(b) - 2, -1):
        q = rem[top] / b[-1]
        quot[top - len(b) + 1] = q
        for k, y in enumerate(b):
            rem[top - len(b) + 1 + k] -= q * y
    return _strip(quot), _strip(rem)


def _ref_compose(a, b):
    out = []
    for c in reversed(a):
        out = _ref_add(_ref_mul(out, b), [c])
    return out


# coefficients: zero, small rationals, and signed numerators and
# denominators of a few hundred bits
_COEFF = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.builds(Fraction, st.integers(-(2**300), 2**300), st.integers(1, 2**200)),
)


def _coeff_lists(max_size):
    return st.lists(_COEFF, max_size=max_size).map(_strip)


# Operand lengths of the products below: 30 terms (20 and 10 for divmod's
# dividend and divisor), or more if the Kronecker thresholds rise past
# them, so that lowering a threshold never shortens what is tested.
_MUL_TERMS = max(30, 3 * _KRONECKER_WIDE_MIN_TERMS)
_DIVIDEND_TERMS = max(20, 2 * _KRONECKER_WIDE_MIN_TERMS)
_DIVISOR_TERMS = max(10, _KRONECKER_WIDE_MIN_TERMS)


class TestIntegerCore:
    """The integer numerators over one denominator against plain Fraction
    arithmetic."""

    @settings(deadline=None, max_examples=80)
    @given(_coeff_lists(_MUL_TERMS), _coeff_lists(_MUL_TERMS))
    def test_mul_add_sub(self, a, b):
        pa, pb = Poly(a), Poly(b)
        assert list((pa * pb).coeffs) == _ref_mul(a, b)
        assert list((pa + pb).coeffs) == _ref_add(a, b)
        assert list((pa - pb).coeffs) == _ref_add(a, [-c for c in b])
        assert list((-pa).coeffs) == [-c for c in a]
        assert list((pa * pa).coeffs) == _ref_mul(a, a)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, _MUL_TERMS),
        st.integers(1, _MUL_TERMS),
        st.integers(1, 400),
        st.randoms(use_true_random=False),
    )
    def test_both_products_on_both_sides_of_the_threshold(self, la, lb, bits, rng):
        def draw(n):
            return [rng.choice((0, 1, -1)) * rng.getrandbits(bits) for _ in range(n)]

        a, b = draw(la), draw(lb)
        a[-1] = b[-1] = -(2**bits) + 1
        want = [n.numerator for n in _ref_mul([Fraction(x) for x in a], [Fraction(x) for x in b])]
        assert _kronecker_mul(a, b) == want
        assert _schoolbook_mul(a, b, 0) == want
        assert _kronecker_mul(a, a) == _schoolbook_mul(a, a, 0)

    @pytest.mark.parametrize("c", [Fraction(1), Fraction(-3), Fraction(2, 7), Fraction(2**70, 3**40)])
    def test_monomial_products(self, c):
        # a monomial factor shifts and scales the other one
        others = [[Fraction(5)], [0, 0, Fraction(-1, 3)], [1, 0, Fraction(2, 9), 0, -4]]
        others.append([Fraction(k - 7, k % 4 + 1) for k in range(_MUL_TERMS)])
        for d in range(4):
            mono = [0] * d + [c]
            for other in others:
                want = _ref_mul(mono, other)
                assert list((Poly(mono) * Poly(other)).coeffs) == want
                assert list((Poly(other) * Poly(mono)).coeffs) == want

    def test_kronecker_slots_hold_the_largest_coefficients(self):
        # full magnitudes of one sign put every product coefficient at its bound
        for bits in range(1, 40):
            m = 2**bits - 1
            for n in (1, 2, 3, 12, 31):
                a = [-m] * n
                want = [m * m * min(k + 1, n, 2 * n - 1 - k) for k in range(2 * n - 1)]
                assert _kronecker_mul(a, a) == want
                assert _kronecker_mul(a, [m] * n) == [-x for x in want]

    @settings(deadline=None, max_examples=80)
    @given(_coeff_lists(_DIVIDEND_TERMS), _coeff_lists(_DIVISOR_TERMS))
    def test_divmod(self, a, b):
        if not b:
            return
        pa, pb = Poly(a), Poly(b)
        q, r = divmod(pa, pb)
        assert pa == q * pb + r
        assert r.degree < pb.degree
        assert (list(q.coeffs), list(r.coeffs)) == _ref_divmod(a, b)

    @settings(deadline=None, max_examples=40)
    @given(_coeff_lists(6), _coeff_lists(4))
    def test_compose_derivative_monic(self, a, b):
        pa, pb = Poly(a), Poly(b)
        assert list(pa.compose(pb).coeffs) == _ref_compose(a, b)
        assert list(pa.derivative().coeffs) == _strip(c * i for i, c in enumerate(a))[1:]
        if a:
            assert list(pa.monic().coeffs) == [c / a[-1] for c in a]

    @settings(deadline=None, max_examples=80)
    @given(
        _coeff_lists(12), st.lists(_COEFF, max_size=12), _COEFF.filter(bool), _COEFF.filter(bool)
    )
    def test_cancel_lead(self, a, b, la, lb):
        b = (b + [Fraction(0)] * len(a))[:len(a)]
        got, c = Poly(a + [la])._cancel_lead(Poly(b + [lb]))
        assert type(c) is Fraction and c == la / lb
        assert list(got.coeffs) == _ref_add(a, [-c * y for y in b])
        assert got.den > 0 and math.gcd(got.den, *got.nums) == 1

    @settings(deadline=None, max_examples=60)
    @given(_coeff_lists(8), _coeff_lists(8), st.integers(1, 2**64))
    def test_canonical_form_eq_hash_and_coeffs(self, a, b, k):
        got = Poly(a) * Poly(b)
        built = Poly(_ref_mul(a, b))
        assert got == built and hash(got) == hash(built)
        # the same rationals written over a larger denominator
        scaled = Poly([Fraction(c.numerator * k, c.denominator * k) for c in a])
        assert scaled == Poly(a) and hash(scaled) == hash(Poly(a))
        assert type(got.coeffs) is tuple
        assert all(type(c) is Fraction for c in got.coeffs)
        assert got.den > 0
        assert math.gcd(got.den, *got.nums) == 1

    def test_zero_is_canonical(self):
        p = Poly([Fraction(1, 3)])
        assert p - p == Poly.zero(Fraction)
        assert (p - p).den == 1
        assert Poly.zero(Fraction).coeffs == ()


class TestPowers:
    @settings(deadline=None, max_examples=20)
    @given(_coeff_lists(4))
    def test_poly_pow_matches_repeated_product(self, a):
        p = Poly(a)
        acc = Poly.one(Fraction)
        for n in range(10):
            assert p**n == acc
            acc = acc * p

    def test_bivar_pow_matches_repeated_product(self):
        e = BivarExpr.X() - BivarExpr.monomial(0, 2, Fraction(1, 3)) + BivarExpr.const(2)
        acc = BivarExpr.const(1)
        for n in range(10):
            assert e**n == acc
            acc = acc * e

    @pytest.mark.parametrize(
        "c", [Fraction(1), Fraction(-3), Fraction(2, 7), Fraction(2**70, 3**40)]
    )
    def test_monomial_pow_matches_repeated_product(self, c):
        for d in range(6):
            p = (Z**d).scale(c) if d else const(c)
            acc = Poly.one(Fraction)
            for n in range(10):
                assert p**n == acc
                acc = acc * p
            acc = p
            for _ in range(12):
                acc = acc * acc
            assert p**4096 == acc

    def test_ratfunc_variable_pow_matches_repeated_product(self):
        y = Poly.variable(RatFunc)
        acc = Poly.one(RatFunc)
        for k in range(7):
            assert y**k == acc
            acc = acc * y

    def test_parsed_sparse_sum_matches_poly_arithmetic(self):
        terms = [(Fraction((-1) ** k * (k + 1), k % 5 + 1), 7 * k + k % 3) for k in range(40)]
        text = " + ".join(f"({c})*z^{e}" for c, e in terms)
        expected = Poly.zero(Fraction)
        for c, e in terms:
            expected = expected + const(c) * Z**e
        assert parse_poly(text) == expected


class TestRatFunc:
    def test_common_factor_cancels(self):
        x = Poly.variable(Fraction)
        r = RatFunc(x**2 - Poly.one(Fraction), x - Poly.one(Fraction))
        assert r == RatFunc(x + Poly.one(Fraction))
        assert r.is_polynomial

    def test_denominator_is_monic(self):
        x = Poly.variable(Fraction)
        r = RatFunc(x, x.scale(2) + Poly.constant(2, Fraction))
        assert r.den.lead == 1

    def test_constant_denominator_divides_through(self):
        x = Poly.variable(Fraction)
        r = RatFunc(x.scale(6), Poly.constant(3, Fraction))
        assert r.is_polynomial
        assert r.as_poly() == x.scale(2)

    def test_zero_denominator_raises(self):
        x = Poly.variable(Fraction)
        with pytest.raises(DivisionByZeroPoly):
            RatFunc(x, Poly.zero(Fraction))

    def test_field_arithmetic(self):
        x = RatFunc.x()
        r = 1 / x + x
        assert r == RatFunc(
            Poly.variable(Fraction) ** 2 + Poly.one(Fraction), Poly.variable(Fraction)
        )
        assert r * x == Poly.variable(Fraction) ** 2 + Poly.one(Fraction)

    def test_negative_power(self):
        x = RatFunc.x()
        assert x**-2 * x**2 == RatFunc(Poly.one(Fraction))

    def test_quotient_rule(self):
        x = RatFunc.x()
        r = 1 / x
        assert r.derivative() == -(x**-2)


class TestBivarExpr:
    def test_eval_example_certificate(self, example_curve):
        f, g = example_curve
        cert = BivarExpr.Y() - BivarExpr.monomial(2, 0)
        assert eval_bivariate(cert, f, g) == Z**2

    def test_sorted_terms_lex(self):
        e = BivarExpr.monomial(3, 0, -1) + BivarExpr.monomial(1, 1)
        assert e.sorted_terms() == [(1, 1, Fraction(1)), (3, 0, Fraction(-1))]

    def test_weight(self):
        e = BivarExpr.monomial(1, 1) - BivarExpr.monomial(3, 0)
        assert e.weight(3, 6) == 9
        assert BivarExpr.zero().weight(3, 6) is NEG_INF

    def test_zero_terms_dropped(self):
        e = BivarExpr.monomial(1, 0) - BivarExpr.X()
        assert e == BivarExpr.zero()
        assert not e.terms

    def test_pow_matches_repeated_product(self):
        e = BivarExpr.X() + BivarExpr.Y()
        assert e**3 == e * e * e

    @pytest.mark.parametrize("key", [(-1, 0), (0, -2), (True, 0), (0, False), (1.5, 0), (0, 2.0), ("1", 0)])
    def test_bad_exponents_are_refused(self, key):
        # a negative exponent would send eval's power cache counting down
        # forever, and int() would truncate 1.5 to 1
        with pytest.raises(ValueError, match="nonnegative integers"):
            BivarExpr({key: 1})
        with pytest.raises(ValueError, match="nonnegative integers"):
            BivarExpr({(3, 3): 1, key: Fraction(1, 2)})

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5)
            ),
            max_size=5,
        )
    )
    def test_eval_is_ring_hom(self, terms):
        expr = BivarExpr.zero()
        for i, j, c in terms:
            expr = expr + BivarExpr.monomial(i, j, Fraction(c))
        f, g = Z**2, Z**3 + Z
        direct = eval_bivariate(expr, f, g)
        by_hand = Poly.zero(Fraction)
        for i, j, c in expr.sorted_terms():
            by_hand = by_hand + (f**i * g**j).scale(c)
        assert direct == by_hand



# Reference for BivarExpr: plain dicts (i, j) -> coefficient, with the
# arithmetic written out on field elements.


def _bref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _bref_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _bref_scale(a, c):
    return {k: v * c for k, v in a.items() if v * c}


def _bref_eval(a, f, g):
    out = Poly.zero(f.field)
    for (i, j), c in a.items():
        out = out + (f**i * g**j).scale(c)
    return out


_BIG_DEN = st.sampled_from((1, 2, 3, 2**61 - 1, 3**90, 2**127 * 5**7))
_BCOEFF = st.builds(
    lambda n, d, k: Fraction(n, d * k),
    st.integers(-(2**70), 2**70),
    _BIG_DEN,
    st.integers(1, 12),
)
_BTERMS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), _BCOEFF.filter(bool), max_size=6
)


class TestBivarIntegerCore:
    """Integer numerators over one denominator against the Fraction-dict
    reference above."""

    @staticmethod
    def _canonical(e):
        assert e.field is Fraction
        assert e.den > 0
        assert all(type(c) is int and c for c in e.nums.values())
        assert math.gcd(e.den, *e.nums.values()) == 1

    @settings(deadline=None, max_examples=80)
    @given(_BTERMS, _BTERMS, _BCOEFF, st.integers(0, 3))
    def test_ops_match_reference(self, a, b, c, n):
        ea, eb = BivarExpr(a), BivarExpr(b)
        neg_b = {k: -v for k, v in b.items()}
        cases = [
            (ea + eb, _bref_add(a, b)),
            (ea - eb, _bref_add(a, neg_b)),
            (-eb, neg_b),
            (ea * eb, _bref_mul(a, b)),
            (ea.scale(c), _bref_scale(a, c)),
        ]
        power = {(0, 0): Fraction(1)}
        for _ in range(n):
            power = _bref_mul(power, a)
        cases.append((ea**n, power))
        for got, want in cases:
            self._canonical(got)
            assert got.terms == want
            assert got == BivarExpr(want) and hash(got) == hash(BivarExpr(want))

    def test_scale_by_zero_int_and_fraction(self):
        e = BivarExpr({(1, 0): Fraction(2, 3), (0, 2): Fraction(-5, 6)})
        assert e.scale(0).is_zero and e.scale(Fraction(0)).is_zero
        assert e.scale(0).den == 1
        assert e.scale(3).terms == {(1, 0): Fraction(2), (0, 2): Fraction(-5, 2)}
        assert e.scale(Fraction(-3, 4)).terms == {(1, 0): Fraction(-1, 2), (0, 2): Fraction(5, 8)}
        self._canonical(e.scale(Fraction(-3, 4)))
        assert e.scale(Fraction(6, 5)).den == 5

    def test_large_denominators(self):
        p, q = 2**127 - 1, 2**89 - 1
        a = BivarExpr({(1, 0): Fraction(1, p), (0, 1): Fraction(3, q)})
        b = BivarExpr({(1, 0): Fraction(-1, p), (2, 0): Fraction(q, p)})
        s = a + b
        assert s.terms == {(0, 1): Fraction(3, q), (2, 0): Fraction(q, p)}
        assert s.den == p * q
        prod = a * b
        self._canonical(prod)
        assert prod.terms == _bref_mul(a.terms, b.terms)
        assert (a - a).is_zero and (a - a).den == 1

    @settings(deadline=None, max_examples=40)
    @given(_BTERMS, st.integers(1, 2**64))
    def test_eq_hash_against_fraction_built(self, a, k):
        built = BivarExpr.zero()
        for (i, j), c in a.items():
            built = built + BivarExpr.monomial(i, j, c)
        # the same rationals written over a larger denominator
        wide = BivarExpr({key: Fraction(c.numerator * k, c.denominator * k) for key, c in a.items()})
        direct = BivarExpr(a)
        assert built == direct == wide
        assert hash(built) == hash(direct) == hash(wide) == hash(frozenset(a.items()))
        assert (built.nums, built.den) == (direct.nums, direct.den)
        assert repr(direct) == f"BivarExpr({a!r})"

    @settings(deadline=None, max_examples=40)
    @given(_BTERMS, _BTERMS)
    def test_terms_are_fractions_in_lowest_terms(self, a, b):
        for e in (BivarExpr(a) * BivarExpr(b), BivarExpr(a) + BivarExpr(b)):
            for c in e.terms.values():
                assert type(c) is Fraction
                assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
            assert [t[2] for t in e.sorted_terms()] == [e.terms[k] for k in sorted(e.terms)]

    def test_ratfunc_coefficients_mix_in(self):
        x = RatFunc.x()
        r = {(1, 1): 1 / x, (0, 0): x + 1}
        q = {(1, 1): Fraction(2, 3), (2, 0): Fraction(-1, 7)}
        er, eq = BivarExpr(r), BivarExpr(q)
        # the rational coefficients lifted into RatFunc, and a RatFunc map
        # built from both kinds of coefficient
        eqr = BivarExpr({k: RatFunc(c) for k, c in q.items()})
        assert er.field is RatFunc and er.den == 1
        assert BivarExpr({**q, (3, 3): x}).field is RatFunc
        for got, want in (
            (er + eqr, _bref_add(r, q)),
            (eqr - er, _bref_add(q, {k: -v for k, v in r.items()})),
            (eqr * er, _bref_mul(q, r)),
            (eqr.scale(x), _bref_scale(q, x)),
            (er.scale(Fraction(3, 2)), _bref_scale(r, Fraction(3, 2))),
        ):
            assert got.field is RatFunc
            assert got.terms == want
        # an expression keeps its field: across fields, arithmetic raises
        # and equal coefficients do not make equal expressions
        for op in (lambda: er + eq, lambda: eq - er, lambda: eq * er, lambda: eq.scale(x)):
            with pytest.raises(TypeError):
                op()
        assert eqr != eq and eqr.terms == eq.terms
        assert (er - er).is_zero

    @settings(deadline=None, max_examples=40)
    @given(_BTERMS)
    def test_eval_over_q(self, a):
        f, g = Z**2 - Poly([Fraction(1, 3)]), Z**3 + Z.scale(Fraction(5, 2))
        assert BivarExpr(a).eval(f, g) == _bref_eval(a, f, g)

    def test_eval_over_ratfunc(self):
        x = RatFunc.x()
        y = Poly.variable(RatFunc)
        f = y**2 + Poly.constant(x)
        g = y.scale(1 / x) + Poly.constant(RatFunc(3))
        terms = {(0, 0): x, (1, 0): RatFunc(2), (2, 3): 1 / (x + 1), (0, 2): RatFunc(Fraction(-1, 5))}
        e = BivarExpr(terms)
        assert e.eval(f, g) == _bref_eval(terms, f, g)
        # an expression over Q evaluates at RatFunc polynomials once its
        # coefficients are lifted into RatFunc, and not before
        q = {(1, 2): Fraction(2, 3), (3, 0): Fraction(-1)}
        assert BivarExpr({k: RatFunc(c) for k, c in q.items()}).eval(f, g) == _bref_eval(q, f, g)
        with pytest.raises(TypeError):
            BivarExpr(q).eval(f, g)
        with pytest.raises(TypeError):
            e.eval(Z, Z)
        with pytest.raises(TypeError):
            e.eval(f, Z)

    def test_mixed_fields_raise(self):
        x = RatFunc.x()
        y = Poly.variable(RatFunc)
        eq = BivarExpr({(1, 0): Fraction(1, 2), (0, 1): Fraction(3)})
        er = BivarExpr({(1, 0): x, (0, 0): RatFunc(2)})
        for a, b in ((eq, er), (er, eq)):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError, match="mixed coefficient fields"):
                    op(a, b)
            assert a != b
        for value in (eq, Z):
            with pytest.raises(TypeError, match="mixed coefficient fields: Fraction vs RatFunc"):
                value.scale(x)
        with pytest.raises(TypeError, match="mixed coefficient fields"):
            eq.eval(y, y)
        with pytest.raises(TypeError, match="mixed coefficient fields"):
            er.eval(Z, Z**2)
        # BivarExpr shares Poly's check, so both word the error alike
        with pytest.raises(TypeError, match="mixed coefficient fields: Fraction vs RatFunc"):
            Z + y

    def test_zero_and_unit_keep_the_field(self):
        x = RatFunc.x()
        er = BivarExpr({(1, 0): x})
        for e, field in ((BivarExpr.X(), Fraction), (er, RatFunc)):
            assert BivarExpr.zero(field).field is field and BivarExpr.zero(field).is_zero
            assert e.scale(0).field is field and e.scale(0).is_zero
            assert (e**0).field is field and (e**0).terms == {(0, 0): field(1)}
            assert e - e == BivarExpr.zero(field)
        assert BivarExpr.zero() == BivarExpr.zero(Fraction) != BivarExpr.zero(RatFunc)
        assert er.scale(RatFunc(0)) == BivarExpr.zero(RatFunc)


def _eval_shapes():
    """Expressions wide in X, wide in Y, square and gappy, a constant and
    the empty one."""
    wide_x = {(i, j): Fraction((-1) ** i * (i + 1), j + 2) for i in range(13) for j in range(2)}
    wide_y = {(j, i): c for (i, j), c in wide_x.items()}
    square = {(i, j): Fraction(i - j, i + j + 1) for i in range(5) for j in range(5) if i != j}
    gappy = {(0, 0): Fraction(1), (7, 1): Fraction(-3, 4), (2, 9): Fraction(5), (11, 0): Fraction(1, 6)}
    return [wide_x, wide_y, square, gappy, {(0, 0): Fraction(-7, 3)}, {}]


class TestShortAxisEval:
    """eval runs Horner over the generator with fewer distinct exponents
    and streams the powers of the other into row accumulators; against
    term-by-term substitution, the sum of c * f^i * g^j."""

    @pytest.mark.parametrize("f, g", [
        (Z**2 - const(Fraction(1, 3)), Z**3 + Z.scale(Fraction(5, 2))),
        (Z**5, Z**7),
        (Z**4 + Z**3 + Z.scale(2), Z**6 + Z**2 + Z),
        (const(Fraction(-2, 5)), Z**2 + const(Fraction(1, 7))),
        (Poly.zero(), Z + const(1)),
        (Z**3 - Z, Poly.zero()),
    ])
    def test_shapes_over_q(self, f, g):
        for terms in _eval_shapes():
            assert BivarExpr(terms).eval(f, g) == _bref_eval(terms, f, g)

    def test_shapes_over_ratfunc(self):
        # the jacobian-probe path: plane maps are polynomials in y over k(x)
        x = RatFunc.x()
        y = Poly.variable(RatFunc)
        pairs = [
            (y**2 + Poly.constant(x), y.scale(1 / x) + Poly.constant(RatFunc(3))),
            (y.scale(x + 1) ** 3 - y, y + Poly.constant(x**2)),
            (y + Poly.constant(1 / (x - 1)), Poly.zero(RatFunc)),
        ]
        for f, g in pairs:
            for terms in _eval_shapes():
                lifted = {(i, j): c + x / (x + i + 1) for (i, j), c in terms.items()}
                e = BivarExpr(lifted) if lifted else BivarExpr.zero(RatFunc)
                assert e.eval(f, g) == _bref_eval(lifted, f, g)

    @settings(deadline=None, max_examples=60)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool),
            max_size=14,
        ),
        qpoly(4, 9),
        qpoly(4, 9),
    )
    def test_matches_term_by_term_substitution(self, terms, f, g):
        assert BivarExpr(terms).eval(f, g) == _bref_eval(terms, f, g)

    @staticmethod
    def _count_products(monkeypatch, e, f, g):
        # products of two Polys over e's field; RatFunc arithmetic makes
        # its own, and a Poly times a scalar is no product of polynomials
        calls = []
        original = Poly.__mul__

        def counting(self, other):
            if self.field is e.field and isinstance(other, Poly):
                calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        got = e.eval(f, g)
        monkeypatch.undo()
        return got, len(calls)

    def test_no_poly_product_over_q(self, monkeypatch):
        # over Q the streamed powers and the Horner steps are products of
        # packed integers
        terms = _eval_shapes()[0]
        f, g = Z**2 + Z + const(1), Z**3 - const(2)
        got, products = self._count_products(monkeypatch, BivarExpr(terms), f, g)
        assert got == _bref_eval(terms, f, g)
        assert products == 0

    def test_one_product_per_streamed_exponent_and_per_row(self, monkeypatch):
        # over RatFunc, 13 X exponents and 2 Y exponents: Horner over Y
        x = RatFunc.x()
        y = Poly.variable(RatFunc)
        terms = {k: c + x for k, c in _eval_shapes()[0].items()}
        f, g = y**2 + y + Poly.constant(x), y**3 - Poly.constant(RatFunc(2))
        got, products = self._count_products(monkeypatch, BivarExpr(terms), f, g)
        assert got == _bref_eval(terms, f, g)
        assert products == 12 + 1

    def test_holds_one_power_of_the_long_axis(self):
        # 151 X exponents: holding every power of f would take about 1.2 MB
        import tracemalloc

        f, g = Z**2 + Z + const(1), Z**3
        e = BivarExpr({(i, j): Fraction(i + 1, j + 1) for i in range(151) for j in range(2)})
        want = _bref_eval(e.terms, f, g)
        tracemalloc.start()
        try:
            got = e.eval(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 500_000


_WIDE_NUM = st.one_of(
    st.integers(-(2**200), 2**200),
    st.sampled_from([s * (2**k + d) for s in (1, -1) for k in (7, 8, 63, 64, 199) for d in (-1, 0)]),
)
_WIDE = st.builds(Fraction, _WIDE_NUM, st.one_of(st.just(1), st.integers(1, 2**64)))
_WIDE_POLY = st.one_of(
    st.just(Poly.zero()),
    _WIDE.map(lambda c: Poly([c])),
    st.lists(_WIDE, min_size=2, max_size=5).map(Poly),
)
_WIDE_KEYS = st.tuples(st.integers(0, 4), st.integers(0, 4))
_WIDE_TERMS = st.one_of(
    st.dictionaries(_WIDE_KEYS, _WIDE.filter(bool), min_size=1, max_size=1),
    st.dictionaries(_WIDE_KEYS, _WIDE.filter(bool), max_size=8),
)


class TestKroneckerWidth:
    """Over Q, eval packs f and g at 2**(8*width), with width chosen from
    bit lengths before any product; at its edges the result is still the
    term-by-term sum."""

    @settings(deadline=None, max_examples=150)
    @given(_WIDE_TERMS, _WIDE_POLY, _WIDE_POLY)
    def test_wide_coefficients(self, terms, f, g):
        assert BivarExpr(terms).eval(f, g) == _bref_eval(terms, f, g)

    def test_all_positive_sum_at_the_bound(self):
        # (X + Y)^k expanded at f = g = 1 + z: every product is positive,
        # so N's coefficients sum to the bound 4^k itself
        f = g = Z + const(1)
        for k in range(1, 41):
            terms = {(i, k - i): Fraction(math.comb(k, i)) for i in range(k + 1)}
            got = BivarExpr(terms).eval(f, g)
            assert got == _bref_eval(terms, f, g) == (Z + const(1)) ** k * const(2**k)

    @pytest.mark.parametrize("s", [1, 3, 7, 8, 13])
    def test_coefficient_equal_to_the_bound(self, s):
        # f = g = 2^s z and 2^p terms 2^t X^i Y^(k-i): N = 2^(t + s*k + p) z^k
        # is the bound itself, a power of two, at every byte alignment
        f = g = Z.scale(2**s)
        fd, gd = Z.scale(Fraction(2**s, 3)), Z.scale(Fraction(1, 2**s))
        for p in range(4):
            k = 2**p - 1
            for t in range(17):
                for sign in (1, -1):
                    terms = {(i, k - i): Fraction(sign * 2**t) for i in range(k + 1)}
                    want = Z**k * const(sign * 2 ** (t + s * k + p))
                    assert BivarExpr(terms).eval(f, g) == want
                    # and over denominators
                    assert BivarExpr(terms).eval(fd, gd) == _bref_eval(terms, fd, gd)

    def test_generators_wider_than_the_result(self):
        # a constant expression: the bound on N is tiny, yet f and g must fit
        big = Z.scale(2**300 - 1) + const(-(2**255))
        for terms in ({(0, 0): Fraction(3)}, {(0, 0): Fraction(1, 7), (0, 1): Fraction(1)}):
            assert BivarExpr(terms).eval(big, big) == _bref_eval(terms, big, big)

    def test_line_inverses_evaluate_to_z(self):
        for seed in range(40):
            f, g = random_line_curve(1300 + seed, 3 + seed % 6, 2 + 60 * (seed % 3))
            verdict = reduce_to_line(f, g)
            assert verdict.is_line
            assert verdict.inverse.eval(f, g) == Z
            if seed % 4 == 0:
                assert _bref_eval(verdict.inverse.terms, f, g) == Z


class TestMachineWordSlots:
    """Slots are 1, 2, 4 or 8 bytes wide whenever one of those holds the
    bound, packed and read back by one struct call; wider slots go one
    to_bytes / from_bytes per slot.  Either way the packed integer is the
    plain sum of shifted coefficients."""

    # the bit counts at which the rounded width changes, and one either side
    EDGES = (7, 8, 15, 16, 31, 32, 63, 64, 65)

    def test_width_is_the_smallest_word_then_the_smallest_byte_count(self):
        assert [_width(b) for b in (0, 1, 7)] == [1, 1, 1]
        assert [_width(b) for b in self.EDGES] == [1, 2, 2, 4, 4, 8, 8, 9, 9]
        for bits in range(200):
            w = _width(bits)
            # the slot's signed range holds the bound, and no narrower one does
            assert bits < 8 * w
            narrower = [v for v in (1, 2, 4, 8) if v < w] if bits < 64 else [w - 1]
            assert all(bits >= 8 * v for v in narrower)

    @pytest.mark.parametrize("width", range(1, 18))
    def test_round_trips_equal_the_shifted_sum(self, width):
        top = 2 ** (8 * width - 1) - 1
        rng = random.Random(width)
        cases = [[top], [-top], [0], [top, -top, 0, 0, 0, top, -top], [0, 0, 0, -top]]
        cases += [[0] * 9 + [top] + [0] * 7 + [-top] + [0] * 3]
        cases += [[rng.randint(-top, top) for _ in range(n)] for n in (1, 2, 5, 33)]
        cases += [[rng.choice((0, 0, top, -top, 1, -1)) for _ in range(40)]]
        for nums in cases:
            packed = _pack(nums, width)
            assert packed == sum(x << (8 * width * k) for k, x in enumerate(nums))
            assert _unpack(packed, len(nums), width) == nums
            # read back with more slots than were packed: the extra ones are 0
            assert _unpack(packed, len(nums) + 2, width) == nums + [0, 0]

    @pytest.mark.parametrize("bits", [15, 16, 31, 32, 63, 64, 65])
    def test_kronecker_matches_schoolbook_at_the_rounding_edges(self, bits):
        # full magnitudes of one sign put the middle coefficient of the
        # product at the bound, whose bit length is exactly bits
        rng = random.Random(bits)
        for n in (1, 2, 3, 5, 8):
            m = math.isqrt((2**bits - 1) // n)
            assert (m * m * n).bit_length() == bits
            for a, b in (([m] * n, [m] * n), ([-m] * n, [m] * n), ([m] * n, [-m] * (n + 3))):
                assert _kronecker_mul(a, b) == _schoolbook_mul(a, b, 0)
            a = [m] * n
            a[rng.randrange(n)] = -m
            b = [rng.choice((m, -m, 0)) for _ in range(n + 4)] + [m]
            assert _kronecker_mul(a, b) == _schoolbook_mul(a, b, 0)
            assert _kronecker_mul(a, a) == _schoolbook_mul(a, a, 0)

    @pytest.mark.parametrize("c", [3, -(2**20), 2**31, 2**40, -(2**70), 2**200])
    def test_product_threshold_follows_the_slot_width(self, c, monkeypatch):
        # Poly products go by Kronecker from _KRONECKER_MIN_TERMS nonzero
        # terms in the shorter operand when the slots are 1 to 8 bytes,
        # and from _KRONECKER_WIDE_MIN_TERMS when they are wider
        schoolbook = []

        def counting(a, b, zero):
            schoolbook.append(len(a))
            return _schoolbook_mul(a, b, zero)

        for n in range(2, _KRONECKER_WIDE_MIN_TERMS + 3):
            a = [c, 0] * (n - 1) + [c]
            b = [-c + k for k in range(2 * n + 1)]
            want = _schoolbook_mul(a, b, 0)
            wide = _width((max(map(abs, a)) * max(map(abs, b)) * len(a)).bit_length()) > 8
            monkeypatch.setattr("amoh.field_poly._schoolbook_mul", counting)
            schoolbook.clear()
            got = (Poly(a) * Poly(b)).nums, (Poly(b) * Poly(a)).nums
            monkeypatch.undo()
            assert got == (tuple(want), tuple(want))
            by_schoolbook = n < (_KRONECKER_WIDE_MIN_TERMS if wide else _KRONECKER_MIN_TERMS)
            assert len(schoolbook) == (2 if by_schoolbook else 0)

    @pytest.mark.parametrize("c, width", [(2**30, 4), (2**62, 8)])
    def test_packed_width_keeps_no_spare_bit(self, c, width):
        # c*X at f = z: N's one coefficient c is below 2**c.bit_length(),
        # so a bit length of 31 or 63 takes a 4- or 8-byte slot
        _, _, got, _ = BivarExpr({(1, 0): Fraction(c)})._packed(Z, Z)
        assert got == width

    @pytest.mark.parametrize("c", [2**31, -(2**31), 2**63, -(2**63)])
    def test_coefficient_one_past_the_signed_slot(self, c):
        # +2**31 fits no signed 4-byte slot and +2**63 no 8-byte one, so a
        # bound one bit short of c.bit_length() reads them back wrong
        terms = {(1, 0): Fraction(c)}
        e = BivarExpr(terms)
        value = e.eval(Z, Z)
        assert value == _bref_eval(terms, Z, Z) == Z.scale(c)
        assert e._evaluates_to(Z, Z, Z.scale(c))
        for wrong in (Z.scale(-c), Z.scale(c + 1), Z.scale(c) + const(1)):
            assert not e._evaluates_to(Z, Z, wrong)

    @pytest.mark.parametrize("s", [7, 15, 31, 63])
    def test_generator_coefficient_one_past_the_signed_slot(self, s):
        # a constant expression keeps N tiny, yet f and g are packed too,
        # and 2**s fits no signed slot of s + 1 bits
        e = BivarExpr({(0, 0): Fraction(3)})
        for f, g in ((Z.scale(2**s), Z), (Z, Z.scale(2**s))):
            assert e.eval(f, g) == const(3)
            assert e._evaluates_to(f, g, const(3))

    @pytest.mark.parametrize("width", [1, 2, 4, 8, 9])
    def test_evaluates_to_refuses_a_coefficient_just_past_the_slot(self, width):
        # f = 2^s z + 1, g = z^2 and X + Y/3: find s whose packed width is
        # width, then move one coefficient of den * value just past the
        # signed range of a slot, alone and with the carry into the next
        # slot that packs the sum back to N
        e = BivarExpr({(1, 0): Fraction(1), (0, 1): Fraction(1, 3)})
        g = Z**2
        for s in range(80):
            f = Z.scale(2**s) + const(1)
            _, _, got, den = e._packed(f, g)
            if got == width:
                break
        else:
            pytest.fail(f"no s packs at width {width}")
        value = e.eval(f, g)
        assert e._evaluates_to(f, g, value)
        half = 2 ** (8 * width - 1)
        targets = [
            value + const(Fraction(half, den)),
            value - const(Fraction(half, den)),
            value + const(Fraction(2 * half, den)) - Z.scale(Fraction(1, den)),
            value - (Z**2).scale(Fraction(2 * half, den)) + (Z**3).scale(Fraction(1, den)),
        ]
        for t in targets:
            assert not e._evaluates_to(f, g, t)
            assert e.eval(f, g) != t


def _near_targets(e, f, g):
    """The value of e at (f, g) and targets next to it: each coefficient of
    the packed numerator off by one either way, one more coefficient than
    it has, a denominator that does not divide, and coefficients just past
    a slot, alone and with the carry that would pack them back to N."""
    value = e.eval(f, g)
    if e.is_zero:
        return [value, const(1), Z, const(Fraction(1, 3))]
    _, n, width, den = e._packed(f, g)
    unit, slot = Fraction(1, den), Fraction(2 ** (8 * width), den)
    targets = [value, value + (Z**n).scale(unit), value + (Z ** (n + 2)).scale(5)]
    targets += [value + (Z**k).scale(s * unit) for k in range(n) for s in (1, -1)]
    targets += [value + const(Fraction(1, 7 * den)), value.scale(Fraction(1, 2**61 - 1))]
    # N over 2 or 3 instead of den: floor division by its denominator
    # would give back N exactly
    targets += [value.scale(Fraction(den, q)) for q in (2, 3)]
    targets += [
        value + const(slot),
        value + const(-slot / 2),
        value + const(slot) - Z.scale(unit),
        value - (Z ** (n - 1)).scale(slot / 2),
    ]
    return targets


class TestPackedComparison:
    """_evaluates_to answers eval(f, g) == target on the packed Kronecker
    value alone, with no Poly read back."""

    @staticmethod
    def _check(terms, f, g):
        e = BivarExpr(terms) if terms else BivarExpr.zero()
        targets = _near_targets(e, f, g)
        assert e._evaluates_to(f, g, targets[0])
        for t in targets:
            assert e._evaluates_to(f, g, t) == (e.eval(f, g) == t)

    @settings(deadline=None, max_examples=100)
    @given(_BTERMS, qpoly(4, 9), qpoly(4, 9))
    def test_near_targets(self, terms, f, g):
        self._check(terms, f, g)

    @settings(deadline=None, max_examples=100)
    @given(_WIDE_TERMS, _WIDE_POLY, _WIDE_POLY)
    def test_near_targets_of_wide_coefficients(self, terms, f, g):
        self._check(terms, f, g)

    def test_each_refusal(self):
        # f = 2z + 1, g = z^2: X + Y/3 is (z^2 + 6z + 3) / 3, over den 3,
        # in N's 1 + 2 + 1 slots
        f, g = Z.scale(2) + const(1), Z**2
        e = BivarExpr({(1, 0): Fraction(1), (0, 1): Fraction(1, 3)})
        value = e.eval(f, g)
        _, n, width, den = e._packed(f, g)
        assert (n, den) == (4, 3) and value == (Z**2 + Z.scale(6) + const(3)).scale(Fraction(1, 3))
        assert e._evaluates_to(f, g, value)
        # den * target not integral: N / 2, where 3 // 2 * N is N
        assert not e._evaluates_to(f, g, value.scale(Fraction(3, 2)))
        assert not e._evaluates_to(f, g, value + const(Fraction(1, 2)))
        # more coefficients than N
        assert not e._evaluates_to(f, g, value + Z**4)
        # a coefficient that does not fit a slot, with the carry that packs
        # the sum back to N
        carried = value + const(Fraction(2 ** (8 * width), 3)) - Z.scale(Fraction(1, 3))
        assert not e._evaluates_to(f, g, carried)

    def test_over_ratfunc(self):
        x, y = RatFunc.x(), Poly.variable(RatFunc)
        f, g = y**2 + Poly.constant(x), y.scale(1 / x)
        e = BivarExpr({(1, 0): x, (0, 2): RatFunc(1)})
        value = e.eval(f, g)
        assert e._evaluates_to(f, g, value)
        assert not e._evaluates_to(f, g, value + y)


def test_every_exported_name_resolves():
    import importlib
    import pkgutil

    import amoh

    for info in pkgutil.iter_modules(amoh.__path__):
        mod = importlib.import_module(f"amoh.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"amoh.{info.name}.{name}"
