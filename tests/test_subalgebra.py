"""Basis completion, membership certificates, and semigroup data.

The expensive checks here are oracle-backed: an independent echelon span
over products f^i g^j bounds what the completed basis must realize, and
semigroup representations are compared against exhaustive enumeration.
"""

import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoh import (
    BivarExpr,
    InternalInconsistency,
    InternalLimitExceeded,
    NotInSemigroup,
    Poly,
    PreconditionViolated,
    TrivialAlgebra,
    brute_force_member,
    delta_sequence,
    eval_bivariate,
    is_member,
    sagbi_basis,
    semigroup_represent,
    subduct,
)
from amoh.subalgebra import _reachable, _sagbi_cached

from conftest import Z, const


def _semigroup_table(degrees, bound):
    reach = _reachable(tuple(degrees), bound)
    return [v for v in range(bound + 1) if reach[v]]


class TestSagbiBasis:
    def test_example_basis(self, example_curve):
        f, g = example_curve
        basis = sagbi_basis(f, g)
        assert basis.degrees == (2, 3)
        by_deg = {el.degree: el for el in basis.elements}
        assert by_deg[2].poly == Z**2
        assert by_deg[2].provenance == BivarExpr.Y() - BivarExpr.monomial(2, 0)
        assert by_deg[3].poly == Z**3
        assert by_deg[3].provenance == BivarExpr.X()

    @pytest.mark.parametrize(
        "f, g, degrees",
        [
            (Z, Z**7, (1,)),
            (Z**2, Z**4 + Z, (1,)),
            (Z**2, Z**3, (2, 3)),
            (Z**4 + (Z**2).scale(2), Z**6, (4, 6)),
            (Z**6, Z**8 + Z**7, (6, 8, 23)),
        ],
    )
    def test_frozen_degree_sets(self, f, g, degrees):
        assert sagbi_basis(f, g).degrees == degrees

    def test_provenances_reevaluate(self):
        f, g = Z**6, Z**8 + Z**7
        for el in sagbi_basis(f, g).elements:
            assert eval_bivariate(el.provenance, f, g) == el.poly
            assert el.poly.lead == 1

    def test_trivial_algebra(self):
        with pytest.raises(TrivialAlgebra):
            sagbi_basis(const(3), const(5))

    def test_one_constant_generator(self):
        basis = sagbi_basis(const(2), Z**3)
        assert basis.degrees == (3,)

    def test_deterministic(self, example_curve):
        f, g = example_curve
        assert sagbi_basis(f, g).elements == sagbi_basis(f, g).elements

    def test_cap_is_enforced(self):
        with pytest.raises(InternalLimitExceeded):
            sagbi_basis(Z**6, Z**8 + Z**7, cap=3)

    @pytest.mark.parametrize("cap", [0, -3, "x", 2.5, True])
    def test_cap_must_be_a_positive_integer(self, cap):
        with pytest.raises(PreconditionViolated, match="cap must be a positive integer"):
            sagbi_basis(Z**6, Z**8 + Z**7, cap=cap)

    def test_generator_degrees_always_representable(self):
        rng = random.Random(7)
        for _ in range(25):
            f = Poly([rng.randint(-3, 3) for _ in range(rng.randint(2, 6))] + [1])
            g = Poly([rng.randint(-3, 3) for _ in range(rng.randint(2, 6))] + [1])
            degrees = sagbi_basis(f, g).degrees
            reach = _reachable(degrees, max(f.degree, g.degree))
            assert reach[f.degree] and reach[g.degree]

    def test_affine_shift_preserves_degrees(self, example_curve):
        f, g = example_curve
        want = sagbi_basis(f, g).degrees
        assert sagbi_basis(f + const(4), g - const(2)).degrees == want
        assert sagbi_basis(f.scale(3), g.scale(Fraction(-1, 2))).degrees == want


class TestEchelonOracle:
    """Completeness cross-check against a plain linear-algebra span.

    Every degree the echelon span of {f^i g^j} realizes must lie in the
    semigroup generated by the basis degrees, and conversely every
    semigroup degree up to V must be realized once the weight bound
    covers the provenance overhead (an element of degree d built from a
    provenance of weight w costs w - d extra per copy)."""

    CURVES = [
        (Z**3, Z**6 + Z**2),
        (Z**2, Z**3),
        (Z**2, Z**4 + Z),
        (Z**4 + (Z**2).scale(2), Z**6),
        (Z**6, Z**8 + Z**7),
    ]

    @pytest.mark.parametrize("f, g", CURVES)
    def test_realized_degrees_match_semigroup(self, f, g):
        from amoh.subalgebra import _echelon_span

        basis = sagbi_basis(f, g)
        m, n = f.degree, g.degree
        gaps = [
            el.provenance.weight(m, n) - el.degree for el in basis.elements
        ]
        min_deg = min(basis.degrees)
        V = 2 * max(basis.degrees) + min_deg
        W = V + (V // min_deg + 1) * max(max(gaps), 0)
        ech = _echelon_span(f, g, W)
        reach = _reachable(basis.degrees, max(W, V))
        for deg in ech:
            assert reach[deg], f"echelon realizes {deg} outside the semigroup"
        realized = set(ech)
        for v in range(V + 1):
            if reach[v]:
                assert v in realized, f"semigroup degree {v} not realized"


class TestMembership:
    def test_example_members(self, example_curve):
        f, g = example_curve
        res = is_member(Z**2, f, g)
        assert res.member and res.obstruction_degree is None
        assert res.certificate == BivarExpr.Y() - BivarExpr.monomial(2, 0)
        res5 = is_member(Z**5, f, g)
        assert res5.member
        assert res5.certificate == BivarExpr.monomial(1, 1) - BivarExpr.monomial(3, 0)

    def test_example_non_member(self, example_curve, corpus):
        f, g = example_curve
        res = is_member(Z, f, g)
        assert not res.member
        assert res.certificate is None
        assert res.obstruction_degree == 1
        # without the certificate: same verdict and obstruction degree
        for _, cf, cg in corpus[::8]:
            for u in (cf.derivative(), cg.derivative(), Z, Z**2 + cf):
                full = is_member(u, cf, cg)
                quick = is_member(u, cf, cg, certify=False)
                assert quick.member == full.member
                assert quick.obstruction_degree == full.obstruction_degree
                assert quick.certificate is None

    def test_degree_one_basis_answers_at_once(self):
        # g - f^2 + f = z - 1, so the degree semigroup is all of N; the
        # verdict needs no subduction through (z - 1)^k for k up to 3000
        f, g = Z**2 - const(2), Z**4 - (Z**2).scale(5) + Z + const(5)
        u = Poly([1] * 3001)
        start = time.process_time()
        res = is_member(u, f, g, certify=False)
        assert time.process_time() - start < 2.0
        assert res.member and res.certificate is None and res.obstruction_degree is None
        assert is_member(Z**3 + Z, f, g).certificate is not None

    def test_warm_basis_makes_no_poly_products(self, example_curve, monkeypatch):
        # each monic product is built once per degree and kept on the basis
        f, g = example_curve
        queries = (Poly([Fraction(k % 5 - 2, k % 3 + 1) for k in range(40)] + [1]),
                   f**3 * g**4 - f.scale(2) + g**2)
        first = [is_member(u, f, g, certify=c) for u in queries for c in (True, False)]
        calls = []
        original = Poly.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        again = [is_member(u, f, g, certify=c) for u in queries for c in (True, False)]
        assert calls == []
        assert again == first
        assert [r.member for r in first] == [False, False, True, True]

    def test_warm_subduction_builds_no_intermediate_polys(self, example_curve, monkeypatch):
        # the remainder is one numerator list, changed in place; no Poly sum
        # or scaling per step
        f, g = example_curve
        queries = (f**3 * g**4 - f.scale(2) + g**2, f**3 * g**4 - f.scale(2) + g**2 + Z)
        first = [is_member(u, f, g, certify=c) for u in queries for c in (True, False)]
        calls = []
        for name in ("_add", "scale"):
            original = getattr(Poly, name)

            def counting(self, *args, _original=original, _name=name):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(Poly, name, counting)
        again = [is_member(u, f, g, certify=c) for u in queries for c in (True, False)]
        assert calls == []
        assert again == first
        assert [r.member for r in first] == [True, True, False, False]

    def test_certificate_sum_adds_no_expressions(self, monkeypatch):
        # _expand sums the recipe into one numerator dict, so certifying
        # (completion and provenances included) never adds two expressions
        calls = []
        original = BivarExpr._add

        def counting(self, other, op):
            calls.append(1)
            return original(self, other, op)

        monkeypatch.setattr(BivarExpr, "_add", counting)
        f, g = Z**4 + Z.scale(Fraction(1, 3)), Z**6 - (Z**3).scale(Fraction(2, 5)) + const(1)
        u = f**3 * g - g.scale(Fraction(7, 2)) + f**2
        res = is_member(u, f, g)
        assert calls == []
        assert res.member
        assert eval_bivariate(res.certificate, f, g) == u

    def test_constant_query(self, example_curve):
        f, g = example_curve
        res = is_member(const(5), f, g)
        assert res.member
        assert eval_bivariate(res.certificate, f, g) == const(5)

    def test_trivial_algebra_raises(self):
        with pytest.raises(TrivialAlgebra):
            is_member(Z, const(1), const(2))

    def test_subduct_field_mismatch(self, example_curve):
        from amoh import RatFunc

        f, g = example_curve
        with pytest.raises(TypeError):
            subduct(Poly.variable(RatFunc), sagbi_basis(f, g))

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(-4, 4)),
            max_size=4,
        )
    )
    def test_certificate_round_trip(self, terms):
        f, g = Z**3, Z**6 + Z**2
        expr = BivarExpr.zero()
        for i, j, c in terms:
            expr = expr + BivarExpr.monomial(i, j, Fraction(c))
        u = eval_bivariate(expr, f, g)
        res = is_member(u, f, g)
        assert res.member
        assert eval_bivariate(res.certificate, f, g) == u

    def test_membership_closed_under_product(self, example_curve):
        f, g = example_curve
        u, v = Z**2, Z**5
        ru, rv = is_member(u, f, g), is_member(v, f, g)
        assert ru.member and rv.member
        prod = is_member(u * v, f, g)
        assert prod.member
        assert eval_bivariate(prod.certificate, f, g) == u * v


def _reference_subduct(reducer, u):
    """Subduction step by step with public Poly arithmetic: subtract the
    lead times the monic product of the lead degree until the degree
    leaves the semigroup or the remainder is constant."""
    r, consumed = u, []
    while not r.is_constant:
        got = reducer.product(r.degree)
        if got is None:
            break
        prod, factors = got
        consumed.append((r.lead, factors))
        r = r - prod.scale(r.lead)
    return r, tuple(consumed)


def _rational_pair():
    # monic products of these have denominators 21^a * 55^b, never 1
    f = Z**2 + Z.scale(Fraction(1, 3)) + const(Fraction(2, 7))
    g = Z**3 - (Z**2).scale(Fraction(3, 11)) + Z.scale(Fraction(1, 5))
    return f, g


def _random_poly(rng, degree, lead):
    return Poly(
        [Fraction(rng.randint(-99, 99), rng.randint(1, 97)) for _ in range(degree)] + [lead]
    )


class TestSubduct:
    """subduct: u == eval(consumed) + remainder, with the remainder constant
    or of a degree outside the degree semigroup."""

    @pytest.mark.parametrize(
        "f, g, u",
        [
            (Z**3, Z**6 + Z**2, Z**7 - (Z**2).scale(3) + const(1)),
            (Z**3, Z**6 + Z**2, Z**5 + (Z**4).scale(Fraction(1, 2)) + Z + const(3)),
            (Z**4, Z**6 + Z, (Z**11).scale(2) + Z**5 - Z**3 + Z),
            (Z**4, Z**6 + Z, Z**13 + (Z**2).scale(Fraction(-5, 7))),
            (*_rational_pair(), Z**8 + Z),
            (*_rational_pair(), Z**5 - const(Fraction(1, 3))),
        ],
    )
    def test_remainder_and_consumed(self, f, g, u):
        basis = sagbi_basis(f, g)
        r, consumed = subduct(u, basis)
        assert eval_bivariate(consumed, f, g) + r == u
        reach = _reachable(basis.degrees, max(u.degree, 0))
        assert r.is_constant or not reach[r.degree]
        assert subduct(u, basis, certify=False) == (r, None)


class TestSubductionKernel:
    """_Reducer.reduce against a reference written with public Poly
    arithmetic: the same remainder, the same consumed recipe (exact leads,
    identical factor tuples) and the same number of budget ticks."""

    def _check(self, f, g, queries):
        from amoh.subalgebra import _Budget, _Reducer

        basis = sagbi_basis(f, g)
        cap = 10**9
        for u in queries:
            budget = _Budget(cap)
            reducer = _Reducer(basis.elements, f.field, budget)
            r, consumed = reducer.reduce(u)
            want_r, want_consumed = _reference_subduct(reducer, u)
            assert r == want_r
            assert len(consumed) == len(want_consumed)
            for (lead, factors), (want_lead, want_factors) in zip(consumed, want_consumed):
                assert type(lead) is type(want_lead) and lead == want_lead
                assert factors is want_factors
            assert cap - budget.remaining == len(want_consumed)
            # the warm basis reducer agrees too
            assert basis._reducer.reduce(u) == (r, consumed)
        return basis

    def test_rational_basis_members_and_non_members(self):
        f, g = _rational_pair()
        rng = random.Random(17)
        members = [
            f**4 * g**3 - g.scale(Fraction(5, 13)) + f**2,
            (f * g).scale(Fraction(-22, 9)) + const(Fraction(3, 4)),
        ]
        non_members = [_random_poly(rng, d, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                       for d in (7, 30, 61)]
        basis = self._check(f, g, members + non_members)
        # the product denominators really are not 1
        assert all(basis._reducer.product(d)[0].den != 1 for d in range(2, 12))
        for u in members:
            assert is_member(u, f, g).member

    def test_negative_leads(self):
        f, g = _rational_pair()
        rng = random.Random(29)
        queries = [
            _random_poly(rng, d, Fraction(-rng.randint(1, 50), rng.randint(1, 50)))
            for d in (5, 18, 40)
        ]
        queries.append((f**5 - g**2).scale(Fraction(-7, 6)))
        self._check(f, g, queries)
        self._check(Z**3, Z**6 + Z**2, [Poly([1, -2, 0, -5, 0, 3, -9, 0, -4])])

    def test_unrelated_denominators_over_integer_basis(self):
        rng = random.Random(41)
        f, g = Z**3, Z**5 + Z**2
        queries = [_random_poly(rng, d, Fraction(rng.choice((-1, 1)), rng.randint(1, 97)))
                   for d in (9, 25, 50)]
        queries.append(f**3 * g**2 - g.scale(Fraction(8, 3)))
        self._check(f, g, queries)

    def test_basis_over_ratfunc(self):
        from amoh import RatFunc
        from amoh.jacobian import random_tame_automorphism

        # the y-partials of prop21_probe pairs: each basis is {y + c(x)}
        for seed in (1, 3, 6):
            f, g = random_tame_automorphism(seed, 4)
            y = Poly.variable(RatFunc)
            queries = [f.derivative(), g.derivative(), f * g - g, y**7 + f]
            self._check(f, g, queries)
        # a basis of degrees (2, 3) over k(x), with non-polynomial leads
        x = RatFunc.x()
        y = Poly.variable(RatFunc)
        f = (y**2).scale(x)
        g = y**3 + y.scale(x / (x + 1))
        basis = self._check(f, g, [
            (f**3 * g).scale(-x) + g.scale(RatFunc(Poly.one(Fraction), Poly([2, 0, 1]))),
            y**9 - (y**4).scale(x**2) + y,
        ])
        assert basis.degrees == (2, 3)

    def test_deferred_gcd_on_a_dense_non_member(self):
        # the common denominator is only reduced once, at the end; that
        # must leave the remainder in lowest terms and cost no more than
        # the per-step Poly arithmetic of the reference
        from amoh.subalgebra import _Reducer

        f, g = _rational_pair()
        rng = random.Random(800)
        u = _random_poly(rng, 800, Fraction(1, 2))
        basis = sagbi_basis(f, g)
        reducer = _Reducer(basis.elements, Fraction)
        start = time.process_time()
        r, consumed = reducer.reduce(u)
        kernel_s = time.process_time() - start
        # the reference reuses the factorizations and powers the kernel
        # already built; it multiplies only products of two or more powers
        start = time.process_time()
        want_r, want_consumed = _reference_subduct(reducer, u)
        reference_s = time.process_time() - start
        assert r.degree == want_r.degree == 1
        assert r == want_r and consumed == want_consumed
        assert math.gcd(r.den, *r.nums) == 1 and r.nums[-1]
        assert kernel_s < reference_s

    def test_memo_entries_on_both_sides_of_the_sparsity_cutoff(self):
        # an entry keeps only its support, the nonzero entries below the
        # lead, exactly when at most half of them are nonzero, and else all
        # the product's numerators over range(deg); product() gives the
        # same monic product either way
        from amoh.subalgebra import _Reducer

        kinds = set()
        for f, g in ((Z**5, Z**7), (Z**12 + Z, Z**18 + Z**2),
                     (Z**4 + Z**3 + Z.scale(2), Z**6 + Z**2 + Z), _rational_pair()):
            reducer = _Reducer(sagbi_basis(f, g).elements, Fraction)
            for deg in range(1, 80):
                got = reducer.product(deg)
                if got is None:
                    assert reducer._memo(deg) is None
                    continue
                prod, factors = got
                want = const(1)
                for el, c in factors:
                    want = want * el.poly**c
                assert prod == want and prod.degree == deg and prod.lead == 1
                low = prod.nums[:-1]
                support = tuple(k for k, v in enumerate(low) if v)
                sparse = 2 * len(support) <= deg
                kinds.add(sparse)
                entry = reducer._memo(deg)
                assert entry[0] is factors and entry[1] == prod.den
                if sparse:
                    assert entry[2:] == (tuple(low[k] for k in support), support)
                else:
                    assert entry[2:] == (prod.nums, range(deg))
        assert kinds == {True, False}

    @pytest.mark.parametrize("f, g", [
        (Z**5, Z**7),  # every product a monomial: all steps sparse
        (Z**12 + Z, Z**18 + Z**2),  # sparse, with denominators 3^k
        (Z**4 + Z**3 + Z.scale(2), Z**6 + Z**2 + Z),  # sparse and dense
        _rational_pair(),  # dense, with rational denominators
    ])
    def test_sparse_and_dense_steps_match_the_reference(self, f, g):
        rng = random.Random(f"{f!r}{g!r}")
        queries = []
        for weight in (20, 45, 90):
            terms = {
                (i, j): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                for i in range(weight // f.degree + 1)
                for j in range((weight - i * f.degree) // g.degree + 1)
            }
            queries.append(eval_bivariate(BivarExpr(terms), f, g))
            queries.append(_random_poly(rng, weight, Fraction(-rng.randint(1, 50), rng.randint(1, 7))))
        queries.append(Poly([rng.randint(-9, 9) for _ in range(61)] + [-2]))
        self._check(f, g, queries)

    def test_scaled_sparse_step(self):
        # the degree-25 element of t12-18 has denominator 3, so the sparse
        # products built with it do too; on an integral query whose lead
        # that denominator does not divide, the first step rescales the
        # remainder before it subtracts the support
        f, g = Z**12 + Z, Z**18 + Z**2
        basis = sagbi_basis(f, g)
        assert basis.degrees == (12, 18, 25) and basis.elements[2].poly.den == 3
        rng = random.Random(25)
        queries = [Poly([rng.randint(-9, 9) for _ in range(deg)] + [lead])
                   for deg, lead in ((25, -1), (50, 7), (61, 2), (73, -5))]
        for u in queries:
            _, den, _, support = basis._reducer._memo(u.degree)
            assert type(support) is tuple and den % 3 == 0 and u.lead.numerator % den
        self._check(f, g, queries)


def _sequential_expand(recipe, field):
    """A recipe summed one scaled term at a time with BivarExpr's +."""
    out = BivarExpr.zero(field)
    for coeff, factors in recipe:
        term = None
        for src, e in factors:
            p = src**e if isinstance(src, BivarExpr) else src.provenance**e
            term = p if term is None else term * p
        out = out + (BivarExpr.const(field(coeff)) if term is None else term.scale(coeff))
    return out


class TestExpand:
    """_expand against the sequential sum it replaces: equal, over the same
    field, with the terms in the same order."""

    def _check(self, recipe, field=Fraction):
        from amoh.subalgebra import _expand

        got = _expand(recipe, field)
        want = _sequential_expand(recipe, field)
        assert got == want
        assert got.field is want.field
        assert list(got.terms) == list(want.terms)
        assert got.nums == want.nums and got.den == want.den
        return got

    def test_key_cancels_and_comes_back(self):
        X, Y = BivarExpr.X(), BivarExpr.Y()
        got = self._check((
            (Fraction(2, 3), ((X, 1),)),
            (1, ((Y, 2),)),
            (Fraction(-2, 3), ((X, 1),)),
            (Fraction(5, 7), ((X, 1), (Y, 1))),
            (3, ((X, 1),)),
        ))
        assert list(got.terms) == [(0, 2), (1, 1), (1, 0)]

    def test_constants_and_zero_coefficients(self):
        X, Y = BivarExpr.X(), BivarExpr.Y()
        self._check((
            (Fraction(3, 4), ()),
            (0, ((X, 2),)),
            (Fraction(1, 6), ((Y, 1),)),
            (Fraction(0), ((Y, 3),)),
            (Fraction(-3, 4), ()),
            (2, ()),
        ))
        self._check(((Fraction(0), ()),))
        self._check(())

    def test_provenance_sources(self):
        f, g = _rational_pair()
        basis = sagbi_basis(f, g)
        recipe = tuple(
            (Fraction(k - 3, k + 2), ((el, k % 3 + 1),) + ((basis.elements[0], 1),) * (k % 2))
            for k, el in enumerate(basis.elements * 3)
        )
        got = self._check(recipe)
        u = Poly.zero(Fraction)
        for c, factors in recipe:
            term = const(1)
            for el, e in factors:
                term = term * el.poly**e
            u = u + term.scale(c)
        assert eval_bivariate(got, f, g) == u

    def test_ratfunc_coefficients_mixed_with_rational_terms(self):
        from amoh import RatFunc

        one = RatFunc(1)
        X, Y = BivarExpr.monomial(1, 0, one), BivarExpr.monomial(0, 1, one)
        x = RatFunc.x()
        over_x = BivarExpr.monomial(0, 1, RatFunc(Poly.one(Fraction), Poly([1, 1])))
        self._check((
            (Fraction(1, 2), ((X, 2),)),
            (3, ()),
            (x, ((X, 2),)),
            (Fraction(-1, 2), ((X, 2),)),
            (1, ((over_x, 1),)),
            (-x, ((X, 2),)),
            (RatFunc(0), ((Y, 1),)),
            (Fraction(2, 9), ((Y, 1),)),
        ), RatFunc)
        # a sum over RatFunc that cancels to nothing stays over RatFunc, and
        # so does one with a zero RatFunc constant, as in is_member over
        # k(x); a zero multiple of a product adds nothing
        got = self._check(((x, ((Y, 1),)), (-x, ((Y, 1),))), RatFunc)
        assert got.is_zero and got.field is RatFunc
        got = self._check(((1, ((Y, 1),)), (RatFunc(0), ())), RatFunc)
        assert got.field is RatFunc
        got = self._check(((x, ()), (RatFunc(0), ())), RatFunc)
        assert list(got.terms) == [(0, 0)]
        got = self._check(((RatFunc(0), ((Y, 1),)),), RatFunc)
        assert got.is_zero and got.field is RatFunc
        Yq = BivarExpr.Y()
        got = self._check(((Fraction(0), ((Yq, 1),)), (0, ())))
        assert got.is_zero and got.field is Fraction


BRUTE_FORCE_PINNED = "3aaf282d407166e7bc09977afeb1aac7b9b856fb52757edcb566a2edb540308b"


def _brute_force_digest():
    """sha256 over the sorted certificate terms (or None) that
    brute_force_member gives on rational generators, a constant
    generator and an unfaithful pair, at bounds from half to twice the
    weight of R (for the constant generator, 2 * deg g)."""
    X, Y = BivarExpr.X(), BivarExpr.Y()
    curves = [
        (Z**3, Z**6 + Z**2, 18),
        (*_rational_pair(), 6),
        ((Z**3).scale(Fraction(1, 2)) - Z, Z**2 + const(3), 6),
        (Z**4 + Z**2, Z**6, 12),
        (const(2), Z**3 + Z, 6),
        (Z**2 - const(2), Z**4 - (Z**2).scale(5) + Z + const(5), 8),
    ]
    exprs = [
        BivarExpr.const(Fraction(3)),
        X * Y - X.scale(Fraction(2, 3)),
        (X**2 * Y).scale(Fraction(-5, 4)) + Y**2 - BivarExpr.const(Fraction(1)),
        X**3 + Y**3 + (X * Y).scale(7),
    ]
    out = []
    for f, g, weight in curves:
        queries = [eval_bivariate(e, f, g) for e in exprs]
        queries += [Z, Z**5 + Z, queries[1] + Z**2]
        for u in queries:
            for bound in (weight // 2, weight - 1, weight, weight + 6, 2 * weight):
                cert = brute_force_member(u, f, g, bound)
                out.append(None if cert is None
                           else [[i, j, str(c)] for i, j, c in cert.sorted_terms()])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


class TestBruteForceOracle:
    def test_agrees_on_members_and_non_members(self, example_curve):
        f, g = example_curve
        m, n = f.degree, g.degree
        for u in [Z**2, Z**5, Z**4, Z, Z + Z**2, Z**7 + Z, const(3)]:
            bound = max(u.degree if not u.is_constant else 0, 0) + m * n
            combo = brute_force_member(u, f, g, bound)
            quick = is_member(u, f, g)
            assert (combo is not None) == quick.member
            if combo is not None:
                assert eval_bivariate(combo, f, g) == u

    def test_non_member_returns_none(self):
        assert brute_force_member(Z, Z**2, Z**3, 12) is None

    def test_low_bound_is_one_sided(self, example_curve):
        # an insufficient bound may miss a member but must never invent one
        f, g = example_curve
        assert brute_force_member(Z, f, g, 30) is None

    def test_pinned_certificates(self):
        # every certificate, or None, of fixed members and non-members at
        # bounds below and above the weight of the implicit equation
        assert _brute_force_digest() == BRUTE_FORCE_PINNED

    def test_over_q_only(self):
        from amoh import RatFunc

        y = Poly.variable(RatFunc)
        with pytest.raises(TypeError, match="rationals only"):
            brute_force_member(y**6, y**2, y**3, 12)


# (f, g, m = deg f / deg h): faithful pairs with monic, rational and
# non-monic generators, deg f above and below deg g, and one unfaithful
# pair (h = z^2)
_CANONICAL_CURVES = [
    (Z**3, Z**6 + Z**2, 3),
    (Z**2 - const(2), Z**4 - (Z**2).scale(5) + Z + const(5), 2),
    (Z**5, Z**7, 5),
    (Z**4 + Z**3 + Z.scale(2), Z**6 + Z**2 + Z, 4),
    (*_rational_pair(), 2),
    ((Z**3).scale(Fraction(1, 2)) - Z, Z**2 + const(3), 3),
    (Z**6 + Z**2, Z**3, 6),
    (Z**4 + Z**2, Z**6, 2),
]


def _y_degree(expr):
    return max((j for _, j in expr.nums), default=-1)


class TestCanonicalCertificates:
    """Over Q a certificate is the one expression of its value with
    Y-degree below m = deg f / deg h: the remainder modulo the implicit
    equation R."""

    @pytest.mark.parametrize("f, g, m", _CANONICAL_CURVES)
    def test_equation_vanishes_and_is_monic_in_y(self, f, g, m):
        implicit = sagbi_basis(f, g)._implicit
        assert implicit.m == m
        R = implicit.equation
        assert R.eval(f, g).is_zero
        assert [(i, j) for i, j in R.nums if j >= m] == [(0, m)] and R.nums[0, m] > 0
        assert R.den == 1 and math.gcd(*R.nums.values()) == 1

    @pytest.mark.parametrize("f, g, m", _CANONICAL_CURVES)
    def test_certificates_are_reduced_brute_force_certificates(self, f, g, m):
        # uniqueness: the certificate from subduction and the one from
        # linear algebra over all products f^i g^j agree once reduced
        rng = random.Random(f"{f!r}{g!r}")
        implicit = sagbi_basis(f, g)._implicit
        top = max(f.degree, g.degree)
        queries = [const(3), f * g, g**3 - f.scale(Fraction(1, 2))]
        for weight in (2 * top, 3 * top, 4 * top):
            terms = {}
            for _ in range(5):
                i = rng.randint(0, weight // f.degree)
                j = rng.randint(0, (weight - i * f.degree) // g.degree)
                terms[i, j] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            queries.append(eval_bivariate(BivarExpr(terms), f, g))
        for u in queries:
            if u.is_zero:
                continue
            cert = is_member(u, f, g).certificate
            assert eval_bivariate(cert, f, g) == u
            assert _y_degree(cert) < m
            other = brute_force_member(u, f, g, max(u.degree, 0) + 4 * top)
            assert implicit.reduce(other.nums, other.den) == cert

    def test_unfaithful_pair_reduces_with_the_inner_degrees(self):
        # f = h^2 + h, g = h^3 with h = z^2: R is the relation of (w^2 + w, w^3)
        f, g = Z**4 + Z**2, Z**6
        R = sagbi_basis(f, g)._implicit.equation
        X, Y = BivarExpr.X(), BivarExpr.Y()
        assert R == Y**2 + (X * Y).scale(3) + Y - X**3
        cert = is_member(g**3 + f * g**2, f, g).certificate
        assert _y_degree(cert) < 2 and eval_bivariate(cert, f, g) == g**3 + f * g**2

    def test_expression_below_m_needs_no_equation(self):
        # the t12-18 certificates of low weight never search for R
        f, g = Z**12 + Z, Z**18 + Z**2
        _sagbi_cached.cache_clear()
        basis = sagbi_basis(f, g)
        cert = is_member(f**3 * g**2 - g.scale(7) + f, f, g).certificate
        assert _y_degree(cert) < 12
        assert "equation" not in basis._implicit.__dict__

    def test_t12_18_certificates_up_to_weight_140_need_no_equation(self):
        # every product of the t12-18 member queries of the benchmark has
        # Y-degree below 12, so memoizing canonical products never needs R;
        # and a certificate below m is the query's own expression
        f, g = Z**12 + Z, Z**18 + Z**2
        _sagbi_cached.cache_clear()
        basis = sagbi_basis(f, g)
        rng = random.Random(140)
        for weight in (60, 100, 140):
            terms = {
                (i, j): Fraction(rng.randint(-3, 3) or 1, rng.choice((1, 2, 3)))
                for i in range(weight // 12 + 1)
                for j in range((weight - 12 * i) // 18 + 1)
            }
            u = eval_bivariate(BivarExpr(terms), f, g)
            assert is_member(u, f, g).certificate == BivarExpr(terms)
        assert basis._implicit.products
        assert "equation" not in basis._implicit.__dict__

    def test_memo_entries_are_reduced_products(self):
        for f, g, m in _CANONICAL_CURVES:
            implicit = sagbi_basis(f, g)._implicit
            for u in (f**4 * g**3 + g, f**2 * g**5 - f**7 + const(3)):
                assert is_member(u, f, g).member
            assert implicit.products
            for factors, expr in implicit.products.items():
                unreduced = BivarExpr.const(Fraction(1))
                for el, e in factors:
                    unreduced = unreduced * el.provenance**e
                assert implicit.reduce(unreduced.nums, unreduced.den) == expr
                assert _y_degree(expr) < m

    def test_warm_certificates_multiply_no_expressions(self, monkeypatch):
        # each factorization's canonical product is memoized on the basis,
        # so a repeated certified query only sums cached expressions
        cases = [
            (f, g, u)
            for f, g, _ in _CANONICAL_CURVES + [(Z**12 + Z, Z**18 + Z**2, 12)]
            for u in (f**3 * g**2 - g.scale(Fraction(7, 3)) + f, (f * g + const(2)) ** 3)
        ]
        first = [is_member(u, f, g) for f, g, u in cases]
        calls = []
        original = BivarExpr.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(BivarExpr, "__mul__", counting)
        again = [is_member(u, f, g) for f, g, u in cases]
        assert calls == []
        assert again == first and all(r.member for r in first)

    def test_wrong_y_degree_is_an_internal_error(self):
        # with m = 4 the search stops at weight 24 past R (weight 12), whose
        # Y-degree is 2, not 4
        from amoh.subalgebra import _Implicit

        with pytest.raises(InternalInconsistency, match="not monic of Y-degree 4"):
            _Implicit(Z**4 + Z**2, Z**6, 4).equation
        with pytest.raises(InternalInconsistency, match="no relation"):
            _Implicit(Z**3, Z**6 + Z**2, 1).equation

    def test_no_reduction_over_ratfunc_or_with_a_constant_generator(self):
        from amoh import RatFunc

        y = Poly.variable(RatFunc)
        assert sagbi_basis(y**2, y**3)._implicit is None
        assert sagbi_basis(const(2), Z**3 + Z)._implicit is None
        cert = is_member((Z**3 + Z) ** 4, const(2), Z**3 + Z).certificate
        assert cert == BivarExpr.monomial(0, 4)

    def test_degree_200_query_over_a_degree_1_basis(self):
        # the basis is {z - 1}; the certificate was (deg u + 1)^2 = 40401
        # terms when each power of its provenance was expanded in full
        f, g = Z**2 - const(2), Z**4 - (Z**2).scale(5) + Z + const(5)
        u = Poly([1] * 201)
        cert = is_member(u, f, g).certificate
        assert len(cert.nums) <= 202
        assert eval_bivariate(cert, f, g) == u

    def test_equation_matches_the_resultant(self):
        sympy = pytest.importorskip("sympy")
        z, X, Y = sympy.symbols("z X Y")

        def to_sympy(p):
            return sum(sympy.Rational(c.numerator, c.denominator) * z**k
                       for k, c in enumerate(p.coeffs))

        for f, g, m in _CANONICAL_CURVES:
            res = sympy.Poly(sympy.resultant(to_sympy(f) - X, to_sympy(g) - Y, z), X, Y)
            want = {k: Fraction(int(c.p), int(c.q)) for k, c in res.terms()}
            # the resultant is R^(deg f / m), a power of R when unfaithful
            got = (sagbi_basis(f, g)._implicit.equation ** (f.degree // m)).nums
            scalar = want[0, f.degree] / got[0, f.degree]
            assert want == {k: scalar * c for k, c in got.items()}


class TestDeltaSequence:
    def test_example(self, example_curve):
        seq = delta_sequence(*example_curve)
        assert seq.deltas == (6, 3, 2)
        assert seq.ds == (3, 1)
        assert seq.h == 2

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_coprime_to_one(self, n):
        seq = delta_sequence(Z, Z**n)
        assert seq.deltas == (n, 1)
        assert seq.ds == (1,)
        assert seq.h == 1

    def test_two_three(self):
        seq = delta_sequence(Z**2, Z**3)
        assert seq.deltas == (3, 2)
        assert seq.ds == (1,)
        assert seq.h == 1

    def test_unfaithful_chain_stops_above_one(self):
        seq = delta_sequence(Z**4 + (Z**2).scale(2), Z**6)
        assert seq.deltas == (6, 4)
        assert seq.ds == (2,)
        assert seq.h == 1

    def test_strictly_decreasing_chain(self, corpus):
        for kind, f, g in corpus[:40]:
            if f.is_constant or g.is_constant:
                continue
            seq = delta_sequence(f, g)
            chain = seq.ds
            assert all(a > b for a, b in zip(chain, chain[1:]))
            assert seq.deltas[0] == g.degree and seq.deltas[1] == f.degree

    def test_trivial_raises(self):
        with pytest.raises(TrivialAlgebra):
            delta_sequence(const(1), Z)


def _enumerate_reprs(deltas, ds, target):
    """All constrained representations of target, by brute force."""
    h = len(deltas) - 1
    bounds = []
    for i in range(2, h + 1):
        bounds.append(range(ds[i - 2] // ds[i - 1]))
    out = []
    for tail in itertools.product(*bounds):
        rest = target - sum(a * d for a, d in zip(tail, deltas[2:]))
        if rest < 0:
            continue
        for a1 in range(rest // deltas[1] + 1):
            rem = rest - a1 * deltas[1]
            if rem % deltas[0] == 0:
                out.append((rem // deltas[0], a1) + tail)
    return out


class TestSemigroupRepresent:
    def test_example(self, example_curve):
        seq = delta_sequence(*example_curve)
        assert semigroup_represent(5, seq).alphas == (0, 1, 1)

    def test_zero(self, example_curve):
        seq = delta_sequence(*example_curve)
        assert semigroup_represent(0, seq).alphas == (0, 0, 0)

    def test_not_in_semigroup(self):
        seq = delta_sequence(Z**2, Z**3)
        with pytest.raises(NotInSemigroup):
            semigroup_represent(1, seq)

    def test_bad_target(self, example_curve):
        seq = delta_sequence(*example_curve)
        with pytest.raises(PreconditionViolated):
            semigroup_represent(-2, seq)

    def test_matches_enumeration_with_tiebreak(self, example_curve):
        seq = delta_sequence(*example_curve)
        for target in range(31):
            candidates = _enumerate_reprs(seq.deltas, seq.ds, target)
            try:
                got = semigroup_represent(target, seq)
            except NotInSemigroup:
                assert not candidates, target
                continue
            assert candidates, target
            # unique constrained tail
            assert len({c[2:] for c in candidates}) == 1
            assert got.alphas == max(candidates)
            assert sum(a * d for a, d in zip(got.alphas, seq.deltas)) == target

    def test_conductor_bound_agrees_with_full_table(self):
        curves = (
            (Z**3, Z**6 + Z**2),
            (Z**2, Z**3),
            (Z**4, Z**6 + Z),
            (Z**12 + Z, Z**18 + Z**2),
            (Z**4, Z**10),
            (Z**5, Z**7),
        )
        for f, g in curves:
            seq = delta_sequence(f, g)
            members = set(_semigroup_table(seq.deltas, 200))
            for target in range(201):
                try:
                    semigroup_represent(target, seq)
                    found = True
                except NotInSemigroup:
                    found = False
                assert found == (target in members), (seq.deltas, target)

    def test_huge_target_needs_no_table(self):
        start = time.perf_counter()
        rep = semigroup_represent(10**11, delta_sequence(Z**2, Z**3))
        assert rep.alphas == (33333333332, 2)
        with pytest.raises(NotInSemigroup):
            semigroup_represent(10**11 + 1, delta_sequence(Z**4, Z**10))
        assert time.perf_counter() - start < 1.0

    def test_constraint_bounds_hold(self, corpus):
        for kind, f, g in corpus[:30]:
            if f.is_constant or g.is_constant:
                continue
            seq = delta_sequence(f, g)
            for target in range(0, 25, 3):
                try:
                    rep = semigroup_represent(target, seq)
                except NotInSemigroup:
                    continue
                for i in range(2, seq.h + 1):
                    assert 0 <= rep.alphas[i] < seq.ds[i - 2] // seq.ds[i - 1]
