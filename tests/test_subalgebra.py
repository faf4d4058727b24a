"""Basis completion, membership certificates, and semigroup data.

The expensive checks here are oracle-backed: an independent echelon span
over products f^i g^j bounds what the completed basis must realize, and
semigroup representations are compared against exhaustive enumeration.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoh import (
    BivarExpr,
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
from amoh.subalgebra import _reachable

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
