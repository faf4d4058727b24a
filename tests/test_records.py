"""Result records: construction, repr, equality, hash and immutability."""

from fractions import Fraction

import pytest

from amoh import BivarExpr, Poly, RatFunc, sagbi_basis
from amoh.decompose import Decomposition
from amoh.jacobian import Prop21Report
from amoh.line import LineReason, LineVerdict
from amoh.subalgebra import (
    DeltaSequence,
    MembershipResult,
    SagbiBasis,
    SagbiElement,
    SemigroupRepr,
)
from amoh.theorems import Prop22Report, StrongAmReport

from conftest import Z

Z_REPR = "Poly([Fraction(0, 1), Fraction(1, 1)])"
Z2_REPR = "Poly([Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)])"
X_REPR = "BivarExpr({(1, 0): Fraction(1, 1)})"
REASON_REPR = "LineReason(kind='CriterionHolds', which=None, m=None, n=None, deg_h=None)"
MISS = MembershipResult(False, None, 2)
MISS_REPR = "MembershipResult(member=False, certificate=None, obstruction_degree=2)"
ELEMENT = SagbiElement(Z**2, ((1, 1, ((BivarExpr.X(), 2),)),), 2)
ELEMENT_REPR = f"SagbiElement(poly={Z2_REPR}, degree=2)"

# (record class, field values in order, repr the frozen dataclasses printed)
RECORDS = [
    (SagbiBasis, ((ELEMENT,), Z**2, Z),
     f"SagbiBasis(elements=({ELEMENT_REPR},), f={Z2_REPR}, g={Z_REPR})"),
    (MembershipResult, (True, BivarExpr.X(), None),
     f"MembershipResult(member=True, certificate={X_REPR}, obstruction_degree=None)"),
    (DeltaSequence, ((3, 2), (1,), 1), "DeltaSequence(deltas=(3, 2), ds=(1,), h=1)"),
    (SemigroupRepr, ((1, 2),), "SemigroupRepr(alphas=(1, 2))"),
    (Decomposition, (Z, Z**2, Z),
     f"Decomposition(h={Z_REPR}, f_tilde={Z2_REPR}, g_tilde={Z_REPR})"),
    (LineReason, ("CriterionHolds", None, None, None, None), REASON_REPR),
    (LineReason, ("DivisibilityFailure", None, 4, 6, None),
     "LineReason(kind='DivisibilityFailure', which=None, m=4, n=6, deg_h=None)"),
    (LineVerdict, (True, BivarExpr.X(), LineReason("CriterionHolds")),
     f"LineVerdict(is_line=True, inverse={X_REPR}, reason={REASON_REPR})"),
    (StrongAmReport, (False, 1, 2, 3, None, None, True),
     "StrongAmReport(applicable=False, a=1, u_degree=2, v_degree=3, u_witness=None, "
     "v_witness=None, divisibility_holds=True)"),
    (Prop22Report, (True, Fraction(1, 2), False, None, True, Fraction(0), Fraction(-1), True),
     "Prop22Report(condition_221_holds=True, a=Fraction(1, 2), condition_222_holds=False, "
     "b=None, is_line=True, canonical_c=Fraction(0, 1), canonical_b=Fraction(-1, 1), "
     "derived_derivatives_verified=True)"),
    (Prop21Report, (True, MISS, MISS),
     f"Prop21Report(jacobian_constant=True, fy_member={MISS_REPR}, gy_member={MISS_REPR})"),
]

IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(RECORDS)]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
class TestNamedRecords:
    def test_positional_and_keyword_construction(self, cls, values, text):
        record = cls(*values)
        assert record == cls(**dict(zip(cls._fields, values)))
        assert tuple(getattr(record, name) for name in cls._fields) == values

    def test_repr(self, cls, values, text):
        assert repr(cls(*values)) == text

    def test_equality_and_hash_agree(self, cls, values, text):
        a, b = cls(*values), cls(*values)
        assert a == b and hash(a) == hash(b)
        changed = cls(*values[:-1], "other")
        assert a != changed

    def test_assignment_raises(self, cls, values, text):
        record = cls(*values)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert tuple(getattr(record, name) for name in cls._fields) == values


def test_line_reason_defaults():
    assert LineReason("CriterionHolds") == LineReason("CriterionHolds", None, None, None, None)
    assert LineReason("DerivativeNotMember", which="g").which == "g"
    assert LineReason("UnfaithfulParameter", deg_h=2).deg_h == 2


def test_basis_caches_its_reducer():
    basis = sagbi_basis(Z**2, Z**3)
    assert basis._reducer is basis._reducer
    assert basis.degrees == (2, 3)


class TestSagbiElement:
    def test_construction_and_repr(self):
        recipe = ((1, 1, ((BivarExpr.X(), 2),)),)
        el = SagbiElement(Z**2, recipe, 2)
        assert el == SagbiElement(poly=Z**2, recipe=recipe, degree=2)
        assert (el.poly, el.recipe, el.degree) == (Z**2, recipe, 2)
        assert repr(el) == ELEMENT_REPR

    def test_equality_ignores_recipe_and_keeps_provenance_cached(self):
        a = SagbiElement(Z**2, ((1, 1, ((BivarExpr.X(), 1),)),), 2)
        b = SagbiElement(Z**2, ((-2, -2, ((BivarExpr.Y(), 1),)),), 2)
        assert a == b and hash(a) == hash(b)
        assert a != SagbiElement(Z**2, a.recipe, 3)
        first = a.provenance
        assert first == BivarExpr.X()
        assert a.provenance is first
        assert b.provenance == BivarExpr.Y()
        assert a == b

    def test_assignment_raises(self):
        el = SagbiElement(Z, (), 1)
        for name in ("poly", "recipe", "degree", "provenance", "extra"):
            with pytest.raises(AttributeError):
                setattr(el, name, None)
        with pytest.raises(AttributeError):
            del el.poly
        assert el.poly == Z


class TestBiPoly:
    """A plane map is a Poly in y over RatFunc(x), compared by value."""

    def test_construction_repr_equality(self):
        y = Poly.variable(RatFunc)
        assert y == Poly([0, 1], RatFunc) and hash(y) == hash(Poly([0, 1], RatFunc))
        assert y != Poly.constant(RatFunc.x(), RatFunc)
        assert repr(y) == "Poly([RatFunc([]), RatFunc([Fraction(1, 1)])])"
