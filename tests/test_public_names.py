"""amoh's public names, written out, so that the surface changes only on
purpose: the names the package namespace holds that do not start with an
underscore, its submodules left out."""

import types

import amoh

PUBLIC = [
    "AmohError",
    "BadDegree",
    "BivarExpr",
    "Decomposition",
    "DeltaSequence",
    "DivisionByZeroPoly",
    "InternalInconsistency",
    "InternalLimitExceeded",
    "LineReason",
    "LineVerdict",
    "MembershipResult",
    "NEG_INF",
    "NotComposable",
    "NotInSemigroup",
    "NotMonic",
    "ParseError",
    "Poly",
    "PreconditionViolated",
    "Prop21Report",
    "Prop22Report",
    "RatFunc",
    "SagbiBasis",
    "SagbiElement",
    "SemigroupRepr",
    "StrongAmReport",
    "TrivialAlgebra",
    "check_prop22",
    "check_strong_am",
    "common_parameter",
    "criterion_check",
    "delta_sequence",
    "eval_bivariate",
    "is_line",
    "is_member",
    "jacobian_det",
    "left_cofactor",
    "parse_poly",
    "prop21_probe",
    "random_line_curve",
    "random_tame_automorphism",
    "reduce_to_line",
    "render_poly",
    "sagbi_basis",
    "semigroup_represent",
]


def test_public_names_are_the_written_list():
    names = sorted(
        name for name, value in vars(amoh).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC
