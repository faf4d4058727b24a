"""Exact decision procedures for embedded plane lines.

A plane curve given by two polynomials (f(z), g(z)) over Q is an embedded
line exactly when k[f, g] = k[z].  This package decides that, constructs
an inverse when one exists, tests membership in k[f, g] with explicit
certificates, computes the degree semigroup data behind the divisibility
theorem, and probes the planar Jacobian condition for tame automorphisms.
Everything is exact rational arithmetic end to end.
"""

from .errors import (
    AmohError,
    BadDegree,
    DivisionByZeroPoly,
    InternalInconsistency,
    InternalLimitExceeded,
    NotComposable,
    NotInSemigroup,
    NotMonic,
    ParseError,
    PreconditionViolated,
    TrivialAlgebra,
)
from .field_poly import (
    NEG_INF,
    BivarExpr,
    Poly,
    RatFunc,
    eval_bivariate,
)
from .subalgebra import (
    DeltaSequence,
    MembershipResult,
    SagbiBasis,
    SagbiElement,
    SemigroupRepr,
    delta_sequence,
    is_member,
    sagbi_basis,
    semigroup_represent,
)
from .decompose import (
    Decomposition,
    common_parameter,
    left_cofactor,
)
from .line import (
    LineReason,
    LineVerdict,
    criterion_check,
    is_line,
    random_line_curve,
    reduce_to_line,
)
from .theorems import (
    Prop22Report,
    StrongAmReport,
    check_prop22,
    check_strong_am,
)
from .jacobian import (
    Prop21Report,
    jacobian_det,
    prop21_probe,
    random_tame_automorphism,
)
from .cli import parse_poly, render_poly

__version__ = "0.1.0"
