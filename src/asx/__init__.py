"""Exact-arithmetic toolkit for symmetric association scheme parameters.

The package computes, validates and classifies parameter sets of symmetric
association schemes -- Krein ladders, eigenmatrices, intersection numbers,
feasibility batteries, Q-polynomial ordering enumeration and fusions -- in
exact arithmetic (rationals, real quadratic irrationals, multivariate
rational functions), and machine-checks the nonexistence argument for the
exceptional 5-class configuration with a second Q-polynomial ordering.
"""

from .errors import (
    AsxError,
    ComplexRoots,
    ConsistencyFailure,
    DegenerateParameter,
    InconsistentEigenmatrices,
    InvalidParameter,
    InvalidPartition,
    InvariantViolation,
    MixedScalars,
    NotAScheme,
    NotPPolynomial,
    ParseError,
    RepeatedEigenvalue,
    SingularMatrix,
    StepFailure,
    UnknownName,
    UnsupportedAlgebraicDegree,
    VerificationFailure,
    WellDefinednessViolation,
    ZeroDenominator,
)
from .linalg import Matrix, nullspace
from .poly import MultiPoly, RatFunc, factor_low_degree, poly_gcd, roots_low_degree
from .scalars import (
    QuadraticNumber,
    as_exact,
    exact_sqrt,
    format_scalar,
    scalar_sign,
    square_free_split,
)
from .scheme import (
    FeasibilityCheck,
    FeasibilityReport,
    FusionPartition,
    IntersectionTensor,
    KreinTensor,
    KreinTridiagonal,
    Ordering,
    SchemeParams,
    StructureType,
    classify_structure_pair,
    dual_eigensystem,
    enumerate_q_orderings,
    feasibility_report,
    first_eigenmatrix,
    fuse,
    intersection_tensor,
    krein_ladder,
    relabel_tensor,
    scheme_params,
    tridiagonal_from_tensor,
)
from .oracles import RelationSet, named_scheme, scheme_from_relations
from .casev import (
    CASE_V_ORDERING,
    CASE_V_PARTITION,
    CaseVFusionResult,
    CaseVSpec,
    DerivationTranscript,
    TheoremVerdict,
    casev_spec,
    derive_section32,
    fused_krein_reference_report,
    fusion_pipeline,
    reject_case_v,
    search_m,
    verify_dual_consistency,
)
from .params import parse_params_file, parse_scalar, render_params

__version__ = "0.1.0"
