"""Finite-matrix relaxed commutant lifting toolkit.

Build the underlying contraction of a lifting data set, compute the central
solution of the attached interpolation problem, generate the full solution
family through its linear-fractional parametrization, decide uniqueness
exactly, and audit every operator identity involved at truncation scale.
"""

from .errors import (
    AuditFailure,
    DimensionMismatch,
    IllPosedData,
    InternalContradiction,
    InvalidInput,
    InvalidParameter,
    NotAContraction,
    NotContractive,
    NotInvertible,
    OutOfDisc,
    RclkitError,
)
from .opcore import (
    CMatrix,
    SubspaceBasis,
    Tolerances,
    defect,
    is_coisometry,
    orthocomplement,
    range_closure_basis,
    spectral_norm,
)
from .series import MatrixSeries
from .interp import (
    InterpProblem,
    SecondSolution,
    SolutionReport,
    UniquenessKind,
    UniquenessVerdict,
    central_coefficients_coisometric,
    central_taylor,
    is_solution,
    second_solution_witness,
    uniqueness,
)
from .redheffer import (
    RedhefferRealization,
    SchurParameter,
    coefficient_matrix_audit,
    lft_solution,
    phi_eval,
    phi_taylor,
    realize,
)
from .dataset import (
    DataSet,
    Decision,
    PerpendicularityReport,
    UniquenessDecision,
    ValidationReport,
    norm_one_rq_uniqueness,
    perpendicularity_report,
    preset_relaxed_rq,
    suboptimal_uniqueness,
    underlying_contraction,
    validate,
)
from .sysco import (
    CoisometricSystem,
    gram_identity_audit,
    julia_system,
)
from .lifting import (
    LiftReport,
    build_lifting,
    interpolant_from_solution,
    verify_rclt,
)

__version__ = "0.1.0"
