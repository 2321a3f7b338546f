"""Port-Hamiltonian descriptor systems toolkit.

Validation of the structure constraints, matrix-pencil analysis through a
Kronecker staircase, decision of the feedback-existence conditions,
construction of structure-preserving stabilizing and strictly passifying
state feedbacks, independent certification of every closed-loop property,
and an implicit-Euler integrator that witnesses the power balance and the
dissipation inequality along trajectories.
"""

from .certify import CertReport, certify_closed_loop
from .errors import (
    ConditionsNotMet,
    GridTooShort,
    HypothesisViolated,
    InfeasibleKnobs,
    NotIndexOne,
    NotPSD,
    NotSkew,
    NotSquare,
    NumericalBreakdown,
    PhdescError,
    ShapeMismatch,
    SolveFailure,
    ToleranceBreakdown,
)
from .generators import random_ph
from .linalg import (
    DEFAULT_TOL,
    Definiteness,
    ToleranceConfig,
    classify_definiteness,
    nullspace_basis,
    numerical_rank,
    pseudo_inverse,
    spectral_norm,
    sym_skew_split,
)
from .model import (
    PHSystem,
    Trajectory,
    ValidationReport,
    apply_feedback,
    dissipation_inequality_check,
    dissipation_matrix,
    power_balance_residual,
    validate,
)
from .pencil import (
    DCompression,
    DissipationBound,
    FeedbackAnalysis,
    PencilReport,
    StabilityClass,
    compress_feedthrough,
    feedback_analysis,
    imaginary_axis_full_rank,
    index_one_rank_condition,
    index_reduction_rank_condition,
    pencil_report,
    stabilizability_rank_condition,
    strict_passifiability_condition,
)
from .simulate import consistent_projection, simulate_closed_loop, write_trajectory_csv
from .synthesis import (
    SynthesisTrace,
    build_stabilizing_feedback,
    passifying_feedback_formula,
    synthesize_passifying,
    synthesize_stabilizing,
)

__version__ = "0.1.0"
