"""Positivity-preserving predictor-corrector SDIRK integration for
production-destruction ODE systems with graph-Laplacian structure."""

from .correction import (
    CorrectionDiagnostics,
    CorrectionMode,
    ScalingPolicy,
    averaged_g_final,
    clip,
    corrector_solve,
    h_form_corrector,
    ratio_scaling,
    stage_corrected_g,
)
from .numerics import SingularMatrixError, fit_slope, lu_solve, vector, wrms_norm
from .pds import (
    GraphLaplacianModel,
    HFormModel,
    LinearInvariant,
    StructureReport,
    assemble_g_from_rates,
    assemble_h_from_destruction,
    invariant_error,
    validate_left_kernel,
    validate_model,
    validate_sign_structure,
)
from .problems import (
    DEFAULT_SPANS,
    KdvConfig,
    PROBLEM_NAMES,
    get_model,
    kdv,
    kdv_initial,
    mapk,
    robertson,
    sigma_diurnal,
    stratospheric,
)
from .sdirk import (
    ButcherTableau,
    ConfigurationError,
    SolverConfig,
    StageConvergenceError,
    StepOutcome,
    Trajectory,
    TrajectoryStatus,
    corrected_step,
    integrate,
    predictor_step,
    solve_stage,
    tableau,
)

__version__ = "0.1.0"
