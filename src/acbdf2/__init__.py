"""Variable-step two-step solver for the 2D periodic Allen-Cahn equation.

The pieces, bottom up: nonuniform time meshes and their admissibility
bounds (:mod:`.time_mesh`), the convolution kernels of the two-step
operator and their recombined and inverse forms (:mod:`.kernels`), the
periodic five-point grid (:mod:`.spatial`), the implicit step solver and
energy monitors (:mod:`.stepper`), the step-size controller
(:mod:`.adaptive`), benchmark problems (:mod:`.experiments`), and the
config/run/CLI plumbing (:mod:`.config`, :mod:`.runner`, :mod:`.cli`).
"""

from .time_mesh import (
    S0_LIMIT,
    S1_LIMIT,
    TimeMesh,
    constraint_flags,
    energy_law_bound,
    max_principle_bound,
    solvability_bound,
)
from .kernels import (
    Bdf2Kernels,
    apply_bdf2,
    apply_recombined,
    bdf2_kernels,
    choose_eta,
    complementary_row,
    complementary_triangle,
    eta_admissible,
    eta_floor,
    identity_residual,
    recombined_kernels,
    recombined_rows,
    run_eta,
    step_kernels,
)
from .spatial import (
    Grid2D,
    l2_norm,
    laplacian_apply,
    max_norm,
    read_snapshot,
    write_snapshot,
)
from .stepper import (
    NewtonConfig,
    NewtonDiverged,
    SolvabilityViolated,
    StepRecord,
    StepperState,
    bdf2_step,
    energy,
    modified_energy,
    nonlinear_solve,
)
from .adaptive import (
    DEFAULT_RATIO_CAP,
    AdaptiveConfig,
    AdvanceResult,
    TooManyRejects,
    ZeroReference,
    advance,
    error_estimate,
    tau_ada,
)
from .experiments import (
    MMS_EPS2,
    ConvergenceRow,
    MmsProblem,
    coarsening_init,
    convergence_order,
    four_bubble_init,
    random_mesh,
)
from .config import ConfigError, RunConfig, parse_config
from .runner import ConstraintAbort, RunResult, mms_sweep, run_simulation

__version__ = "0.1.0"
