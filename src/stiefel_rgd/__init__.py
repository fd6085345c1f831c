"""Energy-adaptive Riemannian gradient descent on the discretized Stiefel
manifold, for Gross-Pitaevskii and coupled multi-orbital ground states."""

from .descent import (
    IterationRecord,
    LineSearchFailure,
    LineSearchParams,
    RunResult,
    Step,
    collect,
    diagnostics_a2_a3,
    initial_frame,
    nonmonotone_update,
    rgd_fixed_step,
    rgd_line_search,
    steps,
)
from .directions import (
    SearchDirection,
    dcm_direction,
    inexact_gradient,
    riemannian_gradient,
    safeguarded_inexact_gradient,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateFrameError,
    NumericalError,
    OperatorNotSPDError,
    ShapeError,
)
from .frames import (
    Frame,
    GridSpec,
    density,
    inner_h,
    multiply_right,
    norm_h,
    outer_product,
    random_frame,
    zero_frame,
)
from .geometry import retract, retract_polar, retract_qr_mgs
from .models import (
    DiscreteOperatorA,
    EnergyModel,
    IterateState,
    a0_form,
    energy,
    potential_from_file,
    potential_harmonic,
    potential_well,
    potential_zero,
    residual,
)
from .solvers import SolveConfig, SolveReport, apply_preconditioner, solve

__version__ = "0.1.0"
