"""Multiscale divergence-free RBF collocation for the 2-D Stokes problem.

The package builds symmetric collocation approximations to the stationary
Stokes equations on the unit square from compactly supported, matrix-valued
divergence-free Wendland kernels, refines them over levels by residual
correction with a shrinking support schedule, and measures errors and
conditioning against a manufactured solution.
"""

from .wendland import (
    NonPolynomialDivision,
    WendlandPolynomial,
    wendland_c8,
    wendland_from_integral,
)
from .radial import mixed_partial
from .stokes_kernel import StokesKernelConfig, kernel_block
from .geometry import (
    EmptyPointSet,
    LevelPointSet,
    SinglePoint,
    make_level_pointset,
    mesh_norm,
    separation_distance,
)
from .collocation import (
    CollocationSystem,
    LevelSolution,
    NotPositiveDefinite,
    assemble,
    evaluate,
    evaluate_fields,
    solve,
)
from .multiscale import (
    MultiscaleConfig,
    MultiscaleModel,
    evaluate_model,
    load_model,
    run,
    save_model,
    scale_schedule,
)
from .analysis import (
    ErrorReport,
    ManufacturedSolution,
    extreme_eigenvalues,
    grid_errors,
    run_experiment,
    slope_check,
    trig_stokes_problem,
)

__version__ = "0.1.0"
