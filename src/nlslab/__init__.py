"""Solver library and experiment harness for the focusing nonlinear
Schrodinger equation: split-step and ImEx Runge-Kutta time integrators over
Fourier pseudospectral and conservative finite-element discretizations, with
single/multiple relaxation for exact invariant conservation and hybrid
adaptive step control."""

from .core import (
    ConfigurationError,
    DimensionMismatchError,
    Grid,
    GridState,
    InvariantFunctional,
    NumericalFailureError,
    Problem,
    RunRecord,
    UnsupportedBoundaryError,
    discrete_energy,
    discrete_mass,
    energy_functional,
    make_grid,
    mass_functional,
)
from .imexrk import ImExTableau, StepIncrements, imex_step, tableau
from .relaxation import (
    ControllerConfig,
    RelaxationOutcome,
    adaptive_integrate,
    error_estimate,
    integrate_imex,
    propose_step,
    relax_multi,
    relax_single,
)
from .spectral import SpectralOperator, spectral_operator
from .splitting import SplittingScheme, integrate_splitting, scheme, splitting_step

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ControllerConfig",
    "DimensionMismatchError",
    "Grid",
    "GridState",
    "ImExTableau",
    "InvariantFunctional",
    "NumericalFailureError",
    "Problem",
    "RelaxationOutcome",
    "RunRecord",
    "SpectralOperator",
    "SplittingScheme",
    "StepIncrements",
    "UnsupportedBoundaryError",
    "adaptive_integrate",
    "discrete_energy",
    "discrete_mass",
    "energy_functional",
    "error_estimate",
    "imex_step",
    "integrate_imex",
    "integrate_splitting",
    "make_grid",
    "mass_functional",
    "propose_step",
    "relax_multi",
    "relax_single",
    "scheme",
    "spectral_operator",
    "splitting_step",
    "tableau",
    "__version__",
]
