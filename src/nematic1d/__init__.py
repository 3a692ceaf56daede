"""1D compressible nematic liquid-crystal flow: a dissipative sine-Galerkin /
Lagrangian solver, an independent finite-difference oracle, and diagnostics
that turn the model's a-priori bounds into runtime checks."""

from .coefficients import (DerivedViscosities, InvalidCoefficients, LeslieSet,
                           ValidationReport, derive_viscosities,
                           director_source, dissipation_parts, example_set,
                           random_valid_set, validate)
from .diagnostics import Trajectory
from .fields import (FlowState, Grid1D, director_residual, elastic_coupling,
                     pressure)
from .galerkin import project_initial_velocity
from .harness import RunConfig, mollify_initial_data, parse_config, run_simulation

__all__ = [
    "DerivedViscosities", "InvalidCoefficients", "LeslieSet",
    "ValidationReport", "derive_viscosities", "director_source",
    "dissipation_parts", "example_set", "random_valid_set", "validate",
    "Trajectory",
    "FlowState", "Grid1D", "director_residual", "elastic_coupling",
    "pressure",
    "project_initial_velocity",
    "RunConfig", "mollify_initial_data", "parse_config", "run_simulation",
]

__version__ = "0.1.0"
