"""Pseudo-spectral simulation lab for a stochastic viscoelastic fluid model.

Velocity and extra stress evolve on a periodic box under Oldroyd-type
coupling, driven by divergence-free Q-Wiener forcing, a scalar Wiener
multiplicative stress perturbation, and compensated Poisson jumps.
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    SpectralGrid,
    ScalarField,
    VectorField,
    TensorField,
    make_grid,
    hs_norm,
    truncate,
    leray_project,
    random_field,
)
from .dynamics import FlowState, PhysicalParams  # noqa: F401
from .monitor import MonitorConfig, StoppingEvent  # noqa: F401
from .stepping import NoiseModel, StepperConfig, simulate  # noqa: F401
from .experiments import (  # noqa: F401
    inequality_suite,
    refinement_study,
    run_ensemble,
)
from .config import RunConfig, load_config, materialize  # noqa: F401
