"""Squeezing dynamics of a harmonic oscillator with time-dependent frequency.

The propagator of each constant-frequency segment is disentangled into
three su(1,1) coefficients; an exact composition recurrence folds any
piecewise-constant frequency ladder into a single coefficient triple, from
which squeezing parameter, phase, quadrature variance and number-basis
amplitudes follow.  RK4 on the Heisenberg pair (a, a+) provides an
independent cross-check, and RK4 in a truncated number basis a second one.
"""

from .core import (
    IDENTITY,
    PropagatorAccumulator,
    StepCoeffs,
    alpha_via_gcf,
    compose,
    fold,
    step_coeffs,
)
from .errors import (
    ConfigError,
    ContinuedFractionError,
    InvalidAccumulatorError,
    LeakageError,
    ProfileDomainError,
    SingularCompositionError,
    TableRangeError,
)
from .evolution import (
    FockState,
    Trajectory,
    apply_to_state,
    auto_converge,
    evolve,
    fock_amplitudes,
    observables,
)
from .kernels import active_backend, fold_ladder, rk4_propagate
from .oracle import OracleDiagnostics, TruncatedHamiltonian, evolve_vacuum, fidelity, heisenberg, integrate
from .profiles import (
    DiscretizedProfile,
    Profile,
    constant,
    discretize,
    eval_profile,
    janszky_adam,
    load_tabulated,
    parametric_resonance,
    relaxing_pulse,
    sudden_jump,
    tabulated,
)

__version__ = "0.1.0"

__all__ = [
    "IDENTITY",
    "PropagatorAccumulator",
    "StepCoeffs",
    "alpha_via_gcf",
    "compose",
    "fold",
    "step_coeffs",
    "ConfigError",
    "ContinuedFractionError",
    "InvalidAccumulatorError",
    "LeakageError",
    "ProfileDomainError",
    "SingularCompositionError",
    "TableRangeError",
    "FockState",
    "Trajectory",
    "apply_to_state",
    "auto_converge",
    "evolve",
    "fock_amplitudes",
    "observables",
    "active_backend",
    "fold_ladder",
    "rk4_propagate",
    "OracleDiagnostics",
    "TruncatedHamiltonian",
    "evolve_vacuum",
    "fidelity",
    "heisenberg",
    "integrate",
    "DiscretizedProfile",
    "Profile",
    "constant",
    "discretize",
    "eval_profile",
    "janszky_adam",
    "load_tabulated",
    "parametric_resonance",
    "relaxing_pulse",
    "sudden_jump",
    "tabulated",
    "__version__",
]
