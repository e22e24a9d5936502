"""Squeezing dynamics of a harmonic oscillator with time-dependent frequency.

The propagator of each constant-frequency segment is disentangled into
three su(1,1) coefficients; an exact composition recurrence folds any
piecewise-constant frequency ladder into a single coefficient triple, from
which squeezing parameter, phase, quadrature variance and number-basis
amplitudes follow.  RK4 on the Heisenberg pair (a, a+) provides an
independent cross-check, and RK4 in a truncated number basis a second one.

The names below, and the submodules (``su11squeeze.oracle``, ...), load on
first use (PEP 562), so ``import su11squeeze`` loads no numpy.  That lets
the command line (:mod:`su11squeeze.cli`) choose how numpy loads; the
Python API sets no environment variable.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each submodule and the names the package exports from it, in ``__all__`` order.
_EXPORTS = {
    "core": ("IDENTITY", "PropagatorAccumulator", "StepCoeffs", "alpha_via_gcf", "compose", "fold",
             "step_coeffs"),
    "errors": ("ConfigError", "ContinuedFractionError", "InvalidAccumulatorError", "LeakageError",
               "ProfileDomainError", "SingularCompositionError", "TableRangeError"),
    "evolution": ("FockState", "Trajectory", "apply_to_state", "auto_converge", "evolve", "observables"),
    "kernels": ("active_backend", "fold_ladder", "rk4_propagate"),
    "oracle": ("OracleDiagnostics", "TruncatedHamiltonian", "evolve_number_state", "fidelity", "heisenberg",
               "integrate"),
    "profiles": ("DiscretizedProfile", "Profile", "constant", "discretize", "eval_profile", "janszky_adam",
                 "load_tabulated", "parametric_resonance", "relaxing_pulse", "sudden_jump", "tabulated"),
}
_SUBMODULES = ("analysis", "cli", "config", "core", "errors", "evolution", "floatfmt", "kernels", "oracle",
               "profiles")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here too
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
