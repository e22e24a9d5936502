"""Frequency-modulation profiles and their piecewise-constant discretization.

Every profile equals its reference frequency ``omega0`` for ``t <= 0`` and
must stay strictly positive afterwards.  Discretization samples the profile
at the right endpoint of each interval (``omega_j = omega(j*tau)``); a
midpoint rule is available behind the ``rule`` flag.  It fills the ladder's
samples array in place, ``kernels.BLOCK`` samples at a time, so its memory
is that array plus O(BLOCK) scratch.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ProfileDomainError, TableRangeError

RULES = ("right", "midpoint")


@dataclass(frozen=True, eq=False)
class Profile:
    """A frequency-modulation function: ``omega0`` for t <= 0, ``curve(t)`` for t > 0.

    ``curve`` maps an array of positive times to frequencies; ``period`` is
    one modulation period, None for an aperiodic profile.  Use the factory
    functions of :data:`PROFILES` rather than building instances by hand.
    """

    kind: str
    omega0: float
    curve: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    period: float | None = None

    def __post_init__(self):
        if self.kind not in PROFILES:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not (self.omega0 > 0.0):
            raise ValueError(f"omega0 must be positive, got {self.omega0}")


def constant(omega0: float = 1.0) -> Profile:
    """omega(t) = omega0 for all t."""
    return Profile("constant", omega0, lambda t: np.full_like(t, omega0))


def relaxing_pulse(B: float, omega0: float = 1.0) -> Profile:
    """A single non-oscillatory pulse that relaxes back to omega0.

    For t > 0: ``omega0 * (1 + (omega0*t/2) * exp(-omega0*t/B))``.  The pulse
    peaks at ``t = B/omega0`` and decays with time constant ``B/omega0``.
    """
    if not (B > 0.0):
        raise ValueError(f"B must be positive, got {B}")
    return Profile("relaxing_pulse", omega0,
                   lambda t: omega0 * (1.0 + 0.5 * omega0 * t * np.exp(-omega0 * t / B)))


def parametric_resonance(epsilon: float, omega_l: float, omega0: float = 1.0) -> Profile:
    """Cosine modulation between omega0 and omega_l at drive rate epsilon*omega0.

    For t > 0: ``0.5*((omega0 + omega_l) + (omega0 - omega_l)*cos(epsilon*omega0*t))``.
    Continuous at t = 0; omega_l is the extreme value reached.  Resonant
    growth occurs when ``epsilon*omega0`` equals ``omega0 + omega_l``.  The
    period is ``2*pi/(epsilon*omega0)``.
    """
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not (omega_l > 0.0):
        raise ValueError(f"omega_l must be positive, got {omega_l}")
    if not (epsilon * omega0 > 0.0):  # it underflows for tiny epsilon and omega0
        raise ValueError(f"the drive rate epsilon*omega0 must be positive, got {epsilon * omega0}")
    return Profile("parametric_resonance", omega0,
                   lambda t: 0.5 * ((omega0 + omega_l) + (omega0 - omega_l) * np.cos(epsilon * omega0 * t)),
                   period=2.0 * np.pi / (epsilon * omega0))


def janszky_adam(omega1: float, omega0: float = 1.0,
                 hold_high: float | None = None, hold_low: float | None = None) -> Profile:
    """Square wave of sudden jumps between omega0 and omega1, starting high.

    The default dwell times are a quarter oscillation period at each
    frequency (``pi/(2*omega1)`` at omega1, ``pi/(2*omega0)`` at omega0),
    the synchronization that adds ``ln(omega1/omega0)`` to the squeezing
    parameter per full cycle.  Both dwells can be overridden.  The period
    is ``hold_high + hold_low``.
    """
    if not (omega1 > 0.0):
        raise ValueError(f"omega1 must be positive, got {omega1}")
    hold_high = math.pi / (2.0 * omega1) if hold_high is None else hold_high
    hold_low = math.pi / (2.0 * omega0) if hold_low is None else hold_low
    if not (hold_high > 0.0 and hold_low > 0.0):
        raise ValueError("hold durations must be positive")
    period = hold_high + hold_low

    def curve(t):
        phase = np.mod(t, period)
        return np.where((phase > 0) & (phase <= hold_high), omega1, omega0)

    return Profile("janszky_adam", omega0, curve, period=period)


def sudden_jump(omega1: float, omega0: float = 1.0) -> Profile:
    """One jump at t = 0 from omega0 to omega1, constant afterwards."""
    if not (omega1 > 0.0):
        raise ValueError(f"omega1 must be positive, got {omega1}")
    return Profile("sudden_jump", omega0, lambda t: np.full_like(t, omega1))


def tabulated(times, omegas, omega0: float | None = None) -> Profile:
    """Profile interpolated linearly through (t, omega) samples.

    ``times`` must be strictly increasing.  Evaluation outside the tabulated
    range (for t > 0) raises :class:`TableRangeError`.  ``omega0`` defaults
    to the first tabulated omega.
    """
    tt = np.asarray(times, dtype=np.float64)
    ww = np.asarray(omegas, dtype=np.float64)
    if tt.ndim != 1 or tt.shape != ww.shape or tt.size < 2:
        raise ValueError("need matching 1-d arrays with at least two samples")
    if not np.all(np.diff(tt) > 0):
        raise ValueError("tabulated times must be strictly increasing")
    if omega0 is None:
        omega0 = float(ww[0])

    def curve(t):
        bad = (t < tt[0]) | (t > tt[-1])
        if np.any(bad):
            raise TableRangeError(f"t={float(t[bad][0])} outside tabulated range [{tt[0]}, {tt[-1]}]")
        return np.interp(t, tt, ww)

    return Profile("tabulated", omega0, curve)


def load_tabulated(table, omega0: float | None = None) -> Profile:
    """Read a two-column (t, omega) text file; '#' starts a comment."""
    times = []
    omegas = []
    with open(table, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            cols = line.split()
            if len(cols) != 2:
                raise ValueError(f"{table}:{lineno}: expected two columns, got {len(cols)}")
            times.append(float(cols[0]))
            omegas.append(float(cols[1]))
    return tabulated(times, omegas, omega0=omega0)


#: Each profile kind and the factory that defines it.  The factory's
#: parameters are the configuration fields the kind reads; a parameter
#: without a default is required.  ``tabulated`` is read from a table file.
PROFILES = {
    "constant": constant,
    "relaxing_pulse": relaxing_pulse,
    "parametric_resonance": parametric_resonance,
    "janszky_adam": janszky_adam,
    "sudden_jump": sudden_jump,
    "tabulated": load_tabulated,
}
KINDS = tuple(PROFILES)


def eval_profile(profile: Profile, t):
    """Evaluate omega(t); accepts a scalar or an array, returns the same shape.

    All kinds return ``omega0`` for t <= 0.
    """
    scalar = np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0)
    ts = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(ts)):
        raise ValueError("evaluation times must be finite")
    positive = ts > 0
    if positive.all():  # a ladder's times: no masked copies
        out = profile.curve(ts)
    else:
        out = np.full_like(ts, profile.omega0)
        out[positive] = profile.curve(ts[positive])
    return float(out) if scalar else out


@dataclass(frozen=True, eq=False)
class DiscretizedProfile:
    """The frequency ladder {omega_j, tau, N} approximating omega(t)."""

    omega0: float
    tau: float
    samples: np.ndarray
    t_final: float

    @property
    def n_steps(self) -> int:
        return int(self.samples.shape[0])


def discretize(profile: Profile, t_final: float, n_steps: int, rule: str = "right") -> DiscretizedProfile:
    """Sample a profile into a piecewise-constant ladder of n_steps segments.

    ``rule="right"`` samples at ``t = j*tau`` (the convention assumed
    everywhere else); ``rule="midpoint"`` samples at ``t = (j - 1/2)*tau``,
    which converges one order faster for smooth profiles.

    The samples array (8 bytes per step) is allocated once and filled in
    place, ``kernels.BLOCK`` steps at a time, so the memory beyond it is
    O(BLOCK) scratch.  Curves are elementwise, so the samples equal one
    evaluation over all the times.

    Raises
    ------
    ProfileDomainError
        If any sample is not positive and finite, nan included (carries the
        first offending 1-based segment index).
    """
    if not (t_final > 0.0):
        raise ValueError(f"t_final must be positive, got {t_final}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if rule not in RULES:
        raise ValueError(f"unknown sampling rule {rule!r}")
    tau = t_final / n_steps
    samples = np.empty(n_steps, dtype=np.float64)
    # a curve that overflows gives inf or nan samples, refused below with their step
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, kernels.BLOCK):
            stop = min(start + kernels.BLOCK, n_steps)
            times = np.arange(start + 1, stop + 1, dtype=np.float64)
            if rule == "midpoint":
                times -= 0.5
            times *= tau
            samples[start:stop] = eval_profile(profile, times)
    if not (samples.min() > 0.0 and samples.max() < np.inf):  # a nan fails the first test
        first = int(np.flatnonzero(~((samples > 0.0) & (samples < np.inf)))[0])
        raise ProfileDomainError(
            f"profile sample omega_{first + 1} = {samples[first]} is not positive and finite",
            step=first + 1,
            omega=float(samples[first]),
        )
    return DiscretizedProfile(omega0=profile.omega0, tau=tau, samples=samples, t_final=t_final)
