"""Frequency-modulation profiles and their piecewise-constant discretization.

Every profile equals its reference frequency ``omega0`` for ``t <= 0`` and
must stay strictly positive afterwards.  Discretization samples the profile
at the right endpoint of each interval (``omega_j = omega(j*tau)``); a
midpoint rule is available behind the ``rule`` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ProfileDomainError, TableRangeError

KINDS = ("constant", "relaxing_pulse", "parametric_resonance", "janszky_adam", "sudden_jump", "tabulated")
RULES = ("right", "midpoint")


@dataclass(frozen=True, eq=False)
class Profile:
    """A frequency-modulation function omega(t).

    Use the factory functions (:func:`constant`, :func:`relaxing_pulse`,
    :func:`parametric_resonance`, :func:`janszky_adam`, :func:`sudden_jump`,
    :func:`tabulated`) rather than building instances by hand.
    """

    kind: str
    omega0: float = 1.0
    B: float | None = None
    epsilon: float | None = None
    omega_l: float | None = None
    omega1: float | None = None
    hold_low: float | None = None    # dwell at omega0 (square wave)
    hold_high: float | None = None   # dwell at omega1 (square wave)
    table_t: np.ndarray | None = field(default=None, repr=False)
    table_omega: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not (self.omega0 > 0.0):
            raise ValueError(f"omega0 must be positive, got {self.omega0}")


def constant(omega0: float = 1.0) -> Profile:
    """omega(t) = omega0 for all t."""
    return Profile(kind="constant", omega0=omega0)


def relaxing_pulse(B: float, omega0: float = 1.0) -> Profile:
    """A single non-oscillatory pulse that relaxes back to omega0.

    For t > 0: ``omega0 * (1 + (omega0*t/2) * exp(-omega0*t/B))``.  The pulse
    peaks at ``t = B/omega0`` and decays with time constant ``B/omega0``.
    """
    if not (B > 0.0):
        raise ValueError(f"B must be positive, got {B}")
    return Profile(kind="relaxing_pulse", omega0=omega0, B=B)


def parametric_resonance(epsilon: float, omega_l: float, omega0: float = 1.0) -> Profile:
    """Cosine modulation between omega0 and omega_l at drive rate epsilon*omega0.

    For t > 0: ``0.5*((omega0 + omega_l) + (omega0 - omega_l)*cos(epsilon*omega0*t))``.
    Continuous at t = 0; omega_l is the extreme value reached.  Resonant
    growth occurs when ``epsilon*omega0`` equals ``omega0 + omega_l``.
    """
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not (omega_l > 0.0):
        raise ValueError(f"omega_l must be positive, got {omega_l}")
    return Profile(kind="parametric_resonance", omega0=omega0, epsilon=epsilon, omega_l=omega_l)


def janszky_adam(omega1: float, omega0: float = 1.0,
                 hold_high: float | None = None, hold_low: float | None = None) -> Profile:
    """Square wave of sudden jumps between omega0 and omega1, starting high.

    The default dwell times are a quarter oscillation period at each
    frequency (``pi/(2*omega1)`` at omega1, ``pi/(2*omega0)`` at omega0),
    the synchronization that adds ``ln(omega1/omega0)`` to the squeezing
    parameter per full cycle.  Both dwells can be overridden.
    """
    if not (omega1 > 0.0):
        raise ValueError(f"omega1 must be positive, got {omega1}")
    hold_high = math.pi / (2.0 * omega1) if hold_high is None else hold_high
    hold_low = math.pi / (2.0 * omega0) if hold_low is None else hold_low
    if not (hold_high > 0.0 and hold_low > 0.0):
        raise ValueError("hold durations must be positive")
    return Profile(kind="janszky_adam", omega0=omega0, omega1=omega1,
                   hold_high=hold_high, hold_low=hold_low)


def sudden_jump(omega1: float, omega0: float = 1.0) -> Profile:
    """One jump at t = 0 from omega0 to omega1, constant afterwards."""
    if not (omega1 > 0.0):
        raise ValueError(f"omega1 must be positive, got {omega1}")
    return Profile(kind="sudden_jump", omega0=omega0, omega1=omega1)


def tabulated(times, omegas, omega0: float | None = None) -> Profile:
    """Profile interpolated linearly through (t, omega) samples.

    ``times`` must be strictly increasing.  Evaluation outside the tabulated
    range (for t > 0) raises :class:`TableRangeError`.  ``omega0`` defaults
    to the first tabulated omega.
    """
    t = np.asarray(times, dtype=np.float64)
    w = np.asarray(omegas, dtype=np.float64)
    if t.ndim != 1 or t.shape != w.shape or t.size < 2:
        raise ValueError("need matching 1-d arrays with at least two samples")
    if not np.all(np.diff(t) > 0):
        raise ValueError("tabulated times must be strictly increasing")
    if omega0 is None:
        omega0 = float(w[0])
    return Profile(kind="tabulated", omega0=omega0, table_t=t, table_omega=w)


def load_tabulated(path, omega0: float | None = None) -> Profile:
    """Read a two-column (t, omega) text file; '#' starts a comment."""
    times = []
    omegas = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            cols = line.split()
            if len(cols) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {len(cols)}")
            times.append(float(cols[0]))
            omegas.append(float(cols[1]))
    return tabulated(times, omegas, omega0=omega0)


def eval_profile(profile: Profile, t):
    """Evaluate omega(t); accepts a scalar or an array, returns the same shape.

    All kinds return ``omega0`` for t <= 0.
    """
    scalar = np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0)
    ts = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(ts)):
        raise ValueError("evaluation times must be finite")
    w0 = profile.omega0

    if profile.kind == "constant":
        out = np.full_like(ts, w0)
    elif profile.kind == "relaxing_pulse":
        safe = np.where(ts > 0, ts, 0.0)
        out = np.where(ts <= 0, w0, w0 * (1.0 + 0.5 * w0 * safe * np.exp(-w0 * safe / profile.B)))
    elif profile.kind == "parametric_resonance":
        wl = profile.omega_l
        out = np.where(ts <= 0, w0, 0.5 * ((w0 + wl) + (w0 - wl) * np.cos(profile.epsilon * w0 * ts)))
    elif profile.kind == "sudden_jump":
        out = np.where(ts <= 0, w0, profile.omega1)
    elif profile.kind == "janszky_adam":
        period = profile.hold_high + profile.hold_low
        phase = np.mod(ts, period)
        high = (phase > 0) & (phase <= profile.hold_high)
        out = np.where(ts <= 0, w0, np.where(high, profile.omega1, w0))
    elif profile.kind == "tabulated":
        tt, ww = profile.table_t, profile.table_omega
        positive = ts > 0
        bad = positive & ((ts < tt[0]) | (ts > tt[-1]))
        if np.any(bad):
            t_bad = float(np.asarray(ts)[bad].flat[0]) if ts.ndim else float(ts)
            raise TableRangeError(
                f"t={t_bad} outside tabulated range [{tt[0]}, {tt[-1]}]"
            )
        out = np.where(positive, np.interp(ts, tt, ww), w0)
    else:  # pragma: no cover - guarded in __post_init__
        raise ValueError(f"unknown profile kind {profile.kind!r}")

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

    Raises
    ------
    ProfileDomainError
        If any sample is non-positive (carries the first offending 1-based
        segment index).
    """
    if not (t_final > 0.0):
        raise ValueError(f"t_final must be positive, got {t_final}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if rule not in RULES:
        raise ValueError(f"unknown sampling rule {rule!r}")
    tau = t_final / n_steps
    j = np.arange(1, n_steps + 1, dtype=np.float64)
    times = j * tau if rule == "right" else (j - 0.5) * tau
    samples = np.asarray(eval_profile(profile, times), dtype=np.float64)
    nonpos = np.flatnonzero(samples <= 0.0)
    if nonpos.size:
        first = int(nonpos[0])
        raise ProfileDomainError(
            f"profile sample omega_{first + 1} = {samples[first]} is not positive",
            step=first + 1,
            omega=float(samples[first]),
        )
    return DiscretizedProfile(omega0=profile.omega0, tau=tau, samples=samples, t_final=t_final)
