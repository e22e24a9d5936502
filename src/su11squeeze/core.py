"""Exact arithmetic of the su(1,1) disentangled step propagator.

A constant-frequency segment of duration ``tau`` is represented by three
complex coefficients (``lam_plus``, ``lam_c``, ``lam_minus``): the ordered
product of exponentials of the raising, diagonal and lowering generators.
Segments compose through a closed rational recurrence, so an N-segment
ladder folds into a single triple ``(alpha, beta, gamma)`` that describes
the full propagator, with ``|alpha|^2 + |beta| = 1``.  This is the paper's
recurrence, kept as the readable reference.  The numeric path folds the
equivalent SU(1,1) pair ``(p, q)`` (:func:`su11squeeze.kernels.fold_ladder`,
``alpha = q/conj(p)``) and reads ``r = asinh|q|``: ``atanh|alpha|`` loses
digits as ``cosh(r)^2`` grows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ContinuedFractionError, SingularCompositionError

# Denominators below this are double-precision noise, not physics: for any
# physical ladder |alpha||lam_minus| < 1 strictly, so |1 - alpha*lam_minus|
# can only approach zero through a pathological input.
SINGULAR_TOL = 1e-14


@dataclass(frozen=True)
class StepCoeffs:
    """Disentangled coefficients of one constant-frequency segment.

    ``lam_plus`` and ``lam_minus`` are identical by construction; both are
    kept so a step can be read back as a degenerate accumulator.  ``rho_j``
    is the log-frequency ratio ``0.5*ln(omega_j/omega_0)``.
    """

    lam_plus: complex
    lam_c: complex
    lam_minus: complex
    omega_j: float
    tau: float
    rho_j: float

    def __post_init__(self):
        for name in ("lam_plus", "lam_c", "lam_minus"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name} in StepCoeffs")


@dataclass(frozen=True)
class PropagatorAccumulator:
    """Composed propagator coefficients after ``steps_applied`` segments."""

    alpha: complex
    beta: complex
    gamma: complex
    steps_applied: int = 0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name} in PropagatorAccumulator")

    @property
    def norm_defect(self) -> float:
        """Deviation from the constraint |alpha|^2 + |beta| = 1."""
        return abs(abs(self.alpha) ** 2 + abs(self.beta) - 1.0)


#: Neutral element of the composition: no evolution at all.
IDENTITY = PropagatorAccumulator(0j, 1.0 + 0j, 0j, 0)


def step_coeffs(omega_j: float, omega_0: float, tau: float) -> StepCoeffs:
    """Build the disentangled coefficients of a single constant-frequency segment.

    Parameters
    ----------
    omega_j : float
        Frequency held during the segment (units of the reference frequency).
    omega_0 : float
        Reference frequency defining the ladder-operator basis.
    tau : float
        Segment duration.

    Returns
    -------
    StepCoeffs

    Notes
    -----
    Closed forms with ``rho = 0.5*ln(omega_j/omega_0)``::

        D          = cos(omega_j*tau) + i*cosh(2*rho)*sin(omega_j*tau)
        lam_plus   = lam_minus = -i*sinh(2*rho)*sin(omega_j*tau) / D
        lam_c      = D**-2

    ``|lam_pm| < 1`` strictly and ``|lam_pm|^2 + |lam_c| = 1`` for any
    finite ``rho``.
    """
    if not (omega_j > 0.0) or not (omega_0 > 0.0):
        raise ValueError(f"frequencies must be positive, got omega_j={omega_j}, omega_0={omega_0}")
    if not (tau > 0.0):
        raise ValueError(f"step duration must be positive, got tau={tau}")
    rho = 0.5 * math.log(omega_j / omega_0)
    wt = omega_j * tau
    c, s = math.cos(wt), math.sin(wt)
    den = complex(c, math.cosh(2.0 * rho) * s)
    lam_pm = -1j * math.sinh(2.0 * rho) * s / den
    lam_c = 1.0 / (den * den)
    return StepCoeffs(lam_pm, lam_c, lam_pm, omega_j, tau, rho)


def compose(acc: PropagatorAccumulator, step: StepCoeffs) -> PropagatorAccumulator:
    """Append one segment to a composed propagator.

    The update is exact at the coefficient level::

        alpha' = lam_plus + alpha*lam_c / (1 - alpha*lam_minus)
        beta'  = beta*lam_c / (1 - alpha*lam_minus)**2
        gamma' = gamma + lam_minus*beta / (1 - alpha*lam_minus)

    Raises
    ------
    SingularCompositionError
        If ``|1 - alpha*lam_minus| < SINGULAR_TOL``.  This cannot occur on a
        ladder built by :func:`step_coeffs`; it flags a pathological input.
    """
    den = 1.0 - acc.alpha * step.lam_minus
    if abs(den) < SINGULAR_TOL:
        raise SingularCompositionError(
            f"degenerate composition denominator |1 - alpha*lam_minus| = {abs(den):.3e}",
            step=acc.steps_applied + 1,
            omega=step.omega_j,
        )
    alpha = step.lam_plus + acc.alpha * step.lam_c / den
    beta = acc.beta * step.lam_c / (den * den)
    gamma = acc.gamma + step.lam_minus * acc.beta / den
    return PropagatorAccumulator(alpha, beta, gamma, acc.steps_applied + 1)


def fold(steps: Sequence[StepCoeffs]) -> PropagatorAccumulator:
    """Compose a whole ladder of segments, earliest first."""
    acc = IDENTITY
    for step in steps:
        acc = compose(acc, step)
    return acc


def alpha_via_gcf(steps: Sequence[StepCoeffs]) -> complex:
    """Evaluate ``alpha`` through its nested-fraction form, innermost term first.

    Cross-check evaluator only: the nesting divides by every partial
    ``alpha``, so it is undefined whenever one of them vanishes (for example
    on a leading segment with ``rho_j = 0``).  The recurrence in
    :func:`compose` has no such restriction and is the canonical path.

    Raises
    ------
    ContinuedFractionError
        If the innermost term is zero or an intermediate denominator
        vanishes.
    ValueError
        If ``steps`` is empty.
    """
    if len(steps) == 0:
        raise ValueError("alpha_via_gcf needs at least one step")
    x = steps[0].lam_plus
    for k, step in enumerate(steps[1:], start=2):
        if x == 0:
            raise ContinuedFractionError(
                f"partial alpha vanished before step {k}; use the recurrence instead"
            )
        den = step.lam_minus - 1.0 / x
        if den == 0:
            raise ContinuedFractionError(f"nested denominator vanished at step {k}")
        x = step.lam_plus - step.lam_c / den
    return x
