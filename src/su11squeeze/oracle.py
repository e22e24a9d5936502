"""Independent truncated-Fock-basis validator.

Integrates i dC/dt = H(t) C directly with classical RK4 on the same
piecewise-constant frequency ladder the algebraic method uses, so the two
routes share a discretization and differ only in how the propagator is
evaluated.  Deliberately simple: fixed substep, no adaptivity.  The kernel,
:func:`su11squeeze.kernels.rk4_propagate`, applies each substep as the
banded RK4 step matrix of the truncated Hamiltonian; it shares the basis
bands with :class:`TruncatedHamiltonian` and nothing with the su(1,1)
algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import LeakageError
from .evolution import LEAKAGE_TOL, FockState
from .profiles import DiscretizedProfile

#: Starting basis size when none is pinned; doubled while the state reaches
#: the top basis levels.
DEFAULT_DIM = 256
MAX_DIM = 4096

#: A usable basis must hold the initial state with at most this much
#: population in the top four levels.
INITIAL_EDGE_TOL = 1e-10


@dataclass(frozen=True)
class TruncatedHamiltonian:
    """One segment's Hamiltonian in the number basis: couples n <-> n+-2 plus a diagonal."""

    dim: int
    omega: float
    rho: float

    def diagonal(self) -> np.ndarray:
        return self.omega * math.cosh(2.0 * self.rho) * kernels.fock_bands(self.dim)[0]

    def offdiagonal(self) -> np.ndarray:
        """Couplings between n and n+2, length dim-2."""
        return self.omega * math.sinh(2.0 * self.rho) * kernels.fock_bands(self.dim)[1]

    def matrix(self) -> np.ndarray:
        h = np.diag(self.diagonal())
        off = self.offdiagonal()
        idx = np.arange(self.dim - 2)
        h[idx, idx + 2] = off
        h[idx + 2, idx] = off
        return h


@dataclass(frozen=True)
class OracleDiagnostics:
    dim: int
    leakage: float
    norm_drift: float
    n_sub: int


def _edge_occupancy(amp: np.ndarray) -> float:
    return float(np.sum(np.abs(amp[-4:]) ** 2))


def integrate(dprofile: DiscretizedProfile, initial: FockState, dt_sub: float,
              dim: int | None = None):
    """RK4-integrate the state across the ladder; returns (state, diagnostics).

    Parameters
    ----------
    dprofile : DiscretizedProfile
        The same ladder the algebraic method folds.
    initial : FockState
        Starting state; must fit the basis with edge occupancy < 1e-10.
    dt_sub : float
        RK4 substep, at most one segment (``tau``); the actual substep is
        ``tau / ceil(tau/dt_sub)``.
    dim : int, optional
        Pin the basis size.  When omitted, starts at 256 (or the initial
        state size) and doubles while the boundary occupancy exceeds the
        tolerance, up to ``MAX_DIM``.

    Returns
    -------
    (FockState, OracleDiagnostics)
        The final state, normalized; ``leakage`` is the high-water mark of
        the occupancy of the top four basis levels.  A truncated
        Hamiltonian is still Hermitian, so reflection off the boundary does
        not show up in the norm, and a norm change is RK4 error instead.

    Raises
    ------
    LeakageError
        If the RK4 norm loss exceeds the tolerance or the state is not
        finite (at once: a larger basis cannot mend either), or if the
        boundary occupancy exceeds it at the largest basis tried.
    """
    tau = dprofile.tau
    if not (0.0 < dt_sub <= tau):
        raise ValueError(f"dt_sub must satisfy 0 < dt_sub <= tau = {tau}, got {dt_sub}")
    n_sub = max(1, math.ceil(tau / dt_sub))

    if dim is not None:
        dims = [int(dim)]
    else:
        d = max(DEFAULT_DIM, initial.n_max + 1)
        dims = []
        while d <= MAX_DIM:
            dims.append(d)
            d *= 2
        if not dims:
            raise ValueError(f"initial state ({initial.n_max + 1}) larger than MAX_DIM={MAX_DIM}")

    last_leakage = math.inf
    for d in dims:
        if d < initial.n_max + 1 or d < 5:
            raise ValueError(f"dim={d} cannot hold the initial state")
        psi0 = np.zeros(d, dtype=np.complex128)
        psi0[: initial.n_max + 1] = initial.amplitudes
        if _edge_occupancy(psi0) >= INITIAL_EDGE_TOL:
            raise LeakageError(
                f"initial state already occupies the truncation boundary at dim={d}",
                leakage=_edge_occupancy(psi0),
            )
        psi, min_norm2, max_norm2, max_edge = kernels.rk4_propagate(
            dprofile.samples, dprofile.omega0, tau, psi0, n_sub
        )
        final_norm2 = float(np.sum(np.abs(psi) ** 2))
        # the truncated H is Hermitian, so any norm change is RK4 error (nan
        # once the integration diverges); a larger basis cannot mend it
        rk4_loss = abs(1.0 - final_norm2)
        if not rk4_loss <= LEAKAGE_TOL:
            raise LeakageError(
                f"RK4 norm loss {rk4_loss:.3e} exceeds {LEAKAGE_TOL:g} at dim={d}; "
                f"the substep dt={tau / n_sub:.3g} is too coarse (lower dt_sub, --oracle-dt-sub)",
                leakage=rk4_loss,
            )
        last_leakage = max_edge
        if not max_edge <= LEAKAGE_TOL:
            continue
        norm_drift = max(abs(1.0 - min_norm2), abs(max_norm2 - 1.0))
        state = FockState(psi / math.sqrt(final_norm2))
        return state, OracleDiagnostics(dim=d, leakage=max_edge, norm_drift=norm_drift, n_sub=n_sub)
    raise LeakageError(
        f"leakage {last_leakage:.3e} exceeds {LEAKAGE_TOL:g} at dim={dims[-1]}; "
        "state too wide for the truncated basis",
        leakage=last_leakage,
    )


def fidelity(a: FockState, b: FockState) -> float:
    """|<a|b>|^2 for states normalized within 1e-6 (shorter state zero-padded)."""
    for name, state in (("a", a), ("b", b)):
        if abs(state.norm2() - 1.0) > 1e-6:
            raise ValueError(f"state {name} has norm^2 = {state.norm2()}, not 1 within 1e-6")
    n = min(a.amplitudes.shape[0], b.amplitudes.shape[0])
    # overlap ignores the zero-padded tail of the shorter state
    overlap = np.vdot(a.amplitudes[:n], b.amplitudes[:n])
    return min(float(abs(overlap) ** 2), 1.0)
