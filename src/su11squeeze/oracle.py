"""Independent validators: RK4 on the Heisenberg pair and on the Fock basis.

Both integrate with classical fixed-substep RK4 on the same
piecewise-constant frequency ladder the algebraic method uses, so the
routes share a discretization and differ only in how the propagator is
evaluated.  Neither uses the disentangling algebra.

H is quadratic, so ``(a, a+)`` evolve linearly::

    d/dt (a, a+) = -i omega [[cosh 2rho, sinh 2rho], [-sinh 2rho, -cosh 2rho]] (a, a+)

:func:`heisenberg` runs RK4 on this 2x2 system, each segment's substeps at
once in closed form, and returns the Bogoliubov pair ``(u, v)`` with
``a(T) = u a + v a+``, the counterpart of the fold's
``(p, q)``; ``--oracle-check`` gates the closed-form fidelity of the
vacuum's images (:func:`vacuum_fidelity`), and :func:`evolve_number_state`
builds the oracle's image of a number state ``|n>`` in a number basis.
:func:`integrate` runs RK4 on the Schrodinger equation in a truncated number
basis (:func:`su11squeeze.kernels.rk4_propagate`), the plain reference the
tests hold the Heisenberg route to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import LeakageError
from .evolution import LEAKAGE_TOL, FockState, triple
from .profiles import DiscretizedProfile

#: Starting basis size when none is pinned; doubled while the state reaches
#: the top basis levels.
DEFAULT_DIM = 256
MAX_DIM = 4096

#: A usable basis must hold the initial state with at most this much
#: population in the top four levels.
INITIAL_EDGE_TOL = 1e-10

#: Largest substep angle ``omega*dt`` of :func:`pair_substeps`.  The pair error falls as ``theta^4`` and
#: is below 1e-12 here (7.7e-13 on fig2 at N = 15 000); it reaches a rounding floor near 1e-14 by
#: ``theta ~ 1e-4``, and more substeps do not raise it (5e-13 on fig4, 3e-12 on fig5, up to n_sub = 1024).
#: Nor do they cost more: :func:`heisenberg` takes the substep's power in closed form, so no count is capped.
THETA_MAX = 1e-3
FIDELITY_ROUNDING = 4.0 * float(np.finfo(np.float64).eps)  # vacuum_fidelity is good to this times |p|^2

#: Segments per block of :func:`heisenberg`'s product; its traced scratch is ~0.5 MB.
HEISENBERG_BLOCK = 4096


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


def _bases(dim: int | None, smallest: int = DEFAULT_DIM) -> list:
    """Basis sizes to try in turn: ``dim`` if pinned, else ``smallest`` and its doublings up to ``MAX_DIM``."""
    if dim is not None:
        return [int(dim)]
    return [smallest << k for k in range(MAX_DIM.bit_length()) if smallest << k <= MAX_DIM]


def pair_substeps(dprofile: DiscretizedProfile) -> int:
    """:func:`heisenberg`'s substeps per segment, ``max(1, ceil(max(omega) tau / THETA_MAX))``, or ValueError."""
    angle = float(np.max(dprofile.samples)) * dprofile.tau
    ratio = angle / THETA_MAX
    if not math.isfinite(ratio):
        raise ValueError(f"max(omega)*tau = {angle:.3g} takes more RK4 substeps per segment than a float holds")
    return max(1, math.ceil(ratio))


def heisenberg(dprofile: DiscretizedProfile, n_sub: int):
    """RK4-integrate ``(a, a+)`` across the ladder; returns ``(u, v, norm_drift)``.

    On a segment the generator is ``G = -i omega M`` with ``M = [[cosh 2rho,
    sinh 2rho], [-sinh 2rho, -cosh 2rho]]`` and ``M^2 = I``, so one RK4
    substep, ``1 + X + X^2/2 + X^3/6 + X^4/24`` at ``X = dt G``, acts on M's
    ``+-1`` eigenvectors as RK4's stability function at ``-+i theta``,
    ``theta = omega dt``::

        1 - theta^2/2 + theta^4/24 -+ i (theta - theta^3/6) = R exp(-+i phi)
        R^2 = 1 + theta^6 (theta^2 - 8)/576

    so its ``n_sub``-th power is ``R^n (cos(n phi) I - i sin(n phi) M)`` in
    closed form, at one cost for every ``n = n_sub``.  It is ``[[P, Q],
    [conj(Q), conj(P)]]``, ``P = R^n (cos(n phi) - i sin(n phi) cosh 2rho)``
    and ``Q = -i R^n sin(n phi) sinh 2rho``, a shape that products keep, so
    each block of segments is held as two complex rows ``(P, Q)`` and reduced
    pairwise in time order by the fold's pair product
    (:func:`kernels._mul_into`) into ping-pong buffers; the running product is
    carried from block to block as a scalar pair.  It is ``(u, v)`` with
    ``a(T) = u a + v a+``, the fold's ``(p, q)`` up to RK4 error.

    ``norm_drift`` is ``|1 - (|u|^2 - |v|^2)|``, the RK4 loss of the pair's
    norm, taken as the product of the segment determinants ``R^(2n)``, summed
    as ``n log1p(R^2 - 1)``: no digit cancels, at any ``|u|`` or ``n``.  Those
    determinants are exact, so it leaves out the rounding of the block
    product: on a four-cycle square wave at ``n_sub = 4`` it reads 0.0 where
    the returned pair is 9.3e-13 off ``|u|^2 - |v|^2 = 1``, so a gate on it
    cannot see rounding drift of that size.

    Raises
    ------
    LeakageError
        If ``norm_drift`` exceeds ``LEAKAGE_TOL`` or is nan: the substep is
        too coarse (or the integration overflowed).
    """
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    power = float(n_sub)  # n_sub may pass int64
    omega = np.ascontiguousarray(dprofile.samples, dtype=np.float64)
    dt = dprofile.tau / power
    bufs = [np.empty((2, size), np.complex128) for size in (HEISENBERG_BLOCK, HEISENBERG_BLOCK // 2 + 1)]
    scratch = np.empty((2, HEISENBERG_BLOCK // 2), np.complex128)
    u, v, log_det = 1.0 + 0j, 0j, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, omega.shape[0], HEISENBERG_BLOCK):
            w = omega[start:start + HEISENBERG_BLOCK]
            theta = w * dt
            t2 = theta * theta
            log_r2 = np.log1p(t2 * t2 * t2 * (t2 - 8.0) / 576.0)
            log_det += power * float(np.sum(log_r2))
            angle = power * np.arctan2(theta - theta * t2 / 6.0, 1.0 - t2 / 2.0 + t2 * t2 / 24.0)
            r_n = np.exp(0.5 * power * log_r2)
            x = w / dprofile.omega0  # cosh 2rho and sinh 2rho are (x +- 1/x)/2
            s = -0.5 * r_n * np.sin(angle)
            n = w.shape[0]
            src, dst = bufs
            p, q = src[:, :n]
            p.real, q.real = r_n * np.cos(angle), 0.0
            p.imag, q.imag = s * (x + 1.0 / x), s * (x - 1.0 / x)
            while (h := n // 2) > 0:  # each later pair times the one before it
                dst[:, :h] = src[:, 1:2 * h:2]
                kernels._mul_into(*dst[:, :h], *src[:, 0:2 * h:2], *scratch[:, :h])
                dst[:, h:n - h] = src[:, 2 * h:n]  # an odd last pair moves up unpaired
                n, src, dst = n - h, dst, src
            u, v = kernels._mul(src[0, 0], src[1, 0], u, v)
        norm_drift = float(abs(np.expm1(log_det)))
    if not norm_drift <= LEAKAGE_TOL:
        raise LeakageError(
            f"RK4 norm loss {norm_drift:.3e} exceeds {LEAKAGE_TOL:g}; "
            f"the substep dt={dt:.3g} is too coarse (raise n_sub)",
            leakage=norm_drift,
        )
    return complex(u), complex(v), norm_drift


def evolve_number_state(dprofile: DiscretizedProfile, n: int, n_sub: int, dim: int | None = None):
    """The image ``U|n>`` of a number state from :func:`heisenberg`; returns ``(state, diagnostics, (u, v))``.

    With ``a(T) = u a + v a+``, ``U|0>`` is the state that ``conj(u) a - v a+``
    annihilates, and ``U|n> = (u a+ - conj(v) a)^n U|0> / sqrt(n!)``.  With
    ``alpha = v/conj(u)``::

        c_{m+1} = alpha sqrt(m/(m+1)) c_{m-1},   |c_0|^2 = sqrt(1 - |alpha|^2)
        u a+ - conj(v) a = u (a+ - conj(alpha) a)

    and each factor is divided by its norm on the image, ``|u| sqrt(1 -
    |alpha|^2)``, which is 1 for a pair of unit determinant; so the image is
    normalized over all levels even where RK4 leaves ``|u|^2 - |v|^2`` a
    little off 1.  The vector is ``n`` levels longer than the largest basis,
    so the cut at its top never reaches the kept amplitudes.  Without ``dim``
    the basis is the smallest power of two from 256 to ``MAX_DIM`` whose top
    four levels and beyond hold at most ``LEAKAGE_TOL`` (``leakage``).
    ``n_sub`` is :func:`heisenberg`'s.

    Raises
    ------
    LeakageError
        From :func:`heisenberg`, or if the state does not fit the largest
        basis tried.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    u, v, norm_drift = heisenberg(dprofile, n_sub)
    dims = _bases(dim)
    size = dims[-1] + n
    alpha = v / u.conjugate()
    gap = (1.0 - abs(alpha)) * (1.0 + abs(alpha))  # 1 - |alpha|^2
    k = np.arange(1, (size - 1) // 2 + 1)
    amp = np.zeros(size, dtype=np.complex128)
    amp[0] = max(0.0, gap) ** 0.25
    amp[2::2] = amp[0] * np.cumprod(alpha * np.sqrt((2.0 * k - 1.0) / (2.0 * k)))
    lift = u / abs(u) / math.sqrt(gap) if gap > 0.0 else 0.0  # u/(|u| sqrt(1 - |alpha|^2))
    root = np.sqrt(np.arange(1.0, size))  # a+|m-1> = sqrt(m)|m>
    for j in range(1, n + 1):
        step = np.zeros_like(amp)
        step[1:] = root * amp[:-1]
        step[:-1] -= alpha.conjugate() * root * amp[1:]
        amp = step * (lift / math.sqrt(j))
    for d in dims:
        leakage = max(0.0, 1.0 - float(np.sum(np.abs(amp[:d - 4]) ** 2)))  # amp is normalized over all levels
        if leakage <= LEAKAGE_TOL:
            diag = OracleDiagnostics(dim=d, leakage=leakage, norm_drift=norm_drift, n_sub=n_sub)
            return FockState(amp[:d]).normalized(), diag, (u, v)
    raise LeakageError(
        f"leakage {leakage:.3e} exceeds {LEAKAGE_TOL:g} at dim={dims[-1]}; "
        "state too wide for the truncated basis",
        leakage=leakage,
    )


def pair_error(u: complex, v: complex, p: complex, q: complex) -> float:
    """``max(|v/conj(u) - alpha|, |conj(u)^-2 - beta|)``, with the triple of the method's pair ``(p, q)``."""
    alpha, beta, _ = triple(p, q)
    uc = u.conjugate()
    return max(abs(v / uc - alpha), abs(uc ** -2 - beta))


def vacuum_fidelity(u: complex, v: complex, p: complex, q: complex) -> float:
    """Fidelity of the vacuum's images ``exp(alpha K_+)|0>`` (the method's) and ``exp(a_o K_+)|0>``, normalized.

    With ``alpha = q/conj(p)`` and ``a_o = v/conj(u)``, ``F = sqrt((1 - |alpha|^2) (1 - |a_o|^2)) /
    |1 - conj(a_o) alpha|`` is at most 1.  Each factor is of size ``1/|p|^2`` and rounded to about one ``eps``,
    so ``F`` is good to ``FIDELITY_ROUNDING |p|^2`` (1e-3 near r = 14.6); past r ~ 19 it rounds to 0 or nan.
    """
    alpha = triple(p, q)[0]
    a_o = v / u.conjugate()
    den = abs(1.0 - a_o.conjugate() * alpha)
    inside = (1.0 - abs(alpha) ** 2) * (1.0 - abs(a_o) ** 2)
    return math.sqrt(max(0.0, inside)) / den if den else math.nan


def integrate(dprofile: DiscretizedProfile, initial: FockState, n_sub: int, dim: int | None = None):
    """RK4-integrate the state across the ladder; returns (state, diagnostics).

    Parameters
    ----------
    dprofile : DiscretizedProfile
        The same ladder the algebraic method folds.
    initial : FockState
        Starting state; must fit the basis with edge occupancy < 1e-10.
    n_sub : int
        RK4 substeps per segment, as in :func:`heisenberg`.
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
    dims = _bases(dim, max(DEFAULT_DIM, initial.n_max + 1))
    if not dims:
        raise ValueError(f"initial state ({initial.n_max + 1}) larger than MAX_DIM={MAX_DIM}")
    last_leakage = math.inf
    for d in dims:
        if d < initial.n_max + 1 or d < 5:
            raise ValueError(f"dim={d} cannot hold the initial state")
        psi0 = np.zeros(d, dtype=np.complex128)
        psi0[: initial.n_max + 1] = initial.amplitudes
        edge = float(np.sum(np.abs(psi0[-4:]) ** 2))
        if edge >= INITIAL_EDGE_TOL:
            raise LeakageError(f"initial state already occupies the truncation boundary at dim={d}", leakage=edge)
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
                f"the substep dt={tau / n_sub:.3g} is too coarse (raise n_sub)",
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
