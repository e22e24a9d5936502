"""Independent validators: RK4 on the Heisenberg pair and on the Fock basis.

Both integrate with classical fixed-substep RK4 on the same
piecewise-constant frequency ladder the algebraic method uses, so the
routes share a discretization and differ only in how the propagator is
evaluated.  Neither uses the disentangling algebra.

H is quadratic, so ``(a, a+)`` evolve linearly::

    d/dt (a, a+) = -i omega [[cosh 2rho, sinh 2rho], [-sinh 2rho, -cosh 2rho]] (a, a+)

:func:`heisenberg` runs RK4 on this 2x2 system and returns the Bogoliubov
pair ``(u, v)`` with ``a(T) = u a + v a+``; ``--oracle-check`` gates the
closed-form fidelity of the vacuum's images (:func:`vacuum_fidelity`), and
:func:`evolve_vacuum` builds the oracle's image in a number basis.
:func:`integrate` runs RK4 on the Schrodinger equation in a truncated number
basis (:func:`su11squeeze.kernels.rk4_propagate`) and takes any initial state.
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

#: Most RK4 substeps per segment that :func:`substeps` and :func:`pair_substeps`
#: grant.  In the Fock basis every substep costs a pass over the whole ladder,
#: and at ``tau/MAX_SUBSTEPS`` RK4's error on a segment with ``omega*tau <= 1``
#: already lies below double rounding.
MAX_SUBSTEPS = 10_000

#: Largest substep angle ``omega*dt`` of :func:`pair_substeps`: the pair error falls as ``theta^4`` to a
#: rounding floor of 1e-12 to 1e-11 near here, and more substeps add rounding (1e-10 at 256).
THETA_MAX = 1e-3
FIDELITY_ROUNDING = 4.0 * float(np.finfo(np.float64).eps)  # vacuum_fidelity is good to this over |beta|

#: Segments per block of :func:`heisenberg`'s product; its traced scratch is ~0.75 MB.
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


def _edge_occupancy(amp: np.ndarray) -> float:
    return float(np.sum(np.abs(amp[-4:]) ** 2))


def substeps(tau: float, dt_sub: float) -> int:
    """RK4 substeps per segment for a requested substep: ``ceil(tau/dt_sub)``, at least 1.

    Raises ValueError for a substep longer than ``tau`` or one that would
    take more than ``MAX_SUBSTEPS`` substeps per segment.
    """
    if not (0.0 < dt_sub <= tau):
        raise ValueError(f"dt_sub must satisfy 0 < dt_sub <= tau = {tau}, got {dt_sub}")
    ratio = tau / dt_sub
    if ratio > MAX_SUBSTEPS:
        raise ValueError(f"dt_sub = {dt_sub} takes {ratio:.3g} RK4 substeps per segment of tau = {tau}, "
                         f"more than MAX_SUBSTEPS = {MAX_SUBSTEPS}")
    return max(1, math.ceil(ratio))


def pair_substeps(dprofile: DiscretizedProfile) -> int:
    """:func:`heisenberg`'s substeps per segment, ``max(1, ceil(max(omega) tau / THETA_MAX))``, or ValueError."""
    ratio = float(np.max(dprofile.samples)) * dprofile.tau / THETA_MAX
    if not ratio <= MAX_SUBSTEPS:
        raise ValueError(f"max(omega)*tau = {ratio * THETA_MAX:.3g} takes {ratio:.3g} RK4 substeps per segment, "
                         f"more than MAX_SUBSTEPS = {MAX_SUBSTEPS}")
    return max(1, math.ceil(ratio))


def _substep_power(c0, c1, delta, n: int):
    """``(A, B)`` with ``(c0 I + c1 X)^n = A I + B X`` for ``X^2 = delta I``, by repeated squaring.

    ``(a I + b X)(c I + d X) = (a c + delta b d) I + (a d + b c) X``, so
    the power takes ``log2(n)`` squarings and as many products, not
    ``n - 1`` products.
    """
    a = b = None
    while True:
        if n & 1:
            a, b = (c0, c1) if a is None else (a * c0 + delta * b * c1, a * c1 + b * c0)
        n >>= 1
        if not n:
            return a, b
        c0, c1 = c0 * c0 + delta * c1 * c1, 2.0 * c0 * c1


def heisenberg(dprofile: DiscretizedProfile, n_sub: int):
    """RK4-integrate ``(a, a+)`` across the ladder; returns ``(u, v, norm_drift)``.

    On a segment the generator is ``G = -i omega M`` with ``M = [[cosh 2rho,
    sinh 2rho], [-sinh 2rho, -cosh 2rho]]`` and ``M^2 = I``, so ``X = dt G``
    has ``X^2 = delta I`` with ``delta = -(omega dt)^2``.  One RK4 substep,
    ``1 + X + X^2/2 + X^3/6 + X^4/24``, is then ``c0 I + c1 X`` with ``c0 = 1
    + delta/2 + delta^2/24`` and ``c1 = 1 + delta/6``, and its ``n_sub``-th
    power is ``A I + B X`` with real ``A, B``, taken by repeated squaring
    (:func:`_substep_power`).  Each block of segment matrices is held as four
    complex entry arrays and reduced pairwise in time order by a general 2x2
    product into ping-pong buffers; the running product is carried from block
    to block.  The product is ``[[u, v], [conj(v), conj(u)]]`` with ``a(T) =
    u a + v a+``; it equals the fold's ``(p, q)`` up to RK4 error.

    ``norm_drift`` is ``|1 - (|u|^2 - |v|^2)|``, the RK4 loss of the pair's
    norm.  ``|u|^2 - |v|^2`` is the determinant of the product, so it is
    taken as the product of the segment determinants ``A^2 - delta B^2``,
    which does not cancel at large ``|u|`` as ``|u|^2 - |v|^2`` would.

    Raises
    ------
    LeakageError
        If ``norm_drift`` exceeds ``LEAKAGE_TOL`` or is nan: the substep is
        too coarse (or the integration overflowed).
    """
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    omega = np.ascontiguousarray(dprofile.samples, dtype=np.float64)
    dt = dprofile.tau / n_sub
    bufs = [np.empty((4, size), np.complex128) for size in (HEISENBERG_BLOCK, HEISENBERG_BLOCK // 2 + 1)]
    tmp = np.empty(HEISENBERG_BLOCK // 2, np.complex128)
    phi, log_det = np.eye(2, dtype=np.complex128), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, omega.shape[0], HEISENBERG_BLOCK):
            w = omega[start:start + HEISENBERG_BLOCK]
            theta = w * dt
            delta = -theta * theta
            a, b = _substep_power(1.0 + delta / 2.0 + delta * delta / 24.0, 1.0 + delta / 6.0, delta, n_sub)
            log_det += float(np.sum(np.log(a * a - delta * b * b)))
            rho2 = np.log(w / dprofile.omega0)
            n = w.shape[0]
            ma, mb, mc, md = bufs[0][:, :n]  # a I + b X, X = -i theta M
            ma.real, mb.real, mc.real, md.real = a, 0.0, 0.0, a
            mc.imag, md.imag = b * theta * np.sinh(rho2), b * theta * np.cosh(rho2)
            ma.imag, mb.imag = -md.imag, -mc.imag
            src, dst = bufs
            while (h := n // 2) > 0:
                (la, lb, lc, ld), (ra, rb, rc, rd) = src[:, 1:2 * h:2], src[:, 0:2 * h:2]
                (oa, ob, oc, od), t = dst[:, :h], tmp[:h]
                np.add(np.multiply(la, ra, out=oa), np.multiply(lb, rc, out=t), out=oa)
                np.add(np.multiply(la, rb, out=ob), np.multiply(lb, rd, out=t), out=ob)
                np.add(np.multiply(lc, ra, out=oc), np.multiply(ld, rc, out=t), out=oc)
                np.add(np.multiply(lc, rb, out=od), np.multiply(ld, rd, out=t), out=od)
                dst[:, h:n - h] = src[:, 2 * h:n]  # an odd last matrix moves up unpaired
                n, src, dst = n - h, dst, src
            phi = src[:, 0].reshape(2, 2) @ phi
        norm_drift = float(abs(np.expm1(log_det)))
    if not norm_drift <= LEAKAGE_TOL:
        raise LeakageError(
            f"RK4 norm loss {norm_drift:.3e} exceeds {LEAKAGE_TOL:g}; "
            f"the substep dt={dt:.3g} is too coarse (raise n_sub)",
            leakage=norm_drift,
        )
    return complex(phi[0, 0]), complex(phi[0, 1]), norm_drift


def evolve_vacuum(dprofile: DiscretizedProfile, dt_sub: float, dim: int | None = None):
    """The vacuum's image ``U|0>`` from :func:`heisenberg`; returns ``(state, diagnostics, (u, v))``.

    ``U|0>`` is the state that ``conj(u) a - v a+`` annihilates::

        c_{n+1} = (v/conj(u)) sqrt(n/(n+1)) c_{n-1},   |c_0|^2 = sqrt(1 - |v/u|^2)

    which is normalized over all levels.  Without ``dim`` the basis starts
    at 256 levels and doubles, up to ``MAX_DIM``, while the population of
    its top four levels and beyond (``leakage``) exceeds ``LEAKAGE_TOL``.
    ``dt_sub`` is the RK4 substep, as in :func:`integrate`.

    Raises
    ------
    LeakageError
        From :func:`heisenberg`, or if the state does not fit the largest
        basis tried.
    """
    n_sub = substeps(dprofile.tau, dt_sub)
    u, v, norm_drift = heisenberg(dprofile, n_sub)
    dims = [DEFAULT_DIM] if dim is None else [int(dim)]
    while dim is None and 2 * dims[-1] <= MAX_DIM:
        dims.append(2 * dims[-1])
    alpha = v / u.conjugate()
    k = np.arange(1, (dims[-1] - 1) // 2 + 1)
    amp = np.zeros(dims[-1], dtype=np.complex128)
    amp[0] = max(0.0, (1.0 - abs(alpha)) * (1.0 + abs(alpha))) ** 0.25
    amp[2::2] = amp[0] * np.cumprod(alpha * np.sqrt((2.0 * k - 1.0) / (2.0 * k)))
    for d in dims:
        leakage = max(0.0, 1.0 - float(np.sum(np.abs(amp[:d - 4]) ** 2)))  # amp is normalized over all n
        if leakage <= LEAKAGE_TOL:
            diag = OracleDiagnostics(dim=d, leakage=leakage, norm_drift=norm_drift, n_sub=n_sub)
            return FockState(amp[:d]).normalized(), diag, (u, v)
    raise LeakageError(
        f"leakage {leakage:.3e} exceeds {LEAKAGE_TOL:g} at dim={dims[-1]}; "
        "state too wide for the truncated basis",
        leakage=leakage,
    )


def pair_error(u: complex, v: complex, acc) -> float:
    """``max(|v/conj(u) - alpha|, |conj(u)^-2 - beta|)`` against a composed propagator."""
    uc = u.conjugate()
    return max(abs(v / uc - acc.alpha), abs(uc ** -2 - acc.beta))


def vacuum_fidelity(u: complex, v: complex, acc) -> float:
    """Fidelity of the vacuum's images ``exp(alpha K_+)|0>`` (the method's) and ``exp(a_o K_+)|0>``, normalized.

    With ``a_o = v/conj(u)`` it is ``sqrt((1 - |alpha|^2) (1 - |a_o|^2)) / |1 - conj(a_o) alpha|``, at most
    1.  Each factor is of size ``|beta| = 1/|p|^2`` and rounded to about one ``eps``, so ``F`` is good to
    ``FIDELITY_ROUNDING/|beta|``, 1e-3 near r = 14.6; past r ~ 19 they round to 0 and ``F`` to 0 or nan.
    """
    a_o = v / u.conjugate()
    den = abs(1.0 - a_o.conjugate() * acc.alpha)
    inside = (1.0 - abs(acc.alpha) ** 2) * (1.0 - abs(a_o) ** 2)
    return math.sqrt(max(0.0, inside)) / den if den else math.nan


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
    n_sub = substeps(tau, dt_sub)

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
                f"the substep dt={tau / n_sub:.3g} is too coarse (lower dt_sub)",
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
