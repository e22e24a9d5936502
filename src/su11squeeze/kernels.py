"""Hot numeric kernels: the N-step ladder fold and the Fock-basis RK4 sweep.

The fold writes each constant-frequency segment as a det-1 SU(1,1) matrix::

    S_j = [[conj(D), v], [conj(v), D]]
    D = cos(w*tau) + i*cosh(2*rho)*sin(w*tau),   v = -i*sinh(2*rho)*sin(w*tau)

and the ladder as their ordered product ``S_N ... S_1 = [[p, q], [conj(q),
conj(p)]]``, kept as the two complex numbers ``(p, q)``.  The composed
coefficients are ``alpha = q/conj(p)``, ``beta = conj(p)**-2`` and
``gamma = -conj(q)/conj(p)``, the same triple that the recurrence in
:func:`su11squeeze.core.compose` builds one segment at a time.  The product
is associative, so it is computed as an inclusive prefix scan inside blocks
of ``BLOCK`` segments (vectorized numpy), with the running product carried
from block to block.  No step divides, and ``|p| >= 1`` along any ladder.

The RK4 sweep integrates the Schrodinger equation in a truncated number
basis; :func:`fock_bands` holds the basis matrix elements it shares with
:class:`su11squeeze.oracle.TruncatedHamiltonian`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ProfileDomainError

#: Segments per prefix-scan block: the scan is vectorized inside a block and
#: sequential across blocks, and this bounds the fold's scratch memory.
BLOCK = 4096


def active_backend() -> str:
    """Name of the kernel path that runs (numpy is the only one)."""
    return "numpy"


# ---------------------------------------------------------------------------
# ladder fold
# ---------------------------------------------------------------------------

def _mul(ap, aq, bp, bq):
    """(p, q) of the product A @ B of two SU(1,1) matrices given as (p, q)."""
    return ap * bp + aq * np.conj(bq), ap * bq + aq * np.conj(bp)


def _prefix_products(p, q):
    """Inclusive prefix products ``S_i ... S_0`` of one block (Hillis-Steele scan)."""
    shift = 1
    while shift < p.shape[0]:
        p[shift:], q[shift:] = _mul(p[shift:], q[shift:], p[:-shift], q[:-shift])
        shift *= 2
    return p, q


def record_steps(n_steps: int, record_every: int) -> np.ndarray:
    """Step indices emitted by the fold: every multiple of ``record_every``, plus the final step."""
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    steps = np.arange(record_every, n_steps + 1, record_every, dtype=np.int64)
    if steps.size == 0 or steps[-1] != n_steps:
        steps = np.append(steps, np.int64(n_steps))
    return steps


def fold_ladder(omega, omega0: float, tau: float, record_every: int = 1):
    """Fold a frequency ladder into composed coefficients, recording along the way.

    Parameters
    ----------
    omega : array of float
        One frequency sample per segment, in time order.
    omega0 : float
        Reference frequency.
    tau : float
        Segment duration.
    record_every : int
        Emit the accumulator every this many segments (the final segment is
        always emitted).

    Returns
    -------
    rec_steps : int64 array
        Segment indices (1-based) of the emitted records.
    alpha, beta, gamma : complex128 arrays
        Composed coefficients at each record.
    defect : float64 array
        ``||alpha|^2 + |beta| - 1|`` at each record.
    max_defect : float
        Maximum defect seen at *any* segment, recorded or not.
    """
    omega = np.ascontiguousarray(omega, dtype=np.float64)
    if omega.shape[0] == 0:
        raise ValueError("empty frequency ladder")
    if not np.all(omega > 0.0):
        bad = int(np.flatnonzero(~(omega > 0.0))[0])
        raise ProfileDomainError(
            f"ladder sample omega_{bad + 1} = {omega[bad]} is not positive",
            step=bad + 1,
            omega=float(omega[bad]),
        )
    rec = record_steps(omega.shape[0], record_every)
    rec_p = np.empty(rec.shape[0], dtype=np.complex128)
    rec_q = np.empty(rec.shape[0], dtype=np.complex128)
    rec_defect = np.empty(rec.shape[0], dtype=np.float64)
    max_defect = 0.0
    carry_p, carry_q = 1.0 + 0j, 0j
    for start in range(0, omega.shape[0], BLOCK):
        w = omega[start:start + BLOCK]
        rho2 = np.log(w / omega0)
        wt = w * tau
        s = np.sin(wt)
        d = np.cos(wt) + 1j * np.cosh(rho2) * s
        p, q = _prefix_products(np.conj(d), -1j * np.sinh(rho2) * s)
        p, q = _mul(p, q, carry_p, carry_q)
        carry_p, carry_q = p[-1], q[-1]

        p2 = p.real ** 2 + p.imag ** 2
        defect = np.abs(q.real ** 2 + q.imag ** 2 + 1.0 - p2) / p2
        max_defect = max(max_defect, float(defect.max()))
        lo, hi = np.searchsorted(rec, (start + 1, start + w.shape[0] + 1))
        rows = rec[lo:hi] - (start + 1)
        rec_p[lo:hi] = p[rows]
        rec_q[lo:hi] = q[rows]
        rec_defect[lo:hi] = defect[rows]

    pc = np.conj(rec_p)
    return rec, rec_q / pc, 1.0 / (pc * pc), -np.conj(rec_q) / pc, rec_defect, max_defect


# ---------------------------------------------------------------------------
# truncated-basis RK4 sweep
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def fock_bands(dim: int):
    """Number-basis bands of the segment Hamiltonian, before frequency scaling.

    Returns the diagonal ``n + 1/2`` (length ``dim``) and the ``n <-> n+2``
    coupling ``sqrt((n+1)(n+2))/2`` (length ``dim - 2``).  A segment at
    ``omega`` with ``rho = 0.5*ln(omega/omega0)`` has
    ``H = omega*cosh(2 rho)*diag + omega*sinh(2 rho)*off``.  Read-only,
    built once per dimension.
    """
    n = np.arange(dim, dtype=np.float64)
    diag = n + 0.5
    off = 0.5 * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
    diag.flags.writeable = False
    off.flags.writeable = False
    return diag, off


def rk4_propagate(omega, omega0: float, tau: float, psi0, n_sub: int):
    """Integrate i dpsi/dt = H(t) psi across a piecewise-constant ladder.

    Classical fixed-substep RK4; ``n_sub`` substeps per segment.  Returns the
    final (unnormalized) vector plus the extreme squared norms seen at
    segment boundaries and the largest occupancy of the top four basis
    levels (the truncation-boundary diagnostic).
    """
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    omega = np.ascontiguousarray(omega, dtype=np.float64)
    psi = np.ascontiguousarray(psi0, dtype=np.complex128).copy()
    if psi.shape[0] < 5:
        raise ValueError("state vector too short for a meaningful truncated basis")
    levels, ladder = fock_bands(psi.shape[0])
    dt = tau / n_sub

    def hpsi(p, diag, off):
        y = diag * p
        y[2:] += off * p[:-2]
        y[:-2] += off * p[2:]
        return y

    min_norm2 = 1.0
    max_norm2 = 1.0
    max_edge = 0.0
    for w in omega:
        rho2 = math.log(w / omega0)
        diag = w * math.cosh(rho2) * levels
        off = w * math.sinh(rho2) * ladder
        for _ in range(n_sub):
            k1 = -1j * hpsi(psi, diag, off)
            k2 = -1j * hpsi(psi + (0.5 * dt) * k1, diag, off)
            k3 = -1j * hpsi(psi + (0.5 * dt) * k2, diag, off)
            k4 = -1j * hpsi(psi + dt * k3, diag, off)
            psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm2 = float(np.real(np.vdot(psi, psi)))
        min_norm2 = min(min_norm2, norm2)
        max_norm2 = max(max_norm2, norm2)
        edge = float(np.sum(np.abs(psi[-4:]) ** 2))
        max_edge = max(max_edge, edge)
    return psi, min_norm2, max_norm2, max_edge
