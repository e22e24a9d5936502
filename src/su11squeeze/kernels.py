"""Hot numeric kernels: the N-step ladder fold and the Fock-basis RK4 sweep.

The fold writes each constant-frequency segment as a det-1 SU(1,1) matrix::

    S_j = [[conj(D), v], [conj(v), D]]
    D = cos(w*tau) + i*cosh(2*rho)*sin(w*tau),   v = -i*sinh(2*rho)*sin(w*tau)

and the ladder as their ordered product ``S_N ... S_1 = [[p, q], [conj(q),
conj(p)]]``, kept and handed on as the two complex numbers ``(p, q)``:
``|q| = sinh(r)`` holds the squeezing to full precision at any r.  The
triple that :func:`su11squeeze.core.compose` builds one segment at a time
is ``alpha = q/conj(p)``, ``beta = conj(p)**-2``, ``gamma = -conj(q)/conj(p)``.
The product is associative, so it is computed as an inclusive prefix scan
inside blocks of ``BLOCK`` segments (vectorized numpy), with the running
product carried from block to block.  No step divides, and ``|p| >= 1``.

The RK4 sweep integrates the Schrodinger equation in a truncated number
basis with classical fixed-substep RK4; :func:`fock_bands` holds the basis
matrix elements it shares with :class:`su11squeeze.oracle.TruncatedHamiltonian`.
H is constant on a segment, so an RK4 substep there is the fixed matrix
``P(X) = 1 + X + X^2/2 + X^3/6 + X^4/24`` with ``X = -i dt H``.  Its
increment ``P(X) - I`` has nine bands.  It is assembled for a block of
segments from words of the bands that :func:`step_words` caches per basis
size, and each substep applies it with three numpy calls.
"""

from __future__ import annotations

import functools

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
    """Fold a frequency ladder into the SU(1,1) pair ``(p, q)``, recording along the way.

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
    p, q : complex128 arrays
        The ladder product ``[[p, q], [conj(q), conj(p)]]`` at each record.
    defect : float64 array
        ``||q|^2 + 1 - |p|^2| / |p|^2 = ||alpha|^2 + |beta| - 1|`` at each record.
    max_defect : float
        Maximum defect seen at *any* segment, recorded or not (a nan wins).
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
        max_defect = np.maximum(max_defect, defect.max())  # keeps a nan, unlike max()
        lo, hi = np.searchsorted(rec, (start + 1, start + w.shape[0] + 1))
        rows = rec[lo:hi] - (start + 1)
        rec_p[lo:hi] = p[rows]
        rec_q[lo:hi] = q[rows]
        rec_defect[lo:hi] = defect[rows]
    return rec, rec_p, rec_q, rec_defect, float(max_defect)


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


#: Bands of the RK4 step matrix ``P(X) - I``: H couples n <-> n+-2, so four
#: factors of it reach the even offsets -8..8.
STEP_BANDS = 9
_PAD = STEP_BANDS - 1  # the largest offset

#: Segments whose step matrices are built together.  Bounds the kernel's
#: scratch memory at ``RK4_BLOCK * STEP_BANDS * dim`` complex numbers.
RK4_BLOCK = 8

#: ``(k, i)`` of the words ``W[k, i]`` (k factors, i of them ``off``) in the
#: even powers of ``X = -i dt H``, which are real, and the odd ones, which
#: are imaginary.
_EVEN_WORDS = tuple((k, i) for k in (2, 4) for i in range(k + 1))
_ODD_WORDS = tuple((k, i) for k in (1, 3) for i in range(k + 1))


def _times_off(off, band):
    """``O @ M`` for a banded ``M`` in row storage ``band[m, n] = M[n, n + 2(m - 4)]``.

    ``O`` is the ``n <-> n+2`` coupling.  Rows and columns outside the basis
    contribute nothing, so the product is that of the truncated matrices.
    """
    out = np.zeros_like(band)
    out[1:, :-2] += off * band[:-1, 2:]   # O[n, n+2] M[n+2, n+o]
    out[:-1, 2:] += off * band[1:, :-2]   # O[n, n-2] M[n-2, n+o]
    return out


@functools.lru_cache(maxsize=8)
def step_words(dim: int):
    """Band storage of the words that build the RK4 step matrix, before scaling.

    ``W[k, i]`` is the sum of all products of ``k`` factors drawn from the
    bands of :func:`fock_bands`, ``i`` of them the coupling ``off`` and the
    rest ``diag``, built by ``W[k, i] = diag W[k-1, i] + off W[k-1, i-1]``.
    Each is stored as ``(STEP_BANDS, dim)`` with ``[m, n]`` the entry at row
    ``n``, column ``n + 2(m - 4)`` (zero outside the basis).  Returns the
    stacks of the flattened ``_EVEN_WORDS`` and ``_ODD_WORDS``.  Read-only,
    built once per dimension.
    """
    diag, off = fock_bands(dim)
    words = {(0, 0): np.zeros((STEP_BANDS, dim))}
    words[0, 0][STEP_BANDS // 2] = 1.0
    for k in range(1, 5):
        for i in range(k + 1):
            w = np.zeros((STEP_BANDS, dim))
            if i < k:
                w += diag * words[k - 1, i]
            if i > 0:
                w += _times_off(off, words[k - 1, i - 1])
            words[k, i] = w
    even = np.stack([words[key].ravel() for key in _EVEN_WORDS])
    odd = np.stack([words[key].ravel() for key in _ODD_WORDS])
    even.flags.writeable = False
    odd.flags.writeable = False
    return even, odd


def rk4_propagate(omega, omega0: float, tau: float, psi0, n_sub: int):
    """Integrate i dpsi/dt = H(t) psi across a piecewise-constant ladder.

    Classical fixed-substep RK4; ``n_sub`` substeps per segment.  H is
    constant on a segment, so one RK4 substep is exactly ``psi <- P(X) psi``
    with ``P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24`` and ``X = -i dt H``.  The
    increment ``P(X) - I`` of the truncated H has nine bands (even offsets
    -8..8); it is assembled from :func:`step_words` for ``RK4_BLOCK``
    segments at a time and applied through a strided window on a
    zero-padded copy of psi.  Keeping the increment rather than ``P`` avoids
    rounding ``1 + delta`` the same way at every substep.  Returns the final
    (unnormalized) vector plus the extreme squared norms seen at segment
    boundaries and the largest occupancy of the top four basis levels (the
    truncation-boundary diagnostic).
    """
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    omega = np.ascontiguousarray(omega, dtype=np.float64)
    psi0 = np.ascontiguousarray(psi0, dtype=np.complex128)
    dim = psi0.shape[0]
    if dim < 5:
        raise ValueError("state vector too short for a meaningful truncated basis")
    dt = tau / n_sub
    # (-i dt)^k / k! is scale[k-1] for even k and i*scale[k-1] for odd k
    scale = np.array([-dt, -dt ** 2 / 2.0, dt ** 3 / 6.0, dt ** 4 / 24.0])
    parts = []  # real, then imaginary part of P - I: (words, their scale, powers of a and b)
    for words, keys in zip(step_words(dim), (_EVEN_WORDS, _ODD_WORDS)):
        k, i = np.array(keys).T
        parts.append((words, scale[k - 1], k - i, i))

    buf = np.zeros(dim + 2 * _PAD, dtype=np.complex128)
    psi = buf[_PAD:_PAD + dim]
    psi[:] = psi0
    window = np.lib.stride_tricks.as_strided(
        buf, shape=(STEP_BANDS, dim), strides=(2 * buf.strides[0], buf.strides[0]),
        writeable=False)  # window[m, n] = psi[n + 2(m - 4)], zero off the basis
    terms = np.empty((STEP_BANDS, dim), dtype=np.complex128)
    inc = np.empty(dim, dtype=np.complex128)

    min_norm2 = 1.0
    max_norm2 = 1.0
    max_edge = 0.0
    for start in range(0, omega.shape[0], RK4_BLOCK):
        w = omega[start:start + RK4_BLOCK, None]
        rho2 = np.log(w / omega0)
        a = w * np.cosh(rho2)
        b = w * np.sinh(rho2)
        steps = np.empty((w.shape[0], STEP_BANDS, dim), dtype=np.complex128)
        for out, (words, coef, pa, pb) in zip((steps.real, steps.imag), parts):
            out[...] = np.einsum("st,tk->sk", coef * a ** pa * b ** pb, words).reshape(out.shape)
        for step in steps:
            for _ in range(n_sub):
                np.multiply(step, window, out=terms)
                np.add.reduce(terms, axis=0, out=inc)
                psi += inc
            norm2 = np.vdot(psi, psi).real
            min_norm2 = min(min_norm2, norm2)
            max_norm2 = max(max_norm2, norm2)
            max_edge = max(max_edge, np.vdot(psi[-4:], psi[-4:]).real)
    return psi.copy(), float(min_norm2), float(max_norm2), float(max_edge)
