"""Numeric kernels: the N-step ladder fold and the Fock-basis RK4 sweep.

The fold writes each constant-frequency segment as a det-1 SU(1,1) matrix::

    S_j = [[conj(D), v], [conj(v), D]]
    D = cos(w*tau) + i*cosh(2*rho)*sin(w*tau),   v = -i*sinh(2*rho)*sin(w*tau)

and the ladder as their ordered product ``S_N ... S_1 = [[p, q], [conj(q),
conj(p)]]``, kept and handed on as the two complex numbers ``(p, q)``:
``|q| = sinh(r)`` holds the squeezing to full precision at any r.  The
reference :func:`su11squeeze.core.compose` builds, one segment at a time, the triple
``alpha = q/conj(p)``, ``beta = conj(p)**-2``, ``gamma = -conj(q)/conj(p)`` that
:func:`su11squeeze.evolution.triple` forms.

Segments at one frequency commute, so ``k`` equal samples in a row are
exactly the one segment ``S(w, k*tau)``.  The fold cuts its input after
each record step and wherever the next sample differs, and folds each
piece as one segment: a square wave costs O(runs + records), not O(N), and
adds one rounding per piece, so the norm defect it reports is the maximum
over pieces.  It finds the pieces one input window of ``BLOCK`` samples at
a time; a ladder with no two equal neighbours, or with every step
recorded, has one piece per segment and is folded straight from its
windows, with the same bits as a fold of segments.

The product is associative, so its prefixes come from a work-efficient
two-level scan over blocks of ``BLOCK`` pieces (:func:`_fold_block`), with
the running product carried from block to block: about two products per
segment, where a Hillis-Steele scan of the whole block takes
``log2(BLOCK)`` (Blelloch, "Prefix sums and their applications", 1990).
No step divides, and ``|p| >= 1``.  A caller may hand the carry in and get
it back, so a ladder folded in parts whose lengths are multiples of
``record_every * BLOCK`` gives the bits of one fold, with memory for one
part's records.  The scan takes its pieces from a builder:
:func:`fold_ladder`'s gives the exact segments, and
:func:`su11squeeze.oracle.heisenberg` hands :func:`_fold` one that gives RK4's.

The RK4 sweep integrates the Schrodinger equation in a truncated number
basis with classical fixed-substep RK4; :func:`fock_bands` holds the basis
matrix elements it shares with :class:`su11squeeze.oracle.TruncatedHamiltonian`
and :func:`su11squeeze.evolution.apply_to_state`.  It is the plain reference
the oracle's tests need, not a fast path: no command runs it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ProfileDomainError

#: Pieces per fold block, and samples per input window.  It sets the fold's
#: scratch, six ``(CHUNK, BLOCK // CHUNK)`` arrays (0.66 MB) allocated once
#: per call and reused by every block.  Blocks run in sequence, each seeded
#: with the running product of the ones before.
BLOCK = 8192

#: Consecutive segments per chunk of the two-level scan: the scan runs down a
#: block's ``CHUNK`` rows with one vectorized product per row.
CHUNK = 16


def active_backend() -> str:
    """Name of the kernel path that runs (numpy is the only one)."""
    return "numpy"


# ---------------------------------------------------------------------------
# ladder fold
# ---------------------------------------------------------------------------

def _mul_into(ap, aq, bp, bq, t, u):
    """``(ap, aq) <- A @ B`` in place, for SU(1,1) matrices given as ``(p, q)``.

    ``B`` may broadcast against ``A``; ``t`` and ``u`` are scratch shaped like ``ap``.
    """
    np.multiply(aq, np.conj(bq), out=t)
    np.multiply(aq, np.conj(bp), out=u)
    np.multiply(ap, bq, out=aq)
    aq += u
    ap *= bp
    ap += t


def _prefix_products(p, q):
    """Inclusive prefix products ``S_i ... S_0``, in place (Hillis-Steele scan; for the chunk totals)."""
    shift = 1
    while shift < p.shape[0]:
        a, b, c, d = p[shift:], q[shift:], p[:-shift], q[:-shift]
        p[shift:], q[shift:] = a * c + b * np.conj(d), a * d + b * np.conj(c)
        shift *= 2


def record_steps(n_steps: int, record_every: int) -> np.ndarray:
    """Step indices emitted by the fold: every multiple of ``record_every``, plus the final step."""
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    steps = np.arange(record_every, n_steps + 1, record_every, dtype=np.int64)
    if steps.size == 0 or steps[-1] != n_steps:
        steps = np.append(steps, np.int64(n_steps))
    return steps


def not_positive(step: int, omega: float) -> ProfileDomainError:
    """The refusal of ladder sample ``step`` (1-based), whose value ``omega`` is not positive."""
    return ProfileDomainError(f"ladder sample omega_{step} = {omega} is not positive",
                              step=step, omega=omega)


def _exact(x, dur, p, f):
    """The exact segments ``S(w, dur)``: ``cos(w dur)`` into ``p.real``, and ``sin(w dur)`` returned."""
    s = np.multiply(x, dur, out=f[0])
    np.cos(s, out=p.real)
    return np.sin(s, out=s)


def _fold_block(w, dur, omega0, scratch, build):
    """Fold one block of at most ``BLOCK`` pieces onto the running product.

    ``w`` holds the pieces' frequencies and ``dur`` their durations, an
    array like ``w`` or one number for all, both read before the scratch
    rows ``t`` and ``u``, where they may live, are written.  The block is
    viewed as ``(CHUNK, m)``, piece ``k`` at ``[k % CHUNK, k // CHUNK]``.
    Piece ``c I - i s M`` (``M`` as in :func:`su11squeeze.oracle.heisenberg`)
    comes from ``build(x, dur, p, f)``, which writes ``c`` into ``p.real`` and
    returns ``s`` from the laid-out ``x``, which it keeps, and ``dur``, with
    ``t`` and ``u`` as four float rows ``f`` of scratch.  The scan runs
    down the rows, one vectorized product over the chunks per row; it scans
    the chunk totals, whose first entry holds the running product; and it
    multiplies each chunk by the product of the chunks before it.  A short
    last chunk is padded with identity pieces, whose defect reads 0.
    Returns the views ``p``, ``q`` and ``defect`` of the prefix products.
    """
    reals, pairs, tot_p, tot_q = scratch
    full, rem = divmod(w.shape[0], CHUNK)
    m = full + (rem > 0)
    # contiguous (CHUNK, m) views: on strided ones numpy ufuncs allocate buffers
    x, y = reals.reshape(2, -1)[:, :CHUNK * m].reshape(2, CHUNK, m)
    p, q, t, u = pairs.reshape(4, -1)[:, :CHUNK * m].reshape(4, CHUNK, m)
    f = [row for z in (t, u) for row in z.reshape(-1).view(np.float64).reshape(2, CHUNK, m)]
    x[:, :full] = w[:full * CHUNK].reshape(full, CHUNK).T
    if rem:  # the tail chunk: any positive frequency here, a piece of no duration below
        x[:rem, full] = w[full * CHUNK:]
        x[rem:, full] = 1.0
        dur = np.broadcast_to(dur, w.shape)
    if np.ndim(dur):
        y[:, :full] = dur[:full * CHUNK].reshape(full, CHUNK).T
        if rem:
            y[:rem, full] = dur[full * CHUNK:]
            y[rem:, full] = 0.0
        dur = y
    s = build(x, dur, p, f)
    x /= omega0  # cosh 2rho and sinh 2rho are (x +- 1/x)/2
    np.divide(1.0, x, out=y)
    np.add(x, y, out=p.imag)
    p.imag *= s
    p.imag *= -0.5
    q.real = 0.0
    np.subtract(x, y, out=q.imag)
    q.imag *= s
    q.imag *= -0.5
    if rem:
        p[rem:, full] = 1.0
        q[rem:, full] = 0.0

    # inclusive products down each chunk, then the chunk totals seeded
    # with the running product, then each chunk times its exclusive prefix
    for i in range(1, CHUNK):
        _mul_into(p[i], q[i], p[i - 1], q[i - 1], t[0], u[0])
    tot_p[1:m + 1], tot_q[1:m + 1] = p[-1], q[-1]
    _prefix_products(tot_p[:m + 1], tot_q[:m + 1])
    _mul_into(p, q, tot_p[:m], tot_q[:m], t, u)
    tot_p[0], tot_q[0] = tot_p[m], tot_q[m]

    np.multiply(p.real, p.real, out=x)
    np.multiply(p.imag, p.imag, out=f[0])
    x += f[0]  # |p|^2
    np.multiply(q.real, q.real, out=y)
    np.multiply(q.imag, q.imag, out=f[0])
    y += f[0]
    y += 1.0
    y -= x
    np.abs(y, out=y)
    y /= x  # the defect
    if rem:
        y[rem:, full] = 0.0
    return p, q, y


def fold_ladder(omega, omega0: float, tau: float, record_every: int = 1, carry=None):
    """Fold a frequency ladder into the SU(1,1) pair ``(p, q)``, recording along the way.

    Each piece of ``k`` equal samples between cuts (see the module
    docstring) is folded as the one segment of duration ``k*tau``.

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
    carry : complex128 array of 2, optional
        The pair ``(p, q)`` of the segments folded before ``omega``; the fold
        starts from it, not from the identity, and overwrites it with the
        running product the block loop carries after the last segment (the
        last record's pair up to rounding, as the two associate differently).

    Returns
    -------
    rec_steps : int64 array
        Segment indices (1-based) of the emitted records.
    p, q : complex128 arrays
        The ladder product ``[[p, q], [conj(q), conj(p)]]`` at each record.
    defect : float64 array
        ``||q|^2 + 1 - |p|^2| / |p|^2 = ||alpha|^2 + |beta| - 1|`` at each record.
    max_defect : float
        Maximum defect seen at the end of *any* piece, recorded or not (a
        nan wins).
    """
    return _fold(omega, omega0, tau, record_every, carry, _exact)


def _fold(omega, omega0, unit, record_every, carry, build):
    """:func:`fold_ladder` with the pieces that ``build`` makes (see :func:`_fold_block`), ``unit`` per sample."""
    omega = np.ascontiguousarray(omega, dtype=np.float64)
    n_seg = omega.shape[0]
    if n_seg == 0:
        raise ValueError("empty frequency ladder")
    if not omega.min() > 0.0:  # a nan fails too
        bad = int(np.flatnonzero(~(omega > 0.0))[0])
        raise not_positive(bad + 1, float(omega[bad]))
    rec = record_steps(n_seg, record_every)
    rec_p = np.empty(rec.shape[0], dtype=np.complex128)
    rec_q = np.empty(rec.shape[0], dtype=np.complex128)
    rec_defect = np.empty(rec.shape[0], dtype=np.float64)
    max_defect, done = 0.0, 0  # done: records filled so far

    # scratch for every block, allocated once: piece k of a block sits at [k % CHUNK, k // CHUNK]
    size = min(n_seg, BLOCK)
    shape = (CHUNK, -(-size // CHUNK))
    scratch = (np.empty((2, *shape)), np.empty((4, *shape), dtype=np.complex128),
               np.empty(shape[1] + 1, dtype=np.complex128), np.empty(shape[1] + 1, dtype=np.complex128))
    scratch[2][0], scratch[3][0] = (1.0 + 0j, 0j) if carry is None else carry
    # the pieces found but not yet folded: frequency, duration, and whether a record ends it;
    # the first two wait in the scratch rows t and u of _fold_block
    wait_w, wait_d = (scratch[1][i].reshape(-1).view(np.float64)[:size] for i in (2, 3))
    wait_rec = np.empty(size, dtype=bool)
    waiting, last = 0, -1  # last: the final segment of the last piece found
    cuts, recs = np.empty((2, size), dtype=bool)

    def fold(w, dur, at):
        """Fold one block of pieces and fill the records that end at its positions ``at``."""
        nonlocal max_defect, done
        p, q, defect = _fold_block(w, dur, omega0, scratch, build)
        max_defect = np.maximum(max_defect, defect.max())  # keeps a nan, unlike max()
        col, row = np.divmod(at, CHUNK)
        filled = slice(done, done + at.shape[0])
        rec_p[filled] = p[row, col]
        rec_q[filled] = q[row, col]
        rec_defect[filled] = defect[row, col]
        done = filled.stop

    # a product or defect beyond double range, or a |p|^2 that rounding took to 0, gives a nan
    # or inf defect, which the caller reports
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, n_seg, BLOCK):  # one input window of BLOCK samples at a time
            stop = min(start + BLOCK, n_seg)
            window = omega[start:stop]
            # cut after sample i of the window where the next sample differs, or a record falls
            cut = cuts[:stop - start]
            ahead = min(stop + 1, n_seg)
            np.not_equal(omega[start:ahead - 1], omega[start + 1:ahead], out=cut[:ahead - 1 - start])
            if stop == n_seg:
                cut[-1] = True
            first = (start // record_every + 1) * record_every - 1 - start
            cut[first::record_every] = True
            if not waiting and last == start - 1 and cut.all():  # one piece per segment
                lo, hi = np.searchsorted(rec, (start + 1, stop + 1))
                fold(window, unit, rec[lo:hi] - (start + 1))
                last = stop - 1
                continue

            marks = recs[:stop - start]  # the records among the cuts
            marks[:] = False
            marks[first::record_every] = True
            marks[-1] |= stop == n_seg
            ends = np.flatnonzero(cut)
            # fold a full block of pieces, and the last ones of the ladder or of a span of
            # record_every * BLOCK samples, so that a span folds alike alone or in a longer call
            span_ends = stop == n_seg or stop // BLOCK % record_every == 0
            taken = 0
            while taken < ends.shape[0]:
                n = min(ends.shape[0] - taken, size - waiting)
                piece_ends, into = ends[taken:taken + n], slice(waiting, waiting + n)
                np.take(window, piece_ends, out=wait_w[into], mode="clip")
                np.take(marks, piece_ends, out=wait_rec[into], mode="clip")
                dur = wait_d[into]  # segments per piece, then times unit
                dur[0] = start + piece_ends[0] - last
                np.subtract(piece_ends[1:], piece_ends[:-1], out=dur[1:])
                dur *= unit
                last = start + int(piece_ends[-1])
                waiting += n
                taken += n
                if waiting == size or (span_ends and taken == ends.shape[0]):
                    fold(wait_w[:waiting], wait_d[:waiting], np.flatnonzero(wait_rec[:waiting]))
                    waiting = 0
    if carry is not None:
        carry[:] = scratch[2][0], scratch[3][0]
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


def rk4_propagate(omega, omega0: float, tau: float, psi0, n_sub: int):
    """Integrate i dpsi/dt = H(t) psi across a piecewise-constant ladder.

    Classical fixed-substep RK4, ``n_sub`` substeps per segment, with H
    applied on the bands of :func:`fock_bands`.  Returns the final
    (unnormalized) vector plus the extreme squared norms seen at segment
    boundaries and the largest occupancy of the top four basis levels (the
    truncation-boundary diagnostic).
    """
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    psi = np.array(psi0, dtype=np.complex128)
    dim = psi.shape[0]
    if dim < 5:
        raise ValueError("state vector too short for a meaningful truncated basis")
    diag, off = fock_bands(dim)
    dt = tau / n_sub
    min_norm2 = max_norm2 = 1.0
    max_edge = 0.0
    for w in np.asarray(omega, dtype=np.float64):
        rho2 = math.log(w / omega0)
        d = (-1j * w * math.cosh(rho2)) * diag
        o = (-1j * w * math.sinh(rho2)) * off

        def f(x):  # -i H x
            k = d * x
            k[:-2] += o * x[2:]
            k[2:] += o * x[:-2]
            return k

        for _ in range(n_sub):
            k1 = f(psi)
            k2 = f(psi + (0.5 * dt) * k1)
            k3 = f(psi + (0.5 * dt) * k2)
            k4 = f(psi + dt * k3)
            psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm2 = np.vdot(psi, psi).real
        min_norm2 = min(min_norm2, norm2)
        max_norm2 = max(max_norm2, norm2)
        max_edge = max(max_edge, np.vdot(psi[-4:], psi[-4:]).real)
    return psi, float(min_norm2), float(max_norm2), float(max_edge)
