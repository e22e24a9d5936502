"""Trajectory driver and observable extraction.

``RecordStream`` folds a discretized profile through the hot kernel, one
block of records per call, and reads the closed-form squeezing observables
off the recorded columns of the fold's SU(1,1) pair ``(p, q)``, as
``observables`` does, into record arrays (a column per observable, a row
per record), handing each block on as soon as it is filled.  ``evolve``
collects the blocks in one record array, filled in place; the command line
writes each block out instead.  ``auto_converge`` wraps ``evolve`` in a
step-doubling loop.  A run ends on the last step's pair ``(p, q)``, which
``apply_to_state`` expands in the number basis through its :func:`triple`.

The fold folds each run of equal samples between records as one segment,
so a run's ``max_norm_defect`` and its ``norm_defect`` column are defects of
those pieces: the maximum over pieces, not over segments.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .errors import InvalidAccumulatorError, LeakageError, ProfileDomainError
from .profiles import DiscretizedProfile, Profile, discretize

SCALINGS = {"half": 0.5, "quarter": 0.25}

#: Truncation-loss threshold for apply_to_state / the oracle.
LEAKAGE_TOL = 1e-6

#: Smallest starting N of the step-doubling loop, and the instants it records.
N_START_MIN = 100
CONVERGE_RECORDS = 500

#: Largest ``max_norm_defect`` a run may end on: the command line's gate, and where doubling stops.
NORM_DEFECT_MAX = 1e-10


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered squeezing records plus the final composed propagator.

    ``records`` is the record array of :func:`observables`: ``records.r`` is
    the column of squeezing parameters, ``records[-1].r`` the final one.
    ``final`` is the last step's pair ``(p, q)``, two Python complex numbers.
    ``max_norm_defect`` is the largest defect at the end of any piece the
    fold folded as one segment (see :func:`kernels.fold_ladder`), recorded
    or not.  A doubling that stopped before its tolerance (``converged`` is
    False) names its cause in ``stop_reason``.
    """

    records: np.recarray
    n_steps_used: int
    converged: bool | None
    final: tuple[complex, complex]
    max_norm_defect: float
    convergence_history: tuple = field(default=())
    stop_reason: str = ""


@dataclass(frozen=True, eq=False)
class FockState:
    """Number-basis amplitudes c_0 ... c_{n_max}."""

    amplitudes: np.ndarray

    @property
    def n_max(self) -> int:
        return int(self.amplitudes.shape[0] - 1)

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def normalized(self) -> "FockState":
        return FockState(self.amplitudes / math.sqrt(self.norm2()))

    @staticmethod
    def basis_state(n: int, n_max: int | None = None) -> "FockState":
        n_max = n if n_max is None else n_max
        amp = np.zeros(n_max + 1, dtype=np.complex128)
        amp[n] = 1.0
        return FockState(amp)

    @staticmethod
    def vacuum(n_max: int = 0) -> "FockState":
        return FockState.basis_state(0, n_max)


#: One record: the carried columns ``t``, ``omega`` and ``norm_defect`` and
#: the observables of :func:`observables`, 88 bytes in all.
_RECORD = np.dtype((np.record, [
    ("t", np.float64), ("omega", np.float64), ("alpha", np.complex128), ("r", np.float64),
    ("vartheta", np.float64), ("phi", np.float64), ("chi", np.float64),
    ("variance", np.float64), ("mean_n", np.float64), ("norm_defect", np.float64),
]))


def _scale(scaling: str) -> float:
    """The variance prefactor ``s`` of a scaling name."""
    try:
        return SCALINGS[scaling]
    except KeyError:
        raise ValueError(f"scaling must be one of {sorted(SCALINGS)}, got {scaling!r}") from None


def _fill(block, p, q, lam, s):
    """Write the observables of the pair ``(p, q)`` into ``block``, rows of a record array.

    ``block`` holds at most ``kernels.BLOCK`` rows, so no temporary outlives a block.
    """
    mod_q = np.abs(q)
    r = np.arcsinh(mod_q)
    vartheta = np.angle(q * p)
    phi = np.where(vartheta <= 0.0, vartheta + np.pi, vartheta - np.pi)
    angle = lam - 0.5 * phi
    block.variance = s * (np.exp(2.0 * r) * np.sin(angle) ** 2
                          + np.exp(-2.0 * r) * np.cos(angle) ** 2)
    block.alpha = q / np.conj(p)
    block.r, block.vartheta, block.phi = r, vartheta, phi
    block.chi = np.angle(p * p)
    block.mean_n = mod_q ** 2


def _lost_pair(step: int, p: complex) -> InvalidAccumulatorError:
    """The error of a record whose defect is not finite, which names its cause.

    ``|p|^2 = cosh(r)^2`` overflows beyond r ~ 355.  Where it reads 0 the
    pair lost every digit to cancellation: ``|p| >= 1`` holds exactly.
    """
    if p.real * p.real + p.imag * p.imag == 0.0:  # |p|^2 as the fold forms it; a float overflows silently
        return InvalidAccumulatorError(f"the ladder fold lost every digit of the pair: |p|^2 rounded to 0 "
                                       f"at step {step}")
    return InvalidAccumulatorError("the ladder fold overflowed double precision")


def observables(p, q, t, omega, norm_defect, lam: float = 0.0,
                scaling: str = "quarter") -> np.recarray:
    """Squeezing observables of the vacuum-evolved state, one record per input.

    ``p`` and ``q`` are the fold's pair (see :func:`kernels.fold_ladder`), with
    ``|p| = cosh(r)`` and ``|q| = sinh(r)``; ``t``, ``omega`` and
    ``norm_defect`` are carried into the records unchanged.  ``r =
    asinh|q|`` and ``mean_n = |q|^2`` keep full precision at any r.  The
    ``alpha`` column is the composed coefficient ``q/conj(p)``, whose modulus
    ``tanh(r)`` rounds to 1 beyond r ~ 19.  ``vartheta = arg(alpha) =
    arg(q p)`` (principal value); the squeezing phase is ``phi = vartheta +
    pi`` wrapped to (-pi, pi], the branch that makes the two number-basis
    expansions of the state agree term by term; ``chi = arg(beta) =
    arg(p p)``.  The quadrature variance at angle ``lam`` is::

        s * (exp(2r)*sin^2(lam - phi/2) + exp(-2r)*cos^2(lam - phi/2))

    with ``s = 1/2`` (``scaling="half"``) or the rescaled-quadrature
    convention ``s = 1/4`` (``"quarter"``, the default used by all shipped
    presets).  Returns a record array with the fields ``t, omega, alpha, r,
    vartheta, phi, chi, variance, mean_n, norm_defect``.  The array is
    allocated once and filled in place, one block of ``kernels.BLOCK``
    records at a time, so its only other memory is O(BLOCK) scratch.
    """
    p, q = np.asarray(p, dtype=np.complex128), np.asarray(q, dtype=np.complex128)
    t, omega, norm_defect = (np.asarray(c, dtype=np.float64) for c in (t, omega, norm_defect))
    if p.ndim != 1 or any(c.shape != p.shape for c in (q, t, omega, norm_defect)):
        raise ValueError("observables takes five 1-D columns of one length")
    s = _scale(scaling)
    records = np.recarray(p.shape[0], dtype=_RECORD)
    for start in range(0, p.shape[0], kernels.BLOCK):
        rows = slice(start, start + kernels.BLOCK)
        block = records[rows]
        block.t, block.omega, block.norm_defect = t[rows], omega[rows], norm_defect[rows]
        _fill(block, p[rows], q[rows], lam, s)
    return records


class RecordStream:
    """The records of a discretized profile, produced one fold call at a time.

    :meth:`blocks` folds the ladder ``record_every * kernels.BLOCK`` segments
    per :func:`kernels.fold_ladder` call, each seeded with the carry of the
    one before.  So each call ends on a record step and returns at most one
    block of records, which is filled in place and yielded at once, and the
    records hold the bits of one call over the whole ladder.
    ``record_every`` defaults to ``max(1, N // 5000)`` so that outputs stay
    plottable regardless of N; the final segment is always recorded.  Once
    the blocks are exhausted, ``final`` holds the pair ``(p, q)`` of the
    last step and ``max_norm_defect`` the largest defect of any piece the
    fold folded as one segment, recorded or not (a nan wins).  A stream
    runs once.
    """

    def __init__(self, dprofile: DiscretizedProfile, record_every: int | None = None,
                 lam: float = 0.0, scaling: str = "quarter"):
        n = dprofile.n_steps
        if record_every is None:
            record_every = max(1, n // 5000)
        if record_every < 1:
            raise ValueError("record_every must be >= 1")
        self._scale = _scale(scaling)
        self._dprofile = dprofile
        self.lam = lam
        self.record_every = record_every
        self.n_steps_used = n
        self.n_records = -(-n // record_every)
        self.records = None
        self.converged = None  # as a Trajectory of a fixed N: no doubling ran
        self.final = None
        self.max_norm_defect = 0.0

    def blocks(self, keep: bool = False):
        """Yield each fold call's block of records once its observables are filled.

        With ``keep``, the blocks are the rows of one record array of
        ``n_records`` rows, left in ``records``: 88 bytes per record.
        Otherwise each block overwrites one buffer of at most
        ``kernels.BLOCK`` rows, so a block holds until the next is asked for.
        Either is allocated once the first call has returned: one call holds
        no more.  The stream lets go of the ladder's samples right after the
        last call, before that call's block is filled.
        """
        dprof, self._dprofile = self._dprofile, None
        n, every, tau = self.n_steps_used, self.record_every, dprof.tau
        span = every * kernels.BLOCK
        carry = np.array([1.0, 0.0], dtype=np.complex128)
        out, row, max_defect = None, 0, 0.0
        for start in range(0, max(n, 1), span):  # an empty ladder still reaches the fold's refusal
            try:
                rec, p, q, defect, worst = kernels.fold_ladder(
                    dprof.samples[start:start + span], dprof.omega0, tau, every, carry)
            except ProfileDomainError as exc:  # name the step of the whole ladder
                raise kernels.not_positive(exc.step + start, exc.omega) from None
            lost = np.flatnonzero(~np.isfinite(defect))
            if lost.size:
                raise _lost_pair(int(rec[lost[0]]) + start, complex(p[lost[0]]))
            max_defect = np.maximum(max_defect, worst)  # keeps a nan, unlike max()
            rec += start
            omega = dprof.samples[rec - 1]
            if start + span >= n:  # the last call: free the samples before the block is filled
                del dprof
            if out is None:
                out = np.recarray(self.n_records if keep else rec.shape[0], dtype=_RECORD)
            block = out[row:row + rec.shape[0]] if keep else out[:rec.shape[0]]
            row += rec.shape[0]
            np.multiply(rec, tau, out=block.t)
            block.omega = omega
            block.norm_defect = defect
            _fill(block, p, q, self.lam, self._scale)
            final = complex(p[-1]), complex(q[-1])
            del rec, p, q, defect, omega  # while the caller writes the block, only it is held
            yield block

        self.final = final
        self.max_norm_defect = float(max_defect)
        if keep:
            self.records = out


def evolve(dprofile: DiscretizedProfile, record_every: int | None = None,
           lam: float = 0.0, scaling: str = "quarter") -> Trajectory:
    """Fold all segments of a discretized profile into one record array.

    Runs a :class:`RecordStream` with ``keep``: its blocks are the rows of
    the returned record array, filled in place, with ``t`` and ``omega``
    written straight into it.  So the peak memory is the record array (88
    bytes per record) plus O(BLOCK) scratch.
    """
    stream = RecordStream(dprofile, record_every, lam, scaling)
    for _ in stream.blocks(keep=True):
        pass
    return Trajectory(
        records=stream.records,
        n_steps_used=stream.n_steps_used,
        converged=None,
        final=stream.final,
        max_norm_defect=stream.max_norm_defect,
    )


def _exp_shift(coeff: complex, amp: np.ndarray, shift: int, n_max: int) -> np.ndarray:
    """exp(coeff K) amp as its power series, with K = K_- (shift -2) or K_+ (shift +2).

    K_- |n+2> = 0.5*sqrt((n+1)(n+2)) |n> and K_+ |n> = 0.5*sqrt((n+1)(n+2)) |n+2>;
    amplitudes that K_+ pushes past the end are dropped.  The series stops
    at the first zero term.
    """
    band = kernels.fock_bands(amp.shape[0])[1]
    dst, src = (slice(None, -2), slice(2, None)) if shift < 0 else (slice(2, None), slice(None, -2))
    total = amp.copy()
    term = amp
    for k in range(1, n_max // 2 + 2):
        shifted = np.zeros_like(term)
        shifted[dst] = band * term[src]
        term = (coeff / k) * shifted
        if not term.any():
            break
        total += term
    return total


def triple(p: complex, q: complex) -> tuple[complex, complex, complex]:
    """``(alpha, beta, gamma) = (q/conj(p), conj(p)**-2, -conj(q)/conj(p))``; alpha is the record's bits."""
    pc = complex(p).conjugate()
    return complex(np.divide(q, pc)), 1.0 / (pc * pc), -complex(q).conjugate() / pc


def apply_to_state(final: tuple[complex, complex], initial: FockState, n_max: int | None = None) -> FockState:
    """Apply the composed propagator, the pair ``final = (p, q)``, to an arbitrary initial Fock state.

    Applies ``exp(gamma K_-)`` (finite lowering series), the diagonal
    ``beta^(n/2 + 1/4)`` (principal-branch logarithm), then ``exp(alpha K_+)``
    truncated at ``n_max``.  The returned state is *not* renormalized: its
    norm deficit equals the truncation leakage.

    The principal branch fixes the phase within each parity sector; a
    superposition of even and odd levels therefore carries a
    branch-dependent relative phase between the sectors.  Parity-pure
    inputs (any preset workflow starting from a number state) are exact up
    to a global phase.

    Raises
    ------
    LeakageError
        If the truncation leakage exceeds ``LEAKAGE_TOL``.
    """
    if n_max is None:
        n_max = max(2 * initial.n_max, initial.n_max + 64)
    if n_max < initial.n_max:
        raise ValueError(f"n_max={n_max} smaller than the initial state ({initial.n_max})")
    if abs(initial.norm2() - 1.0) > 1e-9:
        raise ValueError(f"initial state norm^2 = {initial.norm2()} is not 1 within 1e-9")

    amp = np.zeros(n_max + 1, dtype=np.complex128)
    amp[: initial.n_max + 1] = initial.amplitudes

    alpha, beta, gamma = triple(*final)
    # exp(gamma K_-): nilpotent on any finite state, the series terminates (at once for gamma = 0)
    amp = _exp_shift(gamma, amp, -2, n_max)

    logb = cmath.log(beta)
    levels = np.arange(n_max + 1, dtype=np.float64)
    amp = amp * np.exp(logb * (0.5 * levels + 0.25))

    # exp(alpha K_+): truncated at n_max, terms decay like |alpha|^k for |alpha| < 1
    amp = _exp_shift(alpha, amp, 2, n_max)

    out = FockState(amp)
    leakage = max(0.0, 1.0 - out.norm2())
    if leakage > LEAKAGE_TOL:
        raise LeakageError(
            f"truncation leakage {leakage:.3e} exceeds {LEAKAGE_TOL:g}; increase n_max",
            leakage=leakage,
        )
    return out


def auto_converge(profile: Profile, t_final: float, tol: float,
                  n_start: int = 10000, cap: int = 2 ** 24,
                  n_records: int = CONVERGE_RECORDS, rule: str = "right",
                  lam: float = 0.0, scaling: str = "quarter") -> Trajectory:
    """Double the step count until the squeezing curve stops moving.

    Runs ``evolve`` at N, 2N, 4N, ... and compares r(t) on a common grid of
    ``n_records`` instants; stops when ``max_t |r_(2N) - r_N| < tol``.  The
    returned trajectory carries ``converged`` plus the (N, max diff) history.
    Hitting ``cap``, or a level whose norm defect exceeds ``NORM_DEFECT_MAX``
    (a nan does too) after one within it, is a soft failure: the last level
    before it is returned with ``converged=False``, its history ending
    there and the cause in ``stop_reason``, and a warning.  A start past
    the gate doubles on as usual, and the caller's gate sees its defect.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    if n_start < N_START_MIN:
        raise ValueError(f"n_start must be >= {N_START_MIN}, got {n_start}")
    # round up so every doubling shares the same record instants
    n = ((n_start + n_records - 1) // n_records) * n_records

    def run(n_steps):
        dprof = discretize(profile, t_final, n_steps, rule=rule)
        return evolve(dprof, record_every=n_steps // n_records, lam=lam, scaling=scaling)

    history = []
    prev = run(n)
    why = f"hit the cap ({cap})"
    while 2 * n <= cap:
        cur = run(2 * n)
        if prev.max_norm_defect <= NORM_DEFECT_MAX and not cur.max_norm_defect <= NORM_DEFECT_MAX:
            why = f"n_steps={2 * n} has norm defect {cur.max_norm_defect:.3e} > {NORM_DEFECT_MAX:g}"
            break
        diff = float(np.max(np.abs(cur.records.r - prev.records.r)))
        history.append((2 * n, diff))
        if diff < tol:
            return replace(cur, converged=True, convergence_history=tuple(history))
        prev = cur
        n *= 2
    warnings.warn(
        f"step-doubling stopped at n_steps={n} before reaching tol={tol:g}: {why}; "
        f"last max |dr| = {history[-1][1] if history else math.nan:.3e}",
        RuntimeWarning,
        stacklevel=2,
    )
    return replace(prev, converged=False, convergence_history=tuple(history), stop_reason=why)
