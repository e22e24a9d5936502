"""Acceptance gate: every criterion at its stated tolerance.

Each check prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to
watch them live).  Heavy trajectories are shared through module-scoped
fixtures; the 150k-step pulse runs of c05 and c10 dominate the runtime.

Pulse settling window: the settling gate reads the last 10% of a run that
lasts ``max(150, 20*B/omega0)``, so the window opens only once the pulse has
relaxed (18 decay times ``B/omega0`` or more).  r is defined against the
omega0 basis, so while omega(t) still differs from omega0 r oscillates, and
that oscillation is physics, not discretization error.  With a fixed
t = 150 the B = 5*pi pulse is still 1.25% -> 0.53% above omega0 over
t in [135, 150], and the tail std is 3.068e-3 at N = 150k, 300k and 600k
alike; it falls with the drive offset, to 8.5e-7 by t = 300.  The gate
first asserts that the drive offset over the window is <= 1e-4, so a run
that ends mid-pulse fails on that precondition, not on the std.
"""

import math

import numpy as np
import pytest

from su11squeeze import (
    FockState,
    alpha_via_gcf,
    apply_to_state,
    auto_converge,
    discretize,
    eval_profile,
    evolve,
    evolve_number_state,
    fidelity,
    janszky_adam,
    parametric_resonance,
    relaxing_pulse,
    step_coeffs,
    sudden_jump,
)
from su11squeeze import kernels
from su11squeeze.analysis import trailing_mean

B_VALUES = {"0.5pi": 0.5 * math.pi, "3pi": 3.0 * math.pi, "5pi": 5.0 * math.pi}
FIG_DENSITY = 1250  # steps per unit time used by the fig2 presets (150000 over t=120)
PULSE_DENSITY = 1000  # steps per unit time used by the fig1 preset (150000 over t=150)


def linear_fit(x, y):
    """Least-squares line through (x, y); returns (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    design = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = y - design @ coef
    ss_res = float(np.sum(residual**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - (ss_res / ss_tot if ss_tot > 0 else 0.0)
    return float(coef[1]), float(coef[0]), r2


def first_local_max(values, floor: float = 0.0):
    """Index of the first interior local maximum above ``floor``, or None."""
    v = np.asarray(values, dtype=np.float64)
    for i in range(1, v.shape[0] - 1):
        if v[i] > floor and v[i] > v[i - 1] and v[i] >= v[i + 1]:
            return i
    return None


def gate(criterion, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared trajectories
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig1_runs():
    # run each pulse for at least 20 decay times B/omega0 (omega0 = 1), so
    # the last 10% of the run starts after the pulse has relaxed
    out = {}
    for label, B in B_VALUES.items():
        t_final = max(150.0, 20.0 * B)
        dprof = discretize(relaxing_pulse(B=B), t_final, round(t_final * PULSE_DENSITY))
        out[label] = evolve(dprof, record_every=30)
    return out


@pytest.fixture(scope="module")
def resonant_run():
    dprof = discretize(parametric_resonance(2.04, 1.04), 120.0, 150_000)
    return evolve(dprof, record_every=30)


@pytest.fixture(scope="module")
def detuned_runs():
    # long enough windows that a full beat (rise and return) fits:
    # the first trough sits near t=80 for eps=1.96 and t=175 for eps=2.0
    out = {}
    for eps in (1.96, 2.0):
        dprof = discretize(parametric_resonance(eps, 1.04), 200.0, 200 * FIG_DENSITY)
        out[eps] = evolve(dprof, record_every=50)
    return out


@pytest.fixture(scope="module")
def square_wave_run():
    dprof = discretize(janszky_adam(omega1=1.5), 30.0, 60_000)
    return evolve(dprof, record_every=1), dprof


@pytest.fixture(scope="module")
def narrow_band_pair():
    # both modulations confined to [1.00, 1.04]
    t_final, n = 120.0, 150_000
    ja = evolve(discretize(janszky_adam(omega1=1.04), t_final, n), record_every=30)
    pr = evolve(discretize(parametric_resonance(2.04, 1.04), t_final, n), record_every=30)
    return ja, pr


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_normalization_on_random_ladders():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 10_001))
        omega = rng.uniform(0.5, 2.0, n)
        tau = float(rng.uniform(1e-4, 1e-2))
        *_, max_defect = kernels.fold_ladder(omega, 1.0, tau, record_every=n)
        worst = max(worst, max_defect)
    gate(1, "norm defect <= 1e-10 over 100 random ladders", worst <= 1e-10,
         f"max defect {worst:.3e}")


def test_c02_group_self_consistency():
    n, omega1, tau = 1000, 1.5, 1e-3
    _, p, q, _, _ = kernels.fold_ladder(np.full(n, omega1), 1.0, tau, record_every=n)
    pc = np.conj(p)
    alpha, beta, gamma = q / pc, 1.0 / (pc * pc), -np.conj(q) / pc
    whole = step_coeffs(omega1, 1.0, n * tau)
    err = max(abs(alpha[-1] - whole.lam_plus), abs(beta[-1] - whole.lam_c),
              abs(gamma[-1] - whole.lam_minus))
    gate(2, "1000 equal steps reproduce the single-step closed form", err <= 1e-12,
         f"max coefficient error {err:.3e}")


def test_c03_sudden_jump_analytic_peak():
    dprof = discretize(sudden_jump(1.5), 5.0, 100_000)
    _, _, q, *_ = kernels.fold_ladder(dprof.samples, 1.0, dprof.tau, record_every=1)
    r_max = math.asinh(float(np.max(np.abs(q))))
    err = abs(r_max - math.log(1.5))
    gate(3, "max_t r(t) = ln(1.5) for the 1 -> 1.5 jump", err <= 1e-6,
         f"r_max {r_max:.9f}, error {err:.3e}")


def test_c04_gcf_agrees_with_recurrence_on_presets():
    presets = {
        "fig1": discretize(relaxing_pulse(B=3 * math.pi), 150.0, 150_000),
        "fig2": discretize(parametric_resonance(2.04, 1.04), 120.0, 150_000),
        "fig4": discretize(janszky_adam(omega1=1.5), 30.0, 60_000),
        "fig5": discretize(janszky_adam(omega1=1.04), 120.0, 150_000),
    }
    worst = 0.0
    for name, dprof in presets.items():
        steps = [step_coeffs(float(w), dprof.omega0, dprof.tau) for w in dprof.samples]
        via_gcf = alpha_via_gcf(steps)
        _, p, q, *_ = kernels.fold_ladder(dprof.samples, dprof.omega0, dprof.tau,
                                          record_every=dprof.n_steps)
        alpha = q[-1] / np.conj(p[-1])
        rel = abs(via_gcf - alpha) / abs(alpha)
        worst = max(worst, rel)
    gate(4, "nested-fraction alpha matches the recurrence on all presets", worst <= 1e-10,
         f"worst relative difference {worst:.3e}")


def _tail_mask(traj, fraction=0.1):
    t = traj.records.t
    return t >= (1.0 - fraction) * t[-1]


def _tail(traj, fraction=0.1):
    mask = _tail_mask(traj, fraction)
    return traj.records.r[mask], traj.records.variance[mask]


@pytest.mark.parametrize("label", list(B_VALUES), ids=lambda s: f"B={s}")
def test_c05_pulse_settling(fig1_runs, label):
    traj = fig1_runs[label]
    profile = relaxing_pulse(B=B_VALUES[label])
    t_tail = traj.records.t[_tail_mask(traj)]
    offset = float(np.max(np.abs(eval_profile(profile, t_tail) / profile.omega0 - 1.0)))
    gate(5, f"pulse B={label} has relaxed before the last 10%", offset <= 1e-4,
         f"max |omega/omega0 - 1| {offset:.3e}")
    r_tail, _ = _tail(traj)
    std = float(r_tail.std())
    gate(5, f"r settles over the last 10% for B={label}", std <= 1e-3,
         f"std {std:.3e}, max |omega/omega0 - 1| {offset:.3e}")


def test_c05_pulse_asymptotes_distinct_and_ordered(fig1_runs):
    finals = [float(_tail(fig1_runs[label])[0].mean()) for label in B_VALUES]
    gaps = [b - a for a, b in zip(finals, finals[1:])]
    ok = all(g > 1e-4 for g in gaps)
    gate(5, "asymptotic r values distinct and increasing with B", ok,
         "finals " + ", ".join(f"{v:.6f}" for v in finals))


@pytest.mark.parametrize("label", list(B_VALUES), ids=lambda s: f"B={s}")
def test_c05_variance_keeps_oscillating(fig1_runs, label):
    r_tail, var_tail = _tail(fig1_runs[label])
    var_ptp = float(var_tail.max() - var_tail.min())
    drift = float(r_tail.std())
    gate(5, f"variance oscillation dwarfs r's residual drift for B={label}",
         var_ptp >= 10.0 * drift, f"var ptp {var_ptp:.3e} vs 10*drift {10 * drift:.3e}")


def test_c06_resonant_linear_growth(resonant_run):
    t = resonant_run.records.t
    r = resonant_run.records.r
    period = 2.0 * math.pi / 2.04
    r_bar = trailing_mean(t, r, period)
    mask = (t >= 20.0) & (t <= 120.0)
    slope, _, r2 = linear_fit(t[mask], r_bar[mask])
    gate(6, "period-averaged r grows linearly at resonance (eps=2.04)",
         r2 >= 0.99 and slope > 0.0, f"slope {slope:.5f}, R^2 {r2:.5f}")


def test_c06_detuned_beats(detuned_runs):
    trough_times = {}
    for eps, traj in detuned_runs.items():
        t = traj.records.t
        r = traj.records.r
        period = 2.0 * math.pi / eps
        r_bar = trailing_mean(t, r, period)
        crest = first_local_max(r_bar, floor=0.1)
        assert crest is not None, f"no crest found for eps={eps}"
        after = np.flatnonzero((t > t[crest]) & (r < 0.05))
        ok = after.size > 0
        trough_times[eps] = t[after[0]] if ok else math.inf
        gate(6, f"r returns below 0.05 after its first maximum (eps={eps})", ok,
             f"crest t={t[crest]:.1f}, r_max {r.max():.3f}, trough t={trough_times[eps]:.1f}")
    gate(6, "beat period grows as the drive approaches resonance",
         trough_times[2.0] > trough_times[1.96],
         f"trough(2.0)={trough_times[2.0]:.1f} > trough(1.96)={trough_times[1.96]:.1f}")


def test_c07_fingerprint_shapes(detuned_runs, resonant_run):
    # |z| = r, so disc radii and spiral growth are read off the r records
    window = 120.0
    radii = {}
    for eps, traj in detuned_runs.items():
        t = traj.records.t
        radii[eps] = float(traj.records.r[t <= window].max())
    gate(7, "detuned fingerprints stay in finite discs, larger closer to resonance",
         radii[2.0] > radii[1.96],
         f"disc radii: eps=1.96 -> {radii[1.96]:.3f}, eps=2.0 -> {radii[2.0]:.3f}")

    t = resonant_run.records.t
    r = resonant_run.records.r
    edges = np.linspace(0.0, window, 5)
    window_maxima = [float(r[(t > lo) & (t <= hi)].max()) for lo, hi in zip(edges[:-1], edges[1:])]
    growing = all(b > a for a, b in zip(window_maxima, window_maxima[1:]))
    gate(7, "resonant fingerprint spirals outward (windowed max |z| increasing)",
         growing, "window maxima " + ", ".join(f"{v:.3f}" for v in window_maxima))


def test_c08_square_wave_plateaus(square_wave_run):
    traj, dprof = square_wave_run
    r = traj.records.r
    samples = dprof.samples
    edges = np.flatnonzero(np.diff(samples)) + 1
    bounds = np.concatenate([[0], edges, [samples.shape[0]]])

    plateau_flat = 0.0
    plateau_levels = []
    rises_ok = True
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < 10:
            continue
        run = r[lo:hi]
        if samples[lo] == dprof.omega0:
            plateau_flat = max(plateau_flat, float(run.max() - run.min()))
            plateau_levels.append(float(run.mean()))
        else:
            rises_ok = rises_ok and (run[-1] > run[0])
    increasing = all(b > a for a, b in zip(plateau_levels, plateau_levels[1:]))
    gate(8, "r constant to 1e-9 on every reference hold", plateau_flat <= 1e-9,
         f"{len(plateau_levels)} plateaus, worst flatness {plateau_flat:.2e}")
    gate(8, "r strictly increases across every high-frequency hold",
         rises_ok and increasing,
         "plateau levels " + ", ".join(f"{v:.3f}" for v in plateau_levels[:5]) + ", ...")


def test_c09_square_wave_dominates_resonance_in_band(narrow_band_pair):
    ja, pr = narrow_band_pair
    t = ja.records.t
    assert np.array_equal(t, pr.records.t)
    period_ja = math.pi / (2 * 1.04) + math.pi / 2.0
    period_pr = 2.0 * math.pi / 2.04
    bar_ja = trailing_mean(t, ja.records.r, period_ja)
    bar_pr = trailing_mean(t, pr.records.r, period_pr)
    mask = t > max(period_ja, period_pr)
    margin = float(np.min(bar_ja[mask] - bar_pr[mask]))
    gate(9, "period-averaged r: square wave >= resonance at every t past one period",
         margin >= 0.0, f"min margin {margin:.4f}, final r: {ja.records.r[-1]:.3f} vs {pr.records.r[-1]:.3f}")


#: Number states whose images gate c10, and the largest phase-aligned amplitude
#: distance between the two routes' images (measured: at most 1.6e-11, the
#: square wave at n = 5; 3.7e-13 on the pulses, 1.8e-15 at eps = 2.0).
NUMBER_STATES = (0, 1, 2, 5)
C10_DISTANCE_MAX = 1e-10


def _cross_check(dprof):
    """Worst figures over ``U|n>``, n in NUMBER_STATES: the method's image against the oracle's Bogoliubov image.

    Returns the lowest fidelity, the largest phase-aligned amplitude
    distance, the largest amplitude either image puts in the parity sector
    that ``|n>`` does not occupy, the oracle's norm drift, and the final r.
    """
    traj = evolve(dprof)
    fid, distance, parity = 1.0, 0.0, 0.0
    for n in NUMBER_STATES:
        oracle_state, diag, _ = evolve_number_state(dprof, n, n_sub=4)
        method_state = apply_to_state(traj.final, FockState.basis_state(n), n_max=diag.dim - 1).normalized()
        fid = min(fid, fidelity(method_state, oracle_state))
        overlap = np.vdot(method_state.amplitudes, oracle_state.amplitudes)
        aligned = method_state.amplitudes * (overlap / abs(overlap))
        distance = max(distance, float(np.max(np.abs(oracle_state.amplitudes - aligned))))
        other = slice(1 - n % 2, None, 2)
        parity = max(parity, float(np.max(np.abs(oracle_state.amplitudes[other]))),
                     float(np.max(np.abs(method_state.amplitudes[other]))))
    return fid, distance, parity, diag.norm_drift, traj.records[-1].r


def _c10_ok(fid, distance, parity, drift):
    return fid >= 0.999 and distance <= C10_DISTANCE_MAX and parity <= 1e-12 and drift <= 1e-8


def _c10_detail(fid, distance, parity, drift):
    return f"fidelity {fid:.6f}, distance {distance:.1e}, parity {parity:.1e}, norm drift {drift:.1e}"


def test_c10_oracle_equivalence_pulses():
    for label, B in B_VALUES.items():
        dprof = discretize(relaxing_pulse(B=B), 150.0, 150_000)
        figures = _cross_check(dprof)[:4]
        gate(10, f"pulse B={label}: algebraic U|n> matches the Bogoliubov image, n = {NUMBER_STATES}",
             _c10_ok(*figures), _c10_detail(*figures))


def test_c10_oracle_equivalence_detuned_resonance():
    t_final = 30.0
    dprof = discretize(parametric_resonance(2.0, 1.04), t_final, int(t_final * FIG_DENSITY))
    figures = _cross_check(dprof)[:4]
    gate(10, f"eps=2.0 (t <= 30): algebraic U|n> matches the Bogoliubov image, n = {NUMBER_STATES}",
         _c10_ok(*figures), _c10_detail(*figures))


def test_c10_oracle_equivalence_square_wave():
    profile = janszky_adam(omega1=1.5)
    cycles = 4  # r grows by ln(1.5) per cycle; four keeps it below 2
    t_final = cycles * profile.period
    dprof = discretize(profile, t_final, int(t_final * 2000))
    *figures, r_final = _cross_check(dprof)
    gate(10, f"square wave at r <= 2: algebraic U|n> matches the Bogoliubov image, n = {NUMBER_STATES}",
         r_final <= 2.0 and _c10_ok(*figures), f"r_final {r_final:.3f}, " + _c10_detail(*figures))


def test_c11_convergence_behavior():
    traj = auto_converge(relaxing_pulse(B=3 * math.pi), 150.0, tol=1e-5,
                         n_start=2500, rule="midpoint")
    diffs = [diff for _, diff in traj.convergence_history]
    cauchy = len(diffs) >= 2 and all(b < a for a, b in zip(diffs, diffs[1:]))
    ok = traj.converged is True and traj.n_steps_used <= 2**20 and cauchy
    history = ", ".join(f"N={n}: {d:.2e}" for n, d in traj.convergence_history)
    gate(11, "step doubling converges at finite N <= 2^20 with shrinking differences",
         ok, history)
