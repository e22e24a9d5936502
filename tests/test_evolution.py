import cmath
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from su11squeeze import (
    FockState,
    apply_to_state,
    auto_converge,
    constant,
    discretize,
    evolve,
    janszky_adam,
    observables,
    parametric_resonance,
    relaxing_pulse,
    sudden_jump,
)
from su11squeeze import kernels
from su11squeeze.config import build_config, config_layers
from su11squeeze.errors import InvalidAccumulatorError, LeakageError, ProfileDomainError
from su11squeeze.evolution import RecordStream, triple
from su11squeeze.profiles import DiscretizedProfile


#: The pair (p, q) of no evolution at all.
IDENTITY = (1.0 + 0j, 0j)


def squeezed_pair(r, vartheta):
    """The pair with ``|q| = sinh(r)`` and ``arg(alpha) = arg(q p) = vartheta``, ``p`` real."""
    return complex(math.cosh(r)), math.sinh(r) * cmath.exp(1j * vartheta)


def reference_squeezed_amplitudes(r, phi, n_max):
    """Number-basis expansion of a squeezed vacuum written the other way
    around: sqrt(sech r) prefactor and (-e^{i phi} tanh(r) / 2)^n weights."""
    amp = np.zeros(n_max + 1, dtype=np.complex128)
    amp[0] = math.sqrt(1.0 / math.cosh(r))
    factor = -0.5 * cmath.exp(1j * phi) * math.tanh(r)
    for n in range(1, n_max // 2 + 1):
        amp[2 * n] = amp[2 * n - 2] * (math.sqrt((2.0 * n) * (2.0 * n - 1.0)) / n) * factor
    return amp


def record_of(pair, t, lam=0.0, scaling="quarter"):
    """The record of one pair ``(p, q)``, through the array-valued formula."""
    p, q = pair
    return observables([p], [q], [t], [math.nan], [0.0], lam=lam, scaling=scaling)[0]


class TestObservables:
    def test_no_squeezing_limit(self):
        obs = record_of(IDENTITY, t=0.0)
        assert obs.r == 0.0
        assert obs.mean_n == 0.0
        for lam in (0.0, 0.3, 1.2):
            o = record_of(IDENTITY, 0.0, lam=lam)
            assert o.variance == pytest.approx(0.25, abs=1e-15)

    def test_half_scaling_at_rest(self):
        obs = record_of(IDENTITY, 0.0, scaling="half")
        assert obs.variance == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("scaling,s", [("half", 0.5), ("quarter", 0.25)])
    def test_principal_axes_select_the_envelope(self, scaling, s):
        pair = squeezed_pair(1.0, 0.7)
        phi = record_of(pair, 0.0, scaling=scaling).phi
        lo = record_of(pair, 0.0, lam=phi / 2.0, scaling=scaling)
        hi = record_of(pair, 0.0, lam=phi / 2.0 + math.pi / 2.0, scaling=scaling)
        assert lo.variance == pytest.approx(s * math.exp(-2.0), rel=1e-12)
        assert hi.variance == pytest.approx(s * math.exp(+2.0), rel=1e-12)
        assert lo.variance * hi.variance == pytest.approx(s * s, rel=1e-10)

    def test_phase_bookkeeping(self):
        for vartheta in (-3.0, -1.0, 0.0, 1.0, 3.0, math.pi):
            obs = record_of(squeezed_pair(0.4, vartheta), 0.0)
            assert obs.vartheta == pytest.approx(cmath.phase(cmath.exp(1j * vartheta)), abs=1e-12)
            assert -math.pi < obs.phi <= math.pi
            # phi = vartheta +- pi makes the two expansions identical
            assert cmath.isclose(cmath.exp(1j * obs.phi), -cmath.exp(1j * obs.vartheta), rel_tol=1e-12)

    def test_mean_photon_number(self):
        obs = record_of(squeezed_pair(0.8, 0.2), 0.0)
        assert obs.mean_n == pytest.approx(math.sinh(0.8) ** 2, rel=1e-12)

    def test_unknown_scaling_rejected(self):
        with pytest.raises(ValueError):
            record_of(IDENTITY, 0.0, scaling="third")

    def test_variance_envelope_and_uncertainty_product(self, rng):
        for _ in range(25):
            r = rng.uniform(0.0, 1.5)
            pair = squeezed_pair(r, rng.uniform(-math.pi, math.pi))
            obs = record_of(pair, 0.0)
            lo, hi = 0.25 * math.exp(-2 * r), 0.25 * math.exp(2 * r)
            for lam in rng.uniform(-math.pi, math.pi, 8):
                o = record_of(pair, 0.0, lam=float(lam))
                assert lo - 1e-12 <= o.variance <= hi + 1e-12
                partner = record_of(pair, 0.0, lam=float(lam) + math.pi / 2.0)
                assert o.variance * partner.variance >= 0.25**2 * (1.0 - 1e-10)
            at_lo = record_of(pair, 0.0, lam=obs.phi / 2.0)
            at_hi = record_of(pair, 0.0, lam=obs.phi / 2.0 + math.pi / 2.0)
            assert at_lo.variance == pytest.approx(lo, rel=1e-12)
            assert at_hi.variance == pytest.approx(hi, rel=1e-12)


def whole_array_observables(p, q, t, omega, norm_defect, lam, s):
    """The observables evaluated on whole columns and assembled by ``np.rec.fromarrays``."""
    mod_q = np.abs(q)
    r = np.arcsinh(mod_q)
    vartheta = np.angle(q * p)
    phi = np.where(vartheta <= 0.0, vartheta + np.pi, vartheta - np.pi)
    angle = lam - 0.5 * phi
    variance = s * (np.exp(2.0 * r) * np.sin(angle) ** 2
                    + np.exp(-2.0 * r) * np.cos(angle) ** 2)
    return np.rec.fromarrays(
        [t, omega, q / np.conj(p), r, vartheta, phi, np.angle(p * p), variance, mod_q ** 2,
         norm_defect],
        names="t,omega,alpha,r,vartheta,phi,chi,variance,mean_n,norm_defect",
    )


class TestBlockedRecords:
    @pytest.mark.parametrize("scaling,s", [("half", 0.5), ("quarter", 0.25)])
    @pytest.mark.parametrize("lam", [0.0, -1.3])
    def test_bitwise_equal_to_the_whole_array_formula(self, rng, scaling, s, lam):
        # two full blocks and a partial one; every third row beyond r = 19,
        # where |alpha| = tanh(r) rounds to 1
        n = 2 * kernels.BLOCK + 37
        r = rng.uniform(0.0, 3.0, n)
        r[::3] = rng.uniform(19.0, 40.0, r[::3].shape)
        p = np.cosh(r) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        q = np.sinh(r) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        t, omega, defect = np.cumsum(rng.uniform(0.0, 1.0, n)), rng.uniform(0.5, 2.0, n), rng.uniform(0.0, 1e-12, n)
        got = observables(p, q, t, omega, defect, lam=lam, scaling=scaling)
        want = whole_array_observables(p, q, t, omega, defect, lam, s)
        assert isinstance(got, np.recarray)
        assert got.dtype == want.dtype
        assert got.dtype.names == want.dtype.names
        assert got.tobytes() == want.tobytes()
        assert np.count_nonzero(np.abs(got.alpha) == 1.0) > 0

    def test_columns_of_another_length_are_refused(self):
        with pytest.raises(ValueError):
            observables([1.0, 1.0], [0.0, 0.0], [0.0], [1.0, 1.0], [0.0, 0.0])

    def test_evolve_peaks_at_its_records_plus_block_scratch(self):
        # the fold runs BLOCK records per call, so beyond the 88 B per record of
        # the array only O(BLOCK) scratch is alive: measured 1.8 MB on fig2
        peaks = []
        for n in (150_000, 300_000):
            cfg = build_config(config_layers("fig2", overrides={"n_steps": n}))
            dprof = discretize(cfg.to_profile(), cfg.t_final, n)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                traj = evolve(dprof, record_every=1)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert len(traj.records) == n
            peaks.append((peak - traj.records.nbytes) / 1e6)
        assert max(peaks) <= 2.5, peaks
        assert abs(peaks[1] - peaks[0]) <= 0.1, peaks


class TestEvolveInBatches:
    """``evolve`` folds ``record_every * BLOCK`` segments per call, carrying the product between calls."""

    # (block, widest): kernels.BLOCK sets the span of a call, and a small one
    # puts even record_every = BLOCK + 3 on three calls.  The ladder spans at
    # least three calls at every record_every up to widest, and ends mid-chunk.
    @pytest.mark.parametrize("block,widest", [(kernels.BLOCK, 7), (4 * kernels.CHUNK, 4 * kernels.CHUNK + 3)],
                             ids=["BLOCK", "small"])
    @pytest.mark.parametrize("every", ["1", "7", "BLOCK+3", "n"])
    def test_records_equal_one_fold_of_the_whole_ladder(self, block, widest, every, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK", block)
        n = 2 * widest * block + 5 * kernels.CHUNK + 7
        record_every = {"1": 1, "7": 7, "BLOCK+3": block + 3, "n": n}[every]
        dprof = discretize(parametric_resonance(omega_l=1.04, epsilon=2.04), 120.0, n)
        traj = evolve(dprof, record_every=record_every, lam=-0.4)
        steps, p, q, defect, max_defect = kernels.fold_ladder(
            dprof.samples, dprof.omega0, dprof.tau, record_every)
        want = observables(p, q, steps * dprof.tau, dprof.samples[steps - 1], defect, lam=-0.4)
        assert traj.records.tobytes() == want.tobytes()
        assert traj.max_norm_defect == max_defect
        assert traj.final == (p[-1], q[-1])
        assert all(type(z) is complex for z in traj.final)

    def test_a_nonpositive_sample_names_its_step_in_the_whole_ladder(self):
        # the sample lies in the third call of record_every = 1
        samples = np.ones(3 * kernels.BLOCK)
        samples[2 * kernels.BLOCK + 5] = -0.5
        with pytest.raises(ProfileDomainError, match=f"omega_{2 * kernels.BLOCK + 6} ") as err:
            evolve(DiscretizedProfile(1.0, 0.01, samples, 0.01 * samples.size), record_every=1)
        assert (err.value.step, err.value.omega) == (2 * kernels.BLOCK + 6, -0.5)

    def test_max_norm_defect_keeps_a_nan_from_a_later_call(self, monkeypatch):
        # a nan seen between records of the second call survives the first call's finite defect
        fold = kernels.fold_ladder
        calls = []

        def nan_on_the_second_call(*args):
            *columns, worst = fold(*args)
            calls.append(worst)
            return (*columns, math.nan if len(calls) == 2 else worst)

        monkeypatch.setattr(kernels, "fold_ladder", nan_on_the_second_call)
        traj = evolve(discretize(constant(), 1.0, 3 * kernels.BLOCK), record_every=1)
        assert len(calls) == 3
        assert math.isnan(traj.max_norm_defect)


class TestRecordStream:
    """The blocks ``evolve`` collects, one per fold call, in one reused buffer."""

    def ladder(self, n=3 * kernels.BLOCK + 37):
        return discretize(parametric_resonance(omega_l=1.04, epsilon=2.04), 120.0, n)

    def test_blocks_are_the_rows_of_evolve(self):
        dprof = self.ladder()
        traj = evolve(dprof, record_every=1, lam=0.3)
        stream = RecordStream(dprof, 1, lam=0.3)
        assert stream.final is None and stream.n_records == dprof.n_steps
        got = [(len(block), block.tobytes()) for block in stream.blocks()]
        assert [rows for rows, _ in got] == [kernels.BLOCK] * 3 + [37]
        assert b"".join(raw for _, raw in got) == traj.records.tobytes()
        assert stream.records is None
        assert stream.max_norm_defect == traj.max_norm_defect
        assert stream.final == traj.final

    def test_one_buffer_serves_every_block(self):
        blocks = list(RecordStream(self.ladder(), 1).blocks())
        assert all(np.shares_memory(block, blocks[0]) for block in blocks)
        assert max(len(block) for block in blocks) == kernels.BLOCK

    def test_lets_go_of_the_samples_after_the_last_fold(self):
        # the caller keeps no reference, so the samples are gone while the last block is written
        dprof = self.ladder()
        samples = weakref.ref(dprof.samples)
        stream = RecordStream(dprof, 1)
        del dprof
        alive = [samples() is not None for _ in stream.blocks()]
        assert alive == [True, True, True, False]

    def test_an_overflow_in_a_later_call_raises_after_the_blocks_before(self, monkeypatch):
        fold = kernels.fold_ladder
        calls = []

        def overflow_on_the_second_call(*args):
            rec, p, q, defect, worst = fold(*args)
            calls.append(len(args[0]))
            if len(calls) == 2:
                defect[-1] = math.inf
            return rec, p, q, defect, worst

        monkeypatch.setattr(kernels, "fold_ladder", overflow_on_the_second_call)
        blocks = RecordStream(self.ladder(), 1).blocks()
        assert len(next(blocks)) == kernels.BLOCK
        with pytest.raises(InvalidAccumulatorError):
            next(blocks)


class TestEvolve:
    def test_constant_frequency_never_squeezes(self):
        traj = evolve(discretize(constant(), 10.0, 2000), record_every=100)
        assert all(rec.r == 0.0 for rec in traj.records)
        assert all(rec.variance == 0.25 for rec in traj.records)
        assert traj.max_norm_defect < 1e-12  # |beta| drifts by ~N*eps, alpha stays exactly 0

    def test_record_grid(self):
        traj = evolve(discretize(constant(), 1.0, 1003), record_every=100)
        times = traj.records.t
        tau = 1.0 / 1003
        assert times[0] == pytest.approx(100 * tau)
        assert times[-1] == pytest.approx(1.0)
        assert np.all(np.diff(times) > 0)

    def test_default_record_every_keeps_outputs_small(self):
        traj = evolve(discretize(constant(), 1.0, 20_000))
        assert len(traj.records) <= 5001

    def test_sudden_jump_peak_matches_analytic_maximum(self):
        traj = evolve(discretize(sudden_jump(1.5), 5.0, 100_000), record_every=1)
        r_max = max(rec.r for rec in traj.records)
        assert abs(r_max - math.log(1.5)) < 1e-6

    def test_relaxing_pulse_settles_once_frequency_returns(self):
        # B small enough that the pulse is long gone by t_final
        traj = evolve(discretize(relaxing_pulse(B=0.5 * math.pi), 60.0, 60_000))
        t = traj.records.t
        r = traj.records.r
        tail = r[t >= 54.0]
        assert tail.max() - tail.min() < 1e-9
        assert tail.mean() > 0.05
        variances = traj.records.variance[t >= 54.0]
        assert variances.max() - variances.min() > 1e-3  # phase keeps the variance oscillating

    def test_records_match_a_scalar_evaluation_on_the_square_wave(self):
        # fig4 reaches r ~ 4.9, where exp(2r) amplifies any rounding in phi
        dprof = discretize(janszky_adam(omega1=1.5), 30.0, 60_000)
        traj = evolve(dprof, record_every=1)
        steps, p, q, defect, _ = kernels.fold_ladder(dprof.samples, dprof.omega0, dprof.tau)
        assert np.array_equal(traj.records.t, steps * dprof.tau)
        assert np.array_equal(traj.records.omega, dprof.samples)
        assert np.array_equal(traj.records.alpha, q / np.conj(p))
        assert np.array_equal(traj.records.norm_defect, defect)
        assert traj.records.norm_defect.max() <= traj.max_norm_defect
        columns = [traj.records[name].tolist()
                   for name in ("r", "vartheta", "phi", "chi", "variance", "mean_n")]
        for pj, qj, *got in zip(p.tolist(), q.tolist(), *columns):
            r = math.asinh(abs(qj))
            vartheta = cmath.phase(qj * pj)
            phi = vartheta + math.pi if vartheta <= 0.0 else vartheta - math.pi
            variance = 0.25 * (math.exp(2.0 * r) * math.sin(-0.5 * phi) ** 2
                               + math.exp(-2.0 * r) * math.cos(-0.5 * phi) ** 2)
            expected = (r, vartheta, phi, cmath.phase(pj * pj), variance, abs(qj) ** 2)
            for g, e in zip(got, expected):
                assert math.isclose(g, e, rel_tol=1e-11, abs_tol=0.0), (g, e)

    def test_square_wave_adds_ln_1p5_per_cycle_up_to_r_30(self):
        # two quarter periods at omega1 = 1.5, then three at omega0 = 1 (tau =
        # pi/6): each cycle adds exactly ln 1.5 to r.  atanh|alpha| would be off
        # by 1.4e-4 at k = 40 and infinite from k = 47.
        ladder = DiscretizedProfile(1.0, math.pi / 6, np.tile([1.5, 1.5, 1.0, 1.0, 1.0], 74),
                                    74 * 5 * math.pi / 6)
        traj = evolve(ladder, record_every=5)
        k = np.arange(1, 75)
        np.testing.assert_allclose(traj.records.r, k * math.log(1.5), rtol=1e-15, atol=0.0)
        assert traj.records.r[-1] > 30.0

    def test_final_accumulator_matches_last_record(self):
        dprof = discretize(relaxing_pulse(B=math.pi), 5.0, 5000)
        traj = evolve(dprof, record_every=500)
        _, p, q, _, _ = kernels.fold_ladder(dprof.samples, dprof.omega0, dprof.tau, 500)
        assert traj.final == (p[-1], q[-1])
        assert triple(*traj.final)[0] == traj.records[-1].alpha


def vacuum_image(pair, n_max):
    """``apply_to_state`` on the vacuum, with the global phase that makes c_0 real positive removed."""
    amp = apply_to_state(pair, FockState.vacuum(), n_max=n_max).amplitudes
    return amp * (abs(amp[0]) / amp[0])


def closed_form_amplitudes(pair, n_max):
    """c_2n = |p|^(-1/2) sqrt((2n)!)/n! (alpha/2)^n with alpha = q/conj(p), by ratio iteration; odd levels are empty."""
    p, q = pair
    amp = np.zeros(n_max + 1, dtype=np.complex128)
    amp[0] = abs(p) ** -0.5
    for n in range(1, n_max // 2 + 1):
        amp[2 * n] = amp[2 * n - 2] * (math.sqrt((2.0 * n) * (2.0 * n - 1.0)) / n) * 0.5 * (q / p.conjugate())
    return amp


class TestFockAmplitudes:
    """The squeezed vacuum's number-basis amplitudes, as ``apply_to_state`` gives them."""

    def test_vacuum(self):
        amp = apply_to_state(IDENTITY, FockState.vacuum(), n_max=8).amplitudes
        assert amp[0] == 1.0
        assert np.all(amp[1:] == 0.0)

    def test_matches_reference_expansion(self):
        pair = squeezed_pair(0.5, 1.1)
        obs = record_of(pair, 0.0)
        ours = vacuum_image(pair, n_max=60)
        reference = reference_squeezed_amplitudes(0.5, obs.phi, 60)
        np.testing.assert_allclose(ours, reference, rtol=1e-12, atol=1e-15)

    def test_amplitude_ratio_consistency(self):
        pair = squeezed_pair(0.75, -2.1)
        obs = record_of(pair, 0.0)
        amp = apply_to_state(pair, FockState.vacuum(), n_max=64).amplitudes  # n_max=4 would leak
        ratio = amp[2] / amp[0]
        assert cmath.isclose(ratio, (1.0 / math.sqrt(2.0)) * abs(obs.alpha) * cmath.exp(1j * obs.vartheta), rel_tol=1e-12)
        assert cmath.isclose(ratio, -(1.0 / math.sqrt(2.0)) * math.tanh(0.75) * cmath.exp(1j * obs.phi), rel_tol=1e-12)

    def test_normalization_and_tail_bound(self):
        r = 0.5
        pair = squeezed_pair(r, 0.3)
        n_max = math.ceil(10.0 * math.log(10.0) / (-math.log(math.tanh(r))))  # tanh^n_max < 1e-10
        n_max += n_max % 2
        weights = np.abs(vacuum_image(pair, n_max=n_max)) ** 2
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-8)
        for n in range(0, n_max + 1, 2):
            assert weights[n] <= math.tanh(r) ** n + 1e-15
        assert np.all(weights[1::2] == 0.0)


class TestApplyToState:
    def test_identity_returns_input(self):
        initial = FockState.basis_state(3, 10)
        out = apply_to_state(IDENTITY, initial, n_max=10)
        np.testing.assert_array_equal(out.amplitudes, initial.amplitudes)

    def test_vacuum_route_matches_fock_amplitudes(self):
        dprof = discretize(relaxing_pulse(B=0.5 * math.pi), 10.0, 10_000)
        traj = evolve(dprof)
        direct = closed_form_amplitudes(traj.final, n_max=64)
        np.testing.assert_allclose(vacuum_image(traj.final, n_max=64), direct, rtol=1e-10, atol=1e-12)

    def test_number_state_is_stationary_at_constant_frequency(self):
        traj = evolve(discretize(constant(), 3.0, 300))
        out = apply_to_state(traj.final, FockState.basis_state(1, 8), n_max=8)
        assert abs(out.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)
        others = np.delete(out.amplitudes, 1)
        assert np.max(np.abs(others)) == 0.0

    def test_truncation_leakage_raises(self):
        traj = evolve(discretize(sudden_jump(2.5), math.pi / 5.0, 2000))
        with pytest.raises(LeakageError) as err:
            apply_to_state(traj.final, FockState.vacuum(), n_max=8)
        assert err.value.leakage > 1e-6

    def test_norm_precondition(self):
        unnormalized = FockState(np.array([0.5, 0.0, 0.5], dtype=np.complex128))
        with pytest.raises(ValueError):
            apply_to_state(IDENTITY, unnormalized)

    def test_n_max_must_hold_initial_state(self):
        with pytest.raises(ValueError):
            apply_to_state(IDENTITY, FockState.basis_state(6, 6), n_max=4)


class TestAutoConverge:
    def test_constant_profile_converges_immediately(self):
        traj = auto_converge(constant(), 5.0, tol=1e-8, n_start=500, n_records=100)
        assert traj.converged is True
        assert len(traj.convergence_history) == 1
        assert traj.convergence_history[0][1] == 0.0
        assert np.all(traj.records.r == 0.0)

    def test_pulse_converges_with_shrinking_differences(self):
        traj = auto_converge(relaxing_pulse(B=0.5 * math.pi), 30.0, tol=1e-4,
                             n_start=1000, n_records=100)
        assert traj.converged is True
        diffs = [diff for _, diff in traj.convergence_history]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_cap_returns_soft_failure(self):
        with pytest.warns(RuntimeWarning):
            traj = auto_converge(parametric_resonance(2.04, 1.04), 20.0, tol=1e-15,
                                 n_start=500, n_records=100, cap=4000)
        assert traj.converged is False
        assert traj.convergence_history

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            auto_converge(constant(), 1.0, tol=0.0)
        with pytest.raises(ValueError):
            auto_converge(constant(), 1.0, tol=1e-5, n_start=50)


class TestPlateaus:
    def test_squeezing_is_flat_on_reference_holds_and_grows_on_high_holds(self):
        profile = janszky_adam(omega1=1.5)
        cycle = profile.period
        dprof = discretize(profile, 4 * cycle, 12_000)
        traj = evolve(dprof, record_every=1)
        r = traj.records.r
        samples = dprof.samples

        # segment the ladder into constant-frequency runs
        edges = np.flatnonzero(np.diff(samples)) + 1
        bounds = np.concatenate([[0], edges, [samples.shape[0]]])
        plateau_levels = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            run = r[lo:hi]
            if samples[lo] == 1.0 and hi - lo > 10:
                assert run.max() - run.min() <= 1e-9
                plateau_levels.append(run.mean())
            elif samples[lo] == 1.5 and hi - lo > 10:
                assert run[-1] > run[0]
        assert len(plateau_levels) >= 3
        assert all(b > a for a, b in zip(plateau_levels, plateau_levels[1:]))

        # the variance keeps moving on those same holds
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if samples[lo] == 1.0 and hi - lo > 100:
                variances = traj.records.variance[lo:hi]
                assert variances.max() - variances.min() > 1e-3
