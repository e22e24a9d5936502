import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11squeeze import (
    IDENTITY,
    ProfileDomainError,
    TruncatedHamiltonian,
    compose,
    discretize,
    evolve,
    janszky_adam,
    kernels,
    step_coeffs,
)
from su11squeeze.kernels import (
    BLOCK,
    CHUNK,
    fock_bands,
    fold_ladder,
    record_steps,
    rk4_propagate,
)
from su11squeeze.profiles import DiscretizedProfile


def resonance_ladder(n=5000, t_final=5.0):
    tau = t_final / n
    ts = tau * np.arange(1, n + 1)
    omega = 0.5 * ((1.0 + 1.04) + (1.0 - 1.04) * np.cos(2.04 * ts))
    return omega, tau


def triple(p, q):
    """The composed coefficients ``(alpha, beta, gamma)`` of the fold's pair ``(p, q)``."""
    pc = np.conj(p)
    return q / pc, 1.0 / (pc * pc), -np.conj(q) / pc


class TestFoldLadder:
    def test_record_steps_cover_final_step(self):
        assert list(record_steps(10, 3)) == [3, 6, 9, 10]
        assert list(record_steps(10, 5)) == [5, 10]
        assert list(record_steps(3, 10)) == [3]
        assert list(record_steps(4, 1)) == [1, 2, 3, 4]

    def test_matches_scalar_composition(self):
        # the long ladder spans three blocks and ends mid-block and mid-chunk,
        # so the running product is carried across every block boundary
        n_long = 2 * BLOCK + 5 * CHUNK + 7
        for n, t_final, record_every in ((400, 5.0, 50), (n_long, 120.0, 1)):
            omega, tau = resonance_ladder(n=n, t_final=t_final)
            rec, p, q, defect, _ = fold_ladder(omega, 1.0, tau, record_every)
            alpha, beta, gamma = triple(p, q)
            acc = IDENTITY
            k = 0
            for j, w in enumerate(omega, 1):
                acc = compose(acc, step_coeffs(float(w), 1.0, tau))
                if j == rec[k]:
                    assert abs(acc.alpha - alpha[k]) < 1e-12
                    assert abs(acc.beta - beta[k]) < 1e-12
                    assert abs(acc.gamma - gamma[k]) < 1e-12
                    assert abs(acc.norm_defect - defect[k]) < 1e-12
                    k += 1
            assert k == rec.shape[0]

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_chunk_and_block_edges_match_compose(self, n, rng):
        # a block of n segments fills its last chunk only when CHUNK divides n;
        # the identity padding of the tail chunk must change no record or defect
        omega = rng.uniform(0.5, 2.0, n)
        tau = 0.05
        rec, p, q, defect, max_defect = fold_ladder(omega, 1.0, tau)
        alpha, beta, gamma = triple(p, q)
        acc = IDENTITY
        want = np.empty((n, 4), dtype=np.complex128)
        for j, w in enumerate(omega):
            acc = compose(acc, step_coeffs(float(w), 1.0, tau))
            want[j] = acc.alpha, acc.beta, acc.gamma, acc.norm_defect
        np.testing.assert_array_equal(rec, np.arange(1, n + 1))
        assert np.max(np.abs(alpha - want[:, 0])) <= 1e-12
        assert np.max(np.abs(beta - want[:, 1])) <= 1e-12
        assert np.max(np.abs(gamma - want[:, 2])) <= 1e-12
        assert np.max(np.abs(defect - want[:, 3].real)) <= 1e-12
        assert max_defect == defect.max()

    @pytest.mark.parametrize("n", [CHUNK + 3, BLOCK + 5])
    def test_integer_omega0_folds_as_its_float(self, n, rng):
        # a configuration file may give omega0 = 1 or 2 as a Python int
        for omega0 in (1, 2):
            omega = omega0 * rng.uniform(0.5, 2.0, n)
            got = fold_ladder(omega, omega0, 0.05, 4)
            want = fold_ladder(omega, float(omega0), 0.05, 4)
            for g, w in zip(got[:4], want[:4]):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)
            assert got[4] == want[4]

    def test_scratch_is_small_and_does_not_grow_with_the_ladder(self):
        # the scratch is allocated once per call and reused by every block, so
        # with few records the peak does not grow with the ladder's length
        peaks = []
        tracemalloc.start()
        try:
            for n in (150_000, 300_000):
                omega, tau = resonance_ladder(n=n, t_final=120.0)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                fold_ladder(omega, 1.0, tau, 1000)
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1e6)
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.0, peaks
        assert abs(peaks[1] - peaks[0]) <= 0.1, peaks

    def test_strong_squeezing_stays_normalized(self):
        # the square wave reaches r ~ 15.6 at t = 100, where |alpha| = tanh(r)
        # sits within 1e-13 of 1; |q| = sinh(r) does not come near any limit
        dprof = discretize(janszky_adam(omega1=1.5), 100.0, 200_000)
        _, _, q, defect, max_defect = fold_ladder(dprof.samples, 1.0, dprof.tau, 40)
        assert np.arcsinh(np.abs(q[-1])) > 15.0
        assert np.all(defect <= 1e-10)
        assert max_defect <= 1e-10

    def test_max_defect_keeps_a_nan(self):
        # omega/omega0 = 1e300 overflows the first segment's |p|^2
        with np.errstate(over="ignore", invalid="ignore"):
            *_, max_defect = fold_ladder(np.array([1e300, 1.0]), 1.0, 0.1, 2)
        assert np.isnan(max_defect)

    def test_bad_record_every_rejected(self):
        with pytest.raises(ValueError):
            fold_ladder(np.array([1.0]), 1.0, 0.1, 0)


#: Random ladders of up to 300 segments in the frequency band of the presets
#: (test_matches_scalar_composition covers the block boundaries).
ladders = st.tuples(
    st.lists(st.floats(0.5, 2.0), min_size=1, max_size=300),
    st.floats(1e-3, 0.5),
).map(lambda lt: (np.array(lt[0]), lt[1]))


class TestFoldLadderProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ladder=ladders)
    def test_triple_matches_recurrence_at_every_step(self, ladder):
        omega, tau = ladder
        _, p, q, _, _ = fold_ladder(omega, 1.0, tau)
        alpha, beta, gamma = triple(p, q)
        acc = IDENTITY
        for k, w in enumerate(omega):
            acc = compose(acc, step_coeffs(float(w), 1.0, tau))
            assert abs(acc.alpha - alpha[k]) <= 1e-12
            assert abs(acc.beta - beta[k]) <= 1e-12
            assert abs(acc.gamma - gamma[k]) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ladder=ladders)
    def test_asinh_of_q_agrees_with_atanh_of_alpha(self, ladder):
        omega, tau = ladder
        _, p, q, _, _ = fold_ladder(omega, 1.0, tau)
        r = np.arcsinh(np.abs(q))
        via_alpha = np.arctanh(np.abs(q / np.conj(p)))
        # |alpha| carries about k ulps after k segments, and atanh turns them
        # into cosh(r)^2 * k ulps of r: 1e-12 alone fails at r ~ 4 on 300 segments
        budget = np.cosh(r) ** 2 * np.arange(1, len(omega) + 1) * np.finfo(float).eps
        assert np.all((np.abs(r - via_alpha) <= 1e-12 + budget)[r < 5.0])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(head=ladders, tail=ladders)
    def test_group_law(self, head, tail):
        # folding a concatenated ladder equals the product of the two folds
        (omega_a, tau), (omega_b, _) = head, tail
        _, pa, qa, _, _ = fold_ladder(omega_a, 1.0, tau, len(omega_a))
        _, pb, qb, _, _ = fold_ladder(omega_b, 1.0, tau, len(omega_b))
        _, p, q, _, _ = fold_ladder(np.concatenate([omega_a, omega_b]), 1.0, tau,
                                    len(omega_a) + len(omega_b))
        want_p = pb[-1] * pa[-1] + qb[-1] * np.conj(qa[-1])
        want_q = pb[-1] * qa[-1] + qb[-1] * np.conj(pa[-1])
        scale = abs(want_p)
        assert abs(p[-1] - want_p) <= 1e-12 * scale
        assert abs(q[-1] - want_q) <= 1e-12 * scale

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(split=st.one_of(st.sampled_from([BLOCK, 2 * BLOCK]), st.integers(1, 2 * BLOCK + 100)),
           tail=st.integers(1, BLOCK + 100), seed=st.integers(0, 2 ** 32 - 1), tau=st.floats(1e-3, 0.05))
    def test_group_law_through_the_carry(self, split, tail, seed, tau):
        # a head, then a tail seeded with the carry the head left, is one fold of
        # the whole ladder: the same bits when the split falls on a block boundary
        omega = np.random.default_rng(seed).uniform(0.5, 2.0, split + tail)
        _, p, q, defect, max_defect = fold_ladder(omega, 1.0, tau)
        carry = np.array([1.0, 0.0], dtype=np.complex128)
        _, head_p, head_q, head_defect, head_max = fold_ladder(omega[:split], 1.0, tau, 1, carry)
        # the carry is the block loop's own product, associated unlike the last record
        assert np.all(np.abs(carry - [head_p[-1], head_q[-1]]) <= 1e-12 * abs(head_p[-1]))
        rec, tail_p, tail_q, tail_defect, tail_max = fold_ladder(omega[split:], 1.0, tau, 1, carry)
        assert np.all(np.abs(carry - [p[-1], q[-1]]) <= 1e-12 * abs(p[-1]))
        np.testing.assert_array_equal(rec, np.arange(1, tail + 1))
        if split % BLOCK == 0:
            for got, want in ((head_p, p[:split]), (head_q, q[:split]), (head_defect, defect[:split]),
                              (tail_p, p[split:]), (tail_q, q[split:]), (tail_defect, defect[split:])):
                assert got.tobytes() == want.tobytes()
            assert max(head_max, tail_max) == max_defect
        else:
            scale = np.abs(p[split:])
            assert np.all(np.abs(tail_p - p[split:]) <= 1e-12 * scale)
            assert np.all(np.abs(tail_q - q[split:]) <= 1e-12 * scale)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(omega=st.floats(0.5, 2.0), tau=st.floats(1e-3, 0.5), n=st.integers(1, 300))
    def test_constant_frequency_is_a_one_parameter_group(self, omega, tau, n):
        # n equal segments are the one segment of duration n*tau
        _, p, q, _, _ = fold_ladder(np.full(n, omega), 1.0, tau, n)
        whole = step_coeffs(omega, 1.0, n * tau)
        alpha, beta, gamma = triple(p[-1], q[-1])
        assert abs(alpha - whole.lam_plus) <= 1e-12
        assert abs(beta - whole.lam_c) <= 1e-12
        assert abs(gamma - whole.lam_minus) <= 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(ladder=ladders)
    def test_identity(self, ladder):
        # the fold starts from the identity, so one segment is its own step,
        # and segments at the reference frequency never squeeze
        omega, tau = ladder
        _, p, q, defect, max_defect = fold_ladder(omega[:1], 1.0, tau)
        first = compose(IDENTITY, step_coeffs(float(omega[0]), 1.0, tau))
        alpha, beta, gamma = triple(p[0], q[0])
        assert abs(alpha - first.alpha) <= 1e-15
        assert abs(beta - first.beta) <= 1e-15
        assert abs(gamma - first.gamma) <= 1e-15
        _, p, q, defect, max_defect = fold_ladder(np.ones_like(omega), 1.0, tau)
        assert np.all(q == 0.0)
        assert max_defect <= 1e-12


def runs_ladder(rng):
    """Distinct samples with two runs of equal ones, for ``record_every = 3``.

    The first run crosses the input window boundary at ``BLOCK``, and its pieces
    straddle the end of the first scan block, which fills at the ``BLOCK``-th
    piece.  The second crosses ``3 * BLOCK``, where a stream's fold call ends.
    """
    omega = rng.uniform(0.5, 2.0, 3 * BLOCK + 3000)
    omega[BLOCK - 200:BLOCK + 1000] = 1.5
    omega[3 * BLOCK - 500:3 * BLOCK + 1000] = 0.75
    return omega


def ladder_profile(omega, tau):
    """A hand-made ladder at ``omega0 = 1``, held as ``discretize`` holds one."""
    return DiscretizedProfile(omega0=1.0, tau=tau, samples=omega, t_final=tau * omega.shape[0])


class TestFoldRuns:
    """A run of k equal samples between records folds as the one segment S(omega, k*tau)."""

    @pytest.mark.parametrize("omega, omega0", [(1.5, 1.0), (1.0, 1.0), (0.7, 1.3)])
    def test_a_constant_ladder_is_its_closed_form(self, omega, omega0):
        n, tau = 10 ** 6, 5e-5
        eps = np.finfo(float).eps
        whole = step_coeffs(omega, omega0, n * tau)
        for every, bound in ((n, 4 * eps), (n // 5000, 5000 * eps)):
            rec, p, q, _, max_defect = fold_ladder(np.full(n, omega), omega0, tau, every)
            alpha, beta, gamma = triple(p[-1], q[-1])
            # one piece is the closed form to a few eps; 5000 records leave 5000 pieces, each adding
            # one rounding, where a fold of segments would repeat one segment's rounding 10^6 times
            assert abs(alpha - whole.lam_plus) <= bound
            assert abs(beta - whole.lam_c) <= bound
            assert abs(gamma - whole.lam_minus) <= bound
            assert max_defect <= bound
            assert rec.shape[0] == n // every

    def test_a_square_wave_folds_its_runs_and_records_not_its_segments(self, monkeypatch):
        dprof = discretize(janszky_adam(omega1=1.04), 120.0, 150_000)
        fold_block, pieces = kernels._fold_block, []

        def counted(w, *args):
            pieces.append(w.shape[0])
            return fold_block(w, *args)

        monkeypatch.setattr(kernels, "_fold_block", counted)
        rec, p, q, _, _ = fold_ladder(dprof.samples, 1.0, dprof.tau, 30)
        runs = 1 + np.count_nonzero(np.diff(dprof.samples))
        assert rec.shape[0] == 5000
        assert sum(pieces) <= rec.shape[0] + runs
        # the records are those of a fold of segments, which every step recorded gives
        _, seg_p, seg_q, _, _ = fold_ladder(dprof.samples, 1.0, dprof.tau, 1)
        scale = np.abs(seg_p[rec - 1])
        assert np.all(np.abs(p - seg_p[rec - 1]) <= 1e-11 * scale)
        assert np.all(np.abs(q - seg_q[rec - 1]) <= 1e-11 * scale)

    def test_a_run_across_a_window_a_scan_block_and_a_stream_call_folds_alike(self, rng):
        omega = runs_ladder(rng)
        tau = 0.01
        rec, p, q, defect, max_defect = fold_ladder(omega, 1.0, tau, 3)
        # a stream folds 3 * BLOCK samples per call, each call seeded with the carry
        traj = evolve(ladder_profile(omega, tau), record_every=3)
        assert traj.records.shape[0] == rec.shape[0]
        np.testing.assert_array_equal(traj.records.t, rec * tau)
        assert traj.records.norm_defect.tobytes() == defect.tobytes()
        alpha = q / np.conj(p)
        assert traj.records.alpha.tobytes() == alpha.tobytes()
        assert traj.final == (complex(p[-1]), complex(q[-1]))
        assert traj.max_norm_defect == max_defect
        # and both are the fold of segments, to rounding
        _, seg_p, seg_q, _, _ = fold_ladder(omega, 1.0, tau, 1)
        scale = np.abs(seg_p[rec - 1])
        assert np.all(np.abs(p - seg_p[rec - 1]) <= 1e-12 * scale)
        assert np.all(np.abs(q - seg_q[rec - 1]) <= 1e-12 * scale)

    def test_a_run_open_when_a_block_fills_is_folded_whole(self, rng):
        # the block fills on the last piece of the second window while a run of 1.25
        # goes on into the third, whose samples all differ: the run's first segments
        # wait for the third window, so that window must not fold from its own samples
        every = 3

        def ladder(length):
            omega = rng.uniform(0.5, 2.0, 3 * BLOCK)
            omega[100:BLOCK - 100] = 1.5
            omega[BLOCK + 100:BLOCK + 100 + length] = 0.75
            omega[2 * BLOCK - 50:2 * BLOCK + 1] = 1.25
            return omega

        def pieces_in_two_windows(omega):
            cut = np.append(omega[:-1] != omega[1:], True)
            cut[every - 1::every] = True
            return np.count_nonzero(cut[:2 * BLOCK])

        omega = next(o for o in map(ladder, range(BLOCK // 2, BLOCK - 200)) if pieces_in_two_windows(o) == BLOCK)
        rec, p, q, _, _ = fold_ladder(omega, 1.0, 0.01, every)
        _, seg_p, seg_q, _, _ = fold_ladder(omega, 1.0, 0.01, 1)
        scale = np.abs(seg_p[rec - 1])
        assert np.all(np.abs(p - seg_p[rec - 1]) <= 1e-12 * scale)
        assert np.all(np.abs(q - seg_q[rec - 1]) <= 1e-12 * scale)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_a_bad_sample_inside_a_run_is_named_by_its_step(self, bad, rng):
        omega = runs_ladder(rng)
        for step in (BLOCK, 3 * BLOCK + 7):  # inside the first run, and the second past a stream call
            ladder = omega.copy()
            ladder[step - 1] = bad
            with pytest.raises(ProfileDomainError) as direct:
                fold_ladder(ladder, 1.0, 0.01, 3)
            with pytest.raises(ProfileDomainError) as streamed:
                evolve(ladder_profile(ladder, 0.01), record_every=3)
            for exc in (direct.value, streamed.value):
                assert exc.step == step
                assert exc.omega == bad or (np.isnan(bad) and np.isnan(exc.omega))


def dense_rk4(omega, omega0, tau, psi0, n_sub):
    """Classical k1..k4 RK4 with the dense truncated Hamiltonian; same returns as rk4_propagate."""
    psi, dt, norms, edges = psi0.copy(), tau / n_sub, [1.0], [0.0]
    for w in omega:
        h = -1j * TruncatedHamiltonian(psi.shape[0], w, 0.5 * np.log(w / omega0)).matrix()
        for _ in range(n_sub):
            k1 = h @ psi
            k2 = h @ (psi + 0.5 * dt * k1)
            k3 = h @ (psi + 0.5 * dt * k2)
            k4 = h @ (psi + dt * k3)
            psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norms.append(np.vdot(psi, psi).real)
        edges.append(np.vdot(psi[-4:], psi[-4:]).real)
    return psi, min(norms), max(norms), max(edges)


class TestRk4Propagate:
    def _vacuum(self, dim):
        psi = np.zeros(dim, np.complex128)
        psi[0] = 1.0
        return psi

    def test_fock_bands_are_shared_and_read_only(self):
        diag, off = fock_bands(6)
        assert fock_bands(6)[0] is diag
        np.testing.assert_array_equal(diag, [0.5, 1.5, 2.5, 3.5, 4.5, 5.5])
        np.testing.assert_allclose(off, 0.5 * np.sqrt([2.0, 6.0, 12.0, 20.0]), rtol=1e-15)
        with pytest.raises(ValueError):
            diag[0] = 1.0

    def test_norm_tracking_brackets_unity(self):
        omega = np.full(50, 1.3)
        psi0 = self._vacuum(16)
        _, min_norm2, max_norm2, max_edge = rk4_propagate(omega, 1.0, 0.01, psi0, 4)
        assert min_norm2 <= 1.0 <= max_norm2 + 1e-12
        assert max_norm2 - min_norm2 < 1e-10
        assert max_edge < 1e-8  # mild squeezing leaves only a faint tail at the boundary

    def test_input_vector_is_not_mutated(self):
        omega = np.full(10, 1.2)
        psi0 = self._vacuum(8)
        before = psi0.copy()
        rk4_propagate(omega, 1.0, 0.01, psi0, 2)
        np.testing.assert_array_equal(psi0, before)

    def test_rejects_undersized_state(self):
        with pytest.raises(ValueError):
            rk4_propagate(np.array([1.0]), 1.0, 0.1, np.zeros(3, np.complex128), 1)

    def test_rejects_bad_substep_count(self):
        with pytest.raises(ValueError):
            rk4_propagate(np.array([1.0]), 1.0, 0.1, self._vacuum(8), 0)

    @pytest.mark.parametrize("ladder", ["random", "constant"])
    @pytest.mark.parametrize("n_sub", [1, 3, 4])
    @pytest.mark.parametrize("dim", [5, 6, 7, 9, 12])
    def test_matches_dense_reference(self, dim, n_sub, ladder, rng):
        # at these sizes the four applications of H in a substep (offsets up
        # to +-8) reach both ends of the basis.  On a constant ladder any
        # rounding bias repeats at every substep and would drift the norm by
        # ~n_seg * n_sub * 1e-16.
        n_seg = 40 * 8 + 3
        if ladder == "random":
            omega = rng.uniform(0.7, 1.5, n_seg)
        else:
            omega = np.full(n_seg, rng.uniform(0.7, 1.5))
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)
        got = rk4_propagate(omega, 1.0, 0.02, psi0, n_sub)
        want = dense_rk4(omega, 1.0, 0.02, psi0, n_sub)
        assert np.max(np.abs(got[0] - want[0])) <= 1e-13
        for g, w in zip(got[1:], want[1:]):
            assert abs(g - w) <= 1e-14

    def test_even_input_keeps_odd_amplitudes_zero(self, rng):
        psi0 = np.zeros(12, np.complex128)
        psi0[::2] = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi, *_ = rk4_propagate(rng.uniform(0.7, 1.5, 2 * 8 + 1), 1.0, 0.02, psi0, 3)
        assert np.all(psi[1::2] == 0.0)
        assert np.all(psi[::2] != 0.0)
