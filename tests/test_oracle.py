import cmath
import dataclasses
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from su11squeeze import (
    DiscretizedProfile,
    FockState,
    TruncatedHamiltonian,
    apply_to_state,
    constant,
    discretize,
    evolve,
    fidelity,
    heisenberg,
    integrate,
    janszky_adam,
    parametric_resonance,
    relaxing_pulse,
    sudden_jump,
)
from su11squeeze import kernels, oracle
from su11squeeze.config import build_config, config_layers
from su11squeeze.errors import LeakageError
from su11squeeze.evolution import triple


def squeezed_vacuum(r, phi, n_max):
    amp = np.zeros(n_max + 1, dtype=np.complex128)
    amp[0] = math.sqrt(1.0 / math.cosh(r))
    factor = -0.5 * cmath.exp(1j * phi) * math.tanh(r)
    for n in range(1, n_max // 2 + 1):
        amp[2 * n] = amp[2 * n - 2] * (math.sqrt((2.0 * n) * (2.0 * n - 1.0)) / n) * factor
    return FockState(amp)


class TestTruncatedHamiltonian:
    def test_matrix_structure(self):
        h = TruncatedHamiltonian(dim=8, omega=1.5, rho=0.5 * math.log(1.5))
        m = h.matrix()
        np.testing.assert_allclose(m, m.T.conj())
        assert np.all(m.imag == 0.0)
        # couples only n <-> n+-2 plus the diagonal
        for i in range(8):
            for j in range(8):
                if abs(i - j) not in (0, 2):
                    assert m[i, j] == 0.0
        assert m[0, 0] == pytest.approx(1.5 * math.cosh(math.log(1.5)) * 0.5)


class TestIntegrate:
    def test_vacuum_is_stationary_at_reference_frequency(self):
        dprof = discretize(constant(), 5.0, 500)
        state, diag = integrate(dprof, FockState.vacuum(), n_sub=2, dim=32)
        assert fidelity(state, FockState.vacuum(31)) == pytest.approx(1.0, abs=1e-10)
        assert diag.leakage < 1e-12

    def test_quarter_period_jump_builds_the_analytic_squeezed_vacuum(self):
        # after holding omega1 for a quarter period the squeezing parameter
        # peaks at ln(omega1) with squeezing phase zero
        omega1 = 1.5
        t_peak = math.pi / (2.0 * omega1)
        dprof = discretize(sudden_jump(omega1), t_peak, 2000)
        state, diag = integrate(dprof, FockState.vacuum(), n_sub=4, dim=64)
        target = squeezed_vacuum(math.log(omega1), 0.0, 63)
        assert fidelity(state, target) >= 0.9999
        assert diag.norm_drift < 1e-8

    def test_cross_method_agreement_on_the_pulse(self):
        dprof = discretize(relaxing_pulse(B=0.5 * math.pi), 30.0, 30_000)
        oracle_state, diag = integrate(dprof, FockState.vacuum(), n_sub=4, dim=128)
        traj = evolve(dprof)
        method_state = apply_to_state(traj.final, FockState.vacuum(), n_max=127)
        assert fidelity(method_state.normalized(), oracle_state) >= 0.999
        assert diag.leakage < 1e-8

    def test_cross_method_agreement_on_a_number_state(self):
        # same propagator applied to |2> through the operator series
        dprof = discretize(sudden_jump(1.5), 0.9, 3000)
        initial = FockState.basis_state(2, 2)
        oracle_state, _ = integrate(dprof, initial, n_sub=4, dim=96)
        traj = evolve(dprof)
        method_state = apply_to_state(traj.final, initial, n_max=95)
        assert fidelity(method_state.normalized(), oracle_state) >= 0.9999

    def test_parity_is_conserved_exactly(self):
        dprof = discretize(janszky_adam(omega1=1.5), 8.0, 8000)
        state, _ = integrate(dprof, FockState.vacuum(), n_sub=2, dim=128)
        assert np.max(np.abs(state.amplitudes[1::2])) == 0.0

    def test_unitarity_drift_over_many_substeps(self):
        # 1e5 substeps at dt = 1e-3 on a low-lying superposition
        amp = np.zeros(16, dtype=np.complex128)
        amp[0], amp[2], amp[4] = 0.8, 0.5, math.sqrt(1.0 - 0.8**2 - 0.5**2)
        psi0 = amp.copy()
        _, min_norm2, max_norm2, _ = kernels.rk4_propagate(
            np.array([1.0]), 1.0, 100.0, psi0, 100_000
        )
        assert max(abs(1.0 - min_norm2), abs(max_norm2 - 1.0)) <= 1e-8

    def test_energy_constant_on_a_constant_segment(self):
        omega = 1.3
        rho = 0.5 * math.log(omega)
        h = TruncatedHamiltonian(dim=64, omega=omega, rho=rho)
        initial = squeezed_vacuum(0.3, 0.4, 63)
        samples = np.full(1200, omega)
        psi, *_ = kernels.rk4_propagate(samples, 1.0, 12.0 / 1200, initial.amplitudes, 8)
        e0 = float(np.real(np.vdot(initial.amplitudes, h.matrix() @ initial.amplitudes)))
        e1 = float(np.real(np.vdot(psi, h.matrix() @ psi)))
        assert abs(e1 - e0) / abs(e0) <= 1e-8

    def test_leakage_raises_at_pinned_dimension(self):
        dprof = discretize(sudden_jump(2.2), 0.7, 2000)
        with pytest.raises(LeakageError) as err:
            integrate(dprof, FockState.vacuum(), n_sub=2, dim=16)
        assert err.value.leakage > 1e-6

    def test_auto_dimension_doubling_recovers(self):
        dprof = discretize(sudden_jump(2.2), 0.7, 2000)
        state, diag = integrate(dprof, FockState.vacuum(), n_sub=2)
        assert diag.dim >= 256
        assert diag.leakage <= 1e-6
        assert state.norm2() == pytest.approx(1.0, abs=1e-12)

    def test_rk4_norm_loss_raises_without_doubling_the_basis(self, monkeypatch):
        # the vacuum under a constant omega0 never leaves n = 0: the loss
        # 1 - |P(i theta)|^2 at theta = 0.125 is RK4 error, not leakage
        dims = []
        propagate = kernels.rk4_propagate

        def counted(omega, omega0, tau, psi0, n_sub):
            dims.append(psi0.shape[0])
            return propagate(omega, omega0, tau, psi0, n_sub)

        monkeypatch.setattr(kernels, "rk4_propagate", counted)
        dprof = discretize(constant(1e3), 1.0, 1000)
        with pytest.raises(LeakageError, match="too coarse") as err:
            integrate(dprof, FockState.vacuum(), n_sub=4)
        assert dims == [256]
        assert err.value.leakage > 1e-6

    def test_diverged_integration_raises(self):
        # dt * omega0 ~ 1e197 overflows the step matrix to nan
        dprof = discretize(constant(1e200), 1.0, 1000)
        with np.errstate(all="ignore"), pytest.raises(LeakageError, match="too coarse"):
            integrate(dprof, FockState.vacuum(), n_sub=4)

    def test_initial_state_must_fit_the_basis(self):
        wide = FockState.basis_state(14, 14)
        dprof = discretize(constant(), 1.0, 100)
        with pytest.raises(LeakageError):
            integrate(dprof, wide, n_sub=1, dim=16)


def one_segment(omega, omega0, tau):
    return DiscretizedProfile(omega0=omega0, tau=tau, samples=np.array([omega]), t_final=tau)


def preset_ladder(name, **overrides):
    cfg = build_config(config_layers(name, overrides=overrides))
    return discretize(cfg.to_profile(), cfg.t_final, cfg.n_steps)


class TestHeisenberg:
    def test_closed_form_substep_is_the_rk4_polynomial(self, rng):
        # one segment, so the pair is the first row of P(X)^n_sub
        for _ in range(50):
            omega, omega0 = rng.uniform(0.5, 2.0, size=2)
            tau = rng.uniform(0.01, 0.06)  # omega*dt <= 0.12 keeps the norm loss below the guard
            n_sub = int(rng.integers(1, 4))
            c, s = math.cosh(math.log(omega / omega0)), math.sinh(math.log(omega / omega0))
            x = -1j * omega * (tau / n_sub) * np.array([[c, s], [-s, -c]])
            step = np.eye(2) + x + x @ x / 2 + x @ x @ x / 6 + x @ x @ x @ x / 24
            want = np.linalg.matrix_power(step, n_sub)[0]
            u, v, _ = heisenberg(one_segment(omega, omega0, tau), n_sub)
            assert abs(u - want[0]) <= 1e-15 and abs(v - want[1]) <= 1e-15

    @pytest.mark.parametrize("n_sub", [1, 2, 3, 5, 8, 1000])
    def test_substep_power_matches_the_sequential_product(self, monkeypatch, n_sub):
        # at omega = omega0, M = diag(1, -1) and the pair is (A - i B theta, 0) for the power A I + B X
        monkeypatch.setattr(oracle, "LEAKAGE_TOL", math.inf)  # theta = 0.3 loses 1e-2 of the norm by n = 1000
        theta = np.linspace(1e-4, 0.3, 64)  # omega * dt of one substep
        delta = -theta * theta
        c0, c1 = 1.0 + delta / 2.0 + delta * delta / 24.0, 1.0 + delta / 6.0
        a, b = c0, c1
        for _ in range(n_sub - 1):  # (a I + b X)(c0 I + c1 X), with X^2 = delta I
            a, b = a * c0 + b * c1 * delta, a * c1 + b * c0
        got = np.array([heisenberg(one_segment(1.0, 1.0, t * n_sub), n_sub)[:2] for t in theta])
        assert np.all(got[:, 1] == 0.0)
        scale = np.hypot(a, b * theta)  # the size of A I + B X, X = -i theta M
        assert np.max(np.abs(got[:, 0].real - a) / scale) <= 1e-12
        assert np.max(np.abs(-got[:, 0].imag - b * theta) / scale) <= 1e-12

    @pytest.mark.parametrize("m", [100, 1000, 10_000, 10**6])
    def test_a_segment_is_its_two_halves(self, m):
        # tau at 2m substeps against two segments of tau/2 at m each: the same substep, so the same
        # pair; and each norm_drift is the exact 2m-th power of the substep's determinant
        omega, omega0, tau = 2.0, 0.7, 3.0
        whole = heisenberg(one_segment(omega, omega0, tau), 2 * m)
        halves = heisenberg(DiscretizedProfile(omega0=omega0, tau=tau / 2, samples=np.array([omega, omega]),
                                               t_final=tau), m)
        assert max(abs(whole[0] - halves[0]), abs(whole[1] - halves[1])) <= 1e-14 * abs(whole[0])
        theta = Fraction(omega * (tau / (2 * m)))
        a, bt = 1 - theta ** 2 / 2 + theta ** 4 / 24, theta - theta ** 3 / 6
        det_less_one = float(a * a + bt * bt - 1)  # one substep's, of size theta^6/72
        exact = -math.expm1(2 * m * math.log1p(det_less_one))
        for drift in (whole[2], halves[2]):
            assert abs(drift - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 8, 9, 19])
    def test_block_product_matches_a_sequential_matmul(self, monkeypatch, n_steps):
        # random frequencies give segment matrices that do not commute; blocks
        # of 8 put block boundaries inside the ladder and at its ends
        omega = np.random.default_rng(n_steps).uniform(0.5, 2.0, size=n_steps)
        dprof = DiscretizedProfile(omega0=1.0, tau=0.1, samples=omega, t_final=0.1 * n_steps)
        want = np.eye(2)
        for w in omega:
            c, s = math.cosh(math.log(w)), math.sinh(math.log(w))
            x = -1j * w * (dprof.tau / 2) * np.array([[c, s], [-s, -c]])
            step = np.eye(2) + x + x @ x / 2 + x @ x @ x / 6 + x @ x @ x @ x / 24
            want = np.linalg.matrix_power(step, 2) @ want
        whole_drift = heisenberg(dprof, 2)[2]
        monkeypatch.setattr(oracle, "HEISENBERG_BLOCK", 8)
        u, v, drift = heisenberg(dprof, 2)
        np.testing.assert_allclose([u, v], want[0], rtol=1e-12, atol=0.0)
        assert drift == pytest.approx(whole_drift, rel=1e-12, abs=0.0)  # by default, also 1e-12 absolute
        assert drift == pytest.approx(abs(1.0 - np.linalg.det(want)), abs=1e-14)
        if n_steps > 1:  # the order of the product shows
            u_rev, v_rev, _ = heisenberg(dataclasses.replace(dprof, samples=omega[::-1].copy()), 2)
            assert abs(u_rev - u) + abs(v_rev - v) > 1e-6 * abs(u)

    @pytest.mark.parametrize("preset", ["fig2", "fig4"])
    def test_pair_product_matches_a_general_matrix_product(self, preset):
        # the same RK4 segment matrices, held whole and multiplied entry by entry in heisenberg's
        # order: pairwise within each block, then onto the running product.  (matmul rounds its
        # complex products otherwise, and the ladder's conditioning lifts that to 1.3e-14 (fig2) and
        # 7.9e-13 (fig4) of |u|, against either product.)  Each matrix is the step polynomial's value
        # lam = P(-i theta) on M's +1 eigenvector, in polar form as heisenberg takes it, with |lam|^2 - 1
        # (of size theta^6) summed apart from the 1: lam's rounded parts move the product by up to
        # 1e-12 (fig4), and abs(lam), rounded alike on every segment, by 4e-12.
        dprof = preset_ladder(preset)
        n_sub = oracle.pair_substeps(dprof)
        assert n_sub == 1
        theta = dprof.samples * dprof.tau
        t2 = theta * theta
        lam = 1.0 - t2 / 2.0 + t2 * t2 / 24.0 - 1j * (theta - theta * t2 / 6.0)  # P(-i theta)
        small = -t2 / 2.0 + t2 * t2 / 24.0  # lam.real - 1
        power = np.sqrt(1.0 + (small * (2.0 + small) + lam.imag ** 2)) * np.exp(1j * np.angle(lam))
        c, s = np.cosh(np.log(dprof.samples)), np.sinh(np.log(dprof.samples))
        m = np.moveaxis(np.array([[c, s], [-s, -c]]), -1, 0)
        matrices = power.real[:, None, None] * np.eye(2) + 1j * power.imag[:, None, None] * m

        def product(x, y):  # x[k] y[k], every entry formed
            return np.stack([np.stack([x[:, i, 0] * y[:, 0, j] + x[:, i, 1] * y[:, 1, j] for j in (0, 1)], -1)
                             for i in (0, 1)], -2)

        want = np.eye(2, dtype=np.complex128)[None]
        for start in range(0, dprof.n_steps, oracle.HEISENBERG_BLOCK):
            block = matrices[start:start + oracle.HEISENBERG_BLOCK]
            while (h := len(block) // 2) > 0:
                block = np.concatenate([product(block[1:2 * h:2], block[0:2 * h:2]), block[2 * h:]])
            want = product(block, want)
        u, v, _ = heisenberg(dprof, n_sub)
        assert max(abs(u - want[0, 0, 0]), abs(v - want[0, 0, 1])) <= 1e-14 * abs(want[0, 0, 0])

    def test_scratch_is_small_and_does_not_grow_with_the_ladder(self):
        # fig2's 150k-segment ladder, and the same ladder four times over
        dprof = preset_ladder("fig2")
        long = dataclasses.replace(dprof, samples=np.tile(dprof.samples, 4), t_final=4.0 * dprof.t_final)
        assert (dprof.n_steps, long.n_steps) == (150_000, 600_000)
        heisenberg(dprof, 4)
        peaks = []
        tracemalloc.start()
        try:
            for ladder in (dprof, long):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                heisenberg(ladder, 4)
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1e6)
        finally:
            tracemalloc.stop()
        assert peaks[0] <= 1.0, peaks
        assert abs(peaks[1] - peaks[0]) <= 0.05, peaks

    @pytest.mark.parametrize("preset", ["fig1", "fig2", "fig4"])
    def test_pair_is_the_folds_p_q(self, preset):
        dprof = preset_ladder(preset)
        _, p, q, _, _ = kernels.fold_ladder(dprof.samples, dprof.omega0, dprof.tau, dprof.n_steps)
        u, v, drift = heisenberg(dprof, 4)
        assert abs(u - p[-1]) <= 1e-9 * abs(p[-1])
        assert abs(v - q[-1]) <= 1e-9 * abs(p[-1])
        assert drift <= 1e-9

    @pytest.mark.parametrize("preset", ["fig4", "fig5"])
    def test_pair_keeps_its_digits_as_the_substeps_grow(self, preset):
        # RK4's own error is far below rounding here, so the distance is rounding; squaring
        # numbers next to 1 let it grow with n_sub, to 4e-10 (fig4) and 7e-10 (fig5) at 256
        dprof = preset_ladder(preset)
        _, p, q, _, _ = kernels.fold_ladder(dprof.samples, dprof.omega0, dprof.tau, dprof.n_steps)
        for n_sub in (1, 16, 256, 1024):
            u, v, _ = heisenberg(dprof, n_sub)
            assert max(abs(u - p[-1]), abs(v - q[-1])) / abs(p[-1]) <= 1e-11, n_sub

    def test_constant_profile_does_not_squeeze(self):
        u, v, _ = heisenberg(discretize(constant(1.3), 5.0, 500), 4)
        assert v == 0.0
        assert abs(u) == pytest.approx(1.0, abs=1e-12)

    def test_method_is_fourth_order(self):
        # against the exact segment product, the fold's; each halving of the
        # substep cuts the pair error about 16x
        dprof = discretize(sudden_jump(1.5), 2.0, 40)
        final = evolve(dprof).final
        errors = [oracle.pair_error(*heisenberg(dprof, n_sub)[:2], *final) for n_sub in (1, 2, 4, 8)]
        assert errors[-1] > 1e-13  # still above rounding
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 12.0

    def test_coarse_substep_raises(self):
        dprof = discretize(constant(1e3), 1.0, 1000)
        with pytest.raises(LeakageError, match="too coarse") as err:
            heisenberg(dprof, 4)
        assert err.value.leakage > 1e-6

    @pytest.mark.parametrize("profile, t_final, n_steps", [
        (relaxing_pulse(B=3.0 * math.pi), 30.0, 30_000),
        (janszky_adam(omega1=1.5), 8.0, 8000),
        (sudden_jump(2.2), 0.7, 2000),
    ])
    def test_vacuum_image_matches_apply_to_state(self, profile, t_final, n_steps):
        dprof = discretize(profile, t_final, n_steps)
        state, diag, _ = oracle.evolve_number_state(dprof, 0, 4)
        method = apply_to_state(evolve(dprof).final, FockState.vacuum(), n_max=diag.dim - 1).normalized()
        overlap = np.vdot(method.amplitudes, state.amplitudes)
        aligned = method.amplitudes * (overlap / abs(overlap))
        assert np.max(np.abs(state.amplitudes - aligned)) <= 1e-10
        assert diag.leakage <= 1e-6 and diag.n_sub == 4

    def test_basis_doubles_until_the_state_fits(self):
        dprof = discretize(sudden_jump(2.2), 0.7, 2000)
        _, pinned_diag, _ = oracle.evolve_number_state(dprof, 0, 4, dim=256)
        _, diag, _ = oracle.evolve_number_state(dprof, 0, 4)
        assert diag.dim == 256 and diag.leakage == pinned_diag.leakage
        with pytest.raises(LeakageError, match="state too wide for the truncated basis"):
            oracle.evolve_number_state(dprof, 0, 4, dim=16)


def square_wave_ladder():
    profile = janszky_adam(omega1=1.5)
    t_final = 4 * profile.period  # r = 1.6, as in acceptance gate c10
    return discretize(profile, t_final, int(t_final * 2000))


class TestNumberStateImage:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    @pytest.mark.parametrize("profile, t_final, n_steps", [
        (relaxing_pulse(B=3.0 * math.pi), 30.0, 30_000),
        (parametric_resonance(2.0, 1.04), 30.0, 37_500),
    ], ids=["pulse_3pi", "eps2"])
    def test_matches_apply_to_state(self, profile, t_final, n_steps, n):
        dprof = discretize(profile, t_final, n_steps)
        state, diag, _ = oracle.evolve_number_state(dprof, n, 4)
        initial = FockState.basis_state(n)
        method = apply_to_state(evolve(dprof).final, initial, n_max=diag.dim - 1).normalized()
        overlap = np.vdot(method.amplitudes, state.amplitudes)
        aligned = method.amplitudes * (overlap / abs(overlap))
        assert np.max(np.abs(state.amplitudes - aligned)) <= 1e-10
        assert np.all(state.amplitudes[1 - n % 2::2] == 0.0)  # parity is kept exactly
        assert diag.leakage <= 1e-6 and diag.n_sub == 4

    def test_image_is_normalized_over_all_levels(self):
        # leakage is 1 less the kept population of the image normalized over all levels, so it
        # agrees with the population a wide basis puts past the small one only if that norm is 1
        dprof = square_wave_ladder()
        for n in (0, 1, 2):
            _, diag, _ = oracle.evolve_number_state(dprof, n, 4, dim=256)
            wide, _, _ = oracle.evolve_number_state(dprof, n, 4, dim=1024)
            assert diag.leakage > 1e-10
            assert abs(diag.leakage - np.sum(np.abs(wide.amplitudes[252:]) ** 2)) <= 1e-14

    def test_images_of_number_states_are_orthonormal(self):
        images = [oracle.evolve_number_state(square_wave_ladder(), n, 4, dim=1024)[0].amplitudes
                  for n in range(6)]
        gram = np.array([[np.vdot(a, b) for b in images] for a in images])
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-13

    def test_basis_too_small_raises(self):
        # n = 5 on the square wave needs 512 levels
        dprof = square_wave_ladder()
        assert oracle.evolve_number_state(dprof, 5, 4)[1].dim == 512
        with pytest.raises(LeakageError, match="state too wide for the truncated basis") as err:
            oracle.evolve_number_state(dprof, 5, 4, dim=256)
        assert err.value.leakage > 1e-6

    def test_rejects_a_negative_number(self):
        with pytest.raises(ValueError):
            oracle.evolve_number_state(square_wave_ladder(), -1, 4)


def exact_vacuum_fidelity(u, v, p, q):
    """:func:`oracle.vacuum_fidelity`'s formula evaluated exactly on the same doubles.

    ``F^2 = (1 - |alpha|^2) (1 - |a_o|^2) / |1 - conj(a_o) alpha|^2`` is
    rational in the inputs, so it is formed in fractions and rooted to 40
    digits.  ``alpha = q/conj(p)`` is the double the method forms.
    """
    u, v, alpha = ((Fraction(z.real), Fraction(z.imag)) for z in (u, v, triple(p, q)[0]))
    uu = u[0] ** 2 + u[1] ** 2
    a_o = ((v[0] * u[0] - v[1] * u[1]) / uu, (v[0] * u[1] + v[1] * u[0]) / uu)  # v/conj(u)
    inside = (1 - alpha[0] ** 2 - alpha[1] ** 2) * (1 - a_o[0] ** 2 - a_o[1] ** 2)
    if inside <= 0:  # as the formula's max(0, ...)
        return 0.0
    den = (1 - a_o[0] * alpha[0] - a_o[1] * alpha[1]) ** 2 + (a_o[0] * alpha[1] - a_o[1] * alpha[0]) ** 2
    f2 = inside / den
    with localcontext() as ctx:
        ctx.prec = 40
        return float((Decimal(f2.numerator) / Decimal(f2.denominator)).sqrt())


def fig4_ladder(t_final):
    return preset_ladder("fig4", t_final=float(t_final), n_steps=int(2000 * t_final))  # the preset's density


class TestVacuumFidelity:
    def test_rounding_bound_on_random_pairs(self, rng):
        # the method's pair (p, q) and an oracle pair (u, v) a little off it, both of unit determinant
        for _ in range(2000):
            r = rng.uniform(0.0, 20.0)
            phases = rng.uniform(-math.pi, math.pi, size=2)
            dr, du, dv = 10.0 ** rng.uniform(-17.0, -6.0, size=3) * rng.choice([-1.0, 1.0], size=3)
            p = math.cosh(r) * cmath.exp(1j * phases[0])
            q = math.sinh(r) * cmath.exp(1j * phases[1])
            u = math.cosh(r + dr) * cmath.exp(1j * (phases[0] + du))
            v = math.sinh(r + dr) * cmath.exp(1j * (phases[1] + dv))
            bound = oracle.FIDELITY_ROUNDING * abs(p) ** 2
            fid = oracle.vacuum_fidelity(u, v, p, q)
            if math.isnan(fid):  # the denominator rounded to 0, where no check reads F
                assert bound >= 1.0, r
            else:
                assert abs(fid - exact_vacuum_fidelity(u, v, p, q)) <= bound, (r, dr, du, dv)

    @pytest.mark.parametrize("t_final", [10, 30, 45, 60, 75, 90, 120])
    def test_rounding_bound_on_fig4_ladders(self, t_final):
        # r = 1.6, 4.9, 7.1, 9.3, 11.8, 14.2 and 18.7
        dprof = fig4_ladder(t_final)
        p, q = evolve(dprof).final
        u, v, _ = heisenberg(dprof, oracle.pair_substeps(dprof))
        fid = oracle.vacuum_fidelity(u, v, p, q)
        assert abs(fid - exact_vacuum_fidelity(u, v, p, q)) <= oracle.FIDELITY_ROUNDING * abs(p) ** 2

    @pytest.mark.parametrize("dprof", [
        preset_ladder("fig1"), preset_ladder("fig2"), preset_ladder("fig5"), fig4_ladder(10),
    ], ids=["fig1", "fig2", "fig5", "fig4_t10"])
    def test_agrees_with_the_fidelity_in_a_number_basis(self, dprof):
        n_sub = oracle.pair_substeps(dprof)
        oracle_state, diag, (u, v) = oracle.evolve_number_state(dprof, 0, n_sub)
        final = evolve(dprof).final
        method_state = apply_to_state(final, FockState.vacuum(), n_max=diag.dim - 1)
        assert diag.n_sub == n_sub
        assert abs(oracle.vacuum_fidelity(u, v, *final) - fidelity(method_state.normalized(), oracle_state)) <= 1e-12

    def test_far_apart_pairs_give_the_overlap_of_two_squeezed_vacua(self):
        # same r, opposite squeezing phase: 1/cosh(2r), as the number-basis
        # overlap in TestFidelity
        r = 0.3
        p, q = math.cosh(r), math.sinh(r)
        assert oracle.vacuum_fidelity(p, -q, p, q) == pytest.approx(1.0 / math.cosh(2.0 * r), abs=1e-15)


class TestPairSubsteps:
    @pytest.mark.parametrize("omega, tau, n_sub", [
        (1.5, 5e-4, 1),        # fig4's ladder: omega*tau = 7.5e-4
        (1.0, 1e-3, 1),        # exactly THETA_MAX
        (1.0, 1.5e-3, 2),
        (1e3, 1e-3, 1000),
        (1.0, 10.0, 10_000),
        pytest.param(1e200, 1.0, math.ceil(1e200 / 1e-3), id="past-int64"),
    ])
    def test_substep_angle_stays_within_theta_max(self, omega, tau, n_sub):
        dprof = DiscretizedProfile(omega0=1.0, tau=tau, samples=np.array([1.0, omega, 1.0]), t_final=3 * tau)
        assert oracle.pair_substeps(dprof) == n_sub
        assert omega * tau / n_sub <= oracle.THETA_MAX

    def test_a_count_past_float_range_raises(self):
        # the message names max(omega)*tau, which is finite, not the count, which is not
        dprof = DiscretizedProfile(omega0=1.0, tau=1.0, samples=np.array([1.0, 1e308]), t_final=2.0)
        with pytest.raises(ValueError, match=r"max\(omega\)\*tau = 1e\+308 takes more RK4 substeps"):
            oracle.pair_substeps(dprof)


class TestFidelity:
    def test_identical_states(self):
        assert fidelity(FockState.vacuum(8), FockState.vacuum(8)) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        assert fidelity(FockState.vacuum(4), FockState.basis_state(2, 4)) == 0.0

    def test_length_padding(self):
        assert fidelity(FockState.vacuum(2), FockState.vacuum(40)) == pytest.approx(1.0)

    def test_squeezed_pair_overlap_matches_direct_inner_product(self):
        # same r, opposite squeezing phase; value pinned by the direct inner
        # product of the two amplitude sequences (equals 1/cosh(2r))
        a = squeezed_vacuum(0.3, 0.0, 120)
        b = squeezed_vacuum(0.3, math.pi, 120)
        assert fidelity(a, b) == pytest.approx(0.84355068762180674, abs=1e-12)
        assert fidelity(a, b) == pytest.approx(1.0 / math.cosh(0.6), abs=1e-12)

    def test_rejects_unnormalized_input(self):
        bad = FockState(np.array([0.5, 0.5], dtype=np.complex128))
        with pytest.raises(ValueError):
            fidelity(bad, FockState.vacuum(1))
