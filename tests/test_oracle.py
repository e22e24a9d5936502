import cmath
import math

import numpy as np
import pytest

from su11squeeze import (
    FockState,
    TruncatedHamiltonian,
    apply_to_state,
    constant,
    discretize,
    evolve,
    fidelity,
    integrate,
    janszky_adam,
    relaxing_pulse,
    sudden_jump,
)
from su11squeeze import kernels
from su11squeeze.errors import LeakageError


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
        state, diag = integrate(dprof, FockState.vacuum(), dt_sub=dprof.tau / 2, dim=32)
        assert fidelity(state, FockState.vacuum(31)) == pytest.approx(1.0, abs=1e-10)
        assert diag.leakage < 1e-12

    def test_quarter_period_jump_builds_the_analytic_squeezed_vacuum(self):
        # after holding omega1 for a quarter period the squeezing parameter
        # peaks at ln(omega1) with squeezing phase zero
        omega1 = 1.5
        t_peak = math.pi / (2.0 * omega1)
        dprof = discretize(sudden_jump(omega1), t_peak, 2000)
        state, diag = integrate(dprof, FockState.vacuum(), dt_sub=dprof.tau / 4, dim=64)
        target = squeezed_vacuum(math.log(omega1), 0.0, 63)
        assert fidelity(state, target) >= 0.9999
        assert diag.norm_drift < 1e-8

    def test_cross_method_agreement_on_the_pulse(self):
        dprof = discretize(relaxing_pulse(B=0.5 * math.pi), 30.0, 30_000)
        oracle_state, diag = integrate(dprof, FockState.vacuum(), dt_sub=dprof.tau / 4, dim=128)
        traj = evolve(dprof)
        method_state = apply_to_state(traj.final, FockState.vacuum(), n_max=127)
        assert fidelity(method_state.normalized(), oracle_state) >= 0.999
        assert diag.leakage < 1e-8

    def test_cross_method_agreement_on_a_number_state(self):
        # same propagator applied to |2> through the operator series
        dprof = discretize(sudden_jump(1.5), 0.9, 3000)
        initial = FockState.basis_state(2, 2)
        oracle_state, _ = integrate(dprof, initial, dt_sub=dprof.tau / 4, dim=96)
        traj = evolve(dprof)
        method_state = apply_to_state(traj.final, initial, n_max=95)
        assert fidelity(method_state.normalized(), oracle_state) >= 0.9999

    def test_parity_is_conserved_exactly(self):
        dprof = discretize(janszky_adam(omega1=1.5), 8.0, 8000)
        state, _ = integrate(dprof, FockState.vacuum(), dt_sub=dprof.tau / 2, dim=128)
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
            integrate(dprof, FockState.vacuum(), dt_sub=dprof.tau / 2, dim=16)
        assert err.value.leakage > 1e-6

    def test_auto_dimension_doubling_recovers(self):
        dprof = discretize(sudden_jump(2.2), 0.7, 2000)
        state, diag = integrate(dprof, FockState.vacuum(), dt_sub=dprof.tau / 2)
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
        with pytest.raises(LeakageError, match="--oracle-dt-sub") as err:
            integrate(dprof, FockState.vacuum(), dt_sub=dprof.tau / 4)
        assert dims == [256]
        assert err.value.leakage > 1e-6

    def test_diverged_integration_raises(self):
        # dt * omega0 ~ 1e197 overflows the step matrix to nan
        dprof = discretize(constant(1e200), 1.0, 1000)
        with np.errstate(all="ignore"), pytest.raises(LeakageError, match="--oracle-dt-sub"):
            integrate(dprof, FockState.vacuum(), dt_sub=dprof.tau / 4)

    def test_initial_state_must_fit_the_basis(self):
        wide = FockState.basis_state(14, 14)
        dprof = discretize(constant(), 1.0, 100)
        with pytest.raises(LeakageError):
            integrate(dprof, wide, dt_sub=dprof.tau, dim=16)

    def test_substep_must_not_exceed_segment(self):
        dprof = discretize(constant(), 1.0, 100)
        with pytest.raises(ValueError):
            integrate(dprof, FockState.vacuum(), dt_sub=1.0, dim=16)


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
