import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11squeeze import (
    IDENTITY,
    PropagatorAccumulator,
    StepCoeffs,
    alpha_via_gcf,
    compose,
    fold,
    step_coeffs,
)
from su11squeeze.errors import ContinuedFractionError, SingularCompositionError


def general_form_step(omega_j, omega_0, tau, sign=+1):
    """Independent evaluation path for the step coefficients.

    Builds the exponent coefficients of the single-exponential form and
    pushes them through the generic disentangling formulas, with the
    auxiliary square root taken as nu = sign*i*omega_j*tau.  Both sign
    choices must give the same disentangled triple.
    """
    rho = 0.5 * math.log(omega_j / omega_0)
    lam_pm = -1j * omega_j * tau * math.sinh(2.0 * rho)
    lam_c = -2j * omega_j * tau * math.cosh(2.0 * rho)
    nu = sign * 1j * omega_j * tau
    assert cmath.isclose(nu * nu, 0.25 * lam_c**2 - lam_pm**2, rel_tol=1e-12)
    big_c = (cmath.cosh(nu) - lam_c / (2.0 * nu) * cmath.sinh(nu)) ** -2
    big_pm = 2.0 * lam_pm * cmath.sinh(nu) / (2.0 * nu * cmath.cosh(nu) - lam_c * cmath.sinh(nu))
    return big_pm, big_c


class TestStepCoeffs:
    def test_no_modulation_is_pure_rotation(self):
        step = step_coeffs(1.0, 1.0, 0.1)
        assert step.lam_plus == 0j
        assert step.lam_minus == 0j
        assert cmath.isclose(step.lam_c, cmath.exp(-0.2j), rel_tol=1e-15)
        assert step.rho_j == 0.0

    def test_full_period_revival(self):
        # omega_j*tau = pi: the sine kills the ladder terms, lam_c = (cos pi)^-2 = 1
        step = step_coeffs(2.0, 1.0, math.pi / 2.0)
        assert abs(step.lam_plus) < 1e-15
        assert cmath.isclose(step.lam_c, 1.0 + 0j, abs_tol=1e-14)

    @pytest.mark.parametrize("omega_j,omega_0,tau", [
        (2.0, 1.0, 0.1),
        (0.7, 1.0, 0.03),
        (1.5, 2.0, 0.4),
        (1.04, 1.0, 1e-3),
    ])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matches_general_disentangle_forms(self, omega_j, omega_0, tau, sign):
        step = step_coeffs(omega_j, omega_0, tau)
        ref_pm, ref_c = general_form_step(omega_j, omega_0, tau, sign)
        assert abs(step.lam_plus - ref_pm) < 1e-12
        assert abs(step.lam_c - ref_c) < 1e-12

    def test_frozen_reference_triple(self):
        # frozen from general_form_step(2.0, 1.0, 0.1); both nu signs agree bit-exactly
        step = step_coeffs(2.0, 1.0, 0.1)
        assert abs(step.lam_plus - (-0.036198983866132531 - 0.14286015500040239j)) < 1e-12
        assert abs(step.lam_c - (0.86023806299242644 - 0.46585773177606238j)) < 1e-12

    def test_lam_plus_equals_lam_minus_bitwise(self, rng):
        for _ in range(50):
            step = step_coeffs(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0), rng.uniform(1e-4, 2.0))
            assert step.lam_plus == step.lam_minus

    def test_modulus_bounds(self, rng):
        # |lam_pm| < 1 strictly and |lam_pm|^2 + |lam_c| = 1 for every step
        for _ in range(200):
            step = step_coeffs(rng.uniform(0.2, 5.0), 1.0, rng.uniform(1e-4, 3.0))
            assert abs(step.lam_plus) < 1.0
            assert abs(step.lam_c) != 0.0
            assert abs(abs(step.lam_plus) ** 2 + abs(step.lam_c) - 1.0) < 1e-14

    @pytest.mark.parametrize("omega_j,omega_0,tau", [
        (0.0, 1.0, 0.1), (-1.0, 1.0, 0.1), (1.0, 0.0, 0.1), (1.0, -2.0, 0.1),
        (1.0, 1.0, 0.0), (1.0, 1.0, -0.5),
    ])
    def test_rejects_nonpositive_inputs(self, omega_j, omega_0, tau):
        with pytest.raises(ValueError):
            step_coeffs(omega_j, omega_0, tau)

    def test_rejects_nonfinite_coefficients(self):
        with pytest.raises(ValueError):
            StepCoeffs(complex(math.nan, 0), 1 + 0j, 0j, 1.0, 0.1, 0.0)


class TestCompose:
    def test_identity_yields_the_step(self):
        step = step_coeffs(1.7, 1.0, 0.2)
        acc = compose(IDENTITY, step)
        assert acc.alpha == step.lam_plus
        assert acc.beta == step.lam_c
        assert acc.gamma == step.lam_minus
        assert acc.steps_applied == 1

    def test_zero_alpha_accumulator(self):
        # with alpha = 0 the denominator is 1 and the update is linear
        acc = PropagatorAccumulator(0j, 0.4 + 0.1j, 0.2 - 0.3j, 3)
        step = step_coeffs(1.3, 1.0, 0.15)
        out = compose(acc, step)
        assert out.alpha == step.lam_plus
        assert out.beta == acc.beta * step.lam_c
        assert out.gamma == acc.gamma + step.lam_minus * acc.beta

    def test_constant_frequency_group_consistency(self):
        # N equal steps must reproduce the single-step closed form over N*tau
        n, omega1, tau = 1000, 1.5, 1e-3
        acc = IDENTITY
        step = step_coeffs(omega1, 1.0, tau)
        for _ in range(n):
            acc = compose(acc, step)
        whole = step_coeffs(omega1, 1.0, n * tau)
        assert abs(acc.alpha - whole.lam_plus) < 1e-12
        assert abs(acc.beta - whole.lam_c) < 1e-12
        assert abs(acc.gamma - whole.lam_minus) < 1e-12

    def test_accumulator_reread_as_step_composes_associatively(self):
        # constant-frequency case: the 5-step accumulator is itself a valid step
        steps = [step_coeffs(1.4, 1.0, 0.02)] * 10
        first = fold(steps[:5])
        as_step = StepCoeffs(first.alpha, first.beta, first.gamma, 1.4, 0.1, 0.5 * math.log(1.4))
        acc = compose(IDENTITY, as_step)
        for step in steps[5:]:
            acc = compose(acc, step)
        direct = fold(steps)
        assert abs(acc.alpha - direct.alpha) < 1e-13
        assert abs(acc.beta - direct.beta) < 1e-13
        assert abs(acc.gamma - direct.gamma) < 1e-13

    def test_normalization_preserved_on_random_ladders(self, rng):
        for _ in range(10):
            n = int(rng.integers(100, 3000))
            tau = float(rng.uniform(1e-4, 1e-2))
            acc = IDENTITY
            for omega in rng.uniform(0.5, 2.0, n):
                acc = compose(acc, step_coeffs(float(omega), 1.0, tau))
                assert acc.norm_defect <= 1e-10
            assert abs(acc.alpha) < 1.0

    def test_identity_absorption_literal(self, rng):
        acc = PropagatorAccumulator(0.3 - 0.2j, 0.8 + 0.31j, 0.05j, 7)
        unit = StepCoeffs(0j, 1.0 + 0j, 0j, 1.0, 1.0, 0.0)
        out = compose(acc, unit)
        assert out.alpha == acc.alpha
        assert out.beta == acc.beta
        assert out.gamma == acc.gamma

    def test_identity_absorption_full_period_step(self):
        acc = PropagatorAccumulator(0.3 - 0.2j, 0.8 + 0.31j, 0.05j, 7)
        unit = step_coeffs(2.0, 1.0, math.pi / 2.0)  # sin(omega*tau) = 0 revival
        out = compose(acc, unit)
        assert abs(out.alpha - acc.alpha) < 1e-14
        assert abs(out.beta - acc.beta) < 1e-14
        assert abs(out.gamma - acc.gamma) < 1e-14

    def test_singular_denominator_raises(self):
        # unphysical coefficients crafted so 1 - alpha*lam_minus ~ 0
        acc = PropagatorAccumulator(0.5 + 0j, 0.75 + 0j, 0j, 1)
        bad = StepCoeffs(2.0 + 0j, 1.0 + 0j, 2.0 + 0j, 1.0, 0.1, 0.0)
        with pytest.raises(SingularCompositionError) as err:
            compose(acc, bad)
        assert err.value.step == 2


#: Random ladders of up to 200 steps in the frequency band of the presets.
ladders = st.tuples(
    st.lists(st.floats(0.5, 2.0), min_size=1, max_size=200),
    st.floats(1e-3, 0.5),
).map(lambda lt: [step_coeffs(w, 1.0, lt[1]) for w in lt[0]])


def as_step(acc):
    """Read a composed propagator back as one step (the trailing fields are labels only)."""
    return StepCoeffs(acc.alpha, acc.beta, acc.gamma, 1.0, 1.0, 0.0)


class TestComposeProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(steps=ladders)
    def test_norm_constraint_at_every_step(self, steps):
        acc = IDENTITY
        for step in steps:
            acc = compose(acc, step)
            assert acc.norm_defect <= 1e-12
            assert abs(acc.alpha) < 1.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(steps=ladders, data=st.data())
    def test_associative_when_a_tail_is_read_back_as_a_step(self, steps, data):
        split = data.draw(st.integers(0, len(steps)))
        acc = compose(fold(steps[:split]), as_step(fold(steps[split:])))
        direct = fold(steps)
        assert abs(acc.alpha - direct.alpha) <= 1e-12
        assert abs(acc.beta - direct.beta) <= 1e-12
        assert abs(acc.gamma - direct.gamma) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(steps=ladders)
    def test_identity_on_either_side(self, steps):
        # the identity's zero alpha makes the denominator exactly 1, so both sides are exact
        step, acc = steps[-1], fold(steps)
        first = compose(IDENTITY, step)
        assert (first.alpha, first.beta, first.gamma) == (step.lam_plus, step.lam_c, step.lam_minus)
        last = compose(acc, as_step(IDENTITY))
        assert (last.alpha, last.beta, last.gamma) == (acc.alpha, acc.beta, acc.gamma)


class TestAlphaViaGcf:
    def test_single_step_is_the_bare_term(self):
        step = step_coeffs(1.8, 1.0, 0.07)
        assert alpha_via_gcf([step]) == step.lam_plus

    def test_two_step_closed_form(self):
        s1 = step_coeffs(1.8, 1.0, 0.07)
        s2 = step_coeffs(0.6, 1.0, 0.11)
        expected = s2.lam_plus + s1.lam_plus * s2.lam_c / (1.0 - s1.lam_plus * s2.lam_minus)
        assert abs(alpha_via_gcf([s1, s2]) - expected) < 1e-15
        assert abs(fold([s1, s2]).alpha - expected) < 1e-15

    def test_agrees_with_recurrence_on_modulated_ladder(self):
        n, t_final = 1000, 1.0
        tau = t_final / n
        steps = []
        for j in range(1, n + 1):
            omega = 0.5 * ((1.0 + 1.04) + (1.0 - 1.04) * math.cos(2.04 * j * tau))
            steps.append(step_coeffs(omega, 1.0, tau))
        via_fold = fold(steps).alpha
        via_gcf = alpha_via_gcf(steps)
        assert abs(via_fold - via_gcf) / abs(via_fold) < 1e-10

    def test_zero_innermost_term_raises(self):
        flat = step_coeffs(1.0, 1.0, 0.1)  # rho = 0 kills lam_plus
        tilted = step_coeffs(1.5, 1.0, 0.1)
        with pytest.raises(ContinuedFractionError):
            alpha_via_gcf([flat, tilted])

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            alpha_via_gcf([])


def test_identity_element_properties():
    assert IDENTITY.alpha == 0j
    assert IDENTITY.beta == 1.0 + 0j
    assert IDENTITY.gamma == 0j
    assert IDENTITY.steps_applied == 0
    assert IDENTITY.norm_defect == 0.0
