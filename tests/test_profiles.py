import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from su11squeeze import (
    constant,
    discretize,
    eval_profile,
    janszky_adam,
    load_tabulated,
    parametric_resonance,
    relaxing_pulse,
    sudden_jump,
    tabulated,
)
from su11squeeze import kernels
from su11squeeze.errors import ProfileDomainError, TableRangeError
from su11squeeze.profiles import Profile


def all_kinds():
    return [
        constant(),
        relaxing_pulse(B=3 * math.pi),
        parametric_resonance(epsilon=2.04, omega_l=1.04),
        janszky_adam(omega1=1.5),
        sudden_jump(omega1=1.5),
        tabulated([0.0, 1.0, 2.0], [1.0, 1.2, 1.1]),
    ]


@pytest.mark.parametrize("profile", all_kinds(), ids=lambda p: p.kind)
def test_reference_frequency_before_t_zero(profile):
    assert eval_profile(profile, -1.0) == profile.omega0
    assert eval_profile(profile, 0.0) == profile.omega0


class TestRelaxingPulse:
    def test_boundary_value(self):
        assert eval_profile(relaxing_pulse(B=3 * math.pi), 0.0) == 1.0

    def test_formula_spot_checks(self, rng):
        # five random ladder samples against a direct, inline evaluation
        profile = relaxing_pulse(B=0.5 * math.pi)
        dprof = discretize(profile, 150.0, 150_000)
        for j in rng.integers(1, 150_001, size=5):
            t = j * dprof.tau
            expected = 1.0 * (1.0 + 0.5 * t * math.exp(-t / (0.5 * math.pi)))
            assert dprof.samples[j - 1] == pytest.approx(expected, rel=1e-12)

    def test_peak_location(self):
        # the bump peaks at t = B and decays afterwards
        B = 2.0
        profile = relaxing_pulse(B=B)
        assert eval_profile(profile, B) > eval_profile(profile, B / 2)
        assert eval_profile(profile, B) > eval_profile(profile, 2 * B)


class TestParametricResonance:
    def test_continuous_at_zero(self):
        profile = parametric_resonance(epsilon=2.04, omega_l=1.04)
        assert eval_profile(profile, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_trough_reaches_omega_l(self):
        profile = parametric_resonance(epsilon=2.04, omega_l=1.04)
        t = math.pi / (2.04 * 1.0)  # cos = -1
        assert eval_profile(profile, t) == pytest.approx(1.04, rel=1e-12)

    def test_range_is_between_omega0_and_omega_l(self):
        profile = parametric_resonance(epsilon=1.96, omega_l=1.04)
        ts = np.linspace(1e-6, 50.0, 10_001)
        values = eval_profile(profile, ts)
        assert np.all(values >= 1.0 - 1e-12)
        assert np.all(values <= 1.04 + 1e-12)


class TestJanszkyAdam:
    def test_defaults_are_quarter_periods(self):
        profile = janszky_adam(omega1=1.5)
        assert profile.period == pytest.approx(math.pi / 3.0 + math.pi / 2.0)
        assert eval_profile(profile, math.pi / 3.0) == 1.5
        assert eval_profile(profile, math.pi / 3.0 + 1e-9) == 1.0

    def test_two_values_only(self):
        profile = janszky_adam(omega1=1.5)
        dprof = discretize(profile, 20.0, 8000)
        assert set(np.unique(dprof.samples)) == {1.0, 1.5}

    def test_starts_high(self):
        profile = janszky_adam(omega1=1.5)
        assert eval_profile(profile, 1e-9) == 1.5

    def test_custom_holds(self):
        profile = janszky_adam(omega1=2.0, hold_high=0.25, hold_low=0.75)
        assert eval_profile(profile, 0.2) == 2.0
        assert eval_profile(profile, 0.5) == 1.0
        assert eval_profile(profile, 1.2) == 2.0  # second cycle


class TestSuddenJump:
    def test_discretize_sees_only_the_new_frequency(self):
        dprof = discretize(sudden_jump(omega1=1.5), 1.0, 4)
        assert list(dprof.samples) == [1.5, 1.5, 1.5, 1.5]


class TestTabulated:
    def test_file_roundtrip(self, tmp_path):
        table = tmp_path / "omega.dat"
        table.write_text(
            "# time  frequency\n"
            "0.0  1.0\n"
            "1.0  1.2   # bump\n"
            "\n"
            "2.0  1.1\n"
        )
        profile = load_tabulated(table)
        assert profile.omega0 == 1.0
        assert eval_profile(profile, 0.5) == pytest.approx(1.1)
        assert eval_profile(profile, 1.5) == pytest.approx(1.15)

    def test_out_of_range_raises(self):
        profile = tabulated([0.0, 2.0], [1.0, 1.3])
        with pytest.raises(TableRangeError):
            eval_profile(profile, 2.5)

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValueError):
            tabulated([0.0, 1.0, 1.0], [1.0, 1.1, 1.2])

    def test_malformed_row_rejected(self, tmp_path):
        table = tmp_path / "bad.dat"
        table.write_text("0.0 1.0 extra\n")
        with pytest.raises(ValueError):
            load_tabulated(table)

    def test_nonpositive_sample_rejected_with_index(self, tmp_path):
        profile = tabulated([0.0, 1.0, 2.0], [1.0, -0.5, 1.0])
        with pytest.raises(ProfileDomainError) as err:
            discretize(profile, 2.0, 8)
        assert err.value.step is not None
        assert err.value.omega <= 0.0


class TestDiscretize:
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    def test_sample_that_is_not_positive_and_finite_is_refused_with_its_step(self, value):
        profile = Profile("constant", 1.0, lambda t: np.where(t > 2.5, value, 1.0))
        with pytest.raises(ProfileDomainError, match="omega_3 ") as err:
            discretize(profile, 5.0, 5)
        assert err.value.step == 3

    def test_overflowing_curve_is_refused_without_a_numpy_warning(self):
        profile = Profile("constant", 1.0, lambda t: np.exp(1e3 * t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProfileDomainError) as err:
                discretize(profile, 2.0, 4)
        assert (err.value.step, err.value.omega) == (2, math.inf)

    def test_constant_profile(self):
        dprof = discretize(constant(omega0=1.3), 5.0, 10)
        assert np.all(dprof.samples == 1.3)
        assert dprof.omega0 == 1.3

    def test_right_endpoint_sampling_is_exact(self):
        profile = parametric_resonance(epsilon=2.0, omega_l=1.04)
        dprof = discretize(profile, 7.0, 997)
        for j in (1, 17, 500, 997):
            assert dprof.samples[j - 1] == eval_profile(profile, j * dprof.tau)

    def test_midpoint_rule(self):
        profile = relaxing_pulse(B=math.pi)
        dprof = discretize(profile, 3.0, 30, rule="midpoint")
        for j in (1, 15, 30):
            assert dprof.samples[j - 1] == eval_profile(profile, (j - 0.5) * dprof.tau)

    def test_duration_identity(self):
        dprof = discretize(constant(), 150.0, 150_000)
        assert dprof.n_steps * dprof.tau == pytest.approx(150.0, abs=1e-12)

    def test_refinement_consistency(self):
        # shared sample instants agree exactly; new midpoints move by O(tau)
        profile = relaxing_pulse(B=0.5 * math.pi)
        n = 2000
        coarse = discretize(profile, 30.0, n)
        fine = discretize(profile, 30.0, 2 * n)
        assert np.array_equal(fine.samples[1::2], coarse.samples)
        # Lipschitz bound estimated from a dense numerical derivative
        ts = np.linspace(1e-6, 30.0, 100_001)
        lipschitz = np.max(np.abs(np.diff(eval_profile(profile, ts)) / np.diff(ts)))
        gap = np.max(np.abs(fine.samples[0::2] - coarse.samples))
        assert gap <= 1.5 * lipschitz * coarse.tau

    @pytest.mark.parametrize("t_final,n_steps", [(0.0, 10), (-1.0, 10), (1.0, 0)])
    def test_bad_grid_rejected(self, t_final, n_steps):
        with pytest.raises(ValueError):
            discretize(constant(), t_final, n_steps)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            discretize(constant(), 1.0, 10, rule="left")


def whole_array_samples(profile, t_final, n_steps, rule="right"):
    """The ladder as one evaluation over all N times, before any domain check."""
    times = np.arange(1, n_steps + 1, dtype=np.float64)
    if rule == "midpoint":
        times -= 0.5
    times *= t_final / n_steps
    with np.errstate(over="ignore", invalid="ignore"):
        return eval_profile(profile, times)


class TestBlockedDiscretize:
    N = 2 * kernels.BLOCK + 37  # two full blocks and a short one

    @pytest.mark.parametrize("rule", ["right", "midpoint"])
    @pytest.mark.parametrize("profile", all_kinds(), ids=lambda p: p.kind)
    def test_blocks_match_one_whole_array_evaluation(self, profile, rule):
        t_final = 2.0 if profile.kind == "tabulated" else 50.0
        dprof = discretize(profile, t_final, self.N, rule=rule)
        expected = whole_array_samples(profile, t_final, self.N, rule)
        assert dprof.samples.dtype == np.float64
        assert dprof.samples.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_first_bad_sample_in_a_later_block_is_refused_with_its_step(self, value):
        # tau = 1, so step j samples t = j; every step from BLOCK + 5 on is bad
        first = kernels.BLOCK + 5
        profile = Profile("constant", 1.0, lambda t: np.where(t >= first, value, 1.0))
        with pytest.raises(ProfileDomainError, match=f"omega_{first} ") as err:
            discretize(profile, float(self.N), self.N)
        assert err.value.step == first

    def test_table_range_error_in_a_later_block_names_the_same_t(self):
        t_end = (kernels.BLOCK + 100.25) / self.N  # the table ends inside the second block
        profile = tabulated([0.0, t_end], [1.0, 1.2])
        with pytest.raises(TableRangeError) as whole:
            whole_array_samples(profile, 1.0, self.N)
        with pytest.raises(TableRangeError) as blocked:
            discretize(profile, 1.0, self.N)
        assert str(blocked.value) == str(whole.value)
        assert f"t={(kernels.BLOCK + 101) * (1.0 / self.N)}" in str(blocked.value)

    def test_table_range_error_wins_over_an_earlier_bad_sample(self):
        # a non-positive sample in the first block, the range exceeded in the third:
        # every block is evaluated before the domain check, as one evaluation was
        t_end = (2 * kernels.BLOCK + 10.5) / self.N
        profile = tabulated([0.0, 0.5 / self.N, 1.5 / self.N, t_end], [1.0, 1.0, -1.0, 1.0])
        with pytest.raises(TableRangeError, match=re.escape(f"t={(2 * kernels.BLOCK + 11) * (1.0 / self.N)}")):
            discretize(profile, 1.0, self.N)

    @pytest.mark.parametrize("profile,rule", [(relaxing_pulse(B=3 * math.pi), "midpoint"),
                                              (parametric_resonance(epsilon=2.04, omega_l=1.04), "right")],
                             ids=["relaxing_pulse-midpoint", "parametric_resonance-right"])
    def test_memory_is_the_samples_array_plus_block_scratch(self, profile, rule):
        slack_mb = 1.0  # the block scratch measures 0.21-0.27 MB at any N
        for n in (300_000, 600_000):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                dprof = discretize(profile, 150.0, n, rule=rule)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert (peak - dprof.samples.nbytes) / 1e6 <= slack_mb, (n, peak)


def test_factory_validation():
    with pytest.raises(ValueError):
        relaxing_pulse(B=-1.0)
    with pytest.raises(ValueError):
        parametric_resonance(epsilon=0.0, omega_l=1.04)
    with pytest.raises(ValueError, match="drive rate"):  # 1e-300 * 1e-300 underflows to 0
        parametric_resonance(epsilon=1e-300, omega_l=1.04, omega0=1e-300)
    with pytest.raises(ValueError):
        janszky_adam(omega1=-2.0)
    with pytest.raises(ValueError):
        Profile("wiggle", 1.0, lambda t: t)
    with pytest.raises(ValueError):
        Profile("constant", 0.0, lambda t: t)


def test_period_of_the_periodic_kinds_only():
    assert parametric_resonance(epsilon=2.04, omega_l=1.04, omega0=1.3).period == 2.0 * math.pi / (2.04 * 1.3)
    assert janszky_adam(omega1=2.0, hold_high=0.25, hold_low=0.75).period == 1.0
    aperiodic = [p for p in all_kinds() if p.kind not in ("parametric_resonance", "janszky_adam")]
    assert [p.period for p in aperiodic] == [None] * 4
