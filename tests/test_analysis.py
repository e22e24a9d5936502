import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11squeeze.analysis import trailing_mean
from su11squeeze.config import build_config, config_layers
from su11squeeze.evolution import evolve
from su11squeeze.profiles import discretize

# a non-uniform grid that holds every kink of the piecewise-linear test curve
GRID = np.cumsum(np.concatenate([[0.3], np.tile([0.05, 0.4, 0.13, 0.9, 0.21], 12)]))
KINKS = GRID[[7, 19, 31, 44]]
SLOPES = np.array([1.5, -2.0, 0.75, -0.4])


def kinked(s):
    """0.2 + 0.3 s + sum_j c_j |s - k_j|: piecewise linear with kinks on GRID."""
    s = np.asarray(s, dtype=np.float64)
    return 0.2 + 0.3 * s + np.abs(s[..., None] - KINKS) @ SLOPES


def kinked_area(s):
    """An antiderivative of ``kinked``, in extended precision so its differences stay exact."""
    s = np.asarray(s, dtype=np.longdouble)
    d = s[..., None] - KINKS
    return 0.2 * s + 0.15 * s**2 + (0.5 * d * np.abs(d) * SLOPES).sum(axis=-1)


@pytest.mark.parametrize("window", [0.05, 0.37, 1.3, 4.0, 100.0])
def test_exact_on_piecewise_linear_data(window):
    lo = np.maximum(GRID - window, GRID[0])
    span = GRID - lo
    exact = kinked(GRID)
    exact[1:] = ((kinked_area(GRID) - kinked_area(lo))[1:] / span[1:]).astype(np.float64)
    np.testing.assert_allclose(trailing_mean(GRID, kinked(GRID), window), exact, rtol=0, atol=1e-12)


def test_linear_data_full_and_partial_windows():
    t = GRID
    a, b, w = -0.7, 2.5, 1.9
    bar = trailing_mean(t, a + b * t, w)
    full = t >= t[0] + w
    np.testing.assert_allclose(bar[full], a + b * (t[full] - w / 2), rtol=0, atol=1e-12)
    # windows reaching before the first record average over [t0, t]
    np.testing.assert_allclose(bar[~full], a + b * (t[0] + t[~full]) / 2, rtol=0, atol=1e-12)
    assert bar[0] == a + b * t[0]


@pytest.mark.parametrize("window", [0.0, -1.0])
def test_nonpositive_window_returns_a_copy(window):
    values = np.array([1.0, 3.0, 2.0])
    out = trailing_mean([0.0, 1.0, 2.0], values, window)
    np.testing.assert_array_equal(out, values)
    out[0] = 9.0
    assert values[0] == 1.0


def test_one_and_two_records():
    np.testing.assert_array_equal(trailing_mean([2.0], [5.0], 1.0), [5.0])
    np.testing.assert_allclose(trailing_mean([0.0, 2.0], [1.0, 5.0], 3.0), [1.0, 3.0], rtol=0, atol=1e-15)
    # a window inside the one segment: the curve's value half a window back
    np.testing.assert_allclose(trailing_mean([0.0, 2.0], [1.0, 5.0], 0.5), [1.0, 4.5], rtol=0, atol=1e-15)


def test_fig2_matches_a_fine_resampling():
    cfg = build_config(config_layers("fig2"))
    traj = evolve(discretize(cfg.to_profile(), cfg.t_final, cfg.n_steps))
    t, r = traj.records.t, traj.records.r
    period = 2.0 * np.pi / cfg.epsilon
    bar = trailing_mean(t, r, period)
    worst = 0.0
    for i in range(1, t.shape[0]):
        fine = np.interp(np.linspace(max(t[i] - period, t[0]), t[i], 4096), t, r)
        mean = (fine.sum() - 0.5 * (fine[0] + fine[-1])) / (fine.shape[0] - 1)  # trapezoid rule
        worst = max(worst, abs(bar[i] - mean))
    assert worst <= 1e-5


@st.composite
def curves(draw):
    n = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1))
    t0 = draw(st.floats(-5.0, 5.0))
    times = t0 + np.concatenate([[0.0], np.cumsum(gaps)])
    values = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    return times, values, draw(st.floats(0.01, 20.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(curve=curves())
def test_mean_lies_within_the_curve_over_its_window(curve):
    times, values, window = curve
    bar = trailing_mean(times, values, window)
    for i, t in enumerate(times):
        lo = max(t - window, times[0])
        inside = np.append(values[(times > lo) & (times <= t)], np.interp(lo, times, values))
        assert inside.min() - 1e-9 <= bar[i] <= inside.max() + 1e-9
