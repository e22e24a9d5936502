"""Small diagnostics shared by the CLI and the verification suite."""

from __future__ import annotations

import numpy as np


def trailing_mean(times, values, window: float) -> np.ndarray:
    """Mean of the piecewise-linear curve through (times, values) over [t - window, t] at each t.

    Exact for that curve: with ``A`` the cumulative trapezoid area, the mean
    at record i is ``(A_i - A(lo_i)) / (t_i - lo_i)``, where ``A(lo_i)`` adds
    the trapezoid from the last record at or before ``lo_i`` to the linearly
    interpolated value at ``lo_i``.  Windows reaching before ``times[0]``
    average over the part that is covered, so the first record returns its
    own value.  ``window <= 0`` returns a copy of ``values``.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if window <= 0 or times.size < 2:
        return values.copy()
    area = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(times) * (values[1:] + values[:-1]))))
    lo = np.maximum(times - window, times[0])
    k = np.searchsorted(times, lo, side="right") - 1
    area_lo = area[k] + 0.5 * (lo - times[k]) * (values[k] + np.interp(lo, times, values))
    span = times - lo
    return np.divide(area - area_lo, span, out=values.copy(), where=span > 0)


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


def first_local_max(values, floor: float = 0.0) -> int | None:
    """Index of the first interior local maximum above ``floor``, or None."""
    v = np.asarray(values, dtype=np.float64)
    for i in range(1, v.shape[0] - 1):
        if v[i] > floor and v[i] > v[i - 1] and v[i] >= v[i + 1]:
            return i
    return None
