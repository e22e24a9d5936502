"""Trailing mean of a recorded curve, as ``compare`` and the verification suite read it."""

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

