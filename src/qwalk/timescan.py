"""The one time-scan minimizer shared by the detectors and the oracle.

Callers sample a nonnegative objective on a coarse time grid and supply an
`evaluate(lo, step, count)` callback giving it at `lo + step * arange(count)`.
The evolution behind the callback stays the caller's (spectral phases in the
detectors, dense exponentials in the oracle), so this module needs only numpy.
"""

from __future__ import annotations

import numpy as np

TIME_RESOLUTION = 1e-13
_ZOOM_POINTS = 65


def _zoom(evaluate, lo, hi, best_t: float, best_v: float, time_resolution: float):
    """Shrink [lo, hi] around a local minimum by re-sampling it on 65 points."""
    while hi - lo > time_resolution:
        step = (hi - lo) / (_ZOOM_POINTS - 1)
        if step <= time_resolution / 4:
            break
        ts = lo + step * np.arange(_ZOOM_POINTS)
        values = evaluate(lo, step, _ZOOM_POINTS)
        k = int(values.argmin())
        if values[k] < best_v:
            best_v = float(values[k])
            best_t = float(ts[k])
        lo = ts[max(k - 1, 0)]
        hi = ts[min(k + 1, _ZOOM_POINTS - 1)]
    return best_t, best_v


def scan_minima(
    ts: np.ndarray,
    values: np.ndarray,
    evaluate,
    refine_below: float,
    record_below: float = np.inf,
    max_records: int | None = None,
    time_resolution: float = TIME_RESOLUTION,
) -> tuple[list[tuple[float, float]], float]:
    """Zoom into the interior local minima of an objective sampled at `ts`.

    A local minimum is zoomed if its grid value is at most `refine_below`
    (callers pass a slope-bounded cutoff, so no deeper minimum hides between
    grid points) or if it is the global minimum.  Zoomed minima at or below
    `record_below` are recorded; after `max_records` of them, only the global
    minimum is still zoomed.  Returns the recorded `(t, value)` pairs in grid
    order and the floor, the least value seen on the grid or while zooming.
    """
    global_idx = int(values.argmin())
    floor = float(values[global_idx])
    inner = values[1:-1]
    zoomable = inner <= refine_below
    if 0 < global_idx < len(values) - 1:
        zoomable[global_idx - 1] = True
    interior = zoomable & (inner <= values[:-2]) & (inner <= values[2:])
    minima: list[tuple[float, float]] = []
    for i in np.nonzero(interior)[0] + 1:
        if i != global_idx and max_records is not None and len(minima) >= max_records:
            continue
        t, v = _zoom(evaluate, ts[i - 1], ts[i + 1], float(ts[i]), float(values[i]), time_resolution)
        floor = min(floor, v)
        if v <= record_below:
            minima.append((t, v))
    return minima, floor
