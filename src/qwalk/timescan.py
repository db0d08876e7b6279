"""The time scans shared by the detectors and the oracle.

Both take the objective from a callback, so the evolution behind it stays the
caller's (spectral phases in the detectors, dense exponentials in the oracle)
and this module needs only numpy.  `first_below` is the detectors' certified
search for the earliest time an objective reaches a target; `scan_minima`
zooms the minima of the oracle's sampled grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TIME_RESOLUTION = 1e-13
_ZOOM_POINTS = 65
_FIRST_SAMPLES = 64


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


@dataclass(frozen=True)
class FirstBelow:
    """With `hit`, t is the witness, value <= target, and no hit before
    t - step is proved iff lower_bound > target; without, t and value are the
    least value evaluated, and F > target on [0, t_max] is proved iff
    lower_bound > target.  `evaluations` excludes the witness zoom's points."""

    hit: bool
    t: float
    value: float
    lower_bound: float
    evaluations: int


def first_below(
    values_at, t_max: float, slope: float, target: float, step: float, slack: float = 0.0,
    max_evaluations: float = math.inf,
) -> FirstBelow:
    """The earliest t in [0, t_max] with F(t) <= target, or a proof that none exists.

    values_at(ts) gives F at an array of times.  F changes by at most `slope`
    per unit time, so on [a, b] it stays above the Piyavskii-Shubert bound
    (F(a) + F(b) - slope (b - a)) / 2 - slack.  After 65 samples, each round
    splits every live segment (bound <= target) at the bound's argmin,
    clipped to its middle half, and evaluates the new points as one batch.
    Once F(w) <= target, segments starting at or after w - step are dropped:
    the earliest hit is found to within `step`, and the witness is `_zoom`'s
    minimum over [w - step, w + step].  The least bound of the segments ruled
    out bounds F on the window, or left of w - step; a live segment shorter
    than TIME_RESOLUTION or a round past max_evaluations stops the search with
    it at most target.  A zero slope means F is constant, evaluated at t = 0.
    """
    if slope <= 0.0:
        v = float(values_at(np.zeros(1))[0])
        return FirstBelow(v <= target, 0.0, v, v if v > target else np.inf, 1)
    seen_t = [np.linspace(0.0, t_max, _FIRST_SAMPLES + 1)]
    seen_f = [values_at(seen_t[0])]
    lo, hi, f_lo, f_hi = seen_t[0][:-1], seen_t[0][1:], seen_f[0][:-1], seen_f[0][1:]
    hit_t, lower = np.inf, np.inf
    while True:
        hit_t = min(hit_t, float(seen_t[-1][seen_f[-1] <= target].min(initial=np.inf)))
        bound = (f_lo + f_hi - slope * (hi - lo)) / 2.0 - slack
        live = (bound <= target) & (lo < hit_t - step)
        lower = min(lower, float(bound[bound > target].min(initial=np.inf)))
        lo, hi, f_lo, f_hi, bound = lo[live], hi[live], f_lo[live], f_hi[live], bound[live]
        if not len(lo):
            break
        if sum(map(len, seen_t)) + len(lo) > max_evaluations or (hi - lo).min() < TIME_RESOLUTION:
            lower = min(lower, float(bound.min()))
            break
        quarter = (hi - lo) / 4
        mid = np.clip((lo + hi) / 2.0 + (f_lo - f_hi) / (2.0 * slope), lo + quarter, hi - quarter)
        seen_t.append(mid)
        seen_f.append(f_mid := values_at(mid))
        # each segment [lo, hi] becomes [lo, mid] and [mid, hi], in time order
        lo, hi = np.column_stack([lo, mid]).ravel(), np.column_stack([mid, hi]).ravel()
        f_lo, f_hi = np.column_stack([f_lo, f_mid]).ravel(), np.column_stack([f_mid, f_hi]).ravel()
    ts, fs = np.concatenate(seen_t), np.concatenate(seen_f)
    if hit_t == np.inf:
        k = int(fs.argmin())
        return FirstBelow(False, float(ts[k]), float(fs[k]), lower, len(ts))
    bracket = (max(0.0, hit_t - step), min(t_max, hit_t + step), hit_t, float(fs[ts == hit_t][0]))
    t, v = _zoom(lambda a, dt, k: values_at(a + dt * np.arange(k)), *bracket, TIME_RESOLUTION)
    return FirstBelow(True, t, v, lower, len(ts))


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
