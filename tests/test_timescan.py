"""The shared time-scan minimizer against objectives with known minima."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from qwalk import decompose_graph, detect_uniform_mixing, path_graph
from qwalk.timescan import scan_minima


def _sampled(fn, t_max: float, points: int):
    """Coarse samples of fn on [0, t_max] plus an evaluate callback that counts calls."""
    calls = []

    def evaluate(lo, step, count):
        calls.append((lo, step, count))
        return fn(lo + step * np.arange(count))

    ts = np.linspace(0.0, t_max, points)
    return ts, fn(ts), evaluate, calls


def test_abs_sine_minima_at_multiples_of_pi():
    ts, values, evaluate, _ = _sampled(lambda t: np.abs(np.sin(t)), 10.0, 1001)
    # |d/dt |sin t|| <= 1, so a minimum at 0 lies within one step of a value <= 2 * step
    minima, floor = scan_minima(ts, values, evaluate, 2.0 * (ts[1] - ts[0]), record_below=1e-9)
    times = [t for t, _ in minima]
    assert len(times) == 3
    for k, t in enumerate(times, start=1):
        assert abs(t - k * math.pi) <= 1e-12
    assert floor <= 1e-12


def test_quadratic_minimum_at_sqrt2():
    root2 = math.sqrt(2.0)
    ts, values, evaluate, _ = _sampled(lambda t: (t - root2) ** 2, 3.0, 301)
    minima, floor = scan_minima(ts, values, evaluate, refine_below=0.0)
    # only the global minimum is refined when nothing falls below refine_below
    assert len(minima) == 1
    t, v = minima[0]
    assert abs(t - root2) <= 1e-12
    assert v == floor <= 1e-24


def test_constant_objective_zooms_one_bracket_when_capped():
    ts, values, evaluate, calls = _sampled(lambda t: np.zeros_like(t), 1.0, 101)
    first_level = 2.0 * (ts[1] - ts[0]) / 64

    def brackets():
        return sum(1 for _, step, _ in calls if math.isclose(step, first_level, rel_tol=1e-6))

    minima, _ = scan_minima(ts, values, evaluate, 1.0, record_below=1e-9, max_records=1)
    assert minima == [(float(ts[1]), 0.0)]
    assert brackets() == 1

    calls.clear()
    minima, _ = scan_minima(ts, values, evaluate, 1.0, record_below=1e-9)
    assert len(minima) == 99
    assert brackets() == 99


def test_uniform_mixing_scan_memory_on_p16():
    d = decompose_graph(path_graph(16))
    tracemalloc.start()
    try:
        report = detect_uniform_mixing(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == "no"
    # the whole 100001-point grid as (grid, 16, 16) complex would be 390 MiB
    assert peak < 64 * 2**20
