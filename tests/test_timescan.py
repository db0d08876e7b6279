"""The shared time scans against objectives with known minima."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from qwalk import decompose_graph, detect_uniform_mixing, path_graph
from qwalk import timescan
from qwalk.timescan import first_below, scan_minima


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


def _reference_scan_minima(ts, values, evaluate, refine_below, record_below=np.inf, max_records=None):
    """scan_minima as one loop over every interior minimum, each skipped in
    turn when it lies above refine_below: the reference the masked form
    must match."""
    global_idx = int(values.argmin())
    floor = float(values[global_idx])
    interior = (values[1:-1] <= values[:-2]) & (values[1:-1] <= values[2:])
    minima = []
    for i in np.nonzero(interior)[0] + 1:
        if i != global_idx:
            if values[i] > refine_below:
                continue
            if max_records is not None and len(minima) >= max_records:
                continue
        t, v = timescan._zoom(
            evaluate, ts[i - 1], ts[i + 1], float(ts[i]), float(values[i]), timescan.TIME_RESOLUTION
        )
        floor = min(floor, v)
        if v <= record_below:
            minima.append((t, v))
    return minima, floor


def test_masked_minima_match_the_reference_loop():
    """On random grids with plateaus and ties, and with the global minimum
    inside or at either end, scan_minima zooms, records and floors exactly
    as the one-by-one loop does, for max_records None, 0, 1 and 2."""
    rng = np.random.default_rng(3)
    cases = 0
    for trial in range(300):
        points = int(rng.integers(2, 40))
        values = rng.integers(0, 5, points) / 4.0  # few levels: plateaus and ties
        if trial % 3 == 1:
            values[0] = -0.25
        elif trial % 3 == 2:
            values[-1] = -0.25
        ts = np.linspace(0.0, 1.0, points)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        refine_below = float(rng.choice([-1.0, 0.0, 0.25, 0.5, 1.0]))
        record_below = float(rng.choice([np.inf, 0.1, 0.5]))
        for max_records in (None, 0, 1, 2):
            runs = []
            for scan in (scan_minima, _reference_scan_minima):
                calls = []

                def evaluate(lo, step, count):
                    calls.append((lo, step, count))
                    t = lo + step * np.arange(count)
                    return 0.3 + 0.3 * np.sin(17.0 * t + phase)

                runs.append((scan(ts, values, evaluate, refine_below, record_below, max_records), calls))
            assert runs[0] == runs[1]
            cases += bool(runs[0][1])
    assert cases > 300


def _batched(fn):
    """fn as a values_at callback that records each batch of times it is
    asked for, and rejects an empty batch, which the detectors' callbacks
    cannot evaluate."""
    asked = []

    def values_at(ts):
        assert len(ts) > 0
        asked.append(np.array(ts))
        return fn(np.asarray(ts))

    return values_at, asked


def test_first_below_evaluates_a_constant_once():
    """A zero slope means a constant objective: one evaluation, at t = 0,
    decides both ways."""
    for level, hit in ((0.0, True), (0.5, False)):
        values_at, asked = _batched(lambda t: np.full(len(t), level))
        found = first_below(values_at, 7.0, 0.0, 1e-9, 0.1)
        assert (found.hit, found.t, found.value, found.evaluations) == (hit, 0.0, level, 1)
        assert [a.tolist() for a in asked] == [[0.0]]


def test_first_below_hit_at_zero():
    """|sin t| is 0 at t = 0, a sample point: the witness is t = 0 itself."""
    found = first_below(_batched(lambda t: np.abs(np.sin(t)))[0], 10.0, 1.0, 1e-9, 10.0 / 1000)
    assert found.hit and found.t == 0.0 and found.value == 0.0


def test_first_below_returns_the_earlier_of_two_hits():
    """Zeros at 2.3 and at the sample point 6.25: the later one is hit by the
    first samples, and refinement still finds the earlier one."""
    fn = lambda t: np.minimum(np.abs(t - 2.3), 0.5 * np.abs(t - 6.25))
    found = first_below(_batched(fn)[0], 10.0, 1.0, 1e-9, 1e-3)
    assert found.hit and found.lower_bound > 1e-9
    assert abs(found.t - 2.3) <= 1e-12
    assert found.value <= 1e-12


def test_first_below_flags_a_hit_it_could_not_prove_earliest():
    """Stopped by its budget right after the 65 samples, the search returns
    the sampled zero at 6.25 with a lower bound at most the target: the
    zero at 2.3 is not ruled out."""
    fn = lambda t: np.minimum(np.abs(t - 2.3), 0.5 * np.abs(t - 6.25))
    found = first_below(_batched(fn)[0], 10.0, 1.0, 1e-9, 1e-3, max_evaluations=65)
    assert found.hit and found.evaluations == 65
    assert abs(found.t - 6.25) <= 1e-12
    assert found.lower_bound <= 1e-9


def test_first_below_zooms_a_quadratic_touch_to_its_minimum():
    """(t - sqrt 2)^2 first drops under 1e-9 about 3e-5 before its minimum;
    the zoom over one step either side of that first hit reaches the
    minimum itself."""
    root2 = math.sqrt(2.0)
    found = first_below(_batched(lambda t: (t - root2) ** 2)[0], 3.0, 3.2, 1e-9, 3.0 / 1000)
    assert found.hit
    assert abs(found.t - root2) <= 1e-10
    assert found.value <= 1e-20


def test_first_below_certifies_a_lower_bound():
    """1.2 + sin(3t) stays above 0.1: the answer is no, with a lower bound
    between the target and the true minimum 0.2, after few evaluations."""
    fn = lambda t: 1.2 + np.sin(3.0 * t)
    found = first_below(_batched(fn)[0], 20.0, 3.0, 0.1, 20.0 / 10**5, slack=1e-12)
    assert not found.hit
    assert 0.1 < found.lower_bound <= 0.2
    assert found.value == fn(np.array([found.t]))[0] >= 0.2 - 1e-15
    assert found.evaluations < 2000


def test_first_below_leaves_a_touch_within_the_slack_unresolved():
    """A minimum within the slack above the target can neither be hit nor
    ruled out.  At a V-shaped tip the search narrows the tip down to the
    time resolution; at a quadratic one the live segments multiply as they
    shrink, and the search stops at the evaluation budget.  Neither reports
    a hit or a lower bound above the target."""
    target, slack, tip = 1e-9, 1e-12, 1.0 / 3.0
    cases = [
        (lambda t: target + slack / 2 + np.abs(t - tip), 1.0, math.inf, 1000),
        (lambda t: target + slack / 2 + (t - tip) ** 2, 4.0, 300, 300),
    ]
    for fn, slope, budget, most in cases:
        found = first_below(_batched(fn)[0], 2.0, slope, target, 2e-5, slack, budget)
        assert not found.hit
        assert found.lower_bound <= target < found.value
        assert abs(found.t - tip) <= 1e-3
        assert found.evaluations <= most


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
