"""The spectral scans' slope-bound screen, the slope bound it rests on and
the global objective's column blocks, each against a direct reference."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import qwalk.detectors as det
from qwalk import (
    Graph,
    decompose_graph,
    decompose_oriented,
    detect_local_uniform_mixing,
    detect_uniform_mixing,
    pgst_witness_search,
    spectral_decompose,
    star_graph,
    vertex_state,
)
from qwalk.timescan import scan_minima
from conftest import random_graph, random_orientation

FLUX_TRIANGLE = np.array(
    [[0, 1, 1], [1, 0, np.exp(0.7j)], [1, np.exp(-0.7j), 0]], dtype=complex
)


def _random_walks(seed: int, count: int):
    """Seeded G(8-12, 0.4) decompositions, each plain and randomly oriented."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        g = random_graph(rng, int(rng.integers(8, 13)), 0.4)
        out += [decompose_graph(g), decompose_oriented(random_orientation(rng, g))]
    return out


def _full_grid_scan(value_fn, d, t_max, steps, refine_below, **record):
    """`detectors._scan_spectral` with value_fn evaluated on every grid point."""
    ts = np.linspace(0.0, t_max, steps + 1)
    cutoff = max(refine_below, 4.0 * np.abs(d.theta).max() * (ts[1] - ts[0]))
    slices = (ts[lo : lo + 4096] for lo in range(0, len(ts), 4096))
    values = np.concatenate([value_fn(*det._phases(part, d.theta)) for part in slices])
    minima, floor = scan_minima(
        ts,
        values,
        lambda lo, step, count: value_fn(*det._phases(lo + step * np.arange(count), d.theta)),
        cutoff,
        **record,
    )
    return values, minima, floor


def _all_scans(d):
    """Global mixing, local mixing at the first and last vertex and the
    transfer witness between them, each at its default grid."""
    n = d.n
    return [
        detect_uniform_mixing(d),
        detect_local_uniform_mixing(d, 0),
        detect_local_uniform_mixing(d, n - 1),
        pgst_witness_search(vertex_state(n, 0), vertex_state(n, n - 1), d, 6.0),
    ]


def test_screened_scan_matches_the_full_grid(monkeypatch):
    """The screened scans report exactly what the same scans report with
    every grid point evaluated: global and local mixing at 10^5 points and
    the transfer witness on atlas graphs on 3-5 vertices, seeded plain and
    oriented G(8-12) walks and the flux triangle."""
    nx = pytest.importorskip("networkx")
    walks = [spectral_decompose(FLUX_TRIANGLE), *_random_walks(13, 5)]
    for ag in nx.graph_atlas_g():
        if 3 <= ag.number_of_nodes() <= 5 and ag.number_of_edges():
            edges = [tuple(sorted(e)) for e in ag.edges()]
            walks.append(decompose_graph(Graph.from_edges(ag.number_of_nodes(), edges)))
    screened = [_all_scans(d) for d in walks]
    monkeypatch.setattr(det, "_scan_spectral", _full_grid_scan)
    assert screened == [_all_scans(d) for d in walks]
    assert {r[0].verdict for r in screened} == {"yes", "no"}
    assert {r[1].verdict for r in screened} == {"yes", "no"}


@pytest.mark.parametrize("t_max, steps", [(20.0, 10**5), (600.0, 10**6)])
def test_grid_values_are_direct_or_lower_bounds(t_max, steps):
    """Each grid value the global scan returns is either bit-equal to a
    direct evaluation of the objective there, or a lower bound on it that
    lies above both the zoom cutoff and the floor.  Both grids are fine
    enough for the screen to sample a stride of several points."""
    d = decompose_graph(random_graph(np.random.default_rng(10), 10, 0.4))
    value_fn, refine_below = det._uniform_defect(d), 1e-7
    values, _, floor = det._scan_spectral(value_fn, d, t_max, steps, refine_below)
    direct, _, _ = _full_grid_scan(value_fn, d, t_max, steps, refine_below)
    cutoff = max(refine_below, 4.0 * np.abs(d.theta).max() * t_max / steps)
    bounded = values != direct
    assert 0 < bounded.sum() < len(values)
    assert np.all(values[bounded] <= direct[bounded])
    assert np.all(values[bounded] > max(cutoff, floor))


def test_screen_evaluates_the_full_objective_on_few_points(monkeypatch):
    """On a seeded 10-vertex graph both mixing scans evaluate their
    objective on under an eighth of the 10^5-point grid, zooms included."""
    d = decompose_graph(random_graph(np.random.default_rng(10), 10, 0.4))
    mixing_report, points = det._mixing_report, []

    def counted(d, value_fn, *args):
        def count(c, s):
            points[-1] += len(c)
            return value_fn(c, s)

        points.append(0)
        return mixing_report(d, count, *args)

    monkeypatch.setattr(det, "_mixing_report", counted)
    reports = [detect_uniform_mixing(d), detect_local_uniform_mixing(d, 0)]
    assert [r.verdict for r in reports] == ["no", "no"]
    assert len(points) == 2
    assert all(0 < count < (det.DEFAULT_MIXING_GRID + 1) / 8 for count in points)


def _slope_walks():
    """Plain and oriented seeded walks and the flux triangle."""
    return [spectral_decompose(FLUX_TRIANGLE), *_random_walks(21, 2)]


def _assert_slope_bounded(value_fn, d, t_max=5.0, points=20001):
    ts = np.linspace(0.0, t_max, points)
    values = value_fn(*det._phases(ts, d.theta))
    slope = 2.0 * np.abs(d.theta).max()
    assert np.abs(np.diff(values)).max() <= slope * (ts[1] - ts[0]) + 1e-12


def test_mixing_objectives_obey_the_slope_bound(monkeypatch):
    """On a dense grid the local and global mixing defects, the global one
    both stacked and over column blocks, change by at most 2 max|theta| per
    unit time: the constant the screen's lower bounds rest on."""
    for d in _slope_walks():
        for a in range(d.n):
            _assert_slope_bounded(det._defect(det._column_probabilities(d, [a]), d.n), d)
        _assert_slope_bounded(det._uniform_defect(d), d)
        with monkeypatch.context() as m:
            m.setattr(det, "_CHUNK_BYTES", 16 * 20001 * d.n * 2)  # two columns a block
            _assert_slope_bounded(det._uniform_defect(d), d)


def test_transfer_objective_obeys_the_slope_bound(monkeypatch):
    """||U(t) P U(-t) - Q||, as pgst_witness_search scores it, changes by
    at most 2 max|theta| per unit time between vertex states."""
    scan, objectives = det._scan_spectral, []

    def capture(value_fn, *args, **kwargs):
        objectives.append(value_fn)
        return scan(value_fn, *args, **kwargs)

    monkeypatch.setattr(det, "_scan_spectral", capture)
    for d in _slope_walks():
        pgst_witness_search(vertex_state(d.n, 0), vertex_state(d.n, d.n - 1), d, 1.0)
        _assert_slope_bounded(objectives[-1], d)


def test_column_blocks_match_the_stacked_objective(monkeypatch):
    """Once the E_r stack outgrows the byte budget, the objective is read
    from the eigenvectors over column blocks; on plain (real, symmetric
    U(t)) and oriented walks and the flux triangle it matches the stacked
    form to 1e-13."""
    walks = [decompose_graph(star_graph(4)), spectral_decompose(FLUX_TRIANGLE)]
    walks += _random_walks(7, 2)
    ts = np.linspace(0.0, 7.0, 301)
    for d in walks:
        c, s = det._phases(ts, d.theta)
        want = det._defect(det._column_probabilities(d, slice(None)), d.n)(c, s)
        with monkeypatch.context() as m:
            m.setattr(det, "_CHUNK_BYTES", 16 * 4 * d.n * 2)  # two columns a block for four times
            value_fn = det._uniform_defect(d)
            got = [value_fn(c[k : k + 4], s[k : k + 4]) for k in range(0, len(ts), 4)]
        assert np.abs(np.concatenate(got) - want).max() <= 1e-13


# the child caps its own address space before it imports numpy, then reads
# the global objective on the two batch shapes a scan at n = 512 uses: one
# grid slice and one zoom level
_CAPPED_OBJECTIVE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
import qwalk.detectors as det
from conftest import random_graph
from qwalk import decompose_graph
d = decompose_graph(random_graph(np.random.default_rng(512), 512, 0.1))
value_fn = det._uniform_defect(d)
for k in (max(1, det._CHUNK_BYTES // (16 * d.n**2)), 65):
    values = value_fn(*det._phases(np.linspace(0.0, 1.0, k), d.theta))
    print(len(values), bool(np.all((0.0 <= values) & (values <= 1.0))))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_uniform_mixing_objective_at_the_size_cap_fits_in_one_gib():
    """n = 512 is the default QWALK_MAX_N; the global objective on
    G(512, 0.1) runs on a grid slice and on a zoom level with the child's
    address space capped at 1 GiB, where the stack of the E_r alone would
    need 2 GiB."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(det.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_OBJECTIVE],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-300:]
    assert done.stdout.split() == ["1", "True", "65", "True"]
