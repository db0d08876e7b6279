"""The mixing scans' rotated slice phases, the global scan's lower-bound
screen and its column-block objective, each against a direct reference."""

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
    detect_uniform_mixing,
    spectral_decompose,
    star_graph,
)
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


def test_screened_scan_matches_the_full_grid(monkeypatch):
    """At the default 10^5 points, the screened global scan reports exactly
    what the same scan reports with the full objective on every grid point:
    atlas graphs on 3-5 vertices, seeded plain and oriented G(8-12) walks and
    the flux triangle."""
    nx = pytest.importorskip("networkx")
    walks = [spectral_decompose(FLUX_TRIANGLE), *_random_walks(13, 5)]
    for ag in nx.graph_atlas_g():
        if 3 <= ag.number_of_nodes() <= 5 and ag.number_of_edges():
            edges = [tuple(sorted(e)) for e in ag.edges()]
            walks.append(decompose_graph(Graph.from_edges(ag.number_of_nodes(), edges)))
    screened = [detect_uniform_mixing(d) for d in walks]
    scan = det._scan_spectral

    def full_grid(value_fn, *args, bound_fn=None, **kwargs):
        return scan(value_fn, *args, **kwargs)

    monkeypatch.setattr(det, "_scan_spectral", full_grid)
    assert screened == [detect_uniform_mixing(d) for d in walks]
    assert {r.verdict for r in screened} == {"yes", "no"}


@pytest.mark.parametrize("t_max", [20.0, 600.0])
def test_rotated_phases_match_direct_trigonometry(t_max):
    """On a multi-slice grid the rotated phases agree with cos and sin of
    t theta to 1e-15 (1 + t_max max|theta|), and reading a point by index
    gives the same bits as reading its slice."""
    d = decompose_graph(random_graph(np.random.default_rng(4), 10, 0.4))
    ts = np.linspace(0.0, t_max, 10**5 + 1)
    chunk = det._CHUNK_BYTES // (16 * d.n**2)
    phases = det._RotatedPhases(ts, d.theta, chunk)
    c, s = (np.concatenate(part) for part in zip(*phases.slices()))
    want_c, want_s = det._phases(ts, d.theta)
    bound = 1e-15 * (1 + t_max * np.abs(d.theta).max())
    assert max(np.abs(c - want_c).max(), np.abs(s - want_s).max()) <= bound
    idx = np.random.default_rng(5).choice(len(ts), 500, replace=False)
    rc, rs = phases.rows(idx)
    assert np.array_equal(rc, c[idx]) and np.array_equal(rs, s[idx])


def test_reported_grid_values_take_direct_trigonometry():
    """At t_max = 600 the rotated grid drifts from direct cos and sin by
    more than 1e-13, yet the grid values a report can carry, the two ends
    and each minimum a zoom starts from, match direct evaluation to 1e-15."""
    d = decompose_graph(random_graph(np.random.default_rng(10), 10, 0.4))
    value_fn, t_max, steps, refine_below = det._uniform_defect(d), 600.0, 10**5, 1e-7
    values, _, _ = det._scan_spectral(value_fn, d, t_max, steps, refine_below)
    ts = np.linspace(0.0, t_max, steps + 1)
    slices = (ts[lo : lo + 4096] for lo in range(0, len(ts), 4096))
    direct = np.concatenate([value_fn(*det._phases(part, d.theta)) for part in slices])
    cutoff = max(refine_below, 4.0 * np.abs(d.theta).max() * (ts[1] - ts[0]))
    inner = values[1:-1]
    zoomed = np.nonzero((inner <= cutoff) & (inner <= values[:-2]) & (inner <= values[2:]))[0] + 1
    reported = np.union1d([0, steps, values.argmin()], zoomed)
    assert np.abs(values[reported] - direct[reported]).max() <= 1e-15
    assert np.abs(values - direct).max() > 1e-13


def test_screen_evaluates_the_full_objective_on_few_points(monkeypatch):
    """On a seeded 10-vertex graph the full n^2-entry objective runs on
    under a quarter of the 10^5-point grid, zooms included."""
    d = decompose_graph(random_graph(np.random.default_rng(10), 10, 0.4))
    uniform_defect, points = det._uniform_defect, []

    def counted(d):
        value_fn = uniform_defect(d)

        def count(c, s):
            points.append(len(c))
            return value_fn(c, s)

        return count

    monkeypatch.setattr(det, "_uniform_defect", counted)
    report = detect_uniform_mixing(d)
    assert report.verdict == "no"
    assert 0 < sum(points) < (det.DEFAULT_MIXING_GRID + 1) / 4


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
