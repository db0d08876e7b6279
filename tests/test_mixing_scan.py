"""The certified spectral scans, the slope bounds they rest on and the
global objective's column blocks, each against a direct reference."""

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


def _grid_values(value_fn, d, ts):
    slices = (ts[lo : lo + 4096] for lo in range(0, len(ts), 4096))
    return np.concatenate([value_fn(*det._phases(part, d.theta)) for part in slices])


def _full_grid_scan(value_fn, d, t_max, steps, flat_tol):
    """The grid scan the certified search replaced, as a reference: every
    point of the (steps + 1)-point grid evaluated, and the interior minima
    under the slope cutoff zoomed until the first flat one.  Returns the
    first flat time (None without one) and the grid values."""
    ts = np.linspace(0.0, t_max, steps + 1)
    values = _grid_values(value_fn, d, ts)
    cutoff = max(100 * flat_tol, 4.0 * np.abs(d.theta).max() * (ts[1] - ts[0]))
    flat, _ = scan_minima(
        ts,
        values,
        lambda lo, step, count: value_fn(*det._phases(lo + step * np.arange(count), d.theta)),
        cutoff,
        record_below=flat_tol,
        max_records=1,
    )
    return (min(flat)[0] if flat else None), values


def _corpus_walks():
    """The flux triangle, seeded plain and oriented G(8-12) walks and the
    atlas graphs on 2-5 vertices."""
    nx = pytest.importorskip("networkx")
    walks = [spectral_decompose(FLUX_TRIANGLE), *_random_walks(13, 5)]
    for ag in nx.graph_atlas_g():
        if 2 <= ag.number_of_nodes() <= 5 and ag.number_of_edges():
            g = Graph.from_edges(ag.number_of_nodes(), [tuple(sorted(e)) for e in ag.edges()])
            walks.append(decompose_graph(g))
    return walks


@pytest.fixture(scope="module")
def mixing_corpus():
    """Per mixing scan of the corpus (global, and local at the first and
    last vertex, at 10^5 grid points): the report, the `first_below`
    result behind it, the full-grid reference's first flat time, the least
    grid value and the rounding slack."""
    records, found = [], []
    inner = det.first_below

    def keep(*args, **kwargs):
        found.append(inner(*args, **kwargs))
        return found[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(det, "first_below", keep)
        for d in _corpus_walks():
            scans = [(det._uniform_defect(d), lambda: detect_uniform_mixing(d))]
            for a in sorted({0, d.n - 1}):
                fn = det._defect(det._column_probabilities(d, [a]), d.n)
                scans.append((fn, lambda a=a: detect_local_uniform_mixing(d, a)))
            for fn, detect in scans:
                report = detect()
                witness, values = _full_grid_scan(
                    fn, d, 20.0, det.DEFAULT_MIXING_GRID, det.DEFAULT_FLAT_TOL
                )
                slack = det._SLACK * (1.0 + 20.0 * np.abs(d.theta).max())
                records.append((report, found[-1], witness, float(values.min()), slack))
    return records


def test_certified_scan_matches_the_full_grid(mixing_corpus):
    """Global and local mixing at 10^5 points reach the verdicts of the
    full-grid reference scan, with witness times within 1e-6, on atlas
    graphs on 2-5 vertices, seeded plain and oriented G(8-12) walks and the
    flux triangle."""
    for report, _, witness, _, _ in mixing_corpus:
        assert report.verdict == ("yes" if witness is not None else "no")
        if witness is not None:
            assert abs(report.witness_time - witness) <= 1e-6
    assert {r.verdict for r, *_ in mixing_corpus} == {"yes", "no"}


def test_no_lower_bounds_hold_on_a_dense_grid(mixing_corpus):
    """Every "no" carries a lower bound above flat_tol, and the objective
    never goes below it, less the rounding slack, on the dense 10^5-point
    grid; the least value it reports is no lower than the grid's minimum."""
    checked = 0
    for report, found, _, dense_min, slack in mixing_corpus:
        if report.verdict != "no":
            continue
        assert found.lower_bound > det.DEFAULT_FLAT_TOL
        assert dense_min >= found.lower_bound - slack
        assert report.residual == found.value >= dense_min - 1e-12
        checked += 1
    assert checked > 100


def test_transfer_witness_matches_the_full_grid(monkeypatch):
    """pgst_witness_search between the first and last vertex finds a time
    within 10 accept_tol exactly when the full 10^-2 grid and its zooms do,
    and without one its least value is no lower than the grid's floor."""
    scan, scored = det._certified_scan, []

    def keep(value_fn, *args):
        scored.append(value_fn)
        return scan(value_fn, *args)

    monkeypatch.setattr(det, "_certified_scan", keep)
    walks, hits = _corpus_walks(), 0
    for d in walks:
        best = pgst_witness_search(vertex_state(d.n, 0), vertex_state(d.n, d.n - 1), d, 6.0)
        ts = np.linspace(0.0, 6.0, 601)
        _, floor = scan_minima(
            ts,
            _grid_values(scored[-1], d, ts),
            lambda lo, step, count: scored[-1](*det._phases(lo + step * np.arange(count), d.theta)),
            1e-7,
        )
        assert (best.residual <= 1e-7) == (floor <= 1e-7)
        assert best.residual >= floor - 1e-12
        hits += best.residual <= 1e-7
    assert 0 < hits < len(walks)


def test_no_scans_evaluate_few_points(monkeypatch):
    """On a seeded 10-vertex graph both mixing scans answer "no" after
    evaluating their objective on fewer than 500 points, where the grid has
    10^5 + 1."""
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
    assert all(0 < count < 500 for count in points)


def test_coarse_grids_keep_the_full_search_budget():
    """grid_points sets only the witness resolution: on K2, flat at every
    pi/4 + k pi/2, global mixing at 64 points still resolves windows holding
    13 to 382 flat times, with a flat witness within one grid step of pi/4,
    and a transfer search on K2 with weight 4 over a window shorter than 64
    of its steps still refines to the exact transfer at pi/8."""
    k2 = decompose_graph(Graph.from_edges(2, [(0, 1)]))
    for t_max in (20.0, 100.0, 600.0):
        report = detect_uniform_mixing(k2, t_max=t_max, grid_points=64)
        assert (report.verdict, report.warnings) == ("yes", ())
        k = (report.witness_time - np.pi / 4) / (np.pi / 2)
        assert abs(k - round(k)) <= 1e-10
        assert report.witness_time <= np.pi / 4 + t_max / 64
    weighted = spectral_decompose(np.array([[0.0, 4.0], [4.0, 0.0]], dtype=complex))
    best = pgst_witness_search(vertex_state(2, 0), vertex_state(2, 1), weighted, 0.5)
    assert best.residual <= 1e-10 and abs(best.t - np.pi / 8) <= 1e-10


def test_a_flat_time_found_before_the_search_resolves_is_flagged(monkeypatch):
    """With the budget cut to the 65 opening samples, K2 on [0, 3 pi / 2]
    meets its second flat time 3 pi / 4 at a sample and stops before ruling
    out the first, pi / 4: the "yes" warns that an earlier flat time is not
    ruled out.  The full search finds pi / 4 with no warning."""
    k2 = decompose_graph(Graph.from_edges(2, [(0, 1)]))
    full = detect_uniform_mixing(k2, t_max=1.5 * np.pi, grid_points=64)
    assert (full.verdict, full.warnings) == ("yes", ())
    assert abs(full.witness_time - np.pi / 4) <= 1e-10
    monkeypatch.setattr(det, "DEFAULT_MIXING_GRID", 0)
    cut = detect_uniform_mixing(k2, t_max=1.5 * np.pi, grid_points=64)
    assert cut.verdict == "yes"
    assert abs(cut.witness_time - 0.75 * np.pi) <= 1e-10
    assert len(cut.warnings) == 1
    assert cut.warnings[0].startswith("search unresolved after 65 evaluations")
    assert cut.warnings[0].endswith("an earlier flat time is not ruled out")


def _slope_walks():
    """Plain and oriented seeded walks and the flux triangle."""
    return [spectral_decompose(FLUX_TRIANGLE), *_random_walks(21, 2)]


def _assert_slope_bounded(value_fn, d, slope, t_max=5.0, points=20001):
    ts = np.linspace(0.0, t_max, points)
    values = value_fn(*det._phases(ts, d.theta))
    assert np.abs(np.diff(values)).max() <= slope * (ts[1] - ts[0]) + 1e-12


def test_mixing_objectives_obey_the_slope_bound(monkeypatch):
    """On a dense grid the local defect at a changes by at most
    Delta H(e_a) per unit time, and the global defect, both stacked and over
    column blocks, by at most the largest Delta H(e_j).  On a plain graph
    Delta H(e_a) is sqrt(deg a)."""
    for d in _slope_walks():
        spreads = det._spreads(d)
        h = np.asarray(d.source)
        direct = np.sqrt((np.abs(h) ** 2).sum(axis=0) - np.abs(h.diagonal()) ** 2)
        assert np.abs(spreads - direct).max() <= 1e-12
        for a in range(d.n):
            _assert_slope_bounded(det._defect(det._column_probabilities(d, [a]), d.n), d, spreads[a])
        _assert_slope_bounded(det._uniform_defect(d), d, spreads.max())
        with monkeypatch.context() as m:
            m.setattr(det, "_CHUNK_BYTES", 16 * 20001 * d.n * 2)  # two columns a block
            _assert_slope_bounded(det._uniform_defect(d), d, spreads.max())
    g = random_graph(np.random.default_rng(4), 9, 0.5)
    degrees = np.bincount(np.array(sorted(g.edges)).ravel(), minlength=g.n)
    assert np.allclose(det._spreads(decompose_graph(g)), np.sqrt(degrees), atol=1e-12)


def test_transfer_objective_obeys_the_slope_bound(monkeypatch):
    """||U(t) P U(-t) - Q||, as pgst_witness_search scores it, changes by
    at most ||[H, P]||_F per unit time, on vertex and mixed states."""
    scan, seen = det._certified_scan, []

    def capture(value_fn, d, t_max, slope, *args):
        seen.append((value_fn, slope))
        return scan(value_fn, d, t_max, slope, *args)

    monkeypatch.setattr(det, "_certified_scan", capture)
    for d in _slope_walks():
        n = d.n
        mixed = det.density_matrix(np.diag(np.arange(1.0, n + 1)) / (n * (n + 1) / 2))
        for p in (vertex_state(n, 0), vertex_state(n, n - 1), mixed):
            pgst_witness_search(p, vertex_state(n, n - 1), d, 1.0)
            value_fn, slope = seen[-1]
            h = np.asarray(d.source)
            assert abs(slope - np.linalg.norm(h @ p.matrix - p.matrix @ h)) <= 1e-12
            _assert_slope_bounded(value_fn, d, slope)


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
