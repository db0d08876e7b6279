"""Oracle scans and the dense exponential path."""

from __future__ import annotations

import ast
import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import qwalk.oracle
from qwalk import (
    Graph,
    OrientedGraph,
    complete_graph,
    dense_expm,
    evolve_dense,
    maximally_mixed,
    scan_flatness,
    scan_return,
    scan_transfer,
    scan_uniform_flatness,
    skew_adjacency,
    unitary_grid,
    vertex_state,
)
from conftest import random_orientation


def test_expm_zero_is_identity():
    assert np.allclose(dense_expm(np.zeros((3, 3))), np.eye(3), atol=1e-14)


def test_expm_quarter_period_k2(k2):
    a = k2.adjacency().astype(float)
    assert np.allclose(dense_expm(1j * (np.pi / 2) * a), 1j * a, atol=1e-12)


def test_expm_oriented_c3_full_period(oriented_c3):
    s = skew_adjacency(oriented_c3).astype(float)
    t = 2 * np.pi / np.sqrt(3)
    assert np.linalg.norm(dense_expm(t * s) - np.eye(3)) <= 1e-9


def test_expm_unitary_for_hermitian_input(rng):
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (h + h.conj().T) / 2
    u = dense_expm(1j * h)
    assert np.linalg.norm(u @ u.conj().T - np.eye(6)) <= 1e-10


def test_expm_rejects_extreme_norm():
    with pytest.raises(ValueError, match="norm"):
        dense_expm(np.eye(2) * 2e4)


def test_expm_rejects_nonfinite():
    with pytest.raises(ValueError):
        dense_expm(np.array([[np.inf, 0], [0, 0]]))


def test_scan_return_k2_minima_at_pi_and_2pi(k2):
    p = vertex_state(2, 0).matrix
    result = scan_return(p, k2.adjacency().astype(float), window=(0.0, 7.0))
    times = [t for t, v in result.minima]
    values = [v for t, v in result.minima]
    assert len(times) == 2
    assert abs(times[0] - np.pi) < 1e-6 and abs(times[1] - 2 * np.pi) < 1e-6
    assert max(values) <= 1e-9


def test_scan_return_p3_first_minimum_at_pi_sqrt2(p3):
    p = vertex_state(3, 0).matrix
    result = scan_return(p, p3.adjacency().astype(float), window=(0.0, 10.0))
    assert result.minima, "expected at least one deep return"
    t0, v0 = result.minima[0]
    assert abs(t0 - np.pi * np.sqrt(2)) < 1e-6 and v0 <= 1e-9


def test_scan_return_stationary_state_is_flat_zero(k2):
    p = maximally_mixed(2).matrix
    result = scan_return(p, k2.adjacency().astype(float), window=(0.0, 5.0))
    assert result.ceiling <= 1e-12 and result.floor <= 1e-12


def test_scan_transfer_k2_deep_minimum_at_half_pi(k2):
    p = vertex_state(2, 0).matrix
    q = vertex_state(2, 1).matrix
    result = scan_transfer(p, q, k2.adjacency().astype(float), window=(0.0, 4.0))
    assert result.minima
    t0, v0 = result.minima[0]
    assert abs(t0 - np.pi / 2) < 1e-6 and v0 <= 1e-9


def test_scan_transfer_p3_ends(p3):
    p = vertex_state(3, 0).matrix
    q = vertex_state(3, 2).matrix
    result = scan_transfer(p, q, p3.adjacency().astype(float), window=(0.0, 6.0))
    t0, v0 = result.minima[0]
    assert abs(t0 - np.pi / np.sqrt(2)) < 1e-6 and v0 <= 1e-9


def test_scan_transfer_to_mixed_state_stays_far(k2):
    p = vertex_state(2, 0).matrix
    result = scan_transfer(p, maximally_mixed(2).matrix, k2.adjacency().astype(float), (0.0, 10.0))
    assert not result.minima
    assert result.floor >= 0.49  # pure states keep Frobenius distance 1/sqrt(2) from I/2


def test_scan_flatness_k2(k2):
    result = scan_flatness(k2.adjacency().astype(float), 0, window=(0.0, 3.0))
    t0, v0 = result.minima[0]
    assert abs(t0 - np.pi / 4) < 1e-6 and v0 <= 1e-10


def test_scan_flatness_star_center(k13):
    result = scan_flatness(k13.adjacency().astype(float), 0, window=(0.0, 2.0))
    t0, v0 = result.minima[0]
    assert abs(t0 - np.pi / (3 * np.sqrt(3))) < 1e-6 and v0 <= 1e-10


def test_scan_flatness_p3_floor_positive(p3):
    result = scan_flatness(p3.adjacency().astype(float), 0, window=(0.0, 20.0))
    assert not result.minima
    assert result.floor > 1e-3  # measured floor is ~0.1547


def test_grid_refinement_stability(p3):
    p = vertex_state(3, 0).matrix
    h = p3.adjacency().astype(float)
    coarse = scan_return(p, h, window=(0.0, 10.0), step=2e-3)
    fine = scan_return(p, h, window=(0.0, 10.0), step=1e-3)
    assert len(fine.minima) >= len(coarse.minima)
    for t_coarse, v_coarse in coarse.minima:
        t_fine, v_fine = min(fine.minima, key=lambda m: abs(m[0] - t_coarse))
        assert abs(t_fine - t_coarse) < 1e-6
        assert abs(v_fine - v_coarse) < 1e-6


def test_evolve_dense_matches_manual(k2, rng):
    h = k2.adjacency().astype(float)
    p = vertex_state(2, 0).matrix
    t = float(rng.uniform(0, 5))
    u = dense_expm(1j * t * h)
    assert np.allclose(evolve_dense(p, h, t), u @ p @ u.conj().T, atol=1e-13)


def test_scan_result_serializes(k2):
    result = scan_return(vertex_state(2, 0).matrix, k2.adjacency().astype(float), (0.0, 4.0))
    doc = result.to_json()
    assert set(doc) == {"grid_step", "minima", "floor", "ceiling"}
    assert isinstance(result.dumps(), str)


def test_unitary_grid_reuses_the_last_grid(k2):
    h = k2.adjacency().astype(float)
    grid = unitary_grid(h, 0.0, 1e-2, 50)
    assert unitary_grid(h, 0.0, 1e-2, 50) is grid
    assert not grid.flags.writeable


def test_unitary_grid_keeps_only_the_last_grid(k2, p3):
    first = weakref.ref(unitary_grid(k2.adjacency().astype(float), 0.0, 1e-2, 50))
    unitary_grid(p3.adjacency().astype(float), 0.0, 1e-2, 50)
    gc.collect()
    assert first() is None


def test_unitary_grid_releases_the_kept_grid_before_building():
    h = complete_graph(9).adjacency().astype(float)
    tracemalloc.start()
    try:
        unitary_grid(h, 0.0, 1e-2, 2001)
        tracemalloc.reset_peak()
        new = unitary_grid(h, 0.0, 2e-2, 2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # keeping the old grid while building would peak at twice the new one
    assert peak < 1.25 * new.nbytes


@pytest.mark.parametrize("t0", [0.0, 2.5])
@pytest.mark.parametrize(
    "h",
    [
        complete_graph(8).adjacency().astype(float),
        -1j * skew_adjacency(OrientedGraph.from_arcs(5, [(i, (i + 1) % 5) for i in range(5)])),
    ],
    ids=["K8", "oriented-C5"],
)
def test_unitary_grid_matches_fresh_exponentials(h, t0):
    """Doubling keeps every grid entry, across the resync points, at round-off."""
    step, count = 1e-3, 20001
    grid = unitary_grid(h, t0, step, count)
    for k in (0, 1, 1023, 1024, 4095, count - 1):
        fresh = dense_expm(1j * (t0 + k * step) * h)
        assert np.abs(grid[k] - fresh).max() <= 1e-12, k


def _two_vertex_corpus(n: int, rng) -> list[np.ndarray]:
    """Unit vectors e_a, (e_a + e_b)/sqrt2, (e_a - e_b)/sqrt2 and one random one."""
    eye = np.eye(n, dtype=complex)
    vectors = list(eye)
    for a in range(n):
        for b in range(a + 1, n):
            vectors += [(eye[a] + eye[b]) / np.sqrt(2), (eye[a] - eye[b]) / np.sqrt(2)]
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return vectors + [z / np.linalg.norm(z)]


def test_pure_returns_match_the_dense_formula():
    """On every atlas graph with n <= 5, the objective on the evolved vector
    Ux equals the dense U p U* formula for returns and transfers between pure
    states xx* and yy*.

    The grid is the atlas sweep's window [0, 20] sampled at every tenth point
    of its 4e-3 step."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(7)
    checked = 0
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if not 1 <= n <= 5:
            continue
        h = Graph.from_edges(n, [tuple(sorted(e)) for e in ag.edges()]).adjacency().astype(float)
        u = unitary_grid(h, 0.0, 4e-2, 501)
        states = [np.outer(v, v.conj()) for v in _two_vertex_corpus(n, rng)]
        for i, p in enumerate(states):
            assert qwalk.oracle._pure_vector(p) is not None
            for q in (p, states[(i + 1) % len(states)]):
                objective, x = qwalk.oracle._return_objective(p, q)
                fast = objective(u @ x)
                dense = qwalk.oracle._batch_return(u, p, q)
                assert np.abs(fast - dense).max() <= 1e-12, (ag.edges(), i)
                checked += 1
    assert checked == 2246


def test_mixed_states_take_the_dense_path(monkeypatch, p3):
    def no_pure_path(*args):
        raise AssertionError("a mixed state took the pure-state path")

    monkeypatch.setattr(qwalk.oracle, "_batch_pure_return", no_pure_path)
    h = p3.adjacency().astype(float)
    pure = vertex_state(3, 0).matrix
    pair = np.diag([0.5, 0.0, 0.5]).astype(complex)
    for p, q in [(pure, pair), (pair, pure), (pair, pair), (maximally_mixed(3).matrix, pure)]:
        scan_transfer(p, q, h, (0.0, 2.0))


def test_oracle_imports_nothing_spectral():
    """The oracle's evolution path stays independent of what it checks."""
    forbidden = {"spectral", "states", "certificates", "detectors"}
    tree = ast.parse(Path(qwalk.oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
    assert not imported & forbidden


# -- zoom levels from ladders ------------------------------------------------------

SWEEP = dict(window=(0.0, 20.0), step=4e-3, max_records=2, time_resolution=1e-12)


def _reference_levels(h, objective, x=None):
    """Zoom levels as a fresh doubling grid each, of U(t) x or of U(t), with
    no ladder and no parent base: the reference the ladder levels must match."""
    return lambda lo, step, count: objective(qwalk.oracle._build_grid(h, lo, step, count, x))


def _zoom_scans(h):
    """Return, transfer, mixed-state return and flatness from vertex 0, and
    uniform flatness, at the atlas sweep's settings."""
    n = h.shape[0]
    e0, e1 = vertex_state(n, 0).matrix, vertex_state(n, n - 1).matrix
    mixed = (e0 + e1) / 2
    return (
        lambda: scan_return(e0, h, **SWEEP),
        lambda: scan_transfer(e0, e1, h, **SWEEP),
        lambda: scan_return(mixed, h, **SWEEP),
        lambda: scan_flatness(h, 0, **SWEEP),
        lambda: scan_uniform_flatness(h, **SWEEP),
    )


def test_ladder_zoom_matches_fresh_grids(monkeypatch):
    """On every atlas graph on 2-5 vertices with an edge, plain and in one
    seeded orientation, the ladder levels record as many minima as fresh
    grids do, with values and floors within 1e-13 and times within 1e-12
    (1e-7 where the value is round-off, below 1e-13)."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(19)
    scans = low = 0
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if not 2 <= n <= 5 or not ag.number_of_edges():
            continue
        g = Graph.from_edges(n, [tuple(sorted(e)) for e in ag.edges()])
        for h in (g.adjacency().astype(float), -1j * skew_adjacency(random_orientation(rng, g))):
            for scan in _zoom_scans(h):
                fast = scan()
                with monkeypatch.context() as m:
                    m.setattr(qwalk.oracle, "_zoom_levels", _reference_levels)
                    reference = scan()
                assert len(fast.minima) == len(reference.minima), ag.edges()
                assert abs(fast.floor - reference.floor) <= 1e-13
                for (t, v), (t_ref, v_ref) in zip(fast.minima, reference.minima):
                    assert abs(v - v_ref) <= 1e-13
                    assert abs(t - t_ref) <= (1e-12 if v_ref > 1e-13 else 1e-7), (ag.edges(), t, v)
                    low += v_ref <= 1e-13
                scans += 1
    assert scans == 470 and low > 0


def _counting(monkeypatch, name):
    """Wrap qwalk.oracle.<name> so that each call appends its arguments."""
    calls, fn = [], getattr(qwalk.oracle, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(qwalk.oracle, name, counted)
    return calls


def test_a_second_scan_builds_no_ladder(monkeypatch, p3):
    """Repeated on the same H, a pure-state scan builds no grid and no ladder:
    its one exponential per zoom is the zoom's first base."""
    h = p3.adjacency().astype(float)
    p = vertex_state(3, 0).matrix
    first = scan_return(p, h, **SWEEP)
    assert qwalk.oracle._last_grid[1].shape == (5001, 3)  # the grid of U(t)e_0
    builds = _counting(monkeypatch, "_build_grid")
    expms = _counting(monkeypatch, "dense_expm")
    steps = _counting(monkeypatch, "_ladder")
    assert scan_return(p, h, **SWEEP) == first
    zooms = sum(step == 2 * SWEEP["step"] / 64 for _, _, step, _ in steps)
    assert builds == [] and zooms == len(expms) > 1


def test_ladders_past_the_budget_are_used_not_kept(monkeypatch, p3):
    h = p3.adjacency().astype(float)
    scans = _zoom_scans(h)
    kept = [scan() for scan in scans]
    monkeypatch.setattr(qwalk.oracle, "_ladders", ())
    monkeypatch.setattr(qwalk.oracle, "_LADDER_BYTES", 1)
    assert [scan() for scan in scans] == kept
    assert qwalk.oracle._ladders[1] == {}


def test_ladders_are_dropped_when_h_changes(k2, p3):
    scan_flatness(k2.adjacency().astype(float), 0, **SWEEP)
    ladder = weakref.ref(next(iter(qwalk.oracle._ladders[1].values())))
    h = p3.adjacency().astype(float)
    scan_flatness(h, 0, **SWEEP)
    gc.collect()
    assert ladder() is None
    assert qwalk.oracle._ladders[0] == (h.astype(complex).tobytes(), 3)


# -- streamed vector scans ---------------------------------------------------------


def _stacked_scans(h):
    """Return and transfer from vertex 0 and the flatness of column 0, each
    read off the full (count, n, n) stack of U(t) and its zoom levels, one
    column per U: the reference the streamed scans must match."""
    n = h.shape[0]
    e0, e1 = np.eye(n, dtype=complex)[0], np.eye(n, dtype=complex)[n - 1]
    oracle = qwalk.oracle
    settings = (SWEEP["window"], SWEEP["step"])
    zoom = (SWEEP["time_resolution"], SWEEP["max_records"])

    def pure(y):
        return lambda u: oracle._batch_pure_return(np.einsum("kij,j->ki", u, e0), y)

    return (
        lambda: oracle._scan(h, pure(e0), None, *settings, oracle.DEFAULT_RECORD_BELOW, *zoom),
        lambda: oracle._scan(h, pure(e1), None, *settings, oracle.DEFAULT_RECORD_BELOW, *zoom),
        lambda: oracle._scan(h, lambda u: oracle._batch_flatness(u[:, :, 0:1]), None, *settings, 1e-8, *zoom),
    )


def test_streamed_scans_match_the_stacked_reference():
    """On every atlas graph on at most 5 vertices, plain and in one seeded
    orientation, the return, transfer and column-flatness scans on U(t)e_0
    record as many minima as the stacked scans, with values and floors
    within 1e-13 and times within 1e-12 (1e-7 where the value is round-off,
    below 1e-13)."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(26)
    scans = 0
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if not 1 <= n <= 5:
            continue
        g = Graph.from_edges(n, [tuple(sorted(e)) for e in ag.edges()])
        for h in (g.adjacency().astype(complex), -1j * skew_adjacency(random_orientation(rng, g))):
            e0, e1 = vertex_state(n, 0).matrix, vertex_state(n, n - 1).matrix
            streamed = (
                lambda: scan_return(e0, h, **SWEEP),
                lambda: scan_transfer(e0, e1, h, **SWEEP),
                lambda: scan_flatness(h, 0, **SWEEP),
            )
            for streamed_scan, stacked_scan in zip(streamed, _stacked_scans(h)):
                fast = streamed_scan()
                assert qwalk.oracle._last_grid[1].ndim == 2
                reference = stacked_scan()
                assert qwalk.oracle._last_grid[1].ndim == 3
                assert len(fast.minima) == len(reference.minima), ag.edges()
                assert abs(fast.floor - reference.floor) <= 1e-13
                for (t, v), (t_ref, v_ref) in zip(fast.minima, reference.minima):
                    assert abs(v - v_ref) <= 1e-13
                    assert abs(t - t_ref) <= (1e-12 if v_ref > 1e-13 else 1e-7), (ag.edges(), t, v)
                scans += 1
    assert scans == 312


def test_a_vertex_return_and_its_column_share_one_vector_grid(monkeypatch, p3):
    """scan_return(e_a) and then scan_flatness(a) on one H build one grid
    between them, the (count, n) stack of U(t)e_a; scan_uniform_flatness
    still builds the (count, n, n) stack of U(t)."""
    h = p3.adjacency().astype(float)
    monkeypatch.setattr(qwalk.oracle, "_last_grid", ())
    builds = _counting(monkeypatch, "_build_grid")
    scan_return(vertex_state(3, 1).matrix, h, **SWEEP)
    scan_flatness(h, 1, **SWEEP)
    grids = [args for args in builds if args[3] == 5001]
    assert len(grids) == 1 and np.array_equal(grids[0][4], np.eye(3)[1])
    assert qwalk.oracle._last_grid[1].shape == (5001, 3)
    scan_uniform_flatness(h, **SWEEP)
    grids = [args for args in builds if args[3] == 5001]
    assert len(grids) == 2 and grids[1][4] is None
    assert qwalk.oracle._last_grid[1].shape == (5001, 3, 3)


# -- one-product kernels -----------------------------------------------------------


def _batched_grid(h, t0, step, count, x=None):
    """The doubling with U(f*step) @ out[:f] as one batched product, one small
    matrix product per entry: the reference the row product must match."""
    n = h.shape[0]
    out = np.empty((count, n, n) if x is None else (count, n), dtype=complex)
    first = dense_expm(1j * t0 * h) if t0 != 0.0 else np.eye(n, dtype=complex)
    out[0] = first if x is None else first @ x
    filled = 1
    factor = dense_expm(1j * step * h)
    while filled < count:
        m = min(filled, count - filled)
        if x is None:
            np.matmul(factor, out[:m], out=out[filled : filled + m])
        else:
            np.matmul(out[:m], factor.T, out=out[filled : filled + m])
        filled += m
        if filled < count:
            resync = filled >= qwalk.oracle._RESYNC_EVERY
            factor = dense_expm(1j * filled * step * h) if resync else factor @ factor
    return out


def _entrywise_flatness(u):
    """The largest ||u_ij|^2 - 1/n| of each stack member, from the whole
    array of distances: the reference _batch_flatness must match bit for bit."""
    return np.abs(np.abs(u) ** 2 - 1.0 / u.shape[1]).reshape(len(u), -1).max(axis=1)


def _atlas_hamiltonians(max_n: int, rng):
    """Every atlas graph on 1..max_n vertices, plain and in one seeded
    orientation: an oriented H is not symmetric, so U(t)^T != U(t)."""
    nx = pytest.importorskip("networkx")
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if not 1 <= n <= max_n:
            continue
        g = Graph.from_edges(n, [tuple(sorted(e)) for e in ag.edges()])
        yield g.adjacency().astype(complex)
        if ag.number_of_edges():
            yield -1j * skew_adjacency(random_orientation(rng, g))


def test_batch_flatness_matches_the_entrywise_formula():
    """Bit for bit on (k, n, n) stacks of U(t) and (k, n) stacks of U(t)e_a,
    k = 1 and 65, on a 1x1 H and every atlas graph on at most 6 vertices."""
    rng = np.random.default_rng(30)
    checked = 0
    for h in [np.array([[0.7 + 0j]]), *_atlas_hamiltonians(6, rng)]:
        grid = qwalk.oracle._build_grid(h, 0.3, 0.11, 65)
        for u in (grid, grid[:1]):
            assert np.array_equal(qwalk.oracle._batch_flatness(u), _entrywise_flatness(u))
            for a in range(h.shape[0]):
                column = np.ascontiguousarray(u[:, :, a])
                assert np.array_equal(qwalk.oracle._batch_flatness(column), _entrywise_flatness(column))
            checked += 1
    assert checked == 2 * (1 + 208 + 202)


def test_zoom_levels_are_the_batched_ladder_product():
    """A zoom level, first and deeper, equals ladder @ base bit for bit, for
    the matrix base U(lo) and the vector base U(lo)e_0, on every atlas graph
    on at most 5 vertices."""
    rng = np.random.default_rng(31)
    oracle = qwalk.oracle
    for h in [np.array([[0.7 + 0j]]), *_atlas_hamiltonians(5, rng)]:
        key = (h.tobytes(), h.shape[0])
        for x in (None, np.eye(h.shape[0], dtype=complex)[0]):
            level = oracle._zoom_levels(h, lambda grid: grid, x)
            lo, step = 1.3, 2 * 4e-3 / 64
            first = level(lo, step, 65)
            base = dense_expm(1j * lo * h) if x is None else dense_expm(1j * lo * h) @ x
            assert np.array_equal(first, oracle._ladder(h, key, step, 65) @ base)
            deeper = level(lo + 17 * step, step / 32, 65)
            assert np.array_equal(deeper, oracle._ladder(h, key, step / 32, 65) @ first[17])


def test_matrix_grid_matches_fresh_exponentials_at_the_resync_points():
    """Every entry where the doubling factor changes, and its neighbours,
    within 1e-12 of a fresh exponential, on a 1x1 H and every atlas graph on
    at most 5 vertices."""
    rng = np.random.default_rng(32)
    t0, step, count = 0.25, 4e-3, 5001
    points = sorted({0, count - 1} | {k + d for k in (1, 2, 4, 8, 512, 1024, 2048, 4096) for d in (-1, 0)})
    for h in [np.array([[0.7 + 0j]]), *_atlas_hamiltonians(5, rng)]:
        grid = qwalk.oracle._build_grid(h, t0, step, count)
        for k in points:
            assert np.abs(grid[k] - dense_expm(1j * (t0 + k * step) * h)).max() <= 1e-12, (h, k)


def test_row_doubling_matches_the_batched_reference(monkeypatch):
    """Uniform flatness, on the grid of U(t) and on all its zoom ladders,
    records as many minima with the row product as with the batched
    reference, with values and floors within 1e-13 and times within 1e-12
    (1e-7 where the value is round-off, below 1e-13), on every atlas graph on
    2-5 vertices with an edge, plain and oriented."""
    rng = np.random.default_rng(33)
    scans = 0
    for h in _atlas_hamiltonians(5, rng):
        if not h.any():
            continue
        fast = scan_uniform_flatness(h, **SWEEP)
        with monkeypatch.context() as m:
            m.setattr(qwalk.oracle, "_build_grid", _batched_grid)
            m.setattr(qwalk.oracle, "_last_grid", ())
            m.setattr(qwalk.oracle, "_ladders", ())
            reference = scan_uniform_flatness(h, **SWEEP)
        assert len(fast.minima) == len(reference.minima), h
        assert abs(fast.floor - reference.floor) <= 1e-13
        for (t, v), (t_ref, v_ref) in zip(fast.minima, reference.minima):
            assert abs(v - v_ref) <= 1e-13
            assert abs(t - t_ref) <= (1e-12 if v_ref > 1e-13 else 1e-7), (h, t, v)
        scans += 1
    assert scans == 94
