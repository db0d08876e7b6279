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
    skew_adjacency,
    unitary_grid,
    vertex_state,
)


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
    """On every atlas graph with n <= 5, the one-column objective equals the
    dense U p U* formula for returns and transfers between pure states.

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
                fast = qwalk.oracle._return_objective(p, q)(u)
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
