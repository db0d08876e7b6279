"""Density matrices, block structure, evolution, flat vectors, the algebra of H and a state."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import (
    StateError,
    algebra_dimension,
    block_decompose,
    decompose_graph,
    density_from_json,
    density_matrix,
    evolve,
    is_flat,
    maximally_mixed,
    path_graph,
    pure_state,
    transition_matrix,
    vertex_state,
)


def test_vertex_state_values():
    assert vertex_state(2, 0).matrix.real.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert np.allclose(vertex_state(3, 2).matrix, np.diag([0, 0, 1.0]))


def test_vertex_state_flags():
    s = vertex_state(4, 1)
    assert s.real and s.pure and s.rational


def test_vertex_state_range_check():
    with pytest.raises(StateError):
        vertex_state(3, 3)


def test_pure_state_matches_vertex_state():
    s = pure_state(np.array([1.0, 0.0]))
    assert np.allclose(s.matrix, vertex_state(2, 0).matrix)


def test_pure_state_plus():
    s = pure_state(np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.allclose(s.matrix, np.full((2, 2), 0.5), atol=1e-12)
    assert s.real


def test_pure_state_complex_not_real():
    s = pure_state(np.array([1.0, 1j]) / np.sqrt(2))
    assert np.allclose(s.matrix, 0.5 * np.array([[1, -1j], [1j, 1]]), atol=1e-12)
    assert not s.real and s.pure


def test_pure_state_rejects_non_unit():
    with pytest.raises(StateError, match="norm"):
        pure_state(np.array([1.0, 1.0]))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(StateError, match="trace"):
        density_matrix(np.diag([0.5, 0.4]))


def test_density_matrix_rejects_negative():
    with pytest.raises(StateError, match="semidefinite"):
        density_matrix(np.diag([1.5, -0.5]))


def test_density_json_roundtrip():
    s = pure_state(np.array([1.0, 1j]) / np.sqrt(2))
    again = density_from_json(s.to_json())
    assert np.allclose(again.matrix, s.matrix, atol=1e-12)


def test_rationality_flag():
    assert maximally_mixed(3).rational
    irrational = pure_state(np.array([1.0, np.sqrt(2)]) / np.sqrt(3))
    assert not irrational.rational  # off-diagonal entry sqrt(2)/3


def test_k2_blocks_by_hand(k2, decomp):
    b = block_decompose(vertex_state(2, 0), decomp(k2))
    assert set(b.blocks) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    quarter = np.full((2, 2), 0.25)
    assert np.allclose(b.blocks[(0, 0)], quarter, atol=1e-12)
    assert np.allclose(b.blocks[(1, 1)], np.array([[0.25, -0.25], [-0.25, 0.25]]), atol=1e-12)


def test_commuting_state_has_empty_off_diagonal(k2, decomp):
    b = block_decompose(maximally_mixed(2), decomp(k2))
    assert not b.support.off_diagonal
    assert set(b.blocks) == {(0, 0), (1, 1)}


def test_star_center_support_excludes_zero_eigenvalue(k13, decomp):
    d = decomp(k13)
    b = block_decompose(vertex_state(4, 0), d)
    zero_idx = int(np.argmin(np.abs(d.theta)))
    assert all(zero_idx not in pair for pair in b.blocks)


def test_support_symmetry(p3, decomp):
    b = block_decompose(vertex_state(3, 0), decomp(p3))
    assert all((s, r) in b.support.pairs for r, s in b.support.pairs)


def test_support_diagonal_presence(p3, p4, k13, decomp):
    for g, a in ((p3, 0), (p4, 1), (k13, 2)):
        b = block_decompose(vertex_state(g.n, a), decomp(g))
        diag = b.support.diagonal
        for r, s in b.support.off_diagonal:
            assert r in diag and s in diag


def test_block_reconstruction(p4, decomp):
    s = vertex_state(4, 0)
    b = block_decompose(s, decomp(p4))
    assert np.linalg.norm(b.reconstruct() - s.matrix) <= 4 * b.block_tol


def test_block_trace_orthogonality(p3, decomp):
    b = block_decompose(vertex_state(3, 0), decomp(p3))
    keys = sorted(b.blocks)
    for i, key1 in enumerate(keys):
        for key2 in keys[i + 1 :]:
            inner = np.trace(b.blocks[key1].conj().T @ b.blocks[key2])
            assert abs(inner) <= 1e-12


def test_block_product_vanishing(p4, decomp):
    b = block_decompose(vertex_state(4, 0), decomp(p4))
    for r, s in b.blocks:
        for k, l in b.blocks:
            if s != k:
                prod = b.blocks[(r, s)] @ b.blocks[(k, l)]
                assert np.linalg.norm(prod) <= 1e-10


def test_evolve_zero_reconstructs(p3, decomp):
    s = vertex_state(3, 0)
    b = block_decompose(s, decomp(p3))
    assert np.linalg.norm(evolve(b, 0.0).matrix - s.matrix) <= 1e-12


def test_evolve_k2_transfer(k2, decomp):
    b = block_decompose(vertex_state(2, 0), decomp(k2))
    assert np.linalg.norm(evolve(b, np.pi / 2).matrix - vertex_state(2, 1).matrix) <= 1e-12


def test_evolve_p3_transfer(p3, decomp):
    b = block_decompose(vertex_state(3, 0), decomp(p3))
    assert np.linalg.norm(evolve(b, np.pi / np.sqrt(2)).matrix - vertex_state(3, 2).matrix) <= 1e-9


def test_evolve_stationary(k2, decomp):
    b = block_decompose(maximally_mixed(2), decomp(k2))
    for t in (0.3, 1.7, 9.1):
        assert np.linalg.norm(evolve(b, t).matrix - np.eye(2) / 2) <= 2e-9


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=20.0))
def test_evolution_preserves_state_invariants(t):
    d = decompose_graph(path_graph(4))
    b = block_decompose(vertex_state(4, 1), d)
    evolved = evolve(b, t)
    assert abs(np.trace(evolved.matrix) - 1.0) <= 1e-10
    assert np.linalg.norm(evolved.matrix - evolved.matrix.conj().T) <= 1e-10
    assert np.linalg.eigvalsh(evolved.matrix).min() >= -1e-9


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=20.0))
def test_block_path_equals_conjugation_path(t):
    d = decompose_graph(path_graph(4))
    s = vertex_state(4, 0)
    b = block_decompose(s, d)
    u = transition_matrix(d, t)
    direct = u @ s.matrix @ u.conj().T
    assert np.linalg.norm(evolve(b, t).matrix - direct) <= 4 * 1e-10


def test_is_flat_cases():
    assert is_flat(np.array([1, 1, 1, 1]) / 2)
    assert is_flat(np.array([1, 1j, -1, -1j]) / 2)
    assert not is_flat(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        is_flat(np.zeros(3))


def test_algebra_dimension_k2_vertex_state_controllable(k2, decomp):
    report = algebra_dimension(block_decompose(vertex_state(2, 0), decomp(k2)))
    assert report.dim == 4 and report.controllable


def test_algebra_dimension_commuting_pair(k2, decomp):
    report = algebra_dimension(block_decompose(maximally_mixed(2), decomp(k2)))
    assert report.dim == 2 and not report.controllable


def test_algebra_dimension_p3_center_not_full(p3, decomp):
    report = algebra_dimension(block_decompose(vertex_state(3, 1), decomp(p3)))
    assert report.dim < 9
    assert report.dim == 5  # commutant of the end-swap symmetry has dimension 5


def _one_vector_closure(h, m, tol: float = 1e-10) -> tuple[int, bool]:
    """The unital algebra of H and the state by a closure over words in H and
    P, each scaled to norm 1: every new element, projected off the basis one
    vector at a time (modified Gram-Schmidt, two passes) and normalised, is
    multiplied on the left by both generators until nothing new appears."""
    n = h.shape[0]
    basis = []

    def add(mat):
        vec = mat.reshape(-1)
        for _ in range(2):
            for b in basis:
                vec = vec - np.vdot(b, vec) * b
        norm = float(np.linalg.norm(vec))
        if norm <= tol:
            return None
        basis.append(vec / norm)
        return basis[-1].reshape(n, n)

    gens = [g / np.linalg.norm(g) for g in (h, m) if np.linalg.norm(g)]
    frontier = [y for x in [np.eye(n, dtype=complex), *gens] if (y := add(x)) is not None]
    while frontier and len(basis) < n * n:
        frontier = [y for g in gens for x in frontier if (y := add(g @ x)) is not None]
    return len(basis), len(basis) == n * n


def _mixed_pair(n: int):
    m = np.zeros((n, n))
    m[0, 0] = m[1, 1] = 0.5
    return density_matrix(m)


def test_algebra_dimension_matches_the_one_vector_closure(monkeypatch):
    """Every atlas graph on 3-5 vertices, plain and in one seeded orientation,
    and seeded plain and oriented G(8, 0.4), over every vertex (0 and 3 at
    n = 8), the pair (e_0 + e_{n-1})/sqrt(2), the mixed (E_00 + E_11)/2 and a
    seeded rank-2 state.  The degenerate graphs among them (C4, K1,3, K4, ...)
    send the mixed states through the closure branch."""
    from conftest import random_graph, random_orientation

    nx = pytest.importorskip("networkx")
    from qwalk import Graph, decompose_oriented, states

    rng = np.random.default_rng(9)

    def corpus_states(n, vertices):
        e = np.eye(n)
        z = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        rank2 = 0.7 * np.outer(z[0], z[0].conj()) + 0.3 * np.outer(z[1], z[1].conj())
        return [vertex_state(n, a) for a in vertices] + [
            pure_state((e[0] + e[n - 1]) / np.sqrt(2)),
            _mixed_pair(n),
            density_matrix(rank2),
        ]

    cases = []
    for ag in nx.graph_atlas_g():
        if 3 <= ag.number_of_nodes() <= 5:
            g = Graph.from_edges(ag.number_of_nodes(), [tuple(sorted(e)) for e in ag.edges()])
            for d in (decompose_graph(g), decompose_oriented(random_orientation(rng, g))):
                cases += [(d, s) for s in corpus_states(g.n, range(g.n))]
    for _ in range(2):
        g = random_graph(rng, 8, 0.4)
        for d in (decompose_graph(g), decompose_oriented(random_orientation(rng, g))):
            cases += [(d, s) for s in corpus_states(8, (0, 3))]

    closures = []
    closure_dimension = states._closure_dimension
    monkeypatch.setattr(states, "_closure_dimension", lambda *a: closures.append(a) or closure_dimension(*a))
    for d, s in cases:
        got = algebra_dimension(block_decompose(s, d))
        assert (got.dim, got.controllable) == _one_vector_closure(d.source, s.matrix)
    assert len(closures) >= 50


def test_algebra_dimension_keeps_a_weak_group():
    """Vertex 0 of this 9-vertex graph has |x_4|^2 = 3.2e-11 on one group:
    block_decompose keeps that group, and the spectrum is simple, so the
    algebra is the full M_9."""
    from qwalk import Graph

    edges = [(0, 1), (0, 2), (0, 4), (0, 5), (0, 7), (1, 5), (1, 7), (2, 3), (2, 4), (2, 6)]
    edges += [(3, 4), (3, 7), (3, 8), (4, 5), (4, 7), (5, 7), (5, 8), (6, 8), (7, 8)]
    report = algebra_dimension(block_decompose(vertex_state(9, 0), decompose_graph(Graph.from_edges(9, edges))))
    assert (report.dim, report.controllable) == (81, True)


@pytest.mark.parametrize("n", [8, 16, 24, 32, 64])
def test_algebra_dimension_end_vertex_of_a_path_is_controllable(n):
    report = algebra_dimension(block_decompose(vertex_state(n, 0), decompose_graph(path_graph(n))))
    assert (report.dim, report.controllable) == (n * n, True)


def test_algebra_dimension_mixed_state_on_k128():
    """E_0 P E_0 is a scalar, E_1 P E_1 has rank 2 and E_0 P E_1 rank 1: 1 + 3 + 1 + 1 = 6."""
    from qwalk import complete_graph

    report = algebra_dimension(block_decompose(_mixed_pair(128), decompose_graph(complete_graph(128))))
    assert (report.dim, report.controllable) == (6, False)


def test_algebra_dimension_mixed_state_on_c16_is_the_commutant_of_its_reflection():
    """(E_00 + E_11)/2 on C16 commutes with the reflection swapping 0 and 1,
    whose eigenspaces both have dimension 8: the algebra is M_8 + M_8."""
    from qwalk import cycle_graph

    d, state = decompose_graph(cycle_graph(16)), _mixed_pair(16)
    report = algebra_dimension(block_decompose(state, d))
    assert (report.dim, report.controllable) == (128, False)
    assert _one_vector_closure(d.source, state.matrix) == (128, False)


def test_algebra_closure_raises_past_its_byte_budget(monkeypatch):
    """Mixed C16 holds 128 basis rows; a 4 KiB budget stops the closure with
    MemoryError instead of a dimension, and 1 MiB lets it finish."""
    from qwalk import cycle_graph, states

    b = block_decompose(_mixed_pair(16), decompose_graph(cycle_graph(16)))
    monkeypatch.setattr(states, "ALGEBRA_BASIS_BYTES", 4096)
    with pytest.raises(MemoryError, match="algebra closure needs more than 0.00390625 MiB"):
        algebra_dimension(b)
    monkeypatch.setattr(states, "ALGEBRA_BASIS_BYTES", 2**20)
    assert algebra_dimension(b).dim == 128
