"""The eigenbasis form of decompositions and states against the m^2 forms.

A decomposition keeps its grouped eigenvectors V, so the orthogonality
residual comes from one Gram matrix and a state's blocks E_r P E_s from the
sub-blocks of V* P V.  The references below are the explicit products over
all pairs of idempotents, kept here only as test oracles.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from qwalk import (
    Graph,
    block_decompose,
    decompose_graph,
    decompose_oriented,
    dense_expm,
    evolve,
    pure_state,
    vertex_state,
)
from conftest import random_graph, random_orientation


def _stack_orthogonality(d) -> float:
    """max over (r, s) of ||E_r E_s - delta_rs E_r||_F, from the stack."""
    worst = 0.0
    for r in range(d.m):
        for s in range(d.m):
            prod = d.idempotents[r] @ d.idempotents[s]
            if r == s:
                prod = prod - d.idempotents[r]
            worst = max(worst, float(np.linalg.norm(prod)))
    return worst


def _stack_blocks(p, d, block_tol: float) -> dict:
    """The blocks E_r P E_s with norm above block_tol, one product per pair."""
    left = d.idempotents @ p.matrix
    blocks = {}
    for r in range(d.m):
        for s in range(d.m):
            block = left[r] @ d.idempotents[s]
            if np.linalg.norm(block) > block_tol:
                blocks[(r, s)] = block
    return blocks


def _random_decompositions(count: int):
    rng = np.random.default_rng(11)
    for _ in range(count):
        g = random_graph(rng, int(rng.integers(2, 17)), 0.3)
        yield decompose_graph(g)
        yield decompose_oriented(random_orientation(rng, g))


def _perturbed(d, column: int, eps: float, rng):
    """d with one eigenvector column moved by eps and its idempotents rebuilt."""
    w = rng.normal(size=d.n) + 1j * rng.normal(size=d.n)
    v = d.vectors.copy()
    v[:, column] += eps * w / np.linalg.norm(w)
    stack = np.array(
        [v[:, lo:hi] @ v[:, lo:hi].conj().T for lo, hi in zip(d.bounds, d.bounds[1:])]
    )
    return dataclasses.replace(d, vectors=v, idempotents=stack)


def test_gram_orthogonality_is_round_off_where_the_stack_is():
    for d in _random_decompositions(12):
        assert d.residuals()["orthogonality"] <= 1e-12
        assert _stack_orthogonality(d) <= 1e-12


def test_gram_orthogonality_reads_a_perturbed_column_like_the_stack():
    rng = np.random.default_rng(5)
    for d in _random_decompositions(6):
        bad = _perturbed(d, int(rng.integers(d.n)), 1e-6, rng)
        gram = bad.residuals()["orthogonality"]
        stack = _stack_orthogonality(bad)
        assert gram > 1e-8 and stack > 1e-8
        assert abs(gram - stack) <= 0.01 * stack


def _atlas_cases():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(3)
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if not 1 <= n <= 5:
            continue
        g = Graph.from_edges(n, [tuple(sorted(e)) for e in ag.edges()])
        eye = np.eye(n)
        states = [vertex_state(n, a) for a in range(n)] + [
            pure_state((eye[a] + eye[b]) / np.sqrt(2)) for a in range(n) for b in range(a + 1, n)
        ]
        yield decompose_graph(g), states
        if g.edges:
            yield decompose_oriented(random_orientation(rng, g)), states


def test_blocks_match_the_pairwise_products_on_the_atlas():
    checked = 0
    for d, states in _atlas_cases():
        for p in states:
            b = block_decompose(p, d)
            want = _stack_blocks(p, d, b.block_tol)
            assert b.support.pairs == frozenset(want)
            assert set(b.blocks) == set(want)
            norms = d.group_norms(b.p_hat)
            for (r, s), block in want.items():
                assert abs(norms[r, s] - np.linalg.norm(block)) <= 1e-12
                assert np.abs(b.blocks[(r, s)] - block).max() <= 1e-12
            checked += 1
    assert checked == 1267


def test_blocks_below_the_tolerance_leave_p_hat(p4, decomp):
    """With block_tol between the block norms of P4's end vertex (0.138,
    0.224, 0.362), the dropped blocks are gone from P^ as well."""
    d = decomp(p4)
    p = vertex_state(4, 0)
    b = block_decompose(p, d, block_tol=0.3)
    want = _stack_blocks(p, d, 0.3)
    assert 0 < len(want) < d.m**2
    assert b.support.pairs == frozenset(want)
    assert np.abs(b.reconstruct() - sum(want.values())).max() <= 1e-12


@pytest.mark.parametrize("n", [40, 52, 64])
def test_evolve_matches_the_dense_exponential(n):
    rng = np.random.default_rng(n)
    g = random_graph(rng, n, 0.1)
    h = g.adjacency().astype(float)
    d = decompose_graph(g)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    for p in (vertex_state(n, int(rng.integers(n))), pure_state(z / np.linalg.norm(z))):
        b = block_decompose(p, d)
        for t in (0.37, 2.9, 11.5):
            u = dense_expm(1j * t * h)
            want = u @ p.matrix @ u.conj().T
            assert np.abs(evolve(b, t).matrix - want).max() <= 1e-12


def test_block_decompose_and_evolve_stay_small():
    """No n x n block is formed: the m^2 blocks of a vertex state on G(64, 0.1)
    would take 64 KiB each, up to 256 MiB."""
    g = random_graph(np.random.default_rng(64), 64, 0.1)
    d = decompose_graph(g)
    state = vertex_state(64, 7)
    tracemalloc.start()
    try:
        evolve(block_decompose(state, d), 1.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
