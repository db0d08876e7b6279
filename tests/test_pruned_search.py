"""The structured searches against the exhaustive ones they replace.

`pgst_candidates` grows sign patterns group by group and prunes by Cauchy
interlacing; `verify` reads the block products of a vertex state from the
Gram matrix of the vectors E_r e_a; the ratio certificate's irrational
witness scores one row of ratios.  The references below are the exhaustive
forms: every sign pattern through an n x n eigvalsh, and every pair of blocks
multiplied out.  They are kept here only as test oracles.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import qwalk.certificates
from qwalk import (
    Graph,
    RatioConditionFailure,
    block_decompose,
    decompose_graph,
    decompose_oriented,
    density_matrix,
    pgst_candidates,
    pure_state,
    ratio_condition,
    vertex_state,
)
from qwalk.cli import _vertex_block_products
from qwalk.detectors import SignPattern
from conftest import random_graph, random_orientation


def _exhaustive_candidates(b, psd_tol: float = 1e-9):
    """Every one of the 2^pairs sign patterns through the n x n PSD test:
    the signs and the matrix of each pattern that passes, in pattern order."""
    pairs = b.off_diagonal_pairs()
    n = b.n
    base = np.zeros((n, n), dtype=complex)
    for r, s in b.blocks:
        if r == s:
            base += b.blocks[(r, s)]
    combos = [b.blocks[(r, s)] + b.blocks[(s, r)] for r, s in pairs]
    indices = np.arange(2 ** len(pairs))
    batch = np.broadcast_to(base, (len(indices), n, n)).copy()
    for k, combo in enumerate(combos):
        batch += (1 - 2 * ((indices >> k) & 1))[:, None, None] * combo
    batch = (batch + batch.conj().transpose(0, 2, 1)) / 2
    keep = np.linalg.eigvalsh(batch)[:, 0] >= -psd_tol
    return [
        ({pair: 1 - 2 * ((i >> k) & 1) for k, pair in enumerate(pairs)}, batch[i])
        for i in np.flatnonzero(keep).tolist()
    ]


def _looped_block_products(b) -> tuple[float, float]:
    """max ||B_rs B_kl||_F over block pairs with s != k, and with s == k, r != s, l != k."""
    vanishing = same_index = 0.0
    for r, s in b.blocks:
        for k, l in b.blocks:
            norm = float(np.linalg.norm(b.blocks[(r, s)] @ b.blocks[(k, l)]))
            if s != k:
                vanishing = max(vanishing, norm)
            elif r != s and k != l:
                same_index = max(same_index, norm)
    return vanishing, same_index


def _atlas_graphs(max_n: int):
    nx = pytest.importorskip("networkx")
    for ag in nx.graph_atlas_g():
        if 1 <= ag.number_of_nodes() <= max_n:
            yield Graph.from_edges(ag.number_of_nodes(), [tuple(sorted(e)) for e in ag.edges()])


def _decompositions(graphs, seed: int):
    """Each graph plainly and, when it has edges, as one seeded orientation."""
    rng = np.random.default_rng(seed)
    for g in graphs:
        yield decompose_graph(g)
        if g.edges:
            yield decompose_oriented(random_orientation(rng, g))


def _pair_states(n: int):
    eye = np.eye(n)
    return [vertex_state(n, a) for a in range(n)] + [
        pure_state((eye[a] + eye[b]) / math.sqrt(2)) for a in range(n) for b in range(a + 1, n)
    ]


def _assert_same_candidates(p, d) -> int:
    b = block_decompose(p, d)
    got, want = pgst_candidates(p, b, d), _exhaustive_candidates(b)
    assert [pattern.eps for pattern, _ in got] == [eps for eps, _ in want]
    for (_, q), (_, matrix) in zip(got, want):
        assert np.abs(q.matrix - matrix).max() <= 1e-12
    return len(b.off_diagonal_pairs())


def test_pruned_patterns_match_the_exhaustive_list_on_the_atlas():
    checked = 0
    for d in _decompositions(_atlas_graphs(5), seed=17):
        for p in _pair_states(d.n):
            _assert_same_candidates(p, d)
            checked += 1
    assert checked == 1267


def _states_on_groups(d, groups, rng):
    """A real pure, a complex pure and a rank-two state spanned by the
    eigenvectors of the given groups."""
    cols = np.concatenate([np.arange(d.bounds[g], d.bounds[g + 1]) for g in groups])
    v = d.vectors[:, cols]
    real = v @ rng.normal(size=len(cols))
    z, w = (v @ (rng.normal(size=(len(cols), 2)) + 1j * rng.normal(size=(len(cols), 2)))).T
    z, w, real = (y / np.linalg.norm(y) for y in (z, w, real))
    mixed = (np.outer(z, z.conj()) + np.outer(w, w.conj())) / 2
    return [pure_state(real), pure_state(z), density_matrix(mixed)]


def test_pruned_patterns_match_the_exhaustive_list_on_random_graphs():
    """Seeded G(9, 0.4) graphs, plain and oriented, with states spanned by 3-5
    eigenvalue groups, so that each has at most 10 support pairs."""
    rng = np.random.default_rng(9)
    pairs = []
    for _ in range(4):
        g = random_graph(rng, 9, 0.4)
        for d in (decompose_graph(g), decompose_oriented(random_orientation(rng, g))):
            size = int(rng.integers(3, min(d.m, 5) + 1))
            groups = sorted(rng.choice(d.m, size, replace=False).tolist())
            for p in _states_on_groups(d, groups, rng):
                pairs.append(_assert_same_candidates(p, d))
    assert min(pairs) >= 3 and max(pairs) <= 10


def _assert_same_block_products(d) -> None:
    for a in range(min(d.n, 3)):
        b = block_decompose(vertex_state(d.n, a), d)
        vanishing, same_index = _vertex_block_products(d, b.support, a)
        want_vanishing, want_same = _looped_block_products(b)
        assert abs(same_index - want_same) <= 1e-12
        assert vanishing <= d.n * 1e-9 and want_vanishing <= d.n * 1e-9


def test_verify_block_products_match_the_loops_on_the_atlas():
    for d in _decompositions(_atlas_graphs(5), seed=23):
        _assert_same_block_products(d)


def test_verify_block_products_match_the_loops_on_random_graphs():
    rng = np.random.default_rng(12)
    for n in (6, 9, 12):
        g = random_graph(rng, n, 0.3)
        _assert_same_block_products(decompose_graph(g))
        _assert_same_block_products(decompose_oriented(random_orientation(rng, g)))


def test_verify_block_products_see_a_nonzero_product():
    """A deliberately skewed Gram matrix shows up in the s != k row: the rows
    read <u_s, u_k> as computed, not as assumed to vanish."""
    d = decompose_graph(random_graph(np.random.default_rng(4), 8, 0.5))
    b = block_decompose(vertex_state(8, 0), d)
    u = np.add.reduceat(d.vectors * d.vectors[0].conj(), d.bounds[:-1], axis=1)
    r, s = sorted(b.off_diagonal_pairs())[0]
    tilted = d.vectors.copy()
    tilted[:, d.bounds[s]] += 1e-3 * u[:, r] / np.linalg.norm(u[:, r])
    bent = dataclasses.replace(d, vectors=tilted)
    vanishing, _ = _vertex_block_products(bent, b.support, 0)
    assert vanishing > 1e-6


def test_witness_cites_support_pairs_against_a_non_integer_square():
    """A witness from the non-integer branch divides by the first support
    difference whose square is not within tol of an integer >= 1."""
    cited = 0
    for d in _decompositions(_atlas_graphs(5), seed=29):
        for a in range(d.n):
            support = block_decompose(vertex_state(d.n, a), d).support
            if not support.off_diagonal:
                continue
            outcome = ratio_condition(support, d.theta)
            if not isinstance(outcome, RatioConditionFailure) or outcome.pair_a is None:
                continue
            pairs = sorted({(min(r, s), max(r, s)) for r, s in support.off_diagonal})
            assert outcome.pair_a in pairs and outcome.pair_b in pairs
            diffs = {(r, s): float(d.theta[r] - d.theta[s]) for r, s in pairs}
            assert outcome.ratio == diffs[outcome.pair_a] / diffs[outcome.pair_b]
            squares = {pair: diff**2 for pair, diff in diffs.items()}
            off = [
                pair
                for pair in pairs
                if abs(squares[pair] - round(squares[pair])) > 1e-7 or round(squares[pair]) < 1
            ]
            if off:
                assert outcome.pair_b == off[0]
                cited += 1
    assert cited >= 100


def test_witness_scores_one_row(monkeypatch):
    """On a G(40, 0.1) vertex state the witness makes at most k - 1
    _limit_denominator calls over k support pairs, where scoring every
    ordered pair would make k (k - 1)."""
    calls = []
    limit_denominator = qwalk.certificates._limit_denominator

    def counting(x, max_den):
        calls.append(max_den)
        return limit_denominator(x, max_den)

    g = random_graph(np.random.default_rng(40), 40, 0.1)
    d = decompose_graph(g)
    support = block_decompose(vertex_state(40, 0), d).support
    k = len(support.off_diagonal) // 2
    monkeypatch.setattr(qwalk.certificates, "_limit_denominator", counting)
    outcome = ratio_condition(support, d.theta)
    assert isinstance(outcome, RatioConditionFailure)
    assert k > 100 and 1 <= len(calls) <= k - 1
