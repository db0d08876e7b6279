"""The eigenbasis form of decompositions and states against the m^2 forms.

A decomposition keeps only its grouped eigenvectors V, so the orthogonality
residual comes from one Gram matrix and a state's blocks E_r P E_s from the
sub-blocks of P^ = V* P V.  The references below are the explicit products
over all pairs of idempotents and the readers of the lazy block dict, kept
here only as test oracles.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qwalk
import qwalk.detectors
from qwalk import (
    Graph,
    block_decompose,
    decompose_graph,
    decompose_oriented,
    dense_expm,
    density_matrix,
    evolve,
    maximally_mixed,
    path_graph,
    pgst_candidates,
    pgst_witness_search,
    pure_state,
    sign_flipped,
    spectral_decompose,
    transfer_sign_pattern,
    vertex_state,
)
from conftest import random_graph, random_orientation

SRC = Path(qwalk.__file__).resolve().parent


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
    """d with one eigenvector column moved by eps; its lazy idempotent stack
    is rebuilt from the moved columns."""
    w = rng.normal(size=d.n) + 1j * rng.normal(size=d.n)
    v = d.vectors.copy()
    v[:, column] += eps * w / np.linalg.norm(w)
    return dataclasses.replace(d, vectors=v)


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


def _support_pairs(b) -> set[tuple[int, int]]:
    return {(r, s) for r, s in np.argwhere(b.support).tolist()}


def test_blocks_match_the_pairwise_products_on_the_atlas():
    checked = 0
    for d, states in _atlas_cases():
        for p in states:
            b = block_decompose(p, d)
            want = _stack_blocks(p, d, b.block_tol)
            assert _support_pairs(b) == set(want)
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
    assert _support_pairs(b) == set(want)
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
            assert np.abs(evolve(b, t) - want).max() <= 1e-12


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


def test_the_library_reads_neither_lazy_view():
    """The stack `idempotents` and the dict `blocks` are views for callers
    outside qwalk: no module reads them outside their own definitions, and
    the stack-based `transition_batch` is gone."""
    readers, batch = [], []

    def visit(node, where: str, path: Path) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr in ("idempotents", "blocks"):
            if node.attr != where:
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
        if "transition_batch" in {getattr(node, key, None) for key in ("id", "attr", "name")}:
            batch.append(f"{path.name}:{getattr(node, 'lineno', 0)}")
        for child in ast.iter_child_nodes(node):
            visit(child, where, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path)
    assert not readers
    assert not batch
    assert not hasattr(qwalk.spectral, "transition_batch")


def test_decompose_and_residuals_stay_small():
    """Without the (m, n, n) stack, decomposing G(256, 0.1) and reading its
    residuals stays far below the 256 MiB that the stack alone would take."""
    h = random_graph(np.random.default_rng(256), 256, 0.1).adjacency().astype(float)
    tracemalloc.start()
    try:
        spectral_decompose(h).residuals()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# the child caps its own address space before it imports numpy, then runs the CLI
_CAPPED_CLI = (
    "import resource, runpy, sys; "
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "sys.argv[0] = 'qwalk'; runpy.run_module('qwalk.cli', run_name='__main__')"
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_spectra_and_evolve_at_the_size_cap_fit_in_one_gib(tmp_path):
    """n = 512 is the default QWALK_MAX_N; spectra (plain and oriented) and
    evolve on G(512, 0.1) finish with the child's address space capped at
    1 GiB, where the stack alone would need 2 GiB."""
    rng = np.random.default_rng(512)
    g = random_graph(rng, 512, 0.1)
    plain, oriented = tmp_path / "g.txt", tmp_path / "o.txt"
    plain.write_text("# n=512\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
    arcs = sorted(random_orientation(rng, g).arcs)
    oriented.write_text("# n=512\n" + "".join(f"{u} {v}\n" for u, v in arcs))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), OPENBLAS_NUM_THREADS="1")
    for argv in (
        ["spectra", str(plain)],
        ["spectra", str(oriented), "--oriented"],
        ["evolve", str(plain), "--state", "vertex:0", "-t", "1.0"],
    ):
        done = subprocess.run(
            [sys.executable, "-c", _CAPPED_CLI, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, (argv[0], done.stderr[-300:])


def _blocks_sign_pattern(bp, q, d, tol: float = 1e-8):
    """transfer_sign_pattern read from the n x n blocks of both states."""
    bq = block_decompose(q, d)
    if set(bp.blocks) != set(bq.blocks):
        return None
    signs = {}
    for (r, s), block_p in bp.blocks.items():
        block_q = bq.blocks[(r, s)]
        if np.linalg.norm(block_q - block_p) <= tol:
            signs[(r, s)] = 1
        elif r != s and np.linalg.norm(block_q + block_p) <= tol:
            signs[(r, s)] = -1
        else:
            return None
    return signs


def test_state_readers_match_the_block_dict_on_the_atlas():
    """transfer_sign_pattern against the last two sign-flipped pgst
    candidates of the state and against the next state, and the norms
    `analyze --emit blocks` prints, against the forms that read the lazy
    block dict."""
    checked = flipped = 0
    for d, states in _atlas_cases():
        for i, p in enumerate(states):
            b = block_decompose(p, d)
            norms = d.group_norms(b.p_hat)
            assert sorted(_support_pairs(b)) == sorted(b.blocks)
            for (r, s), block in b.blocks.items():
                assert abs(norms[r, s] - np.linalg.norm(block)) <= 1e-12
            flips = [density_matrix(sign_flipped(b, pattern), tol=1e-8) for pattern in pgst_candidates(b)[1:]]
            for q in flips[-2:] + [states[(i + 1) % len(states)]]:
                got = transfer_sign_pattern(p, q, d)
                assert got == _blocks_sign_pattern(b, q, d)
                flipped += got is not None and -1 in got.values()
            checked += 1
    assert checked == 1267
    assert flipped > 100


def _dense_transfer_residual(p, q, h, t: float) -> float:
    u = dense_expm(1j * t * h)
    return float(np.linalg.norm(u @ p.matrix @ u.conj().T - q.matrix))


def test_witness_objective_matches_the_dense_conjugation(monkeypatch):
    """pgst_witness_search scores ||Phi(t) o P^ - Q^|| in the eigenbasis; that
    is ||U P U* - Q|| from the dense exponential, on pure and mixed states of
    plain and oriented walks."""
    scored = []
    scan = qwalk.detectors._certified_scan

    def keep(value_fn, *args, **kwargs):
        scored.append(value_fn)
        return scan(value_fn, *args, **kwargs)

    monkeypatch.setattr(qwalk.detectors, "_certified_scan", keep)
    rng = np.random.default_rng(21)
    g = random_graph(rng, 7, 0.5)
    walks = [path_graph(4), g, random_orientation(rng, g), random_orientation(rng, path_graph(5))]
    ts = np.concatenate([[0.0], rng.uniform(0.0, 12.0, 9)])
    for x in walks:
        d = decompose_graph(x) if isinstance(x, Graph) else decompose_oriented(x)
        n = d.n
        z, w = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        z, w = z / np.linalg.norm(z), w / np.linalg.norm(w)
        mixed = density_matrix((np.outer(z, z.conj()) + np.outer(w, w.conj())) / 2)
        states = [vertex_state(n, 0), vertex_state(n, n - 1), pure_state(z), mixed]
        for p, q in [(states[0], states[1]), (states[2], states[0]), (mixed, maximally_mixed(n))]:
            best = pgst_witness_search(p, q, d, t_max=3.0)
            want = [_dense_transfer_residual(p, q, d.source, t) for t in ts]
            got = scored[-1](*qwalk.detectors._phases(ts, d.theta))
            assert np.abs(got - want).max() <= 1e-12
            assert abs(_dense_transfer_residual(p, q, d.source, best.t) - best.residual) <= 1e-12
