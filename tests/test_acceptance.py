"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The corpus for the sweep criteria is every graph on at most six
vertices (one representative per isomorphism class, via the atlas) plus the
named examples used throughout the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from qwalk import (
    bipartition,
    block_decompose,
    cycle_graph,
    decompose_graph,
    decompose_oriented,
    dense_expm,
    detect_local_uniform_mixing,
    detect_periodicity,
    detect_pst,
    detect_uniform_mixing,
    evolve_dense,
    graph_stats,
    natural_orientation,
    path_graph,
    pgst_candidates,
    pst_time_lower_bound,
    scan_flatness,
    scan_return,
    scan_transfer,
    scan_uniform_flatness,
    sign_flipped,
    skew_adjacency,
    star_graph,
    transfer_sign_pattern,
    transition_matrix,
    vertex_spectral_relation,
    vertex_state,
)
from qwalk.graphs import Graph, OrientedGraph

nx = pytest.importorskip("networkx")

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

ACCEPT_TOL = 1e-8
FLAT_TOL = 1e-9
SWEEP_STEP = 4e-3
SWEEP_WINDOW = (0.0, 20.0)
SWEEP_GRID_POINTS = 5000
SWEEP_ZOOM = 1e-12


def _passline(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


# -- corpus ------------------------------------------------------------------


def _vertex_orbits(g: Graph) -> list[int]:
    """One representative per automorphism orbit (verdicts are equivariant)."""
    a = g.adjacency()
    n = g.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in itertools.permutations(range(n)):
        p = np.array(perm)
        if (a[np.ix_(p, p)] == a).all():
            for v in range(n):
                ra, rb = find(v), find(perm[v])
                if ra != rb:
                    parent[ra] = rb
    return sorted({find(v) for v in range(n)})


@dataclass
class VertexRecord:
    vertex: int
    periodicity: object
    pst: object
    oracle_return: object
    oracle_flat: object
    mixing: object
    ecc_plus_one: int | None
    support_size: int


@dataclass
class GraphRecord:
    graph: Graph
    decomposition: object
    connected: bool
    vertices: list[VertexRecord] = field(default_factory=list)
    uniform: object = None
    oracle_uniform: object = None


def _sweep_graph(g: Graph) -> GraphRecord:
    d = decompose_graph(g)
    h = np.asarray(d.source)
    stats = graph_stats(g)
    rec = GraphRecord(g, d, stats.connected)
    for a in _vertex_orbits(g):
        state = vertex_state(g.n, a)
        per = detect_periodicity(state, d)
        pst = detect_pst(state, d)
        oracle_ret = scan_return(
            state.matrix, h, SWEEP_WINDOW, SWEEP_STEP, max_records=2, time_resolution=SWEEP_ZOOM
        )
        oracle_flat = scan_flatness(
            h, a, SWEEP_WINDOW, SWEEP_STEP, max_records=2, time_resolution=SWEEP_ZOOM
        )
        mixing = detect_local_uniform_mixing(
            d, a, t_max=SWEEP_WINDOW[1], grid_points=SWEEP_GRID_POINTS
        )
        rec.vertices.append(
            VertexRecord(
                vertex=a,
                periodicity=per,
                pst=pst,
                oracle_return=oracle_ret,
                oracle_flat=oracle_flat,
                mixing=mixing,
                ecc_plus_one=stats.eccentricity[a] + 1 if stats.connected else None,
                support_size=int(block_decompose(state, d).support.diagonal().sum()),
            )
        )
    rec.uniform = detect_uniform_mixing(d, t_max=SWEEP_WINDOW[1], grid_points=SWEEP_GRID_POINTS)
    rec.oracle_uniform = scan_uniform_flatness(
        h, SWEEP_WINDOW, SWEEP_STEP, max_records=2, time_resolution=SWEEP_ZOOM
    )
    return rec


@pytest.fixture(scope="session")
def atlas_sweep():
    """Detector and oracle runs over every graph on <= 6 vertices."""
    graphs = []
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if not (1 <= n <= 6):
            continue
        graphs.append(Graph.from_edges(n, [tuple(sorted(e)) for e in ag.edges()]))
    return [_sweep_graph(g) for g in graphs]


def _oriented_corpus() -> list[OrientedGraph]:
    named = [OrientedGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])]
    for g in (path_graph(2), path_graph(3), path_graph(4), cycle_graph(4)):
        named.append(natural_orientation(g, bipartition(g)))
    return named


# -- criteria ------------------------------------------------------------------


def test_criterion_01_k2_end_to_end():
    g = path_graph(2)
    d = decompose_graph(g)
    p0 = vertex_state(2, 0)

    pst = detect_pst(p0, d)
    assert pst.verdict == "yes"
    assert abs(pst.witness_time - math.pi / 2) <= 1e-9
    assert pst.residual <= 1e-9

    per = detect_periodicity(p0, d)
    assert per.verdict == "yes"
    assert abs(per.witness_time - math.pi) <= 1e-9

    local = detect_local_uniform_mixing(d, 0, t_max=5.0)
    assert local.verdict == "yes"
    assert abs(local.witness_time - math.pi / 4) <= 1e-9
    assert local.residual <= 1e-12

    full = detect_uniform_mixing(d, t_max=5.0)
    assert full.verdict == "yes"
    assert abs(full.witness_time - math.pi / 4) <= 1e-9
    assert full.residual <= 1e-12
    _passline(1, "K2: pst tau=pi/2, sigma=pi, local+full mixing at pi/4")


def test_criterion_02_p3_ends():
    g = path_graph(3)
    d = decompose_graph(g)
    h = np.asarray(d.source)
    p0 = vertex_state(3, 0)

    pst = detect_pst(p0, d)
    assert pst.verdict == "yes"
    assert abs(pst.witness_time - math.pi / SQRT2) <= 1e-6
    assert np.linalg.norm(pst.target.matrix - vertex_state(3, 2).matrix) <= 1e-8

    per = detect_periodicity(p0, d)
    assert abs(per.witness_time - math.pi * SQRT2) <= 1e-9

    rel = vertex_spectral_relation(d, 0, 2)
    assert rel.kind == "strongly_cospectral"
    assert rel.signs == (1, -1, 1)

    # detector verdicts match oracle scans on [0, 10]
    ret = scan_return(p0.matrix, h, (0.0, 10.0))
    assert ret.minima and abs(ret.minima[0][0] - per.witness_time) <= 1e-6
    tra = scan_transfer(p0.matrix, vertex_state(3, 2).matrix, h, (0.0, 10.0))
    assert tra.minima and abs(tra.minima[0][0] - pst.witness_time) <= 1e-6
    center = detect_periodicity(vertex_state(3, 1), d)
    ret_center = scan_return(vertex_state(3, 1).matrix, h, (0.0, 10.0))
    assert center.verdict == "yes"
    assert abs(ret_center.minima[0][0] - center.witness_time) <= 1e-6
    _passline(2, "P3 ends: pst at pi/sqrt(2), sigma=pi*sqrt(2), signs (+,-,+), oracle agrees")


def test_criterion_03_star_local_mixing():
    for leaves in range(2, 7):
        g = star_graph(leaves)
        d = decompose_graph(g)
        report = detect_local_uniform_mixing(d, 0, t_max=5.0)
        expected = math.acos(1.0 / math.sqrt(leaves + 1)) / math.sqrt(leaves)
        assert report.verdict == "yes", f"star with {leaves} leaves"
        assert abs(report.witness_time - expected) <= 1e-6
        assert report.residual <= 1e-9
    _passline(3, "stars n=2..6: center mixing at arccos(1/sqrt(n+1))/sqrt(n)")


def test_criterion_04_k13_full_uniform_mixing():
    d = decompose_graph(star_graph(3))
    report = detect_uniform_mixing(d, t_max=5.0)
    assert report.verdict == "yes"
    assert abs(report.witness_time - 2 * math.pi / (3 * SQRT3)) <= 1e-6
    assert report.residual <= 1e-9
    _passline(4, "K_{1,3}: full uniform mixing at 2*pi/(3*sqrt(3))")


def test_criterion_05_trace_gap_bound(atlas_sweep):
    pairs = 0
    for rec in atlas_sweep:
        d = rec.decomposition
        bound = pst_time_lower_bound(d) if d.m >= 2 else None
        for vrec in rec.vertices:
            pst = vrec.pst
            if pst.verdict != "yes":
                continue
            p = vertex_state(rec.graph.n, vrec.vertex)
            overlap = abs(np.trace(p.matrix @ pst.target.matrix))
            if overlap <= 1e-9:
                pairs += 1
                assert pst.witness_time >= bound - 1e-9, rec.graph
    assert pairs >= 3
    # on K2 the bound is attained with equality
    d2 = decompose_graph(path_graph(2))
    pst2 = detect_pst(vertex_state(2, 0), d2)
    assert abs(pst2.witness_time - pst_time_lower_bound(d2)) <= 1e-9
    _passline(5, f"trace-gap bound holds on {pairs} orthogonal transfer pairs; tight on K2")


def test_criterion_06_rational_period_bound(atlas_sweep):
    certified = 0
    for rec in atlas_sweep:
        for vrec in rec.vertices:
            per = vrec.periodicity
            if per.verdict != "yes" or per.certificate is None:
                continue
            certified += 1
            sigma = per.witness_time
            assert sigma <= 2 * math.pi + 1e-9, rec.graph
            ret = vrec.oracle_return
            assert ret.minima, rec.graph
            t_first, value = ret.minima[0]
            assert abs(t_first - sigma) <= 1e-6 * sigma, rec.graph
            assert value <= 1e-8, rec.graph
    assert certified >= 5
    _passline(6, f"{certified} certified rational states: sigma <= 2*pi, oracle return at sigma")


def test_criterion_07_pgst_structure(atlas_sweep):
    g = path_graph(2)
    d = decompose_graph(g)
    p0 = vertex_state(2, 0)
    b = block_decompose(p0, d)
    candidates = [sign_flipped(b, pattern) for pattern in pgst_candidates(b)]
    assert len(candidates) == 2
    dists_p0 = sorted(np.linalg.norm(c - p0.matrix) for c in candidates)
    dists_p1 = sorted(np.linalg.norm(c - vertex_state(2, 1).matrix) for c in candidates)
    assert dists_p0[0] <= 1e-10 and dists_p1[0] <= 1e-10

    checked = 0
    for rec in atlas_sweep:
        d = rec.decomposition
        for vrec in rec.vertices:
            if vrec.pst.verdict != "yes":
                continue
            checked += 1
            p = vertex_state(rec.graph.n, vrec.vertex)
            signs = transfer_sign_pattern(p, vrec.pst.target, d, tol=1e-8)
            assert signs is not None, rec.graph
            assert all(signs[(r, r)] == 1 for r, s in signs if r == s)
    assert checked >= 3
    _passline(7, f"pgst_candidates(K2)={{D0,D1}}; sign relations hold for {checked} transfer pairs")


def test_criterion_08_oriented_graphs(rng):
    from conftest import random_graph, random_orientation

    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 9))
        x = random_orientation(rng, random_graph(rng, n))
        d = decompose_oriented(x)
        bound = graph_stats(x).max_valency
        assert np.abs(d.theta).max() <= bound + 1e-9
        for r, theta in enumerate(d.theta):
            partner = int(np.argmin(np.abs(d.theta + theta)))
            assert np.linalg.norm(d.idempotents[partner] - d.idempotents[r].conj()) <= 1e-9 * n * 10
        checked += 1

    oc3 = OrientedGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    d3 = decompose_oriented(oc3)
    per = detect_periodicity(vertex_state(3, 0), d3)
    assert per.verdict == "yes"
    assert abs(per.witness_time - 2 * math.pi / SQRT3) <= 1e-9
    u_sigma = dense_expm(per.witness_time * skew_adjacency(oc3).astype(complex))
    assert np.linalg.norm(u_sigma - np.eye(3)) <= 1e-9

    for g in (path_graph(4), cycle_graph(4)):
        x = natural_orientation(g, bipartition(g))
        s = skew_adjacency(x).astype(float)
        a = g.adjacency().astype(float)
        for t in rng.uniform(0.0, 10.0, size=50):
            gap = np.abs(np.abs(dense_expm(t * s)) - np.abs(dense_expm(1j * t * a))).max()
            assert gap <= 1e-9
    _passline(8, "200 orientations bounded+paired; oriented C3 sigma=2*pi/sqrt(3); bipartite equivalence")


def test_criterion_09_counting_bounds(atlas_sweep, rng):
    from conftest import random_graph, random_orientation

    checked = 0
    for rec in atlas_sweep:
        if not rec.connected:
            continue
        for vrec in rec.vertices:
            checked += 1
            assert vrec.ecc_plus_one <= vrec.support_size, rec.graph
    assert checked >= 100

    periodic_verts = 0
    oriented = _oriented_corpus()
    for _ in range(20):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n)
        if graph_stats(g).connected:
            oriented.append(random_orientation(rng, g))
    for x in oriented:
        if not graph_stats(x).connected:
            continue
        d = decompose_oriented(x)
        upper = 2 * graph_stats(x).max_valency + 1
        for a in range(x.n):
            per = detect_periodicity(vertex_state(x.n, a), d)
            if per.verdict == "yes" and per.certificate is not None:
                periodic_verts += 1
                assert block_decompose(vertex_state(x.n, a), d).support.diagonal().sum() <= upper
    assert periodic_verts >= 3
    _passline(9, f"ecc+1 <= |esupp| on {checked} vertices; {periodic_verts} periodic oriented vertices bounded")


def _oracle_pst_classification(state, h, ret):
    """PST holds iff the state is periodic and real+distinct at half period."""
    if not ret.minima:
        return False, None
    sigma = ret.minima[0][0]
    half = evolve_dense(state, h, sigma / 2.0)
    if np.abs(half.imag).max() > 1e-8:
        return False, None
    if np.linalg.norm(half - state) <= 1e-6:
        return False, None
    return True, half


def test_criterion_10_oracle_independence(atlas_sweep, rng):
    from conftest import random_graph

    # path independence on 100 random (graph, t) samples
    for _ in range(100):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n)
        d = decompose_graph(g)
        t = float(rng.uniform(0.0, 10.0))
        gap = np.linalg.norm(transition_matrix(d, t) - dense_expm(1j * t * np.asarray(d.source)))
        assert gap <= 1e-8

    # verdict agreement across the full corpus sweep
    periodic_agree = pst_agree = mixing_agree = 0
    for rec in atlas_sweep:
        h = np.asarray(rec.decomposition.source)
        for vrec in rec.vertices:
            per, ret = vrec.periodicity, vrec.oracle_return
            stationary = ret.ceiling <= 1e-7
            oracle_periodic = stationary or bool(ret.minima)
            assert per.verdict in ("yes", "no"), (rec.graph, vrec.vertex, per)
            assert (per.verdict == "yes") == oracle_periodic, (rec.graph, vrec.vertex)
            periodic_agree += 1
            if per.verdict == "yes" and per.certificate is not None:
                assert abs(ret.minima[0][0] - per.witness_time) <= 1e-6 * per.witness_time

            state = vertex_state(rec.graph.n, vrec.vertex).matrix
            oracle_pst, oracle_target = _oracle_pst_classification(state, h, ret)
            assert (vrec.pst.verdict == "yes") == oracle_pst, (rec.graph, vrec.vertex)
            if oracle_pst:
                assert np.linalg.norm(oracle_target - vrec.pst.target.matrix) <= 1e-6
                assert abs(ret.minima[0][0] / 2.0 - vrec.pst.witness_time) <= 1e-6
            pst_agree += 1

            oracle_mixes = vrec.oracle_flat.floor <= FLAT_TOL
            assert (vrec.mixing.verdict == "yes") == oracle_mixes, (rec.graph, vrec.vertex)
            if vrec.mixing.verdict == "yes" and vrec.oracle_flat.ceiling > FLAT_TOL:
                flat_times = [t for t, v in vrec.oracle_flat.minima]
                assert any(abs(t - vrec.mixing.witness_time) <= 1e-5 for t in flat_times)
            mixing_agree += 1

        oracle_uniform = rec.oracle_uniform.floor <= FLAT_TOL
        assert (rec.uniform.verdict == "yes") == oracle_uniform, rec.graph

    assert periodic_agree >= 300 and pst_agree >= 300 and mixing_agree >= 300
    _passline(
        10,
        f"path independence x100; verdicts agree with oracle on {periodic_agree} vertex states "
        f"across {len(atlas_sweep)} graphs",
    )
