"""Graph model: parsing, serialization, orientation, combinatorial stats."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import (
    Graph,
    GraphParseError,
    OrientedGraph,
    bipartition,
    cycle_graph,
    graph_stats,
    natural_orientation,
    parse_graph,
    parse_oriented_graph,
    path_graph,
    serialize_graph,
    serialize_oriented_graph,
    skew_adjacency,
    star_graph,
)
from qwalk.graphs import eccentricity, max_valency
from conftest import random_orientation

nx = pytest.importorskip("networkx")


# -- parsing ----------------------------------------------------------------


def test_edge_list_single_edge_is_k2():
    g = parse_graph("0 1")
    assert g.n == 2 and g.edges == frozenset({(0, 1)})


def test_graph6_a_underscore_is_k2():
    g = parse_graph("A_", fmt="graph6")
    assert g.n == 2 and g.edges == frozenset({(0, 1)})


def test_edge_list_two_edges_is_p3():
    g = parse_graph("0 1\n1 2")
    assert g == path_graph(3)


def test_edge_list_comments_and_n_hint():
    g = parse_graph("# n=4\n0 1\n# trailing comment\n2 3")
    assert g.n == 4 and g.edges == frozenset({(0, 1), (2, 3)})


def test_edge_list_sparse_labels_are_remapped():
    g = parse_graph("0 5\n5 9")
    assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2)})
    assert g.labels == (0, 5, 9)


def test_json_graph_roundtrip():
    g = star_graph(3)
    text = serialize_graph(g, fmt="json")
    assert parse_graph(text, fmt="json") == g


def test_json_rejects_out_of_range_vertex():
    with pytest.raises(GraphParseError, match="out of range"):
        parse_graph(json.dumps({"n": 2, "edges": [[0, 2]]}), fmt="json")


def test_edge_list_rejects_loop_with_line_number():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("0 1\n2 2")


def test_edge_list_rejects_duplicate_edge():
    with pytest.raises(GraphParseError, match="duplicate"):
        parse_graph("0 1\n1 0")


def test_edge_list_rejects_malformed_line():
    with pytest.raises(GraphParseError, match="line 1"):
        parse_graph("0 1 2")


def test_n_hint_rejects_large_index():
    with pytest.raises(GraphParseError, match="vertex index >= n"):
        parse_graph("# n=2\n0 5")


def test_arc_list_direction_means_u_to_v():
    x = parse_oriented_graph("0 1\n1 2")
    assert x.arcs == frozenset({(0, 1), (1, 2)})


def test_arc_list_rejects_double_orientation():
    with pytest.raises(GraphParseError, match="second arc"):
        parse_oriented_graph("0 1\n1 0")


def test_oriented_json_roundtrip(oriented_c3):
    text = serialize_oriented_graph(oriented_c3, fmt="json")
    assert parse_oriented_graph(text, fmt="json") == oriented_c3


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, keep in zip(pairs, mask) if keep])


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_roundtrip_every_format(g):
    for fmt in ("edge-list", "graph6", "json"):
        assert parse_graph(serialize_graph(g, fmt=fmt), fmt=fmt) == g


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_graph6_matches_networkx(g):
    encoded = serialize_graph(g, fmt="graph6")
    h = nx.from_graph6_bytes(encoded.encode("ascii"))
    assert set(h.nodes) == set(range(g.n))
    assert {tuple(sorted(e)) for e in h.edges} == set(g.edges)
    # and decode networkx's own encoding of the same graph
    other = nx.empty_graph(g.n)
    other.add_edges_from(g.edges)
    theirs = nx.to_graph6_bytes(other, header=False).decode().strip()
    assert parse_graph(theirs, fmt="graph6") == g


# -- skew adjacency and orientation ------------------------------------------


def test_skew_single_arc():
    x = OrientedGraph.from_arcs(2, [(0, 1)])
    assert skew_adjacency(x).tolist() == [[0, 1], [-1, 0]]


def test_skew_oriented_triangle_is_circulant(oriented_c3):
    s = skew_adjacency(oriented_c3)
    assert s[0].tolist() == [0, 1, -1]
    assert (s + s.T == 0).all()


def test_skew_empty_arcs_zero_matrix():
    assert (skew_adjacency(OrientedGraph.from_arcs(3, [])) == 0).all()


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_skew_antisymmetry_and_underlying(g, rnd):
    arcs = [(u, v) if rnd.random() < 0.5 else (v, u) for u, v in sorted(g.edges)]
    x = OrientedGraph.from_arcs(g.n, arcs)
    s = skew_adjacency(x)
    assert (s + s.T == 0).all()
    assert ((s * s) == g.adjacency()).all()  # underlying-graph identity


def test_natural_orientation_k2():
    g = parse_graph("0 1")
    x = natural_orientation(g, ((0,), (1,)))
    assert skew_adjacency(x).tolist() == [[0, -1], [1, 0]]


def test_natural_orientation_p3_spectrum(p3):
    x = natural_orientation(p3, ((0, 2), (1,)))
    assert len(x.arcs) == 2
    eigs = np.linalg.eigvals(skew_adjacency(x).astype(complex))
    expected = {0.0, np.sqrt(2), -np.sqrt(2)}
    assert sorted(np.round(eigs.imag, 9)) == sorted(np.round(list(expected), 9))
    assert np.abs(eigs.real).max() < 1e-12


def test_natural_orientation_c4_spectrum_matches_adjacency(c4):
    parts = bipartition(c4)
    x = natural_orientation(c4, parts)
    assert len(x.arcs) == 4
    skew_spec = np.sort(np.linalg.eigvalsh(-1j * skew_adjacency(x).astype(complex)))
    adj_spec = np.sort(np.linalg.eigvalsh(c4.adjacency().astype(float)))
    assert np.allclose(skew_spec, adj_spec, atol=1e-9)


def test_natural_orientation_rejects_bad_parts(c3):
    with pytest.raises(ValueError):
        natural_orientation(c3, ((0,), (1, 2)))


# -- bipartition and stats ----------------------------------------------------


def test_bipartition_c4(c4):
    assert bipartition(c4) == ((0, 2), (1, 3))


def test_bipartition_odd_cycle_absent(c3):
    assert bipartition(c3) is None


def test_bipartition_p3(p3):
    assert bipartition(p3) == ((0, 2), (1,))


def test_stats_star(k13):
    stats = graph_stats(k13)
    assert stats.max_valency == 3
    assert stats.connected
    assert stats.eccentricity[0] == 1 and stats.eccentricity[1] == 2


def test_stats_path(p3):
    stats = graph_stats(p3)
    assert stats.max_valency == 2 and stats.eccentricity[0] == 2


def test_stats_oriented_triangle(oriented_c3):
    stats = graph_stats(oriented_c3)
    assert stats.max_valency == 2 and stats.connected


def test_stats_disconnected_flags_eccentricity(k2_union_p3):
    stats = graph_stats(k2_union_p3)
    assert not stats.connected and stats.eccentricity is None


def test_single_source_stats_match_graph_stats():
    """On every atlas graph on 1-6 vertices, plain and in one seeded
    orientation, one breadth-first search from each vertex gives the
    connectivity and eccentricity graph_stats gives, and max_valency its
    maximum valency."""
    rng = np.random.default_rng(6)
    disconnected = 0
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if not 1 <= n <= 6:
            continue
        g = Graph.from_edges(n, [tuple(sorted(e)) for e in ag.edges()])
        for x in (g, random_orientation(rng, g)):
            stats = graph_stats(x)
            assert max_valency(x) == stats.max_valency
            for a in range(n):
                expected = stats.eccentricity[a] if stats.connected else None
                assert eccentricity(x, a) == expected, (ag.edges(), a)
            disconnected += not stats.connected
    assert disconnected > 100


def test_graph_rejects_loop():
    with pytest.raises(ValueError, match="loop"):
        Graph.from_edges(2, [(1, 1)])


def test_oriented_rejects_both_orientations():
    with pytest.raises(ValueError):
        OrientedGraph.from_arcs(2, [(0, 1), (1, 0)])


def test_cycle_builder():
    assert cycle_graph(4).edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
