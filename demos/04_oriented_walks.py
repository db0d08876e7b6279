"""Walks on oriented graphs: skew adjacency, real orthogonal evolution.

An oriented graph evolves by exp(tS) with S skew-symmetric, equivalently by
exp(it(-iS)) with -iS Hermitian, so the whole spectral toolkit applies.  The
cyclically oriented triangle is periodic with period 2*pi/sqrt(3); bipartite
graphs evolve with the same entry magnitudes whether walked plainly or along
their natural orientation.
"""

import numpy as np

from qwalk import (
    OrientedGraph,
    bipartition,
    block_decompose,
    cycle_graph,
    decompose_oriented,
    dense_expm,
    detect_periodicity,
    natural_orientation,
    periodic_vertex_bounds,
    skew_adjacency,
    vertex_state,
)
from qwalk.graphs import max_valency

oc3 = OrientedGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
s = skew_adjacency(oc3)
print("skew adjacency of the oriented triangle:")
print(s)

d = decompose_oriented(oc3)
print("\neigenvalues of -iS:", np.round(d.theta, 9), " (bounded by max valency", max_valency(oc3), ")")

report = detect_periodicity(vertex_state(3, 0), d)
sigma = report.witness_time
print(f"\nvertex 0 is periodic with sigma = {sigma:.12f} = 2*pi/sqrt(3)")
print("exp(sigma * S) is the identity:", np.linalg.norm(dense_expm(sigma * s.astype(complex)) - np.eye(3)) < 1e-9)

bounds = periodic_vertex_bounds(oc3, d, 0, certified_periodic=True)
print(
    f"counting bounds: ecc+1 = {bounds.ecc_plus_one} <= |esupp| = {bounds.support_size}"
    f" <= 2*valency+1 = {bounds.upper}"
)

c4 = cycle_graph(4)
nat = natural_orientation(c4, bipartition(c4))
print("\nnatural orientation of C4 (arcs from odd part to even part):", sorted(nat.arcs))

s4 = skew_adjacency(nat).astype(float)
a4 = c4.adjacency().astype(float)
rng = np.random.default_rng(1)
worst = 0.0
for t in rng.uniform(0, 10, size=25):
    worst = max(worst, np.abs(np.abs(dense_expm(t * s4)) - np.abs(dense_expm(1j * t * a4))).max())
print(f"entrywise |exp(tS)| matches |exp(itA)| over 25 random times; worst gap {worst:.2e}")

d4 = decompose_oriented(nat)
print("\nsupport sizes per vertex of the oriented C4:", [
    int(block_decompose(vertex_state(4, a), d4).support.diagonal().sum()) for a in range(4)
])
