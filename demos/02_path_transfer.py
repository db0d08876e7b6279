"""State transfer on short paths: where it works and where it cannot.

The 3-vertex path carries perfect state transfer between its ends at
t = pi/sqrt(2); the 4-vertex path does not, because its golden-ratio
eigenvalue gaps break the ratio condition.  Both facts fall out of the
integer certificate machinery, and the oracle confirms them by brute force.
"""

import numpy as np

from qwalk import (
    block_decompose,
    decompose_graph,
    detect_periodicity,
    detect_pst,
    path_graph,
    pgst_candidates,
    scan_transfer,
    sign_flipped,
    transfer_sign_pattern,
    vertex_spectral_relation,
    vertex_state,
)

p3 = path_graph(3)
d3 = decompose_graph(p3)

rel = vertex_spectral_relation(d3, 0, 2)
print(f"ends of P3 are {rel.kind} with signs {rel.signs} (eigenvalues decreasing)")

state = vertex_state(3, 0)
report = detect_pst(state, d3)
print(f"\nP3 transfer from vertex 0: {report.verdict} at tau = {report.witness_time:.9f}")
print("  (tau = pi/sqrt(2) =", np.pi / np.sqrt(2), ")")
print("  certificate: differences are multiples of sqrt(%d)" % report.certificate.delta)

signs = transfer_sign_pattern(state, report.target, d3)
print("  block sign pattern of the target:", dict(sorted(signs.items())))

print("\nevery pretty-good transfer target is a sign flip of the blocks:")
blocks = block_decompose(state, d3)
for pattern in pgst_candidates(blocks):
    diag = np.round(np.diag(sign_flipped(blocks, pattern).real), 6)
    print(f"  signs {dict(sorted(pattern.eps.items()))} -> diagonal {diag}")

scan = scan_transfer(state.matrix, vertex_state(3, 2).matrix, p3.adjacency().astype(float), (0.0, 10.0))
print("\noracle transfer scan minima (t, distance):")
for t, v in scan.minima:
    print(f"  t = {t:.9f}  distance = {v:.2e}")

p4 = path_graph(4)
d4 = decompose_graph(p4)
report = detect_periodicity(vertex_state(4, 0), d4)
print(f"\nP4 vertex state periodic? {report.verdict}")
print(f"  reason: {report.reason}")
