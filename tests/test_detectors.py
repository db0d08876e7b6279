"""Periodicity, transfer, PGST candidates, mixing, bounds, phase checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

import qwalk.detectors
from qwalk import (
    EnumerationCapExceeded,
    Graph,
    OrientedGraph,
    block_decompose,
    controllability_phase_check,
    decompose_graph,
    decompose_oriented,
    dense_expm,
    density_matrix,
    detect_local_uniform_mixing,
    detect_periodicity,
    detect_pst,
    detect_uniform_mixing,
    maximally_mixed,
    path_graph,
    periodic_vertex_bounds,
    pgst_candidates,
    pgst_witness_search,
    pst_time_lower_bound,
    pure_state,
    scan_flatness,
    scan_transfer,
    scan_uniform_flatness,
    sign_flipped,
    spectral_decompose,
    star_graph,
    transfer_sign_pattern,
    verify_transfer,
    vertex_state,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


# -- periodicity ---------------------------------------------------------------


def test_periodicity_k2(k2, decomp):
    report = detect_periodicity(vertex_state(2, 0), decomp(k2))
    assert report.verdict == "yes"
    assert abs(report.witness_time - math.pi) <= 1e-12
    assert report.residual <= 1e-12
    assert report.certificate.delta == 1 and report.certificate.g == 2


def test_periodicity_p3(p3, decomp):
    report = detect_periodicity(vertex_state(3, 0), decomp(p3))
    assert report.verdict == "yes"
    assert abs(report.witness_time - math.pi * SQRT2) <= 1e-12


def test_periodicity_oriented_c3(oriented_c3, decomp):
    report = detect_periodicity(vertex_state(3, 0), decomp(oriented_c3))
    assert report.verdict == "yes"
    assert abs(report.witness_time - 2 * math.pi / SQRT3) <= 1e-9
    assert report.certificate.delta == 3 and report.certificate.g == 1


def test_periodicity_union_fails_with_witness(k2_union_p3, decomp):
    mixed = np.zeros((5, 5), dtype=complex)
    mixed[0, 0] = 0.5
    mixed[2, 2] = 0.5
    report = detect_periodicity(density_matrix(mixed), decomp(k2_union_p3))
    assert report.verdict == "no"
    assert "irrational ratio" in report.reason


def test_periodicity_p4_end_fails(p4, decomp):
    report = detect_periodicity(vertex_state(4, 0), decomp(p4))
    assert report.verdict == "no"


def test_failure_verdicts_match_long_oracle_scan(p4, k2_union_p3, decomp):
    # when the ratio condition fails, the state never returns: no deep
    # minimum anywhere on (0, 50]
    from qwalk import scan_return

    cases = [(p4, vertex_state(4, 0))]
    mixed = np.zeros((5, 5), dtype=complex)
    mixed[0, 0] = 0.5
    mixed[2, 2] = 0.5
    cases.append((k2_union_p3, density_matrix(mixed)))
    for g, state in cases:
        assert detect_periodicity(state, decomp(g)).verdict == "no"
        scan = scan_return(state.matrix, g.adjacency().astype(float), (0.5, 50.0), step=2e-3)
        assert not scan.minima
        assert scan.floor > 1e-2


def test_periodicity_stationary(k2, decomp):
    report = detect_periodicity(maximally_mixed(2), decomp(k2))
    assert report.verdict == "yes"
    assert report.witness_time == 0.0
    assert any("stationary" in w for w in report.warnings)


def test_periodicity_of_a_non_real_state(k2, decomp):
    """(e_0 + i e_1)/sqrt(2) on K2 returns at pi, as P(t) = sum of
    exp(it(theta_r - theta_s)) E_r P E_s holds for any state; transfer
    detection stays real-only."""
    complex_state = density_matrix(0.5 * np.array([[1, -1j], [1j, 1]]))
    assert not complex_state.real
    report = detect_periodicity(complex_state, decomp(k2))
    assert report.verdict == "yes"
    assert abs(report.witness_time - math.pi) <= 1e-12
    assert report.residual <= 1e-12
    with pytest.raises(ValueError, match="real"):
        detect_pst(complex_state, decomp(k2))


# -- perfect state transfer ------------------------------------------------------


def test_pst_k2(k2, decomp):
    report = detect_pst(vertex_state(2, 0), decomp(k2))
    assert report.verdict == "yes"
    assert abs(report.witness_time - math.pi / 2) <= 1e-9
    assert report.residual <= 1e-9
    assert np.linalg.norm(report.target.matrix - vertex_state(2, 1).matrix) <= 1e-9


def test_pst_p3_ends(p3, decomp):
    report = detect_pst(vertex_state(3, 0), decomp(p3))
    assert report.verdict == "yes"
    assert abs(report.witness_time - math.pi / SQRT2) <= 1e-9
    assert np.linalg.norm(report.target.matrix - vertex_state(3, 2).matrix) <= 1e-9


def test_pst_c4_antipodal(c4, decomp):
    report = detect_pst(vertex_state(4, 0), decomp(c4))
    assert report.verdict == "yes"
    assert abs(report.witness_time - math.pi / 2) <= 1e-9
    assert np.linalg.norm(report.target.matrix - vertex_state(4, 2).matrix) <= 1e-9


def test_pst_star_center_reaches_leaf_uniform_state(k13, decomp):
    # The center state is periodic with sigma = pi/sqrt(3); at half period it
    # lands exactly on the real pure state spread uniformly over the leaves.
    # That is perfect state transfer between real states, confirmed below on
    # the dense-exponential path.
    d = decomp(k13)
    report = detect_pst(vertex_state(4, 0), d)
    assert report.verdict == "yes"
    tau = math.pi / (2 * SQRT3)
    assert abs(report.witness_time - tau) <= 1e-9
    w = np.array([0, 1, 1, 1]) / SQRT3
    assert np.linalg.norm(report.target.matrix - np.outer(w, w)) <= 1e-9
    scan = scan_transfer(
        vertex_state(4, 0).matrix, report.target.matrix, d.source, (0.0, 2.0)
    )
    assert scan.minima and abs(scan.minima[0][0] - tau) <= 1e-6
    # the transfer-time lower bound is attained with equality here
    assert abs(np.trace(vertex_state(4, 0).matrix @ report.target.matrix)) <= 1e-12
    assert abs(tau - pst_time_lower_bound(d)) <= 1e-12


def test_pst_p4_no(p4, decomp):
    report = detect_pst(vertex_state(4, 0), decomp(p4))
    assert report.verdict == "no"
    assert "not periodic" in report.reason


def test_pst_stationary_no(k2, decomp):
    report = detect_pst(maximally_mixed(2), decomp(k2))
    assert report.verdict == "no"
    assert "stationary" in report.reason


def test_pst_uniqueness_against_other_candidates(p3, decomp):
    d = decomp(p3)
    p = vertex_state(3, 0)
    report = detect_pst(p, d)
    b = block_decompose(p, d)
    sigma = 2 * report.witness_time
    for pattern in pgst_candidates(b):
        candidate = density_matrix(sign_flipped(b, pattern), tol=1e-8)
        if np.linalg.norm(candidate.matrix - p.matrix) <= 1e-8:
            continue
        if np.linalg.norm(candidate.matrix - report.target.matrix) <= 1e-8:
            continue
        best = pgst_witness_search(p, candidate, d, t_max=3 * sigma)
        assert best.residual > 0.1


# -- verify_transfer --------------------------------------------------------------


def test_verify_transfer_k2_values(k2, decomp):
    d = decomp(k2)
    p0, p1 = vertex_state(2, 0), vertex_state(2, 1)
    assert verify_transfer(p0, p1, d, math.pi / 2) <= 1e-12
    assert verify_transfer(p0, p0, d, math.pi) <= 1e-12
    # at half transfer the Frobenius distance is exactly 1 (the Hermitian
    # difference has eigenvalues +/- 1/sqrt(2))
    assert abs(verify_transfer(p0, p1, d, math.pi / 4) - 1.0) <= 1e-12


def test_verify_transfer_symmetry(k2, p3, decomp):
    for g, a, b in ((k2, 0, 1), (p3, 0, 2), (p3, 0, 1)):
        d = decomp(g)
        p, q = vertex_state(g.n, a), vertex_state(g.n, b)
        for t in (0.3, 1.1, 2.9):
            assert abs(verify_transfer(p, q, d, t) - verify_transfer(q, p, d, t)) <= 1e-10


def test_real_return_invariant(k2, p3, k13, decomp):
    # if P(t) is real then P(2t) = P and U(2t) commutes with the state
    from qwalk import evolve, transition_matrix

    for g, a in ((k2, 0), (p3, 0), (k13, 0)):
        d = decomp(g)
        p = vertex_state(g.n, a)
        report = detect_pst(p, d)
        assert report.verdict == "yes"
        t = report.witness_time
        b = block_decompose(p, d)
        assert np.abs(evolve(b, t).imag).max() <= 1e-10
        assert np.linalg.norm(evolve(b, 2 * t) - p.matrix) <= 1e-8
        u2 = transition_matrix(d, 2 * t)
        assert np.linalg.norm(u2 @ p.matrix - p.matrix @ u2) <= 1e-8


# -- PGST candidates and witness search --------------------------------------------


def test_pgst_candidates_k2_exactly_both_vertices(k2, decomp):
    d = decomp(k2)
    b = block_decompose(vertex_state(2, 0), d)
    candidates = pgst_candidates(b)
    assert len(candidates) == 2
    matrices = [sign_flipped(b, c) for c in candidates]
    assert np.linalg.norm(matrices[0] - vertex_state(2, 0).matrix) <= 1e-10
    targets = sorted(np.linalg.norm(m - vertex_state(2, 1).matrix) for m in matrices)
    assert targets[0] <= 1e-10  # one candidate is the other vertex


def test_pgst_candidates_stationary_single(k2, decomp):
    d = decomp(k2)
    p = maximally_mixed(2)
    b = block_decompose(p, d)
    candidates = pgst_candidates(b)
    assert len(candidates) == 1
    assert np.linalg.norm(sign_flipped(b, candidates[0]) - p.matrix) <= 1e-10


def test_pgst_candidates_p3_contains_both_ends(p3, decomp):
    d = decomp(p3)
    b = block_decompose(vertex_state(3, 0), d)
    mats = [sign_flipped(b, c) for c in pgst_candidates(b)]
    assert any(np.linalg.norm(m - vertex_state(3, 0).matrix) <= 1e-9 for m in mats)
    assert any(np.linalg.norm(m - vertex_state(3, 2).matrix) <= 1e-9 for m in mats)
    for m in mats:
        assert np.linalg.eigvalsh(m).min() >= -1e-9


def test_pgst_candidates_keep_a_weak_diagonal_block(p3, decomp):
    """z ~ (1 + eps, 0, 1 - eps) on P3 puts weight eps^2 = 1e-9 on the zero
    eigenvalue, at block_tol; its off-diagonal blocks are about 2e-5.  A pure
    state on 3 groups has 2^(3-1) sign patterns that stay PSD."""
    d = decomp(p3)
    eps = np.sqrt(1e-9)
    z = np.array([1 + eps, 0.0, 1 - eps])
    p = pure_state(z / np.linalg.norm(z))
    b = block_decompose(p, d)
    assert b.support.diagonal().tolist() == [True, True, True]
    assert len(pgst_candidates(b)) == 4


def test_pgst_candidates_cap(decomp):
    p7 = path_graph(7)
    d = decomp(p7)
    p = vertex_state(7, 0)
    with pytest.raises(EnumerationCapExceeded) as err:
        pgst_candidates(block_decompose(p, d))
    assert err.value.pairs == 21


def test_pgst_cap_message_names_the_pair_count():
    """The message states the exponent, not 2^k in decimal: at k = 20,000
    that would have 6,021 digits, past Python's default limit for converting
    an int to str."""
    err = EnumerationCapExceeded(20000)
    assert str(err) == "would enumerate 2^20000 sign patterns (20000 off-diagonal pairs)"
    assert err.pairs == 20000


def test_pgst_witness_search_k2(k2, decomp):
    best = pgst_witness_search(vertex_state(2, 0), vertex_state(2, 1), decomp(k2), t_max=2.0)
    assert abs(best.t - math.pi / 2) <= 1e-9
    assert best.residual <= 1e-9


def test_pgst_witness_search_p3(p3, decomp):
    best = pgst_witness_search(vertex_state(3, 0), vertex_state(3, 2), decomp(p3), t_max=5.0)
    assert abs(best.t - math.pi / SQRT2) <= 1e-9
    assert best.residual <= 1e-9


def test_pgst_witness_search_star_leaves_floor(k13, decomp):
    best = pgst_witness_search(vertex_state(4, 1), vertex_state(4, 2), decomp(k13), t_max=20.0)
    assert best.residual > 0.3  # measured floor ~1.05: leaves never exchange


# -- transfer sign structure ---------------------------------------------------------


def test_pst_targets_satisfy_block_sign_relations(k2, p3, c4, k13, decomp):
    for g, a in ((k2, 0), (p3, 0), (c4, 0), (k13, 0)):
        d = decomp(g)
        p = vertex_state(g.n, a)
        report = detect_pst(p, d)
        assert report.verdict == "yes"
        signs = transfer_sign_pattern(p, report.target, d)
        assert signs is not None
        for (r, s), eps in signs.items():
            assert eps in (-1, 1)
            if r == s:
                assert eps == 1


# -- mixing ---------------------------------------------------------------------------


def test_local_mixing_k2(k2, decomp):
    report = detect_local_uniform_mixing(decomp(k2), 0, t_max=5.0)
    assert report.verdict == "yes"
    assert abs(report.witness_time - math.pi / 4) <= 1e-9
    assert report.residual <= 1e-12


def test_local_mixing_star_center(k13, decomp):
    report = detect_local_uniform_mixing(decomp(k13), 0, t_max=5.0)
    assert report.verdict == "yes"
    assert abs(report.witness_time - math.pi / (3 * SQRT3)) <= 1e-6
    assert report.residual <= 1e-9


def test_local_mixing_p3_no(p3, decomp):
    report = detect_local_uniform_mixing(decomp(p3), 0, t_max=20.0)
    assert report.verdict == "no"
    assert report.residual > 1e-3  # measured floor ~0.155
    assert any("semi-decision" in w for w in report.warnings)


def test_local_mixing_oriented_triangle(oriented_c3, decomp):
    report = detect_local_uniform_mixing(decomp(oriented_c3), 0, t_max=20.0)
    # necessary condition holds (support is integer multiples of sqrt(3));
    # whether a flat time exists is decided by the scan
    assert any("necessary-condition" in w for w in report.warnings)
    assert report.verdict in ("yes", "no")


def test_uniform_mixing_k2(k2, decomp):
    report = detect_uniform_mixing(decomp(k2), t_max=5.0)
    assert report.verdict == "yes"
    assert abs(report.witness_time - math.pi / 4) <= 1e-9


def test_uniform_mixing_star(k13, decomp):
    report = detect_uniform_mixing(decomp(k13), t_max=5.0)
    assert report.verdict == "yes"
    assert abs(report.witness_time - 2 * math.pi / (3 * SQRT3)) <= 1e-6
    assert report.residual <= 1e-9


def test_uniform_mixing_p3_no(p3, decomp):
    report = detect_uniform_mixing(decomp(p3), t_max=20.0)
    assert report.verdict == "no"
    assert report.residual > 1e-3


ORIENTED_C5 = OrientedGraph.from_arcs(5, [(i, (i + 1) % 5) for i in range(5)])
# a triangle with flux 0.7 through it: complex Hermitian, neither real nor -iS
FLUX_TRIANGLE = np.array(
    [[0, 1, 1], [1, 0, np.exp(0.7j)], [1, np.exp(-0.7j), 0]], dtype=complex
)


@pytest.mark.parametrize(
    "source",
    [path_graph(5), star_graph(3), ORIENTED_C5, FLUX_TRIANGLE],
    ids=["P5", "K13", "oriented-C5", "flux-triangle"],
)
def test_column_probabilities_match_the_dense_exponential(source, decomp):
    """All three branches (real, -iS, complex Hermitian) give |U(t)_ij|^2 from
    (cos(t theta), sin(t theta)), against the dense exponential of the
    decomposed matrix."""
    d = spectral_decompose(source) if isinstance(source, np.ndarray) else decomp(source)
    ts = np.linspace(0.0, 9.0, 257)
    phases = qwalk.detectors._phases(ts, d.theta)
    expected = np.abs(np.array([dense_expm(1j * t * d.source) for t in ts])) ** 2
    every = qwalk.detectors._column_probabilities(d, slice(None))(*phases)
    assert np.abs(every - expected.reshape(len(ts), -1)).max() <= 1e-13
    one = qwalk.detectors._column_probabilities(d, [d.n - 1])(*phases)
    assert np.abs(one - expected[:, :, -1]).max() <= 1e-13


def test_oriented_inference_needs_a_purely_imaginary_source(oriented_c3, decomp):
    # a failed ratio condition is only a hard condition for -iS walks
    flux = spectral_decompose(FLUX_TRIANGLE)
    report = detect_local_uniform_mixing(flux, 0)
    assert (
        "necessary-condition check: ratio condition fails; "
        "advisory (complex Hermitian walk, not oriented)"
    ) in report.warnings
    assert report == detect_local_uniform_mixing(flux, 0, oriented=False)
    d = decomp(oriented_c3)
    assert qwalk.detectors._is_oriented(d)
    assert detect_local_uniform_mixing(d, 0) == detect_local_uniform_mixing(d, 0, oriented=True)


def test_mixing_verdicts_match_the_oracle_on_random_orientations():
    """Seeded random orientations of atlas graphs on 4-6 vertices, plus the
    skew-Hadamard tournament on 4 vertices (exp(tS) is a scaled Hadamard
    matrix at tan(sqrt(3) t) = sqrt(3)), through both mixing detectors and the
    oracle's flatness scans on the acceptance sweep's grid."""
    nx = pytest.importorskip("networkx")
    from conftest import random_orientation

    rng = np.random.default_rng(8)
    atlas = [
        ag for ag in nx.graph_atlas_g() if 4 <= ag.number_of_nodes() <= 6 and ag.number_of_edges()
    ]
    corpus = [OrientedGraph.from_arcs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 1), (2, 3)])]
    for i in rng.choice(len(atlas), 30, replace=False):
        ag = atlas[i]
        g = Graph.from_edges(ag.number_of_nodes(), [tuple(sorted(e)) for e in ag.edges()])
        corpus.append(random_orientation(rng, g))
    window, step, zoom = (0.0, 20.0), 4e-3, 1e-12
    verdicts = []
    for x in corpus:
        d = decompose_oriented(x)
        h = np.asarray(d.source)
        for a in range(x.n):
            report = detect_local_uniform_mixing(d, a, t_max=window[1], grid_points=5000)
            oracle = scan_flatness(h, a, window, step, max_records=2, time_resolution=zoom)
            assert (report.verdict == "yes") == (oracle.floor <= 1e-9), (x.arcs, a)
            verdicts.append(report.verdict)
        report = detect_uniform_mixing(d, t_max=window[1], grid_points=5000)
        oracle = scan_uniform_flatness(h, window, step, max_records=2, time_resolution=zoom)
        assert (report.verdict == "yes") == (oracle.floor <= 1e-9), x.arcs
        verdicts.append(report.verdict)
    assert verdicts.count("yes") >= 5 and verdicts.count("no") >= 150


@pytest.mark.parametrize("t_max", [-1.0, 0.0, math.nan, math.inf])
def test_scans_reject_bad_horizon(k2, decomp, t_max):
    d = decomp(k2)
    scans = (
        lambda: detect_local_uniform_mixing(d, 0, t_max=t_max),
        lambda: detect_uniform_mixing(d, t_max=t_max),
        lambda: pgst_witness_search(vertex_state(2, 0), vertex_state(2, 1), d, t_max=t_max),
    )
    for scan in scans:
        with pytest.raises(ValueError, match="t_max"):
            scan()


# -- vertex bounds ----------------------------------------------------------------------


def test_bounds_p3_end(p3, decomp):
    bounds = periodic_vertex_bounds(p3, decomp(p3), 0, certified_periodic=True)
    assert bounds.ecc_plus_one == 3
    assert bounds.support_size == 3
    assert bounds.upper == 5
    assert bounds.consistent


def test_bounds_oriented_c3(oriented_c3, decomp):
    bounds = periodic_vertex_bounds(oriented_c3, decomp(oriented_c3), 0, certified_periodic=True)
    assert bounds.ecc_plus_one == 2
    assert bounds.support_size == 3
    assert bounds.upper == 5
    assert bounds.consistent


def test_bounds_star_center(k13, decomp):
    bounds = periodic_vertex_bounds(k13, decomp(k13), 0)
    assert bounds.ecc_plus_one == 2
    assert bounds.support_size == 2
    assert bounds.consistent


def test_vertex_checks_reuse_the_given_blocks(p3, c4, k13, oriented_c3, decomp):
    """Local mixing and the bounds read the vertex support off the block mask
    of e_a; handed that block decomposition, they report the same."""
    for x, a in ((p3, 0), (p3, 1), (c4, 0), (k13, 0), (k13, 1), (oriented_c3, 0)):
        d = decomp(x)
        b = block_decompose(vertex_state(x.n, a), d)
        mixing = detect_local_uniform_mixing(d, a, t_max=5.0, blocks=b)
        assert mixing == detect_local_uniform_mixing(d, a, t_max=5.0), (x, a)
        assert periodic_vertex_bounds(x, d, a, blocks=b) == periodic_vertex_bounds(x, d, a), (x, a)


def test_bounds_require_connected(k2_union_p3, decomp):
    with pytest.raises(ValueError, match="connected"):
        periodic_vertex_bounds(k2_union_p3, decomp(k2_union_p3), 0)


# -- controllability phase check ----------------------------------------------------------


def test_phase_check_k2_half_period(k2, decomp):
    check = controllability_phase_check(decomp(k2), math.pi / 2)
    assert check.scalar
    assert abs(check.zeta + 1.0) <= 1e-9  # U(pi) = -I
    assert check.root_of_unity


def test_phase_check_k2_full_period(k2, decomp):
    check = controllability_phase_check(decomp(k2), math.pi)
    assert check.scalar
    assert abs(check.zeta - 1.0) <= 1e-9  # U(2*pi) = I


def test_phase_check_p3_transfer_time(p3, decomp):
    check = controllability_phase_check(decomp(p3), math.pi / SQRT2)
    assert check.scalar
    assert abs(check.zeta - 1.0) <= 1e-9
    assert check.root_of_unity


def test_phase_check_flags_nonscalar(p4, decomp):
    check = controllability_phase_check(decomp(p4), 0.37)
    assert not check.scalar
