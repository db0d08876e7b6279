"""Rational approximation, square-free parts, ratio certificates, periods."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk.certificates
from qwalk import (
    Graph,
    OrientedGraph,
    RatioCertificate,
    RatioConditionAmbiguous,
    RatioConditionFailure,
    block_decompose,
    decompose_graph,
    decompose_oriented,
    density_matrix,
    minimum_period,
    path_graph,
    pst_time_lower_bound,
    pure_state,
    ratio_condition,
    rational_approx,
    scan_return,
    squarefree_part,
    vertex_state,
)

from qwalk.certificates import _limit_denominator

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


# -- rational approximation ----------------------------------------------------


def test_rational_approx_half():
    r = rational_approx(0.5)
    assert (r.p, r.q) == (1, 2) and r.residual == 0.0


def test_rational_approx_integer():
    r = rational_approx(2.0)
    assert (r.p, r.q) == (2, 1)


def test_rational_approx_sqrt2_large_budget_is_present():
    # With max_den 1e6 the convergent 665857/470832 sits within 1.6e-12 of
    # sqrt(2), so a 1e-9 tolerance cannot reject it; irrationality detection
    # needs the denominator budget and tolerance chosen against each other.
    r = rational_approx(SQRT2, max_den=10**6, tol=1e-9)
    assert r is not None
    assert (r.p, r.q) == (665857, 470832)
    assert r.residual < 2e-12


def test_rational_approx_sqrt2_small_budget_is_absent():
    # Best convergent with q <= 1e4 is 11482/8119, off by ~1.07e-8 > 1e-9.
    assert rational_approx(SQRT2, max_den=10**4, tol=1e-9) is None


def test_rational_approx_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rational_approx(0.5, max_den=0)
    with pytest.raises(ValueError):
        rational_approx(float("nan"))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**3))
def test_rational_approx_recovers_exact_fractions(p, q):
    g = math.gcd(p, q)
    p, q = p // g, q // g
    r = rational_approx(p / q, max_den=10**6, tol=1e-9)
    assert r is not None
    # floating division may round, but the recovered fraction matches it
    assert abs(r.p / r.q - p / q) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    st.floats(allow_nan=False, allow_infinity=False)
    | st.fractions(max_denominator=10**5).map(float),
    st.integers(min_value=1, max_value=10**6),
)
def test_limit_denominator_matches_fractions(x, max_den):
    """The integer continued fraction behind rational_approx picks the same
    fraction as Fraction.limit_denominator, ties included."""
    want = Fraction(x).limit_denominator(max_den)
    assert _limit_denominator(x, max_den) == (want.numerator, want.denominator)


# -- square-free parts ----------------------------------------------------------


@pytest.mark.parametrize("k,expected", [(12, (2, 3)), (1, (1, 1)), (18, (3, 2)), (4, (2, 1)), (45, (3, 5))])
def test_squarefree_part_values(k, expected):
    assert squarefree_part(k) == expected


def test_squarefree_part_rejects_nonpositive():
    with pytest.raises(ValueError):
        squarefree_part(0)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=300))
def test_squarefree_part_property(a, b):
    # strip squares from b first so the expected decomposition is canonical
    a2, b2 = squarefree_part(b)
    a_full, b_full = squarefree_part(a * a * b)
    assert a_full * a_full * b_full == a * a * b
    assert b_full == b2
    for p in range(2, int(math.isqrt(b_full)) + 1):
        assert b_full % (p * p) != 0


# -- ratio condition -------------------------------------------------------------


def _vertex_support(g, a, decomp):
    d = decomp(g)
    return block_decompose(vertex_state(g.n, a), d).off_diagonal_pairs(), d.theta


def test_ratio_condition_k2(k2, decomp):
    support, theta = _vertex_support(k2, 0, decomp)
    cert = ratio_condition(support, theta)
    assert isinstance(cert, RatioCertificate)
    assert cert.delta == 1
    assert cert.multipliers[(0, 1)] == 2 and cert.multipliers[(1, 0)] == -2
    assert cert.g == 2
    assert cert.residual <= 1e-12


def test_ratio_condition_p3(p3, decomp):
    support, theta = _vertex_support(p3, 0, decomp)
    cert = ratio_condition(support, theta)
    assert isinstance(cert, RatioCertificate)
    assert cert.delta == 2
    mags = sorted(abs(m) for (r, s), m in cert.multipliers.items() if r < s)
    assert mags == [1, 1, 2]
    assert cert.g == 1


def test_ratio_condition_star_center(k13, decomp):
    support, theta = _vertex_support(k13, 0, decomp)
    cert = ratio_condition(support, theta)
    assert isinstance(cert, RatioCertificate)
    assert cert.delta == 3 and cert.g == 2


def test_ratio_condition_union_failure(k2_union_p3, decomp):
    d = decomp(k2_union_p3)
    mixed = np.zeros((5, 5), dtype=complex)
    mixed[0, 0] = 0.5  # half weight on the K2 component
    mixed[2, 2] = 0.5  # half weight on an end of the P3 component
    state = density_matrix(mixed)
    assert state.rational
    b = block_decompose(state, d)
    outcome = ratio_condition(b.off_diagonal_pairs(), d.theta, rational_state=state.rational)
    assert isinstance(outcome, RatioConditionFailure)
    assert outcome.pair_a is not None and outcome.ratio is not None
    # the witness ratio mixes an integer gap with a sqrt(2) gap
    ratio_sq = outcome.ratio**2
    assert any(abs(ratio_sq - v) < 1e-9 for v in (2.0, 0.5, 8.0, 0.125))


def test_ratio_condition_p4_vertex_fails(p4, decomp):
    # path on 4 vertices has golden-ratio eigenvalues; vertex states cannot
    # be periodic and the squared differences betray it
    support, theta = _vertex_support(p4, 0, decomp)
    outcome = ratio_condition(support, theta, rational_state=True)
    assert isinstance(outcome, RatioConditionFailure)


def test_ratio_condition_ambiguous_for_nonrational_state(p5, decomp):
    d = decomp(p5)
    # pure state supported on the sqrt(3) and 1 eigenspaces only: its single
    # off-diagonal difference has a non-integer square, but the state is not
    # rational, so no verdict is possible through the integer certificate
    idx3 = int(np.argmin(np.abs(d.theta - SQRT3)))
    idx1 = int(np.argmin(np.abs(d.theta - 1.0)))
    v = d.idempotents[idx3][:, 0] + d.idempotents[idx1][:, 0]
    state = pure_state(v / np.linalg.norm(v))
    assert not state.rational
    b = block_decompose(state, d)
    outcome = ratio_condition(b.off_diagonal_pairs(), d.theta, rational_state=state.rational)
    assert isinstance(outcome, RatioConditionAmbiguous)
    # the honest inconclusive is right: the state does return, at 2*pi/(sqrt(3)-1)
    expected = 2 * math.pi / (SQRT3 - 1.0)
    scan = scan_return(state.matrix, p5.adjacency().astype(float), (0.0, 10.0))
    assert scan.minima and abs(scan.minima[0][0] - expected) < 1e-6


def test_ratio_condition_empty_support_raises(k2, decomp):
    d = decomp(k2)
    from qwalk import maximally_mixed

    b = block_decompose(maximally_mixed(2), d)
    with pytest.raises(ValueError, match="stationary"):
        ratio_condition(b.off_diagonal_pairs(), d.theta)


def _all_pairs_reference(pairs, theta, tol=1e-7):
    """The ratio condition of a rational state tested on every support pair:
    (outcome class, certificate JSON or None)."""
    diffs = [float(theta[r] - theta[s]) for r, s in pairs]
    rounded = [round(x * x) for x in diffs]
    if any(abs(x * x - k) > tol or k < 1 for x, k in zip(diffs, rounded)):
        return RatioConditionFailure, None
    if len({squarefree_part(k)[1] for k in rounded}) > 1:
        return RatioConditionFailure, None
    delta = squarefree_part(math.gcd(*rounded))[1]
    mults = [round(x / math.sqrt(delta)) for x in diffs]
    residual = max(abs(x - m * math.sqrt(delta)) for x, m in zip(diffs, mults))
    if min(mults) < 1 or tol < residual <= 10 * tol:
        return RatioConditionAmbiguous, None
    if residual > tol:
        return RatioConditionFailure, None
    multipliers = {**dict(zip(pairs, mults)), **{(s, r): -m for (r, s), m in zip(pairs, mults)}}
    return RatioCertificate, RatioCertificate(delta, multipliers, residual, math.gcd(*mults)).to_json()


def test_forest_matches_all_pairs_on_the_atlas():
    """On every vertex state of every graph on at most 6 vertices, plain and
    with a seeded orientation, testing the spanning forest gives the outcome
    class and certificate of testing every support pair."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(6)
    checked = certified = 0
    for ag in nx.graph_atlas_g()[1:]:
        n = ag.number_of_nodes()
        if n > 6:
            break
        edges = sorted(tuple(sorted(e)) for e in ag.edges())
        arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
        walks = [decompose_graph(Graph.from_edges(n, edges))]
        if edges:
            walks.append(decompose_oriented(OrientedGraph.from_arcs(n, arcs)))
        for d in walks:
            for a in range(n):
                pairs = block_decompose(vertex_state(n, a), d).off_diagonal_pairs()
                if not pairs:
                    continue
                outcome = ratio_condition(pairs, d.theta)
                want_cls, want_json = _all_pairs_reference(pairs, d.theta)
                assert type(outcome) is want_cls, (edges, a)
                if want_json is not None:
                    assert outcome.to_json() == want_json, (edges, a)
                    certified += 1
                checked += 1
    assert checked > 1000 and certified > 100


def test_non_rational_state_scores_one_forest_row(monkeypatch):
    """cos 1 e_0 + sin 1 e_1 on a seeded G(32, 0.3) supports all 496 pairs of
    its 32 groups; one ratio_condition scores at most m - 1 = 31 ratios,
    where a test of every pair of differences would take 122,760."""
    from conftest import random_graph

    d = decompose_graph(random_graph(np.random.default_rng(32), 32, 0.3))
    z = np.zeros(32)
    z[0], z[1] = math.cos(1.0), math.sin(1.0)
    state = pure_state(z)
    assert not state.rational
    pairs = block_decompose(state, d).off_diagonal_pairs()
    assert d.m == 32 and len(pairs) == 496
    calls = []
    original = qwalk.certificates._limit_denominator
    monkeypatch.setattr(
        qwalk.certificates, "_limit_denominator", lambda x, den: calls.append(den) or original(x, den)
    )
    outcome = ratio_condition(pairs, d.theta, rational_state=False)
    assert isinstance(outcome, (RatioConditionAmbiguous, RatioConditionFailure))
    assert 0 < len(calls) <= d.m - 1
    assert set(calls) == {10**6}  # the row of a non-rational state is scored against max_den


# -- minimum period and the transfer-time bound -----------------------------------


def test_minimum_period_k2(k2, decomp):
    support, theta = _vertex_support(k2, 0, decomp)
    cert = ratio_condition(support, theta)
    sigma = minimum_period(cert)
    assert abs(sigma - math.pi) <= 1e-12
    scan = scan_return(vertex_state(2, 0).matrix, k2.adjacency().astype(float), (0.0, 7.0))
    assert abs(scan.minima[0][0] - sigma) <= 1e-6 * sigma


def test_minimum_period_p3(p3, decomp):
    support, theta = _vertex_support(p3, 0, decomp)
    sigma = minimum_period(ratio_condition(support, theta))
    assert abs(sigma - math.pi * SQRT2) <= 1e-12
    assert abs(sigma - 4.442882938158366) <= 1e-9
    scan = scan_return(vertex_state(3, 0).matrix, p3.adjacency().astype(float), (0.0, 10.0))
    assert abs(scan.minima[0][0] - sigma) <= 1e-6 * sigma


def test_minimum_period_star_center(k13, decomp):
    support, theta = _vertex_support(k13, 0, decomp)
    sigma = minimum_period(ratio_condition(support, theta))
    assert abs(sigma - math.pi / SQRT3) <= 1e-12
    assert abs(sigma - 1.8137993642342178) <= 1e-9
    scan = scan_return(vertex_state(4, 0).matrix, k13.adjacency().astype(float), (0.0, 7.0))
    assert abs(scan.minima[0][0] - sigma) <= 1e-6 * sigma


def test_rational_state_period_at_most_2pi(k2, p3, c4, k13, decomp):
    for g, a in ((k2, 0), (p3, 0), (p3, 1), (c4, 0), (k13, 0), (k13, 1)):
        support, theta = _vertex_support(g, a, decomp)
        cert = ratio_condition(support, theta)
        assert isinstance(cert, RatioCertificate)
        sigma = minimum_period(cert)
        assert sigma <= 2 * math.pi + 1e-9
        assert math.sqrt(cert.delta) * cert.g >= 1


def test_certificate_soundness(k2, p3, c4, k13, decomp):
    for g, a in ((k2, 0), (p3, 0), (c4, 0), (k13, 0)):
        d = decomp(g)
        b = block_decompose(vertex_state(g.n, a), d)
        cert = ratio_condition(b.off_diagonal_pairs(), d.theta)
        root = math.sqrt(cert.delta)
        for (r, s), m in cert.multipliers.items():
            assert abs((d.theta[r] - d.theta[s]) - m * root) <= 1e-7
            assert cert.multipliers[(s, r)] == -m


def test_pst_time_lower_bound_values(k2, p3, k13, decomp):
    assert abs(pst_time_lower_bound(decomp(k2)) - math.pi / 2) <= 1e-12
    assert abs(pst_time_lower_bound(decomp(p3)) - math.pi / (2 * SQRT2)) <= 1e-12
    assert abs(pst_time_lower_bound(decomp(p3)) - 1.1107207345395915) <= 1e-9
    assert abs(pst_time_lower_bound(decomp(k13)) - math.pi / (2 * SQRT3)) <= 1e-12


def test_pst_time_lower_bound_needs_two_eigenvalues():
    with pytest.raises(ValueError):
        pst_time_lower_bound(np.array([1.0]))
