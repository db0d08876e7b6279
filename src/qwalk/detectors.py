"""Decision procedures: periodicity, perfect state transfer, pretty-good
transfer targets, uniform mixing, and the periodic-vertex counting bounds.

Periodicity and transfer verdicts ride on the integer ratio certificate and
are re-verified by evolving the state; mixing detection is a semi-decision
(scan up to t_max) because no closed mixing-time formula exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import (
    DEFAULT_CERT_TOL,
    DEFAULT_MAX_DEN,
    RatioCertificate,
    RatioConditionAmbiguous,
    RatioConditionFailure,
    minimum_period,
    ratio_condition,
)
from .graphs import Graph, OrientedGraph, eccentricity, max_valency
from .spectral import SpectralDecomposition, transition_matrix
from .states import BlockDecomposition, DensityMatrix, block_decompose, density_matrix, evolve, vertex_state
from .timescan import first_below

DEFAULT_ACCEPT_TOL = 1e-8
DEFAULT_FLAT_TOL = 1e-9
DEFAULT_MIXING_GRID = 10**5
PGST_PAIR_CAP = 20

# Byte budget for one slice of a detector's coarse time grid, counted as 16
# bytes per entry of an n x n matrix per time: one complex U(t) in the transfer
# scan, or Re U(t) and Im U(t) as two real arrays in a mixing scan on a plain
# graph.  No (grid, n, n) array is ever built.
_CHUNK_BYTES = 1 << 22


class EnumerationCapExceeded(RuntimeError):
    """Sign-pattern enumeration would exceed the configured cap (2^pairs, never formatted)."""

    def __init__(self, pairs: int):
        super().__init__(f"would enumerate 2^{pairs} sign patterns ({pairs} off-diagonal pairs)")
        self.pairs = pairs


@dataclass(frozen=True)
class DetectionReport:
    verdict: str  # "yes" | "no" | "inconclusive"
    witness_time: float | None = None
    target: DensityMatrix | None = None
    residual: float = 0.0
    certificate: RatioCertificate | None = None
    reason: str | None = None
    warnings: tuple[str, ...] = ()

    def to_json(self) -> dict:
        warnings = list(self.warnings)
        if self.reason:
            warnings.insert(0, f"reason: {self.reason}")
        return {
            "verdict": self.verdict,
            "witness_time": self.witness_time,
            "residual": self.residual,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
            "warnings": warnings,
        }


@dataclass(frozen=True)
class SignPattern:
    """Signs over unordered off-diagonal support pairs (r < s)."""

    eps: dict[tuple[int, int], int]


def _grouping_ambiguous(d: SpectralDecomposition) -> tuple[str, ...]:
    return tuple(w for w in d.warnings if "ambiguous" in w)


def detect_periodicity(
    p: DensityMatrix,
    d: SpectralDecomposition,
    accept_tol: float = DEFAULT_ACCEPT_TOL,
    cert_tol: float = DEFAULT_CERT_TOL,
    max_den: int = DEFAULT_MAX_DEN,
    blocks: BlockDecomposition | None = None,
) -> DetectionReport:
    """Is the state periodic, and with what minimum period?

    P(t) = sum over blocks of exp(i t (theta_r - theta_s)) E_r P E_s for any
    state, real or not.  Stationary states (empty off-diagonal support) are
    periodic for every t.  Otherwise the ratio condition decides: a
    certificate yields the period sigma = 2*pi/(sqrt(Delta)*g), confirmed by
    evolving the state; a failure witness refutes periodicity.  Only a real,
    entrywise rational state takes the refutation that holds for rational
    states alone.
    """
    ambiguous = _grouping_ambiguous(d)
    if ambiguous:
        return DetectionReport(
            "inconclusive", reason="ambiguous spectral grouping", warnings=ambiguous
        )
    b = blocks if blocks is not None else block_decompose(p, d)
    pairs = b.off_diagonal_pairs()
    if not pairs:
        residual = float(np.linalg.norm(evolve(b, 1.0) - p.matrix))
        return DetectionReport(
            "yes",
            witness_time=0.0,
            residual=residual,
            warnings=("stationary: the state commutes with the walk, so every t is a period",),
        )
    outcome = ratio_condition(pairs, d.theta, max_den, cert_tol, rational_state=p.rational and p.real)
    if isinstance(outcome, RatioConditionFailure):
        return DetectionReport("no", reason=outcome.describe())
    if isinstance(outcome, RatioConditionAmbiguous):
        return DetectionReport("inconclusive", reason=outcome.reason)
    sigma = minimum_period(outcome)
    residual = float(np.linalg.norm(evolve(b, sigma) - p.matrix))
    if residual > accept_tol:
        return DetectionReport(
            "inconclusive",
            witness_time=sigma,
            residual=residual,
            certificate=outcome,
            reason=f"certificate found but return residual {residual:g} exceeds tolerance",
        )
    return DetectionReport("yes", witness_time=sigma, residual=residual, certificate=outcome)


def detect_pst(
    p: DensityMatrix,
    d: SpectralDecomposition,
    accept_tol: float = DEFAULT_ACCEPT_TOL,
    cert_tol: float = DEFAULT_CERT_TOL,
    max_den: int = DEFAULT_MAX_DEN,
    blocks: BlockDecomposition | None = None,
    periodicity: DetectionReport | None = None,
) -> DetectionReport:
    """Does the real state transfer perfectly to a distinct real state?

    A periodic state with minimum period sigma can only transfer at sigma/2,
    and the real target there is unique, so evolving to sigma/2 and testing
    realness and distinctness decides the question completely.  `blocks` and
    `periodicity`, when given, are this state's block decomposition and
    `detect_periodicity` report, and are not worked out again.
    """
    if not p.real:
        raise ValueError("transfer detection requires a real state")
    b = blocks if blocks is not None else block_decompose(p, d)
    per = periodicity
    if per is None:
        per = detect_periodicity(p, d, accept_tol, cert_tol, max_den, blocks=b)
    if per.verdict == "no":
        return DetectionReport("no", reason=f"not periodic ({per.reason})")
    if per.verdict == "inconclusive":
        return DetectionReport("inconclusive", reason=per.reason, warnings=per.warnings)
    if per.certificate is None:
        return DetectionReport("no", reason="stationary state never leaves its initial density")
    sigma = per.witness_time
    tau = sigma / 2.0
    half = evolve(b, tau)
    imag_size = float(np.abs(half.imag).max())
    if imag_size > accept_tol:
        return DetectionReport(
            "no",
            residual=imag_size,
            certificate=per.certificate,
            reason=(
                "the state at half period is not real, and perfect transfer between "
                "real states can only happen there"
            ),
        )
    target = density_matrix(half.real.astype(complex), tol=max(p.tol, 1e-8))
    distance = float(np.linalg.norm(target.matrix - p.matrix))
    if distance <= accept_tol:
        return DetectionReport(
            "no",
            residual=distance,
            certificate=per.certificate,
            reason="the state returns to itself at half period; no distinct real image",
        )
    residual = verify_transfer(p, target, d, tau)
    return DetectionReport(
        "yes",
        witness_time=tau,
        target=target,
        residual=residual,
        certificate=per.certificate,
    )


def verify_transfer(p: DensityMatrix, q: DensityMatrix, d: SpectralDecomposition, t: float) -> float:
    """Frobenius distance ||U(t) P U(-t) - Q|| for externally supplied claims."""
    if p.n != q.n or p.n != d.n:
        raise ValueError("dimension mismatch")
    u = transition_matrix(d, t)
    return float(np.linalg.norm(u @ p.matrix @ u.conj().T - q.matrix))


def _sign_matrices(patterns: np.ndarray, placed, mult) -> np.ndarray:
    """Each pattern's sign matrix, with block a spanning mult[a] rows and columns:
    bit k flips the blocks (a, c) and (c, a) for each (k, a, c) in `placed`."""
    signs = np.ones((len(patterns), len(mult), len(mult)))
    for k, a, c in placed:
        signs[:, a, c] = signs[:, c, a] = 1 - 2 * ((patterns >> k) & 1)
    return np.repeat(np.repeat(signs, mult, axis=1), mult, axis=2)


def _pruned_sign_patterns(b: BlockDecomposition, pairs, floor: float) -> np.ndarray:
    """Indices of the sign patterns whose leading sub-blocks all stay PSD.

    Pattern i flips pairs[k] when bit k of i is set.  The support groups
    g_1 < ... < g_k are added one at a time: at level j each surviving
    partial pattern is extended by the signs of the pairs (g_i, g_j), i < j,
    and kept only if the principal sub-block of the sign-flipped P^ over
    g_1..g_j has smallest eigenvalue >= -floor.  That sub-block is a
    compression of the whole flipped P^, so by Cauchy interlacing its
    smallest eigenvalue bounds the whole one from above.  Returns the
    surviving indices in increasing order.
    """
    d = b.decomposition
    groups = sorted({g for pair in pairs for g in pair})
    level = {g: j for j, g in enumerate(groups)}
    mult = np.array([d.mult[g] for g in groups], dtype=int)
    cols = [c for g in groups for c in range(d.bounds[g], d.bounds[g + 1])]
    patterns = np.zeros(1, dtype=np.int64)
    for j, g in enumerate(groups):
        new = [k for k, (_, s) in enumerate(pairs) if s == g]
        if not new:
            continue  # the sub-block gains no sign, so it prunes nothing new
        for k in new:
            patterns = np.concatenate([patterns, patterns | (1 << k)])
        placed = [(k, level[r], level[s]) for k, (r, s) in enumerate(pairs) if level[s] <= j]
        size = int(mult[: j + 1].sum())
        sub = b.p_hat[np.ix_(cols[:size], cols[:size])]
        chunk = max(1, _CHUNK_BYTES // (16 * size * size))
        live = []
        for start in range(0, len(patterns), chunk):
            part = patterns[start : start + chunk]
            signs = _sign_matrices(part, placed, mult[: j + 1])
            live.append(part[np.linalg.eigvalsh(signs * sub)[:, 0] >= -floor])
        patterns = np.concatenate(live)
    return np.sort(patterns)


def pgst_candidates(
    b: BlockDecomposition,
    psd_tol: float = 1e-9,
    pair_cap: int = PGST_PAIR_CAP,
) -> list[SignPattern]:
    """The sign patterns of all real states reachable by pretty-good transfer
    from the state b decomposes.

    Any target agrees with the state on diagonal blocks and flips signs of
    some off-diagonal blocks, so candidates are the PSD members of the
    sign-flip family; `sign_flipped` builds the matrix of one.  The all-plus
    pattern (the state itself) is always first.  Only the patterns that
    survive the interlacing pruning (`_pruned_sign_patterns`, with a 1e-12
    margin for round-off) reach the exact n x n PSD test.
    """
    pairs = b.off_diagonal_pairs()
    if len(pairs) > pair_cap:
        raise EnumerationCapExceeded(len(pairs))
    d = b.decomposition
    survivors = _pruned_sign_patterns(b, pairs, psd_tol + 1e-12)
    v, placed = d.vectors, [(k, r, s) for k, (r, s) in enumerate(pairs)]
    out: list[SignPattern] = []
    chunk = max(1, _CHUNK_BYTES // (16 * b.n * b.n))
    for start in range(0, len(survivors), chunk):
        indices = survivors[start : start + chunk]
        # the candidate of a pattern is V (S o P^) V* for its sign matrix S
        batch = v @ (_sign_matrices(indices, placed, d.mult) * b.p_hat) @ v.conj().T
        batch = (batch + batch.conj().transpose(0, 2, 1)) / 2
        min_eigs = np.linalg.eigvalsh(batch)[:, 0]
        for i in indices[min_eigs >= -psd_tol].tolist():
            out.append(SignPattern({pair: 1 - 2 * ((i >> k) & 1) for k, pair in enumerate(pairs)}))
    return out


def sign_flipped(b: BlockDecomposition, pattern: SignPattern) -> np.ndarray:
    """V (S o P^) V*: the state b decomposes with its off-diagonal blocks
    (r, s) and (s, r) multiplied by pattern.eps[(r, s)]."""
    d = b.decomposition
    signs = np.ones((d.m, d.m))
    for (r, s), e in pattern.eps.items():
        signs[r, s] = signs[s, r] = e
    signs = np.repeat(np.repeat(signs, d.mult, axis=0), d.mult, axis=1)
    out = d.vectors @ (signs * b.p_hat) @ d.vectors.conj().T
    return (out + out.conj().T) / 2


@dataclass(frozen=True)
class BestTransfer:
    t: float
    residual: float


def _check_t_max(t_max: float) -> None:
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and positive, got {t_max!r}")


def _phases(ts, theta) -> tuple[np.ndarray, np.ndarray]:
    """cos(t theta) and sin(t theta) for a slice of times, as two (len(ts), m) arrays."""
    angles = np.multiply.outer(ts, theta)
    return np.cos(angles), np.sin(angles)


# Allowance for rounding per unit of 1 + t_max max|theta|, the size of the
# largest angle whose cos and sin a scan takes.
_SLACK = 1e-12


def _spreads(d: SpectralDecomposition) -> np.ndarray:
    """Delta H(e_j) = sqrt(||H e_j||^2 - <e_j, H e_j>^2) for every vertex j, the
    spread of theta under the weights ||E_r e_j||^2.  With rho = U e_j e_j* U*,
    d/dt |U(t)_ij|^2 = <e_i, i[H, rho] e_i> and i[H, rho] has eigenvalues
    +-Delta H(e_j) at every t, so Delta H(e_j) bounds the slope of column j's
    defect."""
    weights = np.add.reduceat(np.abs(d.vectors) ** 2, d.bounds[:-1], axis=1)
    return np.sqrt((weights * (d.theta[None, :] - (weights @ d.theta)[:, None]) ** 2).sum(axis=1))


def _certified_scan(
    value_fn, d: SpectralDecomposition, t_max: float, slope: float, target: float, steps: int
):
    """`timescan.first_below` on value_fn, a function of (cos(t theta), sin(t theta))
    with slope at most `slope`, run on batches of at most _CHUNK_BYTES // (16 n^2)
    times: the earliest hit to within t_max / steps.  The work grows with t_max
    times the slope, not with steps, so no budget is below the default grid's."""
    _check_t_max(t_max)
    chunk = max(1, _CHUNK_BYTES // (16 * max(d.n, 1) ** 2))

    def values_at(ts):
        slices = (ts[lo : lo + chunk] for lo in range(0, len(ts), chunk))
        return np.concatenate([value_fn(*_phases(part, d.theta)) for part in slices])

    slack = _SLACK * (1.0 + t_max * float(np.abs(d.theta).max()))
    budget = max(steps, DEFAULT_MIXING_GRID) + 1
    return first_below(values_at, t_max, slope, target, t_max / steps, slack, budget)


def pgst_witness_search(
    p: DensityMatrix,
    q: DensityMatrix,
    d: SpectralDecomposition,
    t_max: float,
    accept_tol: float = DEFAULT_ACCEPT_TOL,
    step: float = 1e-2,
) -> BestTransfer:
    """A transfer time on [0, t_max]; a semi-decision, never a proof.

    ||U(t) P U(-t) - Q|| is scored in the eigenbasis and changes by at most
    ||[H, P]||_F per unit time, so `timescan.first_below` looks for the
    earliest time, to within `step` if the search completes, where it is at
    most 10 accept_tol, and returns the refined minimum next to it.  Without
    one it returns the least value it evaluated, and where.
    """
    _check_t_max(t_max)
    # ||U P U* - Q|| = ||Phi(t) o P^ - Q^|| with P^ = V* P V, Q^ = V* Q V and
    # Phi_ij = exp(i t (lam_i - lam_j)), so each time costs O(n^2)
    v = d.vectors
    p_hat, q_hat = (v.conj().T @ x.matrix @ v for x in (p, q))

    def value_fn(c, s):
        e = np.repeat(c + 1j * s, d.mult, axis=1)
        return np.linalg.norm(e[:, :, None] * p_hat * e[:, None, :].conj() - q_hat, axis=(1, 2))

    lam = np.repeat(d.theta, d.mult)
    slope = float(np.linalg.norm((lam[:, None] - lam[None, :]) * p_hat))  # ||[H, P]||_F
    steps = max(2, int(math.ceil(t_max / step)))
    scan = _certified_scan(value_fn, d, t_max, slope, 10 * accept_tol, steps)
    return BestTransfer(scan.t, scan.value)


def _is_oriented(d: SpectralDecomposition) -> bool:
    """Is the source exactly -iS for a nonzero real S, the walk of an oriented graph?"""
    return bool(d.source.imag.any() and not d.source.real.any())


def _entry_probabilities(d: SpectralDecomposition, e: np.ndarray):
    """A function of (cos(t theta), sin(t theta)) giving |U(t)_ij|^2 at chosen entries.

    e is the (m, K) stack of E_r[i, j] at those K entries, and the function
    returns a (k, K) float array.  The branch follows the exact structure of
    the source: for a real one every E_r is real, so Re U = cos(t theta) E and
    Im U = sin(t theta) E; for a purely imaginary one (-iS) U(t) = exp(tS) is
    real, U = [cos, -sin] [Re E; Im E].  Any other Hermitian source keeps one
    complex product.
    """
    if not d.source.imag.any():
        er = np.ascontiguousarray(e.real)

        def probabilities(c, s):
            re, im = c @ er, s @ er
            re *= re
            im *= im
            re += im
            return re

    elif _is_oriented(d):
        stacked = np.concatenate([e.real, e.imag])

        def probabilities(c, s):
            u = np.concatenate([c, -s], axis=1) @ stacked
            u *= u
            return u

    else:

        def probabilities(c, s):
            u = (c + 1j * s) @ e
            return u.real**2 + u.imag**2

    return probabilities


def _column_probabilities(d: SpectralDecomposition, columns):
    """`_entry_probabilities` over every row of the given columns j, (k, n * len(columns))."""
    return _entry_probabilities(d, d.columns(columns).reshape(d.m, -1))


def _defect(probabilities, n: int):
    """The largest |p - 1/n| per time over the entries that `probabilities` gives."""

    def value_fn(c, s):
        p = probabilities(c, s)
        p -= 1.0 / n
        return np.abs(p, out=p).max(axis=1)

    return value_fn


def _uniform_defect(d: SpectralDecomposition):
    """max_ij | |U(t)_ij|^2 - 1/n | as a function of (cos(t theta), sin(t theta)).

    While the whole (m, n, n) stack of the E_r fits in _CHUNK_BYTES it is
    built once: one (k, m) x (m, n^2) product a batch reads the objective
    two to eight times faster than the column blocks at n = 8-10.  Beyond
    that the objective is read from the eigenvectors over blocks of columns,
    the max taken across blocks: U(t) e_j = V (e^{it lam} o conj V[j]) with
    lam the eigenvalues by multiplicity, so a block of b columns is one
    (k b, n) x (n, n) product and holds 16 k b n bytes at most _CHUNK_BYTES,
    with no stack formed (n = 512 would need 2 GiB).
    """
    n = d.n
    if 16 * d.m * n * n <= _CHUNK_BYTES:
        return _defect(_column_probabilities(d, slice(None)), n)
    real = not d.vectors.imag.any()
    v = d.vectors.real if real else d.vectors
    vt = np.ascontiguousarray(v.T)

    def value_fn(c, s):
        k = len(c)
        c, s = np.repeat(c, d.mult, axis=1)[:, None, :], np.repeat(s, d.mult, axis=1)[:, None, :]
        width = max(1, _CHUNK_BYTES // (16 * k * n))
        out = np.zeros(k)
        for lo in range(0, n, width):
            vj = v[lo : lo + width].conj()
            if real:
                # U(t) is symmetric, so entries (i, j) with i past this block
                # are read as (j, i) in the block that holds column i
                rows = vt[:, : lo + width]
                p, im = (c * vj).reshape(-1, n) @ rows, (s * vj).reshape(-1, n) @ rows
                p *= p
                im *= im
                p += im
            else:
                u = ((c + 1j * s) * vj).reshape(-1, n) @ vt
                p = u.real**2 + u.imag**2
            p -= 1.0 / n
            np.maximum(out, np.abs(p, out=p).reshape(k, -1).max(axis=1), out=out)
        return out

    return value_fn


def _mixing_report(
    d: SpectralDecomposition,
    value_fn,
    slope: float,
    t_max: float,
    flat_tol: float,
    grid_points: int,
    extra_warnings: tuple[str, ...],
) -> DetectionReport:
    """The earliest flat time to within t_max / max(64, grid_points) of a defect with
    slope at most `slope` (`_certified_scan`), warned if an earlier one is not ruled
    out, or a lower bound above flat_tol; a "no" reports the least value evaluated."""
    scan = _certified_scan(value_fn, d, t_max, slope, flat_tol, max(64, int(grid_points)))
    lb, verdict = scan.lower_bound, "no" if scan.lower_bound > flat_tol else "inconclusive"
    reason = f"search unresolved after {scan.evaluations} evaluations: lower bound {lb:g}"
    if scan.hit:
        early = () if lb > flat_tol else (f"{reason}; an earlier flat time is not ruled out",)
        return DetectionReport("yes", witness_time=scan.t, residual=scan.value, warnings=extra_warnings + early)
    if verdict == "no":
        reason = f"certified lower bound {lb:g} above flatness tolerance {flat_tol:g} (slope bound {slope:g})"
    window = (f"semi-decision: searched t in [0, {t_max:g}] only",)
    return DetectionReport(verdict, residual=scan.value, reason=reason, warnings=extra_warnings + window)


def detect_local_uniform_mixing(
    d: SpectralDecomposition,
    a: int,
    t_max: float = 20.0,
    flat_tol: float = DEFAULT_FLAT_TOL,
    grid_points: int = DEFAULT_MIXING_GRID,
    cert_tol: float = DEFAULT_CERT_TOL,
    max_den: int = DEFAULT_MAX_DEN,
    oriented: bool | None = None,
    blocks: BlockDecomposition | None = None,
) -> DetectionReport:
    """Does the walk ever spread vertex a uniformly over all vertices?

    Stage one reports the ratio condition on the vertex support, the
    off-diagonal pairs of the block mask of e_a (`blocks`, when given, is
    that block decomposition and is not worked out again): for walks on
    oriented graphs a flat column is forced to have algebraic entries, so a
    failed ratio condition rules mixing out; for plain graphs and other
    Hermitian walks the same check is advisory only.  Stage two searches the
    max-entry probability defect of U(t) e_a, whose slope is at most
    Delta H(e_a) (sqrt(deg a) on a graph), for a flat time (`_mixing_report`).

    With `oriented=None` the walk counts as oriented iff its source matrix
    is exactly -iS for a nonzero real S: purely imaginary, as
    `decompose_oriented` builds it.  A complex Hermitian source with real
    entries (a graph with complex weights) is not oriented.
    """
    if oriented is None:
        oriented = _is_oriented(d)
    warnings = []
    b = blocks if blocks is not None else block_decompose(vertex_state(d.n, a), d)
    support = b.off_diagonal_pairs()
    if support:
        outcome = ratio_condition(support, d.theta, max_den, cert_tol, rational_state=True)
        if isinstance(outcome, RatioCertificate):
            warnings.append("necessary-condition check: vertex support satisfies the ratio condition")
        elif isinstance(outcome, RatioConditionFailure):
            if oriented:
                kind = "hard necessary condition (oriented walk)"
            elif d.source.imag.any():
                kind = "advisory (complex Hermitian walk, not oriented)"
            else:
                kind = "advisory for plain graphs"
            warnings.append(f"necessary-condition check: ratio condition fails; {kind}")
        else:
            warnings.append(f"necessary-condition check inconclusive: {outcome.reason}")
    value_fn = _defect(_column_probabilities(d, [a]), d.n)
    slope = float(_spreads(d)[a])
    report = _mixing_report(d, value_fn, slope, t_max, flat_tol, grid_points, tuple(warnings))
    if report.verdict == "yes" and oriented and any("fails" in w for w in warnings):
        report = DetectionReport(
            "inconclusive",
            witness_time=report.witness_time,
            residual=report.residual,
            reason="scan found a flat time but the oriented necessary condition fails",
            warnings=report.warnings,
        )
    return report


def detect_uniform_mixing(
    d: SpectralDecomposition,
    t_max: float = 20.0,
    flat_tol: float = DEFAULT_FLAT_TOL,
    grid_points: int = DEFAULT_MIXING_GRID,
) -> DetectionReport:
    """Is there one time at which every vertex state mixes uniformly?

    The objective is the largest defect over all n^2 entries of U(t), and its
    slope is at most max_j Delta H(e_j) (`_mixing_report`).
    """
    slope = float(_spreads(d).max(initial=0.0))
    return _mixing_report(d, _uniform_defect(d), slope, t_max, flat_tol, grid_points, ())


@dataclass(frozen=True)
class VertexBounds:
    ecc_plus_one: int
    support_size: int
    upper: int  # 2 * max_valency + 1
    consistent: bool


def periodic_vertex_bounds(
    x: Graph | OrientedGraph,
    d: SpectralDecomposition,
    a: int,
    certified_periodic: bool = False,
    blocks: BlockDecomposition | None = None,
) -> VertexBounds:
    """Counting bounds on the vertex eigenvalue support, the groups on the
    diagonal of the block mask of e_a (`blocks`, when given).

    ecc(a) + 1 <= |esupp(a)| holds on every connected graph; for a certified
    periodic vertex the support also fits into 2 * max_valency + 1 slots, so
    `consistent` includes that upper bound when requested.
    """
    ecc = eccentricity(x, a)
    if ecc is None:
        raise ValueError("bounds require a connected graph")
    b = blocks if blocks is not None else block_decompose(vertex_state(d.n, a), d)
    support_size = int(b.support.diagonal().sum())
    upper = 2 * max_valency(x) + 1
    consistent = ecc + 1 <= support_size
    if certified_periodic:
        consistent = consistent and support_size <= upper
    return VertexBounds(ecc + 1, support_size, upper, consistent)


@dataclass(frozen=True)
class PhaseCheck:
    scalar: bool
    zeta: complex
    root_of_unity: bool


def controllability_phase_check(
    d: SpectralDecomposition,
    t: float,
    tol: float = DEFAULT_ACCEPT_TOL,
) -> PhaseCheck:
    """For controllable states with a real image at t, U(2t) must be scalar.

    Returns the scalar zeta = U(2t)/I and whether zeta^n is 1; a non-scalar
    U(2t) flags a violated assumption upstream rather than raising.
    """
    u2 = transition_matrix(d, 2.0 * t)
    n = d.n
    zeta = complex(np.trace(u2) / n)
    scalar = bool(np.linalg.norm(u2 - zeta * np.eye(n)) <= n * tol)
    root = bool(abs(zeta**n - 1.0) <= n * tol)
    return PhaseCheck(scalar=scalar, zeta=zeta, root_of_unity=root)


def transfer_sign_pattern(
    p: DensityMatrix,
    q: DensityMatrix,
    d: SpectralDecomposition,
    tol: float = DEFAULT_ACCEPT_TOL,
) -> dict[tuple[int, int], int] | None:
    """Signs eps with E_r Q E_s = eps_{r,s} E_r P E_s, or None if they fail.

    Diagonal pairs must carry +1; used to validate detected transfer targets.
    """
    bp, bq = block_decompose(p, d), block_decompose(q, d)
    if not np.array_equal(bp.support, bq.support):
        return None
    # ||E_r (Q -+ P) E_s|| is the norm of the (r, s) sub-block of Q^ -+ P^
    same, flipped = d.group_norms(bq.p_hat - bp.p_hat), d.group_norms(bq.p_hat + bp.p_hat)
    signs = {}
    for r, s in np.argwhere(bp.support).tolist():
        if same[r, s] <= tol:
            signs[(r, s)] = 1
        elif r != s and flipped[r, s] <= tol:
            signs[(r, s)] = -1
        else:
            return None
    return signs
