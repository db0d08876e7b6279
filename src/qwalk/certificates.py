"""Exact-certificate layer: rational approximation, square-free certificates,
minimum periods, and the transfer-time lower bound.

The certified path replaces field-theoretic arguments with a checkable
statement: every eigenvalue difference on the support is an integer multiple
of sqrt(Delta) for one square-free Delta, confirmed in integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_CERT_TOL = 1e-7
DEFAULT_MAX_DEN = 10**6

# Denominator budget used when hunting for an irrational-ratio witness: true
# eigenvalue-difference ratios of desk-scale integer problems have tiny
# denominators, so a ratio that needs more than this is reported irrational.
_WITNESS_DEN = 1000


@dataclass(frozen=True)
class RationalApprox:
    p: int
    q: int
    residual: float


def rational_approx(x: float, max_den: int = DEFAULT_MAX_DEN, tol: float = 1e-9) -> RationalApprox | None:
    """Best continued-fraction convergent with bounded denominator.

    Returns None when no fraction with denominator <= max_den lands within
    tol of x.  Note that generic irrationals do admit approximations of
    quality ~1/max_den^2, so rejection requires tol chosen against max_den.
    """
    if max_den < 1:
        raise ValueError("max_den must be at least 1")
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    p, q = _limit_denominator(float(x), int(max_den))
    residual = abs(x - p / q)
    if residual > tol:
        return None
    return RationalApprox(p, q, float(residual))


def _limit_denominator(x: float, max_den: int) -> tuple[int, int]:
    """Fraction(x).limit_denominator(max_den) as (p, q), in plain integers.

    The best lower and upper approximations with denominator <= max_den
    are the last convergent p1/q1 and the semiconvergent pb/qb of the
    continued fraction of x; the closer one wins, p1/q1 on a tie.
    """
    num, den = x.as_integer_ratio()
    if den <= max_den:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    pb, qb = p0 + k * p1, q0 + k * q1
    # |p1/q1 - x| <= |pb/qb - x|, cleared of the positive denominators
    if abs(p1 * den - num * q1) * qb <= abs(pb * den - num * qb) * q1:
        return p1, q1
    return pb, qb


def squarefree_part(k: int) -> tuple[int, int]:
    """Write k = a^2 * b with b square-free and a maximal; returns (a, b)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    a, b = 1, 1
    rem = int(k)
    p = 2
    while p * p <= rem:
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            a *= p ** (e // 2)
            if e % 2:
                b *= p
        p += 1 if p == 2 else 2
    b *= rem  # leftover prime factor, exponent 1
    return a, b


@dataclass(frozen=True)
class RatioCertificate:
    """All support differences are integer multiples of sqrt(delta)."""

    delta: int
    multipliers: dict[tuple[int, int], int]  # antisymmetric over ordered pairs
    residual: float
    g: int  # gcd of the multiplier magnitudes

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "multipliers": [[r, s, m] for (r, s), m in sorted(self.multipliers.items())],
            "g": self.g,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class RatioConditionFailure:
    """A witness that some pair of support differences has irrational ratio."""

    reason: str
    pair_a: tuple[int, int] | None = None
    pair_b: tuple[int, int] | None = None
    ratio: float | None = None

    def describe(self) -> str:
        if self.pair_a is not None and self.pair_b is not None:
            return (
                f"{self.reason}: differences for support pairs {self.pair_a} and "
                f"{self.pair_b} have ratio {self.ratio:.12g}"
            )
        return self.reason


@dataclass(frozen=True)
class RatioConditionAmbiguous:
    reason: str
    diagnostics: dict = field(default_factory=dict)


def _irrational_witness(pairs, diffs, ref):
    """Most irrational-looking ratio diffs[j] / diffs[ref], scored against small rationals.

    One row suffices: were every difference a rational multiple of
    diffs[ref], every pairwise ratio would be rational.
    """
    best = None
    for j, diff in enumerate(diffs):
        if j == ref:
            continue
        ratio = diff / diffs[ref]
        p, q = _limit_denominator(ratio, _WITNESS_DEN)
        score = abs(ratio - p / q)
        if best is None or score > best[0]:
            best = (score, pairs[j], pairs[ref], ratio)
    return best


def ratio_condition(
    support,
    theta: np.ndarray,
    max_den: int = DEFAULT_MAX_DEN,
    tol: float = DEFAULT_CERT_TOL,
    rational_state: bool = True,
) -> RatioCertificate | RatioConditionFailure | RatioConditionAmbiguous:
    """Certify or refute rationality of all support eigenvalue-difference ratios.

    The certificate route squares each difference: for rational states on
    integer (skew-)adjacency problems a difference is an integer multiple of
    sqrt(Delta), so its square must be a near-integer and the square-free
    parts of all squares must agree.  Delta is the square-free part of the
    gcd of the rounded squares, multipliers are round(diff / sqrt(Delta)),
    and the residual is confirmed numerically.

    `support` is the sorted list of off-diagonal support pairs (r, s) with
    r < s (`BlockDecomposition.off_diagonal_pairs`).  `rational_state=False`
    relaxes the verdict for states that are not entrywise rational:
    non-integer squares then yield an inconclusive result instead of a
    refutation.
    """
    theta = np.asarray(theta, dtype=float)
    pairs = list(support)
    if not pairs:
        raise ValueError("empty off-diagonal support: state is stationary")
    diffs = [float(theta[r] - theta[s]) for r, s in pairs]
    if min(diffs) <= 0:
        raise ValueError("support pairs must index a strictly decreasing eigenvalue sequence")

    squares = [d * d for d in diffs]
    rounded = [int(round(sq)) for sq in squares]
    square_gap = max(abs(sq - k) for sq, k in zip(squares, rounded))

    if square_gap <= tol and min(rounded) >= 1:
        parts = [squarefree_part(k)[1] for k in rounded]
        if len(set(parts)) > 1:
            i = next(i for i, b in enumerate(parts) if b != parts[0])
            ratio = diffs[i] / diffs[0]
            return RatioConditionFailure(
                reason="irrational ratio of eigenvalue differences",
                pair_a=pairs[i],
                pair_b=pairs[0],
                ratio=ratio,
            )
        g2 = math.gcd(*rounded) if len(rounded) > 1 else rounded[0]
        delta = squarefree_part(g2)[1]
        root = math.sqrt(delta)
        mults = [int(round(d / root)) for d in diffs]
        if min(mults) < 1:
            return RatioConditionAmbiguous(
                reason="degenerate multiplier in certificate",
                diagnostics={"diffs": diffs, "delta": delta},
            )
        residual = max(abs(d - m * root) for d, m in zip(diffs, mults))
        if residual <= tol:
            multipliers = {}
            for (r, s), m in zip(pairs, mults):
                multipliers[(r, s)] = m
                multipliers[(s, r)] = -m
            return RatioCertificate(
                delta=delta,
                multipliers=multipliers,
                residual=float(residual),
                g=math.gcd(*[abs(m) for m in mults]),
            )
        if residual <= 10 * tol:
            return RatioConditionAmbiguous(
                reason="certificate residual within a factor 10 of tolerance",
                diagnostics={"residual": residual, "delta": delta},
            )
        return RatioConditionFailure(
            reason="squared differences are integers but no common sqrt(Delta) fits",
            ratio=residual,
        )

    # Some squared difference is not close to an integer >= 1; the first one
    # is the reference of the witness row.
    if rational_state:
        ref = next(
            i for i, (sq, k) in enumerate(zip(squares, rounded)) if abs(sq - k) > tol or k < 1
        )
        witness = _irrational_witness(pairs, diffs, ref)
        if witness is not None and witness[0] > tol:
            _, pair_a, pair_b, ratio = witness
            return RatioConditionFailure(
                reason="irrational ratio of eigenvalue differences",
                pair_a=pair_a,
                pair_b=pair_b,
                ratio=ratio,
            )
        return RatioConditionFailure(
            reason=(
                "squared eigenvalue difference is not a near-integer, which is "
                "impossible for a periodic rational state"
            ),
        )
    # Non-rational state: the integer certificate does not apply.
    approx_ok = True
    witness = None
    for i in range(len(diffs)):
        for j in range(i + 1, len(diffs)):
            ratio = diffs[i] / diffs[j]
            if rational_approx(ratio, max_den, tol) is None:
                approx_ok = False
                witness = (pairs[i], pairs[j], ratio)
    if approx_ok:
        return RatioConditionAmbiguous(
            reason=(
                "ratios admit rational approximations but squared differences are "
                "not near-integers; no integer certificate for a non-rational state"
            ),
            diagnostics={"square_gap": square_gap},
        )
    pair_a, pair_b, ratio = witness
    return RatioConditionFailure(
        reason="no rational approximation for a difference ratio",
        pair_a=pair_a,
        pair_b=pair_b,
        ratio=ratio,
    )


def minimum_period(cert: RatioCertificate) -> float:
    """Least positive sigma with P(sigma) = P: 2*pi / (sqrt(Delta) * g)."""
    if not cert.multipliers:
        raise ValueError("stationary state: no finite minimum period")
    return 2.0 * math.pi / (math.sqrt(cert.delta) * cert.g)


def pst_time_lower_bound(decomposition_or_theta) -> float:
    """pi / (theta_1 - theta_m): no trace-orthogonal transfer happens earlier."""
    theta = getattr(decomposition_or_theta, "theta", decomposition_or_theta)
    theta = np.asarray(theta, dtype=float)
    if theta.size < 2:
        raise ValueError("need at least two distinct eigenvalues")
    return math.pi / float(theta[0] - theta[-1])
