"""Density matrices, their spectral block structure, and time evolution.

A density matrix is decomposed against a SpectralDecomposition into blocks
E_r P E_s; the set of index pairs with a nonzero block is the eigenvalue
support, and evolution multiplies each block by a phase.  The blocks are held
in the eigenbasis: with E_r = V_r V_r*, block (r, s) is V_r P^_rs V_s* for
the (r, s) sub-block of P^ = V* P V, so one n x n matrix carries all of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certificates import rational_approx
from .spectral import SpectralDecomposition

DEFAULT_STATE_TOL = 1e-9

# Rationality surrogate: an entry counts as rational when a fraction with a
# small denominator sits essentially on top of it.  The denominator budget is
# deliberately modest; with a large one every float admits a convergent within
# any desk-scale tolerance and the flag would never be False.
RATIONAL_CLASS_MAX_DEN = 10**4
RATIONAL_CLASS_TOL = 1e-10


class StateError(ValueError):
    """Raised when a matrix fails the density-matrix invariants."""


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD trace-1 matrix with realness/purity/rationality flags."""

    matrix: np.ndarray
    real: bool
    pure: bool
    rational: bool
    tol: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def to_json(self) -> dict:
        return {"re": self.matrix.real.tolist(), "im": self.matrix.imag.tolist()}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _is_rational_entrywise(m: np.ndarray, tol: float, max_den: int) -> bool:
    # a Hermitian matrix repeats most of its entries: test each value once
    values = dict.fromkeys(m.real.ravel().tolist() + m.imag.ravel().tolist())
    return all(rational_approx(x, max_den, tol) is not None for x in values)


def density_matrix(
    m: np.ndarray,
    tol: float = DEFAULT_STATE_TOL,
    rational_max_den: int = RATIONAL_CLASS_MAX_DEN,
    rational_tol: float = RATIONAL_CLASS_TOL,
) -> DensityMatrix:
    """Validate and classify a density matrix.

    Raises StateError when the matrix is not Hermitian, trace-1, and PSD
    within tol.  Classification: real (negligible imaginary part), pure
    (rank one: ||M^2 - M|| <= n*tol), rational (every entry essentially equal
    to a fraction with denominator <= rational_max_den).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateError("density matrix must be square")
    n = m.shape[0]
    herm = float(np.linalg.norm(m - m.conj().T))
    if herm > tol:
        raise StateError(f"not Hermitian (defect {herm:g})")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > tol:
        raise StateError(f"trace is {tr.real:g}, not 1")
    hm = (m + m.conj().T) / 2
    min_eig = float(np.linalg.eigvalsh(hm).min())
    if min_eig < -tol:
        raise StateError(f"not positive semidefinite (min eigenvalue {min_eig:g})")
    real = bool(np.abs(m.imag).max() <= tol) if n else True
    pure = bool(np.linalg.norm(hm @ hm - hm) <= n * tol)
    rational = _is_rational_entrywise(m, rational_tol, rational_max_den)
    frozen = hm.copy()
    frozen.setflags(write=False)
    return DensityMatrix(frozen, real=real, pure=pure, rational=rational, tol=tol)


def density_from_json(doc: dict | str, tol: float = DEFAULT_STATE_TOL) -> DensityMatrix:
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict) or "re" not in doc:
        raise StateError('expected {"re": [[...]], "im": [[...]]}')
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != im.shape:
        raise StateError("re and im parts have different shapes")
    return density_matrix(re + 1j * im, tol=tol)


def vertex_state(n: int, a: int) -> DensityMatrix:
    """The pure state e_a e_a^T concentrated on one vertex."""
    if not (0 <= a < n):
        raise StateError(f"vertex index {a} out of range 0..{n - 1}")
    m = np.zeros((n, n), dtype=complex)
    m[a, a] = 1.0
    m.setflags(write=False)
    return DensityMatrix(m, real=True, pure=True, rational=True, tol=DEFAULT_STATE_TOL)


def pure_state(z: np.ndarray, tol: float = DEFAULT_STATE_TOL) -> DensityMatrix:
    """The rank-one state z z* of a complex unit vector."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(z))
    if abs(norm - 1.0) > max(tol, 1e-8):
        raise StateError(f"vector norm {norm:g} is not 1")
    return density_matrix(np.outer(z, z.conj()), tol=tol)


def maximally_mixed(n: int) -> DensityMatrix:
    return density_matrix(np.eye(n, dtype=complex) / n)


@dataclass(frozen=True)
class EigenvalueSupport:
    """Index pairs (r, s) with E_r P E_s != 0; symmetric under swap."""

    pairs: frozenset[tuple[int, int]]
    theta: np.ndarray

    @property
    def off_diagonal(self) -> frozenset[tuple[int, int]]:
        return frozenset((r, s) for r, s in self.pairs if r != s)

    @property
    def diagonal(self) -> frozenset[int]:
        return frozenset(r for r, s in self.pairs if r == s)

    def theta_pairs(self) -> tuple[tuple[float, float], ...]:
        return tuple(sorted((float(self.theta[r]), float(self.theta[s])) for r, s in self.pairs))


@dataclass(frozen=True)
class BlockDecomposition:
    """The nonzero blocks E_r P E_s of a state against a decomposition.

    `p_hat` is V* P V with every sub-block outside the support zeroed; the
    n x n blocks themselves are built only when `blocks` is first read.
    """

    p_hat: np.ndarray
    decomposition: SpectralDecomposition
    support: EigenvalueSupport
    block_tol: float
    state: DensityMatrix

    @property
    def n(self) -> int:
        return self.state.n

    @cached_property
    def blocks(self) -> dict[tuple[int, int], np.ndarray]:
        """{(r, s): V_r P^_rs V_s*} over the support, in row-major order."""
        v, bounds = self.decomposition.vectors, self.decomposition.bounds
        out = {}
        for r, s in sorted(self.support.pairs):
            rows, cols = slice(bounds[r], bounds[r + 1]), slice(bounds[s], bounds[s + 1])
            out[(r, s)] = v[:, rows] @ self.p_hat[rows, cols] @ v[:, cols].conj().T
        return out

    def reconstruct(self) -> np.ndarray:
        v = self.decomposition.vectors
        return v @ self.p_hat @ v.conj().T

    def off_diagonal_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((r, s) for r, s in self.support.pairs if r < s))


def block_decompose(
    p: DensityMatrix,
    d: SpectralDecomposition,
    block_tol: float | None = None,
) -> BlockDecomposition:
    """Find the blocks E_r P E_s with norm above block_tol, in the eigenbasis.

    ||E_r P E_s||_F is the norm of the (r, s) sub-block of P^ = V* P V, so the
    support comes from two n x n products and no block is formed.  The support
    is closed: every group in a kept pair keeps its diagonal block.
    """
    m = p.matrix
    if m.shape[0] != d.n:
        raise StateError(f"state has dimension {m.shape[0]}, decomposition has {d.n}")
    if block_tol is None:
        block_tol = 1e-9 * max(1.0, float(np.linalg.norm(m)))
    v = d.vectors
    p_hat = v.conj().T @ m @ v
    keep = d.group_norms(p_hat) > block_tol
    # ||P^_rs|| is about the geometric mean of ||P^_rr|| and ||P^_ss||, so a
    # kept off-diagonal block can outlive a diagonal one; keep (r, r) for
    # every group that a kept pair touches.
    touched = np.flatnonzero(keep.any(axis=0) | keep.any(axis=1))
    keep[touched, touched] = True
    pairs = frozenset((int(r), int(s)) for r, s in zip(*np.nonzero(keep)))
    p_hat[~np.repeat(np.repeat(keep, d.mult, axis=0), d.mult, axis=1)] = 0.0
    p_hat.setflags(write=False)
    support = EigenvalueSupport(pairs, d.theta)
    return BlockDecomposition(p_hat, d, support, float(block_tol), p)


def evolve(b: BlockDecomposition, t: float) -> DensityMatrix:
    """P(t) = sum over blocks of exp(i t (theta_r - theta_s)) E_r P E_s.

    As W P^ W* with W = V diag(exp(i t theta)), so it costs two n x n products.
    """
    d = b.decomposition
    w = d.vectors * np.exp(1j * t * np.repeat(d.theta, d.mult))
    out = w @ b.p_hat @ w.conj().T
    out = (out + out.conj().T) / 2
    return density_matrix(out, tol=max(b.state.tol, 1e-8))


def is_flat(v: np.ndarray, tol: float = 1e-9) -> bool:
    """Do all entries of the (normalized) vector share one absolute value?"""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if norm == 0:
        raise ValueError("zero vector has no flatness")
    probs = np.abs(v / norm) ** 2
    return bool(np.abs(probs - 1.0 / v.size).max() <= tol)


@dataclass(frozen=True)
class AlgebraReport:
    dim: int
    controllable: bool
    stabilized: bool  # closure reached before the word-length cap


def algebra_dimension(
    h: np.ndarray,
    p: DensityMatrix | np.ndarray,
    cap: int | None = None,
    tol: float = 1e-10,
) -> AlgebraReport:
    """Dimension of the unital algebra generated by H and the state.

    Greedy closure: orthonormalize (trace inner product) the identity and the
    generators, then repeatedly left-multiply new basis elements by each
    generator until nothing is added, the dimension reaches n^2, or the word
    length exceeds the cap (default 2 n^2).  Controllable means the span is
    the full matrix algebra.
    """
    h = np.asarray(h, dtype=complex)
    m = p.matrix if isinstance(p, DensityMatrix) else np.asarray(p, dtype=complex)
    n = h.shape[0]
    if m.shape != (n, n):
        raise ValueError("dimension mismatch between H and the state")
    if cap is None:
        cap = 2 * n * n
    if cap < n * n:
        raise ValueError("cap must be at least n^2")

    basis: list[np.ndarray] = []  # orthonormal, flattened

    def try_add(mat: np.ndarray) -> bool:
        vec = mat.reshape(-1)
        for b in basis:
            vec = vec - np.vdot(b, vec) * b
        norm = float(np.linalg.norm(vec))
        if norm <= tol * max(1.0, float(np.linalg.norm(mat))):
            return False
        basis.append(vec / norm)
        return True

    generators = (h, m)
    frontier = []
    for seed in (np.eye(n, dtype=complex), h, m):
        if try_add(seed):
            frontier.append(seed)
    words = 1
    while frontier and len(basis) < n * n and words < cap:
        words += 1
        new_frontier = []
        for g in generators:
            for b in frontier:
                candidate = g @ b
                if try_add(candidate):
                    new_frontier.append(candidate)
        frontier = new_frontier
    dim = len(basis)
    return AlgebraReport(dim=dim, controllable=dim == n * n, stabilized=not frontier or dim == n * n)
