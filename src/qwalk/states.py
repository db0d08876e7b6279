"""Density matrices, their spectral block structure, and time evolution.

A density matrix is decomposed against a SpectralDecomposition into blocks
E_r P E_s; the (m, m) mask of the pairs with a nonzero block is the eigenvalue
support, and evolution multiplies each block by a phase.  The blocks are held
in the eigenbasis: with E_r = V_r V_r*, block (r, s) is V_r P^_rs V_s* for
the (r, s) sub-block of P^ = V* P V, so one n x n matrix carries all of them.

`density_matrix` validates and classifies outside input.  Unitary evolution
preserves what it checked, so `evolve` returns a plain array.
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

    Raises StateError when the matrix has a non-finite entry or is not
    Hermitian, trace-1, and PSD within tol.  Classification: real (negligible
    imaginary part), pure (rank one: ||M^2 - M|| <= n*tol), rational (every
    entry essentially equal to a fraction with denominator <= rational_max_den).
    """
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise StateError("non-finite entries")
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
    m = np.empty(re.shape, dtype=complex)
    m.real, m.imag = re, im  # no arithmetic, so a non-finite entry raises no warning
    return density_matrix(m, tol=tol)


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
class BlockDecomposition:
    """The nonzero blocks E_r P E_s of a state against a decomposition.

    `support` is the read-only (m, m) boolean mask of the pairs (r, s) with
    E_r P E_s != 0; it is symmetric, and every group in a kept pair keeps its
    diagonal.  `p_hat` is V* P V with every sub-block outside the support
    zeroed; the n x n blocks themselves are built only when `blocks` is read.
    """

    p_hat: np.ndarray
    decomposition: SpectralDecomposition
    support: np.ndarray
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
        for r, s in np.argwhere(self.support).tolist():
            rows, cols = slice(bounds[r], bounds[r + 1]), slice(bounds[s], bounds[s + 1])
            out[(r, s)] = v[:, rows] @ self.p_hat[rows, cols] @ v[:, cols].conj().T
        return out

    def reconstruct(self) -> np.ndarray:
        v = self.decomposition.vectors
        return v @ self.p_hat @ v.conj().T

    def off_diagonal_pairs(self) -> list[tuple[int, int]]:
        """The support pairs (r, s) with r < s, in row-major order."""
        return [(r, s) for r, s in np.argwhere(np.triu(self.support, 1)).tolist()]


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
    keep |= keep.T  # P^ is Hermitian up to round-off
    # ||P^_rs|| is about the geometric mean of ||P^_rr|| and ||P^_ss||, so a
    # kept off-diagonal block can outlive a diagonal one; keep (r, r) for
    # every group that a kept pair touches.
    touched = np.flatnonzero(keep.any(axis=0))
    keep[touched, touched] = True
    p_hat[~np.repeat(np.repeat(keep, d.mult, axis=0), d.mult, axis=1)] = 0.0
    p_hat.setflags(write=False)
    keep.setflags(write=False)
    return BlockDecomposition(p_hat, d, keep, float(block_tol), p)


def evolve(b: BlockDecomposition, t: float) -> np.ndarray:
    """P(t) = sum over blocks of exp(i t (theta_r - theta_s)) E_r P E_s.

    As W P^ W* with W = V diag(exp(i t theta)), so it costs two n x n products.
    The result is exactly Hermitian; it is not re-validated, since unitary
    evolution keeps the trace, the spectrum and so positivity of b.state.
    """
    w = b.decomposition.phased(t)
    out = w @ b.p_hat @ w.conj().T
    return (out + out.conj().T) / 2


def is_flat(v: np.ndarray, tol: float = 1e-9) -> bool:
    """Do all entries of the (normalized) vector share one absolute value?"""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if norm == 0:
        raise ValueError("zero vector has no flatness")
    probs = np.abs(v / norm) ** 2
    return bool(np.abs(probs - 1.0 / v.size).max() <= tol)


# Bytes that the closure branch of algebra_dimension may hold at once; past
# this it raises MemoryError instead of allocating.
ALGEBRA_BASIS_BYTES = 256 * 2**20


@dataclass(frozen=True)
class AlgebraReport:
    dim: int
    controllable: bool  # dim == n^2: H and the state generate all of M_n


def algebra_dimension(b: BlockDecomposition) -> AlgebraReport:
    """Dimension of the unital algebra A generated by H and the state.

    A holds every E_r (a polynomial in H), so it splits over the connected
    components c of the support graph, whose edges are the support pairs.
    A group outside the support adds dim 1.  For a pure state, or if every
    group in c is simple, A_c = M(span{x_r}) + sum_r C(E_r - x^_r x^_r*),
    of dim |c|^2 + #{r in c : d_r > 1}.  Otherwise a closure counts it.
    """
    d, mult, keep = b.decomposition, np.asarray(b.decomposition.mult), b.support
    # each group takes the least label among its neighbours until none changes
    labels, old = np.arange(d.m), None
    while not np.array_equal(labels, old):
        old, labels = labels, np.minimum(labels, np.where(keep, labels, d.m).min(axis=1))
    dim = 0
    for c in np.unique(labels):
        groups = np.flatnonzero(labels == c)
        if not keep[c, c]:
            dim += 1
        elif b.state.pure or (mult[groups] == 1).all():
            dim += len(groups) ** 2 + int((mult[groups] > 1).sum())
        else:
            dim += _closure_dimension(b, groups)
    return AlgebraReport(dim=dim, controllable=dim == d.n**2)


def _closure_dimension(b: BlockDecomposition, groups: np.ndarray) -> int:
    """dim A_c as the sum of dim E_r A E_s over the groups r, s of c.

    E_r A E_s is spanned by E_r (if r = s) and the products of blocks
    P^_r,t1 ... P^_tk,s along walks of the support graph, each block scaled
    to norm 1, so no word grows.  Each slot (r, s) keeps orthonormal rows;
    a round multiplies the rows that the last one added by P^_c on the left.
    """
    d = b.decomposition
    sizes = np.asarray(d.mult)[groups]
    at = np.cumsum([0, *sizes])
    rows = [slice(lo, hi) for lo, hi in zip(at, at[1:])]
    idx = np.concatenate([np.arange(d.bounds[r], d.bounds[r + 1]) for r in groups])
    norms = np.repeat(np.repeat(d.group_norms(b.p_hat)[np.ix_(groups, groups)], sizes, 0), sizes, 1)
    p = np.divide(b.p_hat[np.ix_(idx, idx)], norms, out=np.zeros(norms.shape, complex), where=norms > 0)
    # the rows each round added, by column j: [(i, rows of slot (i, j)), ...]
    fresh = {i: [(i, np.eye(k, dtype=complex).reshape(1, -1) / np.sqrt(k))] for i, k in enumerate(sizes)}
    basis, held = {(i, i): parts[0][1] for i, parts in fresh.items()}, 0
    while fresh:
        added: dict[int, list] = {}
        for j, parts in fresh.items():
            products = 16 * at[-1] * sizes[j] * sum(len(new) for _, new in parts)
            if held + 2 * products > ALGEBRA_BASIS_BYTES:  # y, and at most as much new basis
                raise MemoryError(f"algebra closure needs more than {ALGEBRA_BASIS_BYTES / 2**20:g} MiB")
            y = np.concatenate([p[:, rows[i]] @ new.reshape(-1, sizes[i], sizes[j]) for i, new in parts])
            for q, rq in enumerate(rows):
                cand = y[:, rq].reshape(len(y), -1)  # rows of norm <= 1
                old = basis.get((q, j), cand[:0])
                for _ in range(2):  # classical Gram-Schmidt, twice
                    cand = cand - (cand @ old.conj().T) @ old
                _, sv, vh = np.linalg.svd(cand, full_matrices=False)
                new = vh[sv > 1e-10]
                if len(new):
                    held += new.nbytes
                    basis[q, j] = np.vstack([old, new])
                    added.setdefault(j, []).append((q, new))
        fresh = added
    return sum(len(x) for x in basis.values())
