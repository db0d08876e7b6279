"""Spectral decompositions of Hermitian matrices and walk transition matrices.

Real symmetric adjacency matrices and the Hermitian matrices -iS of oriented
graphs are both handled here; every downstream operation works off the same
SpectralDecomposition.  Its only stored form is the grouped eigenvectors V:
the columns of group r are V_r = vectors[:, bounds[r]:bounds[r + 1]], and
E_r = V_r V_r* is formed from them where it is read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, OrientedGraph, skew_adjacency

DEFAULT_GROUPING_TOL = 1e-9
_DEFAULT_MAX_N = 512


def max_n() -> int:
    """The matrix-size cap: QWALK_MAX_N, a positive integer, or 512."""
    raw = os.environ.get("QWALK_MAX_N")
    if raw is None:
        return _DEFAULT_MAX_N
    try:
        cap = int(raw)
        if cap >= 1:
            return cap
    except ValueError:
        pass
    raise ValueError(f"QWALK_MAX_N must be a positive integer, got {raw!r}")


def _check_size(n: int) -> None:
    cap = max_n()
    if n > cap:
        raise ValueError(f"matrix size {n} exceeds cap {cap} (set QWALK_MAX_N to raise)")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (decreasing) with their grouped orthonormal eigenvectors.

    Group r holds the columns V_r = vectors[:, bounds[r]:bounds[r + 1]], and
    its idempotent E_r = V_r V_r* is formed only where it is read: one group
    at a time (`idempotent`), a few columns of every group (`columns`), or
    the whole (m, n, n) stack (`idempotents`), which is built on first read.
    """

    theta: np.ndarray  # (m,) strictly decreasing
    mult: tuple[int, ...]
    vectors: np.ndarray  # (n, n) eigenvectors, columns grouped by decreasing theta
    bounds: tuple[int, ...]  # group r is vectors[:, bounds[r]:bounds[r + 1]]
    source: np.ndarray  # the decomposed Hermitian matrix
    tol: float
    warnings: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.source.shape[0]

    @property
    def m(self) -> int:
        return len(self.theta)

    @cached_property
    def idempotents(self) -> np.ndarray:
        """The (m, n, n) stack of the E_r, built when first read."""
        stack = self.columns(slice(None))
        stack.setflags(write=False)
        return stack

    def idempotent(self, r: int) -> np.ndarray:
        """E_r = V_r V_r*, as one n x n matrix."""
        vr = self.vectors[:, self.bounds[r] : self.bounds[r + 1]]
        return vr @ vr.conj().T

    def columns(self, cols) -> np.ndarray:
        """(m, n, k) stack of E_r[:, cols] = V_r V_r[cols]* for k index columns."""
        v, picked = self.vectors, self.vectors[cols]
        out = np.empty((self.m, self.n, picked.shape[0]), dtype=complex)
        for r, (lo, hi) in enumerate(zip(self.bounds, self.bounds[1:])):
            out[r] = v[:, lo:hi] @ picked[:, lo:hi].conj().T
        return out

    def phased(self, t: float) -> np.ndarray:
        """W = V diag(exp(i t theta)): each column times the phase of its group."""
        return self.vectors * np.exp(1j * t * np.repeat(self.theta, self.mult))

    def group_norms(self, x: np.ndarray) -> np.ndarray:
        """(m, m) Frobenius norms of the (r, s) sub-blocks of an n x n matrix."""
        starts = self.bounds[:-1]
        sq = np.abs(x) ** 2
        return np.sqrt(np.add.reduceat(np.add.reduceat(sq, starts, axis=0), starts, axis=1))

    def residuals(self) -> dict[str, float]:
        """Numerical defects of the defining identities, for verification.

        All but the Hermitian defect, which forms one E_r at a time, come from
        V: completeness ||VV* - I||, reconstruction ||H - V diag(theta) V*||,
        and tr E_r as the Gram diagonal summed over group r.  Orthogonality
        reads G = V*V - I: as E_r E_s - delta_rs E_r = V_r G_rs V_s*, the
        largest ||G_rs||_F is the largest ||E_r E_s - delta_rs E_r||_F up to
        a factor (1 + ||G||_2)^2, and none of the m^2 products is formed.
        """
        v, ident = self.vectors, np.eye(self.n)
        gram = v.conj().T @ v
        traces = np.add.reduceat(gram.diagonal().real, self.bounds[:-1]) if self.m else ()
        herm = 0.0
        for r in range(self.m):
            e = self.idempotent(r)
            herm = max(herm, float(np.linalg.norm(e - e.conj().T)))
        recon = self.source - (v * np.repeat(self.theta, self.mult)) @ v.conj().T
        return {
            "completeness": float(np.linalg.norm(v @ v.conj().T - ident)),
            "orthogonality": float(self.group_norms(gram - ident).max()) if self.m else 0.0,
            "reconstruction": float(np.linalg.norm(recon)),
            "hermitian_idempotents": herm,
            "multiplicity": max((abs(float(t) - k) for t, k in zip(traces, self.mult)), default=0.0),
        }


def spectral_decompose(h: np.ndarray, tol: float = DEFAULT_GROUPING_TOL) -> SpectralDecomposition:
    """Group the eigenvalues of a Hermitian matrix and their eigenvectors.

    Two raw eigenvalues share a group iff their gap is at most
    tol * max(1, ||H||); gaps within a factor 10 of that threshold are
    flagged as ambiguous and the warning is carried into detector reports.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    n = h.shape[0]
    _check_size(n)
    scale = max(1.0, float(np.linalg.norm(h, 2))) if n else 1.0
    herm_defect = float(np.linalg.norm(h - h.conj().T))
    if herm_defect > tol * scale:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:g})")
    hs = (h + h.conj().T) / 2.0

    raw, vecs = np.linalg.eigh(hs)  # ascending
    scale = max(1.0, float(np.abs(raw).max())) if n else 1.0
    threshold = tol * scale

    warnings = []
    groups: list[list[int]] = [[0]] if n else []
    for i in range(1, n):
        gap = raw[i] - raw[i - 1]
        if gap <= threshold:
            groups[-1].append(i)
        else:
            groups.append([i])
        if threshold / 10 <= gap <= threshold * 10:
            warnings.append(
                f"ambiguous eigenvalue gap {gap:.3e} near grouping threshold {threshold:.3e}"
            )

    groups.reverse()  # decreasing eigenvalue order
    grouped = vecs[:, [i for idx in groups for i in idx]]
    mult = tuple(len(idx) for idx in groups)
    bounds = tuple(int(b) for b in np.cumsum((0,) + mult))
    theta_arr = np.array([float(raw[idx].mean()) for idx in groups])
    src = hs.copy()
    for arr in (theta_arr, grouped, src):
        arr.setflags(write=False)
    return SpectralDecomposition(
        theta=theta_arr,
        mult=mult,
        vectors=grouped,
        bounds=bounds,
        source=src,
        tol=tol,
        warnings=tuple(warnings),
    )


def decompose_graph(g: Graph, tol: float = DEFAULT_GROUPING_TOL) -> SpectralDecomposition:
    """Decompose the adjacency matrix of an undirected graph."""
    _check_size(g.n)  # before any n x n matrix is built
    return spectral_decompose(g.adjacency().astype(float), tol)


def decompose_oriented(x: OrientedGraph, tol: float = DEFAULT_GROUPING_TOL) -> SpectralDecomposition:
    """Decompose -iS for an oriented graph; exp(tS) = exp(it(-iS)) downstream."""
    _check_size(x.n)  # before any n x n matrix is built
    return spectral_decompose(-1j * skew_adjacency(x), tol)


def transition_matrix(d: SpectralDecomposition, t: float) -> np.ndarray:
    """U(t) = sum_r exp(i t theta_r) E_r = W V* with W = V diag(exp(i t theta))."""
    return d.phased(t) @ d.vectors.conj().T


@dataclass(frozen=True)
class VertexRelation:
    kind: str  # "unrelated" | "cospectral" | "strongly_cospectral"
    signs: tuple[int, ...] | None = None  # per idempotent, theta decreasing; 0 when both vanish


def vertex_spectral_relation(
    d: SpectralDecomposition, a: int, b: int, tol: float = 1e-8
) -> VertexRelation:
    """Classify a vertex pair by per-idempotent projections of e_a and e_b.

    Cospectral means equal projection norms for every eigenvalue; strongly
    cospectral additionally requires E_r e_a = +/- E_r e_b, and the sign
    sequence (ordered by decreasing eigenvalue) is returned.
    """
    if a == b:
        raise ValueError("vertices must be distinct")
    cols_a, cols_b = np.moveaxis(d.columns([a, b]), 2, 0)
    norms_a = np.linalg.norm(cols_a, axis=1)
    norms_b = np.linalg.norm(cols_b, axis=1)
    if np.abs(norms_a - norms_b).max() > tol:
        return VertexRelation("unrelated")
    signs = []
    strongly = True
    for r in range(d.m):
        if norms_a[r] <= tol:
            signs.append(0)
            continue
        overlap = np.vdot(cols_b[r], cols_a[r]).real
        s = 1 if overlap >= 0 else -1
        if np.linalg.norm(cols_a[r] - s * cols_b[r]) > tol:
            strongly = False
            break
        signs.append(s)
    if strongly:
        return VertexRelation("strongly_cospectral", tuple(signs))
    return VertexRelation("cospectral")


def interlacing_check(h: np.ndarray, subset, tol: float = 1e-9) -> bool:
    """Do the eigenvalues of the principal submatrix interlace those of H?"""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    subset = sorted(set(int(v) for v in subset))
    if not subset or len(subset) >= n:
        raise ValueError("subset must be nonempty and proper")
    if subset[0] < 0 or subset[-1] >= n:
        raise ValueError("subset index out of range")
    lam = np.linalg.eigvalsh((h + h.conj().T) / 2)
    sub = h[np.ix_(subset, subset)]
    mu = np.linalg.eigvalsh((sub + sub.conj().T) / 2)
    k = len(subset)
    for i in range(k):
        if mu[i] < lam[i] - tol or mu[i] > lam[i + n - k] + tol:
            return False
    return True
