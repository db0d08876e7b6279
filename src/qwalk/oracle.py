"""Brute-force verification path: dense matrix exponentials and time-grid scans.

This module deliberately avoids the spectral machinery of the rest of the
package and imports nothing from `spectral`, `states`, `certificates` or
`detectors`.  Evolution here goes through scaling-and-squaring Pade
exponentials only, so scan results are an independent check on everything
the detectors claim; the shared minimizer (`timescan`) only sees the sampled
values.  All inputs are plain numpy arrays.

Grids are built by doubling, U((f + j)h) = U(jh) U(fh), one matrix product
per doubling: U(fh) commutes with every U(jh), so the (count, n, n) stack of
U(t) doubles as its (count*n, n) rows times U(fh).  Return and transfer scans
between pure states, and the flatness scan of one column, evolve one vector:
their grid is the (count, n) stack of U(t)x, since U(t) is unitary and
||U xx* U* - yy*||_F = sqrt(2) ||Ux - <y, Ux> y||.  The (count, n, n) stack of
U(t) is built only for mixed states and for the flatness of all columns.

A zoom level is U(lo + j dt) x = U(j dt) U(lo) x, j < 65 (U(lo + j dt) with no
x): one product of the ladder's (65*n, n) rows U(j dt) with the base U(lo) x.
Every zoom step is the grid step times a power of two, so all zooms of one H
ask for a few ladders, which are built once by doubling and kept for the
current H up to _LADDER_BYTES.  The base is a fresh exponential at a zoom's
first level, not an entry of the doubled main grid, whose round-off it would
carry into every level below; each deeper level takes it from the previous
level, of which lo is a point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .timescan import TIME_RESOLUTION, scan_minima

MAX_EXPM_NORM = 1.0e4
DEFAULT_STEP = 1e-3
DEFAULT_RECORD_BELOW = 1e-7

# Doubling factors U(f*step) come from squaring while f is below this and from a
# fresh exponential from then on, since each squaring doubles a factor's
# round-off.
_RESYNC_EVERY = 1024

# Zoom ladders kept for the current H hold at most this many bytes in all; a
# ladder past the bound is built and used but not kept.
_LADDER_BYTES = 32 * 2**20

# A state is taken as the pure state xx* only if it matches xx* this closely.
_PURE_TOL = 1e-14

# (key, grid) of the most recently built unitary grid, or ().
_last_grid: tuple = ()

# (H key, {(step, count): ladder}) of the zoom ladders kept for the most
# recently zoomed H, or ().
_ladders: tuple = ()


def dense_expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade scaling-and-squaring; rejects extreme norms."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if np.linalg.norm(m) > MAX_EXPM_NORM:
        raise ValueError(f"matrix norm exceeds {MAX_EXPM_NORM:g}; refusing to exponentiate")
    from scipy.linalg import expm  # loaded on first use: no other path needs scipy

    return expm(m)


def _unitary_at(h: np.ndarray, t: float) -> np.ndarray:
    return dense_expm(1j * t * h)


def _build_grid(h: np.ndarray, t0: float, step: float, count: int, x: np.ndarray | None = None) -> np.ndarray:
    """Stack of U_k = exp(i(t0 + k*step)H) for k = 0..count-1, or of the
    vectors U_k x given x, built by doubling.

    With the first f entries filled, the next min(f, count - f) are one
    matrix product of their rows with U(f*step): out[:f] @ U(f*step)^T for
    vectors, and for matrices the (f*n, n) rows of out[:f] @ U(f*step), since
    U(f*step) commutes with every U_k.
    """
    n = h.shape[0]
    out = np.empty((count, n, n) if x is None else (count, n), dtype=complex)
    first = _unitary_at(h, t0) if t0 != 0.0 else np.eye(n, dtype=complex)
    out[0] = first if x is None else first @ x
    rows = out.reshape(-1, n)  # a view: n rows per matrix entry
    filled = 1
    factor = _unitary_at(h, step)
    while filled < count:
        m = min(filled, count - filled)
        if x is None:
            np.matmul(rows[: m * n], factor, out=rows[filled * n : (filled + m) * n])
        else:
            np.matmul(out[:m], factor.T, out=out[filled : filled + m])
        filled += m
        if filled < count:
            factor = factor @ factor if filled < _RESYNC_EVERY else _unitary_at(h, filled * step)
    return out


def unitary_grid(h: np.ndarray, t0: float, step: float, count: int, x: np.ndarray | None = None) -> np.ndarray:
    """Stack of U_k = exp(i(t0 + k*step)H) for k = 0..count-1, or of the
    vectors U_k x given x, built by doubling.

    The most recently built grid is kept, so consecutive scans of one matrix
    and seed over one window and step share it.  A request for any other grid
    releases the kept one before building, so at most one grid is live at a
    time unless the caller still holds the old one.  The returned array is
    read-only.
    """
    global _last_grid
    h = np.asarray(h, dtype=complex)
    x = None if x is None else np.asarray(x, dtype=complex)
    seed = None if x is None else x.tobytes()
    key = (h.tobytes(), h.shape[0], float(t0), float(step), int(count), seed)
    if _last_grid and _last_grid[0] == key:
        return _last_grid[1]
    _last_grid = ()
    out = _build_grid(h, t0, step, count, x)
    out.setflags(write=False)
    _last_grid = (key, out)
    return out


def _ladder(h: np.ndarray, h_key: tuple, step: float, count: int) -> np.ndarray:
    """The zoom ladder U(j*step), j < count, kept per step for the current H.

    Ladders of another H are dropped first.  Kept ladders hold at most
    _LADDER_BYTES in all.
    """
    global _ladders
    if not _ladders or _ladders[0] != h_key:
        _ladders = (h_key, {})
    kept = _ladders[1]
    ladder = kept.get((step, count))
    if ladder is None:
        ladder = _build_grid(h, 0.0, step, count)
        if ladder.nbytes + sum(x.nbytes for x in kept.values()) <= _LADDER_BYTES:
            kept[(step, count)] = ladder
    return ladder


def _zoom_levels(h: np.ndarray, objective, x: np.ndarray | None = None):
    """The refinement callback of one scan: the objective on U(lo + j*step)
    (or on U(lo + j*step) x given x), j < count.

    A level is ladder(step) @ base, one product of the ladder's (count*n, n)
    rows with the base, where the base is U(lo) or U(lo) x.  It comes from a
    fresh exponential at a zoom's first level.  At a deeper level, whose step
    is below the previous level's, lo is a point of the previous level, and
    the base is that level's entry there.
    """
    n = h.shape[0]
    h_key = (h.tobytes(), n)
    parent: tuple = ()  # (lo, step, grid) of the previous level

    def level(lo: float, step: float, count: int) -> np.ndarray:
        nonlocal parent
        base = None
        if parent and step < parent[1]:
            p_lo, p_step, p_grid = parent
            j = round((lo - p_lo) / p_step)
            if 0 <= j < len(p_grid) and p_lo + p_step * j == lo:
                base = p_grid[j]
        if base is None:
            base = _unitary_at(h, lo) if x is None else _unitary_at(h, lo) @ x
        grid = (_ladder(h, h_key, step, count).reshape(-1, n) @ base).reshape((count, *base.shape))
        parent = (lo, step, grid)
        return objective(grid)

    return level


@dataclass(frozen=True)
class ScanResult:
    """Local minima (below the recording threshold) and global floor of a scan."""

    grid_step: float
    minima: tuple[tuple[float, float], ...]
    floor: float
    ceiling: float

    def to_json(self) -> dict:
        return {
            "grid_step": self.grid_step,
            "minima": [[t, v] for t, v in self.minima],
            "floor": self.floor,
            "ceiling": self.ceiling,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _batch_return(u_stack: np.ndarray, p: np.ndarray, target: np.ndarray) -> np.ndarray:
    """||U p U* - target||_F for each U of the stack; any density matrices."""
    evolved = u_stack @ p @ u_stack.conj().transpose(0, 2, 1)
    return np.linalg.norm(evolved - target, axis=(1, 2))


def _pure_vector(p: np.ndarray) -> np.ndarray | None:
    """A unit x with xx* = p entrywise to _PURE_TOL, or None if there is none.

    x is the normalised column of p at its largest diagonal entry.
    """
    col = p[:, int(np.argmax(p.diagonal().real))]
    norm = np.linalg.norm(col)
    if not norm > 0.0:
        return None
    x = col / norm
    if not np.abs(np.outer(x, x.conj()) - p).max() <= _PURE_TOL:
        return None
    return x


def _batch_pure_return(ux: np.ndarray, y: np.ndarray) -> np.ndarray:
    """||U xx* U* - yy*||_F = sqrt(2) ||Ux - <y, Ux> y|| for each row Ux of
    the stack; unit x, y.

    The residual form has no cancellation near zero, unlike 2 - 2|<y, Ux>|^2.
    einsum keeps the overlaps and the squared norms off threaded BLAS gemv.
    """
    residual = np.multiply.outer(np.einsum("ki,i->k", ux, y.conj()), y)
    np.subtract(ux, residual, out=residual)
    parts = residual.view(float)  # real and imaginary parts, side by side
    return np.sqrt(2.0 * np.einsum("ki,ki->k", parts, parts))


def _return_objective(p: np.ndarray, target: np.ndarray):
    """The objective ||U p U* - target||_F and the seed of its grid: the rows
    Ux and x if p = xx* and the target are pure, else the stack of U and None."""
    x, y = _pure_vector(p), _pure_vector(target)
    if x is None or y is None:
        return (lambda u: _batch_return(u, p, target)), None
    return (lambda ux: _batch_pure_return(ux, y)), x


def _batch_flatness(u: np.ndarray) -> np.ndarray:
    """Largest distance from 1/n of |U(t)_ij|^2 over each entry of the stack:
    every column of a (k, n, n) stack of U(t), or U(t)e_a of a (k, n) one.

    The squares fill one (entries, k) array, so that the extremes are taken
    across entries for all k times at once; max(pmax - 1/n, 1/n - pmin) is
    the largest |p - 1/n| bit for bit, since rounding is monotone.
    """
    k, flat = len(u), 1.0 / u.shape[1]
    probs = np.empty((u[0].size, k))
    np.abs(u.reshape(k, -1).T, out=probs)
    np.square(probs, out=probs)
    return np.maximum(probs.max(axis=0) - flat, flat - probs.min(axis=0))


def _slope_bound(h: np.ndarray) -> float:
    """Upper bound on the time derivative of any scan objective: 2*||H||.

    The spectral norm is bounded by the max absolute row sum, which keeps the
    estimate free of eigendecompositions.
    """
    return 2.0 * float(np.abs(h).sum(axis=1).max())


def _scan(
    h: np.ndarray,
    objective,
    x: np.ndarray | None,
    window: tuple[float, float],
    step: float,
    record_below: float,
    time_resolution: float,
    max_records: int | None,
) -> ScanResult:
    """Scan the objective on the grid U(t) x, or on the stack of U(t) with no x."""
    h = np.asarray(h, dtype=complex)
    t0, t1 = float(window[0]), float(window[1])
    if step <= 0:
        raise ValueError("step must be positive")
    if t1 <= t0:
        raise ValueError("empty scan window")
    count = int(np.floor((t1 - t0) / step)) + 1
    values = objective(unitary_grid(h, t0, step, count, x))
    ceiling = float(values.max())
    if ceiling <= record_below:
        # objective is flat at zero scale (stationary state): nothing to refine
        return ScanResult(step, (), float(values.min()), ceiling)
    minima, floor = scan_minima(
        t0 + step * np.arange(count),
        values,
        _zoom_levels(h, objective, x),
        # a minimum can only dip below record_below if its grid value is
        # within one slope-bounded step of it
        max(10.0 * record_below, 2.0 * _slope_bound(h) * step),
        record_below,
        max_records,
        time_resolution,
    )
    # merge refinements that collapsed onto the same minimum
    merged: list[tuple[float, float]] = []
    for t, v in sorted(minima):
        if merged and abs(t - merged[-1][0]) <= 2 * step:
            if v < merged[-1][1]:
                merged[-1] = (t, v)
        else:
            merged.append((t, v))
    return ScanResult(step, tuple(merged), floor, ceiling)


def scan_return(
    p: np.ndarray,
    h: np.ndarray,
    window: tuple[float, float] = (0.0, 20.0),
    step: float = DEFAULT_STEP,
    record_below: float = DEFAULT_RECORD_BELOW,
    time_resolution: float = TIME_RESOLUTION,
    max_records: int | None = None,
) -> ScanResult:
    """Scan ||P(t) - P||_F over the window via dense exponentials only."""
    p = np.asarray(p, dtype=complex)
    return _scan(
        h,
        *_return_objective(p, p),
        window,
        step,
        record_below,
        time_resolution,
        max_records,
    )


def scan_transfer(
    p: np.ndarray,
    q: np.ndarray,
    h: np.ndarray,
    window: tuple[float, float] = (0.0, 20.0),
    step: float = DEFAULT_STEP,
    record_below: float = DEFAULT_RECORD_BELOW,
    time_resolution: float = TIME_RESOLUTION,
    max_records: int | None = None,
) -> ScanResult:
    """Scan ||P(t) - Q||_F over the window via dense exponentials only."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    return _scan(
        h,
        *_return_objective(p, q),
        window,
        step,
        record_below,
        time_resolution,
        max_records,
    )


def scan_flatness(
    h: np.ndarray,
    a: int,
    window: tuple[float, float] = (0.0, 20.0),
    step: float = DEFAULT_STEP,
    record_below: float = 1e-8,
    time_resolution: float = TIME_RESOLUTION,
    max_records: int | None = None,
) -> ScanResult:
    """Scan the max-entry probability defect of U(t)e_a (distance from 1/n)."""
    h = np.asarray(h, dtype=complex)
    if not (0 <= a < h.shape[0]):
        raise ValueError("vertex index out of range")
    return _scan(
        h,
        _batch_flatness,
        np.eye(h.shape[0], dtype=complex)[a],
        window,
        step,
        record_below,
        time_resolution,
        max_records,
    )


def scan_uniform_flatness(
    h: np.ndarray,
    window: tuple[float, float] = (0.0, 20.0),
    step: float = DEFAULT_STEP,
    record_below: float = 1e-8,
    time_resolution: float = TIME_RESOLUTION,
    max_records: int | None = None,
) -> ScanResult:
    """Scan the probability defect of all columns of U(t) at a common time."""
    return _scan(h, _batch_flatness, None, window, step, record_below, time_resolution, max_records)


def evolve_dense(p: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    """Single-time evolution U(t) P U(-t) on the dense path."""
    u = _unitary_at(np.asarray(h, dtype=complex), t)
    return u @ np.asarray(p, dtype=complex) @ u.conj().T
