"""Command-line surface: parse graphs and states, run the detectors, and emit
deterministic JSON reports.

Commands: spectra, analyze, verify, evolve, scan, orient.  Exit codes:
0 success, 1 numerical or detection failure (running out of memory included),
2 input error.  The environment variable QWALK_MAX_N caps the matrix size
(default 512); a value that is not a positive integer is an input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import oracle
from .certificates import DEFAULT_CERT_TOL, DEFAULT_MAX_DEN
from .detectors import (
    DEFAULT_ACCEPT_TOL,
    DEFAULT_FLAT_TOL,
    EnumerationCapExceeded,
    detect_local_uniform_mixing,
    detect_periodicity,
    detect_pst,
    detect_uniform_mixing,
    pgst_candidates,
    periodic_vertex_bounds,
    controllability_phase_check,
)
from .graphs import (
    ARC_LIST,
    EDGE_LIST,
    GRAPH6,
    JSON_FORMAT,
    Graph,
    GraphParseError,
    OrientedGraph,
    bipartition,
    max_valency,
    natural_orientation,
    parse_graph,
    parse_oriented_graph,
    serialize_oriented_graph,
    skew_adjacency,
)
from .spectral import (
    DEFAULT_GROUPING_TOL,
    decompose_graph,
    decompose_oriented,
    max_n,
    transition_matrix,
)
from .states import (
    StateError,
    algebra_dimension,
    block_decompose,
    density_from_json,
    evolve,
    vertex_state,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2


class InputError(ValueError):
    """User-supplied input could not be parsed or validated."""


@dataclass(frozen=True)
class RunConfig:
    tol: float = DEFAULT_GROUPING_TOL
    cert_tol: float = DEFAULT_CERT_TOL
    accept_tol: float = DEFAULT_ACCEPT_TOL
    flat_tol: float = DEFAULT_FLAT_TOL
    max_den: int = DEFAULT_MAX_DEN
    t_max: float = 20.0
    grid_step: float = 1e-3
    fmt: str | None = None
    oriented: bool = False
    emit: tuple[str, ...] = ("report",)
    seed: int = 0

    def __post_init__(self):
        for name in ("tol", "cert_tol", "accept_tol", "flat_tol", "t_max", "grid_step"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise InputError(f"{name} must be finite and positive")
        if self.max_den < 1:
            raise InputError("max_den must be at least 1")


def _read_input(source: str) -> str:
    """Text of a file, or of stdin for '-'; unreadable input is an InputError."""
    try:
        if source == "-":
            return sys.stdin.read()
        return Path(source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {source}: {exc}") from None


def _sniff_format(text: str, oriented: bool) -> str:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return JSON_FORMAT
    if oriented:
        return ARC_LIST
    first = stripped.splitlines()[0].strip() if stripped else ""
    if first and not first.startswith("#") and " " not in first:
        return GRAPH6
    return EDGE_LIST


def _load_graph(source: str, cfg: RunConfig) -> Graph | OrientedGraph:
    text = _read_input(source)
    fmt = cfg.fmt or _sniff_format(text, cfg.oriented)
    if cfg.oriented:
        return parse_oriented_graph(text, fmt)
    return parse_graph(text, fmt)


def _decompose(x: Graph | OrientedGraph, cfg: RunConfig):
    if isinstance(x, OrientedGraph):
        return decompose_oriented(x, cfg.tol)
    return decompose_graph(x, cfg.tol)


def _load_state(spec: str, n: int, cfg: RunConfig):
    """State spec: 'vertex:a', an inline JSON object, or '@path' to JSON."""
    if spec.startswith("vertex:"):
        try:
            a = int(spec.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad vertex spec {spec!r}") from None
        if not (0 <= a < n):
            raise InputError(f"vertex {a} out of range 0..{n - 1}")
        return vertex_state(n, a), a
    if spec.startswith("@"):
        spec = _read_input(spec[1:])
    try:
        state = density_from_json(spec, tol=max(cfg.tol, 1e-9))
    except (StateError, json.JSONDecodeError, ValueError) as exc:
        raise InputError(f"invalid density matrix: {exc}") from None
    if state.n != n:
        raise InputError(f"state has dimension {state.n}, graph has {n}")
    return state, None


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def cmd_spectra(args) -> int:
    cfg = _config(args)
    x = _load_graph(args.input, cfg)
    d = _decompose(x, cfg)
    doc = {
        "n": d.n,
        "oriented": cfg.oriented,
        "theta": [float(t) for t in d.theta],
        "mult": list(d.mult),
        "idempotent_checksums": [
            {"trace": float(np.trace(e).real), "frobenius": float(np.linalg.norm(e))}
            for e in map(d.idempotent, range(d.m))
        ],
        "residuals": d.residuals(),
        "warnings": list(d.warnings),
    }
    _emit(doc)
    return EXIT_OK


def _report_or_inconclusive(fn, *a, **kw):
    """(report, its JSON), or (None, an inconclusive JSON) when fn raises ValueError."""
    try:
        report = fn(*a, **kw)
    except ValueError as exc:
        return None, {
            "verdict": "inconclusive",
            "witness_time": None,
            "residual": 0.0,
            "certificate": None,
            "warnings": [f"reason: {exc}"],
        }
    return report, report.to_json()


def cmd_analyze(args) -> int:
    cfg = _config(args)
    x = _load_graph(args.input, cfg)
    d = _decompose(x, cfg)
    state, vertex = _load_state(args.state, d.n, cfg)
    doc: dict = {
        "n": d.n,
        "oriented": cfg.oriented,
        "state": {
            "kind": f"vertex:{vertex}" if vertex is not None else "matrix",
            "real": state.real,
            "pure": state.pure,
            "rational": state.rational,
        },
        "theta": [float(t) for t in d.theta],
        "warnings": list(d.warnings),
    }
    # one block decomposition serves every detector below
    blocks = block_decompose(state, d)
    tols = (cfg.accept_tol, cfg.cert_tol, cfg.max_den)
    periodicity, doc["periodicity"] = _report_or_inconclusive(detect_periodicity, state, d, *tols, blocks=blocks)
    _, doc["pst"] = _report_or_inconclusive(
        detect_pst, state, d, *tols, blocks=blocks, periodicity=periodicity
    )
    try:
        candidates = pgst_candidates(blocks)
        doc["pgst_candidates"] = {
            "count": len(candidates),
            "patterns": [{"signs": [[r, s, e] for (r, s), e in sorted(pat.eps.items())]} for pat in candidates],
        }
    except (EnumerationCapExceeded, ValueError) as exc:
        doc["pgst_candidates"] = {"count": None, "inconclusive": str(exc)}
    if vertex is not None:
        doc["local_uniform_mixing"] = detect_local_uniform_mixing(
            d,
            vertex,
            t_max=cfg.t_max,
            flat_tol=cfg.flat_tol,
            cert_tol=cfg.cert_tol,
            max_den=cfg.max_den,
            blocks=blocks,
        ).to_json()
        try:
            bounds = periodic_vertex_bounds(
                x, d, vertex, certified_periodic=doc["periodicity"]["verdict"] == "yes", blocks=blocks
            )
        except ValueError:
            pass  # the vertex is in range, so the graph is disconnected: no bounds
        else:
            doc["vertex_bounds"] = {
                "ecc_plus_one": bounds.ecc_plus_one,
                "support_size": bounds.support_size,
                "upper": bounds.upper,
                "consistent": bounds.consistent,
            }
    doc["uniform_mixing"] = detect_uniform_mixing(
        d, t_max=cfg.t_max, flat_tol=cfg.flat_tol
    ).to_json()
    algebra = algebra_dimension(blocks)
    doc["algebra"] = {"dim": algebra.dim, "controllable": algebra.controllable}
    if algebra.controllable and doc["pst"]["verdict"] == "yes":
        check = controllability_phase_check(d, doc["pst"]["witness_time"], cfg.accept_tol)
        doc["phase_check"] = {
            "scalar": check.scalar,
            "zeta": [check.zeta.real, check.zeta.imag],
            "root_of_unity": check.root_of_unity,
        }
    if "blocks" in cfg.emit:
        pairs, norms = np.argwhere(blocks.support).tolist(), d.group_norms(blocks.p_hat)
        doc["blocks"] = {
            "support": pairs,
            "norms": {f"{r},{s}": float(norms[r, s]) for r, s in pairs},
        }
    if "scan" in cfg.emit:
        h = d.source
        doc["oracle_return_scan"] = oracle.scan_return(
            state.matrix, h, (0.0, cfg.t_max), cfg.grid_step
        ).to_json()
    _emit(doc)
    return EXIT_OK


def _vertex_block_products(d, keep: np.ndarray, a: int) -> tuple[float, float]:
    """Largest ||B_rs B_kl||_F over pairs (r, s), (k, l) of the support mask
    `keep` of the vertex state e_a, first with s != k, then with s == k,
    r != s and l != k.

    The blocks are B_rs = u_r u_s* with u_r = V_r x_r = E_r e_a and
    x = V* e_a, so ||B_rs B_kl||_F = ||u_r|| |<u_s, u_k>| ||u_l||: the m x m
    Gram matrix of the u_r holds every product, and no block is formed.
    """
    u = d.columns([a])[:, :, 0].T
    gram = np.abs(u.conj().T @ u)
    norms = np.sqrt(gram.diagonal())

    def outer(mask):
        # by s, the largest ||u_r|| over (r, s) in the mask; by k, over (k, l)
        left = np.where(mask, norms[:, None], 0.0).max(axis=0)
        right = np.where(mask, norms[None, :], 0.0).max(axis=1)
        return left, right

    left, right = outer(keep)
    products = left[:, None] * gram * right[None, :]
    np.fill_diagonal(products, 0.0)
    left, right = outer(keep & ~np.eye(d.m, dtype=bool))
    same = left * gram.diagonal() * right
    return float(products.max()), float(same.max())


def _verify_graph_invariants(x, d, cfg: RunConfig, rng) -> list[dict]:
    checks = []

    def add(name, residual, bound, info=False):
        checks.append(
            {
                "invariant": name,
                "residual": float(residual),
                "bound": float(bound),
                "passed": bool(residual <= bound),
                "informational": info,
            }
        )

    n = d.n
    res = d.residuals()
    add("spectral.completeness", res["completeness"], n * cfg.tol)
    add("spectral.orthogonality", res["orthogonality"], n * cfg.tol)
    add(
        "spectral.reconstruction",
        res["reconstruction"],
        n * cfg.tol * (1.0 + np.linalg.norm(d.source)),
    )
    add("spectral.hermitian_idempotents", res["hermitian_idempotents"], n * cfg.tol)
    add("spectral.multiplicity", res["multiplicity"], n * cfg.tol)

    ts = rng.uniform(0.0, 10.0, size=20)
    us = [transition_matrix(d, t) for t in ts]
    unit = max(float(np.linalg.norm(u @ u.conj().T - np.eye(n))) for u in us)
    add("walk.unitarity", unit, n * cfg.tol)
    group = max(
        float(np.linalg.norm(transition_matrix(d, t + s) - u_t @ u_s))
        for t, s, u_t, u_s in zip(ts[:10], ts[10:], us[:10], us[10:])
    )
    add("walk.group_law", group, n * cfg.tol)
    path = max(
        float(np.linalg.norm(u - oracle.dense_expm(1j * t * d.source))) for t, u in zip(ts[:10], us)
    )
    add("oracle.path_independence", path, 1e-8)

    for a in range(min(n, 3)):
        state = vertex_state(n, a)
        b = block_decompose(state, d)
        t = float(rng.uniform(0.0, 10.0))
        evolved = evolve(b, t)
        add(f"state.trace_preserved[v{a}]", abs(np.trace(evolved) - 1.0), 1e-10)
        add(f"state.hermitian_preserved[v{a}]", np.linalg.norm(evolved - evolved.conj().T), n * cfg.tol)
        add(f"state.psd_preserved[v{a}]", max(0.0, -float(np.linalg.eigvalsh(evolved).min())), 1e-9)
        u = transition_matrix(d, t)
        direct = u @ state.matrix @ u.conj().T
        add(f"state.block_path_agreement[v{a}]", np.linalg.norm(evolved - direct), n * 1e-10)
        # off-diagonal support pairs (r, s) whose (r, r) or (s, s) is missing
        diag = b.support.diagonal()
        missing = b.support & ~np.eye(d.m, dtype=bool) & ~(diag[:, None] & diag[None, :])
        add(f"blocks.support_diagonal_presence[v{a}]", float(missing.sum()), 0.5)
        vanishing, same_index = _vertex_block_products(d, b.support, a)
        add(f"blocks.product_vanishing[v{a}]", vanishing, n * 1e-9)
        add("blocks.same_index_products_observed", same_index, np.inf, info=True)

    if isinstance(x, OrientedGraph):
        s_mat = skew_adjacency(x)
        add("oriented.skew_antisymmetry", np.abs(s_mat + s_mat.T).max(), 0.0)
        add("oriented.eigenvalue_bound", max(0.0, float(np.abs(d.theta).max()) - max_valency(x)), cfg.tol)
        pairing = 0.0
        for r, theta in enumerate(d.theta):
            partner = d.idempotent(int(np.argmin(np.abs(d.theta + theta))))
            pairing = max(pairing, float(np.linalg.norm(partner - d.idempotent(r).conj())))
        add("oriented.conjugate_idempotent_pairing", pairing, n * max(cfg.tol, 1e-9) * 10)
    return checks


def cmd_verify(args) -> int:
    cfg = _config(args)
    x = _load_graph(args.input, cfg)
    d = _decompose(x, cfg)
    rng = np.random.default_rng(cfg.seed)
    checks = _verify_graph_invariants(x, d, cfg, rng)
    if args.state:
        try:
            state, _ = _load_state(args.state, d.n, cfg)
            checks.append(
                {
                    "invariant": "state.density_invariants",
                    "residual": 0.0,
                    "bound": 0.0,
                    "passed": True,
                    "informational": False,
                }
            )
        except InputError as exc:
            checks.append(
                {
                    "invariant": "state.density_invariants",
                    "residual": float("inf"),
                    "bound": 0.0,
                    "passed": False,
                    "informational": False,
                    "detail": str(exc),
                }
            )
    hard = [c for c in checks if not c["informational"]]
    ok = all(c["passed"] for c in hard)
    _emit({"passed": ok, "checks": checks})
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_evolve(args) -> int:
    cfg = _config(args)
    x = _load_graph(args.input, cfg)
    d = _decompose(x, cfg)
    state, _ = _load_state(args.state, d.n, cfg)
    evolved = evolve(block_decompose(state, d), args.time)
    _emit({"re": evolved.real.tolist(), "im": evolved.imag.tolist()})
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = _config(args)
    x = _load_graph(args.input, cfg)
    d = _decompose(x, cfg)
    h = d.source
    window = (0.0, cfg.t_max)
    if args.kind in ("return", "transfer") and not args.state:
        raise InputError(f"{args.kind} scan needs --state")
    if args.kind == "return":
        state, _ = _load_state(args.state, d.n, cfg)
        result = oracle.scan_return(state.matrix, h, window, cfg.grid_step)
    elif args.kind == "transfer":
        if not args.target:
            raise InputError("transfer scan needs --target")
        state, _ = _load_state(args.state, d.n, cfg)
        target, _ = _load_state(args.target, d.n, cfg)
        result = oracle.scan_transfer(state.matrix, target.matrix, h, window, cfg.grid_step)
    elif args.kind == "flatness":
        if args.vertex is None:
            raise InputError("flatness scan needs --vertex")
        if not (0 <= args.vertex < d.n):
            raise InputError(f"vertex {args.vertex} out of range")
        result = oracle.scan_flatness(h, args.vertex, window, cfg.grid_step)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown scan kind {args.kind}")
    _emit(result.to_json())
    return EXIT_OK


def cmd_orient(args) -> int:
    cfg = _config(args)
    x = _load_graph(args.input, cfg)
    if isinstance(x, OrientedGraph):
        raise InputError("orient expects an undirected graph")
    parts = bipartition(x)
    if parts is None:
        raise InputError("graph is not bipartite; no natural orientation")
    oriented = natural_orientation(x, parts)
    if args.emit_format == ARC_LIST:
        sys.stdout.write(serialize_oriented_graph(oriented, ARC_LIST))
    else:
        _emit(
            {
                "n": oriented.n,
                "arcs": [list(a) for a in sorted(oriented.arcs)],
                "parts": [list(parts[0]), list(parts[1])],
            }
        )
    return EXIT_OK


def _config(args) -> RunConfig:
    try:
        max_n()
    except ValueError as exc:
        raise InputError(str(exc)) from None
    emit = tuple(s.strip() for s in args.emit.split(",")) if getattr(args, "emit", None) else ("report",)
    return RunConfig(
        tol=args.tol,
        cert_tol=args.cert_tol,
        accept_tol=args.accept_tol,
        flat_tol=args.flat_tol,
        max_den=args.max_den,
        t_max=args.t_max,
        grid_step=args.grid_step,
        fmt=args.format,
        oriented=getattr(args, "oriented", False),
        emit=emit,
        seed=args.seed,
    )


def _add_common(sub: argparse.ArgumentParser, oriented_flag: bool = True) -> None:
    sub.add_argument("input", help="graph file, or - for stdin")
    sub.add_argument("--format", choices=[EDGE_LIST, ARC_LIST, GRAPH6, JSON_FORMAT], default=None)
    if oriented_flag:
        sub.add_argument("--oriented", action="store_true", help="input is an oriented graph")
    sub.add_argument("--tol", type=float, default=DEFAULT_GROUPING_TOL)
    sub.add_argument("--cert-tol", dest="cert_tol", type=float, default=DEFAULT_CERT_TOL)
    sub.add_argument("--accept-tol", dest="accept_tol", type=float, default=DEFAULT_ACCEPT_TOL)
    sub.add_argument("--flat-tol", dest="flat_tol", type=float, default=DEFAULT_FLAT_TOL)
    sub.add_argument("--max-den", dest="max_den", type=int, default=DEFAULT_MAX_DEN)
    sub.add_argument("--t-max", dest="t_max", type=float, default=20.0)
    sub.add_argument("--grid-step", dest="grid_step", type=float, default=1e-3)
    sub.add_argument("--emit", default="report", help="comma list: report,blocks,scan")
    sub.add_argument("--seed", type=int, default=0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Analyze continuous quantum walks on graphs and oriented graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectra", help="eigenvalues, multiplicities, idempotent checksums")
    _add_common(p)
    p.set_defaults(fn=cmd_spectra)

    p = sub.add_parser("analyze", help="full detector bundle for one state")
    _add_common(p)
    p.add_argument("--state", required=True, help="vertex:a, inline JSON, or @file")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify", help="run the invariant suite against the input")
    _add_common(p)
    p.add_argument("--state", default=None, help="also validate this state")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("evolve", help="evolve a state and print the density matrix")
    _add_common(p)
    p.add_argument("--state", required=True)
    p.add_argument("-t", "--time", type=float, required=True)
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("scan", help="oracle time-grid scans (dense exponential path)")
    _add_common(p)
    p.add_argument("--kind", choices=["return", "transfer", "flatness"], required=True)
    p.add_argument("--state", default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--vertex", type=int, default=None)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("orient", help="emit the natural orientation of a bipartite graph")
    _add_common(p, oriented_flag=False)
    p.add_argument(
        "--emit-format",
        dest="emit_format",
        choices=[ARC_LIST, JSON_FORMAT],
        default=JSON_FORMAT,
    )
    p.set_defaults(fn=cmd_orient, oriented=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, StateError, GraphParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, np.linalg.LinAlgError, EnumerationCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_FAILURE


def entry_point() -> None:  # console-script shim
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout (`| head -1`); devnull quiets the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAILURE
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
