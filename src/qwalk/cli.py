"""Command-line surface: parse graphs and states, run the detectors, and emit
deterministic JSON reports.

Commands: spectra, analyze, verify, evolve, scan, orient.  Each command
declares only the options it reads, and each value is checked as it is parsed,
so an unknown option or a bad value is one `input error:` line.  Exit codes:
0 success, 1 numerical or detection failure (running out of memory included),
2 input error.  The environment variable QWALK_MAX_N caps the matrix size
(default 512); a value that is not a positive integer is an input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import oracle
from .certificates import DEFAULT_CERT_TOL, DEFAULT_MAX_DEN
from .detectors import (
    DEFAULT_ACCEPT_TOL,
    DEFAULT_FLAT_TOL,
    DetectionReport,
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


class _Parser(argparse.ArgumentParser):
    """Every parse or value error is an InputError: one `input error:` line
    and exit 2, where argparse would print its usage first."""

    def error(self, message):
        raise InputError(message)


def _checked(kind, accept, requirement: str):
    """An argparse type: the value `kind` makes of the text, if `accept` takes it."""

    def parse(text: str):
        try:
            value = kind(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")

    return parse


_positive = _checked(float, lambda x: 0.0 < x < math.inf, "must be finite and positive")
_finite = _checked(float, math.isfinite, "must be finite")
_positive_int = _checked(int, lambda k: k >= 1, "must be a positive integer")
_non_negative_int = _checked(int, lambda k: k >= 0, "must be a non-negative integer")
_emit_parts = _checked(
    lambda text: tuple(s.strip() for s in text.split(",")),
    lambda parts: set(parts) <= {"report", "blocks", "scan"},
    "must be a comma list of report, blocks, scan",
)


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
    if first and not first.startswith("#") and len(first.split()) == 1:  # graph6 has no whitespace
        return GRAPH6
    return EDGE_LIST


def _load_graph(args) -> Graph | OrientedGraph:
    text = _read_input(args.input)
    fmt = args.format or _sniff_format(text, args.oriented)
    return (parse_oriented_graph if args.oriented else parse_graph)(text, fmt)


def _decompose(args):
    """The input graph and its spectral decomposition, grouped under --tol."""
    x = _load_graph(args)
    return x, (decompose_oriented if args.oriented else decompose_graph)(x, args.tol)


def _load_state(spec: str, n: int, tol: float):
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
        state = density_from_json(spec, tol=max(tol, 1e-9))
    except (StateError, json.JSONDecodeError, ValueError) as exc:
        raise InputError(f"invalid density matrix: {exc}") from None
    if state.n != n:
        raise InputError(f"state has dimension {state.n}, graph has {n}")
    return state, None


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def cmd_spectra(args) -> int:
    _, d = _decompose(args)
    doc = {
        "n": d.n,
        "oriented": args.oriented,
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
        return None, DetectionReport("inconclusive", reason=str(exc)).to_json()
    return report, report.to_json()


def cmd_analyze(args) -> int:
    x, d = _decompose(args)
    state, vertex = _load_state(args.state, d.n, args.tol)
    doc: dict = {
        "n": d.n,
        "oriented": args.oriented,
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
    tols = (args.accept_tol, args.cert_tol, args.max_den)
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
            t_max=args.t_max,
            flat_tol=args.flat_tol,
            cert_tol=args.cert_tol,
            max_den=args.max_den,
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
        d, t_max=args.t_max, flat_tol=args.flat_tol
    ).to_json()
    algebra = algebra_dimension(blocks)
    doc["algebra"] = {"dim": algebra.dim, "controllable": algebra.controllable}
    if algebra.controllable and doc["pst"]["verdict"] == "yes":
        check = controllability_phase_check(d, doc["pst"]["witness_time"], args.accept_tol)
        doc["phase_check"] = {
            "scalar": check.scalar,
            "zeta": [check.zeta.real, check.zeta.imag],
            "root_of_unity": check.root_of_unity,
        }
    if "blocks" in args.emit:
        pairs, norms = np.argwhere(blocks.support).tolist(), d.group_norms(blocks.p_hat)
        doc["blocks"] = {
            "support": pairs,
            "norms": {f"{r},{s}": float(norms[r, s]) for r, s in pairs},
        }
    if "scan" in args.emit:
        doc["oracle_return_scan"] = oracle.scan_return(
            state.matrix, d.source, (0.0, args.t_max), args.grid_step
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


def _check(name: str, residual, bound, info: bool = False, detail: str | None = None) -> dict:
    """One row of verify's report: it passes when residual <= bound."""
    row = {
        "invariant": name,
        "residual": float(residual),
        "bound": float(bound),
        "passed": bool(residual <= bound),
        "informational": info,
    }
    if detail is not None:
        row["detail"] = detail
    return row


def _verify_graph_invariants(x, d, tol: float, rng) -> list[dict]:
    checks = []

    def add(*row, **kw):
        checks.append(_check(*row, **kw))

    n = d.n
    res = d.residuals()
    add("spectral.completeness", res["completeness"], n * tol)
    add("spectral.orthogonality", res["orthogonality"], n * tol)
    add(
        "spectral.reconstruction",
        res["reconstruction"],
        n * tol * (1.0 + np.linalg.norm(d.source)),
    )
    add("spectral.hermitian_idempotents", res["hermitian_idempotents"], n * tol)
    add("spectral.multiplicity", res["multiplicity"], n * tol)

    ts = rng.uniform(0.0, 10.0, size=20)
    us = [transition_matrix(d, t) for t in ts]
    unit = max(float(np.linalg.norm(u @ u.conj().T - np.eye(n))) for u in us)
    add("walk.unitarity", unit, n * tol)
    group = max(
        float(np.linalg.norm(transition_matrix(d, t + s) - u_t @ u_s))
        for t, s, u_t, u_s in zip(ts[:10], ts[10:], us[:10], us[10:])
    )
    add("walk.group_law", group, n * tol)
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
        add(f"state.hermitian_preserved[v{a}]", np.linalg.norm(evolved - evolved.conj().T), n * tol)
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
        add("oriented.eigenvalue_bound", max(0.0, float(np.abs(d.theta).max()) - max_valency(x)), tol)
        pairing = 0.0
        for r, theta in enumerate(d.theta):
            partner = d.idempotent(int(np.argmin(np.abs(d.theta + theta))))
            pairing = max(pairing, float(np.linalg.norm(partner - d.idempotent(r).conj())))
        add("oriented.conjugate_idempotent_pairing", pairing, n * max(tol, 1e-9) * 10)
    return checks


def cmd_verify(args) -> int:
    x, d = _decompose(args)
    checks = _verify_graph_invariants(x, d, args.tol, np.random.default_rng(args.seed))
    if args.state is not None:
        try:
            _load_state(args.state, d.n, args.tol)
            checks.append(_check("state.density_invariants", 0.0, 0.0))
        except InputError as exc:
            checks.append(_check("state.density_invariants", np.inf, 0.0, detail=str(exc)))
    hard = [c for c in checks if not c["informational"]]
    ok = all(c["passed"] for c in hard)
    _emit({"passed": ok, "checks": checks})
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_evolve(args) -> int:
    _, d = _decompose(args)
    state, _ = _load_state(args.state, d.n, args.tol)
    evolved = evolve(block_decompose(state, d), args.time)
    _emit({"re": evolved.real.tolist(), "im": evolved.imag.tolist()})
    return EXIT_OK


# the state options each scan kind reads; any other one is an input error
_SCAN_READS = {"return": ("state",), "transfer": ("state", "target"), "flatness": ("vertex",)}


def cmd_scan(args) -> int:
    for name in ("state", "target", "vertex"):
        reads = name in _SCAN_READS[args.kind]
        if reads == (vars(args)[name] is None):
            raise InputError(f"{args.kind} scan {'needs' if reads else 'does not read'} --{name}")
    _, d = _decompose(args)
    h, window = d.source, (0.0, args.t_max)
    if args.kind == "flatness":
        if not (0 <= args.vertex < d.n):
            raise InputError(f"vertex {args.vertex} out of range")
        result = oracle.scan_flatness(h, args.vertex, window, args.grid_step)
    elif args.kind == "return":
        state, _ = _load_state(args.state, d.n, args.tol)
        result = oracle.scan_return(state.matrix, h, window, args.grid_step)
    else:
        state, _ = _load_state(args.state, d.n, args.tol)
        target, _ = _load_state(args.target, d.n, args.tol)
        result = oracle.scan_transfer(state.matrix, target.matrix, h, window, args.grid_step)
    _emit(result.to_json())
    return EXIT_OK


def cmd_orient(args) -> int:
    x = _load_graph(args)
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


def _add_command(sub, name: str, fn, help: str, decomposed: bool = True) -> argparse.ArgumentParser:
    """A subcommand reading one graph; a decomposed one also takes --oriented and --tol."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    p.add_argument("input", help="graph file, or - for stdin")
    p.add_argument("--format", choices=[EDGE_LIST, ARC_LIST, GRAPH6, JSON_FORMAT], default=None)
    if decomposed:
        p.add_argument("--oriented", action="store_true", help="input is an oriented graph")
        p.add_argument("--tol", type=_positive, default=DEFAULT_GROUPING_TOL, help="eigenvalue grouping")
    else:
        p.set_defaults(oriented=False)
    p.set_defaults(fn=fn)
    return p


def _add_window(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-max", dest="t_max", type=_positive, default=20.0)
    p.add_argument("--grid-step", dest="grid_step", type=_positive, default=1e-3, help="oracle scan step")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qwalk",
        description="Analyze continuous quantum walks on graphs and oriented graphs.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "spectra", cmd_spectra, "eigenvalues, multiplicities, idempotent checksums")

    p = _add_command(sub, "analyze", cmd_analyze, "full detector bundle for one state")
    p.add_argument("--cert-tol", dest="cert_tol", type=_positive, default=DEFAULT_CERT_TOL)
    p.add_argument("--accept-tol", dest="accept_tol", type=_positive, default=DEFAULT_ACCEPT_TOL)
    p.add_argument("--flat-tol", dest="flat_tol", type=_positive, default=DEFAULT_FLAT_TOL)
    p.add_argument("--max-den", dest="max_den", type=_positive_int, default=DEFAULT_MAX_DEN)
    _add_window(p)
    p.add_argument("--emit", type=_emit_parts, default=("report",), help="comma list: report,blocks,scan")
    p.add_argument("--state", required=True, help="vertex:a, inline JSON, or @file")

    p = _add_command(sub, "verify", cmd_verify, "run the invariant suite against the input")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--state", default=None, help="also validate this state")

    p = _add_command(sub, "evolve", cmd_evolve, "evolve a state and print the density matrix")
    p.add_argument("--state", required=True)
    p.add_argument("-t", "--time", type=_finite, required=True)

    p = _add_command(sub, "scan", cmd_scan, "oracle time-grid scans (dense exponential path)")
    _add_window(p)
    p.add_argument("--kind", choices=list(_SCAN_READS), required=True)
    p.add_argument("--state", default=None, help="read by return and transfer")
    p.add_argument("--target", default=None, help="read by transfer")
    p.add_argument("--vertex", type=int, default=None, help="read by flatness")

    p = _add_command(sub, "orient", cmd_orient, "emit the natural orientation of a bipartite graph", decomposed=False)
    p.add_argument("--emit-format", dest="emit_format", choices=[ARC_LIST, JSON_FORMAT], default=JSON_FORMAT)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            max_n()  # an invalid QWALK_MAX_N is an input error before any input is read
        except ValueError as exc:
            raise InputError(str(exc)) from None
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
