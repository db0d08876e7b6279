"""The three workloads: seeded inputs, the ops of one round, and their checks.

Inputs are plain edge lists and files written before qwalk is imported; an
op receives the imported `qwalk` package and returns its raw output, which the
op's checker examines after the timed phase.  Op sizes are spread over a range
(jittered strata), so op costs form a continuum instead of a few groups.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bench_checks as checks

WORKLOADS = ("atlas-sweep", "analyze-mid", "spectra-large")

# atlas-sweep: the acceptance suite's sweep settings.
SWEEP_STEP = 4e-3
SWEEP_WINDOW = (0.0, 20.0)
SWEEP_GRID_POINTS = 5000
SWEEP_ZOOM = 1e-12

# analyze-mid: graph units per round; each unit is three analyze calls and
# one verify.  Every third unit's first analyze also asks for blocks and scan.
RANDOM_N = (8, 9, 10)  # random G(n, p), each also analyzed as a random orientation
ANALYZE_T_MAX = 20.0
SCAN_EVERY = 3

# spectra-large: ops per round and size ranges.
SPECTRA_N = (56, 96)
SPECTRA_OPS = 12  # half plain, half on random orientations
EVOLVE_N = (40, 64)
EVOLVE_OPS = 28
SPECTRA_P = 0.1


class OpFailed(RuntimeError):
    """The program reported failure (non-zero exit code)."""


@dataclass
class Op:
    kind: str
    n: int
    run: Callable  # (qwalk package) -> raw output
    check: Callable  # (raw output) -> list of problems
    tag: str = ""  # the input's family, for the per-op latency file


@dataclass
class Workload:
    ops: list[Op]  # one round, in the order it runs
    warmups: list[Op]  # one per op kind, on inputs no timed op uses


# -- graph helpers -----------------------------------------------------------


def _gnp(rng, n: int, p: float) -> list[tuple[int, int]]:
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    return [(int(u), int(v)) for u, v in zip(iu[keep], ju[keep])]


def _connected(n: int, edges) -> bool:
    return min(checks.distances(n, edges, 0)) >= 0


def _connected_gnp(rng, n: int, p: float):
    while True:
        edges = _gnp(rng, n, p)
        if _connected(n, edges):
            return edges


def _orient(rng, edges):
    return [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]


def _sizes(lo: int, hi: int, k: int) -> list[int]:
    """k sizes spread evenly over [lo, hi], the same for every seed."""
    return [lo + round(i * (hi - lo) / (k - 1)) for i in range(k)]


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


def _cycle(n):
    return _path(n) + [(n - 1, 0)]


def _product(n1, e1, n2, e2):
    """Cartesian product; vertex (i, j) is i * n2 + j."""
    edges = [(i * n2 + u, i * n2 + v) for i in range(n1) for u, v in e2]
    edges += [(u * n2 + j, v * n2 + j) for j in range(n2) for u, v in e1]
    return n1 * n2, edges


def _hypercube(d: int):
    n = 2**d
    return n, [(u, u ^ (1 << k)) for u in range(n) for k in range(d) if u < u ^ (1 << k)]


def _write_pairs(path: Path, n: int, pairs) -> str:
    path.write_text(f"# n={n}\n" + "".join(f"{u} {v}\n" for u, v in pairs))
    return str(path)


def _cli(q, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = q.cli.main(argv)
    if rc != 0:
        raise OpFailed(f"qwalk {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _json_check(fn, *args):
    return lambda text: fn(json.loads(text), *args)


# -- atlas-sweep -------------------------------------------------------------


def _orbit_representatives(n: int, edges) -> list[int]:
    """One vertex per automorphism orbit (detector verdicts are equivariant)."""
    a = checks.adjacency(n, edges)
    perms = np.array(list(itertools.permutations(range(n))))
    autos = perms[(a[perms[:, :, None], perms[:, None, :]] == a).all(axis=(1, 2))]
    orbit = list(range(n))
    for perm in autos:
        for v in range(n):
            lo = min(orbit[v], orbit[perm[v]])
            for w in range(n):
                if orbit[w] in (orbit[v], orbit[perm[v]]):
                    orbit[w] = lo
    return sorted(set(orbit))


def _sweep_op(n: int, edges, reps) -> Op:
    def run(q):
        g = q.Graph.from_edges(n, edges)
        d = q.decompose_graph(g)
        h = np.asarray(d.source)
        vertices = []
        for a in reps:
            state = q.vertex_state(n, a)
            vertices.append(
                {
                    "vertex": a,
                    "periodicity": q.detect_periodicity(state, d),
                    "pst": q.detect_pst(state, d),
                    "oracle_return": q.scan_return(
                        state.matrix, h, SWEEP_WINDOW, SWEEP_STEP, max_records=2, time_resolution=SWEEP_ZOOM
                    ),
                    "oracle_flat": q.scan_flatness(
                        h, a, SWEEP_WINDOW, SWEEP_STEP, max_records=2, time_resolution=SWEEP_ZOOM
                    ),
                    "mixing": q.detect_local_uniform_mixing(
                        d, a, t_max=SWEEP_WINDOW[1], grid_points=SWEEP_GRID_POINTS
                    ),
                }
            )
        return {
            "n": n,
            "edges": edges,
            "vertices": vertices,
            "uniform": q.detect_uniform_mixing(d, t_max=SWEEP_WINDOW[1], grid_points=SWEEP_GRID_POINTS),
            "oracle_uniform": q.scan_uniform_flatness(
                h, SWEEP_WINDOW, SWEEP_STEP, max_records=2, time_resolution=SWEEP_ZOOM
            ),
        }

    return Op("sweep", n, run, checks.check_sweep)


def atlas_sweep(rng, workdir: Path) -> Workload:
    """Every atlas graph on at most 4 vertices and, on 5 and 6 vertices, one
    of each pair of neighbours in (orbits, edges) order, relabelled at random.

    The pairing keeps each round's cost mix the same across seeds.  The warm-up
    graph has 7 vertices, so no timed op can be served from its oracle grid.
    """
    import networkx as nx

    by_n: dict[int, list] = {}
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if 1 <= n <= 7:
            edges = sorted(tuple(sorted(e)) for e in ag.edges())
            by_n.setdefault(n, []).append(edges)
    chosen = []
    for n in range(1, 7):
        graphs = [(len(_orbit_representatives(n, e)), len(e), i, e) for i, e in enumerate(by_n[n])]
        graphs.sort()
        if n <= 4:
            chosen += [(n, g[3]) for g in graphs]
        else:
            chosen += [(n, graphs[i + int(rng.integers(2))][3]) for i in range(0, len(graphs) - 1, 2)]
    ops = []
    for k in rng.permutation(len(chosen)):
        n, edges = chosen[k]
        perm = rng.permutation(n)
        edges = [(int(perm[u]), int(perm[v])) for u, v in edges]
        ops.append(_sweep_op(n, edges, _orbit_representatives(n, edges)))
    warm = by_n[7][int(rng.integers(len(by_n[7])))]
    warmups = [_sweep_op(7, warm, _orbit_representatives(7, warm))]
    return Workload(ops, warmups)


# -- analyze-mid -------------------------------------------------------------


def _analyze_unit(rng, workdir: Path, unit: str, n: int, pairs, oriented: bool, family: str, scan: bool,
                  states=None):
    """Three analyze ops (vertex states a and c, the two-vertex state of a and
    b given as @file) and one verify.  With `scan`, the first also emits
    blocks and scan.  `states` gives (a, b, c); by default they are random."""
    path = _write_pairs(workdir / f"{unit}.txt", n, pairs)
    flag = ["--oriented"] if oriented else []
    a, b, c = states or (int(x) for x in rng.choice(n, size=3, replace=False))
    state_file = workdir / f"{unit}-pair.json"
    z = checks.pair_density(n, a, b).real
    state_file.write_text(json.dumps({"re": z.tolist(), "im": np.zeros((n, n)).tolist()}))
    base = {"n": n, "oriented": oriented, "family": family, "t_max": ANALYZE_T_MAX}
    base["arcs" if oriented else "edges"] = pairs
    tag = f"{family}{'-oriented' if oriented else ''}"
    name = f"{tag} n={n} (unit {unit})"

    def analyze(spec, case, emit=False):
        argv = ["analyze", path, "--state", spec, *flag] + (["--emit", "report,blocks,scan"] if emit else [])
        kind = "analyze-scan" if emit else "analyze"
        return Op(kind, n, lambda q: _cli(q, argv), _json_check(checks.check_analyze, case), tag)

    verify_argv = ["verify", path, "--seed", str(int(rng.integers(1 << 16))), *flag]
    return [
        analyze(f"vertex:{a}", dict(base, vertex=a, label=f"{name} vertex {a}"), emit=scan),
        analyze(f"vertex:{c}", dict(base, vertex=c, label=f"{name} vertex {c}")),
        analyze(f"@{state_file}", dict(base, pair=(a, b), label=f"{name} pair {a},{b}")),
        Op("verify", n, lambda q: _cli(q, verify_argv), _json_check(checks.check_verify, f"{name} verify"), tag),
    ]


def analyze_mid(rng, workdir: Path) -> Workload:
    """Random connected G(n, p) and a random orientation of each, plus named
    families with answers known from the literature, all on 8-10 vertices.

    The sizes and the order are fixed; the seed draws the random graphs, the
    labelling and the states.  A seed thus changes the inputs but neither the
    mix of sizes, which sets most of an analyze call's cost, nor the oracle
    grid cache's contents at each op, which set part of the peak RSS.
    """
    units = []  # (n, pairs, oriented, family)
    for n in RANDOM_N:
        edges = _connected_gnp(rng, n, float(rng.uniform(0.3, 0.5)))
        units.append((n, edges, False, "random"))
        units.append((n, _orient(rng, edges), True, "random"))
    units += [(n, pairs, False, family) for family, (n, pairs) in _named_graphs()]

    ops = []
    for i, (n, pairs, oriented, family) in enumerate(units):
        perm = rng.permutation(n)
        pairs = [(int(perm[u]), int(perm[v])) for u, v in pairs]
        # On a named family the states sit at fixed places (an end, the
        # middle, the other end), so their cost does not change with the seed.
        states = None if family == "random" else [int(perm[v]) for v in (0, n - 1, n // 2)]
        ops += _analyze_unit(rng, workdir, f"unit{i}", n, pairs, oriented, family, i % SCAN_EVERY == 0, states)
    warm_n = 5  # warm-up exercises every code path; its size does not matter
    warm = _analyze_unit(rng, workdir, "warmup", warm_n, _connected_gnp(rng, warm_n, 0.5), False, "random", True)
    warmups = [warm[0], warm[1], warm[3]]  # analyze-scan, analyze, verify
    return Workload(ops, warmups)


def _named_graphs():
    return [
        ("path", (9, _path(9))),
        ("cycle", (10, _cycle(10))),
        ("hypercube", _hypercube(3)),
        ("product", _product(3, _path(3), 3, _path(3))),
        ("product", _product(2, _path(2), 5, _cycle(5))),
    ]


# -- spectra-large -----------------------------------------------------------


def _spectra_op(workdir: Path, tag: str, n: int, pairs, oriented: bool) -> Op:
    path = _write_pairs(workdir / f"{tag}.txt", n, pairs)
    h = checks.skew_hamiltonian(n, pairs) if oriented else checks.adjacency(n, pairs)
    argv = ["spectra", path] + (["--oriented"] if oriented else [])
    label = f"spectra{' --oriented' if oriented else ''} n={n} ({tag})"
    kind = "spectra-oriented" if oriented else "spectra"
    return Op(kind, n, lambda q: _cli(q, argv), _json_check(checks.check_spectra, h, label))


def _evolve_op(rng, workdir: Path, tag: str, n: int, edges) -> Op:
    path = _write_pairs(workdir / f"{tag}.txt", n, edges)
    a, t = int(rng.integers(n)), float(rng.uniform(0.5, 10.0))
    argv = ["evolve", path, "--state", f"vertex:{a}", "-t", repr(t)]
    label = f"evolve n={n} vertex {a} t={t!r} ({tag})"
    return Op("evolve", n, lambda q: _cli(q, argv),
              _json_check(checks.check_evolve, checks.adjacency(n, edges), a, t, label))


def spectra_large(rng, workdir: Path) -> Workload:
    """spectra on G(n, 0.1) and random orientations for n in 56-96, and
    evolve of a vertex state on G(n, 0.1) for n in 40-64."""
    ops = []
    for i, n in enumerate(_sizes(*SPECTRA_N, SPECTRA_OPS)):
        edges = _gnp(rng, n, SPECTRA_P)
        oriented = i % 2 == 1  # alternate sizes, so both kinds span the range
        ops.append(_spectra_op(workdir, f"spectra{i}", n, _orient(rng, edges) if oriented else edges, oriented))
    for i, n in enumerate(_sizes(*EVOLVE_N, EVOLVE_OPS)):
        ops.append(_evolve_op(rng, workdir, f"evolve{i}", n, _gnp(rng, n, SPECTRA_P)))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    warm_n = 24
    warmups = [
        _spectra_op(workdir, "warm-plain", warm_n, _gnp(rng, warm_n, 0.2), False),
        _spectra_op(workdir, "warm-oriented", warm_n, _orient(rng, _gnp(rng, warm_n, 0.2)), True),
        _evolve_op(rng, workdir, "warm-evolve", warm_n, _gnp(rng, warm_n, 0.2)),
    ]
    return Workload(ops, warmups)


BUILDERS = {"atlas-sweep": atlas_sweep, "analyze-mid": analyze_mid, "spectra-large": spectra_large}


def build(name: str, seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return BUILDERS[name](rng, workdir)
