"""qwalk benchmark runner.

    python3 perfbench/run.py --workload atlas-sweep --seed 1 --seconds 15 --trace 0

Runs one workload (or `all`, each in its own process) as a single caller in a
closed loop: the next op starts when the previous one returns.  Inputs come
from --seed and are generated before the set-up clock starts; set-up imports
qwalk and runs one untimed warm-up op per op kind on inputs no timed op uses.
The timed phase runs whole rounds of the same ops, as many as come nearest to
--seconds (at least one).  Every output is then checked against computations
made apart from qwalk.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0; with --trace 1 the per-layer metrics of a traced timed phase and
its overhead against the same rounds run untraced in a fresh process.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A memory blow-up fails one op (MemoryError, counted) instead of the machine.
ADDRESS_SPACE_CAP = 3 << 30
# Set-up is measured this many times in fresh processes besides the run's own.
SETUP_PROBES = 4
# op_tail_s is the highest whole percentile with at least this many ops beyond
# it in a single round, the least a run completes.
TAIL_OPS = 10
MIN_ROUND_OPS = 40


def _cap_address_space() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def _import_qwalk():
    """Import the checkout's own qwalk, never an installed copy."""
    sys.path.insert(0, str(SRC))
    qwalk = importlib.import_module("qwalk")
    importlib.import_module("qwalk.cli")
    if Path(qwalk.__file__).resolve().parent != (SRC / "qwalk").resolve():
        raise SystemExit(f"error: imported qwalk from {qwalk.__file__}, not {SRC}")
    return qwalk


def tail_percentile(round_ops: int) -> int:
    return int(100 * (1 - TAIL_OPS / round_ops))


class Run:
    """One workload's ops, their outputs and latencies."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.outputs: list[tuple[object, object]] = []  # (op, raw output)
        self.failures: list[str] = []

    def call(self, q, op) -> None:
        start = time.perf_counter()
        try:
            self.outputs.append((op, op.run(q)))
        except (Exception, SystemExit) as exc:  # one op fails; the loop goes on
            self.failures.append(f"{op.kind} n={op.n}: {type(exc).__name__}: {exc}")
        self.latencies.append(time.perf_counter() - start)

    def rounds(self, q, seconds: float, count: int | None = None) -> tuple[int, float]:
        """Run whole rounds: `count` of them, or as many as come nearest to
        `seconds` (at least one).  Returns (rounds, wall seconds)."""
        start = time.perf_counter()
        done = 0
        while True:
            for op in self.workload.ops:
                self.call(q, op)
            done += 1
            elapsed = time.perf_counter() - start
            if count is not None:
                if done == count:
                    return done, elapsed
            elif elapsed + elapsed / done / 2 >= seconds:
                return done, elapsed

    def problems(self) -> list[str]:
        found = []
        for op, out in self.outputs:
            try:
                found += op.check(out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed output
                found.append(f"{op.kind} n={op.n}: output could not be checked: {type(exc).__name__}: {exc}")
        return found


def setup(workload) -> tuple[object, float]:
    """Import qwalk and warm up once per op kind; returns (qwalk, seconds)."""
    start = time.perf_counter()
    q = _import_qwalk()
    for op in workload.warmups:
        op.run(q)
    return q, time.perf_counter() - start


def _child(name: str, seed: int, *flags: str) -> dict:
    """Run set-up (and optionally untraced rounds) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), *flags],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import bench_workloads

    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{name}-", dir=OUT))
    try:
        workload = bench_workloads.build(name, seed, workdir)
        if len(workload.ops) < MIN_ROUND_OPS:
            raise SystemExit(f"error: {name} has {len(workload.ops)} ops per round, fewer than {MIN_ROUND_OPS}")
        q, setup_s = setup(workload)
        run = Run(workload)
        if trace:
            # The traced pass starts from the same state as an untraced run's
            # timed phase; its untraced reference runs in a fresh process, so
            # neither pass finds the other's grids in the oracle's cache.
            import bench_trace

            tracer = bench_trace.Tracer()
            tracer.install()
            try:
                rounds, wall = run.rounds(q, seconds)
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"spans-{name}-seed{seed}.json")
            reference = _child(name, seed, "--reference-rounds", str(rounds))["wall_s"]
            metrics = tracer.metrics(rounds, 100.0 * (wall / reference - 1.0))
        else:
            rounds, wall = run.rounds(q, seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups = [setup_s] + [_child(name, seed, "--setup-probe")["setup_s"] for _ in range(SETUP_PROBES)]
            percentiles = statistics.quantiles(run.latencies, n=100, method="inclusive")
            metrics = {
                "setup_s": _metric(statistics.median(setups), "s"),
                "ops_per_s": _metric(len(run.latencies) / wall, "1/s"),
                "op_p50_s": _metric(statistics.median(run.latencies), "s"),
                "op_tail_s": _metric(percentiles[tail_percentile(len(workload.ops)) - 1], "s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            }
        _write_ops(name, seed, trace, workload, run, rounds, wall)
        problems = run.problems()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in run.failures:
        print(f"FAILED op: {line}", file=sys.stderr)
    for line in problems:
        print(f"CHECK: {line}", file=sys.stderr)
    summary = (f"{name}: seed {seed}, {rounds} round(s) of {len(workload.ops)} ops, "
               f"{len(run.latencies)} attempted, {len(run.failures)} failed")
    if not trace:
        summary += f", op_tail_s is p{tail_percentile(len(workload.ops))}"
    print(summary)
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": len(run.latencies), "failed": len(run.failures),
            "metrics": metrics}


def _write_ops(name, seed, trace, workload, run, rounds, wall) -> None:
    """Per-op latencies of the timed phase, for the README's tables."""
    ops = [op for _ in range(rounds) for op in workload.ops]
    doc = {
        "workload": name, "seed": seed, "rounds": rounds, "wall_s": wall,
        "ops": [[op.kind, op.tag, op.n, t] for op, t in zip(ops, run.latencies)],
    }
    (OUT / f"ops-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(doc))


def run_all(args) -> dict:
    """Each workload in its own fresh process, so each set-up is measured."""
    import bench_workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in bench_workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="atlas-sweep, analyze-mid, spectra-large or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference-rounds", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qwalk" / "__init__.py").is_file():
        print(f"error: no qwalk sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    _cap_address_space()
    OUT.mkdir(exist_ok=True)
    import bench_workloads

    if args.workload != "all" and args.workload not in bench_workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_probe or args.reference_rounds:
        workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT))
        try:
            workload = bench_workloads.build(args.workload, args.seed, workdir)
            q, setup_s = setup(workload)
            doc = {"setup_s": setup_s}
            if args.reference_rounds:
                _, doc["wall_s"] = Run(workload).rounds(q, 0.0, count=args.reference_rounds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps(doc))
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
