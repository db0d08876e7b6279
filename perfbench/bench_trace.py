"""Per-layer tracing installed from outside the program.

`Tracer.install` wraps every public function of each qwalk module under every
module name that binds it (the package re-exports and the names `qwalk.cli`
imports included), plus `SpectralDecomposition.residuals`.  In `qwalk.cli`
only `main` is wrapped: the command handlers are the CLI layer's own body, so
their time counts as `cli.main` self time.  Each call records a span (name,
start, end, parent); a span's self time is its duration minus its children's.
Counters computed from arguments and results are kept beside the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import weakref
from collections import defaultdict

LAYERS = ("graphs", "spectral", "states", "certificates", "detectors", "oracle", "cli")
MB = float(1 << 20)

# Per-layer metrics: (name, unit).  Function metrics are `<layer>.<function>.
# self_s` or `.calls`; the rest are counters, and `_mb` ones are computed from
# array shapes (largest single structure of the round).
TIMED = (
    "graphs.parse_graph", "graphs.graph_stats", "cli.main",
    "spectral.spectral_decompose", "spectral.residuals", "spectral.transition_matrix",
    "states.density_matrix", "states.block_decompose", "states.evolve", "states.algebra_dimension",
    "certificates.ratio_condition", "certificates.rational_approx",
    "detectors.detect_periodicity", "detectors.detect_pst", "detectors.pgst_candidates",
    "detectors.detect_local_uniform_mixing", "detectors.detect_uniform_mixing",
    "oracle.unitary_grid", "oracle.dense_expm", "oracle.scan_return", "oracle.scan_flatness",
    "oracle.scan_uniform_flatness",
)
COUNTED = (
    "spectral.spectral_decompose", "spectral.transition_matrix", "states.density_matrix",
    "states.block_decompose", "states.evolve", "certificates.ratio_condition",
    "certificates.rational_approx", "oracle.unitary_grid", "oracle.dense_expm",
)
COUNTERS = (
    ("spectral.idempotent_mb", "MB"),
    ("states.blocks_built", "count"),
    ("states.block_mb", "MB"),
    ("certificates.support_pairs", "count"),
    ("detectors.pgst_patterns", "count"),
    ("detectors.mixing_grid_points", "count"),
    ("detectors.uniform_mixing_grid_mb", "MB"),
    ("oracle.grid_points", "count"),
    ("oracle.grid_mb", "MB"),
)
# Functions whose arguments or results feed the counters above.
HOOKED = frozenset({
    "spectral.spectral_decompose", "states.block_decompose", "certificates.ratio_condition",
    "detectors.pgst_candidates", "detectors.detect_local_uniform_mixing",
    "detectors.detect_uniform_mixing", "oracle.unitary_grid",
})
# The traced pass's wall time over the untraced pass's, and the spans behind it.
OVERHEAD = (("trace.overhead_pct", "%"), ("trace.spans", "count"))


def metric_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in TIMED}
    units.update({f"{name}.calls": "count" for name in COUNTED})
    units.update(dict(COUNTERS))
    units.update(dict(OVERHEAD))
    return units


def _public_functions(module):
    for attr, obj in vars(module).items():
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr, obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self._grids: dict[int, weakref.ref] = {}

    # -- counters computed at layer boundaries ---------------------------------

    def _maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters[key], value)

    def _count(self, name: str, args, result) -> None:
        c = self.counters
        if name == "spectral.spectral_decompose":
            self._maximum("spectral.idempotent_mb", result.idempotents.nbytes / MB)
        elif name == "states.block_decompose":
            c["states.blocks_built"] += len(result.blocks)
            self._maximum("states.block_mb", sum(b.nbytes for b in result.blocks.values()) / MB)
        elif name == "certificates.ratio_condition":
            support = args["support"]
            pairs = support.off_diagonal if hasattr(support, "off_diagonal") else support
            c["certificates.support_pairs"] += len({(min(r, s), max(r, s)) for r, s in pairs if r != s})
        elif name == "detectors.pgst_candidates":
            c["detectors.pgst_patterns"] += 2 ** len(args["b"].off_diagonal_pairs())
        elif name in ("detectors.detect_local_uniform_mixing", "detectors.detect_uniform_mixing"):
            points = max(64, int(args["grid_points"])) + 1
            c["detectors.mixing_grid_points"] += points
            if name == "detectors.detect_uniform_mixing":
                n = args["d"].n
                self._maximum("detectors.uniform_mixing_grid_mb", points * n * n * 16 / MB)
        elif name == "oracle.unitary_grid":
            seen = self._grids.get(id(result))
            if seen is None or seen() is not result:  # built, not served from the cache
                self._grids[id(result)] = weakref.ref(result)
                c["oracle.grid_points"] += result.shape[0]
                self._maximum("oracle.grid_mb", result.nbytes / MB)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counted = name in HOOKED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if counted:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(name, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"qwalk.{layer}") for layer in LAYERS}
        holders = [importlib.import_module("qwalk"), *modules.values()]
        for layer, module in modules.items():
            for attr, fn in _public_functions(module):
                if layer == "cli" and attr != "main":
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, wrapped)
        cls = modules["spectral"].SpectralDecomposition
        self._patch(cls, "residuals", self._wrap("spectral.residuals", cls.residuals))

    def _patch(self, holder, key: str, value) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
            calls[name] += 1
        return self_s, calls

    def metrics(self, rounds: int, overhead_pct: float) -> dict[str, dict]:
        """Per-layer metrics per round; zero where a layer did no work."""
        self_s, calls = self.self_times()
        units = metric_units()
        values = {f"{name}.self_s": self_s.get(name, 0.0) / rounds for name in TIMED}
        values.update({f"{name}.calls": _per_round(calls.get(name, 0), rounds) for name in COUNTED})
        for key, unit in COUNTERS:
            total = self.counters.get(key, 0.0)
            values[key] = total if unit == "MB" else _per_round(total, rounds)
        values["trace.overhead_pct"] = overhead_pct
        values["trace.spans"] = _per_round(len(self.spans), rounds)
        return {key: {"value": values[key], "unit": units[key]} for key in units}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _per_round(total: float, rounds: int):
    """Counts repeat exactly per round, so the quotient is whole."""
    total = int(round(total))
    return total // rounds if total % rounds == 0 else total / rounds
