"""Golden CLI outputs: `analyze`, `spectra`, `verify` and `scan` on small graphs.

Each case runs the CLI in-process and compares its JSON with the file of the
same name under `tests/golden/`.  Keys, verdicts, strings, ints, bools and
exit codes must match exactly; floats must match to 1e-9 relative, with an
absolute floor of 1e-12 so that round-off residuals near zero (unitarity
defects, flat-scan floors) do not depend on the BLAS build.

Regenerate the files, only when an output change is intended, with
`PYTHONPATH=src python tests/test_golden.py`.  It rewrites only the files
whose current content no longer matches the output, so a BLAS build that
moves the round-off of an unchanged case leaves that file as it is.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from qwalk.cli import main

GOLDEN = Path(__file__).parent / "golden"

GRAPHS = {
    "k1": ("# n=1\n", ()),
    "k2": ("0 1\n", ()),
    "p3": ("0 1\n1 2\n", ()),
    "p4": ("0 1\n1 2\n2 3\n", ()),
    "k13": ("0 1\n0 2\n0 3\n", ()),
    "c4": ("0 1\n1 2\n2 3\n3 0\n", ()),
    "oc3": ("0 1\n1 2\n2 0\n", ("--oriented",)),
}

# (E_00 + E_22) / 2 on P3: a real, rational, mixed state
MIXED_P3 = json.dumps(
    {"re": [[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5]], "im": [[0.0] * 3] * 3}
)


def _cases() -> dict[str, tuple[str, tuple[str, ...]]]:
    """Golden name -> (graph key, CLI arguments after the input path)."""
    cases = {}
    for name, (_, flags) in GRAPHS.items():
        cases[f"spectra_{name}"] = (name, ("spectra", *flags))
        cases[f"analyze_{name}"] = (
            name,
            ("analyze", *flags, "--state", "vertex:0", "--emit", "report,blocks,scan"),
        )
        cases[f"verify_{name}"] = (name, ("verify", *flags, "--state", "vertex:0"))
    cases["analyze_p3_mixed"] = ("p3", ("analyze", "--state", MIXED_P3))
    cases["verify_p3_mixed"] = ("p3", ("verify", "--state", MIXED_P3))
    for name, last in (("k2", 1), ("p3", 2)):
        cases[f"scan_return_{name}"] = (name, ("scan", "--kind", "return", "--state", "vertex:0"))
        cases[f"scan_transfer_{name}"] = (
            name,
            ("scan", "--kind", "transfer", "--state", "vertex:0", "--target", f"vertex:{last}"),
        )
        cases[f"scan_flatness_{name}"] = (name, ("scan", "--kind", "flatness", "--vertex", "0"))
    return cases


CASES = _cases()


def _run(graph_dir: Path, graph: str, args: tuple[str, ...]) -> dict:
    path = graph_dir / f"{graph}.txt"
    if not path.exists():
        path.write_text(GRAPHS[graph][0])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([args[0], str(path), *args[1:]])
    return {"exit": code, "output": json.loads(out.getvalue())}


def _assert_matches(got, want, where: str = "$") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float, f"{where}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    graph, args = CASES[name]
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    _assert_matches(_run(tmp_path, graph, args), want)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (graph, args) in sorted(CASES.items()):
            doc = _run(Path(tmp), graph, args)
            path = GOLDEN / f"{name}.json"
            try:
                _assert_matches(doc, json.loads(path.read_text()))
            except (AssertionError, OSError, ValueError):
                path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
                print(f"wrote {name}.json (exit {doc['exit']})", file=sys.stderr)
            else:
                print(f"kept {name}.json", file=sys.stderr)
