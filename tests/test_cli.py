"""Command-line surface: commands, exit codes, JSON determinism."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk.cli
from qwalk import GraphParseError, decompose_graph, decompose_oriented, parse_graph, parse_oriented_graph
from qwalk.cli import main


@pytest.fixture()
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("0 1\n")
    return str(path)


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("0 1\n1 2\n")
    return str(path)


@pytest.fixture()
def oc3_file(tmp_path):
    path = tmp_path / "oc3.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectra_k2(capsys, k2_file):
    code, out, _ = run_cli(capsys, "spectra", k2_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"] == [1.0, -1.0]
    assert doc["mult"] == [1, 1]


def test_spectra_p3_sqrt2(capsys, p3_file):
    code, out, _ = run_cli(capsys, "spectra", p3_file)
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["theta"][0] - math.sqrt(2)) <= 1e-12
    assert doc["theta"][1] == pytest.approx(0.0, abs=1e-12)


def test_spectra_oriented_c3(capsys, oc3_file):
    code, out, _ = run_cli(capsys, "spectra", oc3_file, "--oriented")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["theta"][0] - math.sqrt(3)) <= 1e-12


def test_analyze_k2_bundle(capsys, k2_file):
    code, out, _ = run_cli(capsys, "analyze", k2_file, "--state", "vertex:0")
    assert code == 0
    doc = json.loads(out)
    assert doc["periodicity"]["verdict"] == "yes"
    assert abs(doc["periodicity"]["witness_time"] - math.pi) <= 1e-9
    assert doc["pst"]["verdict"] == "yes"
    assert abs(doc["pst"]["witness_time"] - math.pi / 2) <= 1e-9
    assert doc["local_uniform_mixing"]["verdict"] == "yes"
    assert abs(doc["local_uniform_mixing"]["witness_time"] - math.pi / 4) <= 1e-9
    assert doc["pgst_candidates"]["count"] == 2
    assert doc["algebra"]["controllable"] is True
    assert doc["vertex_bounds"]["consistent"] is True


def test_analyze_p3_center(capsys, p3_file):
    code, out, _ = run_cli(capsys, "analyze", p3_file, "--state", "vertex:1")
    assert code == 0
    doc = json.loads(out)
    assert doc["periodicity"]["verdict"] == "yes"
    assert abs(doc["periodicity"]["witness_time"] - math.pi / math.sqrt(2)) <= 1e-9
    # the center state transfers to the even superposition of the two ends
    assert doc["pst"]["verdict"] == "yes"


def test_analyze_star_center(capsys, tmp_path):
    path = tmp_path / "k13.txt"
    path.write_text("0 1\n0 2\n0 3\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--state", "vertex:0")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["periodicity"]["witness_time"] - math.pi / math.sqrt(3)) <= 1e-9
    assert abs(doc["local_uniform_mixing"]["witness_time"] - math.pi / (3 * math.sqrt(3))) <= 1e-6
    assert abs(doc["uniform_mixing"]["witness_time"] - 2 * math.pi / (3 * math.sqrt(3))) <= 1e-6


def test_analyze_reports_vertex_bounds_on_connected_graphs_only(capsys, tmp_path):
    """K2 + P3 is disconnected, so its vertex states get no eccentricity
    bounds; P3 alone gets them."""
    path = tmp_path / "k2p3.txt"
    path.write_text("0 1\n2 3\n3 4\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--state", "vertex:2")
    assert code == 0
    assert "vertex_bounds" not in json.loads(out)
    path.write_text("2 3\n3 4\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--state", "vertex:0")
    assert code == 0
    assert json.loads(out)["vertex_bounds"] == {
        "ecc_plus_one": 3, "support_size": 3, "upper": 5, "consistent": True
    }


def test_analyze_with_blocks_emit(capsys, k2_file):
    code, out, _ = run_cli(capsys, "analyze", k2_file, "--state", "vertex:0", "--emit", "report,blocks")
    doc = json.loads(out)
    assert code == 0
    assert doc["blocks"]["support"] == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_analyze_matrix_state(capsys, k2_file):
    state = json.dumps({"re": [[0.5, 0.5], [0.5, 0.5]], "im": [[0, 0], [0, 0]]})
    code, out, _ = run_cli(capsys, "analyze", k2_file, "--state", state)
    doc = json.loads(out)
    assert code == 0
    assert doc["state"]["kind"] == "matrix"
    # the plus state commutes with the adjacency matrix: stationary
    assert doc["periodicity"]["verdict"] == "yes"
    assert doc["pst"]["verdict"] == "no"


def test_analyze_rejects_invalid_state(capsys, k2_file):
    bad = json.dumps({"re": [[0.9, 0.0], [0.0, 0.0]], "im": [[0, 0], [0, 0]]})
    code, _, err = run_cli(capsys, "analyze", k2_file, "--state", bad)
    assert code == 2
    assert "input error" in err


def test_verify_k2_passes(capsys, k2_file):
    code, out, _ = run_cli(capsys, "verify", k2_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    hard = [c for c in doc["checks"] if not c["informational"]]
    assert hard and all(c["passed"] for c in hard)


def test_verify_random_graph_passes(capsys, tmp_path, rng):
    from conftest import random_graph
    from qwalk import serialize_graph

    g = random_graph(rng, 8)
    path = tmp_path / "g8.txt"
    path.write_text(serialize_graph(g))
    code, out, _ = run_cli(capsys, "verify", str(path), "--seed", "7")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_oriented_passes(capsys, oc3_file):
    code, out, _ = run_cli(capsys, "verify", oc3_file, "--oriented")
    assert code == 0
    doc = json.loads(out)
    names = {c["invariant"] for c in doc["checks"]}
    assert "oriented.conjugate_idempotent_pairing" in names


def test_verify_corrupted_state_fails(capsys, k2_file):
    bad = json.dumps({"re": [[0.9, 0.0], [0.0, 0.0]], "im": [[0, 0], [0, 0]]})
    code, out, _ = run_cli(capsys, "verify", k2_file, "--state", bad)
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    failing = [c for c in doc["checks"] if not c["passed"]]
    assert any(c["invariant"] == "state.density_invariants" for c in failing)


def test_evolve_outputs_density(capsys, k2_file):
    code, out, _ = run_cli(capsys, "evolve", k2_file, "--state", "vertex:0", "-t", str(math.pi / 2))
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["re"], [[0, 0], [0, 1]], atol=1e-9)


def test_scan_return_command(capsys, k2_file):
    code, out, _ = run_cli(
        capsys, "scan", k2_file, "--kind", "return", "--state", "vertex:0", "--t-max", "7"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["minima"]) == 2
    assert abs(doc["minima"][0][0] - math.pi) <= 1e-6


def test_scan_transfer_command(capsys, k2_file):
    code, out, _ = run_cli(
        capsys,
        "scan",
        k2_file,
        "--kind",
        "transfer",
        "--state",
        "vertex:0",
        "--target",
        "vertex:1",
        "--t-max",
        "4",
    )
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["minima"][0][0] - math.pi / 2) <= 1e-6


def test_scan_flatness_command(capsys, k2_file):
    code, out, _ = run_cli(capsys, "scan", k2_file, "--kind", "flatness", "--vertex", "0", "--t-max", "3")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["minima"][0][0] - math.pi / 4) <= 1e-6


def test_scan_transfer_requires_target(capsys, k2_file):
    code, _, err = run_cli(capsys, "scan", k2_file, "--kind", "transfer", "--state", "vertex:0")
    assert code == 2 and "target" in err


def test_scan_return_requires_state(capsys, k2_file):
    code, _, err = run_cli(capsys, "scan", k2_file, "--kind", "return")
    assert code == 2 and "state" in err


def test_orient_c4(capsys, tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = run_cli(capsys, "orient", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["parts"] == [[0, 2], [1, 3]]
    assert len(doc["arcs"]) == 4
    for u, v in doc["arcs"]:
        assert u in (1, 3) and v in (0, 2)


def test_orient_rejects_odd_cycle(capsys, oc3_file):
    code, _, err = run_cli(capsys, "orient", oc3_file)
    assert code == 2 and "bipartite" in err


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n")
    code, _, err = run_cli(capsys, "spectra", str(path))
    assert code == 2


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "spectra", "/nonexistent/file.txt")
    assert code == 2


_CAP = "matrix size 100000 exceeds cap 512"
# (name, text, message, exit code) per input form, with {} for "edge" or
# "arc"; exit 2 is a GraphParseError, exit 1 the size cap's ValueError
_LINE_CASES = [
    ("malformed line", "0 1 2\n", "line 1: expected 'u v'", 2),
    ("non-integer", "0 1\n0 x\n", "line 2: non-integer vertex", 2),
    ("negative label", "0 1\n-1 2\n", "line 2: negative vertex label", 2),
    ("loop", "0 1\n2 2\n", "line 2: loop at vertex 2", 2),
    ("out of range", "# n=2\n0 1\n0 5\n", "line 3: {} (0,5) out of range: vertex index >= n=2", 2),
    ("n overflow", "# n=100000\n0 1\n", _CAP, 1),
]
_JSON_CASES = [
    ("malformed line", '{"n": 2', "invalid JSON", 2),
    ("not a pair", '{"n": 3, "{}s": [[0, 1, 2]]}', "{} #0 is not a pair", 2),
    ("non-integer", '{"n": 2, "{}s": [[0, 1.5]]}', "{} #0 has non-integer endpoints", 2),
    ("negative label", '{"n": 2, "{}s": [[0, -1]]}', "{} #0: {} (0,-1) out of range: vertex index < 0", 2),
    ("loop", '{"n": 2, "{}s": [[0, 1], [1, 1]]}', "{} #1: loop at vertex 1", 2),
    ("out of range", '{"n": 2, "{}s": [[0, 2]]}', "{} #0: {} (0,2) out of range: vertex index >= n=2", 2),
    ("n overflow", '{"n": 100000, "{}s": []}', _CAP, 1),
    ("bool n", '{"n": true, "{}s": []}', "n must be a nonnegative integer", 2),
    ("bool endpoint", '{"n": 2, "{}s": [[0, true]]}', "{} #0 has non-integer endpoints", 2),
]
BOUNDARY_CASES = [
    *[("edge-list", False, *case) for case in _LINE_CASES],
    ("edge-list", False, "duplicate", "0 1\n1 0\n", "line 2: duplicate edge (1,0)", 2),
    *[("arc-list", True, *case) for case in _LINE_CASES],
    ("arc-list", True, "duplicate", "0 1\n0 1\n", "line 2: duplicate arc (0,1)", 2),
    ("arc-list", True, "both orientations", "0 1\n1 0\n", "line 2: second arc between 1 and 0", 2),
    *[("json", False, *case) for case in _JSON_CASES],
    ("json", False, "duplicate", '{"n": 2, "edges": [[0, 1], [1, 0]]}', "edge #1: duplicate edge (1,0)", 2),
    *[("json", True, *case) for case in _JSON_CASES],
    ("json", True, "duplicate", '{"n": 2, "arcs": [[0, 1], [0, 1]]}', "arc #1: duplicate arc (0,1)", 2),
    ("json", True, "both orientations", '{"n": 2, "arcs": [[0, 1], [1, 0]]}', "arc #1: second arc between 1 and 0", 2),
]


@pytest.mark.parametrize(
    "fmt, oriented, name, text, message, exit_code",
    BOUNDARY_CASES,
    ids=[f"{fmt}{'-oriented' if oriented else ''}-{name}" for fmt, oriented, name, *_ in BOUNDARY_CASES],
)
def test_invalid_graph_input_table(capsys, monkeypatch, tmp_path, fmt, oriented, name, text, message, exit_code):
    """Each invalid input raises one exception with one message from the
    library, and the CLI prints that message on one line with its exit code:
    2 for an input error, 1 for a graph over the size cap."""
    monkeypatch.delenv("QWALK_MAX_N", raising=False)
    noun = "arc" if oriented else "edge"
    text, message = text.replace("{}", noun), message.replace("{}", noun)
    parse, decompose = (parse_oriented_graph, decompose_oriented) if oriented else (parse_graph, decompose_graph)
    with pytest.raises(ValueError) as raised:
        decompose(parse(text, fmt))
    assert type(raised.value) is (GraphParseError if exit_code == 2 else ValueError)
    assert message in str(raised.value)
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "spectra", str(path), "--format", fmt, *(["--oriented"] if oriented else []))
    prefix = "input error: " if exit_code == 2 else "error: "
    assert code == exit_code and out == ""
    assert err.startswith(prefix) and message in err and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--state", "vertex:0", "--t-max", "-1"),
        ("analyze", "--state", "vertex:0", "--t-max", "nan"),
        ("scan", "--kind", "flatness", "--vertex", "0", "--grid-step", "0"),
    ],
)
def test_bad_scan_window_is_an_input_error(capsys, k2_file, argv):
    code, out, err = run_cli(capsys, argv[0], k2_file, *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


def test_unreadable_inputs_are_input_errors(capsys, tmp_path, k2_file):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"\xe9 1\n")
    cases = [
        ("analyze", k2_file, "--state", f"@{tmp_path / 'missing.json'}"),
        ("analyze", k2_file, "--state", f"@{latin1}"),
        ("spectra", str(latin1)),
        ("spectra", str(tmp_path)),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("input error: cannot read") and err.count("\n") == 1, argv


def test_out_of_memory_is_a_one_line_failure(capsys, monkeypatch, k2_file):
    """A grid too large to allocate exits 1 without a traceback."""

    def no_memory(*args):
        raise MemoryError(
            "Unable to allocate 763. GiB for an array with shape (20000001, 16, 16) "
            "and data type complex128"
        )

    monkeypatch.setattr("qwalk.oracle.unitary_grid", no_memory)
    code, out, err = run_cli(
        capsys, "scan", k2_file, "--kind", "return", "--state", "vertex:0", "--grid-step", "1e-7"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_out_of_memory_in_a_capped_child_is_a_one_line_failure(k2_file):
    """The scan above, unpatched, asks for the 6.4 GB grid of U(t)e_0; with
    the child's address space capped at 1 GiB before numpy loads, it exits 1
    with one line and no traceback."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qwalk.cli.__file__)))
    capped = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from qwalk.cli import entry_point; entry_point()"
    )
    argv = ["scan", k2_file, "--kind", "return", "--state", "vertex:0", "--grid-step", "1e-7"]
    done = subprocess.run(
        [sys.executable, "-c", capped, *argv],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: out of memory") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_size_cap_is_read_before_the_matrix_is_built(tmp_path):
    """A `# n=100000` edge list would need 74.5 GiB for its int64 adjacency
    alone; under a 1 GiB address-space cap the CLI exits 1 with the cap
    message, fast, because the cap is read before any n x n matrix."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qwalk.cli.__file__)))
    path = tmp_path / "big.txt"
    path.write_text("# n=100000\n0 1\n")
    capped = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from qwalk.cli import entry_point; entry_point()"
    )
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", capped, "spectra", str(path)],
        env={
            **{k: v for k, v in os.environ.items() if k != "QWALK_MAX_N"},
            "PYTHONPATH": src,
            "OPENBLAS_NUM_THREADS": "1",
        },
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.monotonic() - start
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "error: matrix size 100000 exceeds cap 512 (set QWALK_MAX_N to raise)\n"
    assert elapsed < 5.0, elapsed


def test_analyze_p24_end_vertex_is_controllable(capsys, tmp_path):
    """The end vertex of P24 has a simple spectrum and full support: the
    algebra is the full M_24."""
    path = tmp_path / "p24.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(23)))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--state", "vertex:0")
    assert code == 0
    assert json.loads(out)["algebra"] == {"dim": 576, "controllable": True}


def test_algebra_budget_overrun_is_a_one_line_failure(capsys, monkeypatch, tmp_path):
    """The mixed state (E_00 + E_11)/2 on C16 sends analyze through the
    algebra closure; past its byte budget it exits 1 without a traceback."""
    n = 16
    graph, state = tmp_path / "c16.txt", tmp_path / "mixed.json"
    graph.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
    m = np.zeros((n, n))
    m[0, 0] = m[1, 1] = 0.5
    state.write_text(json.dumps({"re": m.tolist(), "im": np.zeros((n, n)).tolist()}))
    monkeypatch.setattr("qwalk.states.ALGEBRA_BASIS_BYTES", 4096)
    code, out, err = run_cli(capsys, "analyze", str(graph), "--state", f"@{state}")
    assert code == 1 and out == ""
    assert err.startswith("error: out of memory: algebra closure needs more than") and err.count("\n") == 1
    assert "Traceback" not in err


def test_build_parser_is_built_once():
    assert qwalk.cli.build_parser() is qwalk.cli.build_parser()


@pytest.mark.parametrize("value", ["abc", "0", "2.5"])
def test_bad_max_n_is_an_input_error(capsys, monkeypatch, k2_file, value):
    monkeypatch.setenv("QWALK_MAX_N", value)
    code, out, err = run_cli(capsys, "spectra", k2_file)
    assert code == 2 and out == ""
    assert err.startswith("input error: QWALK_MAX_N") and err.count("\n") == 1


def test_closed_stdout_ends_without_a_traceback(p3_file):
    """`qwalk spectra p3.txt | head -1`: once the reader has closed the pipe,
    the write fails with EPIPE; the CLI exits 1 and prints nothing to
    stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qwalk.cli.__file__)))
    child = subprocess.Popen(
        [sys.executable, "-c", "from qwalk.cli import entry_point; entry_point()", "spectra", p3_file],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    child.stdout.close()  # before the child, still importing numpy, can write
    err = child.stderr.read().decode()
    assert child.wait(timeout=120) == 1
    assert "Traceback" not in err and err == ""


def test_byte_identical_reruns(capsys, p3_file):
    _, out1, _ = run_cli(capsys, "analyze", p3_file, "--state", "vertex:0", "--emit", "report,blocks,scan")
    _, out2, _ = run_cli(capsys, "analyze", p3_file, "--state", "vertex:0", "--emit", "report,blocks,scan")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "verify", p3_file, "--seed", "3")
    _, out4, _ = run_cli(capsys, "verify", p3_file, "--seed", "3")
    assert out3 == out4


def test_graph6_format_flag(capsys, tmp_path):
    path = tmp_path / "k2.g6"
    path.write_text("A_")
    code, out, _ = run_cli(capsys, "spectra", str(path), "--format", "graph6")
    assert code == 0
    assert json.loads(out)["theta"] == [1.0, -1.0]


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n"))
    code, out, _ = run_cli(capsys, "spectra", "-")
    assert code == 0
    assert json.loads(out)["n"] == 2


def test_sniffing_splits_pairs_on_any_whitespace(capsys, monkeypatch):
    """A tab-separated P3 reads as the space-separated one; a one-word first
    line is still graph6."""
    import io

    spectra = []
    for text in ("0 1\n1 2\n", "0\t1\n1\t2\n", "Bg\n"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run_cli(capsys, "spectra", "-")
        assert code == 0, text
        spectra.append(json.loads(out))
    assert spectra[0] == spectra[1] == spectra[2]
    assert spectra[0]["theta"] == pytest.approx([math.sqrt(2), 0.0, -math.sqrt(2)])


def test_verify_keeps_the_diagonal_block_of_a_weak_group(capsys, tmp_path):
    """Vertex 0 of this 9-vertex graph has |x_4|^2 = 3.2e-11 on one group, so
    its diagonal block falls below block_tol while the off-diagonal blocks of
    that group, about sqrt(3.2e-11) in norm, stay above it.  The support keeps
    the diagonal block of every group that a kept pair touches."""
    edges = "0 1, 0 2, 0 4, 0 5, 0 7, 1 5, 1 7, 2 3, 2 4, 2 6, 3 4, 3 7, 3 8, 4 5, 4 7, 5 7, 5 8, 6 8, 7 8"
    path = tmp_path / "g9.txt"
    path.write_text("".join(f"{e.strip()}\n" for e in edges.split(",")))
    code, out, _ = run_cli(capsys, "verify", str(path))
    doc = json.loads(out)
    presence = next(
        c for c in doc["checks"] if c["invariant"] == "blocks.support_diagonal_presence[v0]"
    )
    assert presence["residual"] == 0.0
    assert doc["passed"] is True and code == 0


def _count_calls(monkeypatch, names) -> dict[str, int]:
    """Count calls of each named library function under every module that binds it."""
    modules = [qwalk.states, qwalk.certificates, qwalk.detectors, qwalk.cli]
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counting(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    "edges, pst",
    [("0 1\n", "yes"), ("0 1\n1 2\n", "yes"), ("0 1\n1 2\n2 3\n", "no"), ("0 1\n0 2\n0 3\n", "yes")],
    ids=["K2", "P3", "P4", "K13"],
)
def test_analyze_works_each_fact_out_once(capsys, monkeypatch, tmp_path, edges, pst):
    """One block decomposition serves every detector, the ratio condition
    runs once on it and once on the vertex support, and the only matrix
    validated after the state is loaded is the reported transfer target."""
    path = tmp_path / "g.txt"
    path.write_text(edges)
    calls = _count_calls(monkeypatch, ["block_decompose", "ratio_condition", "density_matrix", "rational_approx"])
    code, out, _ = run_cli(capsys, "analyze", str(path), "--state", "vertex:0")
    assert code == 0 and json.loads(out)["pst"]["verdict"] == pst
    assert calls["block_decompose"] == 1
    assert 1 <= calls["ratio_condition"] <= 2
    assert calls["density_matrix"] == (pst == "yes")
    if pst == "no":
        assert calls["rational_approx"] == 0


def test_evolve_classifies_nothing(capsys, monkeypatch, p3_file):
    calls = _count_calls(monkeypatch, ["density_matrix", "rational_approx"])
    code, out, _ = run_cli(capsys, "evolve", p3_file, "--state", "vertex:0", "-t", "0.7")
    assert code == 0 and len(json.loads(out)["re"]) == 3
    assert calls == {"density_matrix": 0, "rational_approx": 0}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("part", ["re", "im"])
def test_non_finite_state_entries_are_a_one_line_input_error(capsys, k2_file, part, value):
    doc = {"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    doc[part][0][1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code, out, err = run_cli(capsys, "analyze", k2_file, "--state", json.dumps(doc))
    assert code == 2 and out == ""
    assert err == "input error: invalid density matrix: non-finite entries\n"


def test_verify_counts_off_diagonal_pairs_without_their_diagonal(capsys, monkeypatch, k2_file):
    """A support mask with (0, 1) and (1, 0) but not (0, 0) fails the check with a count of 2."""
    block_decompose = qwalk.cli.block_decompose

    def without_first_diagonal(state, d):
        b = block_decompose(state, d)
        support = b.support.copy()
        support[0, 0] = False
        return dataclasses.replace(b, support=support)

    monkeypatch.setattr(qwalk.cli, "block_decompose", without_first_diagonal)
    code, out, _ = run_cli(capsys, "verify", k2_file)
    presence = next(c for c in json.loads(out)["checks"] if c["invariant"] == "blocks.support_diagonal_presence[v0]")
    assert presence["residual"] == 2.0 and not presence["passed"]
    assert code == 1


def test_verify_builds_each_walk_matrix_once(capsys, monkeypatch, tmp_path):
    """verify forms U(t) once for each of its 20 random times, U(t + s) once
    for each of its 10 pairs, and one U(t) per checked vertex state: 33 calls
    at n >= 3."""
    path = tmp_path / "c10.txt"
    path.write_text("".join(f"{u} {(u + 1) % 10}\n" for u in range(10)))
    calls = _count_calls(monkeypatch, ["transition_matrix"])
    code, _, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and calls == {"transition_matrix": 33}


def test_scipy_loads_only_for_the_oracle(k2_file):
    """`import qwalk` and `qwalk spectra` leave scipy unloaded; the oracle's
    dense exponential (`qwalk scan`) loads it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qwalk.cli.__file__)))
    script = (
        "import contextlib, io, sys\n"
        "import qwalk, qwalk.cli\n"
        "assert 'scipy' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert qwalk.cli.main(['spectra', {k2_file!r}]) == 0\n"
        "    assert 'scipy' not in sys.modules\n"
        f"    assert qwalk.cli.main(['scan', {k2_file!r}, '--kind', 'flatness', '--vertex', '0', '--t-max', '1']) == 0\n"
        "assert 'scipy' in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-500:]


@pytest.mark.parametrize(
    "argv, message",
    [
        # a NaN time printed a matrix of NaN, which is not JSON
        (("evolve", "--state", "vertex:0", "-t", "nan"), "argument -t/--time: must be finite, got 'nan'"),
        (("evolve", "--state", "vertex:0", "-t", "inf"), "argument -t/--time: must be finite, got 'inf'"),
        # numpy refused a negative seed with exit 1
        (("verify", "--seed", "-1"), "argument --seed: must be a non-negative integer, got '-1'"),
    ],
)
def test_bad_option_value_names_the_option(capsys, p3_file, argv, message):
    code, out, err = run_cli(capsys, argv[0], p3_file, *argv[1:])
    assert code == 2 and out == ""
    assert err == f"input error: {message}\n"


def test_inconclusive_report_and_state_rows_keep_their_json(capsys, k2_file):
    """A detector that refuses the state reads as an inconclusive report, and
    verify's state row passes, or fails with the detail of the input error."""
    state = json.dumps({"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.5], [-0.5, 0.0]]})
    code, out, _ = run_cli(capsys, "analyze", k2_file, "--state", state)
    doc = json.loads(out)
    assert code == 0
    assert doc["state"] == {"kind": "matrix", "pure": True, "rational": True, "real": False}
    assert doc["pst"] == {
        "certificate": None,
        "residual": 0.0,
        "verdict": "inconclusive",
        "warnings": ["reason: transfer detection requires a real state"],
        "witness_time": None,
    }
    code, out, _ = run_cli(capsys, "verify", k2_file, "--state", "vertex:1")
    assert code == 0
    assert json.loads(out)["checks"][-1] == {
        "bound": 0.0,
        "informational": False,
        "invariant": "state.density_invariants",
        "passed": True,
        "residual": 0.0,
    }
    for bad in ("garbage", ""):  # an empty state is checked too, not skipped
        code, out, _ = run_cli(capsys, "verify", k2_file, "--state", bad)
        assert code == 1
        assert '"residual": Infinity' in out
        assert json.loads(out)["checks"][-1] == {
            "bound": 0.0,
            "detail": "invalid density matrix: Expecting value: line 1 column 1 (char 0)",
            "informational": False,
            "invariant": "state.density_invariants",
            "passed": False,
            "residual": math.inf,
        }


# A valid argv on P3 for each command, after the input file.
_VALID_ARGV = {
    "spectra": (),
    "analyze": ("--state", "vertex:0"),
    "verify": (),
    "evolve": ("--state", "vertex:0", "-t", "1"),
    "scan": ("--kind", "flatness", "--vertex", "0", "--t-max", "1"),
    "orient": (),
}
# The eleven options all six commands once took, each with a valid value.
_OLD_SHARED = {
    "--format": ("edge-list",),
    "--oriented": (),
    "--tol": ("1e-9",),
    "--cert-tol": ("1e-7",),
    "--accept-tol": ("1e-8",),
    "--flat-tol": ("1e-9",),
    "--max-den": ("1000",),
    "--t-max": ("1",),
    "--grid-step": ("1e-3",),
    "--emit": ("report",),
    "--seed": ("1",),
}
_NOT_POSITIVE = ("-1", "0", "nan", "inf", "abc")
_BAD_VALUES = {
    **dict.fromkeys(["--tol", "--cert-tol", "--accept-tol", "--flat-tol", "--t-max", "--grid-step"], _NOT_POSITIVE),
    "--max-den": (*_NOT_POSITIVE, "2.5"),
    "--seed": ("-1", "nan", "inf", "abc", "2.5"),
    "-t": ("nan", "inf", "abc"),
    "--vertex": ("-1", "3", "nan", "abc"),
}
_READS = {
    "spectra": ("--format", "--oriented", "--tol"),
    "analyze": tuple(opt for opt in _OLD_SHARED if opt != "--seed"),
    "verify": ("--format", "--oriented", "--tol", "--seed"),
    "evolve": ("--format", "--oriented", "--tol", "-t"),
    "scan": ("--format", "--oriented", "--tol", "--t-max", "--grid-step", "--vertex"),
    "orient": ("--format",),
}
REFUSED_ARGV = [
    # an option the command does not read
    *[(cmd, *_VALID_ARGV[cmd], opt, *value) for cmd in _VALID_ARGV for opt, value in _OLD_SHARED.items()
      if opt not in _READS[cmd]],
    # a bad value of a numeric option it reads
    *[(cmd, *_VALID_ARGV[cmd], opt, bad) for cmd, opts in _READS.items() for opt in opts
      for bad in _BAD_VALUES.get(opt, ())],
    ("analyze", "--state", "vertex:0", "--emit", "report,scna"),
    # a state option the scan kind does not read
    ("scan", "--kind", "return", "--state", "vertex:0", "--target", "vertex:1"),
    ("scan", "--kind", "return", "--state", "vertex:0", "--vertex", "0"),
    ("scan", "--kind", "transfer", "--state", "vertex:0", "--target", "vertex:2", "--vertex", "0"),
    ("scan", "--kind", "flatness", "--vertex", "0", "--state", "vertex:0"),
    ("scan", "--kind", "flatness", "--vertex", "0", "--target", "vertex:1"),
]


@pytest.mark.parametrize("argv", REFUSED_ARGV, ids=[" ".join(argv) for argv in REFUSED_ARGV])
def test_refused_option_table(capsys, p3_file, argv):
    """Every option a command does not read and every bad value of one it
    reads is a one-line input error, before any output."""
    code, out, err = run_cli(capsys, argv[0], p3_file, *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1, err


def test_valid_argv_table_runs(capsys, p3_file):
    """The table's base argvs, and the values it calls valid, all exit 0."""
    for cmd, base in _VALID_ARGV.items():
        for opt in _READS[cmd]:
            value = _OLD_SHARED.get(opt, ("0",) if opt == "--vertex" else ("1.5",))
            code, _, err = run_cli(capsys, cmd, p3_file, *base, opt, *value)
            assert code == 0, (cmd, opt, err)


# Values per option for the argv property test: valid ones, with --t-max at
# most 2 and --grid-step at least 1e-3 so that no grid passes a few MB, and bad ones.
_ARGV_VALUES = {
    "--format": ("edge-list", "arc-list", "graph6", "json", "csv"),
    "--oriented": (),
    "--tol": ("1e-9", "1e-6", *_NOT_POSITIVE),
    "--cert-tol": ("1e-7", "1e-3", "0"),
    "--accept-tol": ("1e-8", "nan"),
    "--flat-tol": ("1e-9", "1e-3", "-1"),
    "--max-den": ("1", "1000", "0", "2.5"),
    "--t-max": ("0.5", "2", *_NOT_POSITIVE),
    "--grid-step": ("1e-3", "0.05", "0", "inf"),
    "--emit": ("report", "report,blocks", "blocks,scan", "report,scna", ""),
    "--seed": ("0", "7", "-1", "x"),
    "--state": ("vertex:0", "vertex:2", "vertex:9", "vertex:x", '{"re": [[1, 0], [0, 0]]}', "garbage", "@missing.json"),
    "--target": ("vertex:1", "vertex:-1", "garbage"),
    "--vertex": ("0", "1", "-1", "7", "x"),
    "--kind": ("return", "transfer", "flatness", "nope"),
    "--emit-format": ("arc-list", "json", "graph6"),
    "-t": ("0.5", "-1", "nan", "abc"),
    "--bogus": (),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_VALID_ARGV)))
    argv = [command, draw(st.sampled_from(["K2", "P3"]))]
    if draw(st.booleans()):  # half the argvs start from a valid one, required options included
        argv += _VALID_ARGV[command]
    for opt in draw(st.lists(st.sampled_from(sorted(_ARGV_VALUES)), max_size=4)):
        values = _ARGV_VALUES[opt]
        argv += [opt, draw(st.sampled_from(values))] if values else [opt]
    return argv


@pytest.fixture(scope="module")
def small_graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "K2").write_text("0 1\n")
    (root / "P3").write_text("0 1\n1 2\n")
    return root


@settings(max_examples=300, deadline=None)
@given(argv=_argvs())
def test_any_argv_exits_cleanly(small_graph_files, argv):
    """Any argv over the K2 and P3 files exits 0, 1 or 2 without a
    traceback; a nonzero exit prints one stderr line and no output, except
    verify's report of a failed check, which goes to stdout alone."""
    argv = [argv[0], str(small_graph_files / argv[1]), *argv[2:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 0:
        assert out and not err
    elif argv[0] == "verify" and code == 1 and not err:
        assert json.loads(out)["passed"] is False
    else:
        assert out == "" and err.count("\n") == 1, (argv, err)
