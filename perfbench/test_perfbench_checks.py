"""The benchmark's checkers accept true outputs and reject corrupted ones.

Each test computes a true output with qwalk on a tiny input, checks that the
checker accepts it, then corrupts one field (a flipped verdict, a shifted
witness time, a perturbed eigenvalue or density entry) and checks that the
checker rejects it, so that no check passes vacuously.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import qwalk  # noqa: E402
import qwalk.cli  # noqa: E402

import bench_checks as checks  # noqa: E402
import bench_workloads as workloads  # noqa: E402


def _cli_json(argv):
    return json.loads(workloads._cli(qwalk, [str(a) for a in argv]))


def _write(tmp_path, n, pairs):
    return workloads._write_pairs(tmp_path / "g.txt", n, pairs)


# -- atlas-sweep ---------------------------------------------------------------


@pytest.fixture(scope="module")
def p3_sweep():
    edges = [(0, 1), (1, 2)]
    return workloads._sweep_op(3, edges, [0, 1]).run(qwalk)


def _replace_vertex(rec, index, key, **changes):
    rec = copy.copy(rec)
    rec["vertices"] = [dict(v) for v in rec["vertices"]]
    rec["vertices"][index][key] = dataclasses.replace(rec["vertices"][index][key], **changes)
    return rec


def test_sweep_accepts_true_output(p3_sweep):
    assert p3_sweep["vertices"][0]["pst"].verdict == "yes"
    assert checks.check_sweep(p3_sweep) == []


@pytest.mark.parametrize(
    "key, changes",
    [
        ("periodicity", {"verdict": "no"}),
        ("pst", {"verdict": "no"}),
        ("mixing", {"verdict": "yes", "witness_time": 1.0}),
    ],
)
def test_sweep_rejects_flipped_verdict(p3_sweep, key, changes):
    assert checks.check_sweep(_replace_vertex(p3_sweep, 0, key, **changes))


@pytest.mark.parametrize("key", ["periodicity", "pst"])
def test_sweep_rejects_shifted_witness(p3_sweep, key):
    t = p3_sweep["vertices"][0][key].witness_time
    assert checks.check_sweep(_replace_vertex(p3_sweep, 0, key, witness_time=t + 1e-3))


def test_sweep_rejects_flipped_uniform_verdict(p3_sweep):
    rec = dict(p3_sweep, uniform=dataclasses.replace(p3_sweep["uniform"], verdict="yes", witness_time=1.0))
    assert checks.check_sweep(rec)


# -- analyze-mid -------------------------------------------------------------


@pytest.fixture(scope="module")
def q3(tmp_path_factory):
    n, edges = workloads._hypercube(3)
    path = _write(tmp_path_factory.mktemp("q3"), n, edges)
    doc = _cli_json(["analyze", path, "--state", "vertex:0", "--emit", "report,blocks,scan"])
    case = {"n": n, "edges": edges, "oriented": False, "family": "hypercube", "vertex": 0,
            "t_max": 20.0, "label": "Q3"}
    return doc, case


def test_analyze_accepts_true_output(q3):
    doc, case = q3
    assert doc["pst"]["verdict"] == "yes" and doc["uniform_mixing"]["verdict"] == "yes"
    assert checks.check_analyze(doc, case) == []


@pytest.mark.parametrize(
    "key, field, value",
    [
        ("pst", "verdict", "no"),  # hypercubes have PST at pi/2
        ("periodicity", "verdict", "no"),  # PST yes implies periodic
        ("uniform_mixing", "verdict", "no"),  # hypercubes mix at pi/4
        ("local_uniform_mixing", "verdict", "no"),  # global mixing implies local
        ("pst", "witness_time", 1.6),
        ("periodicity", "witness_time", 3.2),
        ("local_uniform_mixing", "witness_time", 0.8),
        ("uniform_mixing", "witness_time", 0.8),
    ],
)
def test_analyze_rejects_corrupted_report(q3, key, field, value):
    doc, case = q3
    bad = copy.deepcopy(doc)
    bad[key][field] = value
    assert checks.check_analyze(bad, case)


def test_analyze_rejects_corrupted_emits(q3):
    doc, case = q3
    bad = copy.deepcopy(doc)
    key = next(iter(bad["blocks"]["norms"]))
    bad["blocks"]["norms"][key] *= 1.01
    assert checks.check_analyze(bad, case)
    bad = copy.deepcopy(doc)
    bad["oracle_return_scan"]["minima"] = []
    assert checks.check_analyze(bad, case)
    bad = copy.deepcopy(doc)
    bad["vertex_bounds"]["consistent"] = False
    assert checks.check_analyze(bad, case)


def test_analyze_family_facts_on_paths_and_cycles(tmp_path):
    for family, n, edges, key in (
        ("path", 4, workloads._path(4), "pst"),
        ("cycle", 5, workloads._cycle(5), "periodicity"),
    ):
        doc = _cli_json(["analyze", _write(tmp_path, n, edges), "--state", "vertex:0"])
        case = {"n": n, "edges": edges, "oriented": False, "family": family, "vertex": 0,
                "t_max": 20.0, "label": family}
        assert checks.check_analyze(doc, case) == []
        bad = copy.deepcopy(doc)
        bad[key]["verdict"] = "yes"
        assert any("must not" in p for p in checks.check_analyze(bad, case))


def test_analyze_accepts_two_vertex_state_on_oriented_graph(tmp_path):
    arcs = [(0, 1), (1, 2), (2, 0)]
    state = tmp_path / "s.json"
    state.write_text(json.dumps({"re": checks.pair_density(3, 0, 1).real.tolist()}))
    doc = _cli_json(["analyze", _write(tmp_path, 3, arcs), "--oriented", "--state", f"@{state}"])
    case = {"n": 3, "arcs": arcs, "oriented": True, "family": "random", "pair": (0, 1),
            "t_max": 20.0, "label": "oriented C3"}
    assert checks.check_analyze(doc, case) == []


def test_verify_check(tmp_path):
    doc = _cli_json(["verify", _write(tmp_path, 3, [(0, 1), (1, 2)])])
    assert checks.check_verify(doc, "P3") == []
    bad = copy.deepcopy(doc)
    bad["checks"][0]["passed"] = False
    assert checks.check_verify(bad, "P3")


# -- spectra-large -----------------------------------------------------------


@pytest.mark.parametrize("oriented", [False, True])
def test_spectra_check(tmp_path, oriented):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)]
    h = checks.skew_hamiltonian(5, edges) if oriented else checks.adjacency(5, edges)
    argv = ["spectra", _write(tmp_path, 5, edges)] + (["--oriented"] if oriented else [])
    doc = _cli_json(argv)
    assert checks.check_spectra(doc, h, "g") == []
    bad = copy.deepcopy(doc)
    bad["theta"][0] += 1e-6
    assert checks.check_spectra(bad, h, "g")
    bad = copy.deepcopy(doc)
    bad["idempotent_checksums"][0]["frobenius"] *= 1.001
    assert checks.check_spectra(bad, h, "g")
    bad = copy.deepcopy(doc)
    bad["mult"][0] += 1
    assert checks.check_spectra(bad, h, "g")


def test_evolve_check(tmp_path):
    edges = workloads._path(4)
    doc = _cli_json(["evolve", _write(tmp_path, 4, edges), "--state", "vertex:1", "-t", "1.3"])
    h = checks.adjacency(4, edges)
    assert checks.check_evolve(doc, h, 1, 1.3, "P4") == []
    bad = copy.deepcopy(doc)
    bad["re"][0][1] += 1e-6
    assert checks.check_evolve(bad, h, 1, 1.3, "P4")
    assert checks.check_evolve(doc, h, 1, 1.3 + 1e-6, "P4")
