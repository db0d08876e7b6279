"""Correctness checks for benchmark outputs, computed apart from qwalk.

Every checker takes what an op produced plus the benchmark's own copy of the
input, and returns a list of problems (empty when the output is right).  The
reference computations use only numpy and scipy.linalg.expm on matrices the
benchmark builds itself from its edge lists, never qwalk's spectral path.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

# Witness times are re-checked on the expm path, whose round-off differs from
# the spectral path the detectors use, so the bounds sit one to two orders
# above the program's own acceptance tolerances (1e-8 return, 1e-9 flatness).
RETURN_TOL = 1e-7
FLAT_TOL = 1e-8
# The oracle classification in the acceptance suite uses the same constants.
ORACLE_FLAT_TOL = 1e-9
ORACLE_STATIONARY = 1e-7
ORACLE_TIME_TOL = 1e-6
EVOLVE_TOL = 1e-9
SPECTRUM_TOL = 1e-8


# -- reference matrices ------------------------------------------------------


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def skew_hamiltonian(n: int, arcs) -> np.ndarray:
    """-iS for the skew adjacency S (+1 on u->v), the walk's Hermitian matrix."""
    s = np.zeros((n, n))
    for u, v in arcs:
        s[u, v] = 1.0
        s[v, u] = -1.0
    return -1j * s


def vertex_density(n: int, a: int) -> np.ndarray:
    p = np.zeros((n, n), dtype=complex)
    p[a, a] = 1.0
    return p


def pair_density(n: int, a: int, b: int) -> np.ndarray:
    """The pure state (e_a + e_b)(e_a + e_b)^T / 2."""
    z = np.zeros(n)
    z[a] = z[b] = 1.0 / math.sqrt(2.0)
    return np.outer(z, z).astype(complex)


def distances(n: int, edges, source: int) -> list[int]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def expm(m: np.ndarray) -> np.ndarray:
    # Imported on first use: the runner generates inputs with this module
    # before the set-up clock starts, and set-up includes importing scipy.
    from scipy.linalg import expm as pade_expm

    return pade_expm(m)


def evolved(h: np.ndarray, p: np.ndarray, t: float) -> np.ndarray:
    u = expm(1j * t * h)
    return u @ p @ u.conj().T


def _flat_defect(probs: np.ndarray) -> float:
    return float(np.abs(probs - 1.0 / probs.shape[0]).max())


# -- witness re-checks -------------------------------------------------------


def check_return(h, p, t, label: str) -> list[str]:
    if t is None or not math.isfinite(t) or t < 0:
        return [f"{label}: periodicity yes without a usable witness time ({t!r})"]
    gap = float(np.linalg.norm(evolved(h, p, t) - p))
    if gap > RETURN_TOL:
        return [f"{label}: state does not return at t={t!r} (expm distance {gap:.3g})"]
    return []


def check_transfer(h, p, t, label: str, target=None) -> list[str]:
    """A perfect-transfer witness: the evolved state is real and not p itself."""
    if t is None or not math.isfinite(t) or t <= 0:
        return [f"{label}: pst yes without a usable witness time ({t!r})"]
    q = evolved(h, p, t)
    problems = []
    if float(np.abs(q.imag).max()) > RETURN_TOL:
        problems.append(f"{label}: state at t={t!r} is not real")
    if float(np.linalg.norm(q - p)) <= RETURN_TOL:
        problems.append(f"{label}: state at t={t!r} is the initial state, not a transfer")
    if target is not None and float(np.linalg.norm(q - target)) > RETURN_TOL:
        problems.append(f"{label}: reported transfer target differs from expm evolution")
    return problems


def check_flat_column(h, a: int, t, label: str) -> list[str]:
    if t is None or not math.isfinite(t):
        return [f"{label}: local mixing yes without a witness time"]
    col = expm(1j * t * h)[:, a]
    defect = _flat_defect(np.abs(col) ** 2)
    if defect > FLAT_TOL:
        return [f"{label}: column {a} is not flat at t={t!r} (defect {defect:.3g})"]
    return []


def check_flat_all(h, t, label: str) -> list[str]:
    if t is None or not math.isfinite(t):
        return [f"{label}: uniform mixing yes without a witness time"]
    probs = np.abs(expm(1j * t * h)) ** 2
    defect = float(np.abs(probs - 1.0 / h.shape[0]).max())
    if defect > FLAT_TOL:
        return [f"{label}: U(t) is not flat at t={t!r} (defect {defect:.3g})"]
    return []


# -- atlas-sweep ---------------------------------------------------------------


def _oracle_pst(h, p, ret):
    """PST holds iff the oracle sees a return and the half-period state is a
    distinct real state; the half-period state is computed here with expm."""
    if not ret.minima:
        return False, None
    half = evolved(h, p, ret.minima[0][0] / 2.0)
    if np.abs(half.imag).max() > 1e-8 or np.linalg.norm(half - p) <= 1e-6:
        return False, None
    return True, half


def check_sweep(rec: dict) -> list[str]:
    """Detector verdicts against the oracle scans of the same op, and every
    yes witness against expm, as the acceptance suite's criterion 10 does."""
    n, edges = rec["n"], rec["edges"]
    h = adjacency(n, edges)
    name = f"atlas graph n={n} edges={sorted(edges)}"
    problems = []
    for v in rec["vertices"]:
        a = v["vertex"]
        label = f"{name} vertex {a}"
        p = vertex_density(n, a)
        per, ret, pst = v["periodicity"], v["oracle_return"], v["pst"]
        oracle_periodic = ret.ceiling <= ORACLE_STATIONARY or bool(ret.minima)
        if per.verdict not in ("yes", "no"):
            problems.append(f"{label}: periodicity verdict {per.verdict!r}")
        elif (per.verdict == "yes") != oracle_periodic:
            problems.append(f"{label}: periodicity {per.verdict} but oracle periodic={oracle_periodic}")
        if per.verdict == "yes":
            problems += check_return(h, p, per.witness_time, label)
            if per.certificate is not None and ret.minima:
                sigma = per.witness_time
                if abs(ret.minima[0][0] - sigma) > ORACLE_TIME_TOL * sigma:
                    problems.append(f"{label}: period {sigma!r} but oracle return at {ret.minima[0][0]!r}")
        oracle_pst, oracle_target = _oracle_pst(h, p, ret)
        if (pst.verdict == "yes") != oracle_pst:
            problems.append(f"{label}: pst {pst.verdict} but oracle pst={oracle_pst}")
        if pst.verdict == "yes":
            target = None if pst.target is None else np.asarray(pst.target.matrix)
            if target is None:
                problems.append(f"{label}: pst yes without a target")
            problems += check_transfer(h, p, pst.witness_time, label, target)
            if oracle_pst and target is not None and np.linalg.norm(oracle_target - target) > 1e-6:
                problems.append(f"{label}: pst target differs from the oracle's")
        mix, flat = v["mixing"], v["oracle_flat"]
        if (mix.verdict == "yes") != (flat.floor <= ORACLE_FLAT_TOL):
            problems.append(f"{label}: local mixing {mix.verdict} but oracle floor {flat.floor:.3g}")
        if mix.verdict == "yes":
            problems += check_flat_column(h, a, mix.witness_time, label)
            if flat.ceiling > ORACLE_FLAT_TOL and not any(
                abs(t - mix.witness_time) <= 1e-5 for t, _ in flat.minima
            ):
                problems.append(f"{label}: mixing time {mix.witness_time!r} not among oracle minima")
    uni, oracle_uni = rec["uniform"], rec["oracle_uniform"]
    if (uni.verdict == "yes") != (oracle_uni.floor <= ORACLE_FLAT_TOL):
        problems.append(f"{name}: uniform mixing {uni.verdict} but oracle floor {oracle_uni.floor:.3g}")
    if uni.verdict == "yes":
        problems += check_flat_all(h, uni.witness_time, name)
    return problems


# -- analyze-mid -------------------------------------------------------------


def check_analyze(doc: dict, case: dict) -> list[str]:
    """One `qwalk analyze` report against expm, the family facts and the
    implications between verdicts.

    `case` holds the benchmark's own description of the input: n, edges or
    arcs, oriented, family, the state (vertex a, or the pair a, b) and the
    horizon t_max.
    """
    n = case["n"]
    h = skew_hamiltonian(n, case["arcs"]) if case["oriented"] else adjacency(n, case["edges"])
    pair = case.get("pair")
    a = case.get("vertex")
    p = pair_density(n, *pair) if pair else vertex_density(n, a)
    label = case["label"]
    problems = []
    if doc.get("n") != n:
        return [f"{label}: report has n={doc.get('n')!r}"]

    per, pst, uni = doc["periodicity"], doc["pst"], doc["uniform_mixing"]
    local = doc.get("local_uniform_mixing")
    for key, rep in (("periodicity", per), ("pst", pst), ("uniform_mixing", uni)):
        if rep["verdict"] not in ("yes", "no", "inconclusive"):
            problems.append(f"{label}: {key} verdict {rep['verdict']!r}")
    if per["verdict"] == "yes":
        problems += check_return(h, p, per["witness_time"], label)
    if pst["verdict"] == "yes":
        problems += check_transfer(h, p, pst["witness_time"], label)
        if per["verdict"] != "yes":
            problems.append(f"{label}: pst yes but periodicity {per['verdict']}")
    if local is not None and local["verdict"] == "yes":
        problems += check_flat_column(h, a, local["witness_time"], label)
    if uni["verdict"] == "yes":
        problems += check_flat_all(h, uni["witness_time"], label)
        if local is not None and local["verdict"] != "yes":
            problems.append(f"{label}: uniform mixing yes but local mixing {local['verdict']}")
    if local is None and a is not None:
        problems.append(f"{label}: vertex state without a local mixing report")
    bounds = doc.get("vertex_bounds")
    if bounds is not None and not bounds["consistent"]:
        problems.append(f"{label}: vertex_bounds inconsistent {bounds}")
    if (doc.get("pgst_candidates") or {}).get("count") == 0:
        problems.append(f"{label}: no pgst candidates, but the state itself is always one")

    problems += _family_facts(doc, case, label)
    if "blocks" in doc:
        problems += _check_blocks(doc["blocks"], p, label)
    if "oracle_return_scan" in doc:
        problems += _check_scan(doc["oracle_return_scan"], per, case["t_max"], label)
    return problems


def _family_facts(doc: dict, case: dict, label: str) -> list[str]:
    family, a = case["family"], case.get("vertex")
    if a is None or case["oriented"]:
        return []
    per, pst = doc["periodicity"], doc["pst"]
    problems = []
    if family == "path" and case["n"] > 3 and pst["verdict"] != "no":
        problems.append(f"{label}: path on {case['n']} vertices must not have PST (got {pst['verdict']})")
    if family == "cycle" and case["n"] not in (3, 4, 6) and per["verdict"] != "no":
        problems.append(f"{label}: C{case['n']} vertex must not be periodic (got {per['verdict']})")
    if family == "hypercube":
        for key, report, t in (
            ("pst", pst, math.pi / 2),
            ("local_uniform_mixing", doc["local_uniform_mixing"], math.pi / 4),
            ("uniform_mixing", doc["uniform_mixing"], math.pi / 4),
        ):
            w = report["witness_time"]
            if report["verdict"] != "yes" or w is None or abs(w - t) > 1e-6:
                problems.append(f"{label}: hypercube {key} must be yes at {t:.9g} (got {report['verdict']} at {w!r})")
        if pst["verdict"] == "yes":
            dist = distances(case["n"], case["edges"], a)
            antipode = dist.index(max(dist))
            q = evolved(adjacency(case["n"], case["edges"]), vertex_density(case["n"], a), pst["witness_time"])
            if abs(q[antipode, antipode] - 1.0) > RETURN_TOL:
                problems.append(f"{label}: hypercube transfer does not reach the antipode {antipode}")
    return problems


def _check_blocks(blocks: dict, p: np.ndarray, label: str) -> list[str]:
    """Blocks E_r P E_s are Frobenius-orthogonal, so their squared norms sum
    to ||P||^2; the support is closed under (r, s) -> (s, r)."""
    support = {tuple(x) for x in blocks["support"]}
    problems = []
    if any((s, r) not in support for r, s in support):
        problems.append(f"{label}: block support is not symmetric")
    total = sum(v * v for v in blocks["norms"].values())
    expected = float(np.linalg.norm(p)) ** 2
    if abs(total - expected) > 1e-8:
        problems.append(f"{label}: block norms square-sum {total:.12g}, expected {expected:.12g}")
    return problems


def _check_scan(scan: dict, per: dict, t_max: float, label: str) -> list[str]:
    """The oracle return scan agrees with the periodicity verdict."""
    minima = scan["minima"]
    stationary = scan["ceiling"] <= ORACLE_STATIONARY
    if per["verdict"] == "no" and minima:
        return [f"{label}: periodicity no, but the oracle returns at t={minima[0][0]!r}"]
    if per["verdict"] == "yes" and not stationary:
        sigma = per["witness_time"]
        if sigma < t_max - 1e-3 and not any(abs(t - sigma) <= ORACLE_TIME_TOL * sigma for t, _ in minima):
            return [f"{label}: period {sigma!r} not among oracle return minima"]
    return []


def check_verify(doc: dict, label: str) -> list[str]:
    hard = [c for c in doc.get("checks", []) if not c["informational"]]
    failed = [c["invariant"] for c in hard if not c["passed"]]
    if doc.get("passed") is not True or failed or not hard:
        return [f"{label}: verify did not pass (failed: {failed})"]
    return []


# -- spectra-large -----------------------------------------------------------


def check_spectra(doc: dict, h: np.ndarray, label: str) -> list[str]:
    n = h.shape[0]
    theta = np.asarray(doc["theta"], dtype=float)
    mult = list(doc["mult"])
    problems = []
    if len(mult) != len(theta) or sum(mult) != n:
        return [f"{label}: multiplicities {sum(mult)} do not sum to n={n}"]
    if np.any(np.diff(theta) >= 0):
        problems.append(f"{label}: theta is not strictly decreasing")
    expanded = np.sort(np.repeat(theta, mult))
    reference = np.linalg.eigvalsh(h)
    scale = max(1.0, float(np.abs(reference).max()))
    gap = float(np.abs(expanded - reference).max())
    if gap > SPECTRUM_TOL * scale:
        problems.append(f"{label}: theta differs from eigvalsh by {gap:.3g}")
    checks = doc["idempotent_checksums"]
    if len(checks) != len(mult):
        return problems + [f"{label}: {len(checks)} idempotent checksums for {len(mult)} eigenvalues"]
    for r, (c, k) in enumerate(zip(checks, mult)):
        if abs(c["trace"] - k) > SPECTRUM_TOL * n:
            problems.append(f"{label}: idempotent {r} has trace {c['trace']!r}, multiplicity {k}")
        if abs(c["frobenius"] ** 2 - k) > SPECTRUM_TOL * n:
            problems.append(f"{label}: idempotent {r} has Frobenius norm^2 {c['frobenius'] ** 2!r}, rank {k}")
    return problems


def check_evolve(doc: dict, h: np.ndarray, a: int, t: float, label: str) -> list[str]:
    n = h.shape[0]
    got = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    if got.shape != (n, n):
        return [f"{label}: evolved matrix has shape {got.shape}"]
    problems = []
    gap = float(np.abs(got - evolved(h, vertex_density(n, a), t)).max())
    if gap > EVOLVE_TOL:
        problems.append(f"{label}: evolve differs from expm by {gap:.3g}")
    if abs(complex(np.trace(got)) - 1.0) > EVOLVE_TOL:
        problems.append(f"{label}: evolved trace {complex(np.trace(got))!r}")
    if float(np.abs(got - got.conj().T).max()) > EVOLVE_TOL:
        problems.append(f"{label}: evolved matrix is not Hermitian")
    # Entries within EVOLVE_TOL of the true state move an eigenvalue by at
    # most n * EVOLVE_TOL (the spectral norm is at most n times the largest
    # entry), so that is the PSD bound the entrywise check allows.
    elif float(np.linalg.eigvalsh(got).min()) < -n * EVOLVE_TOL:
        problems.append(f"{label}: evolved matrix is not positive semidefinite")
    return problems
