"""Graphs and oriented graphs with integer (skew-)adjacency matrices.

Vertices are dense integers 0..n-1.  Input labels outside that range are
remapped on parse and the original labels are kept on the object.
Supported text formats: edge-list / arc-list ("u v" per line, '#' comments),
graph6 (undirected only, n <= 62), and JSON.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

EDGE_LIST = "edge-list"
ARC_LIST = "arc-list"
GRAPH6 = "graph6"
JSON_FORMAT = "json"

GRAPH_FORMATS = (EDGE_LIST, GRAPH6, JSON_FORMAT)
ORIENTED_FORMATS = (ARC_LIST, JSON_FORMAT)

_GRAPH6_MAX_N = 62


class GraphParseError(ValueError):
    """Malformed graph input; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) not canonical or out of range")

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "Graph":
        canonical = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            pair = (u, v) if u < v else (v, u)
            if pair in canonical:
                raise ValueError(f"duplicate edge ({u},{v})")
            canonical.add(pair)
        return cls(n, frozenset(canonical), None if labels is None else tuple(labels))

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            a[u, v] = 1
            a[v, u] = 1
        return a


@dataclass(frozen=True)
class OrientedGraph:
    """Oriented graph: at most one arc per vertex pair, no loops."""

    n: int
    arcs: frozenset[tuple[int, int]]
    labels: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        seen = set()
        for u, v in self.arcs:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u},{v}) out of range")
            pair = frozenset((u, v))
            if pair in seen:
                raise ValueError(f"both orientations present between {u} and {v}")
            seen.add(pair)

    @classmethod
    def from_arcs(cls, n: int, arcs, labels=None) -> "OrientedGraph":
        collected = []
        for u, v in arcs:
            collected.append((int(u), int(v)))
        if len(set(collected)) != len(collected):
            raise ValueError("duplicate arc")
        return cls(n, frozenset(collected), None if labels is None else tuple(labels))

    def underlying(self) -> Graph:
        return Graph.from_edges(self.n, self.arcs)


def skew_adjacency(x: OrientedGraph) -> np.ndarray:
    """Integer skew-symmetric matrix: +1 on arcs u->v, -1 on the reverse."""
    s = np.zeros((x.n, x.n), dtype=np.int64)
    for u, v in x.arcs:
        s[u, v] = 1
        s[v, u] = -1
    return s


# -- parsing / serialization -------------------------------------------------


def _as_text(data) -> str:
    if isinstance(data, (bytes, bytearray)):
        try:
            return data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise GraphParseError(f"input is not ASCII: {exc}") from None
    return str(data)


def _parse_pair_lines(text: str):
    """Yield (line_no, u, v) for every non-comment line plus an optional n hint."""
    n_hint = None
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)
        comment = line[1] if len(line) > 1 else ""
        body = line[0].strip()
        if comment.strip().startswith("n="):
            try:
                n_hint = int(comment.strip()[2:])
            except ValueError:
                raise GraphParseError("malformed n= hint", line=line_no) from None
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {body!r}", line=line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer vertex in {body!r}", line=line_no) from None
        if u < 0 or v < 0:
            raise GraphParseError("negative vertex label", line=line_no)
        pairs.append((line_no, u, v))
    return n_hint, pairs


def _dense_relabel(n_hint, pairs):
    """Map arbitrary labels to 0..n-1; returns (n, label tuple or None, mapping)."""
    labels = sorted({u for _, u, v in pairs} | {v for _, u, v in pairs})
    max_label = labels[-1] if labels else -1
    if n_hint is not None:
        if max_label >= n_hint:
            bad = next(ln for ln, u, v in pairs if max(u, v) >= n_hint)
            raise GraphParseError(f"vertex index >= n={n_hint}", line=bad)
        return n_hint, None, {i: i for i in range(n_hint)}
    if labels == list(range(len(labels))):
        return len(labels), None, {i: i for i in range(len(labels))}
    mapping = {lab: i for i, lab in enumerate(labels)}
    return len(labels), tuple(labels), mapping


def parse_graph(text, fmt: str = EDGE_LIST) -> Graph:
    """Parse an undirected graph from edge-list, graph6, or JSON text."""
    if fmt == EDGE_LIST:
        n_hint, pairs = _parse_pair_lines(_as_text(text))
        n, labels, mapping = _dense_relabel(n_hint, pairs)
        seen = set()
        edges = []
        for line_no, u, v in pairs:
            u, v = mapping[u], mapping[v]
            if u == v:
                raise GraphParseError(f"loop at vertex {u}", line=line_no)
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise GraphParseError(f"duplicate edge {pair}", line=line_no)
            seen.add(pair)
            edges.append(pair)
        return Graph.from_edges(n, edges, labels=labels)
    if fmt == GRAPH6:
        return _graph6_decode(_as_text(text).strip())
    if fmt == JSON_FORMAT:
        return _graph_from_json(_as_text(text))
    raise GraphParseError(f"unknown graph format {fmt!r}")


def parse_oriented_graph(text, fmt: str = ARC_LIST) -> OrientedGraph:
    """Parse an oriented graph from arc-list or JSON text (u v means u->v)."""
    if fmt == ARC_LIST:
        n_hint, pairs = _parse_pair_lines(_as_text(text))
        n, labels, mapping = _dense_relabel(n_hint, pairs)
        arcs = []
        seen_pairs = set()
        for line_no, u, v in pairs:
            u, v = mapping[u], mapping[v]
            if u == v:
                raise GraphParseError(f"loop at vertex {u}", line=line_no)
            key = frozenset((u, v))
            if key in seen_pairs:
                raise GraphParseError(f"second arc between {u} and {v}", line=line_no)
            seen_pairs.add(key)
            arcs.append((u, v))
        return OrientedGraph.from_arcs(n, arcs, labels=labels)
    if fmt == JSON_FORMAT:
        return _oriented_from_json(_as_text(text))
    raise GraphParseError(f"unknown oriented-graph format {fmt!r}")


def serialize_graph(g: Graph, fmt: str = EDGE_LIST) -> str:
    if fmt == EDGE_LIST:
        lines = [f"# n={g.n}"]
        lines += [f"{u} {v}" for u, v in sorted(g.edges)]
        return "\n".join(lines) + "\n"
    if fmt == GRAPH6:
        return _graph6_encode(g)
    if fmt == JSON_FORMAT:
        return json.dumps({"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}, sort_keys=True)
    raise GraphParseError(f"unknown graph format {fmt!r}")


def serialize_oriented_graph(x: OrientedGraph, fmt: str = ARC_LIST) -> str:
    if fmt == ARC_LIST:
        lines = [f"# n={x.n}"]
        lines += [f"{u} {v}" for u, v in sorted(x.arcs)]
        return "\n".join(lines) + "\n"
    if fmt == JSON_FORMAT:
        return json.dumps({"n": x.n, "arcs": [list(a) for a in sorted(x.arcs)]}, sort_keys=True)
    raise GraphParseError(f"unknown oriented-graph format {fmt!r}")


def _graph_from_json(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise GraphParseError('expected {"n": int, "edges": [[u,v],...]}')
    n = doc["n"]
    if not isinstance(n, int) or n < 0:
        raise GraphParseError("n must be a nonnegative integer")
    edges = []
    for i, e in enumerate(doc["edges"]):
        if not (isinstance(e, list) and len(e) == 2):
            raise GraphParseError(f"edge #{i} is not a pair")
        u, v = e
        if not (isinstance(u, int) and isinstance(v, int)):
            raise GraphParseError(f"edge #{i} has non-integer endpoints")
        if u >= n or v >= n or u < 0 or v < 0:
            raise GraphParseError(f"edge #{i}: vertex index out of range 0..{n - 1}")
        edges.append((u, v))
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise GraphParseError(str(exc)) from None


def _oriented_from_json(text: str) -> OrientedGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "n" not in doc or "arcs" not in doc:
        raise GraphParseError('expected {"n": int, "arcs": [[u,v],...]}')
    n = doc["n"]
    if not isinstance(n, int) or n < 0:
        raise GraphParseError("n must be a nonnegative integer")
    arcs = []
    for i, a in enumerate(doc["arcs"]):
        if not (isinstance(a, list) and len(a) == 2):
            raise GraphParseError(f"arc #{i} is not a pair")
        u, v = a
        if not (isinstance(u, int) and isinstance(v, int)):
            raise GraphParseError(f"arc #{i} has non-integer endpoints")
        if u >= n or v >= n or u < 0 or v < 0:
            raise GraphParseError(f"arc #{i}: vertex index out of range 0..{n - 1}")
        arcs.append((u, v))
    try:
        return OrientedGraph.from_arcs(n, arcs)
    except ValueError as exc:
        raise GraphParseError(str(exc)) from None


# -- graph6 codec (printable-ASCII encoding, single-byte length, n <= 62) ----


def _graph6_encode(g: Graph) -> str:
    if g.n > _GRAPH6_MAX_N:
        raise GraphParseError(f"graph6 output limited to n <= {_GRAPH6_MAX_N}")
    bits = []
    a = g.adjacency()
    for v in range(1, g.n):
        bits.extend(int(a[u, v]) for u in range(v))
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i : i + 6]:
            word = (word << 1) | b
        chars.append(chr(word + 63))
    return "".join(chars)


def _graph6_decode(text: str) -> Graph:
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<") :]
    if not text:
        raise GraphParseError("empty graph6 string")
    first = ord(text[0])
    if first == 126:
        raise GraphParseError(f"graph6 input limited to n <= {_GRAPH6_MAX_N}")
    n = first - 63
    if not (0 <= n <= _GRAPH6_MAX_N):
        raise GraphParseError(f"invalid graph6 length byte {text[0]!r}")
    need = (n * (n - 1) // 2 + 5) // 6
    body = text[1:]
    if len(body) != need:
        raise GraphParseError(f"graph6 body has {len(body)} bytes, expected {need}")
    bits = []
    for ch in body:
        word = ord(ch) - 63
        if not (0 <= word < 64):
            raise GraphParseError(f"invalid graph6 byte {ch!r}")
        bits.extend((word >> k) & 1 for k in range(5, -1, -1))
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return Graph.from_edges(n, edges)


# -- orientation and combinatorial statistics --------------------------------


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Proper 2-coloring, or None when the graph has an odd cycle.

    Within each connected component the lowest-index vertex lands in part 0.
    """
    color = [-1] * g.n
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    part0 = tuple(v for v in range(g.n) if color[v] == 0)
    part1 = tuple(v for v in range(g.n) if color[v] == 1)
    return part0, part1


def natural_orientation(g: Graph, parts: tuple[tuple[int, ...], tuple[int, ...]]) -> OrientedGraph:
    """Orient every edge from the second part to the first.

    With vertices ordered part0 then part1 the skew adjacency takes the block
    form [[0, -B], [B^T, 0]] where B is the bipartite adjacency block.
    """
    part0, part1 = set(parts[0]), set(parts[1])
    if part0 & part1 or (part0 | part1) != set(range(g.n)):
        raise ValueError("parts do not partition the vertex set")
    arcs = []
    for u, v in g.edges:
        if u in part0 and v in part1:
            arcs.append((v, u))
        elif u in part1 and v in part0:
            arcs.append((u, v))
        else:
            raise ValueError(f"edge ({u},{v}) does not cross the bipartition")
    return OrientedGraph.from_arcs(g.n, arcs)


@dataclass(frozen=True)
class GraphStats:
    max_valency: int
    connected: bool
    eccentricity: tuple[int, ...] | None  # None when disconnected


def _neighbours(x: Graph | OrientedGraph) -> list[list[int]]:
    """Adjacency lists of the underlying undirected graph."""
    g = x.underlying() if isinstance(x, OrientedGraph) else x
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _eccentricity(adj: list[list[int]], start: int) -> int | None:
    """Greatest breadth-first distance from start, or None if some vertex is unreached."""
    dist = [-1] * len(adj)
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                queue.append(v)
    return max(dist) if min(dist) >= 0 else None


def graph_stats(x: Graph | OrientedGraph) -> GraphStats:
    """Maximum (total) valency, connectivity, and per-vertex eccentricity.

    Oriented graphs are measured on their underlying undirected graph;
    eccentricities are undefined (None) for disconnected inputs.
    """
    adj = _neighbours(x)
    valency = max(map(len, adj), default=0)
    ecc = []
    for start in range(len(adj)):
        e = _eccentricity(adj, start)
        if e is None:
            return GraphStats(valency, False, None)
        ecc.append(e)
    return GraphStats(valency, True, tuple(ecc))


def max_valency(x: Graph | OrientedGraph) -> int:
    """Maximum (total) valency of the underlying undirected graph."""
    return max(map(len, _neighbours(x)), default=0)


def eccentricity(x: Graph | OrientedGraph, a: int) -> int | None:
    """ecc(a) on the underlying undirected graph, from one breadth-first
    search from a; None when the graph is disconnected."""
    adj = _neighbours(x)
    if not 0 <= a < len(adj):
        raise ValueError("vertex index out of range")
    return _eccentricity(adj, a)


# -- small named graphs used throughout tests and demos ----------------------


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Star with the center at vertex 0 and the given number of leaves."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shifted = [(u + g1.n, v + g1.n) for u, v in g2.edges]
    return Graph.from_edges(g1.n + g2.n, list(g1.edges) + shifted)
