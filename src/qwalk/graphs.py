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


def _check_pairs(n: int, pairs, oriented: bool, locate=None) -> frozenset[tuple[int, int]]:
    """The pair set of a graph on 0..n-1, validated in one pass.

    Rejects a negative n, an endpoint outside 0..n-1, a loop, and a second
    pair on one vertex pair: for a graph (u, v) and (v, u) are one edge, for
    an oriented graph they are both orientations.  A graph keeps its pairs as
    (u, v) with u < v, an oriented graph its arcs as given.  `locate(i)`, when
    given, names where pair i came from ("line 3", "edge #2") in the error.
    """
    noun = "arc" if oriented else "edge"
    if n < 0:
        raise GraphParseError("vertex count must be nonnegative")
    kept = {}  # (min, max) -> the pair as given
    for i, (u, v) in enumerate(pairs):
        u, v = int(u), int(v)
        key = (u, v) if u < v else (v, u)
        if key[0] < 0 or key[1] >= n:
            bound = "< 0" if key[0] < 0 else f">= n={n}"
            problem = f"{noun} ({u},{v}) out of range: vertex index {bound}"
        elif u == v:
            problem = f"loop at vertex {u}"
        elif key not in kept:
            kept[key] = (u, v)
            continue
        elif oriented and kept[key] != (u, v):
            problem = f"second arc between {u} and {v} (both orientations)"
        else:
            problem = f"duplicate {noun} ({u},{v})"
        raise GraphParseError(problem if locate is None else f"{locate(i)}: {problem}")
    return frozenset(kept.values() if oriented else kept)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1; build it with `from_edges`."""

    n: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[int, ...] | None = field(default=None, compare=False)

    @classmethod
    def from_edges(cls, n: int, edges, labels=None, locate=None) -> "Graph":
        return cls(n, _check_pairs(n, edges, False, locate), None if labels is None else tuple(labels))

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            a[u, v] = 1
            a[v, u] = 1
        return a


@dataclass(frozen=True)
class OrientedGraph:
    """Oriented graph: at most one arc per vertex pair, no loops; build it with `from_arcs`."""

    n: int
    arcs: frozenset[tuple[int, int]]
    labels: tuple[int, ...] | None = field(default=None, compare=False)

    @classmethod
    def from_arcs(cls, n: int, arcs, labels=None, locate=None) -> "OrientedGraph":
        return cls(n, _check_pairs(n, arcs, True, locate), None if labels is None else tuple(labels))

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


def _from_pair_lines(text: str, oriented: bool) -> Graph | OrientedGraph:
    """A graph, or an oriented graph, from 'u v' lines with '#' comments.

    A '# n=k' comment fixes the vertex count and the labels are the vertices;
    without one, labels that are not 0..n-1 are remapped to it in sorted
    order and kept on the object.
    """
    n, line_nos, pairs = None, [], []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body, _, comment = raw.partition("#")
        body, comment = body.strip(), comment.strip()
        if comment.startswith("n="):
            try:
                n = int(comment[2:])
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
        line_nos.append(line_no)
        pairs.append((u, v))
    labels = None
    if n is None:
        found = sorted({w for pair in pairs for w in pair})
        n = len(found)
        if found and found[-1] != n - 1:
            labels = tuple(found)
            index = {label: i for i, label in enumerate(found)}
            pairs = [(index[u], index[v]) for u, v in pairs]
    build = OrientedGraph.from_arcs if oriented else Graph.from_edges
    return build(n, pairs, labels, locate=lambda i: f"line {line_nos[i]}")


def _from_json(text: str, oriented: bool) -> Graph | OrientedGraph:
    """A graph from {"n": n, "edges": [[u, v], ...]}, or an oriented graph
    from {"n": n, "arcs": ...}; n and the endpoints are ints, not bools."""
    noun = "arc" if oriented else "edge"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "n" not in doc or not isinstance(doc.get(f"{noun}s"), list):
        raise GraphParseError(f'expected {{"n": int, "{noun}s": [[u,v],...]}}')
    n = doc["n"]
    if type(n) is not int or n < 0:
        raise GraphParseError("n must be a nonnegative integer")
    pairs = doc[f"{noun}s"]
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise GraphParseError(f"{noun} #{i} is not a pair")
        if not all(type(w) is int for w in pair):
            raise GraphParseError(f"{noun} #{i} has non-integer endpoints")
    build = OrientedGraph.from_arcs if oriented else Graph.from_edges
    return build(n, pairs, locate=lambda i: f"{noun} #{i}")


def parse_graph(text, fmt: str = EDGE_LIST) -> Graph:
    """Parse an undirected graph from edge-list, graph6, or JSON text."""
    if fmt == EDGE_LIST:
        return _from_pair_lines(_as_text(text), oriented=False)
    if fmt == GRAPH6:
        return _graph6_decode(_as_text(text).strip())
    if fmt == JSON_FORMAT:
        return _from_json(_as_text(text), oriented=False)
    raise GraphParseError(f"unknown graph format {fmt!r}")


def parse_oriented_graph(text, fmt: str = ARC_LIST) -> OrientedGraph:
    """Parse an oriented graph from arc-list or JSON text (u v means u->v)."""
    if fmt == ARC_LIST:
        return _from_pair_lines(_as_text(text), oriented=True)
    if fmt == JSON_FORMAT:
        return _from_json(_as_text(text), oriented=True)
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


# -- orientation, valency and eccentricity -----------------------------------


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Proper 2-coloring, or None when the graph has an odd cycle.

    Within each connected component the lowest-index vertex lands in part 0.
    """
    color = [-1] * g.n
    adj = _neighbours(g)
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


def _neighbours(x: Graph | OrientedGraph) -> list[list[int]]:
    """Adjacency lists of the underlying undirected graph."""
    adj = [[] for _ in range(x.n)]
    for u, v in x.arcs if isinstance(x, OrientedGraph) else x.edges:
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
