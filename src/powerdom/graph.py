"""Simple undirected graphs on vertex IDs 0..n-1, plus the text file format.

The adjacency structure is immutable after construction and is kept both as
frozensets (for readable queries) and as integer bitmasks (for the
propagation engine). All structural queries here are pure.

File format: first non-comment line is "n m", followed by exactly m
non-comment lines "u v" (0 <= u,v < n, u != v). Lines starting with '#'
are comments, blank lines are ignored.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from .errors import DisconnectedGraphError, GraphParseError
from ._kernel import PropagationCore

# Largest vertex count a Graph may have, far above any graph the exact
# search can finish; checked before any per-vertex storage is allocated.
MAX_VERTICES = 1 << 16


def check_vertex_count(n: int) -> None:
    """Raise ValueError if a graph on n vertices would exceed MAX_VERTICES."""
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


class Graph:
    """A simple undirected graph over vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_masks", "_core")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        check_vertex_count(n)
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(frozenset(s) for s in adj)
        self._masks = tuple(sum(1 << v for v in s) for s in self._adj)
        self._core: PropagationCore | None = None

    # -- structure -----------------------------------------------------

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min, max) pairs in lexicographic order."""
        return sorted((u, v) for u in range(self.n) for v in self._adj[u] if u < v)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    @property
    def adjacency_masks(self) -> tuple[int, ...]:
        return self._masks

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def core(self) -> PropagationCore:
        """The (lazily built) propagation engine bound to this graph."""
        if self._core is None:
            self._core = PropagationCore(self._masks, self.n)
        return self._core

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    # -- queries -------------------------------------------------------

    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("max degree of the empty graph is undefined")
        return max(len(s) for s in self._adj)

    def bfs_distances(self, source: int) -> list[int]:
        """Distances from source; -1 for unreachable vertices."""
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def is_connected(self) -> bool:
        if self.n == 0:
            raise ValueError("connectivity of the empty graph is undefined")
        return all(d >= 0 for d in self.bfs_distances(0))

    def diameter(self) -> int:
        """Maximum shortest-path distance, by BFS from every vertex."""
        if self.n == 0:
            raise ValueError("diameter of the empty graph is undefined")
        best = 0
        for v in range(self.n):
            dist = self.bfs_distances(v)
            far = max(dist)
            if min(dist) < 0:
                raise DisconnectedGraphError("diameter is undefined on a disconnected graph")
            best = max(best, far)
        return best

    def is_tree(self) -> bool:
        if self.n == 0:
            raise ValueError("tree test on the empty graph is undefined")
        return self.edge_count == self.n - 1 and self.is_connected()

    def components(self) -> list[list[int]]:
        """Vertex lists of the connected components, each sorted, ordered by minimum vertex."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def subgraph(self, vertices: list[int]) -> "Graph":
        """Induced subgraph; vertices[i] becomes vertex i of the result."""
        index = {v: i for i, v in enumerate(vertices)}
        edges = [
            (index[u], index[w])
            for u in vertices
            for w in self._adj[u]
            if u < w and w in index
        ]
        return Graph(len(vertices), edges)


def _tokens(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def parse_graph(text: str) -> Graph:
    """Parse the graph file format.

    Duplicate edge lines and both orientations of the same edge collapse to
    one edge. Self-loops, out-of-range IDs, and malformed tokens raise
    GraphParseError naming the offending line.
    """
    lines = _tokens(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise GraphParseError("missing header line 'n m'") from None
    if len(header) != 2:
        raise GraphParseError(f"header must be 'n m', got {header!r}", lineno)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphParseError(f"non-integer token in header {header!r}", lineno) from None
    if n < 0 or m < 0:
        raise GraphParseError(f"negative count in header ({n} {m})", lineno)
    if n > MAX_VERTICES:
        raise GraphParseError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}", lineno)

    edges = set()
    count = 0
    for lineno, parts in lines:
        count += 1
        if count > m:
            raise GraphParseError(f"expected {m} edge lines, found more", lineno)
        if len(parts) != 2:
            raise GraphParseError(f"edge line must be 'u v', got {parts!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer token in edge line {parts!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex ID out of range in edge ({u},{v}), n={n}", lineno)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", lineno)
        edges.add((min(u, v), max(u, v)))
    if count < m:
        raise GraphParseError(f"header declared {m} edges but only {count} edge lines found")
    return Graph(n, sorted(edges))


def write_graph(g: Graph) -> str:
    """Canonical text form: header, then edges as sorted (min,max) pairs."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"

