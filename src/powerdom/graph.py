"""Simple undirected graphs on vertex IDs 0..n-1, plus the text file format.

A graph stores its adjacency once, as one integer bitmask row per vertex:
bit w of row v is set iff vw is an edge. This module owns that format.
The propagation engines, the solver, the catalog and the trail checker
read the rows through adjacency_masks and pass vertex sets around as
masks; _bits lists the vertices of a mask, by one table lookup for a
mask below 256 (every mask of a graph on at most 8 vertices) and bit by
bit above, and refuses a negative mask. Degrees are bit counts,
edges() reads the bits above each row's own vertex, and components and
a tree's diameter grow a mask frontier, so no query keeps a per-vertex
set. The rows are immutable after construction and every query here is
pure; the propagation engine, connectivity and the representatives mask
are computed at first use and kept, as one object, one bool and one int,
and so are the open-twin sets, as one tuple of masks. Balls and
neighbour lists are rebuilt by each caller, never kept.

File format: first non-comment line is "n m", followed by exactly m
non-comment lines "u v" (0 <= u,v < n, u != v), every number in ASCII
digits. Lines starting with '#' are comments, blank lines are ignored.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import DisconnectedGraphError, GraphParseError
from ._kernel import PropagationCore

# Largest vertex count a Graph may have, far above any graph the exact
# search can finish; checked before any per-vertex storage is allocated.
MAX_VERTICES = 1 << 16
# Largest edge count a generator may build or a file header may declare;
# K_2048 still fits. Checked before any edge list is built.
MAX_EDGES = 1 << 21


def check_vertex_count(n: int) -> None:
    """Raise ValueError if a graph on n vertices would exceed MAX_VERTICES."""
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def check_edge_count(m: int) -> None:
    """Raise ValueError if a graph with m edges would exceed MAX_EDGES."""
    if m > MAX_EDGES:
        raise ValueError(f"edge count {m} exceeds the limit of {MAX_EDGES}")


# Row b lists the set bits of the byte value b, lowest first.
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def _bits(mask: int) -> list[int]:
    """The set bits of mask, lowest first, as a new list.

    A mask below 256 is one lookup in _BYTE_BITS; a wider one is decoded
    bit by bit. A negative mask, whose set bits in two's complement never
    end, raises ValueError.
    """
    if mask < 256:
        # a negative index would read the table from its end
        if mask < 0:
            raise ValueError(f"a vertex mask must be non-negative, got {mask}")
        return list(_BYTE_BITS[mask])
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


class Graph:
    """A simple undirected graph over vertices 0..n-1."""

    __slots__ = ("n", "_masks", "_core", "_connected", "_reps", "_twins")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        check_vertex_count(n)
        self.n = n
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._masks = tuple(masks)
        self._core: PropagationCore | None = None
        self._connected: bool | None = None
        self._reps: int | None = None
        self._twins: tuple[int, ...] | None = None

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "Graph":
        """The graph whose vertex v has adjacency row rows[v]: bit w set iff vw is an edge."""
        check_vertex_count(n)
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        for v, row in enumerate(rows):
            if row >> n:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for w in _bits(row):
                if not rows[w] >> v & 1:
                    raise ValueError(f"row {v} has {w} but row {w} lacks {v}")
        g = cls(0)
        g.n, g._masks = n, rows
        return g

    # -- structure -----------------------------------------------------

    def neighbors(self, v: int) -> frozenset:
        return frozenset(_bits(self._masks[v]))

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min, max) pairs in lexicographic order."""
        return [
            (u, v) for u, row in enumerate(self._masks) for v in _bits(row >> (u + 1) << (u + 1))
        ]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._masks) // 2

    @property
    def adjacency_masks(self) -> tuple[int, ...]:
        return self._masks

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def closed_neighbourhood(self, mask: int) -> int:
        """N[X] for the vertex set X given as a mask.

        When X holds more than half of V, the walk is over the complement
        instead: N[X] is X plus every y outside X whose row meets X."""
        masks = self._masks
        out = mask
        if 2 * mask.bit_count() > self.n:
            rest = self.full_mask ^ mask
            while rest:
                i = rest.bit_length() - 1
                b = 1 << i
                rest ^= b
                if masks[i] & mask:
                    out |= b
        else:
            while mask:
                i = mask.bit_length() - 1
                mask ^= 1 << i
                out |= masks[i]
        return out

    @property
    def core(self) -> PropagationCore:
        """The (lazily built) propagation engine bound to this graph."""
        if self._core is None:
            self._core = PropagationCore(self._masks, self.n)
        return self._core

    @property
    def representatives(self) -> int:
        """Mask of the vertices x with no neighbour y such that N[x] is
        strictly inside N[y], or N[x] = N[y] and y < x. Only neighbours need
        checking: N[x] inside N[y] puts x in N[y], so y is in N[x]."""
        if self._reps is None:
            adj = self._masks
            closed = [mask | 1 << v for v, mask in enumerate(adj)]
            reps = 0
            for x, cx in enumerate(closed):
                nbrs = adj[x]
                while nbrs:
                    b = nbrs & -nbrs
                    y = b.bit_length() - 1
                    cy = closed[y]
                    if cx & cy == cx and (cy != cx or y < x):
                        break
                    nbrs ^= b
                else:
                    reps |= 1 << x
            self._reps = reps
        return self._reps

    @property
    def open_twin_sets(self) -> tuple[int, ...]:
        """N(u) + u + v for the two least vertices u < v of every class of
        open twins, N(u) = N(v), in the order of their rows. Equal rows are
        found by a stable sort, which leaves each class in vertex order.
        Hashing the rows would not do: an int hashes modulo 2^61 - 1, so 2^v
        repeats every 61 vertices and the rows of a long path share a few
        dozen hashes."""
        if self._twins is None:
            rows = self._masks
            sets = []
            last = None
            order = sorted(range(self.n), key=rows.__getitem__)
            for u, v in zip(order, order[1:]):
                if rows[u] == rows[v] != last:
                    last = rows[u]
                    sets.append(last | 1 << u | 1 << v)
            self._twins = tuple(sets)
        return self._twins

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    # -- queries -------------------------------------------------------

    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("max degree of the empty graph is undefined")
        return max(row.bit_count() for row in self._masks)

    def _sweep(self, v: int) -> tuple[int, int, int]:
        """(mask of v's component, the farthest frontier, its distance from v),
        grown by one frontier of new vertices at a time."""
        masks = self._masks
        comp = frontier = 1 << v
        depth = 0
        while True:
            reach = 0
            for u in _bits(frontier):
                reach |= masks[u]
            reach &= ~comp
            if not reach:
                return comp, frontier, depth
            comp |= reach
            frontier = reach
            depth += 1

    def is_connected(self) -> bool:
        if self._connected is None:
            if self.n == 0:
                raise ValueError("connectivity of the empty graph is undefined")
            self._connected = self._sweep(0)[0] == self.full_mask
        return self._connected

    def diameter(self) -> int:
        """Maximum shortest-path distance. On a tree, two sweeps: a vertex
        farthest from vertex 0 ends a longest path (else the tree path from
        it to a longest path's far end would be longer), so its
        eccentricity is the diameter. On other graphs, the least radius at
        which every ball is all of V."""
        n = self.n
        if n == 0:
            raise ValueError("diameter of the empty graph is undefined")
        full = self.full_mask
        if self.edge_count == n - 1:
            # connected with n - 1 edges is a tree
            comp, far, _ = self._sweep(0)
            if comp == full:
                return self._sweep(far.bit_length() - 1)[2]
        else:
            for radius, balls in enumerate(self._grow_balls()):
                if balls.count(full) == n:
                    return radius
        raise DisconnectedGraphError("diameter is undefined on a disconnected graph")

    def _grow_balls(self) -> Iterator[list[int]]:
        """Masks of the radius-r balls around every vertex, for r = 0, 1, ...
        until they stop growing. Radius 1 is the closed rows; from radius 2
        each ball is the union of the previous balls of its closed
        neighbourhood, and a ball that is all of V is kept as it is.
        diameter grows them only on graphs that are not trees, which take
        two sweeps instead."""
        masks = self._masks
        balls = [1 << v for v in range(self.n)]
        yield balls
        grown = [row | ball for row, ball in zip(masks, balls)]
        if grown == balls:
            return
        balls = grown
        yield balls
        full = self.full_mask
        neighbors = [_bits(row) for row in masks]
        while True:
            grown = []
            for v, ball in enumerate(balls):
                if ball != full:
                    for w in neighbors[v]:
                        ball |= balls[w]
                grown.append(ball)
            if grown == balls:
                return
            balls = grown
            yield balls

    def is_tree(self) -> bool:
        if self.n == 0:
            raise ValueError("tree test on the empty graph is undefined")
        return self.edge_count == self.n - 1 and self.is_connected()

    def components(self) -> list[list[int]]:
        """Vertex lists of the connected components, each sorted, ordered by minimum vertex."""
        comps = []
        rest = self.full_mask
        while rest:
            comp = self._sweep((rest & -rest).bit_length() - 1)[0]
            comps.append(_bits(comp))
            rest &= ~comp
        return comps

    def subgraph(self, vertices: list[int]) -> "Graph":
        """Induced subgraph; vertices[i] becomes vertex i of the result.
        ValueError on a vertex out of range or listed twice."""
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) < len(vertices) or not all(0 <= v < self.n for v in index):
            raise ValueError(f"subgraph needs distinct vertices in 0..{self.n - 1}")
        edges = [
            (index[u], index[w])
            for u in vertices
            for w in _bits(self._masks[u])
            if u < w and w in index
        ]
        return Graph(len(vertices), edges)


def _int(token: str) -> int:
    """int() of an optional sign then ASCII digits: no "1_0", no non-ASCII digit."""
    if token.isascii() and token.lstrip("+-").isdigit():
        return int(token)
    raise ValueError(f"not an integer: {token!r}")


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
        n, m = _int(header[0]), _int(header[1])
    except ValueError:
        raise GraphParseError(f"non-integer token in header {header!r}", lineno) from None
    if n < 0 or m < 0:
        raise GraphParseError(f"negative count in header ({n} {m})", lineno)
    try:
        check_vertex_count(n)
        check_edge_count(m)
    except ValueError as exc:
        raise GraphParseError(str(exc), lineno) from None

    edges = set()
    count = 0
    for lineno, parts in lines:
        count += 1
        if count > m:
            raise GraphParseError(f"expected {m} edge lines, found more", lineno)
        if len(parts) != 2:
            raise GraphParseError(f"edge line must be 'u v', got {parts!r}", lineno)
        try:
            u, v = _int(parts[0]), _int(parts[1])
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

