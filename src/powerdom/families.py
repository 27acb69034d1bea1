"""Deterministic graph generators: the counterexample family and test families.

The three-level family H_Delta (Delta >= 3) is the refutation witness:
n = Delta^2 + 1, diameter 4, maximum degree Delta, gamma_P = 2, yet the
diameter-based expression (Delta^2+1)/(4*Delta+1) grows like Delta/4.

Construction, using the original 1-indexed numbering (internal IDs are
that numbering minus one):

  1. vertex 1 alone on level 1;
  2. vertices 2..Delta+1 on level 2, all adjacent to vertex 1;
  3. each level-2 vertex gets Delta-1 level-3 neighbors, numbered
     Delta+2..Delta^2+1 in consecutive blocks (block t belongs to level-2
     vertex 2+t);
  4. a path along level 3: vertex i adjacent to i+1 for
     Delta+2 <= i <= Delta^2.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from heapq import heappop, heappush

from .graph import Graph, check_edge_count, check_vertex_count


def gen_h_delta(delta: int) -> tuple[Graph, tuple]:
    """Build H_Delta with its levels: levels[v] is the level (1, 2 or 3) of
    internal vertex v, the 1-indexed numbering minus one."""
    if delta < 3:
        raise ValueError(f"H_Delta requires delta >= 3, got {delta}")
    n = delta * delta + 1
    check_vertex_count(n)
    edges = []
    # level 1 to level 2
    edges.extend((0, j) for j in range(1, delta + 1))
    # level 2 to its block of level-3 children
    for j in range(1, delta + 1):
        first = delta + 1 + (j - 1) * (delta - 1)
        edges.extend((j, c) for c in range(first, first + delta - 1))
    # path along level 3
    edges.extend((k, k + 1) for k in range(delta + 1, n - 1))
    levels = (1,) + (2,) * delta + (3,) * (delta * (delta - 1))
    return Graph(n, edges), levels


def gen_path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    check_vertex_count(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_star(k: int) -> Graph:
    """K_{1,k} with center 0."""
    if k < 1:
        raise ValueError(f"star needs k >= 1 leaves, got {k}")
    return Graph(k + 1, ((0, i) for i in range(1, k + 1)))


def gen_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    check_vertex_count(n)
    check_edge_count(n * (n - 1) // 2)
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def gen_spider(legs: int, leg_len: int) -> Graph:
    """Center 0 with `legs` paths of `leg_len` edges attached."""
    if legs < 1 or leg_len < 1:
        raise ValueError(f"spider needs legs >= 1 and leg_len >= 1, got {legs}, {leg_len}")
    # vertex v follows v - 1 on its leg, or starts a leg at the centre
    n = 1 + legs * leg_len
    return Graph(n, ((v - 1 if (v - 1) % leg_len else 0, v) for v in range(1, n)))


def gen_random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree via Prufer sequence decoding."""
    if n < 1:
        raise ValueError(f"tree needs n >= 1, got {n}")
    check_vertex_count(n)
    if n == 1:
        return Graph(1)
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    edges = []
    # join each entry to the smallest current leaf (an ascending list is a
    # heap); a final n - 1 joins the last two leaves, n - 1 being the larger
    for x in prufer + [n - 1]:
        edges.append((heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    return Graph(n, edges)


def gen_random_connected(n: int, m: int, seed: int) -> Graph:
    """Random connected graph: a random spanning tree plus m-(n-1) extra edges.

    The extras are a uniform sample of the non-edges in lexicographic order.
    random.sample reads only the population's length and the positions it
    picks, so the positions come from a range and no non-edge is listed:
    the one at position p is the pair of rank p plus the number of tree
    edges whose rank, less their index, is at most p.
    """
    if n < 1:
        raise ValueError(f"graph needs n >= 1, got {n}")
    check_vertex_count(n)
    max_m = n * (n - 1) // 2
    # m may be any count up to n(n-1)/2, so that is the family's input bound
    check_edge_count(max_m)
    if not (n - 1 <= m <= max_m):
        raise ValueError(f"need n-1 <= m <= n(n-1)/2, got m={m} for n={n}")
    edges = gen_random_tree(n, seed).edges()
    rng = random.Random(seed * 1_000_003 + n * 1009 + m)
    row_start = [u * (2 * n - u - 1) // 2 for u in range(n)]  # rank of (u, u+1)
    non_edges_before = [row_start[u] + v - u - 1 - j for j, (u, v) in enumerate(edges)]
    for p in rng.sample(range(max_m - (n - 1)), m - (n - 1)):
        rank = p + bisect_right(non_edges_before, p)
        u = bisect_right(row_start, rank) - 1
        edges.append((u, rank - row_start[u] + u + 1))
    return Graph(n, edges)
