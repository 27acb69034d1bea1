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
from dataclasses import dataclass

from .graph import Graph, check_vertex_count


@dataclass(frozen=True)
class HDeltaSpec:
    """Level structure of one H_Delta instance."""

    delta: int
    levels: tuple  # level (1, 2, or 3) per internal vertex


def gen_h_delta(delta: int) -> tuple[Graph, HDeltaSpec]:
    """Build H_Delta; internal vertex IDs are the 1-indexed numbering minus one."""
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
    return Graph(n, edges), HDeltaSpec(delta=delta, levels=levels)


def gen_path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    check_vertex_count(n)
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
    check_vertex_count(k + 1)
    return Graph(k + 1, ((0, i) for i in range(1, k + 1)))


def gen_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    check_vertex_count(n)
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def gen_spider(legs: int, leg_len: int) -> Graph:
    """Center 0 with `legs` paths of `leg_len` edges attached."""
    if legs < 1 or leg_len < 1:
        raise ValueError(f"spider needs legs >= 1 and leg_len >= 1, got {legs}, {leg_len}")
    check_vertex_count(1 + legs * leg_len)
    edges = []
    for leg in range(legs):
        prev = 0
        for step in range(leg_len):
            v = 1 + leg * leg_len + step
            edges.append((prev, v))
            prev = v
    return Graph(1 + legs * leg_len, edges)


def gen_random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree via Prufer sequence decoding."""
    if n < 1:
        raise ValueError(f"tree needs n >= 1, got {n}")
    check_vertex_count(n)
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    edges = []
    # classic linear decode: repeatedly join the smallest current leaf
    ptr = 0
    leaf = -1
    for x in prufer:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = -1
            ptr += 1
    if leaf < 0:
        while degree[ptr] != 1:
            ptr += 1
        leaf = ptr
    edges.append((leaf, n - 1))
    return Graph(n, edges)


def gen_random_connected(n: int, m: int, seed: int) -> Graph:
    """Random connected graph: a random spanning tree plus m-(n-1) extra edges."""
    if n < 1:
        raise ValueError(f"graph needs n >= 1, got {n}")
    check_vertex_count(n)
    max_m = n * (n - 1) // 2
    if not (n - 1 <= m <= max_m):
        raise ValueError(f"need n-1 <= m <= n(n-1)/2, got m={m} for n={n}")
    tree = gen_random_tree(n, seed)
    tree_edges = set(tree.edges())
    rng = random.Random(seed * 1_000_003 + n * 1009 + m)
    non_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in tree_edges
    ]
    extra = rng.sample(non_edges, m - (n - 1))
    return Graph(n, sorted(tree_edges | set(extra)))
