"""Generators: the counterexample family and the standard shapes."""

import random
import tracemalloc

import pytest

from powerdom.families import (
    gen_complete,
    gen_cycle,
    gen_h_delta,
    gen_path,
    gen_random_connected,
    gen_random_tree,
    gen_spider,
    gen_star,
)
from powerdom.graph import Graph, check_edge_count, check_vertex_count
from powerdom.propagation import is_pds
from powerdom.solver import gamma_p, l_round_number


class TestHDelta:
    @pytest.mark.parametrize("delta", range(3, 10))
    def test_counts(self, delta):
        g, _ = gen_h_delta(delta)
        assert g.n == delta * delta + 1
        assert g.edge_count == 2 * delta * delta - delta - 1

    def test_h9_edge_count_pinned(self):
        g, _ = gen_h_delta(9)
        assert (g.n, g.edge_count) == (82, 152)

    @pytest.mark.parametrize("delta", [3, 4, 7, 11])
    def test_shape(self, delta):
        g, levels = gen_h_delta(delta)
        assert g.is_connected()
        assert g.max_degree() == delta
        assert g.diameter() == 4
        assert g.degree(0) == delta
        # level sizes: 1, delta, delta*(delta-1)
        assert levels.count(1) == 1
        assert levels.count(2) == delta
        assert levels.count(3) == delta * (delta - 1)

    def test_level_two_degrees(self):
        g, levels = gen_h_delta(5)
        for v in range(1, 6):
            assert levels[v] == 2
            assert g.degree(v) == 5  # one up-edge plus delta-1 children

    def test_level_three_is_one_path(self):
        g, levels = gen_h_delta(4)
        third = [v for v in range(g.n) if levels[v] == 3]
        assert third == list(range(5, 17))
        ends = [v for v in third if len(g.neighbors(v) & set(third)) == 1]
        assert ends == [5, 16]

    def test_h3_level_three_in_one_based_numbering(self):
        # in the 1-indexed numbering the third level is vertices 5..10 when delta=3
        g, levels = gen_h_delta(3)
        third = [v + 1 for v in range(g.n) if levels[v] == 3]
        assert third == [5, 6, 7, 8, 9, 10]

    @pytest.mark.parametrize("delta", range(3, 17))
    def test_construction_witness_power_dominates(self, delta):
        # the root and the first level-3 vertex, one end of the level-3 path
        g, levels = gen_h_delta(delta)
        assert levels[delta + 1] == 3
        assert is_pds(g, {0, delta + 1})

    def test_rejects_small_delta(self):
        with pytest.raises(ValueError):
            gen_h_delta(2)


class TestShapes:
    def test_path(self):
        g = gen_path(5)
        assert g.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert gen_path(1).n == 1

    def test_cycle(self):
        g = gen_cycle(4)
        assert g.edge_count == 4 and g.degree(0) == 2
        with pytest.raises(ValueError):
            gen_cycle(2)

    def test_star(self):
        g = gen_star(4)
        assert g.degree(0) == 4
        assert all(g.degree(v) == 1 for v in range(1, 5))

    def test_complete(self):
        g = gen_complete(5)
        assert g.edge_count == 10
        assert all(g.degree(v) == 4 for v in range(5))

    def test_spider(self):
        g = gen_spider(3, 2)
        assert g.n == 7 and g.degree(0) == 3
        assert g.is_tree()
        leg_ends = [v for v in range(1, 7) if g.degree(v) == 1]
        assert len(leg_ends) == 3

    def test_spider_one_leg_is_path(self):
        assert gen_spider(1, 4) == gen_path(5)


class TestVertexCap:
    # a small cap keeps the test cheap even where a generator ignores it
    @pytest.mark.parametrize(
        "generate",
        [
            lambda: gen_h_delta(5),
            lambda: gen_path(21),
            lambda: gen_cycle(21),
            lambda: gen_star(20),
            lambda: gen_complete(21),
            lambda: gen_spider(4, 5),
            lambda: gen_random_tree(21, 0),
            lambda: gen_random_connected(21, 20, 0),
        ],
        ids=["hdelta", "path", "cycle", "star", "complete", "spider", "rtree", "connected"],
    )
    def test_rejected_above_the_cap(self, monkeypatch, generate):
        monkeypatch.setattr("powerdom.graph.MAX_VERTICES", 20)
        with pytest.raises(ValueError, match="limit of 20"):
            generate()


class TestEdgeCap:
    # n(n-1)/2 is checked before the edge list is built, so
    # K_7 (21 edges) is refused under a cap of 20 and K_6 (15) is not
    @pytest.mark.parametrize(
        "generate",
        [lambda: gen_complete(7), lambda: gen_random_connected(7, 6, 0)],
        ids=["complete", "connected"],
    )
    def test_rejected_above_the_cap(self, monkeypatch, generate):
        monkeypatch.setattr("powerdom.graph.MAX_EDGES", 20)
        with pytest.raises(ValueError, match="edge count 21 exceeds the limit of 20"):
            generate()

    def test_accepted_at_the_cap(self, monkeypatch):
        monkeypatch.setattr("powerdom.graph.MAX_EDGES", 15)
        assert gen_complete(6).edge_count == 15
        assert gen_random_connected(6, 5, 0).edge_count == 5

    def test_complete_2048_fits(self):
        check_edge_count(2048 * 2047 // 2)


class TestRandomTrees:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
    def test_always_a_tree(self, n):
        for seed in range(12):
            t = gen_random_tree(n, seed)
            assert t.n == n
            if n >= 1:
                assert t.is_tree()

    def test_deterministic(self):
        assert gen_random_tree(10, 42) == gen_random_tree(10, 42)

    def test_seeds_vary(self):
        distinct = {gen_random_tree(9, s) for s in range(30)}
        assert len(distinct) > 20


class TestRandomConnected:
    @pytest.mark.parametrize("n,m", [(2, 1), (5, 4), (5, 10), (8, 12), (12, 30)])
    def test_shape(self, n, m):
        for seed in (0, 7):
            g = gen_random_connected(n, m, seed)
            assert (g.n, g.edge_count) == (n, m)
            assert g.is_connected()

    def test_deterministic(self):
        assert gen_random_connected(9, 14, 3) == gen_random_connected(9, 14, 3)

    def test_rejects_bad_edge_counts(self):
        with pytest.raises(ValueError):
            gen_random_connected(5, 3, 0)
        with pytest.raises(ValueError):
            gen_random_connected(5, 11, 0)


# -- reference generators -------------------------------------------------
#
# The random generators as they stood with the pointer decode and the
# non-edge list, kept verbatim apart from names. The generators must build
# the same graphs: the benchmark's reference answers and every seeded
# corpus rest on them.


def ref_gen_random_tree(n: int, seed: int) -> Graph:
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


def ref_gen_random_connected(n: int, m: int, seed: int) -> Graph:
    """Random connected graph: a random spanning tree plus m-(n-1) extra edges."""
    if n < 1:
        raise ValueError(f"graph needs n >= 1, got {n}")
    check_vertex_count(n)
    max_m = n * (n - 1) // 2
    # the non-edge list below has up to max_m entries whatever m is
    check_edge_count(max_m)
    if not (n - 1 <= m <= max_m):
        raise ValueError(f"need n-1 <= m <= n(n-1)/2, got m={m} for n={n}")
    tree = ref_gen_random_tree(n, seed)
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


def _edge_counts(n):
    max_m = n * (n - 1) // 2
    return sorted({m for m in (n - 1, (5 * n + 2) // 4, (n - 1 + max_m) // 2, n + 3, max_m) if m <= max_m})


class TestMatchesReferenceGenerators:
    def test_trees(self):
        cases = [(n, seed) for n in range(1, 40) for seed in range(25)]
        # the sizes the sparse pools and the trace workload use
        cases += [(n, 1000 * n + i) for n in range(11, 15) for i in range(120)]
        cases += [(n, seed) for n in range(40, 80) for seed in range(5)]
        for n, seed in cases:
            assert gen_random_tree(n, seed).edges() == ref_gen_random_tree(n, seed).edges(), (n, seed)

    def test_connected(self):
        cases = [(n, m, seed) for n in range(1, 40) for m in _edge_counts(n) for seed in range(25)]
        cases += [(n, m, seed) for n in (64, 65, 100) for m in _edge_counts(n) for seed in range(3)]
        cases += [(300, m, 0) for m in _edge_counts(300)]
        # the sizes the sparse pools and the trace workload use
        cases += [(n, (5 * n + 2) // 4, 1000 * n + i) for n in range(12, 15) for i in range(120)]
        cases += [(n, (5 * n + 2) // 4, seed) for n in range(30, 60) for seed in range(5)]
        for n, m, seed in cases:
            got = gen_random_connected(n, m, seed).edges()
            assert got == ref_gen_random_connected(n, m, seed).edges(), (n, m, seed)

    def test_connected_memory_grows_with_m_not_n_squared(self):
        # about 2.1M non-edges at n = 2048; listing them peaked near 190 MB
        tracemalloc.start()
        try:
            gen_random_connected(2048, 6000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def test_benchmark_reference_answers_on_every_sparse_pool_graph(perfbench_sparse):
    # a generator that drifts from the graphs the reference answers were
    # made on fails here, not only in the benchmark
    workloads, ref = perfbench_sparse
    assert len(ref) == 840
    for key, want in ref.items():
        kind, n, i = key.split("-")
        g = workloads.pool_graph(kind, int(n), int(i))
        result = gamma_p(g)
        got = {
            "gamma_p": result.gamma_p,
            "witnesses": len(result.witnesses),
            "ppt": result.ppt_graph,
            "l1": l_round_number(g, 1),
            "l2": l_round_number(g, 2),
        }
        assert got == {name: want[name] for name in got}, key
