"""Generators: the counterexample family and the standard shapes."""

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
        g, spec = gen_h_delta(delta)
        assert g.is_connected()
        assert g.max_degree() == delta
        assert g.diameter() == 4
        assert g.degree(0) == delta
        # level sizes: 1, delta, delta*(delta-1)
        assert spec.levels.count(1) == 1
        assert spec.levels.count(2) == delta
        assert spec.levels.count(3) == delta * (delta - 1)

    def test_level_two_degrees(self):
        g, spec = gen_h_delta(5)
        for v in range(1, 6):
            assert spec.levels[v] == 2
            assert g.degree(v) == 5  # one up-edge plus delta-1 children

    def test_level_three_is_one_path(self):
        g, spec = gen_h_delta(4)
        third = [v for v in range(g.n) if spec.levels[v] == 3]
        assert third == list(range(5, 17))
        ends = [v for v in third if len(g.neighbors(v) & set(third)) == 1]
        assert ends == [5, 16]

    def test_h3_level_three_in_one_based_numbering(self):
        # in the 1-indexed numbering the third level is vertices 5..10 when delta=3
        g, spec = gen_h_delta(3)
        third = [v + 1 for v in range(g.n) if spec.levels[v] == 3]
        assert third == [5, 6, 7, 8, 9, 10]

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
