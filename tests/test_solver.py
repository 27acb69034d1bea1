"""Exact solver: gamma_P, all minimum witnesses, ppt(G), l-round numbers."""

import itertools

import pytest

from powerdom.catalog import nonisomorphic_graphs
from powerdom.errors import SearchBudgetExceeded
from powerdom.families import (
    gen_complete,
    gen_cycle,
    gen_h_delta,
    gen_path,
    gen_random_tree,
    gen_spider,
    gen_star,
)
from powerdom.graph import Graph
from powerdom.propagation import is_pds, ppt_of_set, propagate
from powerdom.solver import gamma_p, l_round_number, ppt_graph


def brute_minimum_sets(g):
    """All minimum PDSs by plain subset enumeration (smallest k wins)."""
    for k in range(1, g.n + 1):
        found = [
            frozenset(c)
            for c in itertools.combinations(range(g.n), k)
            if is_pds(g, c)
        ]
        if found:
            return k, found
    raise AssertionError("unreachable: V(G) always power dominates")


def brute_l_round_numbers(g, ls):
    """{l: least |S| whose layer min(l, steps) is all of V}, over every subset."""
    everything = frozenset(range(g.n))
    found = {}
    for k in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            trace = propagate(g, combo)
            for l in ls:
                if l not in found and trace.layers[min(l, trace.steps)] == everything:
                    found[l] = k
        if len(found) == len(ls):
            return found
    raise AssertionError("unreachable: V(G) power dominates in time 0")


def l_round_corpus():
    yield from (g for n in range(1, 8) for g in nonisomorphic_graphs(n))
    yield gen_complete(5)
    yield Graph(5, [(a, b) for a in range(2) for b in range(2, 5)])  # K_{2,3}
    yield gen_star(6)
    yield gen_spider(3, 3)
    yield from (gen_random_tree(12, seed) for seed in range(30))
    yield Graph(5, [(0, 1), (1, 2), (2, 3)])  # P_4 plus an isolated vertex


class TestGammaExamples:
    @pytest.mark.parametrize("n,expect", [(1, 1), (2, 1), (4, 1), (7, 1)])
    def test_paths(self, n, expect):
        assert gamma_p(gen_path(n)).gamma_p == expect

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_cycles(self, n):
        assert gamma_p(gen_cycle(n)).gamma_p == 1

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_complete(self, n):
        assert gamma_p(gen_complete(n)).gamma_p == 1

    def test_star(self):
        result = gamma_p(gen_star(5))
        assert result.gamma_p == 1
        assert result.witnesses[0].vertices == (0,)
        assert result.ppt_graph == 1

    def test_spider_from_center(self):
        result = gamma_p(gen_spider(4, 2))
        assert result.gamma_p == 1
        assert (0,) in {w.vertices for w in result.witnesses}

    def test_h9(self):
        result = gamma_p(gen_h_delta(9)[0])
        assert result.gamma_p == 2
        assert (0, 10) in {w.vertices for w in result.witnesses}

    def test_p4_witnesses_and_ppt(self):
        result = gamma_p(gen_path(4))
        assert [w.vertices for w in result.witnesses] == [(0,), (1,), (2,), (3,)]
        assert [w.ppt for w in result.witnesses] == [3, 2, 2, 3]
        assert result.ppt_graph == 2

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            gamma_p(Graph(0))


class TestWitnessCompleteness:
    @pytest.mark.parametrize(
        "g",
        [
            gen_path(5),
            gen_cycle(6),
            gen_star(4),
            gen_spider(3, 2),
            Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
        ],
        ids=["p5", "c6", "star4", "spider", "c5-chord"],
    )
    def test_witnesses_match_brute_force(self, g):
        k, brute = brute_minimum_sets(g)
        result = gamma_p(g)
        assert result.gamma_p == k
        assert [set(w.vertices) for w in result.witnesses] == sorted(
            (set(s) for s in brute), key=sorted
        )
        for w in result.witnesses:
            assert w.ppt == ppt_of_set(g, w.vertices)

    def test_ppt_graph_is_min_over_witnesses(self, random_connected_500):
        for g in random_connected_500[:60]:
            result = gamma_p(g)
            assert result.ppt_graph == min(w.ppt for w in result.witnesses)
            assert ppt_graph(g) == result.ppt_graph


class TestDisconnected:
    def test_two_paths(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        result = gamma_p(g)
        assert result.gamma_p == 2
        assert (1, 4) in {w.vertices for w in result.witnesses}
        # every witness draws one vertex from each part
        for w in result.witnesses:
            assert sum(v < 3 for v in w.vertices) == 1

    def test_ppt_is_max_over_parts(self):
        # P_1 has ppt 0 from its only witness; P_4's best is 2
        g = Graph(5, [(1, 2), (2, 3), (3, 4)])
        assert gamma_p(g).ppt_graph == 2

    def test_isolated_vertices(self):
        g = Graph(3)
        result = gamma_p(g)
        assert result.gamma_p == 3
        assert result.witnesses[0].vertices == (0, 1, 2)
        assert result.ppt_graph == 0


class TestLRound:
    def test_l1_is_domination_number(self):
        # gamma(P_4) = 2 but gamma_P(P_4) = 1
        assert l_round_number(gen_path(4), 1) == 2

    def test_l1_star(self):
        assert l_round_number(gen_star(5), 1) == 1

    def test_large_l_reaches_gamma_p(self):
        g = gen_path(6)
        assert l_round_number(g, 10) == gamma_p(g).gamma_p

    def test_nonincreasing_in_l(self, random_connected_500):
        for g in random_connected_500[:25]:
            values = [l_round_number(g, l) for l in range(1, 6)]
            assert values == sorted(values, reverse=True)

    def test_l_below_one_rejected(self):
        with pytest.raises(ValueError):
            l_round_number(gen_path(3), 0)

    def test_disconnected_sums(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert l_round_number(g, 1) == 2

    def test_matches_all_subsets_oracle(self):
        # the search skips dominated vertices, so compare every l with a
        # search over all subsets; twins and leaves are the risky cases
        ls = (1, 2, 3, 4)
        for g in l_round_corpus():
            expect = brute_l_round_numbers(g, ls)
            got = {l: l_round_number(g, l) for l in ls}
            assert got == expect, f"n={g.n} {g.edges()}"


class TestBudget:
    def test_tiny_budget_raises(self):
        g, _ = gen_h_delta(9)
        with pytest.raises(SearchBudgetExceeded):
            gamma_p(g, work_limit=10)

    def test_witness_product_is_charged(self):
        # five disjoint C_10: 50 runs, but 10^5 combined witnesses
        g = Graph(50, [(10 * c + i, 10 * c + (i + 1) % 10) for c in range(5) for i in range(10)])
        with pytest.raises(SearchBudgetExceeded):
            gamma_p(g, work_limit=1000)

    def test_solution_unaffected_by_generous_budget(self):
        g = gen_cycle(6)
        assert gamma_p(g, work_limit=10**6).gamma_p == gamma_p(g).gamma_p
