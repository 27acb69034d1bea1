"""Isomorphism-free enumeration and the canonical certificate."""

import itertools
import random

import pytest

from powerdom import catalog
from powerdom.catalog import (
    MAX_CATALOG_N,
    _delete_vertex,
    canonical_certificate,
    connected_graphs,
    nonisomorphic_graphs,
)
from powerdom.families import gen_cycle, gen_path, gen_random_connected
from powerdom.graph import Graph

# known class counts; the enumerator must reproduce them exactly
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def permuted(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestCounts:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_graphs(self, n):
        assert len(nonisomorphic_graphs(n)) == ALL_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_connected_graphs(self, n):
        assert len(connected_graphs(n)) == CONNECTED_COUNTS[n]

    def test_n8_counts(self, catalog_all_8, catalog_conn_8):
        assert len(catalog_all_8) == sum(ALL_COUNTS.values())
        assert len(catalog_conn_8) == sum(CONNECTED_COUNTS.values())

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            nonisomorphic_graphs(0)

    def test_rejects_n_above_cap_before_generating(self):
        cached = set(catalog._ALL)
        with pytest.raises(ValueError, match=f"n <= {MAX_CATALOG_N}"):
            nonisomorphic_graphs(MAX_CATALOG_N + 1)
        assert MAX_CATALOG_N + 1 not in catalog._ALL
        assert set(catalog._ALL) == cached

    def test_returned_list_does_not_alias_the_cache(self):
        first = nonisomorphic_graphs(5)
        first.append(Graph(5))
        first.sort(key=lambda g: -g.edge_count)
        del first[:10]
        assert len(nonisomorphic_graphs(5)) == ALL_COUNTS[5]
        assert len(connected_graphs(5)) == CONNECTED_COUNTS[5]


class TestCertificate:
    def test_invariant_under_relabeling(self):
        rng = random.Random(5)
        for trial in range(63):
            n = 2 + trial % 9
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.45
            ]
            g = Graph(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_certificate(g) == canonical_certificate(permuted(g, perm))

    def test_separates_small_nonisomorphic_graphs(self):
        certs = [canonical_certificate(g) for g in nonisomorphic_graphs(4)]
        assert len(set(certs)) == len(certs)

    def test_path_vs_star_differ(self):
        p4 = gen_path(4)
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_certificate(p4) != canonical_certificate(star)

    def test_all_permutations_of_c5(self):
        g = gen_cycle(5)
        want = canonical_certificate(g)
        for perm in itertools.permutations(range(5)):
            assert canonical_certificate(permuted(g, list(perm))) == want

    def test_twin_heavy_graph(self):
        # complete bipartite K_{3,3}: many interchangeable vertices
        g = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        perm = [3, 4, 5, 0, 1, 2]
        assert canonical_certificate(g) == canonical_certificate(permuted(g, perm))


class TestDeleteVertex:
    def test_matches_induced_subgraph(self):
        rng = random.Random(11)
        for n in range(2, 11):
            for _ in range(6):
                g = Graph(
                    n,
                    [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5],
                )
                masks = list(g.adjacency_masks)
                for t in range(n):
                    rest = [v for v in range(n) if v != t]
                    assert _delete_vertex(masks, t) == list(g.subgraph(rest).adjacency_masks)


class TestMembership:
    def test_every_connected_rep_is_connected(self):
        for g in connected_graphs(6):
            assert g.is_connected()

    def test_random_graph_matches_some_representative(self):
        reps = {canonical_certificate(g) for g in nonisomorphic_graphs(6)}
        for seed in range(10):
            g = gen_random_connected(6, 9, seed)
            assert canonical_certificate(g) in reps
