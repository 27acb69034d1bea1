"""Isomorphism-free enumeration and the canonical certificate."""

import gc
import hashlib
import itertools
import random

import pytest

from powerdom import catalog
from powerdom.catalog import (
    MAX_CATALOG_N,
    _delete_vertex,
    _generators,
    _interchangeable,
    _refine,
    _search,
    canonical_certificate,
    certificate,
    connected_graphs,
    nonisomorphic_graphs,
)
from powerdom.families import gen_cycle, gen_path, gen_random_connected
from powerdom.graph import Graph, _bits

# known class counts; the enumerator must reproduce them exactly
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


# sha256 of repr() of every graph's adjacency rows, levels 1..8 in catalog order
CATALOG_8_SHA256 = "b58662172083dd6e86ef133a4376891f3730683aceb6aa9c6f658179b3852745"


def permuted(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _graph_from_masks(n: int, masks: list) -> Graph:
    """The reference generator's graph builder: rows to edges to Graph."""
    return Graph(n, [(u, v) for u in range(n) for v in _bits(masks[u]) if u < v])


def _oracle_canonical_children(parent: Graph) -> list:
    """The generator before orbit pruning, kept verbatim as the reference:
    every accepted child is deduplicated by its own certificate."""
    pm = list(parent.adjacency_masks)
    v = len(pm)
    n = v + 1
    hi = 1 << v
    deg = [m.bit_count() for m in pm]
    top = max(deg)
    # at[d]: the parent vertices of degree d
    at = [0] * n
    for u, d in enumerate(deg):
        at[d] |= 1 << u
    parent_cert = None
    seen = set()
    out = []
    for sub in range(1 << v):
        k = sub.bit_count()
        # a parent vertex of degree > k, or of degree k gaining v, outranks v
        if k < top or sub & at[k]:
            continue
        tied = at[k] & ~sub
        if k:
            tied |= sub & at[k - 1]
        masks = pm + [sub]
        for u in _bits(sub):
            masks[u] |= hi
        if tied:
            cdeg = [m.bit_count() for m in masks]
            key = sorted(cdeg[u] for u in _bits(sub))
            rivals = []
            outranked = False
            for t in _bits(tied):
                tkey = sorted(cdeg[u] for u in _bits(masks[t]))
                if tkey > key:
                    outranked = True
                    break
                # deleting a twin of v leaves a copy of P, so the twin cannot beat v
                if tkey == key and not _interchangeable(masks, t, v):
                    rivals.append(t)
            if outranked:
                continue
            if rivals:
                if parent_cert is None:
                    parent_cert = certificate(v, pm)
                if any(certificate(v, _delete_vertex(masks, t)) < parent_cert for t in rivals):
                    continue
        cert = certificate(n, masks)
        if cert not in seen:
            seen.add(cert)
            out.append(masks)
    return out


def _oracle_catalog(max_n: int) -> dict:
    """Levels 1..max_n built by the reference generator."""
    levels = {1: [Graph(1)]}
    for n in range(2, max_n + 1):
        levels[n] = [
            _graph_from_masks(n, masks)
            for g in levels[n - 1]
            for masks in _oracle_canonical_children(g)
        ]
    return levels


def _automorphisms(g: Graph) -> set:
    """Every automorphism of g, by trying all n! permutations."""
    masks = g.adjacency_masks
    found = set()
    for perm in itertools.permutations(range(g.n)):
        if all(
            sum(1 << perm[w] for w in _bits(masks[u])) == masks[perm[u]]
            for u in range(g.n)
        ):
            found.add(perm)
    return found


def _closure(n: int, gens: list) -> set:
    """The group the permutations in gens generate."""
    identity = tuple(range(n))
    group = {identity}
    stack = [identity]
    while stack:
        p = stack.pop()
        for gen in gens:
            q = tuple(gen[p[u]] for u in range(n))
            if q not in group:
                group.add(q)
                stack.append(q)
    return group


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

    def test_n8_catalog_is_pinned(self, catalog_all_8):
        rows = repr([g.adjacency_masks for g in catalog_all_8])
        assert hashlib.sha256(rows.encode()).hexdigest() == CATALOG_8_SHA256

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


class TestOrbitGeneration:
    def test_equals_the_reference_generator(self):
        levels = _oracle_catalog(7)
        for n in range(1, 8):
            got = [g.adjacency_masks for g in nonisomorphic_graphs(n)]
            assert got == [g.adjacency_masks for g in levels[n]]

    def test_generators_span_the_automorphism_group(self):
        graphs = [g for n in range(1, 7) for g in nonisomorphic_graphs(n)]
        graphs += [
            Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)]),
            Graph(7),
            Graph(7, [(u, v) for u in range(3) for v in range(3, 7)]),
            gen_cycle(7),
        ]
        for g in graphs:
            masks = list(g.adjacency_masks)
            best, orders, twins = _search(g.n, masks)
            assert certificate(g.n, masks) == (g.n,) + best
            assert _closure(g.n, _generators(orders, twins)) == _automorphisms(g), g

    def test_cold_build_makes_few_certificates(self, monkeypatch):
        calls = []
        real = catalog.certificate

        def counted(n, masks):
            calls.append(n)
            return real(n, masks)

        monkeypatch.setattr(catalog, "certificate", counted)
        monkeypatch.setattr(catalog, "_ALL", {})
        assert len(nonisomorphic_graphs(7)) == ALL_COUNTS[7]
        # only rivals C - t whose invariant is shared by several graphs on
        # 6 vertices are certified; a certificate per rival made 596
        assert calls == [6] * 11


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


    def test_search_leaves_no_garbage_cycle(self):
        # the recursive closure reached itself through its cell, so every
        # search left 32 objects on C_8 for the cyclic collector
        masks = list(gen_cycle(8).adjacency_masks)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _search(8, masks)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestInvariant:
    # same vertex count, degrees and refined colours, different classes
    COLLIDING = [
        (gen_cycle(6), Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
        (
            Graph(6, [(u, v) for u in range(3) for v in range(3, 6)]),
            Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
        ),
    ]

    def test_invariant_under_relabeling(self):
        rng = random.Random(7)
        for g in nonisomorphic_graphs(6) + [gen_random_connected(9, 14, seed) for seed in range(8)]:
            want = _refine(g.n, list(g.adjacency_masks))[1]
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = permuted(g, perm)
                assert _refine(h.n, list(h.adjacency_masks))[1] == want

    @pytest.mark.parametrize("pair", COLLIDING, ids=["C6-2C3", "K33-prism"])
    def test_colliding_pair_is_certified_and_both_kept(self, pair, monkeypatch):
        a, b = (list(g.adjacency_masks) for g in pair)
        assert _refine(6, a)[1] == _refine(6, b)[1]
        level = catalog._Level(nonisomorphic_graphs(6))
        kept = {certificate(6, list(g.adjacency_masks)) for g in level.graphs}
        want = [certificate(6, a), certificate(6, b)]
        assert want[0] != want[1] and set(want) <= kept
        calls = []
        real = catalog.certificate

        def counted(n, masks):
            calls.append(n)
            return real(n, masks)

        monkeypatch.setattr(catalog, "certificate", counted)
        assert [(6,) + level.least(a), (6,) + level.least(b)] == want
        assert calls == [6, 6]
        # the path's invariant is its own: its class's code, with no certificate
        p6 = list(gen_path(6).adjacency_masks)
        assert (6,) + level.least(p6) == real(6, p6)
        assert calls == [6, 6]


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
