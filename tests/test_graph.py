"""Graph structure and file format."""

import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerdom.catalog import nonisomorphic_graphs
from powerdom.errors import DisconnectedGraphError, GraphParseError
from powerdom.families import (
    gen_complete,
    gen_cycle,
    gen_h_delta,
    gen_path,
    gen_random_tree,
    gen_spider,
    gen_star,
)
from powerdom.graph import MAX_EDGES, MAX_VERTICES, Graph, parse_graph, write_graph


def graphs(max_n=8):
    """Arbitrary simple graphs as (n, subset of possible edges)."""
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.builds(
            Graph,
            st.just(n),
            st.lists(
                st.sampled_from([(u, v) for u in range(n) for v in range(u + 1, n)])
                if n >= 2
                else st.nothing(),
                unique=True,
                max_size=n * (n - 1) // 2,
            )
            if n >= 2
            else st.just([]),
        )
    )


def bfs_distances(nbrs, source):
    """Distances from source over the neighbour sets nbrs, -1 for unreachable
    vertices: the oracle for diameter and components."""
    dist = [-1] * len(nbrs)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in nbrs[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def multiword_cases():
    """(name, n, edge list) with n around and past the 64-bit word size, so
    adjacency rows span one to four words. Edge lists repeat some edges and
    give some in reversed orientation."""
    cases = []
    for n in (63, 64, 65, 129, 200):
        rng = random.Random(n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        cases.append((f"path-{n}", n, [(v, v + 1) for v in range(n - 1)]))
        sparse = rng.sample(pairs, n)
        sparse += [(v, u) for u, v in sparse[: n // 4]]
        cases.append((f"sparse-{n}", n, sparse))
        # a path on the even vertices, a sparser random graph on the odd ones
        evens = [(v, v + 2) for v in range(0, n - 2, 2)]
        odds = [(u, v) for u, v in rng.sample(pairs, 2 * n) if u % 2 and v % 2]
        cases.append((f"union-{n}", n, evens + odds))
    return cases


MULTIWORD = multiword_cases()


def edge_list_components(n, edges):
    """Components by repeated relabelling of an edge list to its least label."""
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            low = min(label[u], label[v])
            if label[u] != low or label[v] != low:
                label[u] = label[v] = low
                changed = True
    comps = {}
    for v in range(n):
        comps.setdefault(label[v], []).append(v)
    return list(comps.values())


class TestConstruction:
    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_rejects_too_many_vertices(self):
        with pytest.raises(ValueError, match=f"limit of {MAX_VERTICES}"):
            Graph(MAX_VERTICES + 1)

    def test_adjacency_is_symmetric(self):
        g = Graph(4, [(0, 1), (2, 3), (1, 2)])
        for u in range(4):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_masks_mirror_adjacency(self):
        g = Graph(5, [(0, 4), (1, 2), (1, 3)])
        assert g.adjacency_masks[1] == (1 << 2) | (1 << 3)
        assert g.adjacency_masks[0] == 1 << 4

    @pytest.mark.parametrize("n,edges", [c[1:] for c in MULTIWORD], ids=[c[0] for c in MULTIWORD])
    def test_rows_match_edge_list(self, n, edges):
        g = Graph(n, edges)
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert g.adjacency_masks == tuple(sum(1 << w for w in s) for s in nbrs)
        assert [g.neighbors(v) for v in range(n)] == nbrs
        assert [g.degree(v) for v in range(n)] == [len(s) for s in nbrs]
        assert g.max_degree() == max(len(s) for s in nbrs)
        pairs = sorted({(min(e), max(e)) for e in edges})
        assert g.edges() == pairs
        assert g.edge_count == len(pairs)

    def test_from_rows_equals_edge_list_on_the_catalog(self):
        for n in range(1, 8):
            for g in nonisomorphic_graphs(n):
                built = Graph.from_rows(n, g.adjacency_masks)
                assert built == Graph(n, g.edges())
                assert built.adjacency_masks == g.adjacency_masks

    @pytest.mark.parametrize(
        "n,rows,match",
        [
            (MAX_VERTICES + 1, (), f"limit of {MAX_VERTICES}"),
            (3, [0b010, 0b001], "expected 3 rows"),
            (2, [0b110, 0b001, 0b001], "expected 2 rows"),
            (-1, [], "expected -1 rows"),
            (3, [0b1010, 0b0001, 0b0000], "bits outside"),
            (3, [-2, 0b001, 0b001], "bits outside"),
            (3, [0b011, 0b001, 0b000], "self-loop at vertex 0"),
            (3, [0b010, 0b000, 0b000], "row 0 has 1 but row 1 lacks 0"),
        ],
    )
    def test_from_rows_rejects(self, n, rows, match):
        with pytest.raises(ValueError, match=match):
            Graph.from_rows(n, rows)


class TestParse:
    def test_p3(self):
        g = parse_graph("3 2\n0 1\n1 2\n")
        assert (g.n, g.edges()) == (3, [(0, 1), (1, 2)])

    def test_k1(self):
        g = parse_graph("1 0\n")
        assert (g.n, g.edge_count) == (1, 0)

    def test_c4(self):
        g = parse_graph("4 4\n0 1\n1 2\n2 3\n3 0\n")
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_comments_and_blank_lines_ignored(self):
        g = parse_graph("# a path\n\n3 2\n# edge one\n0 1\n\n1 2\n")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_duplicate_and_reversed_edges_collapse(self):
        g = parse_graph("3 3\n0 1\n1 0\n0 1\n")
        assert g.edge_count == 1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "missing header"),
            ("x y\n", "non-integer"),
            ("3\n", "header"),
            ("3 1\n0 zebra\n", "non-integer"),
            # int() alone takes underscores and any Unicode decimal digit
            ("1_0 0\n", "non-integer"),
            ("3 1\n0 \u0662\n", "non-integer"),
            ("\uff13 0\n", "non-integer"),
            ("3 1\n0 5\n", "out of range"),
            ("3 1\n1 1\n", "self-loop"),
            ("3 1\n", "only 0 edge lines"),
            ("3 1\n0 1\n1 2\n", "found more"),
            ("-1 0\n", "negative"),
            # rejected before the per-vertex sets (tens of GB here) are built
            ("100000000 0", f"limit of {MAX_VERTICES}"),
            # rejected before any edge line is read
            ("2 3000000", f"limit of {MAX_EDGES}"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(GraphParseError, match=fragment):
            parse_graph(text)

    def test_errors_name_the_line(self):
        with pytest.raises(GraphParseError, match=r"line 4"):
            parse_graph("# comment\n3 2\n0 1\n1 1\n")

    def test_edge_cap_names_the_line(self):
        with pytest.raises(GraphParseError, match=r"line 2: edge count 3000000 exceeds"):
            parse_graph("# comment\n2 3000000\n0 1\n")


class TestWrite:
    def test_k1(self):
        assert write_graph(Graph(1)) == "1 0\n"

    def test_p3(self):
        assert write_graph(gen_path(3)) == "3 2\n0 1\n1 2\n"

    def test_c4_canonical_order(self):
        assert write_graph(gen_cycle(4)) == "4 4\n0 1\n0 3\n1 2\n2 3\n"

    @settings(max_examples=150, deadline=None)
    @given(graphs())
    @example(Graph(*MULTIWORD[-1][1:]))
    @example(Graph(*MULTIWORD[7][1:]))
    def test_round_trip(self, g):
        assert parse_graph(write_graph(g)) == g


class TestQueries:
    def test_max_degree(self):
        assert gen_path(3).max_degree() == 2
        assert Graph(1).max_degree() == 0
        assert gen_star(5).max_degree() == 5

    def test_max_degree_empty_graph_errors(self):
        with pytest.raises(ValueError):
            Graph(0).max_degree()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_diameter_of_paths(self, n):
        assert gen_path(n).diameter() == n - 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_diameter_of_complete_graphs(self, n):
        assert gen_complete(n).diameter() == 1

    def test_diameter_k1(self):
        assert Graph(1).diameter() == 0

    def test_diameter_disconnected_errors(self):
        with pytest.raises(DisconnectedGraphError):
            Graph(4, [(0, 1), (2, 3)]).diameter()

    def test_diameter_matches_bfs(self, catalog_all_8, random_connected_500):
        def bfs_diameter(g):
            nbrs = [g.neighbors(v) for v in range(g.n)]
            return max(max(bfs_distances(nbrs, v)) for v in range(g.n))

        hdelta = [gen_h_delta(delta)[0] for delta in range(3, 17)]
        # trees take two sweeps in place of the balls
        trees = [gen_random_tree(n, 4000 + n) for n in range(1, 61)]
        trees += [gen_path(n) for n in range(1, 30)] + [gen_star(k) for k in range(1, 12)]
        trees += [gen_spider(legs, length) for legs in range(1, 5) for length in range(1, 5)]
        # caterpillars: the spine 0 - ... - k-1, each spine vertex with j leaves
        trees += [
            Graph(k + k * j, [(i, i + 1) for i in range(k - 1)]
                  + [(i, k + i * j + h) for i in range(k) for h in range(j)])
            for k in range(1, 8)
            for j in range(3)
        ]
        assert all(t.edge_count == t.n - 1 and t.is_connected() for t in trees)
        # n - 1 edges without being a tree: a triangle and an isolated vertex
        triangle_and_point = Graph(4, [(0, 1), (1, 2), (0, 2)])
        for g in catalog_all_8 + random_connected_500 + hdelta + trees + [triangle_and_point]:
            if g.is_connected():
                assert g.diameter() == bfs_diameter(g), g.edges()
            else:
                with pytest.raises(DisconnectedGraphError):
                    g.diameter()

    def test_is_connected(self):
        assert gen_path(3).is_connected()
        assert not Graph(4, [(0, 1), (2, 3)]).is_connected()
        for name, n, edges in MULTIWORD:
            connected = len(edge_list_components(n, edges)) == 1
            assert Graph(n, edges).is_connected() == connected, name

    def test_is_tree(self):
        assert gen_path(4).is_tree()
        assert not gen_cycle(4).is_tree()
        assert gen_star(5).is_tree()
        assert not Graph(4, [(0, 1), (2, 3)]).is_tree()

    def test_h_delta_degree_and_diameter(self):
        # cross-module: holds for every delta, spot-checked here
        for delta in (3, 5, 9):
            g, _ = gen_h_delta(delta)
            assert g.max_degree() == delta
            assert g.diameter() == 4
            assert g.is_connected()

    def test_bfs_distances_marks_unreachable(self):
        # the oracle behind the diameter and component checks: vertices
        # outside the source's component read -1, and the reached ones are
        # exactly the component Graph reports
        g = Graph(4, [(0, 1), (2, 3)])
        nbrs = [g.neighbors(v) for v in range(g.n)]
        assert bfs_distances(nbrs, 0) == [0, 1, -1, -1]
        assert bfs_distances(nbrs, 3) == [-1, -1, 1, 0]
        assert g.components() == [[0, 1], [2, 3]]

    def test_components(self):
        g = Graph(6, [(4, 5), (0, 2), (2, 1)])
        assert g.components() == [[0, 1, 2], [3], [4, 5]]
        assert Graph(4, [(0, 1), (2, 3)]).components() == [[0, 1], [2, 3]]
        assert Graph(3).components() == [[0], [1], [2]]
        assert Graph(0).components() == []
        for name, n, edges in MULTIWORD:
            assert Graph(n, edges).components() == edge_list_components(n, edges), name

    def test_components_match_bfs(self, catalog_all_8):
        for g in catalog_all_8:
            nbrs = [g.neighbors(v) for v in range(g.n)]
            comps, seen = [], set()
            for v in range(g.n):
                if v not in seen:
                    comps.append([w for w, d in enumerate(bfs_distances(nbrs, v)) if d >= 0])
                    seen.update(comps[-1])
            assert g.components() == comps, g.edges()
            assert g.is_connected() == (len(comps) == 1)

    def test_closed_neighbourhood_matches_definition(self):
        # sets of at most and of more than n/2 vertices take the two walks
        h11, _ = gen_h_delta(11)
        cases = [(name, Graph(n, edges)) for name, n, edges in MULTIWORD if n <= 129]
        for name, g in cases + [("H_11", h11)]:
            rng = random.Random(g.n)
            half = g.n // 2
            sizes = (0, 1, half - 1, half, half + 1, g.n - 1, g.n)
            for size in sizes + tuple(rng.randrange(g.n + 1) for _ in range(10)):
                chosen = rng.sample(range(g.n), size)
                expected = set(chosen).union(*(g.neighbors(v) for v in chosen))
                mask = sum(1 << v for v in chosen)
                got = g.closed_neighbourhood(mask)
                assert got == sum(1 << v for v in expected), (name, size)

    def test_subgraph_relabels(self):
        g = gen_cycle(5)
        sub = g.subgraph([1, 2, 3])
        assert sub.n == 3
        assert sub.edges() == [(0, 1), (1, 2)]
        for name, n, edges in MULTIWORD:
            # every vertex not divisible by 3, listed from the top down
            keep = [v for v in range(n - 1, -1, -1) if v % 3]
            index = {v: i for i, v in enumerate(keep)}
            expected = sorted(
                {
                    (min(index[u], index[v]), max(index[u], index[v]))
                    for u, v in edges
                    if u in index and v in index
                }
            )
            sub = Graph(n, edges).subgraph(keep)
            assert (sub.n, sub.edges()) == (len(keep), expected), name

    @pytest.mark.parametrize("vertices", [[-1, 2], [1, 4], [5], [1, 1]])
    def test_subgraph_rejects_bad_vertices(self, vertices):
        # negative, one past the last vertex, further past it, repeated
        with pytest.raises(ValueError, match="distinct vertices in 0..3"):
            gen_path(4).subgraph(vertices)

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 2)])
        for name, n, edges in MULTIWORD:
            g = Graph(n, edges)
            pairs = g.edges()
            twin = Graph(n, [(v, u) for u, v in reversed(pairs)])
            assert twin == g and hash(twin) == hash(g), name
            assert g != Graph(n, pairs[:-1]) and g != Graph(n + 1, pairs), name

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=7))
    @example(Graph(*MULTIWORD[4][1:]))
    def test_edges_match_neighbor_sets(self, g):
        for u, v in g.edges():
            assert u < v
            assert v in g.neighbors(u) and u in g.neighbors(v)
        assert g.edge_count == len(g.edges())
