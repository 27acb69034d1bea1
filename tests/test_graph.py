"""Graph structure and file format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerdom.errors import DisconnectedGraphError, GraphParseError
from powerdom.families import gen_complete, gen_cycle, gen_h_delta, gen_path, gen_star
from powerdom.graph import MAX_VERTICES, Graph, parse_graph, write_graph


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
            ("3 1\n0 5\n", "out of range"),
            ("3 1\n1 1\n", "self-loop"),
            ("3 1\n", "only 0 edge lines"),
            ("3 1\n0 1\n1 2\n", "found more"),
            ("-1 0\n", "negative"),
            # rejected before the per-vertex sets (tens of GB here) are built
            ("100000000 0", f"limit of {MAX_VERTICES}"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(GraphParseError, match=fragment):
            parse_graph(text)

    def test_errors_name_the_line(self):
        with pytest.raises(GraphParseError, match=r"line 4"):
            parse_graph("# comment\n3 2\n0 1\n1 1\n")


class TestWrite:
    def test_k1(self):
        assert write_graph(Graph(1)) == "1 0\n"

    def test_p3(self):
        assert write_graph(gen_path(3)) == "3 2\n0 1\n1 2\n"

    def test_c4_canonical_order(self):
        assert write_graph(gen_cycle(4)) == "4 4\n0 1\n0 3\n1 2\n2 3\n"

    @settings(max_examples=150, deadline=None)
    @given(graphs())
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

    def test_is_connected(self):
        assert gen_path(3).is_connected()
        assert not Graph(4, [(0, 1), (2, 3)]).is_connected()

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
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.bfs_distances(0) == [0, 1, -1, -1]

    def test_components(self):
        g = Graph(6, [(4, 5), (0, 2), (2, 1)])
        assert g.components() == [[0, 1, 2], [3], [4, 5]]

    def test_subgraph_relabels(self):
        g = gen_cycle(5)
        sub = g.subgraph([1, 2, 3])
        assert sub.n == 3
        assert sub.edges() == [(0, 1), (1, 2)]

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 2)])

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=7))
    def test_edges_match_neighbor_sets(self, g):
        for u, v in g.edges():
            assert u < v
            assert v in g.neighbors(u) and u in g.neighbors(v)
        assert g.edge_count == len(g.edges())
