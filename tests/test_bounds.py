"""Bound values, exact rational arithmetic, refutation verdicts."""

import math
from fractions import Fraction

import pytest

from powerdom.bounds import (
    bounds_report,
    correct_lower_bound,
    ppt_lower_bound,
    refuted_diameter_bound,
    tree_lower_bound,
)
from powerdom.errors import DisconnectedGraphError
from powerdom.families import gen_cycle, gen_h_delta, gen_path, gen_star
from powerdom.graph import Graph
from powerdom.solver import gamma_p


class TestRefutedBound:
    def test_h9_is_82_over_37(self):
        g, _ = gen_h_delta(9)
        assert refuted_diameter_bound(g) == Fraction(82, 37)

    def test_h8_is_65_over_33(self):
        g, _ = gen_h_delta(8)
        assert refuted_diameter_bound(g) == Fraction(65, 33)

    def test_reported_not_asserted(self):
        # the whole point: the value may exceed gamma_p without any error
        g, _ = gen_h_delta(9)
        assert refuted_diameter_bound(g) > gamma_p(g).gamma_p


class TestReports:
    def test_h9_report(self):
        g, _ = gen_h_delta(9)
        rep = bounds_report(g)
        assert (rep.n, rep.max_degree, rep.diameter, rep.gamma_p) == (82, 9, 4, 2)
        assert rep.refuted_bound_raw == Fraction(82, 37)
        assert rep.refutation_flag is True

    def test_h8_flag_false(self):
        g, _ = gen_h_delta(8)
        rep = bounds_report(g)
        assert rep.refuted_bound_raw == Fraction(65, 33)
        assert rep.refutation_flag is False

    def test_p6_flag_false(self):
        assert bounds_report(gen_path(6)).refutation_flag is False

    def test_correct_bound_never_exceeds_gamma(self, random_connected_500):
        for g in random_connected_500[:80]:
            rep = bounds_report(g)
            assert math.ceil(rep.correct_bound_raw) <= rep.gamma_p
            assert rep.correct_bound_raw == correct_lower_bound(g)

    def test_ppt_bound_equality_on_p4(self):
        g = gen_path(4)
        rep = bounds_report(g)
        assert rep.ppt_lower_bound == 2 == rep.ppt_graph
        assert ppt_lower_bound(g) == 2

    def test_ppt_bound_matches_the_report_on_the_catalog(self, catalog_conn_8):
        # ppt_lower_bound stops at the first hit; the report lists every witness
        graphs = [g for g in catalog_conn_8 if 2 <= g.n <= 7]
        assert len(graphs) == 995
        for g in graphs:
            assert ppt_lower_bound(g) == bounds_report(g).ppt_lower_bound, g.edges()

    def test_tree_bound_values(self):
        assert tree_lower_bound(gen_path(4)) == 1
        assert tree_lower_bound(gen_star(5)) == 1
        assert bounds_report(gen_cycle(5)).tree_bound is None

    def test_tree_bound_rejects_non_trees_and_tiny_trees(self):
        with pytest.raises(ValueError):
            tree_lower_bound(gen_cycle(4))
        with pytest.raises(ValueError):
            tree_lower_bound(gen_path(2))

    def test_json_shape(self):
        g, _ = gen_h_delta(9)
        d = bounds_report(g).to_json_dict()
        assert d["refuted_bound_raw"] == {"num": 82, "den": 37}
        assert d["refutation_flag"] is True
        assert "tree_bound" not in d
        t = bounds_report(gen_path(5)).to_json_dict()
        assert t["tree_bound"] == 1

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            bounds_report(Graph(4, [(0, 1), (2, 3)]))

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            bounds_report(Graph(1))
        with pytest.raises(ValueError):
            ppt_lower_bound(Graph(1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bounds_report(Graph(0))


class TestThreshold:
    def test_flag_exactly_at_delta_nine(self):
        for delta in range(3, 13):
            g, _ = gen_h_delta(delta)
            rep = bounds_report(g)
            assert rep.refutation_flag == (delta >= 9), delta
            # closed form of the same verdict
            assert rep.refutation_flag == (delta * delta - 8 * delta - 1 > 0)
