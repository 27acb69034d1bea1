"""Leaf-seed repair and the tree diameter certificate."""

import pytest

from powerdom.families import gen_cycle, gen_path, gen_random_tree, gen_spider, gen_star
from powerdom.propagation import ppt_of_set
from powerdom.solver import gamma_p
from powerdom.tree_analysis import repair_leaf_seeds, verify_tree_diameter_bound


class TestRepair:
    def test_p3_leaf_moves_to_center(self):
        t = gen_path(3)
        repaired = repair_leaf_seeds(t, {0})
        assert repaired == {1}
        assert ppt_of_set(t, {0}) == 2 and ppt_of_set(t, repaired) == 1

    def test_p3_center_unchanged(self):
        assert repair_leaf_seeds(gen_path(3), {1}) == {1}

    def test_p5_end_seed(self):
        t = gen_path(5)
        repaired = repair_leaf_seeds(t, {0})
        assert repaired == {1}
        assert ppt_of_set(t, {0}) == 4 and ppt_of_set(t, repaired) == 3

    def test_star_leaf_not_minimum(self):
        # gamma_P(K_{1,4}) = 1 with center witness; a leaf is not a PDS
        with pytest.raises(ValueError, match="power dominating"):
            repair_leaf_seeds(gen_star(4), {1})

    def test_oversized_set_rejected(self):
        with pytest.raises(ValueError, match="minimum"):
            repair_leaf_seeds(gen_path(4), {0, 3})

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError, match="not a tree"):
            repair_leaf_seeds(gen_cycle(4), {0})

    def test_tiny_tree_rejected(self):
        with pytest.raises(ValueError, match="n >= 3"):
            repair_leaf_seeds(gen_path(2), {0})

    def test_output_invariants_on_random_trees(self, random_trees_200):
        for t in random_trees_200[:40]:
            witness = gamma_p(t).witnesses[0]
            repaired = repair_leaf_seeds(t, witness.vertices)
            assert len(repaired) == len(witness.vertices)
            assert all(t.degree(v) >= 2 for v in repaired)
            assert ppt_of_set(t, repaired) <= witness.ppt


class TestCertificate:
    def test_p4(self):
        cert = verify_tree_diameter_bound(gen_path(4))
        assert (cert.ppt_repaired, cert.diam) == (2, 3)
        assert cert.witness_trail.length >= 3
        assert cert.ppt_repaired + 1 <= cert.diam

    def test_star_k15(self):
        cert = verify_tree_diameter_bound(gen_star(5))
        assert (cert.ppt_repaired, cert.diam) == (1, 2)

    def test_seeded_tree_n12(self):
        t = gen_random_tree(12, 7)
        cert = verify_tree_diameter_bound(t)
        assert cert.ppt_repaired + 1 <= cert.diam

    def test_certificate_fields_cohere(self):
        t = gen_spider(3, 3)
        cert = verify_tree_diameter_bound(t)
        assert cert.ppt_original == cert.ppt_repaired == gamma_p(t).ppt_graph
        assert cert.diam == t.diameter()
        assert len(cert.repaired_set) == len(cert.original_set)
        assert all(t.degree(v) >= 2 for v in cert.repaired_set)
        # simple path: no vertex repeats in a tree trail
        vs = cert.witness_trail.vertices
        assert len(set(vs)) == len(vs)

    def test_json_shape(self):
        d = verify_tree_diameter_bound(gen_path(4)).to_json_dict()
        assert set(d) == {
            "original_set",
            "repaired_set",
            "ppt_original",
            "ppt_repaired",
            "diam",
            "witness_trail",
        }
        assert d["witness_trail"]["length"] >= d["ppt_repaired"] + 1

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError):
            verify_tree_diameter_bound(gen_cycle(5))

    def test_non_tree_contrast_exists(self):
        # the diameter comparison genuinely fails off trees
        g = gen_cycle(4)
        result = gamma_p(g)
        assert result.ppt_graph > g.diameter() - 1
