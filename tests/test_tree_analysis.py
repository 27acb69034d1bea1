"""Leaf-seed repair and the tree diameter certificate."""

import itertools
import tracemalloc

import pytest

from powerdom import tree_analysis
from powerdom.errors import InternalConsistencyError, SearchBudgetExceeded
from powerdom.families import gen_cycle, gen_path, gen_random_tree, gen_spider, gen_star
from powerdom.graph import Graph
from powerdom.propagation import is_pds, ppt_of_set, propagate
from powerdom.solver import _Budget, _rep_search, gamma_p
from powerdom.trails import extract_monotone_trail
from powerdom.tree_analysis import TreeCertificate, repair_leaf_seeds, verify_tree_diameter_bound


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


# -- reference certificate -----------------------------------------------
#
# The leaf repair, and the certificate's witness choice and trail, as they
# stood before the repair took the solver's ppt and made one pass over the
# leaves; copied unchanged apart from names, with the certificate's checks
# left out. The certificates must agree with them field for field.


def ref_repair(t, s):
    ppt_before = ppt_of_set(t, s)
    cur = set(s)
    while True:
        leaves = sorted(v for v in cur if t.degree(v) == 1)
        if not leaves:
            break
        v = leaves[0]
        (u,) = t.neighbors(v)
        if u in cur:
            # minimality would let us drop v outright, shrinking the set
            raise InternalConsistencyError(
                f"leaf seed {v} has its neighbor {u} already in the set"
            )
        cur.remove(v)
        cur.add(u)
        if not is_pds(t, cur):
            raise InternalConsistencyError(
                f"replacing leaf {v} by {u} broke power domination"
            )
    result = frozenset(cur)
    if len(result) != len(s) or ppt_of_set(t, result) > ppt_before:
        raise InternalConsistencyError(
            "leaf repair changed cardinality or increased propagation time"
        )
    return result


def ref_certificate(t):
    diam = t.diameter()
    result = gamma_p(t)

    best_original = None
    best_repaired = None
    for witness in result.witnesses:
        if witness.ppt != result.ppt_graph:
            continue
        repaired = ref_repair(t, frozenset(witness.vertices))
        key = tuple(sorted(repaired))
        if best_repaired is None or key < tuple(sorted(best_repaired)):
            best_original = frozenset(witness.vertices)
            best_repaired = repaired

    ppt_original = result.ppt_graph
    ppt_repaired = ppt_of_set(t, best_repaired)
    trace = propagate(t, best_repaired)
    t_max = max(trace.time_label)
    v = min(u for u in range(t.n) if trace.time_label[u] == t_max)
    trail = extract_monotone_trail(t, trace, v)
    return TreeCertificate(
        original_set=best_original,
        repaired_set=best_repaired,
        ppt_original=ppt_original,
        ppt_repaired=ppt_repaired,
        diam=diam,
        witness_trail=trail,
    )


class TestMatchesReference:
    def test_certificates_on_random_trees(self, random_trees_200):
        for t in random_trees_200:
            assert verify_tree_diameter_bound(t).to_json_dict() == ref_certificate(t).to_json_dict()

    def test_certificates_on_paths_stars_spiders(self):
        trees = (
            [gen_path(n) for n in range(3, 13)]
            + [gen_star(k) for k in range(2, 9)]
            + [gen_spider(legs, leg_len) for legs in range(2, 6) for leg_len in range(1, 5)]
        )
        for t in trees:
            assert verify_tree_diameter_bound(t).to_json_dict() == ref_certificate(t).to_json_dict()

    def test_repair_of_every_minimum_witness(self, random_trees_200):
        for t in random_trees_200[:40]:
            for witness in gamma_p(t).witnesses:
                assert repair_leaf_seeds(t, witness.vertices) == ref_repair(
                    t, frozenset(witness.vertices)
                )


def test_benchmark_accepts_every_reference_tree_certificate(perfbench_sparse):
    # the benchmark's own tree-certificate check on every tree its
    # reference answers cover
    workloads, ref = perfbench_sparse
    keys = [key for key in ref if key.startswith("tree-")]
    assert len(keys) == 480
    for key in keys:
        _, n, i = key.split("-")
        g = workloads.pool_graph("tree", int(n), int(i))
        workloads._check_tree_cert(g, verify_tree_diameter_bound(g), ref[key], key)


# -- search over representatives ------------------------------------------
#
# The certificate takes gamma_P, ppt and the repaired set from the search
# over representatives, then the original set from the product over the
# repaired vertices u of (u, u's leaves), drawn lazily in sorted order.
# Two trees drawn by hand:
#
#   FORK:   0 - 1 - 2 - 6        1 carries leaf 0 and the path 1-2-6;
#               |                4 carries leaves 3 and 5, so it has three
#           3 - 4 - 5            choices in the product
#
#   TWO_SWAPS: 7 carries leaves 0 and 2, 4 carries leaves 3 and 5, and 1
#   carries leaf 9 and the path 1-6-8; the original swaps both 7 and 4.

FORK = Graph(7, [(0, 1), (1, 2), (1, 4), (2, 6), (3, 4), (4, 5)])
TWO_SWAPS = Graph(10, [(0, 7), (1, 6), (1, 7), (1, 9), (2, 7), (3, 4), (4, 5), (4, 7), (6, 8)])
# two stars K_{1,5} with their centres 0 and 1 joined
DOUBLE_STAR = Graph(12, [(0, 1)] + [(0, v) for v in range(2, 7)] + [(1, v) for v in range(7, 12)])


def caterpillar(k: int) -> Graph:
    """The spine 0 - 1 - ... - k-1, spine vertex i with leaves k+2i and k+2i+1."""
    edges = [(i, i + 1) for i in range(k - 1)]
    return Graph(3 * k, edges + [(i, k + 2 * i + j) for i in range(k) for j in range(2)])


CATERPILLAR = caterpillar(3)


def _search_units(t) -> int:
    budget = _Budget(10**6)
    list(_rep_search(t, budget, t.n))
    return budget.used


def _leaves(t, u) -> set:
    return {v for v in t.neighbors(u) if t.degree(v) == 1}


class TestRepresentativesSearch:
    def test_pool_trees_match_reference(self, perfbench_sparse):
        workloads, ref = perfbench_sparse
        keys = [key for key in ref if key.startswith("tree-")]
        assert len(keys) == 480
        for key in keys:
            _, n, i = key.split("-")
            t = workloads.pool_graph("tree", int(n), int(i))
            assert verify_tree_diameter_bound(t) == ref_certificate(t), key

    @pytest.mark.parametrize(
        "t,original,repaired",
        [(FORK, {1, 3}, {1, 4}), (TWO_SWAPS, {0, 1, 3}, {1, 4, 7})],
        ids=["fork", "two_swaps"],
    )
    def test_original_differs_from_repaired(self, t, original, repaired):
        cert = verify_tree_diameter_bound(t)
        assert (cert.original_set, cert.repaired_set) == (original, repaired)
        assert cert == ref_certificate(t)

    def test_repaired_vertex_with_two_leaves(self):
        cert = verify_tree_diameter_bound(FORK)
        assert _leaves(FORK, 4) == {3, 5} and _leaves(FORK, 1) == {0}
        # 4 gave way to the smaller of its two leaves; 5 also runs in ppt steps
        assert cert.original_set - cert.repaired_set == {3}
        assert ppt_of_set(FORK, {1, 5}) == cert.ppt_repaired
        # (0, 3), (0, 4), (0, 5) and (1, 3), the first four candidates of
        # (1, 0) x (4, 3, 5), cost a unit each beyond the search
        units = _search_units(FORK) + 4
        assert verify_tree_diameter_bound(FORK, work_limit=units) == cert
        with pytest.raises(SearchBudgetExceeded):
            verify_tree_diameter_bound(FORK, work_limit=units - 1)

    @pytest.mark.parametrize(
        "t,units", [(gen_star(8), 3), (DOUBLE_STAR, 7)], ids=["star", "double_star"]
    )
    def test_vertex_with_three_leaves_is_its_only_choice(self, t, units):
        # one candidate beyond the search, where listing every centre's
        # leaves charged 9 (star) and 6 x 6 (double star)
        assert units == _search_units(t) + 1
        assert verify_tree_diameter_bound(t, work_limit=units) == ref_certificate(t)
        with pytest.raises(SearchBudgetExceeded):
            verify_tree_diameter_bound(t, work_limit=units - 1)

    def test_original_swaps_two_repaired_vertices(self):
        cert = verify_tree_diameter_bound(TWO_SWAPS)
        assert cert.repaired_set - cert.original_set == {4, 7}
        assert cert.original_set - cert.repaired_set == {0, 3}
        assert 0 in _leaves(TWO_SWAPS, 7) and 3 in _leaves(TWO_SWAPS, 4)


class TestBudget:
    def test_needs_fewer_units_than_gamma_p(self):
        # every minimum PDS costs 167 units; representatives and the tested
        # candidates 46
        t = gen_random_tree(16, 5)
        cert = verify_tree_diameter_bound(t, work_limit=46)
        assert cert == ref_certificate(t)
        with pytest.raises(SearchBudgetExceeded):
            gamma_p(t, work_limit=46)
        with pytest.raises(SearchBudgetExceeded, match="46 units used"):
            verify_tree_diameter_bound(t, work_limit=45)

    def test_only_tested_candidates_are_charged(self):
        # 14 units of search, then the first of the 3 x 3 x 3 candidates,
        # the spine itself, which attains ppt
        units = _search_units(CATERPILLAR) + 1
        with pytest.raises(SearchBudgetExceeded, match=f"{units} units used"):
            verify_tree_diameter_bound(CATERPILLAR, work_limit=units - 1)
        cert = verify_tree_diameter_bound(CATERPILLAR, work_limit=units)
        assert cert == ref_certificate(CATERPILLAR)
        assert cert.original_set == {0, 1, 2}

    def test_candidates_are_never_all_built(self):
        # 3^12 candidates: building and sorting them all peaked at 78 MB
        t = caterpillar(12)
        tracemalloc.start()
        try:
            cert = verify_tree_diameter_bound(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.original_set == set(range(12))
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize(
        "groups", [[(7, 0, 2), (1, 9), (4, 3, 5), (6,)], [(1, 8), (0,), (2, 3, 9)], [(5,)]]
    )
    def test_candidates_in_sorted_order(self, groups):
        want = sorted(tuple(sorted(c)) for c in itertools.product(*groups))
        assert list(tree_analysis._sorted_picks(groups)) == want


def test_kernel_runs_and_units_on_pool_trees(perfbench_sparse, kernel_runs, monkeypatch):
    # listing every minimum PDS took 11,961 fixed_point runs and 23,450 units;
    # every leaf of a vertex with three or more in the product, 6,477 and
    # 12,951; charging the whole product before the first test, 6,306 and 12,563
    budgets = []

    class RecordingBudget(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(tree_analysis, "_Budget", RecordingBudget)
    workloads, ref = perfbench_sparse
    for key in ref:
        if key.startswith("tree-"):
            _, n, i = key.split("-")
            verify_tree_diameter_bound(workloads.pool_graph("tree", int(n), int(i)))
    assert len(budgets) == 480
    assert len(kernel_runs) <= 6306
    assert sum(b.used for b in budgets) <= 11321
