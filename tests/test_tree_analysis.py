"""Leaf-seed repair and the tree diameter certificate."""

import itertools
import tracemalloc

import pytest

from powerdom import tree_analysis
from powerdom.errors import InternalConsistencyError, SearchBudgetExceeded
from powerdom.families import gen_cycle, gen_path, gen_random_tree, gen_spider, gen_star
from powerdom.graph import Graph
from powerdom.propagation import is_pds, ppt_of_set, propagate
from powerdom.solver import _Budget, _branch_search, gamma_p
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
# over representatives, then the original set from one greedy pass over the
# swaps of a repaired u for a leaf below it, smallest leaf first. Two trees
# drawn by hand:
#
#   FORK:   0 - 1 - 2 - 6        1 carries leaf 0 and the path 1-2-6;
#               |                4 carries leaves 3 and 5, so its one swap
#           3 - 4 - 5            is 4 -> 3
#
#   TWO_SWAPS: 7 carries leaves 0 and 2, 4 carries leaves 3 and 5, and 1
#   carries leaf 9 and the path 1-6-8; the original swaps both 7 and 4.

FORK = Graph(7, [(0, 1), (1, 2), (1, 4), (2, 6), (3, 4), (4, 5)])
TWO_SWAPS = Graph(10, [(0, 7), (1, 6), (1, 7), (1, 9), (2, 7), (3, 4), (4, 5), (4, 7), (6, 8)])
# two stars K_{1,5} with their centres 0 and 1 joined
DOUBLE_STAR = Graph(12, [(0, 1)] + [(0, v) for v in range(2, 7)] + [(1, v) for v in range(7, 12)])


def caterpillar(k: int, low_leaves: bool = False) -> Graph:
    """A spine of k vertices, the i-th with two leaves: the spine 0 - ... - k-1
    with leaves k+2i and k+2i+1, or with low_leaves the spine 2k - ... - 3k-1
    with leaves 2i and 2i+1, below every spine vertex."""
    spine, first = (range(2 * k, 3 * k), 0) if low_leaves else (range(k), k)
    edges = [(spine[i], spine[i + 1]) for i in range(k - 1)]
    return Graph(3 * k, edges + [(spine[i], first + 2 * i + j) for i in range(k) for j in range(2)])


CATERPILLAR = caterpillar(3)


def _search_units(t) -> int:
    budget = _Budget(10**6)
    list(_branch_search(t, budget, t.representatives, t.n))
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
        # the swaps 1 -> 0 (rejected) and 4 -> 3 (kept) cost a unit each
        # beyond the search; the sorted candidate walk tested four sets
        units = _search_units(FORK) + 2
        assert verify_tree_diameter_bound(FORK, work_limit=units) == cert
        with pytest.raises(SearchBudgetExceeded):
            verify_tree_diameter_bound(FORK, work_limit=units - 1)

    @pytest.mark.parametrize(
        "t,units", [(gen_star(8), 2), (DOUBLE_STAR, 3)], ids=["star", "double_star"]
    )
    def test_vertex_with_three_leaves_is_its_only_choice(self, t, units):
        # no swap is tested beyond the search, where the sorted walk charged
        # one candidate and listing every centre's leaves 9 (star) and
        # 6 x 6 (double star); twin leaves force both centres of the double
        # star, whose search took 6 units before they were pooled
        assert units == _search_units(t)
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
        # every minimum PDS costs 132 units; representatives and the tested
        # swaps 29 (167 and 46 before twin forts and the packing floor)
        t = gen_random_tree(16, 5)
        cert = verify_tree_diameter_bound(t, work_limit=29)
        assert cert == ref_certificate(t)
        assert gamma_p(t, work_limit=132) == gamma_p(t)
        with pytest.raises(SearchBudgetExceeded, match="132 units used"):
            gamma_p(t, work_limit=131)
        with pytest.raises(SearchBudgetExceeded, match="29 units used"):
            verify_tree_diameter_bound(t, work_limit=28)

    def test_only_tested_candidates_are_charged(self):
        # 14 units of search and none beyond: every leaf is above its spine
        # vertex, so no swap is tested (the sorted walk tested the spine)
        units = _search_units(CATERPILLAR)
        with pytest.raises(SearchBudgetExceeded, match=f"{units} units used"):
            verify_tree_diameter_bound(CATERPILLAR, work_limit=units - 1)
        cert = verify_tree_diameter_bound(CATERPILLAR, work_limit=units)
        assert cert == ref_certificate(CATERPILLAR)
        assert cert.original_set == {0, 1, 2}

    def test_candidates_are_never_all_built(self):
        # 3^12 candidates with the spine the last in sorted order: building
        # and sorting them all peaked at 78 MB
        t = caterpillar(12, low_leaves=True)
        tracemalloc.start()
        try:
            cert = verify_tree_diameter_bound(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.original_set == set(range(24, 36))
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize("low_leaves", [False, True], ids=["high", "low"])
    def test_two_leaf_caterpillar_search_is_linear(self, low_leaves):
        # twin leaves pool {u} for each of the 12 spine vertices u; these
        # 12 disjoint sets skip k < 12 without a node, and k = 12 is the
        # root, 11 inner nodes and one leaf, where 2^13 - 2 = 8,190 units
        # went before
        assert _search_units(caterpillar(12, low_leaves)) == 13

    def test_low_leaf_caterpillar_costs_two_units_per_spine_vertex(self):
        # every swap is tested and rejected: 24 units beyond the search,
        # where the sorted candidate walk needed 3^12 = 531,441 more
        t = caterpillar(12, low_leaves=True)
        units = _search_units(t) + 24
        assert verify_tree_diameter_bound(t, work_limit=units).original_set == set(range(24, 36))
        with pytest.raises(SearchBudgetExceeded, match=f"{units} units used"):
            verify_tree_diameter_bound(t, work_limit=units - 1)


# -- brute-force oracle for the original set ---------------------------------
#
# The least sorted set in the whole product over the repaired vertices u of
# (u, u's leaves), or (u,) when u has three or more, that reaches V in ppt
# steps, found by building and sorting the product.


def least_original(t, repaired, ppt):
    groups = []
    for u in repaired:
        leaves = _leaves(t, u)
        groups.append((u, *leaves) if len(leaves) < 3 else (u,))
    for cand in sorted(tuple(sorted(c)) for c in itertools.product(*groups)):
        trace = propagate(t, cand)
        if trace.complete and trace.steps == ppt:
            return frozenset(cand)
    raise AssertionError("no candidate, not even the repaired set, reaches V in ppt steps")


def _oracle_trees():
    yield from (gen_random_tree(3 + s % 38, s) for s in range(300))
    yield from (gen_spider(legs, n) for legs in range(1, 7) for n in range(1, 6) if legs * n >= 2)
    yield from (caterpillar(k, low) for k in range(2, 9) for low in (False, True))


def test_original_set_matches_brute_force_oracle():
    for t in _oracle_trees():
        cert = verify_tree_diameter_bound(t)
        assert cert.original_set == least_original(t, cert.repaired_set, cert.ppt_repaired)


def test_kernel_runs_and_units_on_pool_trees(perfbench_sparse, kernel_runs, monkeypatch):
    # listing every minimum PDS took 11,961 fixed_point runs and 23,450 units;
    # every leaf of a vertex with three or more in the product, 6,477 and
    # 12,951; charging the whole product before the first test, 6,306 and
    # 12,563; the sorted candidate walk, 6,306 and 11,321; the greedy swap
    # pass, 5,658 and 10,673; pooling twin forts with the packing floor,
    # 4,047 and 7,073
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
    assert len(kernel_runs) <= 4047
    assert sum(b.used for b in budgets) <= 7073
