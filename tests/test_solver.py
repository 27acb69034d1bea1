"""Exact solver: gamma_P, all minimum witnesses, ppt(G), l-round numbers."""

import itertools
from collections import deque
from itertools import combinations

import pytest

from powerdom import solver
from powerdom.bounds import bounds_report, ppt_lower_bound
from powerdom.cli import counterexample_demo
from powerdom.catalog import nonisomorphic_graphs
from powerdom.errors import SearchBudgetExceeded
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
from powerdom.graph import Graph
from powerdom.propagation import is_pds, ppt_of_set, propagate
from powerdom.solver import (
    DEFAULT_WORK_LIMIT,
    GammaResult,
    PdsSolution,
    _TWIN_MIN_N,
    _Budget,
    _branch_search,
    _gamma_ppt,
    gamma_p,
    l_round_number,
    ppt_graph,
)
from powerdom.tree_analysis import repair_leaf_seeds, verify_tree_diameter_bound


def brute_minimum_sets(g):
    """All minimum PDSs by plain subset enumeration (smallest k wins), in
    lexicographic order."""
    for k in range(1, g.n + 1):
        found = [c for c in itertools.combinations(range(g.n), k) if is_pds(g, c)]
        if found:
            return k, found
    raise AssertionError("unreachable: V(G) always power dominates")


def exhaustive_gamma_connected(g: Graph, budget: _Budget) -> GammaResult:
    """The k-subset solver that the fort search replaced, kept verbatim as
    a reference for graphs too large for brute_minimum_sets."""
    core = g.core
    full = g.full_mask
    for k in range(1, g.n + 1):
        witnesses = []
        for combo in combinations(range(g.n), k):
            start = 0
            for v in combo:
                start |= 1 << v
            budget.spend()
            final, steps = core.fixed_point(start)
            if final == full:
                witnesses.append(PdsSolution(combo, steps))
        if witnesses:
            return GammaResult(
                gamma_p=k,
                witnesses=tuple(witnesses),
                ppt_graph=min(w.ppt for w in witnesses),
            )
    raise AssertionError("S = V(G) always power dominates; unreachable")


def exhaustive_corpus():
    yield from (gen_h_delta(delta)[0] for delta in range(3, 13))
    for seed in range(40):
        n = 11 + seed % 6
        yield gen_random_connected(n, n - 1 + (seed * 7) % (n + 1), seed)


def exhaustive_representatives(g: Graph) -> list[int]:
    """Vertices x such that no other vertex y has N[x] strictly inside N[y],
    or N[x] = N[y] and y < x, tested over every ordered pair (x, y)."""
    closed = [g.neighbors(v) | {v} for v in range(g.n)]
    return [
        x
        for x in range(g.n)
        if not any(
            closed[x] < closed[y] or (closed[x] == closed[y] and y < x)
            for y in range(g.n)
            if y != x
        )
    ]


def exhaustive_l_round_connected(g: Graph, l: int, budget: _Budget) -> int:
    """The k-subset l-round search over representatives that the branching
    search replaced, kept verbatim as a reference."""
    core = g.core
    full = g.full_mask
    reps = exhaustive_representatives(g)
    for k in range(1, len(reps) + 1):
        budget.k = k
        for combo in combinations(reps, k):
            start = 0
            for v in combo:
                start |= 1 << v
            budget.spend()
            final, steps = core.fixed_point(start)
            if final == full and steps <= l:
                return k
    raise AssertionError("the representatives dominate G in one round; unreachable")


def l_round_differential_corpus():
    for seed in range(36):
        n = 11 + seed % 6
        yield gen_random_connected(n, n - 1 + (seed * 5) % (n + 1), 1000 + seed)
        yield gen_random_tree(n, 2000 + seed)


def tree_domination_number(t: Graph) -> int:
    """Domination number of a tree by the linear-time labelling algorithm of
    Cockayne, Goodman & Hedetniemi (Inf. Process. Lett. 4, 1975). Vertices
    are removed leaves first. A removed vertex that still needs a dominator
    makes its parent required; a required vertex joins the set and frees a
    parent that still needed one."""
    bound, free, required = 0, 1, 2
    parent = [-1] * t.n
    order = [0]
    queue = deque([0])
    seen = {0}
    while queue:
        u = queue.popleft()
        for w in sorted(t.neighbors(u)):
            if w not in seen:
                seen.add(w)
                parent[w] = u
                order.append(w)
                queue.append(w)
    label = [bound] * t.n
    size = 0
    for v in reversed(order[1:]):
        u = parent[v]
        if label[v] == bound:
            label[u] = required
        elif label[v] == required:
            size += 1
            if label[u] == bound:
                label[u] = free
    return size + (label[0] != free)


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
        for solve in (gamma_p, ppt_graph, lambda g: l_round_number(g, 1)):
            with pytest.raises(ValueError, match="power domination of the empty graph"):
                solve(Graph(0))


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
        assert [w.vertices for w in result.witnesses] == brute
        for w in result.witnesses:
            assert w.ppt == ppt_of_set(g, w.vertices)

    def test_catalog_witnesses_match_all_subsets_oracle(self, catalog_conn_8):
        for g in catalog_conn_8:
            _, brute = brute_minimum_sets(g)
            expect = tuple((s, ppt_of_set(g, s)) for s in brute)
            got = tuple((w.vertices, w.ppt) for w in gamma_p(g).witnesses)
            assert got == expect, f"n={g.n} {g.edges()}"

    def test_matches_exhaustive_solver(self):
        for g in exhaustive_corpus():
            assert g.is_connected()
            expect = exhaustive_gamma_connected(g, _Budget(10**9))
            assert gamma_p(g) == expect, f"n={g.n} {g.edges()}"

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

    def test_ppt_without_the_witness_product(self):
        # eight disjoint C_10: 10^8 combined witnesses, none of them built
        g = Graph(80, [(10 * c + i, 10 * c + (i + 1) % 10) for c in range(8) for i in range(10)])
        assert ppt_graph(g) == 5

    def test_ppt_matches_the_combined_witnesses(self, catalog_all_8):
        unions = [g for g in catalog_all_8 if g.n <= 6 and not g.is_connected()]
        # every graph on at most 6 vertices less the connected ones
        assert len(unions) == 65
        for g in unions:
            result = gamma_p(g)
            assert ppt_graph(g) == result.ppt_graph, g.edges()
            assert result.ppt_graph == min(w.ppt for w in result.witnesses), g.edges()


class TestCap:
    """The first hit over representatives, under the work cap, against
    gamma_p: a power dominating set of gamma_P vertices, and l_round_number
    with l = n, which stops at that hit, equal to gamma_P."""

    @staticmethod
    def assert_capped_search_matches(g, gp):
        hit, _ = next(_branch_search(g, _Budget(DEFAULT_WORK_LIMIT), g.representatives, g.n))
        assert len(hit) == gp and is_pds(g, hit), g.edges()
        assert l_round_number(g, g.n) == gp, g.edges()

    def test_capped_search_matches_gamma_p(self, catalog_conn_8):
        corpus = [g for g in catalog_conn_8 if g.n <= 7]
        corpus += [gen_h_delta(delta)[0] for delta in range(3, 9)]
        for g in corpus:
            self.assert_capped_search_matches(g, gamma_p(g).gamma_p)

    def test_sparse_pool_matches_reference(self, perfbench_sparse):
        workloads, ref = perfbench_sparse
        assert len(ref) == 840
        for key, want in ref.items():
            kind, n, i = key.split("-")
            self.assert_capped_search_matches(
                workloads.pool_graph(kind, int(n), int(i)), want["gamma_p"]
            )

    def test_no_singleton_on_certified_rows(self):
        for delta in range(13, 17):
            g, _ = gen_h_delta(delta)
            assert l_round_number(g, g.n) == 2, delta

    def test_first_hit_ends_the_search(self):
        # H_9: the first hit at k = 2 costs 30 units, every hit over V far more
        g, _ = gen_h_delta(9)
        assert l_round_number(g, g.n, work_limit=30) == 2
        with pytest.raises(SearchBudgetExceeded):
            l_round_number(g, g.n, work_limit=29)
        with pytest.raises(SearchBudgetExceeded):
            gamma_p(g, work_limit=30)

    def test_cap_is_charged(self):
        # H_9: the root and one leaf per representative exhaust k = 1 in 27 units
        g, _ = gen_h_delta(9)
        with pytest.raises(SearchBudgetExceeded, match="27 units used with the search at k = 1"):
            l_round_number(g, g.n, work_limit=26)
        with pytest.raises(SearchBudgetExceeded, match="28 units used with the search at k = 2"):
            l_round_number(g, g.n, work_limit=27)


class TestRepresentativesSearch:
    """gamma_P and ppt from every hit over representatives, with no witness
    list, against gamma_p's search over all of V."""

    @staticmethod
    def assert_matches_gamma_p(g):
        result = gamma_p(g)
        want = (result.gamma_p, result.ppt_graph)
        assert _gamma_ppt(g, DEFAULT_WORK_LIMIT) == want, g.edges()
        assert ppt_graph(g) == result.ppt_graph, g.edges()
        short = gamma_p(g, witnesses=False)
        assert (short.gamma_p, short.ppt_graph, short.witnesses) == (*want, ()), g.edges()
        if g.n >= 2 and g.is_connected():
            report = bounds_report(g)
            assert (report.gamma_p, report.ppt_graph) == want, g.edges()

    def test_every_graph_up_to_seven_vertices(self, catalog_all_8):
        small = [g for g in catalog_all_8 if g.n <= 7]
        assert len(small) == 1252
        for g in small:
            self.assert_matches_gamma_p(g)

    def test_sparse_pool(self, perfbench_sparse):
        workloads, ref = perfbench_sparse
        assert len(ref) == 840
        for key in ref:
            kind, n, i = key.split("-")
            self.assert_matches_gamma_p(workloads.pool_graph(kind, int(n), int(i)))

    def test_h_delta(self):
        for delta in range(3, 13):
            self.assert_matches_gamma_p(gen_h_delta(delta)[0])

    def test_budget_covers_only_the_representatives(self):
        # H_9: 177 units over representatives, where gamma_p with its
        # witness list needs more; a fall-back to that search would raise
        g, _ = gen_h_delta(9)
        assert _gamma_ppt(g, 177) == (2, 33)
        assert ppt_graph(g, work_limit=177) == 33
        assert gamma_p(g, work_limit=177, witnesses=False).ppt_graph == 33
        assert bounds_report(g, work_limit=177).ppt_graph == 33
        for call in (_gamma_ppt, ppt_graph, bounds_report):
            with pytest.raises(SearchBudgetExceeded):
                call(g, 176)
        with pytest.raises(SearchBudgetExceeded):
            gamma_p(g, work_limit=177)

    def test_twins_leave_one_representative(self):
        # in K_6 every vertex is a twin of 0, so the root and the leaf {0}
        # are the whole search, where gamma_p tries all six singletons
        assert _gamma_ppt(gen_complete(6), 2) == (1, 1)
        with pytest.raises(SearchBudgetExceeded):
            _gamma_ppt(gen_complete(6), 1)


def two_vertex_forts(g: Graph):
    """Every pair F = {u, v} that is a fort by the definition: no vertex
    outside F has exactly one neighbour in F."""
    for u, v in combinations(range(g.n), 2):
        if all(len(g.neighbors(x) & {u, v}) != 1 for x in range(g.n) if x not in (u, v)):
            yield u, v


def closed_neighbourhood(g: Graph, vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
        for w in g.neighbors(v):
            mask |= 1 << w
    return mask


class TestTwinForts:
    """The sets pooled before any run: N[F] for one fort F = {u, v} of open
    twins per class."""

    @staticmethod
    def expected(g: Graph) -> list[int]:
        # the pairs of non-adjacent vertices that are forts by the definition
        # are the open twins; each class is a clique of such pairs
        classes = {}
        for u, v in two_vertex_forts(g):
            if v not in g.neighbors(u):
                classes.setdefault(u, {u}).add(v)
                classes.setdefault(v, {v}).add(u)
        least_pairs = {min(c): sorted(c)[:2] for c in classes.values()}
        return sorted(closed_neighbourhood(g, pair) for pair in least_pairs.values())

    @staticmethod
    def corpus():
        yield from (gen_random_tree(n, 9000 + n) for n in range(9, 25))
        yield from (gen_random_connected(n, (5 * n + 2) // 4, 9100 + n) for n in range(9, 17))
        yield from (gen_star(8), gen_spider(3, 3), gen_complete(9), gen_cycle(10))
        # K_{3,6}: two classes, one on each side
        yield Graph(9, [(u, v) for u in range(3) for v in range(3, 9)])

    def test_one_set_per_class_of_open_twins(self):
        found = 0
        for g in self.corpus():
            got = list(g.open_twin_sets)
            assert sorted(got) == self.expected(g), g.edges()
            assert len(got) <= g.n // 2
            found += len(got)
        assert found > 20

    @staticmethod
    def _forbid_twin_sets(monkeypatch):
        def read(g):
            raise AssertionError(f"the search read the twin sets of {g!r}")

        monkeypatch.setattr(Graph, "open_twin_sets", property(read))

    def test_none_below_the_size_gate(self, catalog_conn_8, monkeypatch):
        assert max(g.n for g in catalog_conn_8) < _TWIN_MIN_N
        self._forbid_twin_sets(monkeypatch)
        for g in catalog_conn_8:
            gamma_p(g)
            l_round_number(g, 2)
            ppt_graph(g)

    def test_none_at_l1(self, monkeypatch):
        # a twin set contains N[u], already pooled at l = 1
        self._forbid_twin_sets(monkeypatch)
        for g in (gen_star(8), gen_random_tree(12, 9012), gen_complete(9), gen_cycle(10)):
            assert g.n >= _TWIN_MIN_N
            l_round_number(g, 1)
        # and the patch bites once both gates are open
        with pytest.raises(AssertionError, match="read the twin sets"):
            l_round_number(gen_star(8), 2)

    def test_every_power_dominating_set_meets_every_twin_set(self):
        # seeds whose graphs have two classes of twins, or one
        graphs = [gen_random_tree(9, 9215), gen_random_tree(10, 9213)]
        graphs += [gen_random_connected(9, 10, 9315), gen_random_connected(10, 11, 9310)]
        graphs += [gen_star(8), Graph(9, [(u, v) for u in range(3) for v in range(3, 9)])]
        for g in graphs:
            twins = list(g.open_twin_sets)
            assert twins, g.edges()
            for k in range(1, g.n + 1):
                for s in combinations(range(g.n), k):
                    if is_pds(g, s):
                        mask = sum(1 << v for v in s)
                        assert all(nf & mask for nf in twins), (s, g.edges())

    def test_large_twin_classes_pool_one_set(self):
        # the 3,000 leaves of a star are one class, so one set {0, 1, 2} is
        # pooled where every pair of leaves would give about 4.5 million;
        # the centre is then forced, and the search answers in 4 units
        star = gen_star(3000)
        assert list(star.open_twin_sets) == [0b111]
        assert gamma_p(star, work_limit=4).gamma_p == 1
        with pytest.raises(SearchBudgetExceeded):
            gamma_p(star, work_limit=3)
        # K_{3,2000}: one set per side, N(3) + 3 + 4 and N(0) + 0 + 1
        kab = Graph(2003, [(u, v) for u in range(3) for v in range(3, 2003)])
        assert sorted(kab.open_twin_sets) == [0b11111, (1 << 2003) - 1 - 0b100]

    def test_two_leaves_force_their_neighbour(self):
        # the leaves 7, 8 of 3 pool N[{7, 8}] = {3, 7, 8}, cut to {3} over
        # the representatives {1, ..., 5}: the root and the vertex 3 are
        # the whole search, where 6 units went without the twin set
        g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7), (3, 8)])
        assert g.representatives == 0b111110
        assert list(g.open_twin_sets) == [0b110001000]
        assert _gamma_ppt(g, 2) == (1, 3)
        with pytest.raises(SearchBudgetExceeded):
            _gamma_ppt(g, 1)

    def test_representatives_match_the_definition(self, catalog_conn_8):
        for g in catalog_conn_8:
            assert g.representatives == sum(1 << v for v in exhaustive_representatives(g))


class TestOneSearch:
    """Every caller that needs only gamma_P, ppt or the l-round number
    searches the representatives; gamma_p's witness list alone searches V."""

    @pytest.fixture
    def searched(self, monkeypatch):
        """The (graph, allowed) pair of every _branch_search call."""
        calls = []
        real = solver._branch_search

        def recording(g, budget, allowed, l):
            calls.append((g, allowed))
            return real(g, budget, allowed, l)

        monkeypatch.setattr(solver, "_branch_search", recording)
        return calls

    @staticmethod
    def assert_only_representatives(g, searched, calls):
        for call in calls:
            call(g)
            assert searched, g.edges()
            for h, allowed in searched:
                assert allowed == h.representatives, h.edges()
            searched.clear()
        gamma_p(g)
        assert searched == [(g, g.full_mask)], g.edges()
        searched.clear()

    CALLS = (bounds_report, ppt_lower_bound, ppt_graph, lambda g: l_round_number(g, 1))

    def test_h_delta(self, searched):
        # one search per row, the rows above EXACT_DEMO_DELTA included
        counterexample_demo(3, 16)
        assert len(searched) == 14
        assert all(allowed == g.representatives for g, allowed in searched)
        searched.clear()
        for delta in range(3, 10):
            self.assert_only_representatives(gen_h_delta(delta)[0], searched, self.CALLS)

    def test_sparse_pool_trees(self, searched, perfbench_sparse):
        workloads, ref = perfbench_sparse
        keys = [key for key in ref if key.startswith("tree-")][:20]
        tree_calls = (
            lambda t: repair_leaf_seeds(t, verify_tree_diameter_bound(t).original_set),
            lambda t: l_round_number(t, 2),
        )
        for key in keys:
            _, n, i = key.split("-")
            t = workloads.pool_graph("tree", int(n), int(i))
            self.assert_only_representatives(t, searched, self.CALLS + tree_calls)


@pytest.fixture
def units_spent(monkeypatch):
    """The budget units spent from now, in a list of one count."""
    spent = [0]
    real_spend = _Budget.spend

    def spend(self, units=1):
        spent[0] += units
        real_spend(self, units)

    monkeypatch.setattr(_Budget, "spend", spend)
    return spent


# the sparse benchmark's ops, in its order, and their units and kernel runs
# over every pool entry, verify_tree on the trees alone
SPARSE_POOL_OPS = {
    "gamma_p": gamma_p,
    "l1": lambda g: l_round_number(g, 1),
    "l2": lambda g: l_round_number(g, 2),
    "verify_tree": verify_tree_diameter_bound,
}
SPARSE_POOL_PINS = {
    "gamma_p": (27228, 15141),
    "l1": (5215, 840),
    "l2": (6205, 2598),
    "verify_tree": (7073, 4047),
}


def test_units_and_kernel_runs_on_the_sparse_pool(perfbench_sparse, kernel_runs, units_spent):
    # pins the traversal: a change to how a node finds its missed sets or
    # its branch set, or to the pool's order, moves these exact counts
    workloads, ref = perfbench_sparse
    got = {}
    for name, op in SPARSE_POOL_OPS.items():
        units_spent[0] = 0
        kernel_runs.clear()
        for key in ref:
            kind, n, i = key.split("-")
            if kind == "tree" or name != "verify_tree":
                # a fresh Graph per op, so no op inherits another's lazy state
                op(workloads.pool_graph(kind, int(n), int(i)))
        got[name] = (units_spent[0], len(kernel_runs))
    assert got == SPARSE_POOL_PINS


@pytest.mark.parametrize("reverse", [False, True], ids=["benchmark-order", "reversed"])
def test_ops_sharing_one_graph_keep_the_sparse_pool_pins(
    perfbench_sparse, kernel_runs, units_spent, reverse
):
    # one Graph per pool entry runs every op, as the benchmark's do: what an
    # op keeps on the graph (connectivity, representatives, twin sets, the
    # engine) must change no other op's answer, units or kernel runs
    workloads, ref = perfbench_sparse
    graphs = {}
    for key in ref:
        kind, n, i = key.split("-")
        graphs[key] = (kind, workloads.pool_graph(kind, int(n), int(i)))
    names = list(SPARSE_POOL_OPS)
    got = {}
    for name in reversed(names) if reverse else names:
        units_spent[0] = 0
        kernel_runs.clear()
        for key, (kind, g) in graphs.items():
            want = ref[key]
            if name == "gamma_p":
                res = gamma_p(g)
                assert (res.gamma_p, len(res.witnesses), res.ppt_graph) == (
                    want["gamma_p"], want["witnesses"], want["ppt"]
                ), key
            elif name == "verify_tree" and kind == "tree":
                cert = verify_tree_diameter_bound(g)
                assert (cert.diam, cert.ppt_repaired) == (want["diam"], want["ppt"]), key
            elif name != "verify_tree":
                assert SPARSE_POOL_OPS[name](g) == want[name], key
        got[name] = (units_spent[0], len(kernel_runs))
    assert got == SPARSE_POOL_PINS


def test_no_set_is_propagated_twice_in_one_search(kernel_runs, units_spent):
    # only leaves run: an inner node that misses no pooled set was a leaf of
    # a smaller k, so a run there would repeat that leaf's start mask
    cases = [(g, l) for g in l_round_corpus() for l in (2, 3)]
    cases += [(gen_h_delta(delta)[0], 2) for delta in (5, 6)]
    for g, l in cases:
        g = Graph(g.n, g.edges())  # a fresh core, whose runs are counted
        for comp in g.components():
            part = g.subgraph(comp)
            units_spent[0] = 0
            kernel_runs.clear()
            l_round_number(part, l)
            assert len(set(kernel_runs)) == len(kernel_runs), (l, part.n, part.edges())
    # H_6 at l = 2, the last case; a run at inner nodes as well would make
    # 10,250 runs on these 6,886 sets
    assert (units_spent[0], len(kernel_runs)) == (10346, 6886)


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

    def test_packing_floor_skips_refuted_levels(self):
        # H_9 at l = 1: nine pairwise disjoint sets N[u] skip k = 1..8
        # without a node, and k = 9 costs 10 units; the search ran for
        # minutes before the floor
        g, _ = gen_h_delta(9)
        assert l_round_number(g, 1, work_limit=10) == 9
        with pytest.raises(SearchBudgetExceeded, match="10 units used with the search at k = 9"):
            l_round_number(g, 1, work_limit=9)

    def test_l_beyond_the_islice_range(self):
        # balls stop growing by radius n - 1, so l = 10**20 needs no more of them
        assert l_round_number(gen_path(5), 10**20) == l_round_number(gen_path(5), 5)

    def test_l_below_one_rejected(self):
        with pytest.raises(ValueError, match="l must be a positive integer"):
            l_round_number(gen_path(3), 0)

    def test_non_integer_l_rejected(self):
        with pytest.raises(ValueError, match="l must be a positive integer"):
            l_round_number(gen_path(3), 1.5)

    def test_bool_l_rejected(self):
        # a bool is an int to isinstance; True would give the domination number
        with pytest.raises(ValueError, match="l must be a positive integer"):
            l_round_number(gen_path(7), True)

    def test_disconnected_sums(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert l_round_number(g, 1) == 2

    def test_matches_subset_search(self):
        # the branching search against the k-subset search it replaced
        for g in l_round_differential_corpus():
            assert g.is_connected()
            for l in (1, 2, 3, 4):
                expect = exhaustive_l_round_connected(g, l, _Budget(10**9))
                assert l_round_number(g, l) == expect, f"l={l} n={g.n} {g.edges()}"

    def test_tree_oracle_checked_on_small_trees(self):
        for seed in range(40):
            t = gen_random_tree(3 + seed % 8, 3000 + seed)
            assert tree_domination_number(t) == brute_l_round_numbers(t, (1,))[1]

    def test_l1_on_large_trees_matches_tree_oracle(self):
        # n = 40-80 is far beyond any subset search
        for seed in range(21):
            t = gen_random_tree(40 + 2 * seed, 4000 + seed)
            assert l_round_number(t, 1) == tree_domination_number(t), t.edges()

    def test_huge_l_is_gamma_p(self):
        # every ball of radius n - 1 is V, so l >= n pools reps without
        # growing balls and does the same work as the grown pool at l = n - 1
        for g in [gen_h_delta(delta)[0] for delta in (3, 9, 12)] + [gen_random_tree(30, 7)]:
            gp = gamma_p(g).gamma_p
            budgets = {l: _Budget(10**6) for l in (10**9, g.n, g.n - 1)}
            for l, budget in budgets.items():
                assert len(next(_branch_search(g, budget, g.representatives, l))[0]) == gp, l
            assert len({budget.used for budget in budgets.values()}) == 1
            assert l_round_number(g, 10**9) == gp

    def test_matches_all_subsets_oracle(self):
        # the search skips dominated vertices, so compare every l with a
        # search over all subsets; twins and leaves are the risky cases
        ls = (1, 2, 3, 4)
        for g in l_round_corpus():
            expect = brute_l_round_numbers(g, ls)
            got = {l: l_round_number(g, l) for l in ls}
            assert got == expect, f"n={g.n} {g.edges()}"


def grid(rows: int, cols: int) -> Graph:
    """The grid P_rows x P_cols, with vertex r * cols + c at row r, column c."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


def grid_gamma_p(n: int) -> int:
    """gamma_P of the n x m grid for m >= n >= 1 (Dorfling & Henning,
    Discrete Appl. Math. 154, 2006): ceil((n + 1) / 4) when n = 4 mod 8,
    else ceil(n / 4)."""
    return -(-(n + 1) // 4) if n % 8 == 4 else -(-n // 4)


class TestGridOracle:
    """Grids reach sizes and fort pools no all-subsets oracle covers."""

    def test_l_round_number_at_l_n(self):
        # 12 x 12 is left out: it takes 34 s on a 2-vCPU Xeon VM with the pure
        # engine, where it took 4.7 s before every search node began reading
        # its missed sets off the whole fort pool
        for n in range(1, 13):
            for m in range(n, 13):
                if (n, m) != (12, 12):
                    g = grid(n, m)
                    assert l_round_number(g, g.n) == grid_gamma_p(n), (n, m)

    def test_gamma_p_and_ppt(self):
        for n in range(1, 7):
            for m in range(n, 11):
                g = grid(n, m)
                result = gamma_p(g)
                assert result.gamma_p == grid_gamma_p(n), (n, m)
                assert ppt_graph(g) == result.ppt_graph, (n, m)


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

    def test_limit_inside_a_cardinality_names_units_and_k(self):
        # H_9 spends 83 units at k = 1 (the root and one leaf per vertex),
        # so a limit of 100 stops the fort search partway through k = 2
        g, _ = gen_h_delta(9)
        with pytest.raises(SearchBudgetExceeded) as info:
            gamma_p(g, work_limit=100)
        message = str(info.value)
        assert "work limit of 100 exceeded" in message
        assert "101 units used" in message
        assert "k = 2" in message
        assert gamma_p(g, work_limit=10**6).gamma_p == 2

    def test_l_round_limit_names_units_and_k(self):
        # C_12 at l = 1: four disjoint sets N[u] skip k = 1..3 without a
        # node, and k = 4 costs 15 units (15 up to k = 3 and 30 by k = 4
        # before the packing floor)
        g = gen_cycle(12)
        with pytest.raises(SearchBudgetExceeded) as info:
            l_round_number(g, 1, work_limit=14)
        message = str(info.value)
        assert "work limit of 14 exceeded" in message
        assert "15 units used" in message
        assert "k = 4" in message
        assert l_round_number(g, 1, work_limit=15) == 4

    def test_solution_unaffected_by_generous_budget(self):
        g = gen_cycle(6)
        assert gamma_p(g, work_limit=10**6).gamma_p == gamma_p(g).gamma_p
