"""Monotone trails: the checker and the constructive extractor."""

import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest

from powerdom import trails
from powerdom.catalog import nonisomorphic_graphs
from powerdom.errors import InternalConsistencyError
from powerdom.families import (
    gen_cycle,
    gen_h_delta,
    gen_path,
    gen_random_connected,
    gen_random_tree,
    gen_spider,
    gen_star,
)
from powerdom.graph import Graph
from powerdom.propagation import (
    UNOBSERVED,
    ObservationTrace,
    is_pds,
    propagate,
)
from powerdom.trails import MonotoneTrail, TrailCheck, extract_monotone_trail, is_monotone_trail


def c8_with_chord():
    """C_8 plus chord (1,4).

    From S={0} the cascade runs the long way around, so vertices 1 and 2
    are adjacent but observed four rounds apart; good for exercising label
    jumps and the extractor's detour branch.
    """
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(1, 4)]
    return Graph(8, edges)


class TestChecker:
    def test_p4_canonical_trail(self):
        g = gen_path(4)
        tr = propagate(g, {1})
        check = is_monotone_trail(g, tr, [0, 1, 2, 3])
        assert check
        assert check.reason is None

    def test_rejects_non_adjacent_step(self):
        g = gen_path(4)
        tr = propagate(g, {1})
        check = is_monotone_trail(g, tr, [0, 1, 3])
        assert not check and "not adjacent" in check.reason

    def test_rejects_repeated_edge(self):
        g = gen_path(4)
        tr = propagate(g, {1})
        check = is_monotone_trail(g, tr, [0, 1, 0])
        assert not check and "repeats" in check.reason

    def test_rejects_decreasing_labels(self):
        g = gen_path(6)
        tr = propagate(g, {0})
        check = is_monotone_trail(g, tr, [5, 4, 3])
        assert not check and "monotonicity" in check.reason

    def test_rejects_label_jump(self):
        g = c8_with_chord()
        tr = propagate(g, {0})
        assert tr.time_label == (0, 1, 5, 5, 4, 3, 2, 1)
        check = is_monotone_trail(g, tr, [0, 1, 2])
        assert not check and "monotonicity" in check.reason

    def test_rejects_wrong_final_label(self):
        g = gen_path(6)
        tr = propagate(g, {0})
        # edge (1,2) has label 2 but vertex 2's own label is 2; end at 1 instead
        check = is_monotone_trail(g, tr, [2, 1])
        assert not check and "last edge label" in check.reason

    # c8_with_chord from S={0}: edge {0,1} is labelled 1, the edges {1,2},
    # {2,3} and {3,4} are labelled 5, and t(4) = 4
    @pytest.mark.parametrize(
        "walk,reason",
        [
            ([0, 1, 2, 3, 2], "edge {3,2} repeats"),
            ([0, 1, 2, 3, 5], "consecutive vertices 3,5 are not adjacent"),
            ([0, 1, 2, 3, 4], "edge labels 1 -> 5 violate monotonicity at position 1"),
        ],
        ids=["repeat-after-jump", "gap-after-jump", "jump-before-last-label"],
    )
    def test_first_violation_order(self, walk, reason):
        # a missing or repeated edge anywhere comes before a monotonicity
        # break, and a break comes before a wrong last label
        g = c8_with_chord()
        tr = propagate(g, {0})
        assert is_monotone_trail(g, tr, walk) == TrailCheck(False, reason)
        assert ref_is_monotone_trail(g, tr, walk) == TrailCheck(False, reason)

    def test_too_short_input_rejected(self):
        g = gen_path(4)
        tr = propagate(g, {1})
        with pytest.raises(ValueError):
            is_monotone_trail(g, tr, [2])

    def test_unobserved_vertex_rejected(self):
        g = gen_star(3)
        tr = propagate(g, {1})
        with pytest.raises(ValueError):
            is_monotone_trail(g, tr, [1, 0, 2])

    @pytest.mark.parametrize("v", [-1, 4])
    @pytest.mark.parametrize("where", [0, 3])
    def test_out_of_range_vertex_rejected(self, v, where):
        g = gen_path(4)
        tr = propagate(g, {1})
        walk = [0, 1, 2, 3]
        walk[where] = v
        with pytest.raises(ValueError, match=f"vertex {v} out of range for n=4"):
            is_monotone_trail(g, tr, walk)

    def test_trace_from_another_graph_rejected(self):
        # the cycle's edge {0,5} must not be judged by the path's time labels
        tr = propagate(gen_path(6), {1, 4})
        with pytest.raises(ValueError, match="different graph"):
            is_monotone_trail(gen_cycle(6), tr, [0, 5])
        # an equal graph built separately is the same graph
        assert is_monotone_trail(gen_path(6), tr, [0, 1, 2, 3])


class TestExtraction:
    def test_p4(self):
        g = gen_path(4)
        tr = propagate(g, {1})
        trail = extract_monotone_trail(g, tr, 3)
        assert trail.vertices == (0, 1, 2, 3)
        assert trail.edge_labels == (1, 1, 2)
        assert trail.length >= tr.time_label[3] + 1

    def test_detour_branch_with_vertex_repeat(self):
        # forcer of vertex 2 is observed far earlier than step-1, so the
        # extractor must route through a neighbor at the right time level;
        # the result revisits vertex 1 but repeats no edge
        g = c8_with_chord()
        tr = propagate(g, {0})
        trail = extract_monotone_trail(g, tr, 2)
        assert trail.vertices == (1, 0, 7, 6, 5, 4, 1, 2)
        assert trail.edge_labels == (1, 1, 2, 3, 4, 4, 5)
        assert len(set(trail.vertices)) < len(trail.vertices)
        edges = list(zip(trail.vertices, trail.vertices[1:]))
        assert len(set(edges)) == len(edges)
        assert is_monotone_trail(g, tr, trail.vertices)

    def test_trace_from_another_graph_rejected(self):
        # vertex 4 of P_5 has no time label in a trace of P_3
        with pytest.raises(ValueError, match="different graph"):
            extract_monotone_trail(gen_path(5), propagate(gen_path(3), {1}), 4)
        trail = extract_monotone_trail(gen_path(4), propagate(gen_path(4), {1}), 3)
        assert trail.vertices == (0, 1, 2, 3)

    def test_every_vertex_of_cycle(self):
        g = gen_cycle(7)
        tr = propagate(g, {0})
        for v in range(1, 7):
            trail = extract_monotone_trail(g, tr, v)
            assert trail.vertices[-1] == v
            assert trail.length >= tr.time_label[v] + 1
            assert is_monotone_trail(g, tr, trail.vertices)

    def test_json_dict(self):
        g = gen_path(4)
        tr = propagate(g, {1})
        d = extract_monotone_trail(g, tr, 3).to_json_dict()
        assert d == {"vertices": [0, 1, 2, 3], "edge_labels": [1, 1, 2], "length": 3}

    def test_degree_one_seed_rejected(self):
        g = gen_path(4)
        tr = propagate(g, {0})
        with pytest.raises(ValueError, match="degree"):
            extract_monotone_trail(g, tr, 3)

    def test_seed_vertex_rejected(self):
        g = gen_path(4)
        tr = propagate(g, {1})
        with pytest.raises(ValueError, match="seed"):
            extract_monotone_trail(g, tr, 1)

    def test_unobserved_vertex_rejected(self):
        # two disjoint 4-cycles; seeding one leaves the other dark
        g = Graph(8, [(i, (i + 1) % 4) for i in range(4)]
                  + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
        tr = propagate(g, {0})
        with pytest.raises(ValueError, match="unobserved"):
            extract_monotone_trail(g, tr, 5)

    def test_long_path_has_no_recursion_limit(self):
        g = gen_path(3000)
        tr = propagate(g, {1})
        trail = extract_monotone_trail(g, tr, 2999)
        assert trail.length == 2999
        assert trail.vertices == (0, *range(1, 3000))
        assert is_monotone_trail(g, tr, trail.vertices)

    def test_far_end_trail_memory_stays_linear(self):
        # one trail of 3,000 vertices peaks near 0.4 MB; keeping a trail for
        # every vertex the walk passes would peak near 73 MB
        g = gen_path(3000)
        tr = propagate(g, {1})
        tracemalloc.start()
        try:
            extract_monotone_trail(g, tr, 2999)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_returned_trails_are_reused(self):
        g = gen_path(6)
        tr = propagate(g, {1})
        near = extract_monotone_trail(g, tr, 3)
        far = extract_monotone_trail(g, tr, 5)
        assert far.vertices[: len(near.vertices)] == near.vertices
        assert extract_monotone_trail(g, tr, 3) is near
        # a copy of the trace starts with nothing kept, and equals the original
        fresh = replace(tr)
        assert fresh == tr and repr(fresh) == repr(tr)
        assert extract_monotone_trail(g, fresh, 3) == near
        assert extract_monotone_trail(g, fresh, 3) is not near

    @pytest.mark.parametrize("v", [-1, 4])
    def test_out_of_range_vertex_rejected(self, v):
        g = gen_path(4)
        tr = propagate(g, {1})
        with pytest.raises(ValueError, match=f"vertex {v} out of range for n=4"):
            extract_monotone_trail(g, tr, v)


def _hand_trace(g, start, labels, record):
    """A trace built from time labels and forcing records as given."""
    layers = tuple(
        frozenset(v for v in range(g.n) if 0 <= labels[v] <= i) for i in range(max(labels) + 1)
    )
    return ObservationTrace(g, frozenset(start), layers, tuple(labels), record, True)


def _p5_with_record(x, entry):
    """propagate(P_5, {1}) with the forcing record of x replaced."""
    tr = propagate(gen_path(5), {1})
    return replace(tr, forcing_record={**tr.forcing_record, x: entry})


class TestCorruptRecordsRaise:
    # each forcing record below names a vertex the walk would otherwise read
    # out of range: a seed neighbor with no other neighbor, or a source
    # past either end of the vertex range
    @pytest.mark.parametrize(
        "trace,v",
        [
            (
                _hand_trace(
                    Graph(4, [(0, 1), (0, 3), (2, 3)]),
                    {0},
                    (0, 1, 1, 1),
                    {1: (0, 1), 3: (2, 1), 2: (3, 1)},
                ),
                3,
            ),
            (_p5_with_record(3, (5, 2)), 3),
            (_p5_with_record(3, (-5, 2)), 3),
            (_p5_with_record(2, (-1, 1)), 2),
            (_p5_with_record(3, (5, 2)), 4),
        ],
        ids=["no-other-neighbor", "source-past-n", "source-negative", "step1-negative", "far"],
    )
    def test_out_of_range_source_raises(self, trace, v):
        with pytest.raises(InternalConsistencyError):
            extract_monotone_trail(trace.graph, trace, v)

    @pytest.mark.parametrize("x,entry,v", [(2, (4, 2), 2), (1, (4, 1), 1)], ids=["detour", "step1"])
    def test_unobserved_forcer_raises(self, x, entry, v):
        # C_4 0-1-2-3 with 4 and 5 adjacent to 1, 2 and each other: from {0},
        # 4 and 5 stay unobserved; a record naming one as a forcer must not
        # lead to a trail through it, such as (3, 0, 1, 4, 2) for vertex 2
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (2, 4), (1, 5), (2, 5), (4, 5)])
        tr = propagate(g, {0})
        assert tr.time_label == (0, 1, 2, 1, UNOBSERVED, UNOBSERVED)
        bad = replace(tr, forcing_record={**tr.forcing_record, x: entry})
        match = f"forcer {entry[0]} of {x} is unobserved"
        with pytest.raises(InternalConsistencyError, match=match):
            extract_monotone_trail(g, bad, v)

    def test_missing_record_raises(self):
        # vertex 3 is observed at step 2 but the record has no entry for it
        tr = propagate(gen_path(5), {1})
        record = dict(tr.forcing_record)
        del record[3]
        trace = replace(tr, forcing_record=record)
        with pytest.raises(InternalConsistencyError, match="no forcing record"):
            extract_monotone_trail(trace.graph, trace, 4)


# -- reference oracles ---------------------------------------------------
#
# The recursive extractor, the two-pass checker and the propagate()
# layer/record loop as they stood before the single-pass rewrite, copied
# unchanged apart from names. The rewrite must agree with them bit for bit.


def _ref_mask_to_set(mask: int) -> frozenset:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return frozenset(out)


def ref_propagate(g, s):
    start_mask = sum(1 << v for v in set(s))
    masks = g.core.layer_masks(start_mask)
    layers = tuple(_ref_mask_to_set(m) for m in masks)

    labels = [UNOBSERVED] * g.n
    for v in layers[0]:
        labels[v] = 0
    for i in range(1, len(layers)):
        for v in layers[i] - layers[i - 1]:
            labels[v] = i

    record = {}
    adj_masks = g.adjacency_masks
    for i in range(1, len(masks)):
        prev = masks[i - 1]
        new_bits = masks[i] & ~prev
        for v in sorted(_ref_mask_to_set(new_bits)):
            if i == 1:
                # dominated: smallest seed neighbor
                w = min(g.neighbors(v) & layers[0])
            else:
                # smallest observed vertex whose unique unobserved neighbor was v
                w = min(
                    u
                    for u in g.neighbors(v)
                    if (prev >> u) & 1 and adj_masks[u] & ~prev == (1 << v)
                )
            record[v] = (w, i)

    complete = masks[-1] == g.full_mask
    return ObservationTrace(
        graph=g,
        start=layers[0],
        layers=layers,
        time_label=tuple(labels),
        forcing_record=record,
        complete=complete,
    )


def edge_time_label(trace: ObservationTrace, u: int, v: int) -> int:
    """Edge label t(uv) = max(t(u), t(v)); both endpoints must be observed."""
    if v not in trace.graph.neighbors(u):
        raise ValueError(f"({u},{v}) is not an edge")
    tu, tv = trace.time_label[u], trace.time_label[v]
    if tu == UNOBSERVED or tv == UNOBSERVED:
        raise ValueError(f"edge ({u},{v}) has an unobserved endpoint in this trace")
    return max(tu, tv)


def ref_is_monotone_trail(g, trace, vertices):
    if len(vertices) < 2:
        raise ValueError("a trail needs at least one edge (two vertices)")
    for v in vertices:
        if trace.time_label[v] == UNOBSERVED:
            raise ValueError(f"vertex {v} is unobserved in this trace")

    seen_edges = set()
    labels = []
    for a, b in zip(vertices, vertices[1:]):
        if b not in g.neighbors(a):
            return TrailCheck(False, f"consecutive vertices {a},{b} are not adjacent")
        key = frozenset((a, b))
        if key in seen_edges:
            return TrailCheck(False, f"edge {{{a},{b}}} repeats")
        seen_edges.add(key)
        labels.append(edge_time_label(trace, a, b))
    for i in range(1, len(labels)):
        if not labels[i - 1] <= labels[i] <= labels[i - 1] + 1:
            return TrailCheck(
                False,
                f"edge labels {labels[i-1]} -> {labels[i]} violate monotonicity at position {i}",
            )
    if labels[-1] != trace.time_label[vertices[-1]]:
        return TrailCheck(
            False,
            f"last edge label {labels[-1]} differs from last vertex label "
            f"{trace.time_label[vertices[-1]]}",
        )
    return TrailCheck(True)


def ref_extract_monotone_trail(g, trace, v):
    for u in trace.start:
        if g.degree(u) <= 1:
            raise ValueError(f"seed vertex {u} has degree {g.degree(u)} < 2")
    if v in trace.start:
        raise ValueError(f"vertex {v} is a seed; trails end outside the seed set")
    if trace.time_label[v] == UNOBSERVED:
        raise ValueError(f"vertex {v} is unobserved in this trace")

    t = trace.time_label
    memo = {}

    def build(x):
        if x in memo:
            return memo[x]
        i = t[x]
        if i == 1:
            u, _ = trace.forcing_record[x]  # smallest seed neighbor
            w = min(g.neighbors(u) - {x})
            out = (w, u, x)
        else:
            w, _ = trace.forcing_record[x]
            if t[w] == i - 1:
                out = build(w) + (x,)
            else:
                level = [y for y in g.neighbors(w) if t[y] == i - 1]
                if not level:
                    raise InternalConsistencyError(
                        f"forcer {w} of {x} (step {i}) has no neighbor observed at {i-1}"
                    )
                out = build(min(level)) + (w, x)
        memo[x] = out
        return out

    vertices = build(v)
    labels = tuple(edge_time_label(trace, a, b) for a, b in zip(vertices, vertices[1:]))
    trail = MonotoneTrail(vertices=vertices, edge_labels=labels)

    check = ref_is_monotone_trail(g, trace, vertices)
    if not check or trail.length < t[v] + 1:
        raise InternalConsistencyError(
            f"extracted trail for vertex {v} is invalid: {check.reason or 'too short'}"
        )
    return trail


# -- differential corpus -------------------------------------------------


def _outcome(fn, *args):
    """The value, or the exception type and message, so failures compare too."""
    try:
        return fn(*args)
    except (ValueError, InternalConsistencyError) as exc:
        return type(exc).__name__, str(exc)


def _relabel(g, rng):
    perm = rng.sample(range(g.n), g.n)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]), perm


def _greedy_seeds(g, rng):
    """Degree >= 2 vertices in a seeded order until they power dominate."""
    order = [v for v in range(g.n) if g.degree(v) >= 2]
    rng.shuffle(order)
    for k in range(1, len(order) + 1):
        if is_pds(g, order[:k]):
            return set(order[:k])
    return set(order)


def catalog_cases():
    """Every graph with n <= 6, with every degree >= 2 seed set of size <= 2."""
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            cand = [v for v in range(n) if g.degree(v) >= 2]
            for k in (1, 2):
                for s in itertools.combinations(cand, k):
                    yield g, set(s)


def hdelta_cases():
    rng = random.Random(6)
    for delta in (*range(6, 11), 16):
        g, _ = gen_h_delta(delta)
        h, perm = _relabel(g, rng)
        # H_16 (n = 257, rows of five 64-bit words) also gets a seed every 60
        # vertices along its level-3 path: from two seeds its trails run to
        # 248 edges, and TestMatchesRecursiveExtractor checks every suffix of
        # every trail, which took 7.7 s there
        extra = range(delta + 61, g.n, 60) if delta > 10 else ()
        yield h, {perm[0], perm[delta + 1], *(perm[v] for v in extra)}


def spider_cases():
    for legs, leg_len in [(3, 25), (5, 14), (8, 9)]:
        yield gen_spider(legs, leg_len), {0}


def tree_cases():
    rng = random.Random(30)
    for _ in range(10):
        g = gen_random_tree(rng.randint(30, 79), rng.randrange(1 << 30))
        yield g, _greedy_seeds(g, rng)


def sparse_cases():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(30, 79)
        g = gen_random_connected(n, (5 * n + 2) // 4, rng.randrange(1 << 30))
        yield g, _greedy_seeds(g, rng)


def _random_walks(g, rng, count):
    """Walks that mostly follow edges, with some steps back along the last
    edge (a repeat) and some jumps to an arbitrary vertex (often no edge)."""
    for _ in range(count):
        walk = [rng.randrange(g.n)]
        for _ in range(rng.randint(1, 8)):
            r = rng.random()
            nbrs = sorted(g.neighbors(walk[-1]))
            if r < 0.7 and nbrs:
                walk.append(rng.choice(nbrs))
            elif r < 0.85 and len(walk) >= 2:
                walk.append(walk[-2])
            else:
                walk.append(rng.randrange(g.n))
        yield walk


class TestMatchesRecursiveExtractor:
    @pytest.mark.parametrize(
        "cases",
        [catalog_cases, hdelta_cases, spider_cases, tree_cases, sparse_cases],
        ids=["catalog", "hdelta", "spider", "tree", "sparse"],
    )
    def test_traces_trails_and_checks_agree(self, cases):
        rng = random.Random(cases.__name__)
        order_rng = random.Random(f"{cases.__name__} order")
        for g, seeds in cases():
            tr, ref = propagate(g, seeds), ref_propagate(g, seeds)
            assert tr == ref
            assert list(tr.forcing_record.items()) == list(ref.forcing_record.items())
            assert tr.to_json_dict() == ref.to_json_dict()
            targets = [v for v in range(g.n) if tr.time_label[v] > 0]
            want = {v: _outcome(ref_extract_monotone_trail, g, ref, v) for v in targets}
            # one shared trace per order, so later trails reuse earlier ones
            shuffled = order_rng.sample(targets, len(targets))
            for order in (targets, targets[::-1], shuffled):
                shared = propagate(g, seeds)
                for v in order:
                    assert _outcome(extract_monotone_trail, g, shared, v) == want[v], (seeds, v)
            for v in targets:
                got = _outcome(extract_monotone_trail, g, replace(tr), v)
                assert got == want[v], (seeds, v)
                if isinstance(got, MonotoneTrail):
                    for k in range(2, len(got.vertices)):
                        walk = got.vertices[-k:]
                        assert is_monotone_trail(g, tr, walk) == ref_is_monotone_trail(
                            g, ref, walk
                        )
            for walk in _random_walks(g, rng, 4):
                assert _outcome(is_monotone_trail, g, tr, walk) == _outcome(
                    ref_is_monotone_trail, g, ref, walk
                ), walk


def test_propagate_traces_never_reach_the_whole_trail_pass(monkeypatch):
    # every walk over a trace that propagate builds is sound, by the module
    # docstring's argument, so no extraction checks a whole trail
    def whole_trail_pass(*args):
        raise AssertionError("extract_monotone_trail checked a whole trail")

    monkeypatch.setattr(trails, "_trail_labels", whole_trail_pass)
    for cases in (catalog_cases, hdelta_cases, spider_cases, tree_cases, sparse_cases):
        rng = random.Random(f"{cases.__name__} sound")
        for g, seeds in cases():
            tr = propagate(g, seeds)
            targets = [v for v in range(g.n) if tr.time_label[v] > 0]
            for v in targets:
                extract_monotone_trail(g, replace(tr), v)
            # one shared trace per order, so later walks stop at kept trails
            for order in (targets, targets[::-1], rng.sample(targets, len(targets))):
                shared = replace(tr)
                for v in order:
                    extract_monotone_trail(g, shared, v)


def _corrupted(tr, rng, count):
    """A copy of tr with count forcing records replaced by seeded random
    vertices. Half of them are neighbours of the forced vertex, so the walk
    keeps its last edge and the later conditions get exercised."""
    g = tr.graph
    record = dict(tr.forcing_record)
    for x in rng.sample(sorted(record), min(count, len(record))):
        nbrs = sorted(g.neighbors(x))
        w = rng.choice(nbrs) if rng.random() < 0.5 else rng.randrange(g.n)
        record[x] = (w, record[x][1])
    return replace(tr, forcing_record=record)


def _kind(outcome):
    """A trail as is; an exception by its type alone."""
    return outcome if isinstance(outcome, MonotoneTrail) else outcome[0]


class TestKeptTrailsMatchColdExtraction:
    @pytest.mark.parametrize(
        "cases",
        [hdelta_cases, spider_cases, tree_cases, sparse_cases],
        ids=["hdelta", "spider", "tree", "sparse"],
    )
    def test_warm_equals_cold_on_corrupted_traces(self, cases):
        # a trail built on kept trails must be what a cold extraction
        # builds, or fail with the same exception type, even when the
        # forcing history is wrong and the self-check has to catch it
        rng = random.Random(f"{cases.__name__} corrupted")
        for g, seeds in cases():
            tr = propagate(g, seeds)
            targets = [v for v in range(g.n) if tr.time_label[v] > 0]
            for count in (1, 3, len(targets) // 4):
                bad = _corrupted(tr, rng, count)
                order = rng.sample(targets, len(targets))
                for v in order:
                    cold = _kind(_outcome(extract_monotone_trail, g, replace(bad), v))
                    warm = replace(bad)
                    for u in order:
                        if u != v:
                            _outcome(extract_monotone_trail, g, warm, u)
                    assert _kind(_outcome(extract_monotone_trail, g, warm, v)) == cold, (
                        seeds,
                        count,
                        v,
                    )

    def test_window_reaches_past_the_last_kept_edge(self):
        # trail 3 is 0 1 2 3 4 5 3, every edge labelled 3; trail 6 extends
        # it by 4 6 and so repeats the edge {3,4}, which is not the kept
        # trail's last edge; the unsound walk's whole-trail pass finds it
        g = Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 3), (4, 6)])
        labels = (0, 3, 1, 3, 2, 3, 4)
        record = {1: (0, 1), 2: (1, 1), 3: (5, 3), 4: (3, 2), 5: (3, 3), 6: (4, 4)}
        warm = _hand_trace(g, {0}, labels, record)
        assert extract_monotone_trail(g, warm, 3).vertices == (0, 1, 2, 3, 4, 5, 3)
        cold = _outcome(extract_monotone_trail, g, replace(warm), 6)
        assert _outcome(extract_monotone_trail, g, warm, 6) == cold
        assert cold == (
            "InternalConsistencyError",
            "extracted trail for vertex 6 is invalid: edge {3,4} repeats",
        )


def _relabelled(tr, rng, count):
    """A copy of tr with count time labels replaced by seeded values from 0
    to one past the last step, so that every vertex stays observed."""
    t = list(tr.time_label)
    for x in rng.sample(range(len(t)), min(count, len(t))):
        t[x] = rng.randint(0, tr.steps + 1)
    return replace(tr, time_label=tuple(t))


@pytest.mark.parametrize(
    "cases", [hdelta_cases, tree_cases, sparse_cases], ids=["hdelta", "tree", "sparse"]
)
def test_corrupted_labels_match_the_recursive_extractor(cases):
    # the walk checks only the edges it adds and reads their labels off its
    # own steps; with wrong time labels a cold trail must still be what the
    # recursive extractor builds, or fail with the same message, and a warm
    # one must fail where that one does
    rng = random.Random(f"{cases.__name__} labels")
    for g, seeds in cases():
        tr = propagate(g, seeds)
        for count in (1, 3, 8):
            bad = _relabelled(tr, rng, count)
            targets = [v for v in range(g.n) if v not in seeds]
            warm = replace(bad)
            for v in rng.sample(targets, len(targets)):
                try:
                    want = _outcome(ref_extract_monotone_trail, g, bad, v)
                except KeyError as exc:  # the recursive extractor reads records unchecked
                    want = (
                        "InternalConsistencyError",
                        f"observed vertex {exc} has no forcing record",
                    )
                assert _outcome(extract_monotone_trail, g, replace(bad), v) == want, (seeds, v)
                assert _kind(_outcome(extract_monotone_trail, g, warm, v)) == _kind(want)
