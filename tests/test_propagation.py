"""Observation process: traces, time labels, forcing records.

The reference engine below recomputes everything with plain Python sets
and no shared code with the package's kernels; the suite compares the two
on catalogs and random instances.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerdom import _pycore
from powerdom.errors import NotPowerDominatingError
from powerdom.families import (
    gen_complete,
    gen_cycle,
    gen_h_delta,
    gen_path,
    gen_random_connected,
    gen_spider,
    gen_star,
)
from powerdom.graph import Graph
from powerdom.propagation import (
    UNOBSERVED,
    is_pds,
    ppt_of_set,
    propagate,
)
from test_trails import edge_time_label


def reference_layers(g, seeds):
    """Layer chain via sets only: dominate once, then force to a fixed point."""
    layers = [frozenset(seeds)]
    nxt = set(seeds)
    for v in seeds:
        nxt |= set(g.neighbors(v))
    while nxt != layers[-1]:
        layers.append(frozenset(nxt))
        forced = set()
        for v in layers[-1]:
            out = set(g.neighbors(v)) - layers[-1]
            if len(out) == 1:
                forced |= out
        nxt = layers[-1] | forced
    return layers


def seeded_graphs(max_n=7):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.builds(
                Graph,
                st.just(n),
                st.lists(
                    st.sampled_from([(u, v) for u in range(n) for v in range(u + 1, n)]),
                    unique=True,
                )
                if n >= 2
                else st.just([]),
            ),
            st.sets(st.integers(min_value=0, max_value=n - 1)),
        )
    )


def relabelled_h_delta(delta):
    """H_delta under a seeded vertex permutation, with the witness {0, delta+1}
    and sets that stall."""
    g, _ = gen_h_delta(delta)
    perm = random.Random(delta).sample(range(g.n), g.n)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    seeds = [{0, delta + 1}, {0}, {1, 2}, {g.n - 9, g.n - 1}]
    return h, [{perm[v] for v in s} for s in seeds]


def spider_case(shape):
    """The center completes through long chains; a leg end alone stalls."""
    legs, leg_len = shape
    return gen_spider(legs, leg_len), [{0}, {leg_len}, {1, leg_len + 1}]


def sparse_case(seed):
    """Random connected graph with n in 30..150 and up to n/4 edges beyond a
    spanning tree. Seeds: small random sets, which mostly stall, and the
    shortest prefix of a random vertex order that completes."""
    rng = random.Random(seed)
    n = rng.randint(30, 150)
    g = gen_random_connected(n, n - 1 + rng.randint(0, n // 4), seed)
    seeds = [set(rng.sample(range(n), rng.randint(1, 4))) for _ in range(4)]
    order = rng.sample(range(n), n)
    k = 1
    while len(reference_layers(g, order[:k])[-1]) < n:
        k += 1
    return g, seeds + [set(order[: k - 1]), set(order[:k])]


DIFFERENTIAL_CASES = (
    [pytest.param(relabelled_h_delta, d, id=f"h{d}") for d in range(6, 13)]
    + [
        pytest.param(spider_case, shape, id=f"spider{shape[0]}x{shape[1]}")
        for shape in [(3, 25), (5, 14), (8, 9)]
    ]
    + [pytest.param(sparse_case, seed, id=f"sparse{seed}") for seed in range(10)]
)


def to_mask(vertices):
    return sum(1 << v for v in vertices)


class TestSteps:
    """Both step kinds, read off the layer chain: layers[1] is N[S], each
    later layer is one forcing round, and the last layer is a fixed point."""

    def test_domination_center_of_p3(self):
        assert propagate(gen_path(3), {1}).layers[1] == {0, 1, 2}

    def test_domination_end_of_p3(self):
        assert propagate(gen_path(3), {0}).layers[1] == {0, 1}

    def test_domination_empty_set_fixed(self):
        assert propagate(gen_cycle(4), set()).layers == (frozenset(),)

    def test_domination_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            propagate(gen_path(3), {7})

    def test_forcing_unique_neighbor(self):
        assert propagate(gen_path(3), {0}).layers[1:] == ({0, 1}, {0, 1, 2})

    def test_forcing_two_forcers_same_target(self):
        # 1 and 3 both see 2 as their only unobserved neighbor
        assert propagate(gen_cycle(4), {0}).layers[1:] == ({0, 1, 3}, {0, 1, 2, 3})

    def test_forcing_stalls_on_branching(self):
        # star center sees two unobserved leaves, so nothing moves
        tr = propagate(gen_star(3), {1})
        assert tr.layers[-1] == {0, 1}
        assert not tr.complete

    def test_forcing_idempotent_exactly_at_fixed_points(self):
        # stalled-but-incomplete state: star center with two dark leaves
        assert propagate(gen_star(3), {1}).layers == ({1}, {0, 1})
        # mid-run state keeps moving
        assert propagate(gen_path(4), {0}).layers[1:3] == ({0, 1}, {0, 1, 2})
        # the full vertex set is always fixed
        final = frozenset(range(4))
        assert propagate(gen_path(4), final).layers == (final,)


class TestPropagate:
    def test_p3_from_end(self):
        tr = propagate(gen_path(3), {0})
        assert [sorted(layer) for layer in tr.layers] == [[0], [0, 1], [0, 1, 2]]
        assert tr.time_label == (0, 1, 2)
        assert tr.complete and tr.steps == 2

    def test_h9_construction_witness_completes(self):
        g, _ = gen_h_delta(9)
        assert propagate(g, {0, 10}).complete

    def test_h9_singleton_stalls_after_domination(self):
        g, _ = gen_h_delta(9)
        tr = propagate(g, {0})
        assert not tr.complete
        assert tr.steps == 1  # S^[1] = N[S] is already the fixed point
        assert sorted(tr.layers[-1]) == list(range(10))

    def test_empty_seed_set(self):
        tr = propagate(gen_cycle(4), set())
        assert not tr.complete and tr.layers == (frozenset(),)

    def test_full_vertex_seed_has_zero_steps(self):
        tr = propagate(gen_path(4), {0, 1, 2, 3})
        assert tr.complete and tr.steps == 0

    def test_time_labels_partition_layers(self):
        g = gen_cycle(6)
        tr = propagate(g, {0})
        assert tr.time_label == (0, 1, 2, 3, 2, 1)

    def test_unobserved_label(self):
        tr = propagate(gen_star(3), {1})
        assert tr.time_label[1] == 0 and tr.time_label[0] == 1
        assert tr.time_label[2] == UNOBSERVED and tr.time_label[3] == UNOBSERVED

    def test_forcing_record_smallest_ids(self):
        # C_4 from {0}: both 1 and 3 can force 2; record keeps 1
        tr = propagate(gen_cycle(4), {0})
        assert tr.forcing_record[2] == (1, 2)
        assert tr.forcing_record[1] == (0, 1)
        assert tr.forcing_record[3] == (0, 1)

    def test_forcing_record_validity(self, catalog_conn_8):
        for g in catalog_conn_8[:400]:
            tr = propagate(g, {0})
            for v, (w, step) in tr.forcing_record.items():
                assert tr.time_label[v] == step
                assert v in g.neighbors(w)
                if step == 1:
                    assert w in tr.start
                else:
                    prev = tr.layers[step - 1]
                    assert w in prev
                    assert set(g.neighbors(w)) - prev == {v}

    def test_json_wire_shape(self):
        tr = propagate(gen_path(3), {0})
        d = tr.to_json_dict()
        assert d == {
            "start": [0],
            "layers": [[0], [0, 1], [0, 1, 2]],
            "time_label": [0, 1, 2],
            "forcing_record": [[1, 0, 1], [2, 1, 2]],
            "complete": True,
        }

    @settings(max_examples=200, deadline=None)
    @given(seeded_graphs())
    def test_matches_reference_engine(self, case):
        g, seeds = case
        tr = propagate(g, seeds)
        ref = reference_layers(g, seeds)
        assert list(tr.layers) == ref
        assert tr.complete == (ref[-1] == frozenset(range(g.n)))

    @pytest.mark.parametrize("build,arg", DIFFERENTIAL_CASES)
    def test_pure_engine_matches_reference_on_long_runs(self, build, arg):
        # the pure engine itself, whichever engine propagate() would pick
        g, seed_sets = build(arg)
        core = _pycore.PropagationCore(g.adjacency_masks, g.n)
        for seeds in seed_sets:
            ref = [to_mask(layer) for layer in reference_layers(g, seeds)]
            start = to_mask(seeds)
            assert core.fixed_point(start) == (ref[-1], len(ref) - 1)
            assert core.layer_masks(start) == ref

    def test_pure_fixed_point_keeps_no_layers(self):
        # a run of 3,000 rounds: layer_masks peaks near 0.7 MB (n^2 / 8 bytes
        # is 1.1 MB), fixed_point near 4 KB, since it holds O(1) masks
        n = 3000
        g = gen_path(n)
        core = _pycore.PropagationCore(g.adjacency_masks, g.n)
        tracemalloc.start()
        try:
            assert core.fixed_point(1) == (g.full_mask, n - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n // 8 // 16

    @settings(max_examples=150, deadline=None)
    @given(seeded_graphs(max_n=6))
    def test_superset_monotonicity(self, case):
        g, seeds = case
        extra = seeds | {0} if g.n else seeds
        small = propagate(g, seeds).layers
        big = propagate(g, extra).layers
        for i, layer in enumerate(small):
            grown = big[min(i, len(big) - 1)]
            assert layer <= grown


class TestPptOfSet:
    def test_p3_values(self):
        g = gen_path(3)
        assert ppt_of_set(g, {1}) == 1
        assert ppt_of_set(g, {0}) == 2

    def test_c4_end_vertex(self):
        assert ppt_of_set(gen_cycle(4), {0}) == 2

    def test_whole_vertex_set_is_zero(self):
        assert ppt_of_set(gen_path(5), set(range(5))) == 0

    def test_non_pds_errors(self):
        with pytest.raises(NotPowerDominatingError):
            ppt_of_set(gen_star(3), {1})

    def test_non_pds_message_names_iterator_input(self):
        # the seeds are read once, so the message must come from the mask
        with pytest.raises(NotPowerDominatingError, match=r"set \[1\] does not"):
            ppt_of_set(gen_star(4), iter([1]))

    def test_is_pds_examples(self):
        assert is_pds(gen_path(5), {2})
        g, _ = gen_h_delta(9)
        assert is_pds(g, {0, 10})
        assert not is_pds(gen_cycle(4), set())


class TestEdgeTimeLabel:
    def test_p3_edges(self):
        tr = propagate(gen_path(3), {0})
        assert edge_time_label(tr, 1, 2) == 2
        assert edge_time_label(tr, 0, 1) == 1

    def test_c4_seed_side_edge(self):
        tr = propagate(gen_cycle(4), {0})
        assert edge_time_label(tr, 3, 0) == 1

    def test_non_edge_rejected(self):
        tr = propagate(gen_path(3), {0})
        with pytest.raises(ValueError, match="not an edge"):
            edge_time_label(tr, 0, 2)

    def test_unobserved_endpoint_rejected(self):
        tr = propagate(gen_star(3), {1})
        with pytest.raises(ValueError, match="unobserved"):
            edge_time_label(tr, 0, 2)
