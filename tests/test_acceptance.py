"""End-to-end acceptance sweep, one printed verdict line per check.

The two arithmetic checks pin the counterexample family exactly. The six
property checks sweep the isomorphism catalogs and the seeded random
corpora; where an oracle is needed it is implemented here from the
definitions (plain set arithmetic, all-subsets search) so it shares no
code with the solver under test. The ninth check sets the catalog
generator against every labelled graph, sharing only the certificate.
The seventh also holds the search over representatives that answers
`ppt` and `bounds` to the oracles; the last sets it against the
all-subsets least ppt on every graph with n <= 7, disconnected included.
An unnumbered differential test sets every search answer (gamma_P, the
full witness list, ppt and the l-round numbers) against the same oracles,
for the search's pruning by twin forts and by the packing floor.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from powerdom.bounds import bounds_report, tree_lower_bound
from powerdom.catalog import canonical_certificate, certificate, nonisomorphic_graphs
from powerdom.cli import counterexample_demo
from powerdom.families import gen_h_delta, gen_path, gen_random_connected, gen_random_tree
from powerdom.propagation import ppt_of_set, propagate
from powerdom.solver import (
    DEFAULT_WORK_LIMIT,
    _gamma_ppt,
    gamma_p,
    l_round_number,
    ppt_graph,
)
from powerdom.trails import extract_monotone_trail, is_monotone_trail
from powerdom.tree_analysis import repair_leaf_seeds, verify_tree_diameter_bound


@contextmanager
def verdict(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"{label}: FAIL")
        raise
    with capsys.disabled():
        print(f"{label}: PASS")


def ceil_div(a, b):
    return -(-a // b)


# ---------------------------------------------------------------- oracles
# Written from the process definition: close the neighborhood of the
# seeds, then repeatedly let every observed vertex with exactly one
# unobserved neighbor observe it, all at once, until nothing changes.


# The round count is the number of those steps (the first one included)
# that observe a new vertex.


def oracle_closure(adj, seed):
    obs = set(seed)
    for v in seed:
        obs |= adj[v]
    rounds = int(len(obs) > len(seed))
    while True:
        forced = set()
        for v in obs:
            gap = adj[v] - obs
            if len(gap) == 1:
                forced |= gap
        if not forced:
            return obs, rounds
        obs |= forced
        rounds += 1


def oracle_gamma_ppt(g):
    """gamma_P and the least round count over its minimum power dominating sets."""
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    for k in range(1, g.n + 1):
        closures = (oracle_closure(adj, s) for s in itertools.combinations(range(g.n), k))
        rounds = [r for obs, r in closures if len(obs) == g.n]
        if rounds:
            return k, min(rounds)
    raise AssertionError("V itself always power dominates")


def oracle_minimum_sets(g):
    """The minimum power dominating sets with their round counts, in
    lexicographic order, and {l: the least size of a set that observes V
    within l rounds} for l = 1, 2 and n."""
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    witnesses = None
    least = {}
    for k in range(1, g.n + 1):
        found = []
        for s in itertools.combinations(range(g.n), k):
            obs, rounds = oracle_closure(adj, s)
            if len(obs) == g.n:
                found.append((s, rounds))
                for l in (1, 2, g.n):
                    if rounds <= l:
                        least.setdefault(l, k)
        if found and witnesses is None:
            witnesses = found
        # a set that observes V in one round does so in any number
        if 1 in least:
            return witnesses, least
    raise AssertionError("V itself observes V in at most one round")


def oracle_domination(g):
    closed = [set(g.neighbors(v)) | {v} for v in range(g.n)]
    full = set(range(g.n))
    for k in range(1, g.n + 1):
        for s in itertools.combinations(range(g.n), k):
            cov = set()
            for v in s:
                cov |= closed[v]
            if cov == full:
                return k
    raise AssertionError("V itself always dominates")


def oracle_certificates(n):
    """The certificate of every labelled graph on n vertices, as a set."""
    pairs = list(itertools.combinations(range(n), 2))
    certs = set()
    for edge_set in range(1 << len(pairs)):
        masks = [0] * n
        for i, (u, v) in enumerate(pairs):
            if edge_set >> i & 1:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        certs.add(certificate(n, masks))
    return certs


# ---------------------------------------------------------------- corpora

@pytest.fixture(scope="module")
def solved_catalog(catalog_conn_8):
    return [(g, gamma_p(g)) for g in catalog_conn_8]


@pytest.fixture(scope="module")
def solved_random(random_connected_500):
    return [(g, gamma_p(g)) for g in random_connected_500]


# ------------------------------------------------------------ the checks

def test_counterexample_numbers(capsys):
    with verdict(capsys, "[1/10] counterexample arithmetic at delta=9"):
        t0 = time.perf_counter()
        g, _ = gen_h_delta(9)
        rep = bounds_report(g)
        elapsed = time.perf_counter() - t0
        assert rep.n == 82
        assert rep.diameter == 4
        assert rep.max_degree == 9
        assert rep.gamma_p == 2
        assert rep.refuted_bound_raw == Fraction(82, 37)
        assert rep.refutation_flag is True
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_threshold_sweep(capsys):
    with verdict(capsys, "[2/10] refutation threshold over delta 3..16"):
        t0 = time.perf_counter()
        rows = counterexample_demo(3, 16)
        elapsed = time.perf_counter() - t0
        assert [r["delta"] for r in rows] == list(range(3, 17))
        for r in rows:
            assert r["gamma_p"] == 2
            assert r["gamma_mode"] == ("exact" if r["delta"] <= 12 else "certified")
            assert r["refutation_flag"] is (r["delta"] >= 9)
            # flag must agree with the sign of delta^2 - 8*delta - 1
            assert r["refutation_flag"] is (r["delta"] ** 2 - 8 * r["delta"] - 1 > 0)
        assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_gamma_lower_bound_sweep(solved_catalog, solved_random, capsys):
    with verdict(capsys, "[3/10] gamma_p >= ceil(n/(ppt*maxdeg+1)) on the corpus"):
        assert len(solved_random) >= 500
        for g, res in solved_catalog + solved_random:
            bound = ceil_div(g.n, res.ppt_graph * g.max_degree() + 1)
            assert res.gamma_p >= bound, f"violated on n={g.n} {sorted(g.edges())}"


def test_ppt_lower_bound_sweep(solved_catalog, solved_random, capsys):
    with verdict(capsys, "[4/10] ppt >= ceil((n-gamma_p)/(gamma_p*maxdeg)) on the corpus"):
        equality_seen = False
        for g, res in solved_catalog + solved_random:
            if g.n == 1:
                continue  # gamma_p*maxdeg is zero only on a single vertex
            bound = ceil_div(g.n - res.gamma_p, res.gamma_p * g.max_degree())
            assert res.ppt_graph >= bound, f"violated on n={g.n} {sorted(g.edges())}"
            if res.ppt_graph == bound:
                equality_seen = True
        assert equality_seen
        # the four-vertex path attains the bound with room to state exactly
        p4 = gamma_p(gen_path(4))
        assert p4.ppt_graph == 2 == ceil_div(4 - p4.gamma_p, p4.gamma_p * 2)


def test_trail_extraction_sweep(solved_catalog, solved_random, capsys):
    with verdict(capsys, "[5/10] monotone trail extraction over >= 300 triples"):
        triples = 0
        for g, res in solved_catalog + solved_random:
            if g.n < 3:
                continue
            witness = next(
                (w for w in res.witnesses if all(g.degree(v) >= 2 for v in w.vertices)),
                None,
            )
            if witness is None:
                continue
            seed = set(witness.vertices)
            trace = propagate(g, seed)
            for v in range(g.n):
                if v in seed:
                    continue
                trail = extract_monotone_trail(g, trace, v)
                check = is_monotone_trail(g, trace, trail.vertices)
                assert check.ok, f"{check.reason} (n={g.n}, v={v})"
                assert trail.last_vertex == v
                assert trail.length >= trace.time_label[v] + 1
                triples += 1
        assert triples >= 300, f"only {triples} triples exercised"


def test_tree_certificate_sweep(random_trees_200, capsys):
    with verdict(capsys, "[6/10] tree certificates over 200 random trees"):
        assert len(random_trees_200) >= 200
        for t in random_trees_200:
            cert = verify_tree_diameter_bound(t)
            assert cert.ppt_repaired <= cert.diam - 1
            assert all(t.degree(v) >= 2 for v in cert.repaired_set)
            assert len(cert.repaired_set) == len(cert.original_set)
            assert cert.ppt_repaired <= cert.ppt_original
            assert cert.witness_trail.length >= cert.ppt_repaired + 1
            # repair, checked directly on a fresh minimum witness
            res = gamma_p(t)
            s = set(res.witnesses[0].vertices)
            repaired = repair_leaf_seeds(t, s)
            assert len(repaired) == len(s)
            assert all(t.degree(v) >= 2 for v in repaired)
            assert ppt_of_set(t, repaired) <= ppt_of_set(t, s)
            # domination-style lower bound for trees
            assert res.gamma_p >= tree_lower_bound(t)


def test_exact_solver_vs_oracles(solved_catalog, capsys):
    with verdict(capsys, "[7/10] solver equals all-subsets oracles on connected n <= 8"):
        for g, res in solved_catalog:
            want = oracle_gamma_ppt(g)
            assert (res.gamma_p, res.ppt_graph) == want, f"n={g.n} {sorted(g.edges())}"
            # the search over representatives that answers `ppt` and `bounds`
            assert _gamma_ppt(g, DEFAULT_WORK_LIMIT) == want, g.edges()
            assert ppt_graph(g) == want[1], g.edges()
            if g.n >= 2:
                rep = bounds_report(g)
                assert (rep.gamma_p, rep.ppt_graph) == want, g.edges()
            assert l_round_number(g, 1) == oracle_domination(g), (
                f"n={g.n} {sorted(g.edges())}"
            )


def test_process_invariants_sweep(catalog_all_8, capsys):
    with verdict(capsys, "[8/10] layer invariants for every PDS of every n <= 8 graph"):
        checked = 0
        for g in catalog_all_8:
            core = g.core
            full = g.full_mask
            n = g.n
            fixed_point = core.fixed_point
            layer_masks = core.layer_masks
            # the complete set is a fixed point, reached in zero rounds
            assert fixed_point(full) == (full, 0)
            for mask in range(1, 1 << n):
                final, steps = fixed_point(mask)
                if final != full:
                    continue
                layers = layer_masks(mask)
                assert layer_masks(mask) == layers  # determinism
                assert layers[0] == mask and layers[-1] == full
                for a, b in zip(layers, layers[1:]):
                    # strict growth: no earlier round is already fixed
                    assert a & b == a and a != b
                assert len(layers) - 1 == steps
                assert steps <= n
                checked += 1
                if checked % 97 == 0:
                    # bind the kernel's round count to the public API
                    seed = {v for v in range(n) if mask >> v & 1}
                    trace = propagate(g, seed)
                    assert trace.complete and trace.steps == steps
        assert checked > 0


def test_catalog_vs_labelled_graphs(catalog_all_8, capsys):
    with verdict(capsys, "[9/10] catalog classes equal all labelled graphs' (n <= 6)"):
        for n in range(1, 7):
            got = [canonical_certificate(g) for g in nonisomorphic_graphs(n)]
            assert set(got) == oracle_certificates(n), f"n={n}"
        # with the pinned counts, distinct certificates mean no class repeats
        certs = [canonical_certificate(g) for g in catalog_all_8]
        assert sum(g.n == 8 for g in catalog_all_8) == 12346
        assert len(set(certs)) == len(certs)


def test_representatives_search_sweep(catalog_all_8, capsys):
    with verdict(capsys, "[10/10] representatives search equals the least-ppt oracle (n <= 7)"):
        small = [g for g in catalog_all_8 if g.n <= 7]
        assert len(small) == 1252
        for g in small:
            want = oracle_gamma_ppt(g)
            assert _gamma_ppt(g, DEFAULT_WORK_LIMIT) == want, g.edges()
            assert ppt_graph(g) == want[1], g.edges()


def test_pruned_search_vs_oracles(catalog_conn_8):
    """gamma_p's witness list and ppt, the search over representatives and
    the l-round numbers for l = 1, 2 and n, against the all-subsets
    oracles: every connected graph with n <= 7, and seeded random trees and
    sparse graphs with 5 <= n <= 12."""
    corpus = [g for g in catalog_conn_8 if g.n <= 7]
    for seed in range(32):
        n = 5 + seed % 8
        corpus.append(gen_random_tree(n, 7000 + seed))
        corpus.append(gen_random_connected(n, (5 * n + 2) // 4, 8000 + seed))
    for g in corpus:
        witnesses, least = oracle_minimum_sets(g)
        res = gamma_p(g)
        assert [(w.vertices, w.ppt) for w in res.witnesses] == witnesses, g.edges()
        want = (len(witnesses[0][0]), min(r for _, r in witnesses))
        assert (res.gamma_p, res.ppt_graph) == want, g.edges()
        short = gamma_p(g, witnesses=False)
        assert (short.gamma_p, short.ppt_graph, short.witnesses) == (*want, ()), g.edges()
        assert ppt_graph(g) == want[1], g.edges()
        for l in (1, 2, g.n):
            assert l_round_number(g, l) == least[l], (l, g.edges())
