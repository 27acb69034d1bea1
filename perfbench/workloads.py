"""Seeded inputs, operations and answer checks for the four workloads.

make_inputs(workload, seed) is the set-up a user's call pays for: it
generates the graphs the program will see. make_ops(workload, inputs, ref)
yields the operations, each with a check that raises WrongAnswer when
the program's answer is wrong. Checks use closed forms, the committed
reference answers (reference.json, made by make_reference.py from the
program at the commit that introduced the benchmark) and small oracles
written here from the definitions.

Every graph is relabelled by a seeded vertex permutation, so the
program never sees the numbering its generators use. Answers that the
reference records (gamma_P, witness counts, ppt, l-round numbers,
diameters, bound reports) do not depend on the numbering.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from powerdom import bounds, catalog, cli, families, graph, propagation, solver, trails, tree_analysis

WORKLOADS = ("hdelta", "sparse", "catalog", "trace")

HDELTA_BOUNDS = range(3, 13)
HDELTA_DEMO = (3, 16)
EXACT_DEMO_DELTA = 12

# sparse: (kind, n) strata, graphs per stratum in one corpus, and the
# fixed pool each stratum draws from; the reference covers the pool
SPARSE_STRATA = tuple(("tree", n) for n in range(11, 15)) + tuple(
    ("conn", n) for n in range(12, 15)
)
SPARSE_PER_STRATUM = 60
SPARSE_POOL = 120

CATALOG_MAX_N = 7
CATALOG_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}

TRACE_HDELTA = range(6, 21)
TRACE_SPIDERS = 15
TRACE_TREES = 40
TRACE_SPARSE = 40


class WrongAnswer(Exception):
    """The program returned an answer the benchmark's checks reject."""


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def sparse_edges(n: int) -> int:
    return (5 * n + 2) // 4


def pool_graph(kind: str, n: int, i: int) -> graph.Graph:
    """Entry i of a sparse stratum's pool, in the generator's numbering."""
    gen_seed = 1000 * n + i
    if kind == "tree":
        return families.gen_random_tree(n, gen_seed)
    return families.gen_random_connected(n, sparse_edges(n), gen_seed)


def relabel(g: graph.Graph, rng: random.Random) -> tuple[graph.Graph, list]:
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges())
    return graph.Graph(g.n, edges), perm


def _shuffled_text(g: graph.Graph, rng: random.Random, comment: str) -> str:
    header, *edges = graph.write_graph(g).splitlines()
    rng.shuffle(edges)
    return "\n".join([f"# {comment}", header, *edges]) + "\n"


def _greedy_pds(g: graph.Graph, rng: random.Random) -> list:
    """Seeds added in a seeded order of degree >= 2 vertices until S is a PDS."""
    probe = graph.Graph(g.n, g.edges())
    order = [v for v in range(g.n) if g.degree(v) >= 2]
    rng.shuffle(order)
    seeds = []
    for v in order:
        seeds.append(v)
        if propagation.is_pds(probe, seeds):
            return sorted(seeds)
    raise ValueError("degree >= 2 vertices do not power dominate this graph")


# -- inputs -------------------------------------------------------------


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "hdelta":
        texts = {}
        for delta in HDELTA_BOUNDS:
            g, _ = families.gen_h_delta(delta)
            h, _ = relabel(g, rng)
            texts[delta] = _shuffled_text(h, rng, f"hdelta delta={delta}, relabelled")
        order = [("bounds", d) for d in HDELTA_BOUNDS] + [("demo", None)]
        rng.shuffle(order)
        return {"texts": texts, "order": order}
    if workload == "sparse":
        corpus = []
        for kind, n in SPARSE_STRATA:
            for i in sorted(rng.sample(range(SPARSE_POOL), SPARSE_PER_STRATUM)):
                h, _ = relabel(pool_graph(kind, n, i), rng)
                corpus.append((f"{kind}-{n}-{i}", kind, h))
        rng.shuffle(corpus)
        return {"corpus": corpus}
    if workload == "catalog":
        return {"rng": rng}
    if workload == "trace":
        cases = []
        for delta in TRACE_HDELTA:
            g, _ = families.gen_h_delta(delta)
            h, perm = relabel(g, rng)
            cases.append((f"H_{delta}", h, sorted((perm[0], perm[delta + 1]))))
        plans = [("spider", TRACE_SPIDERS), ("tree", TRACE_TREES), ("sparse", TRACE_SPARSE)]
        for kind, count in plans:
            for i in range(count):
                # sizes are fixed per case, so only structure and labels vary
                # with the seed and the work stays comparable between seeds
                if kind == "spider":
                    legs, leg_len = 3 + i % 4, 3 + i % 6
                    g = families.gen_spider(legs, leg_len)
                    name = f"spider-{legs}x{leg_len}"
                elif kind == "tree":
                    n = 40 + i * 40 // count
                    g = families.gen_random_tree(n, rng.randrange(1 << 30))
                    name = f"tree-{n}"
                else:
                    n = 30 + i * 30 // count
                    g = families.gen_random_connected(n, sparse_edges(n), rng.randrange(1 << 30))
                    name = f"sparse-{n}"
                h, _ = relabel(g, rng)
                cases.append((f"{name}#{i}", h, _greedy_pds(h, rng)))
        rng.shuffle(cases)
        return {"cases": cases}
    raise ValueError(f"unknown workload {workload!r}")


# -- operations ---------------------------------------------------------


def make_ops(workload: str, inputs: dict, ref: dict) -> Iterator[Op]:
    if workload == "hdelta":
        return _hdelta_ops(inputs, ref["hdelta"])
    if workload == "sparse":
        return _sparse_ops(inputs, ref["sparse"])
    if workload == "catalog":
        return _catalog_ops(inputs, ref["catalog"])
    if workload == "trace":
        return _trace_ops(inputs)
    raise ValueError(f"unknown workload {workload!r}")


def run_cli(argv: list, stdin_text: str = "") -> tuple[int, str]:
    """powerdom.cli.main in-process, with stdin fed and stdout captured."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _hdelta_ops(inputs: dict, ref: dict) -> Iterator[Op]:
    for kind, delta in inputs["order"]:
        if kind == "bounds":
            text = inputs["texts"][delta]
            yield Op(
                f"bounds H_{delta}",
                lambda text=text: run_cli(["bounds", "-", "--json"], text),
                lambda out, delta=delta: _check_hdelta_bounds(out, delta, ref),
            )
        else:
            lo, hi = HDELTA_DEMO
            yield Op(
                f"demo {lo}..{hi}",
                lambda: run_cli(["demo", "--from", str(lo), "--to", str(hi), "--json"]),
                lambda out: _check_demo(out, ref),
            )


def _check_hdelta_bounds(out, delta: int, ref: dict) -> None:
    code, text = out
    _expect(code == 0, f"bounds exited with {code}")
    rep = json.loads(text)
    _expect(rep["n"] == delta * delta + 1, f"n = {rep['n']}")
    _expect(rep["diameter"] == 4, f"diameter = {rep['diameter']}")
    _expect(rep["max_degree"] == delta, f"max_degree = {rep['max_degree']}")
    _expect(rep["gamma_p"] == 2, f"gamma_p = {rep['gamma_p']}")
    _expect(rep["refutation_flag"] == (delta >= 9), f"refutation_flag = {rep['refutation_flag']}")
    if delta == 9:
        _expect(rep["ppt_graph"] == 33, f"ppt at delta 9 = {rep['ppt_graph']}")
    _expect(rep == ref["bounds"][str(delta)], f"report differs from reference: {rep}")


def _check_demo(out, ref: dict) -> None:
    code, text = out
    _expect(code == 0, f"demo exited with {code}")
    rows = json.loads(text)
    lo, hi = HDELTA_DEMO
    _expect([r["delta"] for r in rows] == list(range(lo, hi + 1)), "demo rows")
    for r in rows:
        d = r["delta"]
        q = Fraction(d * d + 1, 4 * d + 1)
        _expect(
            (r["n"], r["diam"], r["max_degree"], r["gamma_p"]) == (d * d + 1, 4, d, 2),
            f"demo row {r}",
        )
        _expect(r["gamma_mode"] == ("exact" if d <= EXACT_DEMO_DELTA else "certified"), f"{r}")
        _expect(r["refuted_bound"] == {"num": q.numerator, "den": q.denominator}, f"{r}")
        _expect(r["refutation_flag"] == (d >= 9), f"demo row {r}")
    _expect(rows == ref["demo"], "demo output differs from reference")


def _check_witnesses(g: graph.Graph, result) -> None:
    seen = set()
    for w in result.witnesses:
        vs = tuple(w.vertices)
        _expect(len(vs) == result.gamma_p and len(set(vs)) == len(vs), f"witness {vs}")
        _expect(vs not in seen, f"witness {vs} repeats")
        seen.add(vs)
        _expect(propagation.is_pds(g, vs), f"witness {vs} is not a PDS")
        _expect(propagation.ppt_of_set(g, vs) == w.ppt, f"witness {vs} ppt {w.ppt}")
    _expect(result.ppt_graph == min(w.ppt for w in result.witnesses), "ppt_graph")


def _sparse_ops(inputs: dict, ref: dict) -> Iterator[Op]:
    for key, kind, g in inputs["corpus"]:
        want = ref[key]

        def check_gamma(res, g=g, want=want, key=key):
            _expect(
                (res.gamma_p, len(res.witnesses), res.ppt_graph)
                == (want["gamma_p"], want["witnesses"], want["ppt"]),
                f"{key}: gamma_p {res.gamma_p}, {len(res.witnesses)} witnesses, ppt {res.ppt_graph}",
            )
            _check_witnesses(g, res)

        yield Op(f"gamma {key}", lambda g=g: solver.gamma_p(g), check_gamma)
        for l in (1, 2):
            yield Op(
                f"lround{l} {key}",
                lambda g=g, l=l: solver.l_round_number(g, l),
                lambda v, want=want, l=l, key=key: _expect(
                    v == want[f"l{l}"], f"{key}: l{l} = {v}, expected {want[f'l{l}']}"
                ),
            )
        if kind == "tree":
            yield Op(
                f"verify-tree {key}",
                lambda g=g: tree_analysis.verify_tree_diameter_bound(g),
                lambda cert, g=g, want=want, key=key: _check_tree_cert(g, cert, want, key),
            )


def _check_tree_cert(g, cert, want: dict, key: str) -> None:
    _expect(cert.diam == want["diam"], f"{key}: diam {cert.diam}")
    _expect(cert.ppt_repaired == want["ppt"], f"{key}: ppt {cert.ppt_repaired}")
    rep = sorted(cert.repaired_set)
    _expect(len(rep) == want["gamma_p"], f"{key}: repaired set {rep}")
    _expect(all(g.degree(v) >= 2 for v in rep), f"{key}: repaired set has a leaf")
    _expect(propagation.ppt_of_set(g, rep) == want["ppt"], f"{key}: repaired ppt")
    tr = propagation.propagate(g, rep)
    path = cert.witness_trail.vertices
    _expect(bool(trails.is_monotone_trail(g, tr, path)), f"{key}: witness trail")
    _expect(len(set(path)) == len(path), f"{key}: witness path repeats a vertex")
    _expect(len(path) - 1 >= want["ppt"] + 1, f"{key}: witness path too short")


def catalog_key(g: graph.Graph) -> str:
    degs = ",".join(map(str, sorted(g.degree(v) for v in range(g.n))))
    return f"{g.n}/{g.edge_count}/{degs}"


def gamma_answer(res) -> str:
    return f"{res.gamma_p}/{len(res.witnesses)}/{res.ppt_graph}"


def bounds_answer(rep) -> str:
    return json.dumps(rep.to_json_dict(), sort_keys=True)


def _consume(remaining: Counter, key: str, answer: str) -> None:
    _expect(remaining[(key, answer)] > 0, f"{key}: unexpected answer {answer}")
    remaining[(key, answer)] -= 1


def _catalog_ops(inputs: dict, ref: dict) -> Iterator[Op]:
    gamma_left = Counter({(k, a): c for k, a, c in ref["gamma"]})
    bounds_left = Counter({(k, a): c for k, a, c in ref["bounds"]})
    levels = {}
    for n in range(1, CATALOG_MAX_N + 1):

        def build(n=n):
            levels[n] = catalog.nonisomorphic_graphs(n)
            return levels[n]

        yield Op(
            f"catalog n={n}",
            build,
            lambda gs, n=n: _expect(len(gs) == CATALOG_COUNTS[n], f"{len(gs)} graphs on {n}"),
        )
    graphs = [g for n in sorted(levels) for g in levels[n]]
    todo = [("gamma", g) for g in graphs]
    todo += [("bounds", g) for g in graphs if g.n >= 2 and g.is_connected()]
    inputs["rng"].shuffle(todo)
    for kind, g in todo:
        key = catalog_key(g)
        if kind == "gamma":

            def check_gamma(res, g=g, key=key):
                _consume(gamma_left, key, gamma_answer(res))
                _check_witnesses(g, res)

            yield Op(f"gamma {key}", lambda g=g: solver.gamma_p(g), check_gamma)
        else:
            yield Op(
                f"bounds {key}",
                lambda g=g: bounds.bounds_report(g),
                lambda rep, key=key: _consume(bounds_left, key, bounds_answer(rep)),
            )


def oracle_layers(g: graph.Graph, seeds) -> list:
    """Observation layers straight from the definition, on Python sets."""
    obs = set(seeds)
    layers = [frozenset(obs)]
    nxt = set(obs)
    for v in obs:
        nxt |= g.neighbors(v)
    while nxt != obs:
        obs = nxt
        layers.append(frozenset(obs))
        nxt = set(obs)
        for v in obs:
            outside = g.neighbors(v) - obs
            if len(outside) == 1:
                nxt |= outside
    return layers


def _trace_run(g, seeds):
    tr = propagation.propagate(g, seeds)
    doc = tr.to_json_dict()
    targets = [v for v in range(g.n) if tr.time_label[v] > 0]
    return tr, doc, [(v, trails.extract_monotone_trail(g, tr, v)) for v in targets]


def _check_trace(out, g, seeds, name: str) -> None:
    tr, doc, found = out
    layers = oracle_layers(g, seeds)
    _expect(list(tr.layers) == layers, f"{name}: layers differ from the definition")
    _expect(tr.complete and layers[-1] == frozenset(range(g.n)), f"{name}: not complete")
    _expect(doc["layers"] == [sorted(x) for x in layers], f"{name}: json layers")
    _expect(doc["start"] == sorted(seeds) and doc["complete"], f"{name}: json header")
    t = [0] * g.n
    for i in range(1, len(layers)):
        for v in layers[i] - layers[i - 1]:
            t[v] = i
    _expect(list(tr.time_label) == t == doc["time_label"], f"{name}: time labels")
    _expect([v for v, _ in found] == [v for v in range(g.n) if t[v] > 0], f"{name}: targets")
    for v, trail in found:
        check = trails.is_monotone_trail(g, tr, trail.vertices)
        _expect(bool(check), f"{name}: trail to {v}: {check.reason}")
        _expect(trail.last_vertex == v, f"{name}: trail to {v} ends at {trail.last_vertex}")
        _expect(trail.length >= t[v] + 1, f"{name}: trail to {v} has length {trail.length}")


def _trace_ops(inputs: dict) -> Iterator[Op]:
    for name, g, seeds in inputs["cases"]:
        yield Op(
            f"trace {name}",
            lambda g=g, seeds=seeds: _trace_run(g, seeds),
            lambda out, g=g, seeds=seeds, name=name: _check_trace(out, g, seeds, name),
        )
