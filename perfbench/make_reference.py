"""Write reference.json: the answers the benchmark's checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Covers every input any seed can produce: the H_delta bound reports and
the demo table, every graph in the sparse pools, the whole catalog up to
7 vertices (as multisets keyed by an isomorphism invariant, so a catalog
that orders or labels its representatives differently still matches),
and digests of the kernel pair sweeps used by the replay. Regenerate it
only to record answers from a version of powerdom known to be right.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import replay
from workloads import (
    CATALOG_MAX_N,
    HDELTA_BOUNDS,
    HDELTA_DEMO,
    SPARSE_POOL,
    SPARSE_STRATA,
    bounds_answer,
    catalog_key,
    gamma_answer,
    pool_graph,
    run_cli,
)

from powerdom import _pycore, bounds, catalog, families, graph, solver

OUT = Path(__file__).resolve().parent / "reference.json"


def _counter_rows(counter: Counter) -> list:
    return [[k, a, c] for (k, a), c in sorted(counter.items())]


def _cli_json(argv: list, stdin_text: str = ""):
    code, out = run_cli(argv, stdin_text)
    if code != 0:
        raise RuntimeError(f"powerdom {' '.join(argv)} exited with {code}")
    return json.loads(out)


def main() -> int:
    ref = {"hdelta": {"bounds": {}}, "sparse": {}, "catalog": {}, "sweep_digests": {}}
    for delta in HDELTA_BOUNDS:
        g, _ = families.gen_h_delta(delta)
        ref["hdelta"]["bounds"][str(delta)] = _cli_json(
            ["bounds", "-", "--json"], graph.write_graph(g)
        )
    lo, hi = HDELTA_DEMO
    ref["hdelta"]["demo"] = _cli_json(["demo", "--from", str(lo), "--to", str(hi), "--json"])

    for kind, n in SPARSE_STRATA:
        for i in range(SPARSE_POOL):
            g = pool_graph(kind, n, i)
            res = solver.gamma_p(g)
            entry = {
                "gamma_p": res.gamma_p,
                "witnesses": len(res.witnesses),
                "ppt": res.ppt_graph,
                "l1": solver.l_round_number(g, 1),
                "l2": solver.l_round_number(g, 2),
            }
            if kind == "tree":
                entry["diam"] = g.diameter()
            ref["sparse"][f"{kind}-{n}-{i}"] = entry

    gammas, reports = Counter(), Counter()
    for g in catalog.full_catalog(CATALOG_MAX_N):
        key = catalog_key(g)
        gammas[(key, gamma_answer(solver.gamma_p(g)))] += 1
        if g.n >= 2 and g.is_connected():
            reports[(key, bounds_answer(bounds.bounds_report(g)))] += 1
    ref["catalog"] = {"gamma": _counter_rows(gammas), "bounds": _counter_rows(reports)}

    for delta in replay.SWEEP_DELTAS:
        masks, n = replay.sweep_graph(delta)
        outputs = replay.sweep(_pycore.PropagationCore(masks, n), n)
        ref["sweep_digests"][str(delta)] = replay.digest(outputs)

    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT.name}: {len(ref['sparse'])} sparse pool graphs, "
          f"{sum(gammas.values())} catalog graphs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
