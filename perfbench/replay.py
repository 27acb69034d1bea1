"""Replay kernel calls on every engine that imports and require equal outputs.

Two inputs per engine: the sample of fixed_point / layer_masks calls
recorded during a traced pass (replayed against the outputs the program
produced), and the singleton+pair fixed_point sweep on H_9, H_13 and H_17,
whose outputs must hash to the committed reference digest. The sweep
crosses the 64-bit word boundary (n = 82, 170, 290), so multiword masks
are covered whichever workload was traced.
"""

from __future__ import annotations

import hashlib
from itertools import combinations
from time import perf_counter

SWEEP_DELTAS = (9, 13, 17)


def engines() -> dict:
    from powerdom import _pycore

    found = {"pure": _pycore.PropagationCore}
    try:
        from powerdom import _core
    except ImportError:
        return found
    found["compiled"] = _core.PropagationCore
    return found


def sweep_graph(delta: int) -> tuple[tuple, int]:
    from powerdom import families

    g, _ = families.gen_h_delta(delta)
    return g.adjacency_masks, g.n


def sweep(core, n: int) -> list:
    fp = core.fixed_point
    out = [fp(1 << v) for v in range(n)]
    out.extend(fp((1 << u) | (1 << v)) for u, v in combinations(range(n), 2))
    return out


def digest(outputs) -> str:
    return hashlib.sha256(repr([tuple(o) for o in outputs]).encode()).hexdigest()


def replay(sample, graphs, sweep_digests: dict) -> dict:
    """Per engine: seconds spent in kernel calls, calls checked, mismatches."""
    sweeps = {d: sweep_graph(d) for d in SWEEP_DELTAS}
    report = {}
    for name, engine in engines().items():
        cores = {}
        got = []
        t0 = perf_counter()
        for gid, kind, start, _ in sample:
            core = cores.get(gid)
            if core is None:
                core = cores[gid] = engine(*graphs[gid])
            got.append(getattr(core, kind)(start))
        seconds = perf_counter() - t0
        mismatches = [
            f"{kind}({start:#x}) on graph {gid}"
            for (gid, kind, start, want), have in zip(sample, got)
            if list(have) != list(want)
        ]
        for delta, (masks, n) in sweeps.items():
            t0 = perf_counter()
            outputs = sweep(engine(masks, n), n)
            seconds += perf_counter() - t0
            if digest(outputs) != sweep_digests[str(delta)]:
                mismatches.append(f"H_{delta} pair sweep digest")
        report[name] = {
            "seconds": seconds,
            "checked": len(sample) + len(sweeps),
            "mismatches": mismatches,
        }
    return report
