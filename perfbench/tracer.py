"""Span recorder for the traced benchmark pass.

Tracing replaces the public callables at each powerdom module boundary
with span-recording wrappers, for the length of one pass, and puts every
original back afterwards. A callable is replaced in every module that
binds it (bounds and cli import gamma_p by name, the package namespace
re-exports most names), so no call path escapes the recorder. The kernel
is traced by rebinding the engine class that Graph.core instantiates.

A span is (name, start, end, parent, op). Spans live in flat arrays in
memory, indexed in start order, so a parent's index is always smaller
than its children's; they are written out once the pass ends. A span's
self time is its duration minus the durations of its direct children
(calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

SETUP_OP = -1
ROOT = -1
# the benchmark's own span around each op; its self time is what no layer covers
OP_LAYER = "op"

# (layer, module, attribute); "Class.method" names a method on a class.
TARGETS = (
    ("solver", "powerdom.solver", "gamma_p"),
    ("solver", "powerdom.solver", "l_round_number"),
    ("solver", "powerdom.solver", "ppt_graph"),
    ("catalog", "powerdom.catalog", "certificate"),
    ("catalog", "powerdom.catalog", "canonical_certificate"),
    ("catalog", "powerdom.catalog", "nonisomorphic_graphs"),
    ("catalog", "powerdom.catalog", "connected_graphs"),
    ("catalog", "powerdom.catalog", "connected_catalog"),
    ("catalog", "powerdom.catalog", "full_catalog"),
    ("propagation", "powerdom.propagation", "propagate"),
    ("propagation", "powerdom.propagation", "is_pds"),
    ("propagation", "powerdom.propagation", "ppt_of_set"),
    ("propagation", "powerdom.propagation", "ObservationTrace.to_json_dict"),
    ("trails", "powerdom.trails", "extract_monotone_trail"),
    ("trails", "powerdom.trails", "is_monotone_trail"),
    ("tree_analysis", "powerdom.tree_analysis", "verify_tree_diameter_bound"),
    ("tree_analysis", "powerdom.tree_analysis", "repair_leaf_seeds"),
    ("graph", "powerdom.graph", "parse_graph"),
    ("graph", "powerdom.graph", "write_graph"),
    ("graph", "powerdom.graph", "Graph.diameter"),
    ("graph", "powerdom.graph", "Graph.components"),
    ("graph", "powerdom.graph", "Graph.subgraph"),
    ("families", "powerdom.families", "gen_h_delta"),
    ("families", "powerdom.families", "gen_path"),
    ("families", "powerdom.families", "gen_cycle"),
    ("families", "powerdom.families", "gen_star"),
    ("families", "powerdom.families", "gen_complete"),
    ("families", "powerdom.families", "gen_spider"),
    ("families", "powerdom.families", "gen_random_tree"),
    ("families", "powerdom.families", "gen_random_connected"),
    ("bounds", "powerdom.bounds", "bounds_report"),
    ("bounds", "powerdom.bounds", "correct_lower_bound"),
    ("bounds", "powerdom.bounds", "refuted_diameter_bound"),
    ("bounds", "powerdom.bounds", "ppt_lower_bound"),
    ("bounds", "powerdom.bounds", "tree_lower_bound"),
    ("cli", "powerdom.cli", "main"),
    ("cli", "powerdom.cli", "counterexample_demo"),
)

LAYERS = (
    "kernel", "solver", "catalog", "propagation", "trails", "tree_analysis",
    "graph", "families", "bounds", "cli",
)

# kernel calls kept for the cross-engine replay: every k-th call, with k
# doubled whenever the buffer reaches twice this size
REPLAY_SAMPLE = 1500


class Recorder:
    """In-memory span store plus the state of the call stack."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []
        self._name_ids: dict[tuple[str, str], int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        # kernel spans: steps * 2 + (1 if the run observed the whole graph)
        self.aux = array("q")
        self.current = ROOT
        self.current_op = SETUP_OP
        self.on = False
        self.graphs: list[tuple[tuple, int]] = []
        self.sample: list[tuple[int, str, int, object]] = []
        self._sample_every = 1
        self._sample_seen = 0
        self.certificates: set = set()

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.aux.append(0)
        self.current = sid
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.current = self.parent[sid]

    def keep_sample(self, gid: int, kind: str, start: int, out) -> None:
        self._sample_seen += 1
        if self._sample_seen % self._sample_every:
            return
        self.sample.append((gid, kind, start, out))
        if len(self.sample) >= 2 * REPLAY_SAMPLE:
            del self.sample[1::2]
            self._sample_every *= 2

    def dump(self, path) -> None:
        """Write every span as gzip-compressed JSON columns."""
        payload = {
            "names": [f"{layer}.{name}" for layer, name in self.names],
            "columns": ["name", "start", "end", "parent", "op"],
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _span_wrapper(fn, rec: Recorder, nid: int, on_result=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        sid = rec.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if on_result is not None:
            on_result(out)
        return out

    return traced


def _traced_core_class(engine, rec: Recorder):
    """A stand-in for the engine class whose two calls record spans."""
    fp_id = rec.name_id("kernel", "fixed_point")
    lm_id = rec.name_id("kernel", "layer_masks")

    class TracedCore:
        __slots__ = ("_inner", "_full", "_gid")

        def __init__(self, adj_masks, n):
            self._inner = engine(adj_masks, n)
            self._full = (1 << n) - 1
            self._gid = len(rec.graphs)
            rec.graphs.append((tuple(adj_masks), n))

        def fixed_point(self, start):
            if not rec.on:
                return self._inner.fixed_point(start)
            sid = rec.open(fp_id)
            try:
                out = self._inner.fixed_point(start)
            finally:
                rec.close(sid)
            rec.aux[sid] = out[1] * 2 + (out[0] == self._full)
            rec.keep_sample(self._gid, "fixed_point", start, out)
            return out

        def layer_masks(self, start):
            if not rec.on:
                return self._inner.layer_masks(start)
            sid = rec.open(lm_id)
            try:
                out = self._inner.layer_masks(start)
            finally:
                rec.close(sid)
            rec.aux[sid] = (len(out) - 1) * 2 + (out[-1] == self._full)
            rec.keep_sample(self._gid, "layer_masks", start, list(out))
            return out

    TracedCore.__name__ = TracedCore.__qualname__ = f"Traced{engine.__name__}"
    return TracedCore


def _powerdom_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "powerdom" or name.startswith("powerdom."))
    ]


class Tracer:
    """Installs the wrappers, remembers every replaced binding, restores them."""

    def __init__(self):
        self.rec = Recorder()
        self._replaced: list[tuple[object, str, object]] = []
        self._restored: list[tuple[object, str, object]] = []

    def _rebind_everywhere(self, original, replacement) -> int:
        count = 0
        for mod in _powerdom_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._replaced.append((mod, attr, original))
                    count += 1
        return count

    def install(self) -> None:
        if self._replaced:
            raise RuntimeError("tracer already installed")
        from powerdom import _kernel

        rec = self.rec
        engine = _kernel.PropagationCore
        self._rebind_everywhere(engine, _traced_core_class(engine, rec))
        for layer, modname, attr in TARGETS:
            mod = sys.modules[modname]
            hook = rec.certificates.add if attr == "certificate" else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, _span_wrapper(original, rec, rec.name_id(layer, attr), hook))
                self._replaced.append((cls, meth, original))
            else:
                original = getattr(mod, attr)
                wrapper = _span_wrapper(original, rec, rec.name_id(layer, attr), hook)
                if not self._rebind_everywhere(original, wrapper):
                    raise RuntimeError(f"{modname}.{attr} is not bound anywhere")
        rec.on = True

    def uninstall(self) -> None:
        self.rec.on = False
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)
        self._restored, self._replaced = self._replaced, []

    def unrestored(self) -> list[str]:
        """Bindings that do not hold their original object (by identity)."""
        bad = []
        for owner, attr, original in self._restored:
            if vars(owner).get(attr) is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return bad


def self_times(rec: Recorder) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    start, end, parent = rec.start, rec.end, rec.parent
    own = [end[i] - start[i] for i in range(len(start))]
    for i in range(len(start)):
        p = parent[i]
        if p != ROOT:
            own[p] -= end[i] - start[i]
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_report(rec: Recorder) -> dict:
    """Per-layer metrics and the attribution of op time to layers."""
    own = self_times(rec)
    n = len(own)
    layer_of = [layer for layer, _ in rec.names]
    label_of = [f"{layer}.{name}" for layer, name in rec.names]
    names, parent, ops, aux = rec.name, rec.parent, rec.op, rec.aux
    dur = [rec.end[i] - rec.start[i] for i in range(n)]

    layer_self: dict[str, float] = {}
    by_name_time: dict[str, float] = {}
    by_name_calls: dict[str, int] = {}
    setup_self: dict[str, float] = {}
    op_total = 0.0
    # spans under a solver span, found in one pass since parents come first
    under_solver = bytearray(n)
    rounds = solver_runs = solver_hits = 0
    propagate_total = masks_in_propagate = 0.0
    for i in range(n):
        nid = names[i]
        layer = layer_of[nid]
        label = label_of[nid]
        p = parent[i]
        if p != ROOT and (under_solver[p] or layer_of[names[p]] == "solver"):
            under_solver[i] = 1
        if ops[i] == SETUP_OP:
            setup_self[layer] = setup_self.get(layer, 0.0) + own[i]
            continue
        if layer == OP_LAYER:
            op_total += dur[i]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
        by_name_time[label] = by_name_time.get(label, 0.0) + dur[i]
        by_name_calls[label] = by_name_calls.get(label, 0) + 1
        if layer == "kernel":
            rounds += aux[i] >> 1
            if under_solver[i] and label == "kernel.fixed_point":
                solver_runs += 1
                solver_hits += aux[i] & 1
            if p != ROOT and label_of[names[p]] == "propagation.propagate":
                masks_in_propagate += dur[i]
        if label == "propagation.propagate":
            propagate_total += dur[i]

    kernel_calls = by_name_calls.get("kernel.fixed_point", 0) + by_name_calls.get(
        "kernel.layer_masks", 0
    )
    kernel_s = layer_self.get("kernel", 0.0)
    cert_calls = by_name_calls.get("catalog.certificate", 0)
    metrics = {
        "kernel.calls": kernel_calls,
        "kernel.rounds": rounds,
        "kernel.self_s": kernel_s,
        "kernel.us_per_call": _ratio(kernel_s * 1e6, kernel_calls),
        "solver.self_s": layer_self.get("solver", 0.0),
        "solver.runs": solver_runs,
        "solver.hit_ratio": _ratio(solver_hits, solver_runs),
        "catalog.cert_calls": cert_calls,
        "catalog.cert_s": by_name_time.get("catalog.certificate", 0.0),
        "catalog.self_s": layer_self.get("catalog", 0.0),
        "catalog.kept_ratio": _ratio(len(rec.certificates), cert_calls),
        "propagation.self_s": layer_self.get("propagation", 0.0),
        "propagation.trace_x_kernel": _ratio(propagate_total, masks_in_propagate),
        "trails.calls": by_name_calls.get("trails.extract_monotone_trail", 0),
        "trails.self_s": layer_self.get("trails", 0.0),
        "tree_analysis.self_s": layer_self.get("tree_analysis", 0.0),
        "graph.parse_s": by_name_time.get("graph.parse_graph", 0.0),
        "graph.diameter_s": by_name_time.get("graph.Graph.diameter", 0.0),
        "graph.components_s": by_name_time.get("graph.Graph.components", 0.0)
        + by_name_time.get("graph.Graph.subgraph", 0.0),
        "families.gen_s": setup_self.get("families", 0.0),
        "bounds.self_s": layer_self.get("bounds", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
    }
    attribution = {layer: layer_self.get(layer, 0.0) for layer in LAYERS}
    attribution["unattributed"] = layer_self.get(OP_LAYER, 0.0)
    return {
        "metrics": metrics,
        "attribution_s": attribution,
        "traced_op_s": op_total,
        "spans": n,
        "calls": by_name_calls,
    }
