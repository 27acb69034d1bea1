"""Tests of the benchmark itself (not of powerdom).

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
from calibrate import REF_S  # noqa: E402
import workloads  # noqa: E402

from powerdom import propagation, solver  # noqa: E402
from powerdom.errors import SearchBudgetExceeded  # noqa: E402
from powerdom.graph import Graph  # noqa: E402
from powerdom.propagation import ObservationTrace  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "catalog", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=175,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_spec_maps_every_layer_metric():
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(spec["layer_metrics"]) == per_layer
    assert spec["default_seed"] != spec["held_out_seed"]


def test_reference_times_scale_each_block_by_its_calibration_runs():
    # ops 0-1 lie between runs of REF_S and 3*REF_S, op 2 between 3*REF_S and REF_S
    cals = [(0, REF_S), (2, 3 * REF_S), (3, REF_S)]
    assert worker.to_reference([1.0, 2.0, 3.0], cals) == pytest.approx([0.5, 1.0, 1.5])


def _bindings() -> dict:
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "powerdom" or name.startswith("powerdom."):
            snap.update({(name, attr): value for attr, value in vars(mod).items()})
    for cls in (Graph, ObservationTrace):
        snap.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return snap


def test_traced_pass_restores_every_wrapped_callable():
    before = _bindings()
    result = worker.run_pass("trace", 5, traced=True, max_ops=6)
    after = _bindings()
    assert result["failed"] == 0
    assert result["layers"]["metrics"]["kernel.calls"] > 0
    assert result["layers"]["metrics"]["trails.calls"] > 0
    assert before.keys() == after.keys()
    assert [key for key in before if before[key] is not after[key]] == []


def _wrong_gamma(real):
    def planted(g, *args, **kwargs):
        res = real(g, *args, **kwargs)
        return dataclasses.replace(res, gamma_p=res.gamma_p + 1)

    return planted


def _raising_lround(real):
    def planted(g, l, *args, **kwargs):
        raise SearchBudgetExceeded("planted")

    return planted


def _short_trace(real):
    def planted(g, s):
        tr = real(g, s)
        return dataclasses.replace(tr, layers=tr.layers[:-1])

    return planted


@pytest.mark.parametrize(
    "workload, module, name, plant",
    [
        ("sparse", solver, "gamma_p", _wrong_gamma),
        ("sparse", solver, "l_round_number", _raising_lround),
        ("trace", propagation, "propagate", _short_trace),
    ],
)
def test_planted_wrong_answer_is_counted(monkeypatch, workload, module, name, plant):
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    result = worker.run_pass(workload, 2, max_ops=8)
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0  # the pass's fail_frac
    assert all(err["error"] for err in result["errors"])


def test_spans_nest_and_self_times_are_nonnegative():
    t = tracer.Tracer()
    t.install()
    try:
        ref = worker.load_reference()
        ops = workloads.make_ops("sparse", workloads.make_inputs("sparse", 4), ref)
        for op in itertools.islice(ops, 12):
            op.check(op.run())
        text = workloads.make_inputs("hdelta", 4)["texts"][5]
        code, _ = workloads.run_cli(["bounds", "-", "--json"], text)
        assert code == 0
    finally:
        t.uninstall()
    rec = t.rec
    assert len(rec.start) > 100
    depth = [0] * len(rec.start)
    for i in range(len(rec.start)):
        p = rec.parent[i]
        assert rec.end[i] >= rec.start[i]
        if p != tracer.ROOT:
            assert p < i
            assert rec.start[p] <= rec.start[i] and rec.end[i] <= rec.end[p]
            depth[i] = depth[p] + 1
    assert max(depth) >= 3  # cli -> bounds -> solver -> kernel
    assert min(tracer.self_times(rec)) >= 0
    report = tracer.layer_report(rec)
    assert all(v >= 0 for v in report["attribution_s"].values())
