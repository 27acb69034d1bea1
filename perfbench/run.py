"""powerdom benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
src/ as checked out. Each pass of the workload runs in a fresh
single-threaded interpreter (perfbench/worker.py), one after another, as
a user's CLI call would. Passes repeat until --seconds have been spent
(at least MIN_PASSES of them). Each op is timed by its median over the
passes, and wall_s sums those medians. setup_s and wall_s are given in
reference seconds (see calibrate.py): the machine's speed, measured by a
fixed loop run next to every timed interval, is divided out. Raw times
go to the results file.

--trace 0 reports the end-to-end metrics with tracing off. Set-up is
sampled SETUP_PROBES extra times by interpreters that only set up.
--trace 1 alternates traced and untraced passes, reports the per-layer
metrics from the traced ones, and replays a sample of the kernel calls
on every engine that imports.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record (environment, extra
metrics, per-pass figures, layer attribution, every failure) goes to
perfbench/results/, and the spans of the first traced pass next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_S, loop_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
SPEC = HERE / "spec.json"

WORKLOADS = ("hdelta", "sparse", "catalog", "trace")
MIN_PASSES = 3
SETUP_PROBES = 5
# the whole run, builds aside, must end well inside three minutes
DEADLINE_S = 165.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.t_start = time.monotonic()
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.env["PYTHONHASHSEED"] = "0"

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    def spawn(self, *flags: str) -> dict:
        """One pass in a fresh interpreter; its set-up time is measured from spawn."""
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        cmd = [sys.executable, str(WORKER), "--workload", self.workload, "--seed", str(self.seed)]
        cal = loop_seconds()
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + list(flags), cwd=ROOT, env=self.env, capture_output=True,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass {' '.join(flags)} did not finish within the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["setup_raw_s"] = result["ready"] - t0
        # calibrated just before the spawn and just after the set-up
        result["setup_s"] = result["setup_raw_s"] * 2 * REF_S / (cal + result["cal_s"])
        return result


def _median(values):
    return statistics.median(values)


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced_run(r: Runner, seconds: float) -> tuple[dict, dict, list]:
    r.spawn("--setup-only")  # fills the bytecode cache; not a sample
    starts = [r.spawn("--setup-only") for _ in range(SETUP_PROBES)]
    passes = []
    t0 = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - t0 < seconds:
        passes.append(r.spawn())
    starts += passes

    def per_op(key):
        # each op's median over the passes, so a slow spell during one
        # pass moves neither the total nor the percentiles
        return [_median(times) for times in zip(*(p[key] for p in passes))]

    per_op_ms = per_op("op_ref_ms")
    metrics = {
        "setup_s": _median([p["setup_s"] for p in starts]),
        "wall_s": sum(per_op_ms) / 1e3,
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
    }
    extra = {
        "ops_per_pass": len(per_op_ms),
        "passes": len(passes),
        "setup_samples": len(starts),
        "raw_setup_s": _median([p["setup_raw_s"] for p in starts]),
        "raw_wall_s": sum(per_op("op_ms")) / 1e3,
        "pass_wall_ref_s": [p["wall_ref_s"] for p in passes],
        "pass_wall_raw_s": [p["wall_s"] for p in passes],
        "calibration_s": [p["cal_s"] for p in starts],
    }
    # op latency percentiles go to the results file only, for workloads with
    # enough ops (20 for the median, ten beyond the 90th percentile): hdelta
    # has 11, and every metric printed must exist on every workload
    if len(per_op_ms) >= 20:
        extra["op_ms_p50"] = _median(per_op_ms)
    if len(per_op_ms) >= 100:
        extra["op_ms_p90"] = _percentile(per_op_ms, 90)
    return metrics, extra, passes


def traced_run(r: Runner, seconds: float, spans_path: Path) -> tuple[dict, dict, list]:
    t0 = time.monotonic()
    traced = [r.spawn("--traced", "--replay", "--spans", str(spans_path))]
    untraced = []
    while not untraced or time.monotonic() - t0 < seconds:
        untraced.append(r.spawn())
        if time.monotonic() - t0 < seconds:
            traced.append(r.spawn("--traced"))
    layer_runs = [p["layers"] for p in traced]
    # median_low keeps counts whole: with an even number of passes it
    # returns one of the measured values instead of a mean of two
    metrics = {
        name: statistics.median_low([lr["metrics"][name] for lr in layer_runs])
        for name in layer_runs[0]["metrics"]
    }
    replay = traced[0]["replay"]
    metrics["kernel.replay_s.pure"] = replay["pure"]["seconds"]
    traced_wall = _median([p["wall_ref_s"] for p in traced])
    untraced_wall = _median([p["wall_ref_s"] for p in untraced])
    metrics["tracing_overhead"] = traced_wall / untraced_wall
    attribution = {
        layer: _median([lr["attribution_s"][layer] for lr in layer_runs])
        for layer in layer_runs[0]["attribution_s"]
    }
    traced_op_s = _median([lr["traced_op_s"] for lr in layer_runs])
    extra = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "traced_wall_ref_s": traced_wall,
        "untraced_wall_ref_s": untraced_wall,
        "attribution_s": attribution,
        "attribution_share": {k: v / traced_op_s for k, v in attribution.items()},
        "dominant_layer": max(
            (k for k in attribution if k != "unattributed"), key=attribution.get
        ),
        "spans_per_pass": layer_runs[0]["spans"],
        "calls_by_name": layer_runs[0]["calls"],
        "replay": replay,
    }
    for engine, rep in replay.items():
        extra[f"kernel.replay_s.{engine}"] = rep["seconds"]
    return metrics, extra, traced + untraced


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(first_pass: dict, seed: int) -> dict:
    env = {
        "engine": first_pass["engine"],
        "compiled_imports": first_pass["compiled_imports"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "seed": seed,
    }
    if not first_pass["compiled_imports"]:
        env["note"] = (
            "powerdom._core does not import (Cython is not installed, so setup.py "
            "builds no extension); every figure is for the pure engine"
        )
    return env


def _summary(workload, seed, metrics, extra, units) -> list[str]:
    lines = [f"powerdom benchmark: workload {workload}, seed {seed}"]
    for name, value in metrics.items():
        lines.append(f"  {name:<28} {value:>14.6g} {units.get(name, '')}")
    if "attribution_s" in extra:
        total = sum(extra["attribution_s"].values())
        lines.append(f"  traced time by layer (self time, {total:.3f} s in all):")
        for layer, s in sorted(extra["attribution_s"].items(), key=lambda kv: -kv[1]):
            lines.append(f"    {layer:<14} {s:>10.4f} s {100 * s / total:6.1f}%")
        lines.append(f"  dominant layer: {extra['dominant_layer']}")
    else:
        lines.append(
            f"  {extra['passes']} passes of {extra['ops_per_pass']} ops (each op timed by its "
            f"median over the passes); setup_s over {extra['setup_samples']} starts"
        )
        lines.append(
            f"  raw seconds: setup {extra['raw_setup_s']:.6g}, wall {extra['raw_wall_s']:.6g}"
        )
        for name in ("op_ms_p50", "op_ms_p90"):
            if name in extra:
                lines.append(f"  {name} {extra[name]:.6g} ms over {extra['ops_per_pass']} ops")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="workload seed (default: spec.json default_seed)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "powerdom" / "__init__.py").is_file():
        print(f"powerdom sources not found under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    seed = args.seed
    if seed is None:
        with open(SPEC, encoding="utf-8") as fh:
            seed = json.load(fh)["default_seed"]

    runner = Runner(args.workload, seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, extra, passes = traced_run(
                runner, args.seconds, RESULTS / f"spans-{args.workload}-seed{seed}.json.gz"
            )
        else:
            metrics, extra, passes = untraced_run(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    for engine, rep in extra.get("replay", {}).items():
        attempted += rep["checked"]
        failed += len(rep["mismatches"])
        errors += [{"op": f"replay on {engine}", "error": m} for m in rep["mismatches"]]

    units = _units()
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(passes[0], seed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": extra,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "errors": errors,
        "run_s": runner.elapsed(),
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for err in errors[:20]:
        print(f"FAILED {err['op']}: {err['error']}", file=sys.stderr)
    for line in _summary(args.workload, seed, metrics, extra, units):
        print(line)
    print(f"  fail_frac {record['fail_frac']:.6g} ({failed} of {attempted} checks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
