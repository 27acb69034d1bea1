"""One benchmark pass, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py --workload sparse --seed 1 [--traced]
        [--replay] [--spans PATH] [--setup-only]

A pass imports powerdom, generates the workload's seeded inputs (the
set-up), then runs every operation once, timing each and checking its
answer outside the timed region. The calibration loop (calibrate.py)
runs right after set-up and after every CALIBRATE_EVERY_S of op time, so
each op time can also be given in reference seconds. With --traced the span recorder is
installed for the pass (set-up included, so generator time is seen) and
removed afterwards. The pass prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from calibrate import REF_S, loop_seconds
from tracer import OP_LAYER, Tracer, layer_report

import powerdom

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# op time between two runs of the calibration loop
CALIBRATE_EVERY_S = 0.2


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def compiled_imports() -> bool:
    try:
        from powerdom import _core  # noqa: F401
    except ImportError:
        return False
    return True


def to_reference(op_ms: list, cals: list) -> list:
    """Op times in reference ms: each block of ops between two calibration
    runs is scaled by REF_S over the mean of those two runs."""
    out = []
    for (start, before), (stop, after) in zip(cals, cals[1:]):
        scale = 2 * REF_S / (before + after)
        out.extend(ms * scale for ms in op_ms[start:stop])
    return out


def run_pass(
    workload: str,
    seed: int,
    traced: bool = False,
    replay_kernel: bool = False,
    spans_path=None,
    max_ops: int | None = None,
    setup_only: bool = False,
) -> dict:
    """Set up, run and check one pass; the dict is what the worker prints."""
    tracer = Tracer() if traced else None
    rec = tracer.rec if tracer else None
    if tracer:
        tracer.install()
    try:
        inputs = workloads.make_inputs(workload, seed)
        ready = time.monotonic()
        if rec:
            rec.on = False
        cals = [(0, loop_seconds())]  # (first op after it, loop seconds)
        if setup_only:
            return {"ready": ready, "cal_s": cals[0][1]}
        ref = load_reference()
        op_ms, errors = [], []
        since_cal = 0.0
        op_nid = rec.name_id(OP_LAYER, "op") if rec else 0
        for i, op in enumerate(workloads.make_ops(workload, inputs, ref)):
            if max_ops is not None and i >= max_ops:
                break
            error = None
            if rec:
                rec.current_op = i
                rec.on = True
                sid = rec.open(op_nid)
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception:  # a failed op is a result: recorded, then counted
                error = traceback.format_exc()
            finally:
                op_ms.append((perf_counter() - t0) * 1e3)
                if rec:
                    rec.close(sid)
                    rec.on = False
            if error is None:
                try:
                    op.check(out)
                except workloads.WrongAnswer as exc:
                    error = f"wrong answer: {exc}"
                except Exception:  # a check that crashes is a failure too
                    error = traceback.format_exc()
            if error is not None:
                errors.append({"op": op.label, "error": error})
            since_cal += op_ms[-1] / 1e3
            if since_cal >= CALIBRATE_EVERY_S:
                cals.append((i + 1, loop_seconds()))
                since_cal = 0.0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cals.append((len(op_ms), loop_seconds()))
    finally:
        if tracer:
            tracer.uninstall()
    op_ref_ms = to_reference(op_ms, cals)
    result = {
        "ready": ready,
        "cal_s": cals[0][1],
        "wall_s": sum(op_ms) / 1e3,
        "wall_ref_s": sum(op_ref_ms) / 1e3,
        "op_ms": op_ms,
        "op_ref_ms": op_ref_ms,
        "attempted": len(op_ms),
        "failed": len(errors),
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "engine": powerdom.BACKEND,
        "compiled_imports": compiled_imports(),
    }
    if tracer:
        unrestored = tracer.unrestored()
        if unrestored:
            raise RuntimeError(f"tracer left wrapped bindings: {unrestored}")
        result["layers"] = layer_report(rec)
        if spans_path:
            rec.dump(spans_path)
        if replay_kernel:
            import replay

            result["replay"] = replay.replay(rec.sample, rec.graphs, ref["sweep_digests"])
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--replay", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    result = run_pass(
        args.workload,
        args.seed,
        traced=args.traced,
        replay_kernel=args.replay,
        spans_path=args.spans,
        setup_only=args.setup_only,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
