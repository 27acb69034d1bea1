"""Every binding the benchmark's tracer replaces still exists.

perfbench/tracer.py wraps the callables named in its TARGETS table and
the engine's two kernel calls. A rename in powerdom would otherwise show
only as a failed traced benchmark run, since perfbench's own tests are
not part of this suite. The tracer file is loaded by path, unedited.

One test pins that bounds_report reaches the kernel under a solver span,
as perfbench's span-nesting test requires. The last pins what
perfbench's workloads and tests read from results: the demo's
exact/certified threshold, trace layers as an init field of frozensets,
and the fields of GammaResult they compare.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("layer,modname,attr", _tracer().TARGETS)
def test_target_resolves(layer, modname, attr):
    mod = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth)), f"{modname}.{attr}"
    else:
        assert callable(getattr(mod, attr, None)), f"{modname}.{attr}"


def test_kernel_engine_has_the_traced_calls():
    from powerdom import _kernel

    for meth in ("fixed_point", "layer_masks"):
        assert callable(getattr(_kernel.PropagationCore, meth, None)), meth


def test_bounds_reaches_the_kernel_under_a_solver_span():
    # perfbench's span test needs the chain bounds -> solver -> kernel
    tracer = _tracer()
    for _, modname, _ in tracer.TARGETS:
        importlib.import_module(modname)
    from powerdom import bounds, families

    g, _ = families.gen_h_delta(3)
    t = tracer.Tracer()
    t.install()
    try:
        bounds.bounds_report(g)
    finally:
        t.uninstall()
    rec = t.rec
    layer = [rec.names[i][0] for i in rec.name]
    chains = {
        (layer[rec.parent[p]], layer[p])
        for i, p in enumerate(rec.parent)
        if layer[i] == "kernel" and p != tracer.ROOT and rec.parent[p] != tracer.ROOT
    }
    assert ("bounds", "solver") in chains
    assert not t.unrestored()


def test_perfbench_read_contract():
    from powerdom import cli, families, propagation, solver

    assert cli.EXACT_DEMO_DELTA == 12
    g = families.gen_path(5)
    trace = propagation.propagate(g, {1})
    # perfbench's tests plant a short trace through dataclasses.replace
    short = dataclasses.replace(trace, layers=trace.layers[:-1])
    assert short.layers == trace.layers[:-1]
    layers = list(trace.layers)
    assert layers and all(type(layer) is frozenset for layer in layers)
    assert type(solver.l_round_number(g, 1)) is int
    result = solver.gamma_p(g)
    assert (result.gamma_p, result.ppt_graph) == (1, 2)
    assert [w.vertices for w in result.witnesses] == [(v,) for v in range(5)]
