"""Every binding the benchmark's tracer replaces still exists.

perfbench/tracer.py wraps the callables named in its TARGETS table and
the engine's two kernel calls. A rename in powerdom would otherwise show
only as a failed traced benchmark run, since perfbench's own tests are
not part of this suite. The tracer file is loaded by path, unedited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("layer,modname,attr", _targets())
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
