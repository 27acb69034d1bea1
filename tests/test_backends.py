"""Compiled kernel vs pure Python kernel: bit-identical behavior."""

import importlib.util
import os
import random
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc

import pytest

from powerdom import _kernel, _pycore
from powerdom.families import gen_h_delta, gen_path, gen_random_connected

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The compiled engine built from the current _core.c into a temporary
    directory, with -Wall -Werror so that a compiler warning fails the suite.
    Nothing is written to the source tree, and the engine the package selects
    (_kernel.BACKEND) does not change."""
    if not (shutil.which("gcc") or shutil.which("cc")):
        pytest.skip("no C compiler on PATH")
    if not os.path.exists(os.path.join(sysconfig.get_paths()["include"], "Python.h")):
        pytest.skip("Python.h not found")
    out = tmp_path_factory.mktemp("core_build")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=dict(os.environ, CFLAGS="-Wall -Werror"),
    )
    assert build.returncode == 0, f"building _core.c failed:\n{build.stderr[-2000:]}"
    (path,) = (out / "lib" / "powerdom").glob("_core*")
    spec = importlib.util.spec_from_file_location("powerdom._core", path)
    # loading the extension registers it under its name; keep it private
    # to these tests and leave any installed build in place
    registered = sys.modules.get(spec.name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if registered is None:
        sys.modules.pop(spec.name, None)
    else:
        sys.modules[spec.name] = registered
    return module


def outcome(call, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", call(*args)
    except Exception as exc:  # the engines must fail alike, whatever the error
        return type(exc), str(exc)


def engines(compiled, adj_masks, n):
    return _pycore.PropagationCore(adj_masks, n), compiled.PropagationCore(adj_masks, n)


def path_masks(n):
    return gen_path(n).adjacency_masks if n else ()


def random_cases(count=60, max_n=70):
    rng = random.Random(99)
    for _ in range(count):
        n = rng.randrange(2, max_n)
        max_m = n * (n - 1) // 2
        m = rng.randrange(n - 1, max_m + 1)
        g = gen_random_connected(n, m, rng.randrange(10**6))
        start = 0
        for v in range(n):
            if rng.random() < 0.2:
                start |= 1 << v
        yield g, start


class TestKernelContract:
    def test_backend_reported(self):
        assert _kernel.BACKEND in ("compiled", "pure")

    def test_fixed_point_agrees(self, compiled):
        for g, start in random_cases():
            pure = _pycore.PropagationCore(g.adjacency_masks, g.n)
            fast = compiled.PropagationCore(g.adjacency_masks, g.n)
            assert pure.fixed_point(start) == fast.fixed_point(start)

    def test_layer_masks_agree(self, compiled):
        for g, start in random_cases(count=40):
            pure = _pycore.PropagationCore(g.adjacency_masks, g.n)
            fast = compiled.PropagationCore(g.adjacency_masks, g.n)
            assert pure.layer_masks(start) == fast.layer_masks(start)

    def test_multiword_graph(self, compiled):
        # H_11 has 122 vertices, forcing two 64-bit words in the compiled core
        g, _ = gen_h_delta(11)
        pure = _pycore.PropagationCore(g.adjacency_masks, g.n)
        fast = compiled.PropagationCore(g.adjacency_masks, g.n)
        for start in (1, (1 << 12) | 1, g.full_mask, 0):
            assert pure.layer_masks(start) == fast.layer_masks(start)
            assert pure.fixed_point(start) == fast.fixed_point(start)

    def test_compiled_fixture_leaves_engine_choice(self, compiled):
        # a core built only for these tests is not registered as the package's
        if _kernel._compiled is None:
            assert _kernel.BACKEND == "pure"
            assert "powerdom._core" not in sys.modules

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 128, 129])
    def test_word_boundaries(self, compiled, n):
        pure, fast = engines(compiled, path_masks(n), n)
        for start in (0, 1, (1 << n) - 1):
            assert outcome(pure.fixed_point, start) == outcome(fast.fixed_point, start)
            assert outcome(pure.layer_masks, start) == outcome(fast.layer_masks, start)

    @pytest.mark.parametrize("n", [3, 64, 65])
    def test_invalid_masks_raise_the_same_error(self, compiled, n):
        pure, fast = engines(compiled, path_masks(n), n)
        for start in (-1, 1 << n, 1 << 70, 0b100001, -(1 << 200)):
            if 0 <= start < 1 << n:
                continue
            for method in ("fixed_point", "layer_masks"):
                got = outcome(getattr(pure, method), start)
                assert got == outcome(getattr(fast, method), start)
                assert got == (ValueError, f"mask out of range: need 0 <= mask < 1 << n with n = {n}")

    def test_invalid_rows_raise_the_same_error(self, compiled):
        for rows, n in (([2, 5, 8], 3), ([2, -1, 2], 3), ([2, 5], 3), ([1 << 70] * 65, 65)):
            got = outcome(_pycore.PropagationCore, rows, n)
            assert got[0] is ValueError
            assert got == outcome(compiled.PropagationCore, rows, n)

    def test_no_leak(self, compiled):
        g, _ = gen_h_delta(11)
        fast = compiled.PropagationCore(g.adjacency_masks, g.n)

        def calls(count):
            for i in range(count):
                fast.layer_masks(1 << (i % g.n))
                fast.fixed_point((1 << (i % g.n)) | 1)

        calls(1000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            calls(10_000)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024
