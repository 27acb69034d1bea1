"""Compiled kernel vs pure Python kernel: bit-identical behavior."""

import importlib.util
import os
import random
import re
import shutil
import subprocess
import sys
import sysconfig

import pytest

from powerdom import _kernel, _pycore
from powerdom.families import gen_h_delta, gen_random_connected

PACKAGE_DIR = os.path.dirname(_kernel.__file__)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The compiled engine's module. If it is not built, build the committed
    _core.c into a temporary directory and load it from there for these
    tests only: nothing is written to the source tree, and the engine the
    package selects (_kernel.BACKEND) does not change."""
    try:
        from powerdom import _core

        return _core
    except ImportError:
        pass
    if not (shutil.which("gcc") or shutil.which("cc")):
        pytest.skip("compiled core not built and no C compiler on PATH")
    if not os.path.exists(os.path.join(sysconfig.get_paths()["include"], "Python.h")):
        pytest.skip("compiled core not built and Python.h not found")
    out = tmp_path_factory.mktemp("core_build")
    # with Cython importable, setup.py would regenerate _core.c in src/;
    # hiding it makes setup.py build the committed .c
    run_setup = (
        "import runpy, sys; sys.modules['Cython.Build'] = None; "
        "sys.argv[0] = 'setup.py'; runpy.run_path('setup.py', run_name='__main__')"
    )
    build = subprocess.run(
        [sys.executable, "-c", run_setup, "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, f"building _core.c failed:\n{build.stderr[-2000:]}"
    (path,) = (out / "lib" / "powerdom").glob("_core*")
    spec = importlib.util.spec_from_file_location("powerdom._core", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the extension registers itself on import; keep it private to these tests
    if sys.modules.get(spec.name) is module:
        del sys.modules[spec.name]
    return module


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

    def test_pure_env_override(self):
        env = dict(os.environ, POWERDOM_PURE="1")
        out = subprocess.run(
            [sys.executable, "-c", "import powerdom; print(powerdom.BACKEND)"],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == "pure"


def test_generated_c_quotes_current_pyx():
    """Each `/* "powerdom/_core.pyx":N` block in the committed _core.c marks
    the line it compiles with `# <<<<<<<<<<<<<<`; that line must be line N
    of _core.pyx as it stands, or the .c is stale."""
    with open(os.path.join(PACKAGE_DIR, "_core.pyx"), encoding="utf-8") as fh:
        pyx = fh.read().splitlines()
    with open(os.path.join(PACKAGE_DIR, "_core.c"), encoding="utf-8") as fh:
        c_lines = fh.read().splitlines()
    head = re.compile(r'\s*/\* "powerdom/_core\.pyx":(\d+)$')
    mark = "             # <<<<<<<<<<<<<<"
    refs = []
    for i, line in enumerate(c_lines):
        m = head.fullmatch(line)
        if not m:
            continue
        j = i + 1
        while not c_lines[j].lstrip().startswith("*/") and not c_lines[j].endswith(mark):
            j += 1
        assert c_lines[j].endswith(mark), f"_core.c line {i + 1}: block quotes no marked line"
        refs.append((int(m.group(1)), c_lines[j][len(" * "):-len(mark)]))
    assert refs, "no source references found in _core.c"
    stale = [(n, quoted) for n, quoted in refs if n > len(pyx) or pyx[n - 1] != quoted]
    assert not stale, f"_core.c is stale against _core.pyx at (line, quoted text): {stale[:5]}"
