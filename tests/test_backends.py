"""Compiled kernel vs pure Python kernel: bit-identical behavior."""

import os
import random
import re
import subprocess
import sys

import pytest

from powerdom import _kernel, _pycore
from powerdom.families import gen_h_delta, gen_random_connected

try:
    from powerdom import _core
except ImportError:
    _core = None

needs_compiled = pytest.mark.skipif(_core is None, reason="compiled core not built")

PACKAGE_DIR = os.path.dirname(_kernel.__file__)


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

    @needs_compiled
    def test_fixed_point_agrees(self):
        for g, start in random_cases():
            pure = _pycore.PropagationCore(g.adjacency_masks, g.n)
            fast = _core.PropagationCore(g.adjacency_masks, g.n)
            assert pure.fixed_point(start) == fast.fixed_point(start)

    @needs_compiled
    def test_layer_masks_agree(self):
        for g, start in random_cases(count=40):
            pure = _pycore.PropagationCore(g.adjacency_masks, g.n)
            fast = _core.PropagationCore(g.adjacency_masks, g.n)
            assert pure.layer_masks(start) == fast.layer_masks(start)

    @needs_compiled
    def test_multiword_graph(self):
        # H_11 has 122 vertices, forcing two 64-bit words in the compiled core
        g, _ = gen_h_delta(11)
        pure = _pycore.PropagationCore(g.adjacency_masks, g.n)
        fast = _core.PropagationCore(g.adjacency_masks, g.n)
        for start in (1, (1 << 12) | 1, g.full_mask, 0):
            assert pure.layer_masks(start) == fast.layer_masks(start)
            assert pure.fixed_point(start) == fast.fixed_point(start)

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
