"""A fixed interpreter-bound loop, used as a yardstick for the machine's speed.

On a shared host the CPU's speed moves a great deal: on a 2-vCPU Xeon
virtual machine, the same pure-Python work ran 1.8x faster at the end of
a two-minute stretch than at its start, and switching between two speeds
every second or so was common. Raw wall times then spread more between runs
than any useful regression bound. So every timed interval is measured
next to runs of this loop, and the end-to-end times are reported in
reference seconds:

    reference seconds = measured seconds * REF_S / (loop seconds nearby)

A change to the program shows in full; a change in the machine's speed
cancels, as far as the loop slows down with the program. The raw times
are kept next to them in the results file.

The loop mixes what powerdom's Python does: calls, small-int and bitmask
arithmetic, list, tuple, dict and set traffic.
"""

from __future__ import annotations

from time import perf_counter

# the loop takes about this long on an unloaded 2-vCPU Xeon host
REF_S = 0.025

_ROUNDS = 9000


def _visit(mask: int, adj: list, seen: dict) -> int:
    out = mask
    while mask:
        b = mask & -mask
        v = b.bit_length() - 1
        out |= adj[v]
        seen[v] = seen.get(v, 0) + 1
        mask ^= b
    return out


def _work() -> int:
    adj = [((i * 2654435761) >> 7) & 0xFFFF for i in range(16)]
    seen: dict = {}
    acc = 0
    stack = []
    for i in range(_ROUNDS):
        m = _visit((i * 40503) & 0xFFFF, adj, seen)
        stack.append((m, i))
        if len(stack) > 8:
            acc += sum(x for x, _ in stack) & 0xFF
            stack.clear()
        acc ^= len({m & 0xF, i & 0xF})
    return acc + len(seen)


def loop_seconds() -> float:
    """Wall time of one run of the yardstick loop."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0
