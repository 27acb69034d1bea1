"""Pure Python propagation engine over bitmask adjacency.

Same contract and the same rounds as the compiled engine in _core.c; used
as the fallback when the extension is not built. Vertex sets are Python
ints used as bitmasks, so any n is supported. Both engines raise the same
ValueError for a mask or an adjacency row outside 0 <= x < 1 << n.

Each forcing round after the first scans only the observed vertices in
N[new], where new is what the previous round added: a vertex outside
N[new] has the same unobserved neighbours as in that round, and if it had
exactly one then, it forced it, which would put the vertex in N[new].

fixed_point and layer_masks share one round loop, _run. A round is
simultaneous: it reads the set observed before it and writes a new one,
so the order in which it scans vertices changes nothing, and _run takes
bits highest first. Every mask in the loop stays non-negative (a bit is
cleared with XOR, and the unobserved set starts as full ^ S[1], not
~S[1]), so no multiword int is ever negated on the way.

The run stops as soon as V is observed. Once S[l] = V no vertex is left
to force, so S[l+1] = S[l] and l is the answer without another round.
The unobserved set is kept across rounds (each round's new vertices are
cleared from it with XOR) rather than rebuilt, so the stop costs one zero
test per round and no multiword compare; the N[new] walk that would feed
the next round is skipped with it.
"""

from __future__ import annotations

from typing import Sequence


def _range_error(what: str, n: int) -> ValueError:
    return ValueError(f"{what} out of range: need 0 <= {what} < 1 << n with n = {n}")


class PropagationCore:
    """Observation process runner bound to one graph's adjacency masks."""

    __slots__ = ("_adj", "_n", "_full")

    def __init__(self, adj_masks: Sequence[int], n: int):
        adj = list(adj_masks)
        if len(adj) != n:
            raise ValueError(f"adj_masks has {len(adj)} rows, expected n = {n}")
        for row in adj:
            if row < 0 or row >> n:
                raise _range_error("adj_masks row", n)
        self._adj = adj
        self._n = n
        self._full = (1 << n) - 1

    def _run(self, start: int, layers: list[int] | None) -> tuple[int, int]:
        """Run from start to the fixed point; return (final mask, least l
        with S[l+1] == S[l]). When layers is a list, append S[1], S[2], ...
        to it while each differs from the one before."""
        adj = self._adj
        # S[1] = N[S]
        cur = m = start
        while m:
            i = m.bit_length() - 1
            m ^= 1 << i
            cur |= adj[i]
        if cur == start:
            return start, 0
        if layers is not None:
            layers.append(cur)
        steps = 1
        unobserved = self._full ^ cur
        if not unobserved:
            return cur, steps
        active = cur
        while True:
            nxt = cur
            m = active
            while m:
                i = m.bit_length() - 1
                m ^= 1 << i
                u = adj[i] & unobserved
                if u and not (u & (u - 1)):
                    nxt |= u
            if nxt == cur:
                return cur, steps
            if layers is not None:
                layers.append(nxt)
            steps += 1
            m = new = nxt ^ cur
            unobserved ^= new
            if not unobserved:
                return nxt, steps
            # the observed vertices of N[new]
            while m:
                i = m.bit_length() - 1
                m ^= 1 << i
                new |= adj[i]
            active = new & nxt
            cur = nxt

    def fixed_point(self, start: int) -> tuple[int, int]:
        """Run to the fixed point; return (final mask, least l with S[l+1] == S[l])."""
        if start < 0 or start >> self._n:
            raise _range_error("mask", self._n)
        return self._run(start, None)

    def layer_masks(self, start: int) -> list[int]:
        """All distinct layers S[0], S[1], ... up to the fixed point."""
        if start < 0 or start >> self._n:
            raise _range_error("mask", self._n)
        layers = [start]
        self._run(start, layers)
        return layers
