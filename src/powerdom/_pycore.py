"""Pure Python propagation engine over bitmask adjacency.

Same contract and the same rounds as the compiled engine in _core.c; used
as the fallback when the extension is not built. Vertex sets are Python
ints used as bitmasks, so any n is supported. Both engines raise the same
ValueError for a mask or an adjacency row outside 0 <= x < 1 << n.

Each forcing round after the first scans only the observed vertices in
N[new], where new is what the previous round added: a vertex outside
N[new] has the same unobserved neighbours as in that round, and if it had
exactly one then, it forced it, which would put the vertex in N[new].
"""

from __future__ import annotations

from typing import Iterator, Sequence


def _range_error(what: str, n: int) -> ValueError:
    return ValueError(f"{what} out of range: need 0 <= {what} < 1 << n with n = {n}")


class PropagationCore:
    """Observation process runner bound to one graph's adjacency masks."""

    backend = "pure"

    __slots__ = ("_adj", "_n")

    def __init__(self, adj_masks: Sequence[int], n: int):
        adj = list(adj_masks)
        if len(adj) != n:
            raise ValueError(f"adj_masks has {len(adj)} rows, expected n = {n}")
        for row in adj:
            if row < 0 or row >> n:
                raise _range_error("adj_masks row", n)
        self._adj = adj
        self._n = n

    def _closed_nbhd(self, m: int) -> int:
        adj = self._adj
        out = m
        while m:
            b = m & -m
            out |= adj[b.bit_length() - 1]
            m ^= b
        return out

    def _rounds(self, start: int) -> Iterator[int]:
        """Yield S[1], S[2], ... while each differs from the one before."""
        adj = self._adj
        cur = self._closed_nbhd(start)
        if cur == start:
            return
        yield cur
        active = cur
        while True:
            nxt = cur
            m = active
            while m:
                b = m & -m
                m ^= b
                u = adj[b.bit_length() - 1] & ~cur
                if u and not (u & (u - 1)):
                    nxt |= u
            if nxt == cur:
                return
            yield nxt
            active = self._closed_nbhd(nxt & ~cur) & nxt
            cur = nxt

    def fixed_point(self, start: int) -> tuple[int, int]:
        """Run to the fixed point; return (final mask, least l with S[l+1] == S[l])."""
        if start < 0 or start >> self._n:
            raise _range_error("mask", self._n)
        cur, steps = start, 0
        for steps, cur in enumerate(self._rounds(start), 1):
            pass
        return cur, steps

    def layer_masks(self, start: int) -> list[int]:
        """All distinct layers S[0], S[1], ... up to the fixed point."""
        if start < 0 or start >> self._n:
            raise _range_error("mask", self._n)
        return [start, *self._rounds(start)]
