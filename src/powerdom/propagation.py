"""The power domination observation process.

Starting from a seed set S, one domination step observes the closed
neighborhood N[S]; after that, any observed vertex with exactly one
unobserved neighbor forces it, all eligible forcings applied
simultaneously per round. The process is deterministic and monotone, so a
run is fully described by its layer chain S = S[0] <= S[1] <= ... up to
the fixed point.

Layer zero is the seed set itself, so seeds carry time label 0 and the
propagation time of S = V(G) is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import InternalConsistencyError, NotPowerDominatingError
from .graph import Graph, _bits

UNOBSERVED = -1


def _as_mask(g: Graph, s: Iterable[int]) -> int:
    mask = 0
    for v in s:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    return mask


@dataclass(frozen=True)
class ObservationTrace:
    """Full history of one propagation run.

    time_label is indexed by vertex (UNOBSERVED for vertices never
    reached). forcing_record maps each vertex observed at step i >= 2 to
    (forcer, i) with the smallest eligible forcer, and each vertex
    observed at step 1 outside the seeds to (smallest seed neighbor, 1).

    Private caches, outside equality, repr and to_json_dict, and empty in a
    dataclasses.replace copy: _trails holds every MonotoneTrail that
    trails.extract_monotone_trail has returned, by last vertex, and _levels
    the vertex mask of each time label, built at a trail's first detour.
    """

    graph: Graph
    start: frozenset
    layers: tuple
    time_label: tuple
    forcing_record: Mapping
    complete: bool
    _trails: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _levels: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def steps(self) -> int:
        """Least l with S[l+1] == S[l]; equals ppt when complete."""
        return len(self.layers) - 1

    def to_json_dict(self) -> dict:
        rec = self.forcing_record
        return {
            "start": sorted(self.start),
            "layers": [sorted(layer) for layer in self.layers],
            "time_label": list(self.time_label),
            "forcing_record": [[v, *rec[v]] for v in sorted(rec)],
            "complete": self.complete,
        }


def propagate(g: Graph, s: Iterable[int]) -> ObservationTrace:
    """Run the observation process from S and record the full trace.

    Each layer is the previous one plus its new bits, visited once in
    ascending order; that one visit sets the vertex's time label and its
    forcing record.
    """
    masks = g.core.layer_masks(_as_mask(g, s))
    adj_masks = g.adjacency_masks
    seeds = _bits(masks[0])
    labels = [UNOBSERVED] * g.n
    for v in seeds:
        labels[v] = 0
    layers = [frozenset(seeds)]
    record = {}
    full = g.full_mask
    for i in range(1, len(masks)):
        prev = masks[i - 1]
        unobserved = full ^ prev
        new = _bits(masks[i] & unobserved)
        for v in new:
            labels[v] = i
            if i == 1:
                # dominated: smallest seed neighbor
                seed_nbrs = adj_masks[v] & masks[0]
                w = (seed_nbrs & -seed_nbrs).bit_length() - 1
            else:
                # smallest observed vertex whose unique unobserved neighbor was v
                cand = adj_masks[v] & prev
                while cand:
                    b = cand & -cand
                    w = b.bit_length() - 1
                    if adj_masks[w] & unobserved == 1 << v:
                        break
                    cand ^= b
                else:
                    raise InternalConsistencyError(f"vertex {v} at step {i} has no forcer")
            record[v] = (w, i)
        layers.append(layers[-1].union(new))

    return ObservationTrace(g, layers[0], tuple(layers), tuple(labels), record, masks[-1] == full)


def is_pds(g: Graph, s: Iterable[int]) -> bool:
    """Is S a power dominating set, i.e. does propagation reach all of V?"""
    final, _ = g.core.fixed_point(_as_mask(g, s))
    return final == g.full_mask


def ppt_of_set(g: Graph, s: Iterable[int]) -> int:
    """Power propagation time of S: least l with S[l] = V(G)."""
    mask = _as_mask(g, s)
    final, steps = g.core.fixed_point(mask)
    if final != g.full_mask:
        raise NotPowerDominatingError(
            f"set {_bits(mask)} does not power dominate the graph"
        )
    return steps

