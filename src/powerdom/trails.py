"""Monotone trails extracted from propagation traces.

A trail is a walk without repeated edges. With edge labels
t(uv) = max(t(u), t(v)) taken from a trace, a trail v_0..v_p is monotone
when p >= 1, consecutive edge labels never decrease and never jump by more
than one, and the last edge's label equals the label of the last vertex.

For any power dominating set whose members all have degree at least two,
every vertex v outside the set is the endpoint of a monotone trail of
length at least t(v) + 1; extract_monotone_trail builds one by walking the
forcing history backwards. That existence is checked constructively by the
test suite rather than assumed.

The backward walk is iterative: every step moves to a vertex observed one
round earlier, so it appends to one list, which is reversed once at the
end. Trail length is bounded only by the graph, not by a recursion limit.
Every vertex the walk reads from the forcing record is checked to lie in
the graph, and a step-1 source must have a neighbor besides the vertex it
observed, so a corrupt trace raises InternalConsistencyError instead of
indexing out of range or returning a trail through a vertex that does not
exist.
One checking pass, _trail_labels, both computes the edge labels and finds
the first violated condition. is_monotone_trail runs it over the whole
walk and reports that violation. Both functions raise ValueError when the
trace was computed on a graph that is neither g nor equal to g.

Where the walk goes next depends only on the vertex it stands on, so the
trail to v is the trail to any vertex x on its walk, followed by the walk
from x to v. Each trace keeps, in its private _trails dict, every trail
extract_monotone_trail has returned for it, by last vertex. The walk stops
at the first vertex with a kept trail, or at step 1, and the new trail is
the kept one followed by the reversed new walk. Only returned trails are
kept: keeping one for every vertex a walk passes would hold a trail per
vertex of a long path, quadratic memory for a single far-end trail.

Every returned trail is still checked by _trail_labels, over a window:
the kept trail's trailing edges whose labels are at least the first new
edge's label, always including its last edge, followed by the new edges.
The window check fails exactly when a check of the whole trail would:

- the kept prefix already passed all four conditions (consecutive
  vertices adjacent, no edge repeated, labels monotone, last label);
- the window checks adjacency, the join and monotonicity of the new
  edges, and the last label;
- an edge's label is a function of the edge, and the prefix's labels
  never decrease, so any edge a new edge could repeat lies in the window.
  (If the new labels are monotone they are all at least the first one, and
  so is the label of any edge they repeat; if not, the window fails.)

Only the reason given can differ, when the window meets a monotonicity
violation before a repeat that lies outside it; the error type is the same.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import InternalConsistencyError
from .graph import Graph
from .propagation import UNOBSERVED, ObservationTrace


@dataclass(frozen=True)
class MonotoneTrail:
    """A vertex sequence (repeats allowed) with its per-edge time labels."""

    vertices: tuple
    edge_labels: tuple

    @property
    def edges(self) -> tuple:
        return tuple(zip(self.vertices, self.vertices[1:]))

    @property
    def length(self) -> int:
        """Number of edges."""
        return len(self.vertices) - 1

    @property
    def last_vertex(self) -> int:
        return self.vertices[-1]

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edge_labels": list(self.edge_labels),
            "length": self.length,
        }


class TrailCheck(NamedTuple):
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _check_args(g: Graph, trace: ObservationTrace, vertices: Sequence[int]) -> None:
    if trace.graph is not g and trace.graph != g:
        raise ValueError("the trace was computed on a different graph")
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")


def _trail_labels(g: Graph, t: Sequence[int], vertices: Sequence[int]) -> tuple:
    """(edge labels, None) for a monotone trail, else (None, first violation).

    Vertices must be in range and observed, and there must be at least two.
    """
    adj = g.adjacency_masks
    seen = set()
    labels = []
    a = vertices[0]
    for b in vertices[1:]:
        if not (adj[a] >> b) & 1:
            return None, f"consecutive vertices {a},{b} are not adjacent"
        key = (a, b) if a < b else (b, a)
        if key in seen:
            return None, f"edge {{{a},{b}}} repeats"
        seen.add(key)
        ta, tb = t[a], t[b]
        labels.append(ta if ta > tb else tb)
        a = b
    for i in range(1, len(labels)):
        if not labels[i - 1] <= labels[i] <= labels[i - 1] + 1:
            return None, (
                f"edge labels {labels[i-1]} -> {labels[i]} violate monotonicity at position {i}"
            )
    if labels[-1] != t[a]:
        return None, f"last edge label {labels[-1]} differs from last vertex label {t[a]}"
    return tuple(labels), None


def is_monotone_trail(
    g: Graph, trace: ObservationTrace, vertices: Sequence[int]
) -> TrailCheck:
    """Check the monotone trail conditions; report the first violation."""
    _check_args(g, trace, vertices)
    if len(vertices) < 2:
        raise ValueError("a trail needs at least one edge (two vertices)")
    for v in vertices:
        if trace.time_label[v] == UNOBSERVED:
            raise ValueError(f"vertex {v} is unobserved in this trace")
    _, reason = _trail_labels(g, trace.time_label, vertices)
    return TrailCheck(reason is None, reason)


def extract_monotone_trail(g: Graph, trace: ObservationTrace, v: int) -> MonotoneTrail:
    """Build a monotone trail of length >= t(v)+1 ending at v.

    Walks the recorded forcing history backwards: a vertex observed at
    step 1 is reached through its recorded seed neighbor plus that seed's
    smallest other neighbor; a vertex forced at step i extends the trail
    of its forcer (observed at i-1), or of the forcer's smallest neighbor
    observed at exactly i-1 when the forcer was observed earlier. Ties
    always break to the smallest vertex ID, so extraction is deterministic.
    The walk stops early at a vertex whose trail was already returned for
    this trace, and extends that trail.
    """
    _check_args(g, trace, (v,))
    kept = trace._trails
    if not kept:  # a kept trail means the seeds passed this check
        for u in trace.start:
            if g.degree(u) <= 1:
                raise ValueError(f"seed vertex {u} has degree {g.degree(u)} < 2")
    if v in trace.start:
        raise ValueError(f"vertex {v} is a seed; trails end outside the seed set")
    if trace.time_label[v] == UNOBSERVED:
        raise ValueError(f"vertex {v} is unobserved in this trace")

    t = trace.time_label
    record = trace.forcing_record
    adj = g.adjacency_masks
    n = g.n
    # the trail from its end backwards, down to a kept trail's last vertex
    # or to step 1; each step lowers the time label by one
    walk = []
    x = v
    while x not in kept:
        try:
            w, _ = record[x]
        except KeyError:
            raise InternalConsistencyError(f"observed vertex {x} has no forcing record") from None
        if not 0 <= w < n:
            raise InternalConsistencyError(f"recorded source {w} of {x} is out of range for n={n}")
        i = t[x]
        if i == 1:
            break
        walk.append(x)
        if t[w] == i - 1:
            x = w
        else:
            cand = adj[w]
            while cand:
                b = cand & -cand
                y = b.bit_length() - 1
                if t[y] == i - 1:
                    break
                cand ^= b
            else:
                raise InternalConsistencyError(
                    f"forcer {w} of {x} (step {i}) has no neighbor observed at {i-1}"
                )
            walk.append(w)
            x = y
    prefix = kept.get(x)
    if prefix is None:
        # x was observed at step 1 from w, its smallest seed neighbor
        others = adj[w] & ~(1 << x)
        if not others:
            raise InternalConsistencyError(f"step-1 source {w} of {x} has no other neighbor")
        walk.append(x)
        walk.append(w)
        walk.append((others & -others).bit_length() - 1)  # the seed's smallest other neighbor
        walk.reverse()
        vertices = tuple(walk)
        labels, reason = _trail_labels(g, t, vertices)
    elif not walk:
        return prefix
    else:
        walk.reverse()
        vertices = prefix.vertices + tuple(walk)
        head = prefix.edge_labels
        # the window starts at the first kept edge labelled at least the
        # first new edge, and at the kept trail's last edge at the latest
        first = max(t[x], t[walk[0]])
        m = bisect_left(head, first, 0, len(head) - 1)
        labels, reason = _trail_labels(g, t, vertices[m:])
        if reason is None:
            labels = head[:m] + labels
    if reason is not None or len(labels) < t[v] + 1:
        raise InternalConsistencyError(
            f"extracted trail for vertex {v} is invalid: {reason or 'too short'}"
        )
    trail = MonotoneTrail(vertices=vertices, edge_labels=labels)
    kept[v] = trail
    return trail
