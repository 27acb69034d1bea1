"""Monotone trails extracted from propagation traces.

A trail is a walk without repeated edges. With edge labels
t(uv) = max(t(u), t(v)) taken from a trace, a trail v_0..v_p is monotone
when p >= 1, consecutive edge labels never decrease and never jump by more
than one, and the last edge's label equals the label of the last vertex.

For any power dominating set whose members all have degree at least two,
every vertex v outside the set is the endpoint of a monotone trail of
length at least t(v) + 1; extract_monotone_trail builds one by walking the
forcing history backwards. That existence is checked constructively by the
test suite rather than assumed. Every vertex the walk reads from the
forcing record is checked to lie in the graph, a step-1 source or detour
forcer to be observed, and a step-1 source to have a second neighbor, so
a corrupt trace raises InternalConsistencyError, never an index error or
a trail through a vertex that does not exist or was never observed. Both
public functions raise ValueError when the trace was computed on a graph
that is neither g nor equal to g.

Where the walk goes next depends only on the vertex it stands on, so the
trail to v is the trail to any vertex on its walk, followed by the walk
from there. Each trace keeps, in its private _trails dict, every trail
extract_monotone_trail has returned for it, by last vertex, and the walk
stops at a kept trail's last vertex or at step 1. Keeping a trail for every
vertex a walk passes would hold quadratic memory on a long path.

The walk checks each edge it adds. A step from x_i, observed at i, with
forcer w adds {w,x_i} when t(w) = i - 1 (then x_{i-1} = w), else the detour
{x_{i-1},w}, {w,x_i} through w's smallest neighbor x_{i-1} observed at
i - 1. The walk, which stops at x_j, is sound when every {w,x_i} is an
edge, every detour has t(w) < i - 1, and no forcer of x_i is the detour
forcer that led to x_i; a step-1 start s, w, x_1 also needs t(w) = 0 and
t(s) <= 1. A sound trail passes all four conditions (adjacent steps, no
repeated edge, monotone labels, last label) with no label looked up, so
the reduced check fails exactly when a check of the whole trail would:

- {x_{i-1},w} and {s,w} are edges by their choice; a kept trail passed;
- the labels are i into x_i, i - 1 on {x_{i-1},w}, and max(t(s), 0) then
  1 at a step-1 start, so they rise by 0 or 1 and end at t(v); a kept
  trail ends at j, and the first new label is j or j + 1;
- a repeated edge repeats its label. A label is on at most two new edges,
  (a, x_i) then (x_i, b), equal exactly when a detour comes straight back
  (a = b). An older edge can be repeated only at label j, by a detour
  {x_j,w}; that is not {s,w}, which misses x_1, and it is a kept trail's
  last edge exactly when it comes straight back;
- each step adds an edge, so the trail has at least t(v) + 1 edges.

Other trails go through _trail_labels, one pass over the whole trail
that reports a missing or repeated edge anywhere, else the first
monotonicity break, else the last label. No trace that propagate builds
gives such a walk. A vertex forces at most one neighbour and a seed
forces nothing after step 1, so a detour lands on a vertex x_{i-1} at
step i - 1 >= 2, whose forcer is not the detour forcer and whose kept
trail ends with two rising labels.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import InternalConsistencyError
from .graph import Graph
from .propagation import UNOBSERVED, ObservationTrace


class MonotoneTrail(NamedTuple):
    """A vertex sequence (repeats allowed) with its per-edge time labels."""

    vertices: tuple
    edge_labels: tuple

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


def _trail_labels(g: Graph, t: Sequence[int], vertices: Sequence[int]) -> tuple:
    """(edge labels, None) for a monotone trail, else (None, first violation).

    Vertices must be in range and observed, and there must be at least two.
    """
    adj, n = g.adjacency_masks, g.n
    seen, labels, broken = set(), [], None
    a = vertices[0]
    for b in vertices[1:]:
        if not (adj[a] >> b) & 1:
            return None, f"consecutive vertices {a},{b} are not adjacent"
        key = a * n + b if a < b else b * n + a
        if key in seen:
            return None, f"edge {{{a},{b}}} repeats"
        seen.add(key)
        label = max(t[a], t[b])
        if broken is None and labels and not labels[-1] <= label <= labels[-1] + 1:
            broken = (f"edge labels {labels[-1]} -> {label} violate monotonicity"
                      f" at position {len(labels)}")
        labels.append(label)
        a = b
    if broken is None and labels[-1] != t[a]:
        broken = f"last edge label {labels[-1]} differs from last vertex label {t[a]}"
    return (None, broken) if broken else (tuple(labels), None)


def is_monotone_trail(
    g: Graph, trace: ObservationTrace, vertices: Sequence[int]
) -> TrailCheck:
    """Check the monotone trail conditions; report the first violation."""
    if trace.graph is not g and trace.graph != g:
        raise ValueError("the trace was computed on a different graph")
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
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
    """
    if trace.graph is not g and trace.graph != g:
        raise ValueError("the trace was computed on a different graph")
    n = g.n
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for n={n}")
    kept = trace._trails
    if v in kept:
        return kept[v]
    if not kept:  # a kept trail means the seeds passed this check
        for u in trace.start:
            if g.degree(u) <= 1:
                raise ValueError(f"seed vertex {u} has degree {g.degree(u)} < 2")
    if v in trace.start:
        raise ValueError(f"vertex {v} is a seed; trails end outside the seed set")
    t = trace.time_label
    if t[v] == UNOBSERVED:
        raise ValueError(f"vertex {v} is unobserved in this trace")

    record = trace.forcing_record
    adj = g.adjacency_masks
    # the trail back from v to a kept trail's last vertex or to step 1, the
    # labels of its edges, and the forcer of the detour that led to x if any
    walk, labels, sound, back = [], [], True, -1
    x = v
    while True:
        try:
            w, _ = record[x]
        except KeyError:
            raise InternalConsistencyError(f"observed vertex {x} has no forcing record") from None
        if not 0 <= w < n:
            raise InternalConsistencyError(f"recorded source {w} of {x} is out of range for n={n}")
        if w == back or not (adj[w] >> x) & 1:
            sound = False
        i = t[x]
        if i == 1:
            break
        walk.append(x)
        labels.append(i)
        if t[w] == i - 1:
            back = -1
            x = w
        else:
            if t[w] == UNOBSERVED:
                raise InternalConsistencyError(f"recorded forcer {w} of {x} is unobserved")
            levels = trace._levels
            if not levels:  # the vertices of each time label, as one mask
                for u, tu in enumerate(t):
                    levels[tu] = levels.get(tu, 0) | 1 << u
            cand = adj[w] & levels.get(i - 1, 0)
            if not cand:
                raise InternalConsistencyError(
                    f"forcer {w} of {x} (step {i}) has no neighbor observed at {i-1}"
                )
            y = (cand & -cand).bit_length() - 1
            if t[w] >= i:
                sound = False
            walk.append(w)
            labels.append(i - 1)
            back = w
            x = y
        if x in kept:
            break
    prefix = kept.get(x)
    walk.reverse()
    labels.reverse()
    if prefix is None:
        # x was observed at step 1 from w, its smallest seed neighbor
        if t[w] == UNOBSERVED:
            raise InternalConsistencyError(f"recorded forcer {w} of {x} is unobserved")
        others = adj[w] & ~(1 << x)
        if not others:
            raise InternalConsistencyError(f"step-1 source {w} of {x} has no other neighbor")
        s = (others & -others).bit_length() - 1  # the seed's smallest other neighbor
        vertices = (s, w, x, *walk)
        sound = sound and t[w] == 0 and t[s] <= 1
        edge_labels = (max(t[s], 0), 1, *labels)
    else:
        vertices = prefix.vertices + tuple(walk)
        head = prefix.edge_labels
        sound = sound and (back < 0 or prefix.vertices[-2] != back and head[-2] < head[-1])
        edge_labels = head + tuple(labels)
    if not sound:
        edge_labels, reason = _trail_labels(g, t, vertices)
        if reason is not None or len(edge_labels) < t[v] + 1:
            raise InternalConsistencyError(
                f"extracted trail for vertex {v} is invalid: {reason or 'too short'}"
            )
    trail = kept[v] = MonotoneTrail(vertices, edge_labels)
    return trail
