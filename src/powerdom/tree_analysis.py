"""Tree-specific structure: leaf-seed repair and the diameter bound.

For a tree T on at least three vertices there is always a minimum power
dominating set that achieves ppt(T) and contains no leaves: a leaf seed
can be swapped for its unique neighbor without growing the set or slowing
propagation. Starting a monotone trail from a latest-observed vertex of
such a repaired set yields a path of length at least ppt(T) + 1, which
forces ppt(T) <= diam(T) - 1.

verify_tree_diameter_bound packages all of that as a checkable
certificate; any failed assertion raises InternalConsistencyError since
it would contradict a proved statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from .errors import InternalConsistencyError
from .graph import Graph
from .propagation import is_pds, ppt_of_set, propagate
from .solver import DEFAULT_WORK_LIMIT, gamma_p
from .trails import MonotoneTrail, extract_monotone_trail


@dataclass(frozen=True)
class TreeCertificate:
    original_set: FrozenSet[int]
    repaired_set: FrozenSet[int]
    ppt_original: int
    ppt_repaired: int
    diam: int
    witness_trail: MonotoneTrail

    def to_json_dict(self) -> dict:
        return {
            "original_set": sorted(self.original_set),
            "repaired_set": sorted(self.repaired_set),
            "ppt_original": self.ppt_original,
            "ppt_repaired": self.ppt_repaired,
            "diam": self.diam,
            "witness_trail": self.witness_trail.to_json_dict(),
        }


def _check_tree(t: Graph) -> None:
    if not t.is_tree():
        raise ValueError("graph is not a tree")
    if t.n < 3:
        raise ValueError(f"tree analysis needs n >= 3, got n={t.n}")


def _repair(t: Graph, s: FrozenSet[int]) -> FrozenSet[int]:
    """Swap leaf seeds for their neighbors until none remain.

    Assumes s is already known to be a minimum PDS. Each swap strictly
    increases the total degree of the seed set (the neighbor of a leaf in
    a tree with n >= 3 has degree >= 2), so the loop terminates.
    """
    ppt_before = ppt_of_set(t, s)
    cur = set(s)
    while True:
        leaves = sorted(v for v in cur if t.degree(v) == 1)
        if not leaves:
            break
        v = leaves[0]
        (u,) = t.neighbors(v)
        if u in cur:
            # minimality would let us drop v outright, shrinking the set
            raise InternalConsistencyError(
                f"leaf seed {v} has its neighbor {u} already in the set"
            )
        cur.remove(v)
        cur.add(u)
        if not is_pds(t, cur):
            raise InternalConsistencyError(
                f"replacing leaf {v} by {u} broke power domination"
            )
    result = frozenset(cur)
    if len(result) != len(s) or ppt_of_set(t, result) > ppt_before:
        raise InternalConsistencyError(
            "leaf repair changed cardinality or increased propagation time"
        )
    return result


def repair_leaf_seeds(t: Graph, s) -> FrozenSet[int]:
    """Replace every degree-1 member of a minimum PDS by its neighbor.

    Returns a power dominating set of the same size with no degree-1
    members and propagation time no larger than the input's.
    """
    _check_tree(t)
    seed = frozenset(s)
    if not is_pds(t, seed):
        raise ValueError(f"{sorted(seed)} is not a power dominating set")
    if len(seed) != gamma_p(t).gamma_p:
        raise ValueError(f"{sorted(seed)} is not a minimum power dominating set")
    return _repair(t, seed)


def verify_tree_diameter_bound(
    t: Graph, work_limit: int = DEFAULT_WORK_LIMIT
) -> TreeCertificate:
    """Certify ppt(T) <= diam(T) - 1 with an explicit witness path.

    work_limit caps the gamma_P search as in solver.gamma_p.
    """
    _check_tree(t)
    diam = t.diameter()
    result = gamma_p(t, work_limit=work_limit)

    best_original = None
    best_repaired = None
    for witness in result.witnesses:
        if witness.ppt != result.ppt_graph:
            continue
        repaired = _repair(t, frozenset(witness.vertices))
        key = tuple(sorted(repaired))
        if best_repaired is None or key < tuple(sorted(best_repaired)):
            best_original = frozenset(witness.vertices)
            best_repaired = repaired
    if best_repaired is None:
        raise InternalConsistencyError("no witness achieves the graph's ppt")

    ppt_original = result.ppt_graph
    ppt_repaired = ppt_of_set(t, best_repaired)
    if ppt_repaired != ppt_original:
        # repair cannot increase ppt, and the original already attains the minimum
        raise InternalConsistencyError(
            f"repaired set has ppt {ppt_repaired}, expected {ppt_original}"
        )

    trace = propagate(t, best_repaired)
    t_max = max(trace.time_label)
    v = min(u for u in range(t.n) if trace.time_label[u] == t_max)
    trail = extract_monotone_trail(t, trace, v)

    if len(set(trail.vertices)) != len(trail.vertices):
        raise InternalConsistencyError(
            "trail in a tree revisits a vertex; expected a simple path"
        )
    if trail.length < ppt_repaired + 1:
        raise InternalConsistencyError(
            f"witness path length {trail.length} < ppt+1 = {ppt_repaired + 1}"
        )
    if ppt_repaired + 1 > diam:
        raise InternalConsistencyError(
            f"ppt {ppt_repaired} exceeds diam-1 = {diam - 1}"
        )

    return TreeCertificate(
        original_set=best_original,
        repaired_set=best_repaired,
        ppt_original=ppt_original,
        ppt_repaired=ppt_repaired,
        diam=diam,
        witness_trail=trail,
    )
