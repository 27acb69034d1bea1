"""Tree-specific structure: leaf-seed repair and the diameter bound.

For a tree T on at least three vertices, swapping each leaf seed of a
minimum power dominating set for its unique neighbor neither grows the
set nor slows propagation, so a minimum PDS with no leaf attains ppt(T).
A monotone trail from a latest-observed vertex of such a repaired set is
a path of length at least ppt(T) + 1, which forces ppt(T) <= diam(T) - 1.

verify_tree_diameter_bound packages that as a certificate; a failed check
raises InternalConsistencyError, as it contradicts a proved statement.
Its sets come from the solver's search over representatives: for n >= 3
the non-leaves, since a leaf's N[x] lies strictly inside its neighbour's,
and a non-leaf x with N[x] inside a neighbour's N[y] has another
neighbour adjacent to y, a triangle. So the hits in ppt steps are the
leafless ppt-attaining minimum PDS, which are the repaired sets (a
leafless set repairs to itself); the least is the repaired set R.
Minimality keeps a leaf and its neighbour, or two leaves of one
neighbour, out of a minimum PDS, so a ppt-attaining W that repairs to R
is R with some u swapped for a leaf of u, where u has at most two
leaves: otherwise two or more stay unobserved, and only u, which sees
them all, could force one. The original set is the least such W by
sorted tuple. Call a set of swaps feasible when its W reaches V within
ppt steps, that is in ppt steps, as no minimum PDS is faster. One pass
over the swaps u -> l with l < u, in ascending order of l, keeps each
whose u is still in the set and whose result is feasible, and finds it:
- down-closure: N[l] lies inside N[u] and a forcing round is monotone, so
  every subset of a feasible set of swaps is feasible;
- only smaller leaves help: of two sets of one size, the one holding
  their least differing vertex sorts first, so undoing a swap with l > u
  in a feasible W gives a smaller feasible set: the least W, L, has none;
- exchange: let x be the least vertex in just one of the greedy set G and
  L. A repaired x is swapped out in one of them for a leaf below x that
  the other lacks, so x is a leaf l of some u. If only L holds l, the
  pass found u still in its set (else G holds a smaller leaf of u that L
  lacks) and tested L's swaps below l plus u -> l, feasible by
  down-closure, so it kept l. If only G holds l, the set kept at l agrees
  with L below l and holds l, so it sorts before L. So G = L.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from .errors import InternalConsistencyError, NotPowerDominatingError
from .graph import Graph, _bits
from .propagation import ppt_of_set, propagate
from .solver import DEFAULT_WORK_LIMIT, _Budget, _least_ppt_hit, l_round_number
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


def _repair(t: Graph, s: FrozenSet[int], ppt: int) -> FrozenSet[int]:
    """Swap each leaf seed of s for its neighbor, smallest leaf first.

    s is a minimum PDS with propagation time ppt, as the caller already
    knows it. The neighbor of a leaf in a tree with n >= 3 has degree >= 2,
    so a swap neither makes a new leaf seed nor removes another one: one
    ascending pass over the leaves of s makes the same swaps as swapping
    the smallest leaf left until none remain. One run per swap both checks
    the set and gives its time, so the last run times the result.
    """
    cur = set(s)
    steps = ppt
    for v in sorted(v for v in s if t.degree(v) == 1):
        (u,) = t.neighbors(v)
        if u in cur:
            # minimality would let us drop v outright, shrinking the set
            raise InternalConsistencyError(
                f"leaf seed {v} has its neighbor {u} already in the set"
            )
        cur.remove(v)
        cur.add(u)
        try:
            steps = ppt_of_set(t, cur)
        except NotPowerDominatingError:
            raise InternalConsistencyError(
                f"replacing leaf {v} by {u} broke power domination"
            ) from None
    result = frozenset(cur)
    if len(result) != len(s) or steps > ppt:
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
    try:
        ppt = ppt_of_set(t, seed)
    except NotPowerDominatingError:
        raise ValueError(f"{sorted(seed)} is not a power dominating set") from None
    if len(seed) != l_round_number(t, t.n):
        raise ValueError(f"{sorted(seed)} is not a minimum power dominating set")
    return _repair(t, seed, ppt)


def verify_tree_diameter_bound(t: Graph, work_limit: int = DEFAULT_WORK_LIMIT) -> TreeCertificate:
    """Certify ppt(T) <= diam(T) - 1 with an explicit witness path.

    work_limit caps the search over representatives, as in solver.ppt_graph,
    plus one unit per leaf swap tested for the original set: at most two
    per repaired vertex.
    """
    _check_tree(t)
    diam = t.diameter()
    budget = _Budget(work_limit)
    ppt, repaired = _least_ppt_hit(t, budget)
    leaves = {u: [v for v in t.neighbors(u) if t.degree(v) == 1] for u in repaired}
    done = (t.full_mask, ppt)
    mask = sum(1 << u for u in repaired)
    for v, u in sorted((v, u) for u, vs in leaves.items() if len(vs) < 3 for v in vs if v < u):
        if mask >> u & 1:
            budget.spend()
            trial = mask ^ (1 << u | 1 << v)
            if t.core.fixed_point(trial) == done:
                mask = trial
    original = frozenset(_bits(mask))
    if _repair(t, original, ppt) != frozenset(repaired):
        raise InternalConsistencyError(f"{sorted(original)} does not repair to {list(repaired)}")

    trace = propagate(t, repaired)
    if not (trace.complete and trace.steps == ppt):
        # the search ran the repaired set to V in ppt steps
        raise InternalConsistencyError(
            f"repaired set {list(repaired)} does not reach V in exactly {ppt} steps"
        )
    trail = extract_monotone_trail(t, trace, trace.time_label.index(ppt))

    if len(set(trail.vertices)) != len(trail.vertices):
        raise InternalConsistencyError(
            "trail in a tree revisits a vertex; expected a simple path"
        )
    if trail.length < ppt + 1:
        raise InternalConsistencyError(
            f"witness path length {trail.length} < ppt+1 = {ppt + 1}"
        )
    if ppt + 1 > diam:
        raise InternalConsistencyError(f"ppt {ppt} exceeds diam-1 = {diam - 1}")

    return TreeCertificate(
        original_set=original,
        repaired_set=frozenset(repaired),
        ppt_original=ppt,
        ppt_repaired=ppt,
        diam=diam,
        witness_trail=trail,
    )
