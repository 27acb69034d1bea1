"""Exact computation of the power domination number and propagation time.

gamma_P is found by branching on forts. A fort is a nonempty set F of
vertices such that no vertex outside F has exactly one neighbour in F.
S is a power dominating set (PDS) iff N[S] meets every fort, that is iff
S meets N[F] for every fort F. If N[S] misses a fort, no observed vertex
ever has exactly one unobserved neighbour in it, so it is never entered;
if propagation from S stops at an observed set C other than V, then
V - C is a fort that N[S] misses.

The search deepens k = 1, 2, ... and keeps a pool of the sets N[F] known
so far, which stay valid for every k. A node (S, excluded, room), with
room = k - |S| >= 1, is charged one unit of work and reads the sets that
S misses off the pool, in pool order. It branches on the first one with
the fewest vertices outside excluded, b_1 < ... < b_m: child i adds b_i
to S and b_1..b_(i-1) to excluded. With one vertex left to add, the
children are instead the vertices in every missed N[F], since any other
child would miss one of them. Only these leaves, one unit each, are
propagated: a leaf that misses no pooled set runs once, a full result is
a witness, and a failed run adds N[V - final] to the pool. S grows along
a path, so a node misses its parent's missed sets that S still misses
and then those pooled since, in that order: the branch set, and so the
order of the hits, is fixed by S, excluded and the pool. A set pooled
twice changes nothing: the first smallest set has the same bits
whichever copy comes first, and a copy moves neither the intersection
above nor the packing floor below.

Every minimum PDS T is reached exactly once, and so is every T of k
vertices that meets each set pooled by the end of level k. At a node with
S inside T and excluded disjoint from T, T meets the branch set, since T
meets every pooled set and avoids excluded. Exactly one child keeps both
conditions: the one that adds the first b_i in T, because earlier
children add a vertex outside T and later ones exclude b_i. So T has one
path from the root, which ends at a leaf at depth k, where T misses no
pooled set and propagation runs. The hits are thus distinct, and sorted
they are the full lexicographic witness list. The search is exponential
in the worst case; a cap on work (one unit per search node, plus one per
combined witness on a disconnected graph) turns runaway inputs into
SearchBudgetExceeded rather than an approximate answer.

An inner node whose S misses no pooled set is not run again (the root's
empty S misses every pooled set). The pool only grows, so S met every set
pooled while k' = |S| was searched, and was run there as a leaf by the
argument above. A hit would have ended the search at k'; a failed run
pooled N[V - final], which S misses, as N[S] lies inside final. So that
run reached V too slowly, which happens only when l < n, in (3) below; a
level skipped by the packing floor holds no such S. The node branches on
allowed - S as in (3), which stays exact even if this argument were
wrong: only a fort's pruning would be lost.

The search yields its hits at the least k; a caller that needs only the
number takes the first: every k' < k was exhausted before it, so k is
exact without the witness list.

Some forts are known before any run. Call u and v open twins when
N(u) = N(v); they are never adjacent. Then F = {u, v} is a fort, for a
vertex outside F is adjacent to both or to neither, and N[F] = N(u) + u +
v. Having the same row is an equivalence, and on graphs of at least
_TWIN_MIN_N vertices the pool starts with N[F] for the two least vertices
of each class with two or more, exactly as if a run had found it. The
graph finds these sets by one sort of its rows at first use and keeps
them, so the searches on one graph share one pass. One
pair per class is enough for the floor below: the sets of one class all
contain N(u), which a connected graph keeps nonempty, so no two are
disjoint. It also bounds the sets pooled before the first unit at n/2,
where every pair would give quadratically many (a star with k leaves has
k(k-1)/2). Two leaves u, v of one vertex w give N[F] = {u, v, w}; cut to
the representatives below, that is {w}, so w is forced. Closed twins,
N[u] = N[v], are forts as well, but finding them takes a second pass over
the closed rows, and on seeded random trees and sparse graphs they saved
about 1% of the units.

At the start of each k, a greedy pass takes pairwise disjoint pooled sets,
smallest first. Every set the search looks for meets each of them, and
disjoint sets need distinct vertices, so if more than k are taken no set
of k vertices succeeds: the level is skipped without a node, and k is
exhausted all the same. The pass runs only when the pool holds more than
k sets (fewer cannot give more than k disjoint ones) and has grown since
the last pass (the same pool gives the same count).

Disconnected graphs are solved per component (propagation never crosses
components): gamma_P sums, witnesses combine, and the propagation time of
a combined witness is the max over its parts. The parts are chosen
independently, so the least ppt over combined witnesses is the max over
components of each component's least, and ppt_graph never builds them.

Every caller but gamma_p's witness list (ppt_graph, gamma_p with
witnesses=False, the tree certificate, and l_round_number, which with
l = n gives gamma_P to the demo, ppt_lower_bound and the tree repair)
runs _branch_search over the representatives, which changes the search
above in four ways. (1) Its S are sets of representatives: x is skipped
when some neighbour y has N[x] strictly inside N[y], or N[x] = N[y] and
y < x. Call a set successful when it reaches V within l steps (any PDS
for l >= n). Take a successful T and such an x in T. If y is in T,
N[T - x] = N[T], so T - x is successful and smaller. Otherwise T - x + y
has |T| vertices and N[T - x + y] contains N[T]; one forcing round is
monotone in the observed set (if A is inside B, what A forces is in B or
forced by B), so each later layer contains T's and it succeeds in no more
steps. A drop shrinks T and a swap raises (|N[y]|, -y), so repeated moves
end inside the representatives with at most |T| vertices and no more
steps. So the least k over the representatives is the least over V, and
the first hit has it. Pooled sets are cut down to the representatives; T
meets the cut set wherever it meets the whole, so the argument above
holds for T with S and excluded inside the representatives. (2) The pool
starts with the twin sets and the ball B_l(u) of radius l around every
vertex u: layer l of T is V and lies inside the radius-l ball around T,
so T meets B_l(u). For l = 1 these are the sets N[u], and the search is
exact dominating-set branching; a twin set N[{u, v}] contains N[u] there,
so it would prune nothing and is left out. For l >= n every ball is V,
and the pool holds allowed once. A failed run still pools N[V - final],
and the twin sets hold, since T is a PDS. (3) A run that reaches V in
more than l steps leaves no fort; an inner node that misses no pooled
set had such a run, as shown above. T then has a vertex outside S, for
|S| < k, so the node branches on the representatives outside S and
excluded, which T meets; T is still reached exactly once. (4) ppt_graph,
gamma_p with witnesses=False and the tree certificate keep every hit at
the least k, with l >= n. For a minimum PDS T with ppt(T) = ppt(G) the
moves of (1) are all swaps, since T - x would be a smaller PDS, and end
at a hit in ppt(G) steps: the least step count among the hits is
ppt(G). gamma_p with its witness list searches all of V instead, with
the twin sets and V in its pool: the list must hold every minimum PDS,
including those that use a dominated vertex such as a leaf.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice, product
from math import prod

from .errors import SearchBudgetExceeded
from .graph import Graph, _bits

DEFAULT_WORK_LIMIT = 10**8

# Below this many vertices the twin pass costs more than it saves: over
# gamma_p, l = 2 and bounds on 80 seeded random trees and sparse graphs
# per size, it added 2-11% at five to eight vertices and saved up to 2.6%
# at nine and ten.
_TWIN_MIN_N = 9


@dataclass(frozen=True)
class PdsSolution:
    """One power dominating set with its propagation time."""

    vertices: tuple
    ppt: int

    def to_json_dict(self) -> dict:
        return {"set": list(self.vertices), "ppt": self.ppt}


@dataclass(frozen=True)
class GammaResult:
    """gamma_P with all minimum witnesses, lexicographically ordered, or
    none when gamma_p ran with witnesses=False."""

    gamma_p: int
    witnesses: tuple
    ppt_graph: int

    def to_json_dict(self) -> dict:
        return {
            "gamma_p": self.gamma_p,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "ppt_graph": self.ppt_graph,
        }


class _Budget:
    """Counts work units against a cap: one per search node, per leaf swap
    the tree certificate tests, and per witness combined across components.
    k is the cardinality the search has reached, for the error message."""

    __slots__ = ("limit", "used", "k")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.k = 0

    def spend(self, units: int = 1):
        self.used += units
        if self.used > self.limit:
            raise SearchBudgetExceeded(
                f"work limit of {self.limit} exceeded: {self.used} units used "
                f"with the search at k = {self.k} "
                "(work units: one per search node, leaf swap or combined witness)"
            )


def _branch_search(g: Graph, budget: _Budget, allowed: int, l: int) -> Iterator[tuple[tuple, int]]:
    """Yield (S as a vertex tuple, steps) for every S inside allowed that
    reaches V within l steps, at the least k = |S| where one does, then
    stop. A caller that needs only k takes the first hit. g is connected.
    Its pool starts as in (2) and (4) of the module docstring, cut to
    allowed, and gains N[V - final] & allowed for each failed run."""
    core = g.core
    full = g.full_mask
    if l < g.n:
        for balls in islice(g._grow_balls(), l + 1):
            pass
    else:
        # V is a fort with N[V] = V, and no run takes more than n steps
        balls = [allowed]
    twins = g.open_twin_sets if l > 1 and g.n >= _TWIN_MIN_N else ()
    pool = [nf & allowed for nf in (*twins, *balls)]

    # floor: how many pairwise disjoint sets a greedy pass took from the
    # pool, smallest first, when it held packed sets; no k below it succeeds
    floor = packed = 0
    for k in range(1, allowed.bit_count() + 1):
        budget.k = k
        if len(pool) > k and len(pool) != packed:
            packed = len(pool)
            taken = floor = 0
            for nf in sorted(pool, key=int.bit_count):
                if not nf & taken:
                    taken |= nf
                    floor += 1
        if floor > k:
            continue
        found = False
        # (S, excluded, room); the nodes with room 1 run their children inline
        stack = [(0, 0, k)]
        while stack:
            s, excluded, room = stack.pop()
            budget.spend()
            # an S that misses no pooled set was a too-slow leaf at k = |S|
            missed = [nf for nf in pool if not nf & s] or [allowed & ~s]
            keep = ~excluded
            if room == 1:
                # the last vertex must hit every missed set at once
                branch = keep
                for nf in missed:
                    branch &= nf
                seen = len(pool)
                while branch:
                    b = branch & -branch
                    branch ^= b
                    budget.spend()
                    leaf = s | b
                    # only forts found by earlier siblings can be missed
                    for nf in pool[seen:]:
                        if not nf & leaf:
                            break
                    else:
                        final, steps = core.fixed_point(leaf)
                        if final != full:
                            pool.append(g.closed_neighbourhood(full ^ final) & allowed)
                        elif steps <= l:
                            found = True
                            yield tuple(_bits(leaf)), steps
                continue
            # the first of the smallest, as min() would pick it
            branch = missed[0] & keep
            size = branch.bit_count()
            for nf in missed:
                nf &= keep
                if nf.bit_count() < size:
                    branch = nf
                    size = branch.bit_count()
            # highest bit pushed first, so the lowest is searched first; each
            # child excludes the branch bits below its own
            while branch:
                b = 1 << (branch.bit_length() - 1)
                branch ^= b
                stack.append((s | b, excluded | branch, room - 1))
        if found:
            return
    raise AssertionError("allowed always succeeds as a whole; unreachable")


def _gamma_connected(g: Graph, budget: _Budget) -> GammaResult:
    hits = sorted(_branch_search(g, budget, g.full_mask, g.n))
    return GammaResult(
        gamma_p=len(hits[0][0]),
        witnesses=tuple(PdsSolution(*hit) for hit in hits),
        ppt_graph=min(steps for _, steps in hits),
    )


def _per_component(g: Graph, budget: _Budget, solve: Callable) -> tuple[list, list]:
    """The components' vertex lists and solve(component, budget) for each;
    ValueError if g is empty. Propagation never crosses components, so each
    is solved alone. A connected g, found by one grow from vertex 0, is
    solved as itself, with no component list and no copy."""
    if g.n == 0:
        raise ValueError("power domination of the empty graph is undefined")
    if g.is_connected():
        return [range(g.n)], [solve(g, budget)]
    comps = g.components()
    return comps, [solve(g.subgraph(comp), budget) for comp in comps]


def gamma_p(
    g: Graph, work_limit: int = DEFAULT_WORK_LIMIT, *, witnesses: bool = True
) -> GammaResult:
    """Exact gamma_P(G) with every minimum power dominating set, from the
    one search over all of V. With witnesses=False the witness list is
    empty, and gamma_P and ppt come from the cheaper search over
    representatives."""
    if not witnesses:
        k, ppt = _gamma_ppt(g, work_limit)
        return GammaResult(gamma_p=k, witnesses=(), ppt_graph=ppt)
    budget = _Budget(work_limit)
    comps, parts = _per_component(g, budget, _gamma_connected)
    if len(parts) == 1:
        return parts[0]
    # charge the combined witnesses before building them
    budget.k = sum(r.gamma_p for r in parts)
    budget.spend(prod(len(r.witnesses) for r in parts))
    witnesses = []
    for choice in product(*(r.witnesses for r in parts)):
        vertices = []
        for comp, sol in zip(comps, choice):
            vertices.extend(comp[i] for i in sol.vertices)
        witnesses.append(
            PdsSolution(tuple(sorted(vertices)), max(sol.ppt for sol in choice))
        )
    witnesses.sort(key=lambda w: w.vertices)
    return GammaResult(
        gamma_p=budget.k,
        witnesses=tuple(witnesses),
        ppt_graph=max(r.ppt_graph for r in parts),
    )


def _least_ppt_hit(g: Graph, budget: _Budget) -> tuple[int, tuple]:
    """(ppt(g), S) for the least hit S in ppt(g) steps, by (4) above; g connected."""
    return min((steps, s) for s, steps in _branch_search(g, budget, g.representatives, g.n))


def _gamma_ppt(g: Graph, work_limit: int) -> tuple[int, int]:
    """(gamma_P, ppt) from the search over representatives: the sum of the
    components' gamma_P and the max of their least ppt."""
    _, parts = _per_component(g, _Budget(work_limit), _least_ppt_hit)
    return sum(len(s) for _, s in parts), max(steps for steps, _ in parts)


def ppt_graph(g: Graph, work_limit: int = DEFAULT_WORK_LIMIT) -> int:
    """ppt(G): minimum propagation time over all minimum power dominating
    sets, the max over components of each one's least."""
    return _gamma_ppt(g, work_limit)[1]


def l_round_number(g: Graph, l: int, work_limit: int = DEFAULT_WORK_LIMIT) -> int:
    """Minimum seeds that power dominate G within propagation time l.

    l = 1 is exactly the domination number; l >= n never binds, giving
    gamma_P.
    """
    if isinstance(l, bool) or not isinstance(l, int) or l < 1:
        raise ValueError(f"l must be a positive integer, got {l}")
    _, parts = _per_component(
        g, _Budget(work_limit), lambda h, b: next(_branch_search(h, b, h.representatives, l))[0]
    )
    return sum(map(len, parts))
