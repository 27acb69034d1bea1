"""Exact computation of the power domination number and propagation time.

gamma_P is found by branching on forts. A fort is a nonempty set F of
vertices such that no vertex outside F has exactly one neighbour in F.
S is a power dominating set (PDS) iff N[S] meets every fort, that is iff
S meets N[F] for every fort F. If N[S] misses a fort, no observed vertex
ever has exactly one unobserved neighbour in it, so it is never entered;
if propagation from S stops at an observed set C other than V, then
V - C is a fort that N[S] misses.

The search deepens k = 1, 2, ... and keeps a pool of the sets N[F] found
so far, which stay valid for every k. A node is a pair (S, excluded)
with |S| <= k, charged one unit of work. If S misses a pooled N[F], the
node branches on the one with the fewest vertices outside excluded,
b_1 < ... < b_m: child i adds b_i to S and b_1..b_(i-1) to excluded.
With one vertex left to add, the children are instead the vertices in
every missed N[F], since any other child would miss one of them. If S
misses no pooled set, propagation runs once. A full result at |S| = k is
a witness. A failed run adds N[V - final] to the pool and S branches on
it; a run at |S| < k always fails, since a smaller PDS would have ended
the search at a smaller k.

Every minimum PDS T is reached exactly once. At a node with S inside T
and excluded disjoint from T, T meets the branch set, since T meets every
N[F] and avoids excluded. Exactly one child keeps both conditions: the
one that adds the first b_i in T, because earlier children add a vertex
outside T and later ones exclude b_i. So T has one path from the root,
which ends at depth k, where T misses no pooled set and propagation
confirms it. The hits are thus distinct, and sorted they are the full
lexicographic witness list. The search is exponential in the worst case;
a cap on work (one unit per search node, plus one per combined witness on
a disconnected graph) turns runaway inputs into SearchBudgetExceeded
rather than an approximate answer.

The search yields its hits at the least k; a caller that needs only the
number takes the first: every k' < k was exhausted before it, so k is
exact without the witness list.

Disconnected graphs are solved per component (propagation never crosses
components): gamma_P sums, witnesses combine, and the propagation time of
a combined witness is the max over its parts. The parts are chosen
independently, so the least ppt over combined witnesses is the max over
components of each component's least, and ppt_graph never builds them.

Every caller but gamma_p's witness list (ppt_graph, gamma_p with
witnesses=False, the tree certificate, and l_round_number, which with
l = n gives gamma_P to the demo, ppt_lower_bound and the tree repair)
runs _rep_search, which changes the search above in four ways. (1) Its S
are sets of representatives: x is skipped when some neighbour y has N[x]
strictly inside N[y], or N[x] = N[y] and y < x. Call a set successful
when it reaches V within l steps (any PDS for l >= n). Take a successful
T and such an x in T. If y is in T, N[T - x] = N[T], so T - x is
successful and smaller. Otherwise T - x + y has |T| vertices and
N[T - x + y] contains N[T]; one forcing round is monotone in the observed
set (if A is inside B, what A forces is in B or forced by B), so each
later layer contains T's and it succeeds in no more steps. A drop shrinks
T and a swap raises (|N[y]|, -y), so repeated moves end inside the
representatives with at most |T| vertices and no more steps. So the least
k over the representatives is the least over V, and the first hit has
it. Pooled sets are cut down to the representatives; T meets the cut set
wherever it meets the whole, so the argument above holds for T with S and
excluded inside the representatives. (2) The pool starts with the ball
B_l(u) of radius l around every vertex u: layer l of T is V and lies
inside the radius-l ball around T, so T meets B_l(u). For l = 1 these are
the sets N[u], and the search is exact dominating-set branching; for
l >= n every ball is V. A failed run still pools N[V - final], since T is a PDS. (3) A
run that reaches V in more than l steps leaves no fort. T then has a
vertex outside S, for S is not successful, so the node branches on the
representatives outside S and excluded, which T meets; T is still reached
exactly once. A run within l steps at |S| < k cannot happen: the search
at k = |S| would have reached S. (4) ppt_graph, gamma_p with
witnesses=False and the tree certificate keep every hit at the least k,
with l >= n. For a minimum PDS T with ppt(T) = ppt(G) the moves of (1)
are all swaps, since T - x would be a smaller PDS, and end at a hit in
ppt(G) steps: the least step count among the hits is ppt(G). gamma_p with
its witness list searches all of V with pool [V] instead: the list must
hold every minimum PDS, including those that use a dominated vertex such
as a leaf.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice, product
from math import prod

from .errors import InternalConsistencyError, SearchBudgetExceeded
from .graph import Graph, _bits

DEFAULT_WORK_LIMIT = 10**8


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
    """Counts work against a cap: one unit per search node, and one per
    witness combined across the components of a disconnected graph. k is
    the cardinality the search has reached, for the error message."""

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
                "(one unit per search node or combined witness)"
            )


def _branch_search(
    g: Graph, budget: _Budget, pool: list[int], allowed: int, l: int
) -> Iterator[tuple[tuple, int]]:
    """Yield (S as a vertex tuple, steps) for every S inside allowed that
    reaches V within l steps, at the least k = |S| where one does, then
    stop. A caller that needs only k takes the first hit. pool holds sets
    inside allowed that every such S meets; the search appends
    N[V - final] & allowed for each failed run."""
    core = g.core
    full = g.full_mask

    def add_fort(final: int) -> int:
        """Pool N[V - final], the neighbourhood of the fort a failed run leaves."""
        nf = g.closed_neighbourhood(full & ~final) & allowed
        pool.append(nf)
        return nf

    for k in range(1, allowed.bit_count() + 1):
        budget.k = k
        found = False
        # (S, excluded, k - |S| >= 1, the parent's missed sets, pool length
        # it saw); the nodes with one vertex left run their children inline
        stack = [(0, 0, k, (), 0)]
        while stack:
            s, excluded, room, missed, seen = stack.pop()
            budget.spend()
            missed = [nf for nf in (*missed, *pool[seen:]) if not nf & s]
            seen = len(pool)
            if not missed:
                final, steps = core.fixed_point(s)
                if final != full:
                    missed = [add_fort(final)]
                    seen += 1
                elif steps <= l:
                    raise InternalConsistencyError(
                        f"a set of {k - room} vertices succeeds, below k = {k}"
                    )
                else:
                    # too slow, and no fort: a hit adds an allowed vertex outside S
                    missed = [allowed & ~s]
            if room == 1:
                # the last vertex must hit every missed set at once
                branch = ~excluded
                for nf in missed:
                    branch &= nf
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
                            add_fort(final)
                        elif steps <= l:
                            found = True
                            yield tuple(_bits(leaf)), steps
                continue
            branch = min((nf & ~excluded for nf in missed), key=int.bit_count)
            # highest bit pushed first, so the lowest is searched first; each
            # child excludes the branch bits below its own
            while branch:
                b = 1 << (branch.bit_length() - 1)
                branch ^= b
                stack.append((s | b, excluded | branch, room - 1, missed, seen))
        if found:
            return
    raise AssertionError("allowed always succeeds as a whole; unreachable")


def _gamma_connected(g: Graph, budget: _Budget) -> GammaResult:
    # V is a fort with N[V] = V, and no run takes more than n steps
    hits = sorted(_branch_search(g, budget, [g.full_mask], g.full_mask, g.n))
    return GammaResult(
        gamma_p=len(hits[0][0]),
        witnesses=tuple(PdsSolution(*hit) for hit in hits),
        ppt_graph=min(steps for _, steps in hits),
    )


def _per_component(g: Graph, budget: _Budget, solve: Callable) -> tuple[list, list]:
    """The components' vertex lists and solve(component, budget) for each;
    ValueError if g is empty. Propagation never crosses components, so each
    is solved alone; a connected g is solved as itself, without a copy."""
    comps = g.components()
    if not comps:
        raise ValueError("power domination of the empty graph is undefined")
    if len(comps) == 1:
        return comps, [solve(g, budget)]
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


def _representatives(g: Graph) -> int:
    """Mask of the vertices x with no neighbour y such that N[x] is strictly
    inside N[y], or N[x] = N[y] and y < x. Only neighbours need checking:
    N[x] inside N[y] puts x in N[y], so y is in N[x]."""
    adj = g.adjacency_masks
    closed = [mask | 1 << v for v, mask in enumerate(adj)]
    reps = 0
    for x, cx in enumerate(closed):
        nbrs = adj[x]
        while nbrs:
            b = nbrs & -nbrs
            y = b.bit_length() - 1
            cy = closed[y]
            if cx & cy == cx and (cy != cx or y < x):
                break
            nbrs ^= b
        else:
            reps |= 1 << x
    return reps


def _rep_search(g: Graph, budget: _Budget, l: int) -> Iterator[tuple[tuple, int]]:
    """_branch_search over a connected g's representatives, pool as in (2)
    of the module docstring; l >= n grows no balls, for each would be V."""
    reps = _representatives(g)
    pool = [reps]
    if l < g.n:
        for balls in islice(g._grow_balls(), l + 1):
            pass
        pool = list(dict.fromkeys(ball & reps for ball in balls))
    return _branch_search(g, budget, pool, reps, l)


def _gamma_ppt(g: Graph, work_limit: int) -> tuple[int, int]:
    """(gamma_P, ppt) from the search over representatives: the sum of the
    components' gamma_P and the max of their least ppt."""
    _, parts = _per_component(g, _Budget(work_limit), lambda h, b: list(_rep_search(h, b, h.n)))
    return sum(len(h[0][0]) for h in parts), max(min(steps for _, steps in h) for h in parts)


def ppt_graph(g: Graph, work_limit: int = DEFAULT_WORK_LIMIT) -> int:
    """ppt(G): minimum propagation time over all minimum power dominating
    sets, the max over components of each one's least."""
    return _gamma_ppt(g, work_limit)[1]


def l_round_number(g: Graph, l: int, work_limit: int = DEFAULT_WORK_LIMIT) -> int:
    """Minimum seeds that power dominate G within propagation time l.

    l = 1 is exactly the domination number; l >= n never binds, giving
    gamma_P.
    """
    if not isinstance(l, int) or l < 1:
        raise ValueError(f"l must be a positive integer, got {l}")
    _, parts = _per_component(
        g, _Budget(work_limit), lambda h, b: len(next(_rep_search(h, b, l))[0])
    )
    return sum(parts)
