"""Exact computation of the power domination number and propagation time.

Candidate sets are enumerated in lexicographic order at each cardinality
k = 1, 2, ... and tested by running propagation to its fixed point; the
first cardinality with a hit is gamma_P, and every hit at that cardinality
is kept as a witness. Exponential in the worst case; a configurable cap on
work (propagation runs, plus combined witnesses on a disconnected graph)
turns runaway inputs into SearchBudgetExceeded rather than an approximate
answer.

Disconnected graphs are solved per component (propagation never crosses
components): gamma_P sums, witnesses combine, and the propagation time of
a combined witness is the max over its parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import prod

from .errors import SearchBudgetExceeded
from .graph import Graph

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
    """gamma_P with all minimum witnesses, lexicographically ordered."""

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
    """Counts work against a cap: one unit per propagation run, and one per
    witness combined across the components of a disconnected graph."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, units: int = 1):
        self.used += units
        if self.used > self.limit:
            raise SearchBudgetExceeded(
                f"work limit of {self.limit} exceeded "
                "(one unit per propagation run or combined witness)"
            )


def _gamma_connected(g: Graph, budget: _Budget) -> GammaResult:
    core = g.core
    full = g.full_mask
    for k in range(1, g.n + 1):
        witnesses = []
        for combo in combinations(range(g.n), k):
            start = 0
            for v in combo:
                start |= 1 << v
            budget.spend()
            final, steps = core.fixed_point(start)
            if final == full:
                witnesses.append(PdsSolution(combo, steps))
        if witnesses:
            return GammaResult(
                gamma_p=k,
                witnesses=tuple(witnesses),
                ppt_graph=min(w.ppt for w in witnesses),
            )
    raise AssertionError("S = V(G) always power dominates; unreachable")


def gamma_p(g: Graph, work_limit: int = DEFAULT_WORK_LIMIT) -> GammaResult:
    """Exact gamma_P(G) with every minimum power dominating set."""
    if g.n == 0:
        raise ValueError("gamma_P of the empty graph is undefined")
    budget = _Budget(work_limit)
    comps = g.components()
    if len(comps) == 1:
        return _gamma_connected(g, budget)

    partials = [_gamma_connected(g.subgraph(comp), budget) for comp in comps]
    # charge the combined witnesses before building them
    budget.spend(prod(len(r.witnesses) for r in partials))
    witnesses = []
    for choice in product(*(r.witnesses for r in partials)):
        vertices = []
        for comp, sol in zip(comps, choice):
            vertices.extend(comp[i] for i in sol.vertices)
        witnesses.append(
            PdsSolution(tuple(sorted(vertices)), max(sol.ppt for sol in choice))
        )
    witnesses.sort(key=lambda w: w.vertices)
    return GammaResult(
        gamma_p=sum(r.gamma_p for r in partials),
        witnesses=tuple(witnesses),
        ppt_graph=min(w.ppt for w in witnesses),
    )


def ppt_graph(g: Graph, work_limit: int = DEFAULT_WORK_LIMIT) -> int:
    """ppt(G): minimum propagation time over all minimum power dominating sets."""
    return gamma_p(g, work_limit=work_limit).ppt_graph


def _l_round_connected(g: Graph, l: int, budget: _Budget) -> int:
    core = g.core
    full = g.full_mask
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            start = 0
            for v in combo:
                start |= 1 << v
            budget.spend()
            final, steps = core.fixed_point(start)
            if final == full and steps <= l:
                return k
    raise AssertionError("S = V(G) power dominates in time 0; unreachable")


def l_round_number(g: Graph, l: int, work_limit: int = DEFAULT_WORK_LIMIT) -> int:
    """Minimum seeds that power dominate G within propagation time l.

    l = 1 is exactly the domination number; l >= n never binds, giving
    gamma_P.
    """
    if g.n == 0:
        raise ValueError("l-round power domination of the empty graph is undefined")
    if l < 1:
        raise ValueError(f"l must be a positive integer, got {l}")
    budget = _Budget(work_limit)
    return sum(
        _l_round_connected(g.subgraph(comp), l, budget) for comp in g.components()
    )
