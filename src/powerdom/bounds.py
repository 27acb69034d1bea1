"""Lower bounds on gamma_P and ppt, and the refutation verdict.

Four quantities per connected graph:

  * the correct bound         |V| / (ppt(G) * Delta + 1)   <= gamma_P(G)
  * the refuted bound         |V| / (diam(G) * Delta + 1)  (NOT a bound;
    kept as a first-class value so the counterexample is mechanically
    demonstrable)
  * the ppt lower bound       ppt(G) >= ceil((|V| - gamma_P) / (gamma_P * Delta))
  * the tree bound            gamma_P(T) >= ceil(|V| / ((diam - 1) * Delta + 1))
    for trees on at least 3 vertices

All raw values are exact rationals; since gamma_P and ppt are integers the
ceiling forms are the operative bounds, and every comparison here is
exact, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DisconnectedGraphError
from .graph import Graph
from .solver import DEFAULT_WORK_LIMIT, gamma_p, l_round_number, ppt_graph


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _require_connected(g: Graph):
    if g.n == 0:
        raise ValueError("bounds are undefined on the empty graph")
    if not g.is_connected():
        raise DisconnectedGraphError("bounds are stated for connected graphs only")


@dataclass(frozen=True)
class BoundsReport:
    """All bound values for one connected graph.

    tree_bound is None for non-trees and for trees on fewer than 3
    vertices. refutation_flag records whether the refuted diameter bound
    exceeds gamma_P; true is a verdict about the bound, not a violation.
    """

    n: int
    max_degree: int
    diameter: int
    gamma_p: int
    ppt_graph: int
    correct_bound_raw: Fraction
    refuted_bound_raw: Fraction
    ppt_lower_bound: int
    tree_bound: int | None
    refutation_flag: bool

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "max_degree": self.max_degree,
            "diameter": self.diameter,
            "gamma_p": self.gamma_p,
            "ppt_graph": self.ppt_graph,
            "correct_bound_raw": _fraction_json(self.correct_bound_raw),
            "refuted_bound_raw": _fraction_json(self.refuted_bound_raw),
            "ppt_lower_bound": self.ppt_lower_bound,
            "refutation_flag": self.refutation_flag,
        }
        if self.tree_bound is not None:
            out["tree_bound"] = self.tree_bound
        return out


def _fraction_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


# One formula per bound, on numbers the caller has already computed.


def _correct_bound(n: int, ppt: int, delta: int) -> Fraction:
    return Fraction(n, ppt * delta + 1)


def _refuted_bound(n: int, diam: int, delta: int) -> Fraction:
    return Fraction(n, diam * delta + 1)


def _ppt_bound(n: int, gp: int, delta: int) -> int:
    return _ceil_div(n - gp, gp * delta)


def _tree_bound(n: int, diam: int, delta: int) -> int:
    return _ceil_div(n, (diam - 1) * delta + 1)


def correct_lower_bound(g: Graph, work_limit: int = DEFAULT_WORK_LIMIT) -> Fraction:
    """|V| / (ppt(G) * Delta(G) + 1), exactly. Invokes the exact solver."""
    _require_connected(g)
    return _correct_bound(g.n, ppt_graph(g, work_limit=work_limit), g.max_degree())


def refuted_diameter_bound(g: Graph) -> Fraction:
    """|V| / (diam(G) * Delta(G) + 1), exactly.

    This is the quantity refuted as a lower bound for gamma_P; it is
    returned, never asserted against gamma_P.
    """
    _require_connected(g)
    return _refuted_bound(g.n, g.diameter(), g.max_degree())


def ppt_lower_bound(g: Graph, work_limit: int = DEFAULT_WORK_LIMIT) -> int:
    """ceil((|V| - gamma_P) / (gamma_P * Delta)); needs n >= 2 so Delta >= 1.

    Only gamma_P is needed: the l-round number with l = n, whose search
    stops at its first hit."""
    _require_connected(g)
    if g.n < 2:
        raise ValueError("ppt lower bound needs n >= 2 (max degree must be positive)")
    return _ppt_bound(g.n, l_round_number(g, g.n, work_limit), g.max_degree())


def tree_lower_bound(g: Graph) -> int:
    """ceil(|V| / ((diam - 1) * Delta + 1)) for a tree on at least 3 vertices."""
    if g.n < 3 or not g.is_tree():
        raise ValueError("tree bound requires a tree on at least 3 vertices")
    return _tree_bound(g.n, g.diameter(), g.max_degree())


def bounds_report(g: Graph, work_limit: int = DEFAULT_WORK_LIMIT) -> BoundsReport:
    """Aggregate every bound for one connected graph (n >= 2).

    The solver (gamma_p without its witness list, so a search over
    representatives) and the diameter run once each; their values feed all
    derived fields.
    """
    _require_connected(g)
    if g.n < 2:
        raise ValueError("ppt lower bound needs n >= 2 (max degree must be positive)")
    result = gamma_p(g, work_limit=work_limit, witnesses=False)
    delta = g.max_degree()
    diam = g.diameter()
    refuted = _refuted_bound(g.n, diam, delta)
    is_tree = g.n >= 3 and g.is_tree()
    return BoundsReport(
        n=g.n,
        max_degree=delta,
        diameter=diam,
        gamma_p=result.gamma_p,
        ppt_graph=result.ppt_graph,
        correct_bound_raw=_correct_bound(g.n, result.ppt_graph, delta),
        refuted_bound_raw=refuted,
        ppt_lower_bound=_ppt_bound(g.n, result.gamma_p, delta),
        tree_bound=_tree_bound(g.n, diam, delta) if is_tree else None,
        refutation_flag=refuted > result.gamma_p,
    )
