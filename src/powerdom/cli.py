"""Command line frontend.

Subcommands cover the whole toolkit: parsing and generating graphs,
running the observation process, exact solving, bound reports, trail and
tree certificates, and the counterexample demo table. Every subcommand
accepts `--json` for machine-readable output (`gen` after the family
name). All but `gen` and `demo`, which build their own graphs, read a
graph file, or stdin when the path is `-`. The subcommands that search,
`gamma`, `ppt`, `lround`, `bounds`, `verify-tree` and `demo`, take
`--limit N` to cap the solver's work. Each handler returns its JSON
payload and its text, and main prints one of them.

Exit codes: 0 success, 1 usage or parse error, 2 solver work limit
exceeded, 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import families
from .bounds import _fraction_json, _refuted_bound, bounds_report
from .errors import (
    InternalConsistencyError,
    PowerdomError,
    SearchBudgetExceeded,
)
from .graph import Graph, check_vertex_count, parse_graph, write_graph
from .propagation import propagate
from .solver import DEFAULT_WORK_LIMIT, gamma_p, l_round_number, ppt_graph
from .trails import extract_monotone_trail
from .tree_analysis import verify_tree_diameter_bound

# every demo row is exact; rows above this delta keep the label
# "certified", which perfbench's workloads and reference rows pin
EXACT_DEMO_DELTA = 12


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    resource limits, so remap usage errors to 1 (--help keeps 0)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _work_limit(text: str) -> int:
    """Type of --limit: a count of work units, so a negative one is a usage
    error rather than a limit exceeded before the search starts."""
    try:
        if (limit := int(text)) >= 0:
            return limit
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"work limit must be a non-negative integer, got {text!r}")


def _fmt_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator} ≈ {float(q):.3f}"


def _read_graph(path: str) -> Graph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _parse_vertex_set(text: str) -> list:
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"bad vertex list {text!r}; expected e.g. 0,3,7")


def counterexample_demo(
    delta_min: int, delta_max: int, work_limit: int = DEFAULT_WORK_LIMIT
) -> list:
    """One report row per delta in [delta_min, delta_max].

    gamma_P is the l-round number with l = n, one search per row that
    stops at its first hit: every smaller cardinality is exhausted before
    it, so its size is exact without the witness list. gamma_mode is only
    a label, "certified" above EXACT_DEMO_DELTA and "exact" up to it.
    Verdicts compare exact rationals; the decimal rendering is
    display-only.
    """
    if not (3 <= delta_min <= delta_max):
        raise ValueError(f"need 3 <= from <= to, got {delta_min}..{delta_max}")
    # refuse an oversized last row before solving the rows below it
    check_vertex_count(delta_max * delta_max + 1)
    rows = []
    for delta in range(delta_min, delta_max + 1):
        g, _ = families.gen_h_delta(delta)
        diam = g.diameter()
        deg = g.max_degree()
        gamma = l_round_number(g, g.n, work_limit)
        refuted = _refuted_bound(g.n, diam, deg)
        rows.append(
            {
                "delta": delta,
                "n": g.n,
                "diam": diam,
                "max_degree": deg,
                "gamma_p": gamma,
                "gamma_mode": "exact" if delta <= EXACT_DEMO_DELTA else "certified",
                "refuted_bound": refuted,
                "refutation_flag": refuted > gamma,
            }
        )
    return rows


def _cmd_gamma(args) -> tuple:
    g = _read_graph(args.graph)
    result = gamma_p(g, work_limit=args.limit)
    lines = [f"gamma_p = {result.gamma_p}", f"ppt = {result.ppt_graph}", "witnesses:"]
    for w in result.witnesses:
        lines.append(f"  {{{', '.join(map(str, w.vertices))}}} ppt={w.ppt}")
    return result.to_json_dict(), "\n".join(lines)


def _cmd_ppt(args) -> tuple:
    g = _read_graph(args.graph)
    value = ppt_graph(g, work_limit=args.limit)
    return {"ppt_graph": value}, f"ppt = {value}"


def _cmd_propagate(args) -> tuple:
    g = _read_graph(args.graph)
    trace = propagate(g, _parse_vertex_set(args.set))
    lines = []
    for i, layer in enumerate(trace.layers):
        lines.append(f"[{i}] {{{', '.join(map(str, sorted(layer)))}}}")
    if trace.complete:
        lines.append(f"complete, ppt = {trace.steps}")
    else:
        lines.append(f"stalled after {trace.steps} steps; not a power dominating set")
    return trace.to_json_dict(), "\n".join(lines)


def _cmd_lround(args) -> tuple:
    g = _read_graph(args.graph)
    value = l_round_number(g, args.l, work_limit=args.limit)
    return (
        {"l": args.l, "l_round_number": value},
        f"l-round power domination number (l={args.l}) = {value}",
    )


def _cmd_bounds(args) -> tuple:
    g = _read_graph(args.graph)
    rep = bounds_report(g, work_limit=args.limit)
    verdict = "REFUTES" if rep.refutation_flag else "consistent"
    lines = [
        f"n = {rep.n}, max_degree = {rep.max_degree}, diameter = {rep.diameter}",
        f"gamma_p = {rep.gamma_p}, ppt = {rep.ppt_graph}",
        f"correct lower bound n/(ppt*maxdeg+1) = {_fmt_fraction(rep.correct_bound_raw)}",
        f"diameter-based bound n/(diam*maxdeg+1) = {_fmt_fraction(rep.refuted_bound_raw)}"
        f" [{verdict}]",
        f"ppt lower bound = {rep.ppt_lower_bound}",
    ]
    if rep.tree_bound is not None:
        lines.append(f"tree lower bound = {rep.tree_bound}")
    return rep.to_json_dict(), "\n".join(lines)


# family -> (generator, its integer arguments in call order); the
# generators are looked up on `families` at call time
_GEN_FAMILIES = {
    "hdelta": (lambda delta: families.gen_h_delta(delta)[0], ("delta",)),
    "path": (lambda n: families.gen_path(n), ("n",)),
    "cycle": (lambda n: families.gen_cycle(n), ("n",)),
    "star": (lambda k: families.gen_star(k), ("k",)),
    "complete": (lambda n: families.gen_complete(n), ("n",)),
    "spider": (lambda legs, length: families.gen_spider(legs, length), ("legs", "len")),
    "rtree": (lambda n, seed: families.gen_random_tree(n, seed), ("n", "seed")),
}


def _cmd_gen(args) -> tuple:
    generate, names = _GEN_FAMILIES[args.family]
    values = [getattr(args, name) for name in names]
    g = generate(*values)
    header = " ".join(
        [f"# family: {args.family}"] + [f"{k}={v}" for k, v in zip(names, values)]
    )
    payload = {"n": g.n, "m": g.edge_count, "edges": [list(e) for e in g.edges()]}
    return payload, f"{header}\n{write_graph(g).rstrip()}"


def _cmd_trail(args) -> tuple:
    g = _read_graph(args.graph)
    trace = propagate(g, _parse_vertex_set(args.set))
    trail = extract_monotone_trail(g, trace, args.vertex)
    payload = trail.to_json_dict()
    payload["vertex"] = args.vertex
    payload["time_label"] = trace.time_label[args.vertex]
    human = (
        f"trail: {' '.join(map(str, trail.vertices))}\n"
        f"edge labels: {' '.join(map(str, trail.edge_labels))}\n"
        f"length {trail.length} >= t({args.vertex})+1 = {trace.time_label[args.vertex] + 1}"
    )
    return payload, human


def _cmd_verify_tree(args) -> tuple:
    g = _read_graph(args.graph)
    cert = verify_tree_diameter_bound(g, work_limit=args.limit)
    human = (
        f"ppt = {cert.ppt_repaired}, diam = {cert.diam}: "
        f"ppt <= diam-1 holds\n"
        f"witness set {sorted(cert.repaired_set)} "
        f"(repaired from {sorted(cert.original_set)})\n"
        f"witness path: {' '.join(map(str, cert.witness_trail.vertices))}"
    )
    return cert.to_json_dict(), human


def _cmd_demo(args) -> tuple:
    rows = counterexample_demo(args.delta_min, args.delta_max, work_limit=args.limit)
    payload = [{**r, "refuted_bound": _fraction_json(r["refuted_bound"])} for r in rows]
    lines = [
        f"{'delta':>5}  {'n':>4}  {'diam':>4}  {'maxdeg':>6}  "
        f"{'gamma_p':>18}  {'bound':>16}  verdict"
    ]
    for r in rows:
        gamma_col = f"{r['gamma_p']} ({r['gamma_mode']})"
        verdict = "REFUTES" if r["refutation_flag"] else "consistent"
        lines.append(
            f"{r['delta']:>5}  {r['n']:>4}  {r['diam']:>4}  {r['max_degree']:>6}  "
            f"{gamma_col:>18}  {_fmt_fraction(r['refuted_bound']):>16}  {verdict}"
        )
    return payload, "\n".join(lines)


# built once per process, since parse_args leaves the tree as it found it
@functools.cache
def _build_parser() -> _Parser:
    # every leaf command takes --json; the ones that search also take --limit
    plain = argparse.ArgumentParser(add_help=False)
    plain.add_argument("--json", action="store_true", help="emit JSON")
    solving = argparse.ArgumentParser(add_help=False, parents=[plain])
    solving.add_argument(
        "--limit",
        type=_work_limit,
        default=DEFAULT_WORK_LIMIT,
        metavar="N",
        help="solver work cap in search nodes",
    )

    parser = _Parser(prog="powerdom", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gamma", parents=[solving], help="exact power domination number")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("ppt", parents=[solving], help="power propagation time of the graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_ppt)

    p = sub.add_parser("propagate", parents=[plain], help="run observation from a seed set")
    p.add_argument("--set", required=True, metavar="IDS", help="comma separated vertex ids")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("lround", parents=[solving], help="l-round power domination number")
    p.add_argument("--l", required=True, type=int)
    p.add_argument("graph")
    p.set_defaults(func=_cmd_lround)

    p = sub.add_parser("bounds", parents=[solving], help="lower bound report")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("gen", help="generate a named graph family")
    fam = p.add_subparsers(dest="family", required=True, metavar="FAMILY")
    for family, (_, names) in _GEN_FAMILIES.items():
        f = fam.add_parser(family, parents=[plain])
        for name in names:
            f.add_argument(f"--{name}", required=True, type=int)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("trail", parents=[plain], help="extract a monotone trail")
    p.add_argument("--set", required=True, metavar="IDS")
    p.add_argument("--vertex", required=True, type=int)
    p.add_argument("graph")
    p.set_defaults(func=_cmd_trail)

    p = sub.add_parser("verify-tree", parents=[solving], help="certify ppt <= diam-1 on a tree")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_verify_tree)

    p = sub.add_parser("demo", parents=[solving], help="counterexample family report")
    p.add_argument("--from", dest="delta_min", required=True, type=int, metavar="D1")
    p.add_argument("--to", dest="delta_max", required=True, type=int, metavar="D2")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse drops the value of "--opt=--" and stores [] instead;
        # no option here takes a list
        if [] in vars(args).values():
            parser.error("an option value cannot be '--'")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 1
    try:
        payload, human = args.func(args)
        print(json.dumps(payload, indent=2) if args.json else human)
        return 0
    except SearchBudgetExceeded as exc:
        print(f"powerdom: work limit exceeded: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"powerdom: internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (PowerdomError, ValueError, OSError) as exc:
        print(f"powerdom: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
