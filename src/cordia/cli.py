"""Command line front end.

Every invocation writes exactly one JSON object to stdout with sorted keys,
so repeated runs with the same inputs are byte identical.  Human-oriented
notes (elapsed time) go to stderr.  Exit codes: 0 success / property holds,
1 property fails, 2 usage or input error, 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import BudgetError, GraphFormatError, UnknownTagError
from .extremal import bounds_for, minimal_noncordial, survey
from .graph6 import parse_graph6, to_graph6
from .graphs import Graph, enumerate_graphs, named
from .labeling import (
    GraphProperty,
    Verdict,
    check_23_orientable,
    check_property,
)
from .preserver import (
    is_nonsingular,
    is_vertex_permutation,
    parse_operator_table,
    search_strong_preservers,
    strongly_preserves,
)

_PROPERTIES = [p.value for p in GraphProperty]


def _graph_json(g: Graph) -> dict:
    return {"edges": [list(e) for e in g.edge_list()], "graph6": to_graph6(g), "n": g.n}


def _witness_json(g: Graph, verdict: Verdict) -> dict | None:
    if verdict.labeling is None:
        return None
    lab = verdict.labeling
    out: dict = {
        "labels": "".join("1" if lab.labels >> v & 1 else "0" for v in range(g.n)),
        "ones": [v for v in range(g.n) if lab.labels >> v & 1],
    }
    if verdict.orientation is not None:
        arcs = []
        for r, (i, j) in enumerate(g.edge_list()):
            arcs.append([j, i] if verdict.orientation.bits >> r & 1 else [i, j])
        out["arcs"] = arcs
    return out


def _resolve_graph(args) -> tuple[Graph, dict]:
    if args.graph6 is not None:
        return parse_graph6(args.graph6), {"graph6": args.graph6}
    return named(args.named), {"named": args.named}


def _cmd_check(args) -> tuple[dict, dict, int]:
    g, inputs = _resolve_graph(args)
    prop = GraphProperty(args.property)
    inputs.update(property=prop.value, ambient_friendly=args.ambient_friendly)
    if args.ambient_friendly and prop is not GraphProperty.ORIENT23:
        raise ValueError("--ambient-friendly only applies to orient23")
    if prop is GraphProperty.ORIENT23:
        verdict = check_23_orientable(g, ambient_friendly=args.ambient_friendly)
    else:
        verdict = check_property(g, prop)
    result = {
        "graph": _graph_json(g),
        "holds": verdict.decision,
        "labelings_examined": verdict.labelings_examined,
        "property": prop.value,
        "witness": _witness_json(g, verdict),
    }
    return inputs, result, 0 if verdict.decision else 1


def _cmd_bound(args) -> tuple[dict, dict, int]:
    prop = GraphProperty(args.property)
    inputs = {"n": args.n, "property": prop.value}
    bound, alternate = bounds_for(prop, args.n)
    result = {"alternate_bound": alternate, "bound": bound, "n": args.n, "property": prop.value}
    return inputs, result, 0


def _cmd_extremal(args) -> tuple[dict, dict, int]:
    prop = GraphProperty(args.property)
    if args.mode == "empirical":
        if args.edge_cap is not None:
            raise ValueError("--edge-cap only applies to minimal mode")
        if args.n is None:
            raise ValueError("empirical mode needs --n")
        inputs = {"mode": args.mode, "n": args.n, "property": prop.value}
        report = survey(prop, args.n)
        result = {
            "alternate_bound": report.alternate_bound,
            "bound": report.bound,
            "max_edges": report.empirical_max,
            "n": args.n,
            "property": prop.value,
            "witness": _graph_json(report.witness),
        }
        return inputs, result, 0
    if args.n is not None:
        raise ValueError("--n only applies to empirical mode")
    edge_cap = 4 if args.edge_cap is None else args.edge_cap
    inputs = {"edge_cap": edge_cap, "mode": args.mode, "property": prop.value}
    rows = minimal_noncordial(prop, edge_cap)
    result = {
        "count": len(rows),
        "edge_cap": edge_cap,
        "graphs": [dict(_graph_json(g), edge_count=m) for m, g in rows],
        "property": prop.value,
    }
    return inputs, result, 0


def _cmd_enumerate(args) -> tuple[dict, dict, int]:
    inputs = {"edges": args.edges, "n": args.n}
    reps = enumerate_graphs(args.n, args.edges)
    result = {
        "count": len(reps),
        "edges": args.edges,
        "graphs": [to_graph6(g) for g in reps],
        "n": args.n,
    }
    return inputs, result, 0


def _cmd_preservers(args) -> tuple[dict, dict, int]:
    prop = GraphProperty(args.property)
    inputs = {
        # Only sample mode reads the count and the seed.
        "count": args.count if args.mode == "sample" else None,
        "mode": args.mode,
        "n": args.n,
        "property": prop.value,
        "seed": args.seed if args.mode == "sample" else None,
    }
    report = search_strong_preservers(args.n, prop, args.mode, count=args.count, seed=args.seed)
    survivors_vertex = sum(
        1 for op in report.operators if is_vertex_permutation(op) is not None
    )
    result = {
        "all_survivors_vertex_induced": survivors_vertex == len(report.operators),
        "candidates_checked": report.candidates_checked,
        "candidates_passed": len(report.operators),
        "discarded_vertex_induced": report.discarded_vertex_induced,
        "failures_recorded": len(report.failures),
        "mode": report.mode,
        "n": report.n,
        "operators_materialized": len(report.operators),
        "property": prop.value,
        "survivors_vertex_induced": survivors_vertex,
    }
    return inputs, result, 0


def _cmd_operator_check(args) -> tuple[dict, dict, int]:
    prop = GraphProperty(args.property)
    inputs = {"property": prop.value, "table": args.table}
    with open(args.table, encoding="ascii") as fh:
        op = parse_operator_table(fh.read())
    verdict = strongly_preserves(op, prop)
    perm = is_vertex_permutation(op)
    result = {
        "counterexample": None
        if verdict.counterexample is None
        else _graph_json(verdict.counterexample),
        "n": op.n,
        "nonsingular": is_nonsingular(op),
        "property": prop.value,
        "strongly_preserves": verdict.strongly_preserves,
        "vertex_permutation": None if perm is None else list(perm),
    }
    return inputs, result, 0 if verdict.strongly_preserves else 1


_HANDLERS = {
    "check": _cmd_check,
    "bound": _cmd_bound,
    "extremal": _cmd_extremal,
    "enumerate": _cmd_enumerate,
    "preservers": _cmd_preservers,
    "operator-check": _cmd_operator_check,
}


class _Parser(argparse.ArgumentParser):
    """Raises on a bad command line, so that run() reports it as a usage error."""

    def error(self, message: str):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--timing", action="store_true", help="include elapsed seconds in the JSON payload"
    )

    parser = _Parser(
        prog="cordia",
        description="Cordial labelings, extremal edge counts, and linear preservers of small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", parents=[common], help="decide a labeling property for one graph")
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", help="graph in graph6 notation")
    src.add_argument("--named", help="catalog tag such as 2k2, paw, petersen")
    c.add_argument("--property", required=True, choices=_PROPERTIES)
    c.add_argument(
        "--ambient-friendly",
        action="store_true",
        help="balance labels over every vertex, isolated ones included (orient23 only)",
    )

    b = sub.add_parser("bound", parents=[common], help="closed-form max edge count for the property")
    b.add_argument("--property", required=True, choices=_PROPERTIES)
    b.add_argument("--n", type=int, required=True)

    e = sub.add_parser("extremal", parents=[common], help="search extremal graphs")
    e.add_argument("--property", required=True, choices=_PROPERTIES)
    e.add_argument("--n", type=int, help="vertex count (empirical mode)")
    e.add_argument("--mode", choices=["empirical", "minimal"], default="empirical")
    e.add_argument("--edge-cap", type=int, help="edge limit for minimal mode (default 4)")

    en = sub.add_parser("enumerate", parents=[common], help="canonical graphs with n vertices, m edges")
    en.add_argument("--n", type=int, required=True)
    en.add_argument("--edges", type=int, required=True)

    pr = sub.add_parser("preservers", parents=[common], help="search for strong preservers")
    pr.add_argument("--property", required=True, choices=_PROPERTIES)
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--mode", choices=["exhaustive", "vertex-only", "sample"], required=True)
    pr.add_argument("--count", type=int, default=1000, help="sample size (sample mode)")
    pr.add_argument("--seed", type=int, default=0)

    oc = sub.add_parser("operator-check", parents=[common], help="test one operator table")
    oc.add_argument("--table", required=True, help="path to an operator table file")
    oc.add_argument("--property", required=True, choices=_PROPERTIES)

    return parser


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    start = time.perf_counter()
    # A command line that does not parse still names its subcommand, if any.
    payload: dict = {"command": argv[0] if argv and argv[0] in _HANDLERS else None, "schema": 1}
    args = None

    def finish(code: int) -> int:
        elapsed = time.perf_counter() - start
        if getattr(args, "timing", False):
            payload["timing"] = {"seconds": round(elapsed, 3)}
        _emit(payload)
        print(f"cordia {payload['command']}: {elapsed:.2f}s", file=sys.stderr)
        return code

    try:
        args = _build_parser().parse_args(argv)
        payload["command"] = args.command
        inputs, result, code = _HANDLERS[args.command](args)
    except GraphFormatError as exc:
        payload["error"] = {"kind": "malformed-graph6", "message": str(exc)}
        return finish(2)
    except UnknownTagError as exc:
        payload["error"] = {"kind": "unknown-tag", "message": str(exc)}
        return finish(2)
    except BudgetError as exc:
        payload["error"] = {"kind": "budget", "message": str(exc)}
        return finish(3)
    except (ValueError, OSError) as exc:
        payload["error"] = {"kind": "usage", "message": str(exc)}
        return finish(2)
    payload["inputs"] = inputs
    payload["result"] = result
    return finish(code)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
