"""One iteration of one benchmark workload, in a fresh interpreter.

Started by run.py as ``python -I perfbench/worker.py <checkout root>``.  It
reads a request (workload, seed, trace flag, generated inputs) as JSON on
stdin, imports cordia from ``<root>/src``, runs the workload through the
public API and writes one JSON object to stdout: the wall time from the first
call to the last answer, per-operation latencies, peak RSS, the answers for
the checker, and, when tracing, the spans recorded around every call.

A fresh interpreter per iteration keeps every ``lru_cache`` in cordia cold,
as it is for each CLI invocation and script run.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

ROOT = os.path.abspath(sys.argv[1])
sys.path.insert(0, os.path.join(ROOT, "src"))

import cordia  # noqa: E402
from cordia import (  # noqa: E402
    Graph,
    GraphProperty,
    LinearOperator,
    canonical_form,
    check_property,
    empirical_max_edges,
    enumerate_graphs,
    has_property,
    make_graph,
    membership_bitmap,
    minimal_noncordial,
    parse_graph6,
    search_strong_preservers,
    strongly_preserves,
    to_graph6,
)

PROPS = (GraphProperty.SUM, GraphProperty.PRODUCT, GraphProperty.ORIENT23)
now = time.perf_counter_ns


class Tracer:
    """Spans kept in memory, one per call: (name, start, end, parent, tags).

    Times are perf_counter nanoseconds; parent is the index of the enclosing
    span or -1.  Tags name the aggregation bucket (property, input index).
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def span(self, name: str, **tags):
        return _Span(self, name, tags)


class _Span:
    __slots__ = ("tracer", "name", "tags", "index", "start")

    def __init__(self, tracer: Tracer, name: str, tags: dict) -> None:
        self.tracer, self.name, self.tags = tracer, name, tags

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.index)
        self.start = now()

    def __exit__(self, *exc) -> None:
        end = now()
        tr = self.tracer
        tr._stack.pop()
        parent = tr._stack[-1] if tr._stack else -1
        tr.spans[self.index] = [self.name, self.start, end, parent, self.tags]


class NoTracer:
    _null = nullcontext()

    def span(self, name: str, **tags):
        return self._null

    spans: list = []


def edge_map_operator(pi: list[int]) -> LinearOperator:
    n = 6
    return LinearOperator(n, tuple(Graph(n, 1 << pi[k]) for k in range(len(pi))))


def report_digest(report) -> str:
    """Hash of everything a search report says, for exact comparison."""
    h = hashlib.sha256()
    h.update(repr((report.candidates_checked, report.discarded_vertex_induced)).encode())
    for op in report.operators:
        h.update(repr(tuple(im.edges for im in op.images)).encode())
    for f in report.failures:
        h.update(repr((f.index, f.edge_map, f.counterexample.edges)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads; each returns (wall_s, op latencies in ms, answers, probes)

def run_decide(req: dict, tr) -> tuple:
    graphs = req["inputs"]["graph6"]
    lat = []
    raw = []
    t0 = now()
    with tr.span("workload"):
        for i, text in enumerate(graphs):
            s = now()
            with tr.span("op", i=i):
                try:
                    with tr.span("graph6.parse_graph6", i=i):
                        g = parse_graph6(text)
                    verdicts = []
                    for p in PROPS:
                        with tr.span("labeling.check_property", i=i, prop=p.value):
                            verdicts.append(check_property(g, p))
                    with tr.span("graph6.to_graph6", i=i):
                        out = to_graph6(g)
                    raw.append((out, verdicts))
                except Exception as exc:  # one failed operation, reported to the checker
                    raw.append(repr(exc))
            lat.append((now() - s) / 1e6)
    wall = (now() - t0) / 1e9
    answers = []
    for row in raw:
        if isinstance(row, str):
            answers.append({"error": row})
            continue
        out, verdicts = row
        answers.append({
            "graph6": out,
            "verdicts": [
                [
                    v.decision,
                    None if v.labeling is None else v.labeling.labels,
                    None if v.labeling is None else v.labeling.support,
                    None if v.orientation is None else v.orientation.bits,
                    v.labelings_examined,
                ]
                for v in verdicts
            ],
        })
    return wall, lat, answers, {}


SURVEY_CELLS = {"sum": range(4, 9), "product": range(4, 8), "orient23": range(6, 8)}
MINIMAL_EDGE_CAP = 6
# One cycle per support size: the permutation scan's cost depends on the
# support size, which is what the canonical-key cells of the baseline track.
CANONICAL_PROBE_SUPPORTS = (8, 9, 10)


def run_survey(req: dict, tr) -> tuple:
    # Calls run in the script's order: every cell, then minimal_noncordial.
    # One operation is the survey of one property, as
    # `scripts/extremal_survey.py --property <p> --edge-cap 6` would run it,
    # so its latency is the sum of that property's calls.
    spent = dict.fromkeys(PROPS, 0)
    answers = []
    probes = {}
    t0 = now()
    with tr.span("workload"):
        for prop in PROPS:
            for n in SURVEY_CELLS[prop.value]:
                label = f"empirical:{prop.value}:{n}"
                s = now()
                try:
                    with tr.span("extremal.empirical_max_edges", prop=prop.value, n=n):
                        m, witness = empirical_max_edges(prop, n)
                    answers.append({"op": label, "max": m, "witness": witness})
                except Exception as exc:
                    answers.append({"op": label, "error": repr(exc)})
                spent[prop] += now() - s
        if req["trace"]:
            # Enumerate the connected-class levels on their own first, so
            # their cost lands on the graphs layer rather than inside
            # minimal_noncordial.  Untraced runs pay it inside the first call.
            for c in range(1, MINIMAL_EDGE_CAP + 1):
                with tr.span("graphs.enumerate_graphs", c=c):
                    reps = enumerate_graphs(c + 1, c)
                probes[f"enumerate_classes_c{c}"] = len(reps)
        for prop in PROPS:
            s = now()
            try:
                with tr.span("extremal.minimal_noncordial", prop=prop.value):
                    rows = minimal_noncordial(prop, MINIMAL_EDGE_CAP)
                answers.append({"op": f"minimal:{prop.value}", "rows": rows})
            except Exception as exc:
                answers.append({"op": f"minimal:{prop.value}", "error": repr(exc)})
            spent[prop] += now() - s
    wall = (now() - t0) / 1e9
    lat = [spent[p] / 1e6 for p in PROPS]
    for a in answers:
        if "witness" in a:
            a["witness"] = to_graph6(a["witness"])
        if "rows" in a:
            a["rows"] = [[m, to_graph6(g)] for m, g in a["rows"]]
    if req["trace"] and req.get("probes"):
        for k in CANONICAL_PROBE_SUPPORTS:
            g = make_graph(k, [(v, (v + 1) % k) for v in range(k)])
            with tr.span("graphs.canonical_form", support=k):
                key = canonical_form(g)
            probes[f"canonical_form_s{k}"] = list(key)
    return wall, lat, answers, probes


def run_preserve_exact(req: dict, tr) -> tuple:
    # One operation is one property's share of the verification path: its
    # table, its searches and its strongly_preserves calls, latencies summed.
    inputs = req["inputs"]
    operators = [(edge_map_operator(pi), GraphProperty(p)) for pi, p, _ in inputs["operators"]]
    spent = dict.fromkeys(PROPS, 0)
    answers = []

    def op(label: str, owner: GraphProperty, name: str, fn, **tags):
        s = now()
        try:
            with tr.span(name, **tags):
                result = fn()
            answers.append({"op": label, "result": result})
        except Exception as exc:
            answers.append({"op": label, "error": repr(exc)})
        spent[owner] += now() - s

    t0 = now()
    with tr.span("workload"):
        for p in PROPS:
            op(f"membership:{p.value}", p, "preserver.membership_bitmap",
               lambda p=p: membership_bitmap(6, p), prop=p.value)
        op("exhaustive:sum:4", GraphProperty.SUM, "preserver.search.exhaustive",
           lambda: search_strong_preservers(4, GraphProperty.SUM, "exhaustive"), n=4)
        op("exhaustive:product:5", GraphProperty.PRODUCT, "preserver.search.exhaustive",
           lambda: search_strong_preservers(5, GraphProperty.PRODUCT, "exhaustive"), n=5)
        for p in PROPS:
            op(f"vertex-only:{p.value}:5", p, "preserver.search.vertex_only",
               lambda p=p: search_strong_preservers(5, p, "vertex-only"), prop=p.value)
        for i, (lin, p) in enumerate(operators):
            op(f"strongly:{i}", p, "preserver.strongly_preserves",
               lambda lin=lin, p=p: strongly_preserves(lin, p), i=i)
    wall = (now() - t0) / 1e9
    lat = [spent[p] / 1e6 for p in PROPS]
    for a in answers:
        r = a.pop("result", None)
        if r is None:
            continue
        if isinstance(r, int):
            a["members"] = r.bit_count()
            a["sha256"] = hashlib.sha256(r.to_bytes((r.bit_length() + 7) // 8, "little")).hexdigest()
        elif hasattr(r, "candidates_checked"):
            a["candidates"] = r.candidates_checked
            a["survivors"] = [[im.edges for im in o.images] for o in r.operators]
        else:
            a["holds"] = r.strongly_preserves
            a["counterexample"] = None if r.counterexample is None else r.counterexample.edges
    return wall, lat, answers, {}


SAMPLE_SHOWN = 100  # failures per property sent to the independent checker


def sample_summary(report, prop: GraphProperty) -> dict:
    """Counts, digest, and has_property re-verification of every counterexample."""
    unconfirmed = 0
    for f in report.failures:
        g = f.counterexample
        img = 0
        for k in range(15):
            if g.edges >> k & 1:
                img |= 1 << f.edge_map[k]
        if has_property(g, prop) == has_property(Graph(6, img), prop):
            unconfirmed += 1
    return {
        "candidates": report.candidates_checked,
        "discarded": report.discarded_vertex_induced,
        "survivors": len(report.operators),
        "failures": len(report.failures),
        "unconfirmed": unconfirmed,
        "digest": report_digest(report),
        "shown": [[f.index, list(f.edge_map), f.counterexample.edges]
                  for f in report.failures[:SAMPLE_SHOWN]],
    }


def run_preserve_sample(req: dict, tr) -> tuple:
    seed, count = req["seed"], req["inputs"]["count"]
    lat = []
    reports = []
    probes = {}
    t0 = now()
    with tr.span("workload"):
        for p in PROPS:
            if req["trace"]:
                # Build the table on its own, so its cost lands on the
                # membership layer; untraced runs build it inside the search.
                with tr.span("preserver.membership_bitmap", prop=p.value):
                    table = membership_bitmap(6, p)
                probes[f"members:{p.value}"] = table.bit_count()
            s = now()
            try:
                with tr.span("preserver.search.sample", prop=p.value):
                    reports.append(search_strong_preservers(6, p, "sample", count=count, seed=seed))
            except Exception as exc:
                reports.append(repr(exc))
            lat.append((now() - s) / 1e6)
    wall = (now() - t0) / 1e9
    answers = []
    for p, r in zip(PROPS, reports):
        if isinstance(r, str):
            answers.append({"op": f"sample:{p.value}", "error": r})
        else:
            answers.append(dict(sample_summary(r, p), op=f"sample:{p.value}"))
    if req["trace"]:
        # The same searches split over two processes must give the same report.
        for p in PROPS:
            with tr.span("preserver.search.sample.workers2", prop=p.value):
                r2 = search_strong_preservers(6, p, "sample", count=count, seed=seed, workers=2)
            probes[f"workers2:{p.value}"] = report_digest(r2)
    return wall, lat, answers, probes


WORKLOADS = {
    "decide": run_decide,
    "survey": run_survey,
    "preserve-exact": run_preserve_exact,
    "preserve-sample": run_preserve_sample,
}


def main() -> int:
    req = json.load(sys.stdin)
    if not os.path.realpath(cordia.__file__).startswith(os.path.realpath(ROOT) + os.sep):
        print(f"cordia imported from {cordia.__file__}, not from the checkout", file=sys.stderr)
        return 2
    tr = Tracer() if req["trace"] else NoTracer()
    wall, lat, answers, probes = WORKLOADS[req["workload"]](req, tr)
    json.dump({
        "wall_s": wall,
        "lat_ms": lat,
        "answers": answers,
        "probes": probes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tr.spans,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
