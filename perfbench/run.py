#!/usr/bin/env python3
"""cordia benchmark: one workload, a closed loop of fresh-interpreter iterations.

Run from the root of a cordia checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Each iteration starts ``perfbench/worker.py`` in a new interpreter (one
caller, one worker process at a time), so every run pays cordia's cold
caches as a CLI invocation does.  Iterations repeat until ``--seconds`` is
used up; end-to-end metrics are medians over the untraced iterations.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics from the spans of the traced ones.  Every answer is checked
by ``check.py`` outside the timed region.  The last stdout line is one JSON
object: correct, attempted, failed and the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
from inputs import PROPS, make_inputs  # noqa: E402

WORKLOADS = ("decide", "survey", "preserve-exact", "preserve-sample")
SETUP_PROBES = 7
RUN_LIMIT_S = 170  # every iteration is killed past this point of the run
IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import {}"
SIZE_BINS = ((2, 8), (9, 12), (13, 16))


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q percent of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def time_import(module: str, src: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", IMPORT.format(module), src], check=True)
    return time.perf_counter() - start


def expected_ops(workload: str, inputs: dict) -> int:
    if workload == "decide":
        return len(inputs["graph6"])
    if workload == "preserve-exact":
        return len(check.EXPECTED["preserve-exact"]) + len(inputs["operators"])
    if workload == "preserve-sample":
        return len(PROPS)
    return len(check.EXPECTED["survey"])


def run_worker(root: str, request: dict, timeout: float) -> tuple[dict | None, str]:
    proc = subprocess.Popen(
        [sys.executable, "-I", os.path.join(HERE, "worker.py"), root],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(request), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"worker killed after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {err.strip()[-500:]}"
    return json.loads(out), ""


# ---------------------------------------------------------------------------
# per-layer metrics from one traced iteration

def self_times(spans: list) -> list[float]:
    """Seconds of each span not covered by its child spans."""
    own = [(end - start) / 1e9 for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= (end - start) / 1e9
    return own


def level_subsets(n: int, m: int) -> int:
    """Edge subsets one level walk visits: m edges on n vertices, taken through
    the complement above half the slots."""
    slots = n * (n - 1) // 2
    return comb(slots, min(m, slots - m))


def subsets_walked(n: int, answer_level: int) -> int:
    """Edge subsets the downward level walk visits to reach answer_level on n vertices."""
    return sum(level_subsets(n, m) for m in range(answer_level, n * (n - 1) // 2 + 1))


def layer_metrics(workload: str, inputs: dict, result: dict) -> dict:
    spans = result["spans"]
    busy = self_times(spans)
    answers = {a.get("op", i): a for i, a in enumerate(result["answers"])}
    out: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        out[name] = out.get(name, 0) + value

    if workload == "decide":
        seen = set()
        for (name, _, _, _, tags), t in zip(spans, busy):
            if name.startswith("graph6."):
                add(f"{name}.busy_s", t)
                add("graph6.calls", 1)
            if name != "labeling.check_property":
                continue
            n, edges = inputs["graphs"][tags["i"]]
            support = check.support_mask(tuple(e) for e in edges)
            first = (n, support) not in seen
            seen.add((n, support))
            kind = "first_support" if first else "repeat_support"
            size = support.bit_count()
            lo, hi = next(b for b in SIZE_BINS if b[0] <= size <= b[1])
            for bucket in (tags["prop"], kind, f"s{lo}-{hi}"):
                add(f"labeling.check_property.{bucket}.busy_s", t)
            add(f"labeling.check_property.{kind}.calls", 1)
            add(f"labeling.check_property.s{lo}-{hi}.calls", 1)
        out["labeling.distinct_supports"] = len(seen)
        for ans in answers.values():
            for prop, (holds, _, _, _, examined) in zip(PROPS, ans["verdicts"]):
                add(f"labeling.check_property.{prop}.labelings_examined", examined)
                add(f"labeling.check_property.{prop}.holds", int(holds))
    elif workload == "survey":
        for (name, _, _, _, tags), t in zip(spans, busy):
            if name == "extremal.empirical_max_edges":
                add(f"{name}.{tags['prop']}.busy_s", t)
                add(f"{name}.{tags['prop']}.subsets_visited",
                    subsets_walked(tags["n"], answers[f"empirical:{tags['prop']}:{tags['n']}"]["max"]))
                if (tags["prop"], tags["n"]) == ("product", 7):
                    out["roadmap.empirical_max_edges_product_n7_s"] = t
            elif name == "graphs.enumerate_graphs":
                c = tags["c"]
                add("graphs.enumerate_graphs.busy_s", t)
                add("graphs.canonical_keys", level_subsets(c + 1, c))
                add("graphs.classes", result["probes"][f"enumerate_classes_c{c}"])
                add("roadmap.minimal_noncordial_sum_cap6_s", t)
            elif name == "extremal.minimal_noncordial":
                add(f"{name}.{tags['prop']}.busy_s", t)
                add(f"{name}.{tags['prop']}.failing_classes", len(answers[f"minimal:{tags['prop']}"]["rows"]))
                if tags["prop"] == "sum":
                    add("roadmap.minimal_noncordial_sum_cap6_s", t)
            elif name == "graphs.canonical_form":
                out[f"roadmap.canonical_form_s{tags['support']}_s"] = t
    elif workload == "preserve-exact":
        for (name, _, _, _, tags), t in zip(spans, busy):
            if name == "preserver.membership_bitmap":
                add(f"{name}.{tags['prop']}.busy_s", t)
                add(f"{name}.{tags['prop']}.members", answers[f"membership:{tags['prop']}"]["members"])
            elif name == "preserver.search.exhaustive":
                ans = answers[f"exhaustive:{'sum:4' if tags['n'] == 4 else 'product:5'}"]
                add(f"{name}.busy_s", t)
                add(f"{name}.candidates", ans["candidates"])
                add(f"{name}.survivors", len(ans["survivors"]))
                if tags["n"] == 5:
                    out["roadmap.exhaustive_product_n5_s"] = t
            elif name == "preserver.search.vertex_only":
                add(f"{name}.busy_s", t)
                add(f"{name}.survivors", len(answers[f"vertex-only:{tags['prop']}:5"]["survivors"]))
            elif name == "preserver.strongly_preserves":
                ans = answers[f"strongly:{tags['i']}"]
                add(f"{name}.busy_s", t)
                add(f"{name}.calls", 1)
                add(f"{name}.graphs_scanned", 1 << 15 if ans["holds"] else ans["counterexample"] + 1)
    elif workload == "preserve-sample":
        for (name, _, _, _, tags), t in zip(spans, busy):
            if name == "preserver.membership_bitmap":
                add(f"{name}.{tags['prop']}.busy_s", t)
            elif name == "preserver.search.sample":
                ans = answers[f"sample:{tags['prop']}"]
                add(f"{name}.busy_s", t)
                for key in ("candidates", "discarded", "failures"):
                    add(f"{name}.{key}", ans[key])
                if tags["prop"] == "orient23":
                    out["roadmap.sample_orient23_n6_per10k_s"] = t * 10_000 / ans["candidates"]
            elif name == "preserver.search.sample.workers2":
                add(f"{name}.busy_s", t)
        for prop in PROPS:
            # members of the table the search built, read from a public call
            out[f"preserver.membership_bitmap.{prop}.members"] = result["probes"][f"members:{prop}"]
    out["trace.spans"] = len(spans)
    return out


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    run_start = time.perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cordia", "__init__.py")):
        print(f"no cordia sources under {src}; run from the root of a cordia checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    trace = bool(args.trace)
    problems = [f"self-test: {p}" for p in check.self_test()]

    # Set-up: a fresh interpreter importing cordia.  The first import writes
    # the bytecode cache and is not counted.
    time_import("cordia", src)
    setup = [time_import("cordia", src) for _ in range(SETUP_PROBES)]
    numpy_import = [time_import("numpy", src) for _ in range(SETUP_PROBES)] if trace else []

    inputs = make_inputs(args.workload, args.seed)
    n_ops = expected_ops(args.workload, inputs)
    reference = None
    plain, traced = [], []
    attempted = failed = 0
    loop_start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - loop_start
        if plain and (not trace or traced) and elapsed + last > args.seconds:
            break
        tracing = trace and len(traced) < len(plain)
        request = {"workload": args.workload, "seed": args.seed, "trace": tracing,
                   "probes": tracing and not traced, "inputs": inputs}
        started = time.perf_counter()
        result, error = run_worker(root, request, RUN_LIMIT_S - (started - run_start))
        last = time.perf_counter() - started
        attempted += n_ops
        if result is None:
            failed += n_ops
            problems.append(error)
            break
        if reference is None:
            reference = result["answers"]
            reference_bad = check.CHECKS[args.workload](inputs, reference)
            problems.extend(f"op {i}: {msg}" for i, msg in reference_bad[:20])
            differs = []
        else:
            # Same inputs, so every answer and work count must repeat exactly;
            # a repeat of a wrong first answer is wrong again.
            differs = [(i, "answer differs from the first iteration")
                       for i, (a, b) in enumerate(zip(result["answers"], reference)) if a != b]
            if len(result["answers"]) != len(reference):
                differs.append((-1, "answer count differs from the first iteration"))
            problems.extend(f"op {i}: {msg}" for i, msg in differs[:20])
        bad = reference_bad + differs
        failed += n_ops if any(i < 0 for i, _ in bad) else len({i for i, _ in bad})
        if tracing:
            problems.extend(check.check_probes(args.workload, result["answers"], result["probes"]))
        # Layer metrics read answers, so they come only from fully correct iterations.
        result["correct"] = not bad
        (traced if tracing else plain).append(result)
        if time.perf_counter() - run_start > RUN_LIMIT_S - 2 * last:
            break

    metrics: dict[str, float] = {}
    lat = [r["lat_ms"] for r in plain]
    op_samples = len(lat[0]) if lat else 0
    metrics["wall_s"] = median([r["wall_s"] for r in plain])
    metrics["setup_s"] = median(setup)
    metrics["peak_rss_mb"] = median([r["maxrss_kb"] / 1024 for r in plain])
    metrics["op_p50_ms"] = median([percentile(v, 50) for v in lat])
    metrics["op_p99_ms"] = median([percentile(v, 99) for v in lat])
    layers = {m["name"]: 0 for m in spec["per_layer"]}
    if trace:
        per_iter = [layer_metrics(args.workload, inputs, r) for r in traced if r["correct"]]
        for name in set().union(*per_iter):
            if name not in layers:
                raise KeyError(f"layer metric {name} is not listed in BENCHMARK.json")
            # median_low returns one of the values, so a repeated count stays an integer
            layers[name] = statistics.median_low([m[name] for m in per_iter if name in m])
        layers["setup.numpy_import_s"] = median(numpy_import)
        layers["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - metrics["wall_s"]
        layers["op_samples"] = op_samples
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with open(os.path.join(HERE, "out", f"trace-{args.workload}.json"), "w") as fh:
            json.dump([{"workload": args.workload, "seed": args.seed, "iteration": k,
                        "spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "tags": s[4]}
                                  for s in r["spans"]]}
                       for k, r in enumerate(traced)], fh)

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    source = layers if trace else metrics
    report = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in listed}
    for msg in problems[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced + {len(traced)} traced iterations, "
          f"{op_samples} ops each, error_rate {failed / max(attempted, 1):.4g} "
          f"({failed}/{attempted})", file=sys.stderr)
    for name, value in (metrics | (layers if trace else {})).items():
        print(f"  {name:55s} {value}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
