#!/usr/bin/env python3
"""Run the strong-preserver searches that support the vertex-permutation theorem.

Four desk-scale runs, printed as summary lines:

  1. n=4 sum, exhaustive over all 720 edge bijections;
  2. n=4 product, exhaustive (the open-question probe: membership there is
     decided by the edge count alone, so every bijection survives);
  3. n=5 product, exhaustive over all 10! edge bijections (a prefix-pruned
     search settles them in a fraction of a second);
  4. n=6 orientability: all 720 vertex permutations verified exactly, then a
     seeded sample of random non-vertex bijections, every failure re-verified.

Example:
    python3 scripts/preserver_theorem_runs.py --sample-count 5000 --seed 0
"""

import argparse
import sys
import time

from cordia import GraphProperty, search_strong_preservers
from cordia.preserver import confirmed_failures, is_vertex_permutation


def summarize(label, report, start):
    vertex = sum(1 for op in report.operators if is_vertex_permutation(op) is not None)
    print(
        f"{label}: checked={report.candidates_checked} survivors={len(report.operators)} "
        f"vertex-induced={vertex} failures-recorded={len(report.failures)} "
        f"[{time.perf_counter() - start:.1f}s]"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample-count", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    t = time.perf_counter()
    report = search_strong_preservers(4, GraphProperty.SUM, "exhaustive")
    summarize("n=4 sum       exhaustive", report, t)

    t = time.perf_counter()
    report = search_strong_preservers(4, GraphProperty.PRODUCT, "exhaustive")
    summarize("n=4 product   exhaustive", report, t)

    t = time.perf_counter()
    report = search_strong_preservers(5, GraphProperty.PRODUCT, "exhaustive")
    summarize("n=5 product   exhaustive", report, t)

    t = time.perf_counter()
    report = search_strong_preservers(6, GraphProperty.ORIENT23, "vertex-only")
    summarize("n=6 orient23  vertex-only", report, t)

    t = time.perf_counter()
    sample = search_strong_preservers(
        6, GraphProperty.ORIENT23, "sample", count=args.sample_count, seed=args.seed
    )
    summarize("n=6 orient23  sample     ", sample, t)

    confirmed = confirmed_failures(sample)
    print(
        f"counterexample re-verification: {confirmed} of "
        f"{len(sample.failures)} confirmed against the membership table"
    )
    return 0 if confirmed == len(sample.failures) else 1


if __name__ == "__main__":
    sys.exit(main())
