"""Seeded workload inputs, built without importing cordia.

Graphs are (n, edge list) pairs here; the program receives them only as
graph6 text or as edge-slot maps.  Edge slot k is the k-th pair (i, j),
i < j, in lexicographic order, which is cordia's documented bitset layout.
"""

from __future__ import annotations

import random
from itertools import permutations

DECIDE_GRAPHS = 2000
DECIDE_VERTICES = (4, 16)
DENSITY_BANDS = 8
SAMPLE_COUNT = 20_000
STRONG_VERTEX_OPS = 6
STRONG_OTHER_OPS = 6
PROPS = ("sum", "product", "orient23")


def pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def to_graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 text: chr(n + 63), then the upper triangle column by column, six bits a byte."""
    present = set(edges)
    stream = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    stream += [0] * (-len(stream) % 6)
    out = [chr(n + 63)]
    for at in range(0, len(stream), 6):
        val = 0
        for bit in stream[at:at + 6]:
            val = val << 1 | bit
        out.append(chr(val + 63))
    return "".join(out)


def decide_family() -> list[tuple[int, list[tuple[int, int]]]]:
    """Graphs on 4..16 vertices with edge densities from 0.03 to 0.97.

    Sparse graphs leave many isolated vertices (many distinct supports, each
    with a cold labeling table); dense ones span all n vertices (one table per
    n).  Every (n, density band) cell gets the same share of the graphs.
    """
    rng = random.Random("decide-family")
    lo, hi = DECIDE_VERTICES
    sizes = hi - lo + 1
    out = []
    for i in range(DECIDE_GRAPHS):
        n = lo + i % sizes
        band = (i // sizes) % DENSITY_BANDS
        density = 0.03 + 0.94 * (band + rng.random()) / DENSITY_BANDS
        edges = [e for e in pairs(n) if rng.random() < density] or [rng.choice(pairs(n))]
        out.append((n, edges))
    rng.shuffle(out)
    return out


def decide_graphs(seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """The decide family with the vertices of each n relabeled by a seeded permutation.

    Which graphs share a support, and so which calls build a cold table, is
    the same for every seed; the seed changes the labels, hence the graph6
    text, the witnesses and the order in which labelings are met.  A family
    drawn afresh per seed made op_p99_ms unsteady across seeds: the number of
    cold tables at supports 13 to 16 varied with the family and set the 99th
    percentile.
    """
    rng = random.Random(f"decide:{seed}")
    perm = {n: rng.sample(range(n), n) for n in range(DECIDE_VERTICES[0], DECIDE_VERTICES[1] + 1)}
    return [
        (n, sorted(tuple(sorted((perm[n][i], perm[n][j]))) for i, j in edges))
        for n, edges in decide_family()
    ]


def vertex_edge_map(perm: tuple[int, ...]) -> list[int]:
    index = {e: k for k, e in enumerate(pairs(len(perm)))}
    return [index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs(len(perm))]


def vertex_induced(n: int) -> set[tuple[int, ...]]:
    """Edge maps of all n! vertex permutations."""
    return {tuple(vertex_edge_map(p)) for p in permutations(range(n))}


def strong_operators(seed: int) -> list[tuple[list[int], str, bool]]:
    """n=6 edge bijections for strongly_preserves: (edge map, property, vertex-induced).

    Half are induced by vertex permutations (each scans all 2^15 graphs);
    half are other bijections, which fail with a counterexample.
    """
    rng = random.Random(f"preserve-exact:{seed}")
    induced = vertex_induced(6)
    ops = []
    for i in range(STRONG_VERTEX_OPS):
        perm = tuple(rng.sample(range(6), 6))
        ops.append((vertex_edge_map(perm), PROPS[i % 3], True))
    while len(ops) < STRONG_VERTEX_OPS + STRONG_OTHER_OPS:
        pi = rng.sample(range(15), 15)
        if tuple(pi) not in induced:
            ops.append((pi, PROPS[len(ops) % 3], False))
    return ops


def make_inputs(workload: str, seed: int) -> dict:
    """What the benchmark sends to the worker; the checker keeps the same object."""
    if workload == "decide":
        graphs = decide_graphs(seed)
        return {"graphs": graphs, "graph6": [to_graph6(n, e) for n, e in graphs]}
    if workload == "preserve-exact":
        return {"operators": strong_operators(seed)}
    if workload == "preserve-sample":
        return {"count": SAMPLE_COUNT}
    return {}
