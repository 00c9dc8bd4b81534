"""Linear operators on the semimodule of graphs with a fixed vertex set.

An operator is stored by its images of the single-edge graphs; linearity
makes that table the whole map: apply(op, G) is the union of the images of
G's edges, and the empty graph always maps to itself.  Strong preservation
of a graph class means membership of G and of apply(op, G) agree for every
graph, equivalently the operator preserves the class and its complement.

Verification works against precomputed membership tables over all 2^C(n,2)
graphs, which is why the strong-preservation checks stop at n = 6.  A table
is the truth table of a Boolean function of the C(n,2) edge variables, and
an edge bijection permutes those variables.  Tables are built from that view
too, with no decision per graph: ``membership_bitmap`` counts each label
set's probed edge class in every graph at once by bit-sliced addition of the
edge variables (Knuth, TAOCP 4A, 7.1.3), and combines the passing counts
with the edge-count levels and the support of each graph.  The exact paths
share one kernel:

- ``strongly_preserves`` applies a bijection's variable permutation to the
  whole table with one delta swap per transposition (Knuth, TAOCP 4A,
  7.1.3); the lowest set bit of ``table ^ permuted`` is the least graph, in
  ascending edge-bitset order, whose membership the operator changes.
  Operators that are not edge bijections get the full graph-by-graph scan,
  which finds the same least counterexample.
- Exhaustive search assigns the images of slots 0, 1, ... in order, trying
  targets in ascending order, and checks each graph as soon as its highest
  slot has an image, so survivors come out in lexicographic order and a
  partial map is dropped at the first graph it changes.
- Exact vertex-only search runs every vertex map through the table check.

Sample mode keeps its own scan, since nearly every sampled bijection fails
on one of the first graphs it checks.  A bijection keeps edge counts, so only
edge-count levels of mixed membership can show a mismatch: ``_scan_order``
lists their graphs level by level, non-members leading, and a failure records
the first mismatch in that order.  The draws depend on the seed and the
count, not on the property, so a process keeps its last set of edge maps
(``_sample_draws``) for the next search, and the failures of one search share
one ``Graph`` per distinct counterexample.  Every search runs in the calling
process: a scan costs less than starting a worker would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from math import factorial, isqrt
from typing import NamedTuple

from .errors import BudgetError
from .graphs import Graph, edge_index, edge_slots, incident_masks, iter_bits, pair_table
from .labeling import (
    GraphProperty,
    _decide_bits,
    _edge_masks,
    _friendly_label_bits,
    _lanes_counting,
    _passing,
    _sliced_sum,
)

EXHAUSTIVE_BIJECTION_BUDGET = 4_000_000
SURVIVOR_BUDGET = 100_000
MEMBERSHIP_VERTEX_LIMIT = 6
VERTEX_ONLY_LIMIT = 8
VERTEX_ONLY_SPOT_CHECKS = 32


@dataclass(frozen=True)
class LinearOperator:
    """Edge-image table; images[k] is the image of the k-th single-edge graph."""

    n: int
    images: tuple[Graph, ...]

    def __post_init__(self) -> None:
        if len(self.images) != edge_slots(self.n):
            raise ValueError(f"expected {edge_slots(self.n)} images for n={self.n}")
        for im in self.images:
            if im.n != self.n:
                raise ValueError("image vertex count differs from the operator's")


@dataclass(frozen=True)
class PreserverVerdict:
    strongly_preserves: bool
    counterexample: Graph | None


class SampleFailure(NamedTuple):
    index: int
    edge_map: tuple[int, ...]
    counterexample: Graph


@dataclass(frozen=True)
class SearchReport:
    n: int
    property: GraphProperty
    mode: str
    candidates_checked: int
    operators: tuple[LinearOperator, ...]
    discarded_vertex_induced: int = 0
    failures: tuple[SampleFailure, ...] = field(default=(), repr=False)


def _apply_bits(images_bits: list[int], g: int) -> int:
    out = 0
    while g:
        low = g & -g
        out |= images_bits[low.bit_length() - 1]
        g ^= low
    return out


def apply(op: LinearOperator, g: Graph) -> Graph:
    """Union of the edge images over g's edges; the empty graph maps to itself."""
    if g.n != op.n:
        raise ValueError(f"graph on {g.n} vertices fed to an operator on {op.n}")
    return Graph(op.n, _apply_bits([im.edges for im in op.images], g.edges))


def _operator_from_edge_map(n: int, pi: tuple[int, ...]) -> LinearOperator:
    return LinearOperator(n, tuple(Graph(n, 1 << t) for t in pi))


def _vertex_edge_map(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """The edge-slot permutation that the vertex permutation sigma induces."""
    n = len(sigma)
    return tuple(edge_index(n, sigma[i], sigma[j]) for i, j in pair_table(n))


def identity_operator(n: int) -> LinearOperator:
    return _operator_from_edge_map(n, tuple(range(edge_slots(n))))


def vertex_permutation_operator(perm: tuple[int, ...]) -> LinearOperator:
    """The operator induced by relabeling vertices through perm."""
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("perm is not a permutation of the vertex set")
    return _operator_from_edge_map(len(perm), _vertex_edge_map(tuple(perm)))


def _edge_bijection(op: LinearOperator) -> tuple[int, ...] | None:
    """The slot permutation op induces when its images are distinct single edges."""
    pi = []
    for im in op.images:
        if im.edge_count != 1:
            return None
        pi.append(im.edges.bit_length() - 1)
    return tuple(pi) if len(set(pi)) == len(pi) else None


def is_vertex_permutation(op: LinearOperator) -> tuple[int, ...] | None:
    """The inducing vertex permutation, or None.

    The images must be distinct single edges, and the common endpoint of each
    vertex's star images pins the permutation, which is then verified slot
    by slot.
    """
    pi = _edge_bijection(op)
    if pi is None:
        return None
    n = op.n
    pt = pair_table(n)
    targets = [pt[k] for k in pi]
    if n == 1:
        return (0,)
    if n == 2:
        return (0, 1)
    sigma = []
    for v in range(n):
        common: set[int] | None = None
        for k, (i, j) in enumerate(pt):
            if v == i or v == j:
                ends = set(targets[k])
                common = ends if common is None else common & ends
        if common is None or len(common) != 1:
            return None
        sigma.append(common.pop())
    if sorted(sigma) != list(range(n)) or _vertex_edge_map(tuple(sigma)) != pi:
        return None
    return tuple(sigma)


def is_nonsingular(op: LinearOperator) -> bool:
    """No single edge maps to the empty graph (by linearity, no graph does)."""
    return all(im.edges for im in op.images)


def is_injective(op: LinearOperator) -> bool:
    """True exactly when the images are distinct single edges.

    Each image of an injective op has an edge that no other image has: if
    images[k] lay inside the union of the others, the complete graph and the
    complete graph minus edge k would share an image.  Those C(n,2) private
    edges are distinct and fill all C(n,2) slots, so any second edge of an
    image would be private to another.  Distinct single edges permute the
    slots, which is injective."""
    return _edge_bijection(op) is not None


def is_surjective(op: LinearOperator) -> bool:
    """True exactly when the images are distinct single edges.

    A single-edge graph is the union of the images of some nonempty graph,
    so one of those images is that single edge.  A surjective op therefore
    hits all C(n,2) single-edge graphs with its C(n,2) images, so they are
    distinct single edges; and a slot permutation is onto."""
    return _edge_bijection(op) is not None


def compose(outer: LinearOperator, inner: LinearOperator) -> LinearOperator:
    """The operator applying inner first, then outer."""
    if outer.n != inner.n:
        raise ValueError("operators live on different vertex counts")
    return LinearOperator(outer.n, tuple(apply(outer, im) for im in inner.images))


def idempotent_power(op: LinearOperator) -> tuple[LinearOperator, int]:
    """(op^d, d) for the least d >= 1 with op^d idempotent; exists since the
    powers of any map on a finite set eventually cycle."""
    power = op
    d = 1
    while True:
        if compose(power, power) == power:
            return power, d
        power = compose(op, power)
        d += 1


# ---------------------------------------------------------------------------
# membership tables and strong preservation

@lru_cache(maxsize=None)
def _edge_variable(slots: int, k: int) -> int:
    """Truth table of edge variable k over the graphs g < 2^slots: blocks of
    2^k clear then 2^k set positions, exactly the g with bit k set."""
    width = 1 << k
    return ((1 << (1 << slots)) - 1) // ((1 << width) + 1) << width


@lru_cache(maxsize=None)
def _level_tables(slots: int) -> tuple[int, ...]:
    """Per edge count m = 0..slots, the truth table of the graphs with m edges,
    read off one bit-sliced sum of the edge variables."""
    planes = _sliced_sum(_edge_variable(slots, k) for k in range(slots))
    full = (1 << (1 << slots)) - 1
    return tuple(_lanes_counting(planes, 1 << m, full) for m in range(slots + 1))


@lru_cache(maxsize=None)
def membership_bitmap(n: int, prop: GraphProperty) -> int:
    """Bit g set iff Graph(n, g) satisfies prop; the edgeless graph is a non-member.

    Built from whole tables: a graph g with support S is a member when some
    friendly label set L of S puts a passing count of g's edges in the class
    prop probes (see labeling._passing).  For each L, a bit-sliced sum of
    that class's edge variables counts it in every graph at once; pass[L] is
    where the count passes at the graph's own edge count.  pass[L] does not
    depend on S, and L and its complement cut the same cross edges, so sum
    and orient23 build it once per complement pair.  The table is the OR
    over supports S of [support(g) = S] AND the OR of pass[L] over L."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > MEMBERSHIP_VERTEX_LIMIT:
        raise BudgetError(f"membership tables are kept only up to n={MEMBERSHIP_VERTEX_LIMIT}")
    slots = edge_slots(n)
    full = (1 << (1 << slots)) - 1
    var = [_edge_variable(slots, k) for k in range(slots)]
    # within[c]: the graphs whose edge count passes with c edges in the probed class.
    within = [0] * (slots + 1)
    for m, level in enumerate(_level_tables(slots)):
        for c in iter_bits(_passing(prop, m)):
            within[c] |= level
    product = prop is GraphProperty.PRODUCT
    everyone = (1 << n) - 1
    passes: dict[int, int] = {}

    def pass_table(labels: int) -> int:
        key = labels if product else min(labels, labels ^ everyone)
        table = passes.get(key)
        if table is None:
            cross, ones = _edge_masks(n, labels)
            planes = _sliced_sum(var[k] for k in iter_bits(ones if product else cross))
            table = 0
            for c, ok in enumerate(within):
                if ok:
                    table |= _lanes_counting(planes, 1 << c, full) & ok
            passes[key] = table
        return table

    cover = [0] * n
    for v, inc in enumerate(incident_masks(n)):
        for k in iter_bits(inc):
            cover[v] |= var[k]
    bitmap = 0
    for support in range(1 << n):
        if support.bit_count() < 2:
            continue  # the edgeless graph, and no graph has one vertex of support
        on = full
        for v in range(n):
            on &= cover[v] if support >> v & 1 else ~cover[v]
        friendly = 0
        for labels in _friendly_label_bits(support):
            friendly |= pass_table(labels)
        bitmap |= on & friendly
    return bitmap


@lru_cache(maxsize=None)
def _swap_mask(slots: int, i: int, j: int) -> int:
    """Truth-table positions g < 2^slots with bit i of g set and bit j clear."""
    return _edge_variable(slots, i) & ~_edge_variable(slots, j)


def _permute_table(table: int, pi: tuple[int, ...]) -> int:
    """The truth table g -> table[pi(g)], where pi(g) moves bit k of g to bit pi[k].

    pi is split as t_1 o t_2 o ... o t_r, each t a transposition (k v) with
    k < v, and t_1 is applied to the table first; swapping variables k and v
    is one delta swap over the positions with bit k set and bit v clear.
    """
    slots = len(pi)
    cur = list(pi)
    where = [0] * slots
    for x, v in enumerate(cur):
        where[v] = x
    for k in range(slots):
        v = cur[k]
        if v == k:
            continue
        delta = (1 << v) - (1 << k)
        x = ((table >> delta) ^ table) & _swap_mask(slots, k, v)
        table ^= x | (x << delta)
        # cur becomes (k v) o cur, which fixes 0..k.
        y = where[k]
        cur[y], where[v] = v, y
        cur[k], where[k] = k, k
    return table


def _table_counterexample(bm: int, pi: tuple[int, ...]) -> int | None:
    """Least graph g whose membership differs from its image's under the edge
    bijection pi, or None."""
    diff = bm ^ _permute_table(bm, pi)
    return (diff & -diff).bit_length() - 1 if diff else None


def strongly_preserves(op: LinearOperator, prop: GraphProperty) -> PreserverVerdict:
    """Exact check over all graphs; the counterexample, if any, is the least
    membership mismatch in ascending edge-bitset order.

    Edge bijections go through the truth-table kernel; every other operator
    is scanned graph by graph."""
    if op.n > MEMBERSHIP_VERTEX_LIMIT:
        raise BudgetError(f"strong preservation scan is capped at n={MEMBERSHIP_VERTEX_LIMIT}")
    bm = membership_bitmap(op.n, prop)
    pi = _edge_bijection(op)
    if pi is not None:
        g = _table_counterexample(bm, pi)
        return PreserverVerdict(g is None, None if g is None else Graph(op.n, g))
    images_bits = [im.edges for im in op.images]
    for g in range(1 << edge_slots(op.n)):
        img = _apply_bits(images_bits, g)
        if (bm >> g ^ bm >> img) & 1:
            return PreserverVerdict(False, Graph(op.n, g))
    return PreserverVerdict(True, None)


@lru_cache(maxsize=None)
def _scan_order(n: int, prop: GraphProperty) -> tuple[str, tuple[int, ...]]:
    """(flags, order) for sample mode: flags[g] is "1" iff graph g is a member,
    and order lists the graphs on the edge-count levels of mixed membership,
    level by level, non-members leading.  A bijection keeps edge counts, so
    no graph on a uniform level can change membership under one.  A level's
    members are bm & E_m over its table E_m from ``_level_tables``."""
    slots = edge_slots(n)
    bm = membership_bitmap(n, prop)
    flags = format(bm, f"0{1 << slots}b")[::-1]
    order: list[int] = []
    for level in _level_tables(slots):
        members = bm & level
        if members and members != level:
            order.extend(_set_positions(level ^ members))
            order.extend(_set_positions(members))
    return flags, tuple(order)


def _set_positions(table: int) -> list[int]:
    """Set bit positions of a truth table, ascending, found by str.find."""
    text = format(table, "b")[::-1]
    out = []
    g = text.find("1")
    while g >= 0:
        out.append(g)
        g = text.find("1", g + 1)
    return out


@lru_cache(maxsize=1)
def _sample_draws(slots: int, seed: int, count: int) -> tuple[tuple[int, ...], ...]:
    """Edge maps of sample indices 0..count-1.  Index i draws from its own
    stream, seeded "{seed}:{i}".  The maps do not depend on the property, so
    the last set is kept for the next search on the same slots, seed and
    count."""
    rng = random.Random()
    population = range(slots)
    draws = []
    for i in range(count):
        rng.seed(f"{seed}:{i}")
        draws.append(tuple(rng.sample(population, slots)))
    return tuple(draws)


@lru_cache(maxsize=None)
def _vertex_edge_maps(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Vertex permutation -> induced edge-slot permutation."""
    return {sigma: _vertex_edge_map(sigma) for sigma in permutations(range(n))}


@lru_cache(maxsize=None)
def _vertex_induced_set(n: int) -> frozenset[tuple[int, ...]]:
    return frozenset(_vertex_edge_maps(n).values())


def _too_many_survivors(n: int) -> BudgetError:
    return BudgetError(
        f"more than {SURVIVOR_BUDGET} strong preservers at n={n}; "
        "the class is too permissive for an exhaustive report"
    )


def _edge_count_determined(bm: int, slots: int) -> bool:
    """True when membership is constant on every edge-count level."""
    return all(bm & level in (0, level) for level in _level_tables(slots))


def _pruned_bijections(n: int, bm: int) -> list[tuple[int, ...]]:
    """Every edge bijection that strongly preserves bm, the membership table at
    n, in lexicographic order.

    Slots 0, 1, ... get their images in order, targets tried in ascending
    order.  Once slot j-1 has one, every graph whose highest slot is j-1 is
    fully mapped; its image is extended from the image of the graph without
    that slot and its membership compared.  A leaf is therefore a verified
    bijection, and a partial map dies at the first graph it changes.
    """
    slots = edge_slots(n)
    member = [bm >> g & 1 for g in range(1 << slots)]
    image = [0] * (1 << slots)
    used = [False] * slots
    pi: list[int] = []
    passing: list[tuple[int, ...]] = []

    def extend(j: int) -> None:
        if j == slots:
            passing.append(tuple(pi))
            if len(passing) > SURVIVOR_BUDGET:
                raise _too_many_survivors(n)
            return
        top = 1 << j
        for t in range(slots):
            if used[t]:
                continue
            bit = 1 << t
            for g in range(top):
                img = image[g] | bit
                if member[img] != member[top | g]:
                    break
                image[top | g] = img
            else:
                used[t] = True
                pi.append(t)
                extend(j + 1)
                pi.pop()
                used[t] = False

    extend(0)
    return passing


def _search_exhaustive(n: int, prop: GraphProperty) -> SearchReport:
    slots = edge_slots(n)
    total = factorial(slots)
    if total > EXHAUSTIVE_BIJECTION_BUDGET:
        raise BudgetError(f"{total} edge bijections at n={n}; exhaustive mode stops at n=5")
    bm = membership_bitmap(n, prop)
    if _edge_count_determined(bm, slots):
        # A bijection keeps edge counts, so every one of them survives.
        if total > SURVIVOR_BUDGET:
            raise BudgetError(
                f"membership at n={n} depends only on the edge count, so all "
                f"{slots}! = {total} edge bijections are strong preservers, more than "
                f"{SURVIVOR_BUDGET}; the class is too permissive for an exhaustive report"
            )
        passing = list(permutations(range(slots)))
    else:
        passing = _pruned_bijections(n, bm)
    ops = tuple(_operator_from_edge_map(n, pi) for pi in passing)
    return SearchReport(n, prop, "exhaustive", total, ops)


def _search_sampled(n: int, prop: GraphProperty, count: int, seed: int) -> SearchReport:
    if n > MEMBERSHIP_VERTEX_LIMIT:
        raise BudgetError(f"sampled search is capped at n={MEMBERSHIP_VERTEX_LIMIT}")
    if count < 1:
        raise ValueError("sample count must be positive")
    flags, order = _scan_order(n, prop)
    vset = _vertex_induced_set(n)
    discarded = 0
    passing = []
    found = []
    for i, pi in enumerate(_sample_draws(edge_slots(n), seed, count)):
        if pi in vset:
            discarded += 1
            continue
        images = [1 << t for t in pi]
        for g in order:
            if flags[g] != flags[_apply_bits(images, g)]:
                found.append((i, pi, g))
                break
        else:
            passing.append(pi)
    graphs = {g: Graph(n, g) for g in {g for _, _, g in found}}
    failures = tuple(SampleFailure(i, pi, graphs[g]) for i, pi, g in found)
    ops = tuple(_operator_from_edge_map(n, pi) for pi in passing)
    return SearchReport(n, prop, "sample", count, ops, discarded, failures)


def confirmed_failures(report: SearchReport) -> int:
    """How many of report's recorded failures the membership table confirms:
    the counterexample and its image under the failure's edge map differ in
    membership.  Needs the table, so n <= MEMBERSHIP_VERTEX_LIMIT."""
    bm = membership_bitmap(report.n, report.property)
    confirmed = 0
    for failure in report.failures:
        g = failure.counterexample.edges
        img = _apply_bits([1 << t for t in failure.edge_map], g)
        confirmed += (bm >> g ^ bm >> img) & 1
    return confirmed


def _search_vertex_only(n: int, prop: GraphProperty, seed: int) -> SearchReport:
    if n > VERTEX_ONLY_LIMIT:
        raise BudgetError(f"vertex-only mode is capped at n={VERTEX_ONLY_LIMIT}")
    maps = _vertex_edge_maps(n)
    total = len(maps)
    failures = []
    if n <= MEMBERSHIP_VERTEX_LIMIT:
        bm = membership_bitmap(n, prop)
        passing = []
        for pi in maps.values():
            cex = _table_counterexample(bm, pi)
            if cex is None:
                passing.append(pi)
            else:
                failures.append(SampleFailure(-1, pi, Graph(n, cex)))
        ops = tuple(_operator_from_edge_map(n, pi) for pi in passing)
        return SearchReport(n, prop, "vertex-only", total, ops, failures=tuple(failures))
    # Beyond the membership-table limit the permutations are spot-checked on
    # seeded random graphs; operators are not materialized at this size.
    samples = []
    rng = random.Random(f"{seed}:graphs")
    slots = edge_slots(n)
    seen = set()
    while len(samples) < VERTEX_ONLY_SPOT_CHECKS:
        g = rng.getrandbits(slots)
        if g and g not in seen:
            seen.add(g)
            samples.append(g)
    member = {g: _decide_bits(n, g, prop) for g in samples}
    for pi in maps.values():
        images = [1 << t for t in pi]
        for g in samples:
            if _decide_bits(n, _apply_bits(images, g), prop) != member[g]:
                failures.append(SampleFailure(-1, pi, Graph(n, g)))
                break
    return SearchReport(n, prop, "vertex-only", total, (), failures=tuple(failures))


def search_strong_preservers(
    n: int,
    prop: GraphProperty,
    mode: str,
    count: int | None = None,
    seed: int = 0,
    workers: int = 1,
) -> SearchReport:
    """Hunt for strong preservers of a labeling property.

    Modes:

    - "exhaustive" (n <= 5) settles all C(n,2)! edge bijections, reported as
      candidates_checked, by a prefix-pruned search; survivors come back in
      lexicographic order of their slot maps.  When membership depends only
      on the edge count every bijection survives, so the answer is all of
      them, or a BudgetError at once if they exceed SURVIVOR_BUDGET.
    - "vertex-only" verifies all n! vertex permutations: exactly against the
      membership table up to n = 6, by seeded graph spot checks
      (VERTEX_ONLY_SPOT_CHECKS graphs) for n = 7, 8.  Every property
      here is isomorphism-invariant, so a vertex map always preserves it:
      the spot checks can fail only if a decider is not invariant, and
      test that rather than the preserver theorem.
    - "sample" draws `count` seeded random edge bijections, discards the
      vertex-induced ones, and records for every failure the first mismatch
      in the scan order of ``_scan_order``, which need not be the least one.
      The scan covers only the edge-count levels of mixed membership, the
      only ones a bijection can change.  The draws do not depend on the
      property, so a process keeps the last set for the next search with
      the same n, seed and count.

    Only sample mode reads `count`; n < 0 and a negative count are usage
    errors (ValueError) in every mode.  Every mode runs in the calling
    process.  `workers` is checked (at least 1) and has no effect; it stays
    only because the traced sample runs of `perfbench/worker.py` pass
    workers=2, and goes at the next change to the benchmark.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if mode == "sample":
        if count is None:
            raise ValueError("sample mode needs a count")
        return _search_sampled(n, prop, count, seed)
    if count is not None and count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if mode == "exhaustive":
        return _search_exhaustive(n, prop)
    if mode == "vertex-only":
        return _search_vertex_only(n, prop, seed)
    raise ValueError(f"unknown search mode {mode!r}")


# ---------------------------------------------------------------------------
# text form of an operator table

def operator_table(op: LinearOperator) -> str:
    """Line k: space-separated edge indices of images[k], or '-' for the empty graph."""
    lines = []
    for im in op.images:
        lines.append(" ".join(str(k) for k in iter_bits(im.edges)) if im.edges else "-")
    return "\n".join(lines) + "\n"


def parse_operator_table(text: str) -> LinearOperator:
    rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
    count = len(rows)
    n = (1 + isqrt(1 + 8 * count)) // 2
    if edge_slots(n) != count:
        raise ValueError(f"{count} lines is not C(n, 2) for any n")
    images = []
    for row in rows:
        bits = 0
        if row != "-":
            for tok in row.split():
                k = int(tok)
                if not 0 <= k < count:
                    raise ValueError(f"edge index {k} out of range for n={n}")
                bits |= 1 << k
        images.append(Graph(n, bits))
    return LinearOperator(n, tuple(images))
