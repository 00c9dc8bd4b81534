"""Linear operators on the semimodule of graphs with a fixed vertex set.

An operator is stored by its images of the single-edge graphs; linearity
makes that table the whole map: apply(op, G) is the union of the images of
G's edges, and the empty graph always maps to itself.  Strong preservation
of a graph class means membership of G and of apply(op, G) agree for every
graph, equivalently the operator preserves the class and its complement.

Every check and search mode reads the membership tables of
``labeling.membership_bitmap``, which alone refuses n > 6.  A table is the
truth table of a Boolean function of the C(n,2) edge variables, and an edge
bijection permutes those variables.  Graph-by-graph scans read a table through one text view,
``_flags``, and map graphs through slot maps with ``graphs._map_slots``.
The exact paths share one step, ``_assign``: it gives one slot its target
and swaps two variables of the table with one delta swap (Knuth, TAOCP 4A,
7.1.3), so the table stays the membership table composed with the map.

- ``strongly_preserves`` runs the step over a bijection's slots; the lowest
  set bit of ``bm ^ table`` is the least graph, in ascending edge-bitset
  order, whose membership the operator changes.  Operators that are not
  edge bijections get the full graph-by-graph scan, which finds the same
  least counterexample.
- Exhaustive search is a depth-first search over the step: slots 0, 1, ...
  take their targets in ascending order, and a partial map goes deeper only
  while the block of graphs whose highest slot it just mapped keeps its
  membership, so survivors come out in lexicographic order.  When no
  edge-count level is mixed (``_mixed_levels``) all survive; too many are
  refused first.
- Vertex-only search runs every vertex map through the table check.

Sample mode keeps its own scan, since nearly every sampled bijection fails
on one of the first graphs it checks.  A bijection keeps edge counts, so only
edge-count levels of mixed membership can show a mismatch: ``_SampleScan``
lists each one's graphs with their slots, non-members leading, and builds a
level the first time a draw reaches it.  A failure records the first
mismatch in that order.  Membership is isomorphism-invariant, so a vertex
map passes every level; vertex maps are looked for only among the
survivors, and their slot maps are built only when something survives.  The
draws depend on the seed and the count, not on the property, so a process
keeps its last set of edge maps (``_sample_draws``) for the next search.
Those are the maps ``random.Random(f"{seed}:{i}").sample`` gives, read off
one block of twister outputs per index, so they cost about what the seedings
do.  A count past ``SAMPLE_COUNT_BUDGET`` is refused before any draw is
made.  A search's failures share one ``Graph`` per distinct counterexample;
``confirmed_failures`` re-decides them without the table.  Every search runs
in the calling process: a scan costs less than starting a worker would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from math import factorial, isqrt
from typing import NamedTuple

from .errors import BudgetError
from .graphs import (
    Graph,
    _edge_variable,
    _map_slots,
    _vertex_edge_map,
    edge_index,
    edge_slots,
    iter_bits,
    pair_table,
)
from .labeling import GraphProperty, _decide_bits, _level_tables, _require_property, membership_bitmap

EXHAUSTIVE_BIJECTION_BUDGET = 4_000_000
SURVIVOR_BUDGET = 100_000
SAMPLE_COUNT_BUDGET = 1_000_000


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
    """Whether an operator strongly preserves a property, and if not the
    least graph, in ascending edge-bitset order, whose membership it changes."""

    strongly_preserves: bool
    counterexample: Graph | None


class SampleFailure(NamedTuple):
    """A rejected edge bijection: its sample index (-1 in vertex-only mode),
    its slot map, and the graph whose membership it changes."""

    index: int
    edge_map: tuple[int, ...]
    counterexample: Graph


@dataclass(frozen=True)
class SearchReport:
    """The outcome of search_strong_preservers.

    candidates_checked counts the edge bijections the mode settles: all
    C(n,2)! in exhaustive mode, the n! vertex maps in vertex-only mode, and
    the draws in sample mode.  operators holds every survivor, except that
    sample mode leaves out the draws that are vertex maps and counts them
    in discarded_vertex_induced, which is 0 in the other modes.  failures
    holds one SampleFailure per rejected draw in sample mode and per
    failing vertex map in vertex-only mode; exhaustive mode records none."""

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


def identity_operator(n: int) -> LinearOperator:
    """The operator mapping every single-edge graph to itself."""
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

    The images must be distinct single edges.  For n >= 3 a vertex map sends
    v to the common endpoint of the images of two edges at v (Whitney's star
    argument, 1932); the candidate is then verified slot by slot.  For n <= 2
    every edge bijection is the identity's."""
    pi = _edge_bijection(op)
    if pi is None:
        return None
    n = op.n
    if n <= 2:
        return tuple(range(n))
    pt = pair_table(n)
    sigma = []
    for v in range(n):
        a, b = [u for u in range(3) if u != v][:2]
        common = set(pt[pi[edge_index(n, v, a)]]) & set(pt[pi[edge_index(n, v, b)]])
        if len(common) != 1:
            return None
        sigma.append(common.pop())
    if sorted(sigma) != list(range(n)) or _vertex_edge_map(tuple(sigma)) != pi:
        return None
    return tuple(sigma)


def is_nonsingular(op: LinearOperator) -> bool:
    """No single edge maps to the empty graph (by linearity, no graph does)."""
    return all(im.edges for im in op.images)


def is_injective(op: LinearOperator) -> bool:
    """True exactly when the images are distinct single edges; the same
    criterion decides surjectivity, so op is injective iff it is surjective.

    Each image of an injective op has an edge that no other image has: if
    images[k] lay inside the union of the others, the complete graph and the
    complete graph minus edge k would share an image.  Those C(n,2) private
    edges are distinct and fill all C(n,2) slots, so any second edge of an
    image would be private to another.  Distinct single edges permute the
    slots, which is injective and onto.

    A single-edge graph is the union of the images of some nonempty graph,
    so one of those images is that single edge.  A surjective op therefore
    hits all C(n,2) single-edge graphs with its C(n,2) images, so they are
    distinct single edges."""
    return _edge_bijection(op) is not None


def compose(outer: LinearOperator, inner: LinearOperator) -> LinearOperator:
    """The operator applying inner first, then outer."""
    if outer.n != inner.n:
        raise ValueError("operators live on different vertex counts")
    return LinearOperator(outer.n, tuple(apply(outer, im) for im in inner.images))


# ---------------------------------------------------------------------------
# membership tables and strong preservation

def _flags(bm: int, slots: int) -> str:
    """Membership table bm as text: character g is "1" iff graph g is a member."""
    return format(bm, f"0{1 << slots}b")[::-1]


def _mixed_levels(bm: int, slots: int) -> list[int]:
    """The edge-count level tables that hold both members and non-members of
    bm: a bijection keeps edge counts, so only there can it change membership."""
    return [level for level in _level_tables(slots) if bm & level not in (0, level)]


@lru_cache(maxsize=None)
def _swap_mask(slots: int, i: int, j: int) -> int:
    """Truth-table positions g < 2^slots with bit i of g set and bit j clear."""
    return _edge_variable(slots, i) & ~_edge_variable(slots, j)


def _assign(table: int, sigma: list[int], where: list[int], j: int, t: int) -> int:
    """Give slot j the target t and return table composed with the same swap.

    sigma is a slot permutation whose slots before j are fixed, where its
    inverse, and table the truth table g -> bm[sigma(g)], where sigma(g) moves
    bit k of g to bit sigma[k].  The step composes sigma with the
    transposition (j u), u = where[t] >= j, which swaps variables j and u of
    the table: one delta swap (Knuth, TAOCP 4A, 7.1.3) over the positions with
    bit j set and bit u clear.  So table == bm o sigma stays true."""
    u = where[t]
    if u != j:
        delta = (1 << u) - (1 << j)
        x = ((table >> delta) ^ table) & _swap_mask(len(sigma), j, u)
        table ^= x | (x << delta)
        s = sigma[j]
        sigma[j], sigma[u], where[t], where[s] = t, s, j, u
    return table


def _table_counterexample(bm: int, pi: tuple[int, ...]) -> int | None:
    """Least graph g whose membership differs from its image's under the edge
    bijection pi, or None: one ``_assign`` step per slot turns bm into
    g -> bm[pi(g)], and the answer is the lowest set bit of the difference."""
    sigma = list(range(len(pi)))
    where = sigma[:]
    table = bm
    for j, t in enumerate(pi):
        table = _assign(table, sigma, where, j, t)
    diff = bm ^ table
    return (diff & -diff).bit_length() - 1 if diff else None


def strongly_preserves(op: LinearOperator, prop: GraphProperty) -> PreserverVerdict:
    """Exact check over all graphs; the counterexample, if any, is the least
    membership mismatch in ascending edge-bitset order.

    Edge bijections go through the truth-table kernel; every other operator
    is scanned graph by graph."""
    bm = membership_bitmap(op.n, prop)
    pi = _edge_bijection(op)
    if pi is not None:
        g = _table_counterexample(bm, pi)
        return PreserverVerdict(g is None, None if g is None else Graph(op.n, g))
    flags = _flags(bm, edge_slots(op.n))
    images_bits = [im.edges for im in op.images]
    for g in range(len(flags)):
        if flags[g] != flags[_apply_bits(images_bits, g)]:
            return PreserverVerdict(False, Graph(op.n, g))
    return PreserverVerdict(True, None)


class _SampleScan:
    """Sample mode's scan of one membership table.

    flags[g] is "1" iff graph g is a member.  levels[k] lists the k-th
    edge-count level of mixed membership as (graph, slots) entries,
    non-members leading; ``grow`` builds it the first time a draw reaches
    it, and the first one is built with the scan, since every draw reaches
    it.  A bijection keeps edge counts, so no graph on a uniform level can
    change membership under one.  A level's members are bm & E_m over its
    table E_m from ``_level_tables``."""

    def __init__(self, n: int, prop: GraphProperty) -> None:
        slots = edge_slots(n)
        bm = membership_bitmap(n, prop)
        self.flags = _flags(bm, slots)
        self._mixed = [(level, bm & level) for level in _mixed_levels(bm, slots)]
        self.levels: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
        self.grow()  # every draw reaches the first mixed level

    def grow(self) -> bool:
        """Build the next mixed level's entries; False when none is left."""
        k = len(self.levels)
        if k == len(self._mixed):
            return False
        level, members = self._mixed[k]
        order = _set_positions(level ^ members) + _set_positions(members)
        self.levels.append(tuple((g, tuple(iter_bits(g))) for g in order))
        return True


@lru_cache(maxsize=None)
def _sample_scan(n: int, prop: GraphProperty) -> _SampleScan:
    return _SampleScan(n, prop)


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
    stream, seeded "{seed}:{i}": its map is
    ``random.Random(f"{seed}:{i}").sample(range(slots), slots)``.  The maps do
    not depend on the property, so the last set is kept for the next search
    on the same slots, seed and count.

    That call is a Durstenfeld shuffle read backwards (Durstenfeld,
    "Algorithm 235: Random permutation", CACM 1964): step i = slots-1 ... 1
    swaps positions i and j = randbelow(i + 1), and randbelow takes the top
    (i+1).bit_length() bits of one 32-bit twister output, drawing again while
    j > i.  Here the steps read the top bytes of one block of outputs,
    ``getrandbits(1024).to_bytes(128, "little")[3::4]`` in stream order, since
    slots <= C(16,2) = 120 < 256 means one top byte holds every bound.  Step
    0 is a self-swap and is skipped; every index reseeds, so nothing after
    the last step is read.  An index that runs out of its block reseeds and
    starts again with a block twice as long."""
    rng = random.Random()
    steps = []
    for i in range(slots - 1, 0, -1):
        shift = 8 - (i + 1).bit_length()
        steps.append((i, (i + 1) << shift, shift))
    start = list(range(slots))
    draws = []
    for index in range(count):
        key = f"{seed}:{index}"
        words = 32
        while True:
            rng.seed(key)
            tops = iter(rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4])
            pool = start[:]
            for i, bound, shift in steps:
                for b in tops:
                    if b < bound:
                        break
                else:
                    break  # the block ran out
                j = b >> shift
                pool[i], pool[j] = pool[j], pool[i]
            else:
                break
            words *= 2
        draws.append(tuple(reversed(pool)))
    return tuple(draws)


@lru_cache(maxsize=None)
def _vertex_edge_maps(n: int) -> tuple[tuple[int, ...], ...]:
    """The slot maps of the vertex permutations, in lexicographic order."""
    return tuple(_vertex_edge_map(sigma) for sigma in permutations(range(n)))


def _pruned_bijections(n: int, bm: int) -> list[tuple[int, ...]]:
    """Every edge bijection that strongly preserves bm, the membership table at
    n, in lexicographic order.

    A depth-first search over ``_assign``: at depth j slot j takes each unused
    target in ascending order.  Block j of the table, positions 2^j .. 2^(j+1)
    - 1, holds the graphs whose highest slot is j, now fully mapped, and no
    later step moves it; the search goes deeper only when that block equals
    bm's.  A leaf is therefore a verified bijection, and a partial map dies
    at the first block it changes.
    """
    slots = edge_slots(n)
    sigma = list(range(slots))
    where = sigma[:]
    passing: list[tuple[int, ...]] = []

    def extend(j: int, table: int) -> None:
        if j == slots:
            passing.append(tuple(sigma))
            if len(passing) > SURVIVOR_BUDGET:
                raise BudgetError(
                    f"more than {SURVIVOR_BUDGET} strong preservers at n={n}; "
                    "the class is too permissive for an exhaustive report"
                )
            return
        block = ((1 << (1 << j)) - 1) << (1 << j)
        want = bm & block
        for t in sorted(sigma[j:]):
            s, u = sigma[j], where[t]
            child = _assign(table, sigma, where, j, t)
            if child & block == want:
                extend(j + 1, child)
            sigma[j], sigma[u], where[s], where[t] = s, t, j, u

    extend(0, bm)
    return passing


def _search_exhaustive(n: int, prop: GraphProperty) -> SearchReport:
    slots = edge_slots(n)
    total = factorial(slots)
    if total > EXHAUSTIVE_BIJECTION_BUDGET:
        raise BudgetError(f"{total} edge bijections at n={n}; exhaustive mode stops at n=5")
    bm = membership_bitmap(n, prop)
    if total > SURVIVOR_BUDGET and not _mixed_levels(bm, slots):
        # A bijection keeps edge counts, so every one of them survives.
        raise BudgetError(
            f"membership at n={n} depends only on the edge count, so all "
            f"{slots}! = {total} edge bijections are strong preservers, more than "
            f"{SURVIVOR_BUDGET}; the class is too permissive for an exhaustive report"
        )
    ops = tuple(_operator_from_edge_map(n, pi) for pi in _pruned_bijections(n, bm))
    return SearchReport(n, prop, "exhaustive", total, ops)


def _search_sampled(n: int, prop: GraphProperty, count: int, seed: int) -> SearchReport:
    # 1 == 1.0 == True, so a non-int would share another seed's kept draws.
    for name, value in (("count", count), ("seed", seed)):
        if type(value) is not int:
            raise ValueError(f"sample {name} must be an int, got {value!r}")
    if count < 1:
        raise ValueError("sample count must be positive")
    if count > SAMPLE_COUNT_BUDGET:
        raise BudgetError(
            f"sample count {count} requested; sample mode draws at most {SAMPLE_COUNT_BUDGET}"
        )
    scan = _sample_scan(n, prop)
    flags, levels = scan.flags, scan.levels
    graphs: dict[int, Graph] = {}  # each distinct counterexample
    survivors = []
    failures = []
    for i, pi in enumerate(_sample_draws(edge_slots(n), seed, count)):
        # levels gains its next entry when a draw clears the last one built,
        # and this loop then reads it.
        for entries in levels:
            for g, slots in entries:
                if flags[g] != flags[_map_slots(pi, slots)]:
                    cex = graphs.get(g)
                    if cex is None:
                        cex = graphs[g] = Graph(n, g)
                    # tuple.__new__ skips the generated __new__ of the named tuple.
                    failures.append(tuple.__new__(SampleFailure, (i, pi, cex)))
                    break
            else:
                if entries is levels[-1]:
                    scan.grow()
                continue
            break
        else:
            survivors.append(pi)
    # Membership is isomorphism-invariant, so every vertex map survives.
    vset = frozenset(_vertex_edge_maps(n)) if survivors else frozenset()
    passing = [pi for pi in survivors if pi not in vset]
    ops = tuple(_operator_from_edge_map(n, pi) for pi in passing)
    discarded = len(survivors) - len(passing)
    return SearchReport(n, prop, "sample", count, ops, discarded, tuple(failures))


def confirmed_failures(report: SearchReport) -> int:
    """How many recorded failures ``_decide_bits`` confirms: it puts the
    counterexample and its image under the failure's edge map on different
    sides, each distinct graph decided once, not read from the table that found
    it.  The edgeless graph maps to itself, so a failure on it is never
    confirmed."""
    n, prop = report.n, report.property
    member = lru_cache(maxsize=None)(lambda g: _decide_bits(n, g, prop))
    slots_of = lru_cache(maxsize=None)(lambda g: tuple(iter_bits(g)))
    confirmed = 0
    for failure in report.failures:
        g = failure.counterexample.edges
        confirmed += member(g) != member(_map_slots(failure.edge_map, slots_of(g)))
    return confirmed


def _search_vertex_only(n: int, prop: GraphProperty) -> SearchReport:
    bm = membership_bitmap(n, prop)
    maps = _vertex_edge_maps(n)
    passing = []
    failures = []
    for pi in maps:
        cex = _table_counterexample(bm, pi)
        if cex is None:
            passing.append(pi)
        else:
            failures.append(SampleFailure(-1, pi, Graph(n, cex)))
    ops = tuple(_operator_from_edge_map(n, pi) for pi in passing)
    return SearchReport(n, prop, "vertex-only", len(maps), ops, failures=tuple(failures))


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
    - "vertex-only" verifies all n! vertex permutations against the
      membership table, survivors in lexicographic order of the vertex
      permutations.
    - "sample" draws `count` seeded random edge bijections and records for
      every failure the first mismatch in the scan order of
      ``_SampleScan``, which need not be the least one.  The scan covers
      only the edge-count levels of mixed membership, the only ones a
      bijection can change, and builds each level the first time a draw
      reaches it.  A vertex map passes every level, so the vertex-induced
      draws are found among the survivors and discarded there.  The draws
      do not depend on the property, so a process keeps the last set for
      the next search with the same n, seed and count.

    Only sample mode reads `count` and `seed`; n < 0, a negative count and
    a prop that is not a GraphProperty member are usage errors (ValueError)
    in every mode.  In sample mode a count or seed that is not an int (a
    bool included: 1 == 1.0 == True) is a ValueError too, and a count above
    SAMPLE_COUNT_BUDGET is a BudgetError; both are raised before any table
    is read or any edge map drawn.  Vertex-only and sample modes read the
    membership table before they build any edge map, so its refusal of
    n > 6 (BudgetError) is theirs.  Every mode runs in the calling process.
    `workers` is checked (at least 1) and has no effect; it stays only
    because the traced sample runs of `perfbench/worker.py` pass workers=2,
    and goes at the next change to the benchmark.
    """
    _require_property(prop)
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
        return _search_vertex_only(n, prop)
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
    """Inverse of operator_table; blank lines are skipped, and a line count
    that is not C(n, 2) or an edge index out of range is a ValueError."""
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
