"""Friendly vertex labelings and the three labeling predicates.

A vertex labeling assigns 0 or 1 to every vertex; it is friendly when the
label class sizes differ by at most one, counted over the non-isolated
vertices only.  Isolated vertices implicitly carry label 0 and stay outside
the balance count.  The optional ambient mode instead balances the labels
over the whole vertex set, which changes which splits of the support are
reachable on graphs carrying isolated vertices.

Three predicates are decided here: sum cordiality (edge label is the label
difference mod 2), product cordiality (edge label is the label product), and
(2,3)-orientability (some orientation of the edges makes the arc labels
f(head) - f(tail), valued in {-1, 0, +1}, 3-friendly).  Each is one count
test on one edge class of a friendly labeling: sum and product count the
cross and the 1-1 edges, which must be about half of all edges, and
orientability counts the cross edges, which must split into d_plus and
d_minus within one of each other and of the same-label edges.  So every
decision compares one count against one bitmask of the passing counts per
property and edge count.  Two layouts feed it:

- bulk decisions (has_property and the searches built on it) read one mask
  table per support, one int per friendly labeling holding both classes,
  and stop at the first labeling that passes;
- witness searches (check_property and the check_* functions) read label
  columns per support size, one int per support position with one bit per
  friendly labeling.  They count the class of every labeling at once by
  bit-sliced addition, and read the least witness off the bitset of the
  labelings that pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

from .graphs import MAX_VERTICES, Graph, _support_of_bits, edge_slots, incident_masks, iter_bits


class GraphProperty(Enum):
    SUM = "sum"
    PRODUCT = "product"
    ORIENT23 = "orient23"


@dataclass(frozen=True)
class VertexLabeling:
    """Label bitset over the vertices; bits outside the counted support are 0."""

    labels: int
    support: int

    def __post_init__(self) -> None:
        if self.labels & ~self.support:
            raise ValueError("labels set outside the support")

    def label_of(self, v: int) -> int:
        return self.labels >> v & 1


@dataclass(frozen=True)
class Orientation:
    """One bit per present edge, in edge-index order; a set bit reverses low->high."""

    bits: int
    edge_count: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < 1 << self.edge_count:
            raise ValueError("orientation bits out of range for the edge count")


@dataclass(frozen=True)
class Verdict:
    decision: bool
    labeling: VertexLabeling | None
    orientation: Orientation | None
    labelings_examined: int


def is_k_friendly(counts: Sequence[int], k: int) -> bool:
    """True when the k class counts pairwise differ by at most one."""
    vals = list(counts)
    if len(vals) != k:
        raise ValueError(f"expected {k} counts, got {len(vals)}")
    return max(vals) - min(vals) <= 1


def _friendly_entries(steps: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """One entry per friendly label set over len(steps) positions, per
    popcount class ascending.  An entry starts at 0, and each position p in
    the set turns it from x into x ^ a | b, where (a, b) = steps[p].

    Built by Pascal's rule, as _label_columns builds its columns: in
    ascending order, the k-subsets of the first t positions are the
    k-subsets of the first t - 1, then the (k - 1)-subsets of the first
    t - 1 with position t added."""
    s = len(steps)
    half = s // 2
    top = s - half
    row: list[tuple[int, ...]] = [(0,)]  # per k: the entries of the k-subsets of the first t positions
    for t, (a, b) in enumerate(steps, 1):
        row = [
            (row[k] if k < t else ()) + (tuple(x ^ a | b for x in row[k - 1]) if k else ())
            for k in range(min(t, top) + 1)
        ]
    return row[half] + (row[top] if top != half else ())


@lru_cache(maxsize=None)
def _friendly_label_bits(mask: int) -> tuple[int, ...]:
    """All friendly label bitsets over the vertices in mask, per popcount class ascending."""
    return _friendly_entries(tuple((0, 1 << p) for p in iter_bits(mask)))


def _edge_masks(n: int, labels: int) -> tuple[int, int]:
    """(cross edges, both-endpoints-one edges) as slot masks for a label bitset:
    over the labeled vertices' incident slots, an edge seen once is cross and
    an edge seen twice is 1-1."""
    inc = incident_masks(n)
    cross = seen = 0
    for v in iter_bits(labels):
        cross ^= inc[v]
        seen |= inc[v]
    return cross, seen & ~cross


@lru_cache(maxsize=None)
def _label_masks(n: int, support: int) -> tuple[int, ...]:
    """ones | cross << C(n,2) for every friendly labeling of the support, in
    _friendly_label_bits order: the 1-1 edges low, the cross edges high.

    Each entry is built as seen | cross << C(n,2) over the labeled vertices'
    incident slots, as in _edge_masks: a labeled vertex ORs its slots into
    seen and XORs them into cross.  The 1-1 edges are then seen & ~cross."""
    shift = edge_slots(n)
    inc = incident_masks(n)
    packed = _friendly_entries(tuple((inc[v] << shift, inc[v]) for v in iter_bits(support)))
    return tuple(x & ~(x >> shift) for x in packed)


def _labeling_mask(g: Graph, ambient_friendly: bool) -> int:
    if g.edges == 0:
        raise ValueError("graph has no edges; labeling predicates are undefined on it")
    if ambient_friendly:
        return (1 << g.n) - 1
    return g.support_mask()


def friendly_vertex_labelings(g: Graph, ambient_friendly: bool = False) -> Iterator[VertexLabeling]:
    """All friendly labelings of g; ambient mode balances over all n vertices."""
    mask = _labeling_mask(g, ambient_friendly)
    for lab in _friendly_label_bits(mask):
        yield VertexLabeling(lab, mask)


def induced_edge_counts(g: Graph, labeling: VertexLabeling, prop: GraphProperty) -> tuple[int, int]:
    """(count of edges labeled 0, count labeled 1) under the sum or product edge rule."""
    if prop is GraphProperty.ORIENT23:
        raise ValueError("orient23 labels arcs, not edges; use check_23_cordial_digraph")
    cross, ones = _edge_masks(g.n, labeling.labels)
    m = g.edge_count
    c1 = (g.edges & (cross if prop is GraphProperty.SUM else ones)).bit_count()
    return m - c1, c1


def _split_feasible(s: int, d: int) -> bool:
    """d cross edges split into d_plus and d_minus within one of each other
    and of the s same-label edges exactly when (d + 1) // 2 - 1 <= s <= d // 2 + 1."""
    return (d + 1) // 2 - 1 <= s <= d // 2 + 1


def orientation_feasible(same_count: int, cross_count: int) -> tuple[int, int] | None:
    """First (d_plus, d_minus) split of the cross edges, scanning d_plus upward,
    for which {same_count, d_plus, d_minus} is 3-friendly; None when no split works.
    d_plus and d_minus differ by at most one, so the first split is d_plus = d // 2."""
    d = cross_count
    return (d // 2, d - d // 2) if _split_feasible(same_count, d) else None


# Looking up an Enum member on its class costs about 0.2 us on Python 3.11, a
# fifth of a bulk decision at n = 6; the deciders compare against these.
_PRODUCT = GraphProperty.PRODUCT
_ORIENT23 = GraphProperty.ORIENT23


@lru_cache(maxsize=None)
def _orient23_passing() -> tuple[int, ...]:
    # Per edge count m, the cross-edge counts c with an orientation split of
    # m - c same-label edges, as a bitmask over c.
    return tuple(
        sum(1 << c for c in range(m + 1) if _split_feasible(m - c, c))
        for m in range(edge_slots(MAX_VERTICES) + 1)
    )


def _passing(prop: GraphProperty, m: int) -> int:
    """Bitmask of the counts c of the probed edge class (see _probe) for which
    a graph with m edges passes: 2c within one of m for sum and product."""
    if prop is _ORIENT23:
        return _orient23_passing()[m]
    return 1 << m // 2 | 1 << (m + 1) // 2


def _probe(n: int, bits: int, prop: GraphProperty) -> int:
    """The edge bitset lined up with the class prop counts in a _label_masks
    entry: the 1-1 edges for product, the cross edges otherwise."""
    return bits if prop is _PRODUCT else bits << edge_slots(n)


def _decide_bits(n: int, bits: int, prop: GraphProperty, support: int | None = None) -> bool:
    """Early-exit decision on a raw edge bitset; the bulk-search twin of check_property."""
    if support is None:
        support = _support_of_bits(n, bits)
    ok = _passing(prop, bits.bit_count())
    probe = _probe(n, bits, prop)
    for mask in _label_masks(n, support):
        if ok >> (probe & mask).bit_count() & 1:
            return True
    return False


def has_property(g: Graph, prop: GraphProperty) -> bool:
    """Decision only; agrees with check_property(g, prop).decision."""
    mask = _labeling_mask(g, False)
    return _decide_bits(g.n, g.edges, prop, mask)


def _witness_orientation(g: Graph, labels: int) -> Orientation:
    # First d_plus cross edges (edge-index order) point from the 0 end to the
    # 1 end, the rest the other way; same-label edges keep the low->high arc.
    m = g.edge_count
    d = (g.edges & _edge_masks(g.n, labels)[0]).bit_count()
    split = orientation_feasible(m - d, d)
    assert split is not None
    dp, _ = split
    bits = 0
    assigned = 0
    for r, (i, j) in enumerate(g.edge_list()):
        a = labels >> i & 1
        b = labels >> j & 1
        if a == b:
            continue
        reverse = (a == 1) if assigned < dp else (a == 0)
        if reverse:
            bits |= 1 << r
        assigned += 1
    return Orientation(bits, m)


@lru_cache(maxsize=None)
def _label_columns(s: int) -> tuple[int, ...]:
    """The compact friendly table _friendly_label_bits((1 << s) - 1) read by
    position: bit i of column v is label v of entry i.

    Built by Pascal's rule: in ascending order, the k-subsets of t positions
    are the k-subsets of t - 1 positions, then the (k - 1)-subsets of t - 1
    positions with position t - 1 added.  So each earlier column is its
    (t - 1, k) column followed by its (t - 1, k - 1) column, and column
    t - 1 is zeros, then ones."""
    row = [(1, ())]  # per k: (entries, columns) of the k-subsets of t positions
    for t in range(1, s + 1):
        none = (0, (0,) * (t - 1))
        nxt = []
        for k in range(t + 1):
            lo, lo_cols = row[k] if k < t else none
            hi, hi_cols = row[k - 1] if k else none
            cols = tuple(a | b << lo for a, b in zip(lo_cols, hi_cols))
            nxt.append((lo + hi, cols + (((1 << hi) - 1) << lo,)))
        row = nxt
    lo, cols = row[s // 2]
    if s % 2:
        cols = tuple(a | b << lo for a, b in zip(cols, row[s - s // 2][1]))
    return cols


def _sliced_sum(terms: Iterable[int]) -> list[int]:
    """Bit-sliced sum (Knuth, TAOCP 4A, 7.1.3) of one-bit terms in every lane
    at once: plane k holds bit k of each lane's count, added by ripple carry."""
    planes: list[int] = []
    for carry in terms:
        for k, p in enumerate(planes):
            planes[k] = p ^ carry
            carry &= p
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    return planes


def _lanes_counting(planes: list[int], counts: int, full: int) -> int:
    """The lanes of full whose count in planes is one of the bits of counts."""
    hits = 0
    for c in iter_bits(counts):
        if c >> len(planes):
            break  # no lane counts this high
        eq = full
        for k, p in enumerate(planes):
            eq &= p if c >> k & 1 else ~p
        hits |= eq
    return hits


def _count_planes(g: Graph, prop: GraphProperty, cols: tuple[int, ...], positions: list[int]) -> list[int]:
    """Bit-sliced counts of the edge class prop probes, in every lane of cols
    at once.  An edge adds col_u & col_v to the 1-1 count of product and
    col_u ^ col_v to the cross count otherwise."""
    rank = {v: r for r, v in enumerate(positions)}
    if prop is _PRODUCT:
        return _sliced_sum(cols[rank[i]] & cols[rank[j]] for i, j in g.edge_list())
    return _sliced_sum(cols[rank[i]] ^ cols[rank[j]] for i, j in g.edge_list())


def _check(g: Graph, prop: GraphProperty, support: int) -> Verdict:
    """Verdict witnessed by the least feasible friendly label bitset of the
    support.  Every friendly labeling is decided at once, one lane of the
    support size's label columns each, so labelings_examined is their number."""
    positions = list(iter_bits(support))
    s = len(positions)
    cols = _label_columns(s)
    size = comb(s, s // 2)  # entries per popcount class
    lanes = size << (s & 1)
    planes = _count_planes(g, prop, cols, positions)
    hits = _lanes_counting(planes, _passing(prop, g.edge_count), (1 << lanes) - 1)
    # Each popcount class ascends, and putting entries on the support keeps
    # their order, so the least witness is the least of the classes' first hits.
    best = None
    for start in range(0, lanes, size):
        part = hits >> start & (1 << size) - 1
        if part:
            i = start + (part & -part).bit_length() - 1
            lab = sum(1 << p for col, p in zip(cols, positions) if col >> i & 1)
            if best is None or lab < best:
                best = lab
    if best is None:
        return Verdict(False, None, None, lanes)
    orientation = _witness_orientation(g, best) if prop is _ORIENT23 else None
    return Verdict(True, VertexLabeling(best, support), orientation, lanes)


def check_sum_cordial(g: Graph) -> Verdict:
    """Is some friendly labeling's mod-2 difference edge labeling 2-friendly?"""
    return _check(g, GraphProperty.SUM, _labeling_mask(g, False))


def check_product_cordial(g: Graph) -> Verdict:
    """Is some friendly labeling's product edge labeling 2-friendly?"""
    return _check(g, GraphProperty.PRODUCT, _labeling_mask(g, False))


def check_23_orientable(g: Graph, ambient_friendly: bool = False) -> Verdict:
    """Does some orientation of g admit a 3-friendly arc labeling over some
    friendly vertex labeling?  Decided per labeling through the same/cross
    count split rather than by walking orientations."""
    return _check(g, GraphProperty.ORIENT23, _labeling_mask(g, ambient_friendly))


def check_property(g: Graph, prop: GraphProperty) -> Verdict:
    return _check(g, prop, _labeling_mask(g, False))


def check_23_cordial_digraph(g: Graph, orientation: Orientation, labeling: VertexLabeling) -> bool:
    """Are the arc labels f(head) - f(tail) of the oriented graph 3-friendly?"""
    m = g.edge_count
    if orientation.edge_count != m:
        raise ValueError(f"orientation covers {orientation.edge_count} edges, graph has {m}")
    counts = [0, 0, 0]
    labels = labeling.labels
    for r, (i, j) in enumerate(g.edge_list()):
        a = labels >> i & 1
        b = labels >> j & 1
        arc = (a - b) if (orientation.bits >> r & 1) else (b - a)
        counts[arc + 1] += 1
    return max(counts) - min(counts) <= 1
