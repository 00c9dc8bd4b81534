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
property and edge count.  This module alone decides membership, of one
graph or of a whole table, in two layouts:

- single graphs (check_property, has_property and the searches built on
  them) read label columns per support size, one int per support position
  with one bit per friendly labeling.  They count the class of every
  labeling at once by bit-sliced addition; a decision asks whether any
  labeling passes, and a witness search reads the least one off the bitset
  of the labelings that pass;
- whole tables (``membership_bitmap``, one bit per graph on n vertices up to
  MEMBERSHIP_VERTEX_LIMIT) decide no graph on their own: a bit-sliced sum of
  edge variables (Knuth, TAOCP 4A, 7.1.3) counts each probed edge set in
  every graph at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb
from typing import Iterable

from .errors import BudgetError
from .graphs import MAX_VERTICES, Graph, _edge_variable, _support_of_bits, edge_slots
from .graphs import incident_masks, iter_bits, pair_table

MEMBERSHIP_VERTEX_LIMIT = 6


class GraphProperty(Enum):
    """The three labeling properties, named by their CLI spelling."""

    SUM = "sum"
    PRODUCT = "product"
    ORIENT23 = "orient23"


def _require_property(prop: object) -> None:
    """Public entry points take only GraphProperty members: the deciders
    dispatch on identity, so any other value would be answered as sum."""
    if not isinstance(prop, GraphProperty):
        raise ValueError(f"property must be a GraphProperty member, got {prop!r}")


@dataclass(frozen=True)
class VertexLabeling:
    """Label bitset over the vertices; bits outside the counted support are 0."""

    labels: int
    support: int

    def __post_init__(self) -> None:
        if self.labels & ~self.support:
            raise ValueError("labels set outside the support")


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
    """A decision with its least witness.  labeling and, for orient23,
    orientation are None when the decision is False; labelings_examined
    counts the friendly labelings of the counted vertex set, all of which
    are decided at once."""

    decision: bool
    labeling: VertexLabeling | None
    orientation: Orientation | None
    labelings_examined: int


@lru_cache(maxsize=None)
def _label_columns(s: int) -> tuple[int, ...]:
    """The friendly label sets over s positions, per popcount class
    ascending, read by position: bit i of column v is label v of entry i.

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


def _lane_count(s: int) -> int:
    """Friendly label sets over s positions: C(s, s // 2), twice for odd s."""
    return comb(s, s // 2) << (s & 1)


def _lane_labels(cols: tuple[int, ...], positions: list[int], i: int) -> int:
    """Entry i of the label columns, put on the support positions."""
    return sum(1 << p for col, p in zip(cols, positions) if col >> i & 1)


@lru_cache(maxsize=None)
def _friendly_label_bits(mask: int) -> tuple[int, ...]:
    """All friendly label bitsets over the vertices in mask, per popcount
    class ascending: the entries of _label_columns put on mask."""
    positions = list(iter_bits(mask))
    cols = _label_columns(len(positions))
    return tuple(_lane_labels(cols, positions, i) for i in range(_lane_count(len(positions))))


def _probed_edges(n: int, labels: int, prop: GraphProperty) -> int:
    """Slot mask of the edges prop counts under a label bitset, the 1-1 edges
    for product and the cross edges otherwise: over the labeled vertices'
    incident slots, an edge seen once is cross and one seen twice is 1-1."""
    inc = incident_masks(n)
    cross = seen = 0
    for v in iter_bits(labels):
        cross ^= inc[v]
        seen |= inc[v]
    return seen & ~cross if prop is _PRODUCT else cross


def _labeling_mask(g: Graph, ambient_friendly: bool) -> int:
    if g.edges == 0:
        raise ValueError("graph has no edges; labeling predicates are undefined on it")
    if ambient_friendly:
        return (1 << g.n) - 1
    return g.support_mask()


def induced_edge_counts(g: Graph, labeling: VertexLabeling, prop: GraphProperty) -> tuple[int, int]:
    """(count of edges labeled 0, count labeled 1) under the sum or product edge rule."""
    _require_property(prop)
    if prop is GraphProperty.ORIENT23:
        raise ValueError("orient23 labels arcs, not edges; use check_23_cordial_digraph")
    if labeling.labels >> g.n:
        raise ValueError(f"labeling names vertices outside the graph's {g.n} vertices")
    c1 = (g.edges & _probed_edges(g.n, labeling.labels, prop)).bit_count()
    return g.edge_count - c1, c1


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


# Looking up an Enum member on its class costs about 0.2 us on Python 3.11;
# the deciders compare against these.
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
    """Bitmask of the counts c of the probed edge class (see _probed_edges)
    for which a graph with m edges passes: 2c within one of m for sum and
    product."""
    if prop is _ORIENT23:
        return _orient23_passing()[m]
    return 1 << m // 2 | 1 << (m + 1) // 2


def _passing_lanes(
    n: int, bits: int, prop: GraphProperty, support: int
) -> tuple[int, tuple[int, ...], list[int]]:
    """(passing lanes, columns, support positions): lane i of the columns,
    put on the support, is a friendly labeling, and its bit is set when that
    labeling passes prop on the edge bitset.  An edge adds col_u & col_v to
    the 1-1 count of product and col_u ^ col_v to the cross count otherwise,
    in every lane at once."""
    positions = list(iter_bits(support))
    cols = _label_columns(len(positions))
    col = [0] * n
    for v, c in zip(positions, cols):
        col[v] = c
    edges = map(pair_table(n).__getitem__, iter_bits(bits))
    if prop is _PRODUCT:
        planes = _sliced_sum(col[i] & col[j] for i, j in edges)
    else:
        planes = _sliced_sum(col[i] ^ col[j] for i, j in edges)
    full = (1 << _lane_count(len(positions))) - 1
    return _lanes_counting(planes, _passing(prop, bits.bit_count()), full), cols, positions


def _decide_bits(n: int, bits: int, prop: GraphProperty, support: int | None = None) -> bool:
    """Does some friendly labeling of the support (by default the edges' own)
    pass prop on a raw edge bitset?  The lane count of check_property,
    without its witness."""
    if support is None:
        support = _support_of_bits(n, bits)
    return _passing_lanes(n, bits, prop, support)[0] != 0


def has_property(g: Graph, prop: GraphProperty) -> bool:
    """check_property(g, prop).decision, without reading off the witness."""
    _require_property(prop)
    return _decide_bits(g.n, g.edges, prop, _labeling_mask(g, False))


def _witness_orientation(g: Graph, labels: int) -> Orientation:
    # First d_plus cross edges (edge-index order) point from the 0 end to the
    # 1 end, the rest the other way; same-label edges keep the low->high arc.
    m = g.edge_count
    d = (g.edges & _probed_edges(g.n, labels, _ORIENT23)).bit_count()
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


def _check(g: Graph, prop: GraphProperty, support: int) -> Verdict:
    """Verdict witnessed by the least feasible friendly label bitset of the
    support.  Every friendly labeling is decided at once, one lane of the
    support size's label columns each, so labelings_examined is their number."""
    hits, cols, positions = _passing_lanes(g.n, g.edges, prop, support)
    s = len(positions)
    lanes = _lane_count(s)
    size = lanes >> (s & 1)  # entries per popcount class
    # Each popcount class ascends, and putting entries on the support keeps
    # their order, so the least witness is the least of the classes' first hits.
    best = None
    for start in range(0, lanes, size):
        part = hits >> start & (1 << size) - 1
        if part:
            lab = _lane_labels(cols, positions, start + (part & -part).bit_length() - 1)
            if best is None or lab < best:
                best = lab
    if best is None:
        return Verdict(False, None, None, lanes)
    orientation = _witness_orientation(g, best) if prop is _ORIENT23 else None
    return Verdict(True, VertexLabeling(best, support), orientation, lanes)


def check_23_orientable(g: Graph, ambient_friendly: bool = False) -> Verdict:
    """Does some orientation of g admit a 3-friendly arc labeling over some
    friendly vertex labeling?  Decided per labeling through the same/cross
    count split rather than by walking orientations."""
    return _check(g, GraphProperty.ORIENT23, _labeling_mask(g, ambient_friendly))


def check_property(g: Graph, prop: GraphProperty) -> Verdict:
    """Decide prop on g with its least witness, balancing labels over the
    non-isolated vertices.  g is sum cordial when some friendly labeling's
    mod-2 difference edge labeling is 2-friendly, and product cordial when
    some friendly labeling's product edge labeling is; orient23 is decided
    as in check_23_orientable.  An edgeless g is a ValueError."""
    _require_property(prop)
    return _check(g, prop, _labeling_mask(g, False))


def check_23_cordial_digraph(g: Graph, orientation: Orientation, labeling: VertexLabeling) -> bool:
    """Are the arc labels f(head) - f(tail) of the oriented graph 3-friendly?"""
    m = g.edge_count
    if orientation.edge_count != m:
        raise ValueError(f"orientation covers {orientation.edge_count} edges, graph has {m}")
    if labeling.labels >> g.n:
        raise ValueError(f"labeling names vertices outside the graph's {g.n} vertices")
    counts = [0, 0, 0]
    labels = labeling.labels
    for r, (i, j) in enumerate(g.edge_list()):
        a = labels >> i & 1
        b = labels >> j & 1
        arc = (a - b) if (orientation.bits >> r & 1) else (b - a)
        counts[arc + 1] += 1
    return max(counts) - min(counts) <= 1


# ---------------------------------------------------------------------------
# whole membership tables

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

    A graph with support S is a member when some friendly label set L of S
    puts a passing count of its edges in _probed_edges(n, L, prop).  The pass
    table of a probed edge set marks the graphs where its count, summed
    bit-sliced over its edge variables, passes at the graph's edge count;
    label sets with the same probed edges share one.  The table is the OR
    over supports S of [support(g) = S] AND the OR of S's pass tables."""
    _require_property(prop)
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > MEMBERSHIP_VERTEX_LIMIT:
        raise BudgetError(
            f"membership tables are kept only up to n={MEMBERSHIP_VERTEX_LIMIT}; n={n} requested"
        )
    slots = edge_slots(n)
    full = (1 << (1 << slots)) - 1
    var = [_edge_variable(slots, k) for k in range(slots)]
    # within[c]: the graphs whose edge count passes with c edges in the probed class.
    within = [0] * (slots + 1)
    for m, level in enumerate(_level_tables(slots)):
        for c in iter_bits(_passing(prop, m)):
            within[c] |= level
    passes: dict[int, int] = {}

    def pass_table(probed: int) -> int:
        table = passes.get(probed)
        if table is None:
            planes = _sliced_sum(var[k] for k in iter_bits(probed))
            table = 0
            for c, ok in enumerate(within):
                if ok:
                    table |= _lanes_counting(planes, 1 << c, full) & ok
            passes[probed] = table
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
            friendly |= pass_table(_probed_edges(n, labels, prop))
        bitmap |= on & friendly
    return bitmap
