"""Graphs as edge bitsets on at most 16 labeled vertices.

A graph stores its edge set as a single Python integer: bit k stands for the
k-th unordered pair (i, j) with i < j, pairs taken in lexicographic order.
That keeps union, complement and membership at machine speed and makes every
value hashable and immutable.  ``_map_slots`` is the one map of an edge
bitset through a slot map, and ``_edge_variable`` the truth table of one
edge over all graphs, built by doubling one period.  The canonical form of
a graph is its least edge bitset over all orderings of its non-isolated
vertices, found by a row-by-row search that keeps only the least partial
orderings and places one member of each twin class at a time (twins tie
and swapping them is an automorphism, the pruning of McKay, "Practical
graph isomorphism", Congr. Numer. 30, 1981, restricted to twin swaps); it
is available while that support is small (at most 10 vertices).

Isomorphism classes are enumerated level by level, and each level in
support layers.  The classes of level (n, m) on fewer than n support
vertices are exactly level (n - 1, m), whose representatives already carry
their keys (a representative's support is packed at 0..s-1, so its edges
re-indexed onto the support's own slots are its key's bits).  Only the
classes on all n vertices are searched for: each comes from a class of
level (n, m - 1) plus one absent edge, and one edge covers at most two new
vertices, so a parent on fewer than n - 2 support vertices is skipped.
Two vertices are twins when they have the same neighbours apart from each
other, and swapping them is an automorphism, so every absent edge joining
the same two twin classes gives the same class; only one of them is tried.
A child is keyed only when its new edge has the greatest of an
isomorphism-invariant edge key among its edges, so a class is keyed only
from the parents that delete one of its top edges; the degree sum leads
that key, so most children are settled before the rest of it is built.
These are the cheap parts of canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998): twin classes stand in for
automorphism orbits, and the canonical-deletion test runs without its
orbit step.

The classes of one edge count on any support are multisets of connected
classes (``_edge_count_classes``).  Only this module generates classes, so the
limits of ``enumerate_graphs`` are the only refusals of every class question.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .errors import BudgetError, UnknownTagError

MAX_VERTICES = 16
MAX_CANONICAL_SUPPORT = 10
MAX_ENUMERATION_VERTICES = 9

# Largest number of edge subsets (counted through the complement above half
# the slots) a single enumeration level may hold.  enumerate_graphs is its
# only user; the extremal searches read its levels and so meet the same
# refusals.  Anything bigger fails loudly instead of running for hours.
SUBSET_BUDGET = 600_000


@lru_cache(maxsize=None)
def pair_table(n: int) -> tuple[tuple[int, int], ...]:
    """All unordered pairs (i, j), i < j, in the fixed lexicographic order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def edge_slots(n: int) -> int:
    """C(n, 2), the number of edge slots on n vertices."""
    return n * (n - 1) // 2


def edge_index(n: int, i: int, j: int) -> int:
    """Bit position of the pair (i, j) in pair_table(n)."""
    if i > j:
        i, j = j, i
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def _vertex_edge_map(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """Slot k, the pair (i, j), goes to the slot of (sigma[i], sigma[j])."""
    n = len(sigma)
    return tuple(edge_index(n, sigma[i], sigma[j]) for i, j in pair_table(n))


def _map_slots(slot_map: tuple[int, ...], slots: Iterable[int]) -> int:
    """The edge bitset with bit slot_map[k] set for every slot k of slots.

    slots are a graph's set edge bits, ``iter_bits(bits)`` or a tuple of
    them; a caller that maps one graph through many slot maps reads its
    slots once and passes the tuple each time."""
    out = 0
    for k in slots:
        out |= 1 << slot_map[k]
    return out


@lru_cache(maxsize=None)
def _edge_variable(slots: int, k: int) -> int:
    """Truth table of edge variable k < slots over the graphs g < 2^slots:
    blocks of 2^k clear then 2^k set positions, exactly the g with bit k set.

    Built by doubling: one period, 2^k clear bits then 2^k set bits, is
    copied next to itself (x |= x << period, the period doubling each time)
    until it fills the 2^slots positions, slots - k - 1 shifts in all."""
    width = 1 << k
    x = ((1 << width) - 1) << width
    period, size = width << 1, 1 << slots
    while period < size:
        x |= x << period
        period <<= 1
    return x


def iter_bits(bits: int) -> Iterator[int]:
    """Positions of set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@lru_cache(maxsize=None)
def incident_masks(n: int) -> tuple[int, ...]:
    """Per vertex, the slot mask of its potentially incident edges."""
    inc = [0] * n
    for k, (i, j) in enumerate(pair_table(n)):
        inc[i] |= 1 << k
        inc[j] |= 1 << k
    return tuple(inc)


def _support_of_bits(n: int, bits: int) -> int:
    """Bitset of the vertices that some edge of the bitset touches."""
    mask = 0
    for v, inc in enumerate(incident_masks(n)):
        if bits & inc:
            mask |= 1 << v
    return mask


def _adjacency(n: int, bits: int) -> list[int]:
    """Per vertex, the mask of its neighbours in the edge bitset."""
    adj = [0] * n
    pt = pair_table(n)
    for k in iter_bits(bits):
        i, j = pt[k]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


@dataclass(frozen=True)
class Graph:
    """Loopless simple undirected graph on vertices 0..n-1."""

    n: int
    edges: int

    def __post_init__(self) -> None:
        # A Graph is built per parsed graph and per operator image, so the
        # helper is called only to name the field that is not an int.
        if type(self.n) is not int or type(self.edges) is not int:
            _require_int("vertex count", self.n)
            _require_int("edge bitset", self.edges)
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in [1, {MAX_VERTICES}], got {self.n!r}")
        if not 0 <= self.edges < 1 << edge_slots(self.n):
            raise ValueError(f"edge bitset out of range for n={self.n}")

    @property
    def edge_count(self) -> int:
        return self.edges.bit_count()

    def edge_list(self) -> list[tuple[int, int]]:
        pt = pair_table(self.n)
        return [pt[k] for k in iter_bits(self.edges)]

    def support_mask(self) -> int:
        """Bitset of non-isolated vertices."""
        return _support_of_bits(self.n, self.edges)

    def support_size(self) -> int:
        return self.support_mask().bit_count()

    def complement(self) -> "Graph":
        return Graph(self.n, ((1 << edge_slots(self.n)) - 1) ^ self.edges)


def make_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from vertex pairs; duplicates collapse, loops are rejected."""
    if not isinstance(n, int) or not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in [1, {MAX_VERTICES}], got {n!r}")
    bits = 0
    for i, j in edge_list:
        if i == j:
            raise ValueError(f"loop ({i}, {j}) is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"vertex pair ({i}, {j}) out of range for n={n}")
        bits |= 1 << edge_index(n, i, j)
    return Graph(n, bits)


def empty(n: int) -> Graph:
    """The edgeless graph on n vertices."""
    return Graph(n, 0)


def complete(n: int) -> Graph:
    """K_n, every edge slot set."""
    return Graph(n, (1 << edge_slots(n)) - 1)


def edge_graph(n: int, pair: tuple[int, int]) -> Graph:
    """The graph on n vertices whose only edge is pair."""
    return make_graph(n, [pair])


def union(g: Graph, h: Graph) -> Graph:
    """The edge union of two graphs on the same vertex count."""
    if g.n != h.n:
        raise ValueError(f"vertex counts differ: {g.n} vs {h.n}")
    return Graph(g.n, g.edges | h.edges)


def relabel(g: Graph, perm: tuple[int, ...]) -> Graph:
    """Image of g under the vertex permutation v -> perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    return Graph(g.n, _map_slots(_vertex_edge_map(tuple(perm)), iter_bits(g.edges)))


# ---------------------------------------------------------------------------
# named catalog

def _petersen_edges() -> tuple[tuple[int, int], ...]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return tuple(outer + spokes + inner)


_NAMED: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "2k2": (4, ((0, 1), (2, 3))),
    "3k2": (6, ((0, 1), (2, 3), (4, 5))),
    "c4": (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    "triangle": (3, ((0, 1), (1, 2), (0, 2))),
    "paw": (4, ((0, 1), (1, 2), (0, 2), (2, 3))),
    "2-star": (3, ((0, 1), (1, 2))),
    "3-path": (4, ((0, 1), (1, 2), (2, 3))),
    "k13": (4, ((0, 1), (0, 2), (0, 3))),
    "petersen": (10, _petersen_edges()),
}

_ALIASES = {
    "c3": "triangle",
    "k3": "triangle",
    "triangle-pendant": "paw",
    "triangle+pendant": "paw",
    "p3": "2-star",
    "2star": "2-star",
    "2-path": "2-star",
    "p4": "3-path",
    "claw": "k13",
    "k1,3": "k13",
    "star3": "k13",
}


def named_tags() -> tuple[str, ...]:
    """The catalog's canonical tags, sorted; aliases are not listed."""
    return tuple(sorted(_NAMED))


def named(tag: str) -> Graph:
    """Catalog lookup; see named_tags() for the canonical spellings."""
    key = tag.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _NAMED:
        raise UnknownTagError(f"unknown graph tag {tag!r}; known tags: {', '.join(named_tags())}")
    n, edges = _NAMED[key]
    return make_graph(n, edges)


# ---------------------------------------------------------------------------
# canonical forms

class CanonicalKey(NamedTuple):
    """Isomorphism-class key: support size, edge count, minimal edge bitset."""

    support: int
    edge_count: int
    bits: int


def _least_bits(adj: list[int]) -> int:
    """Least edge bitset over all orderings of the vertices 0..k-1, where
    adj[v] is the neighbour mask of v.

    Positions are filled from k-1 downward.  The vertex placed at position p
    fixes row p, the slots (p, j) with j > p, as its pattern of neighbours
    among the placed positions; row p outranks every lower row, so only the
    placements whose rows so far are least can lead to the minimum.  A state
    maps each unplaced vertex to its pattern and each placed vertex to
    full = (1 << k) - 1, above every pattern: two placements with equal
    states have the same completions, so each is kept once.  Twins share a
    pattern while both are unplaced, and swapping them is an automorphism
    that fixes every placed vertex, so placing either one leads to the same
    rows; a tied vertex is tried only when the twin before it is already
    placed.

    A state is one int with a 16-bit field per vertex, field u at bits
    16u..16u+15 (k is at most MAX_CANONICAL_SUPPORT, so full fits); placed
    vertices hold full.  Placing u at p ORs bit p into the field of each
    neighbour of u (spread[u] << p) and full into u's own field (own[u]).
    One level's states are read back together as one list of unsigned
    shorts in native byte order, state i's field u at i * k + u, so the
    tied fields are found by ``min``, ``count`` and ``index`` over it.
    """
    k = len(adj)
    full = (1 << k) - 1
    back: list[int] = []  # per vertex, how far back the twin before it is, or 0
    last: dict[int, int] = {}
    for v, c in enumerate(_twin_classes(adj)):
        back.append(v - last[c] if c in last else 0)
        last[c] = v
    spread = [sum(1 << 16 * w for w in iter_bits(a)) for a in adj]
    own = [full << 16 * u for u in range(k)]
    width, order = 2 * k, sys.byteorder
    bits = 0
    states = [0]
    for p in range(k - 1, -1, -1):
        fields = memoryview(b"".join([s.to_bytes(width, order) for s in states])).cast("H").tolist()
        best = min(fields)
        nxt = set()
        at = -1
        for _ in range(fields.count(best)):
            at = fields.index(best, at + 1)
            i, u = divmod(at, k)
            if not back[u] or fields[at - back[u]] == full:
                nxt.add(states[i] | spread[u] << p | own[u])
        states = list(nxt)
        bits |= (best >> (p + 1)) << (p * (2 * k - p - 1) // 2)
    return bits


def _canonical_key_bits(n: int, bits: int) -> CanonicalKey:
    verts = list(iter_bits(_support_of_bits(n, bits)))
    ks = len(verts)
    if ks == 0:
        return CanonicalKey(0, 0, 0)
    if ks > MAX_CANONICAL_SUPPORT:
        raise BudgetError(
            f"canonical key search over {ks} support vertices; "
            f"limit is {MAX_CANONICAL_SUPPORT}"
        )
    adj = _adjacency(n, bits)
    rank = {v: r for r, v in enumerate(verts)}
    packed = [sum(1 << rank[w] for w in iter_bits(adj[v])) for v in verts]
    return CanonicalKey(ks, bits.bit_count(), _least_bits(packed))


def canonical_form(g: Graph) -> CanonicalKey:
    """Key shared by exactly the graphs isomorphic to g after dropping isolated vertices."""
    return _canonical_key_bits(g.n, g.edges)


def canonical_representative(key: CanonicalKey, n: int) -> Graph:
    """The graph on n vertices whose support is packed at 0..support-1 with the key's bitset.

    A key whose parts disagree is a ValueError: a negative support, bits
    outside the C(support, 2) slots of its support, bits that leave a support
    vertex isolated, or an edge count other than the bitset's."""
    support, m, bits = key
    if support < 0:
        raise ValueError(f"key support must be non-negative, got {support}")
    if support > n:
        raise ValueError(f"key needs {support} vertices but n={n}")
    if not 0 <= bits < 1 << edge_slots(support):
        raise ValueError(f"key bits {bits} lie outside the {edge_slots(support)} slots of support {support}")
    if _support_of_bits(support, bits) != (1 << support) - 1:
        raise ValueError(f"key bits {bits} leave some of the {support} support vertices isolated")
    if bits.bit_count() != m:
        raise ValueError(f"key edge count {m} but its bits hold {bits.bit_count()} edges")
    pt = pair_table(support)
    return make_graph(n, [pt[e] for e in iter_bits(bits)])


def _twin_classes(adj: list[int]) -> list[int]:
    """Per vertex, the least vertex of its twin class, where adj[v] is the
    neighbour mask of v.

    u and v are twins when N(u) - {v} = N(v) - {u}.  That is an equivalence:
    if w is an adjacent twin of v, a non-adjacent twin of v would be adjacent
    to w and so to v; twins of one kind share their (open or closed)
    neighbourhood.  All isolated vertices form one class.
    """
    lead = list(range(len(adj)))
    leaders: list[int] = []
    for v in range(len(adj)):
        for u in leaders:
            if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                lead[v] = u
                break
        else:
            leaders.append(v)
    return lead


def _extension_slots(g: Graph) -> list[int]:
    """One absent edge slot per unordered pair of twin classes of g that an
    absent edge joins, the lowest such slot."""
    lead = _twin_classes(_adjacency(g.n, g.edges))
    first: dict[tuple[int, int], int] = {}
    for k, (i, j) in enumerate(pair_table(g.n)):
        if not g.edges >> k & 1:
            a, b = lead[i], lead[j]
            first.setdefault((a, b) if a < b else (b, a), k)
    return list(first.values())


def _edge_invariants(n: int, bits: int) -> dict[int, tuple]:
    """Per edge slot of the graph, a key that every isomorphism carries to its
    image edge: for the edge (u, v), deg u + deg v, the common neighbours of
    u and v, and the sorted pair of (deg, sum of neighbour degrees) of u and v."""
    pt = pair_table(n)
    adj = _adjacency(n, bits)
    deg = [a.bit_count() for a in adj]
    rank = [(deg[v], sum(deg[w] for w in iter_bits(adj[v]))) for v in range(n)]
    out = {}
    for k in iter_bits(bits):
        i, j = pt[k]
        a, b = sorted((rank[i], rank[j]))
        out[k] = (deg[i] + deg[j], (adj[i] & adj[j]).bit_count(), a, b)
    return out


def _tops_edge_invariant(n: int, bits: int, k: int) -> bool:
    """True when edge slot k has the greatest invariant among the graph's
    edges; ties count.  The degree sum leads the invariant, so an edge with a
    larger degree sum settles it before any invariant is built."""
    pt = pair_table(n)
    deg = [a.bit_count() for a in _adjacency(n, bits)]
    i, j = pt[k]
    top = deg[i] + deg[j]
    for e in iter_bits(bits):
        a, b = pt[e]
        if deg[a] + deg[b] > top:
            return False
    inv = _edge_invariants(n, bits)
    return inv[k] == max(inv.values())


def _require_int(name: str, value: object) -> None:
    """A size, count or seed that is not an int is a usage error
    (ValueError), a bool included: 1 == 1.0 == True with equal hashes, so
    such a value would share an int's cache entry, and a float would fail
    later as a TypeError or give a float answer."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def _check_level(n: int, m: int) -> None:
    """The refusals of enumeration level (n, m), raised before any work; an n
    or m that is not an int is one, lest it read a cached level."""
    _require_int("vertex count", n)
    _require_int("edge count", m)
    if n < 1:
        raise ValueError(f"vertex count must be at least 1, got {n}")
    if n > MAX_ENUMERATION_VERTICES:
        raise BudgetError(f"enumeration is capped at n={MAX_ENUMERATION_VERTICES}, got {n}")
    slots = edge_slots(n)
    if not 0 <= m <= slots:
        raise ValueError(f"edge count {m} out of range for n={n}")
    subsets = comb(slots, min(m, slots - m))
    if subsets > SUBSET_BUDGET:
        raise BudgetError(f"level (n={n}, m={m}) has {subsets} subsets; budget is {SUBSET_BUDGET}")


def _representative_key(g: Graph) -> CanonicalKey:
    """The key of an enumerated representative, read off without a search:
    its support is packed at 0..s-1 with the key's bitset, so its edges
    re-indexed onto pair_table(s) are the key's bits."""
    s = g.support_size()
    return CanonicalKey(s, g.edge_count, sum(1 << edge_index(s, i, j) for i, j in g.edge_list()))


def _covering_slots(g: Graph) -> list[int]:
    """The slots of ``_extension_slots(g)`` whose child covers all g.n
    vertices.  g's support is packed at 0..s-1 and one edge covers at most
    two new vertices, so a g with s < n - 2 has none and is skipped before
    its twin classes are built."""
    n, s = g.n, g.support_size()
    if s < n - 2:
        return []
    pt = pair_table(n)
    return [k for k in _extension_slots(g) if (pt[k][0] >= s) + (pt[k][1] >= s) == n - s]


@lru_cache(maxsize=None, typed=True)
def enumerate_graphs(n: int, m: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class with m edges on at most n vertices.

    Classes are counted up to isomorphism after dropping isolated vertices, and
    representatives come back sorted by canonical key, each with its support
    packed at 0..s-1.  A level above half the edge slots is the complements
    of level C(n, 2) - m.  A level (n, m) at most half is two disjoint sets:
    the classes on at most n - 1 support vertices, which are exactly level
    (n - 1, m) when m <= C(n - 1, 2) and none otherwise, their keys read off
    its cached representatives with no search (``_representative_key``);
    and the classes on all n vertices, keyed from level m - 1.  Level
    (n - 1, m) is within the budget whenever (n, m) is, since
    C(C(n - 1, 2), m) <= C(C(n, 2), m) for m <= C(n, 2) / 2.

    The classes on all n vertices are built by adding to each representative
    of level (n, m - 1) one absent edge per unordered pair of its twin
    classes, keeping only the children that cover all n vertices (so a
    parent on fewer than n - 2 support vertices has none,
    ``_covering_slots``), and keying the child only when its new edge has
    the greatest edge invariant among its edges (``_edge_invariants``; ties
    are keyed).

    Every class G on all n vertices is still keyed.  Take an edge e* of G
    with the greatest invariant.  G - e* is isomorphic to some
    representative R of level m - 1 by some phi, so R + phi(e*) is
    isomorphic to G.  Among its candidates, R has a slot e' joining the same
    unordered pair of twin classes as phi(e*).  Any permutation inside twin
    classes is an automorphism of R (swapping two twins is one), and one
    such permutation maps phi(e*) to e'.  So R + e' is isomorphic to G by a
    map that sends e* to e'; it covers all n vertices because G does, and
    R + e' is kept.  The invariant is kept by isomorphisms, so e' has the
    greatest invariant in R + e', and R + e' is keyed.  This is the
    canonical-deletion test of canonical augmentation (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 1998) without its orbit step:
    some classes are still keyed from several parents, and the key set
    removes the repeats.
    """
    _check_level(n, m)
    slots = edge_slots(n)
    mm = min(m, slots - m)
    if m == 0:
        keys = [CanonicalKey(0, 0, 0)]
    elif mm != m:
        full = (1 << slots) - 1
        keys = sorted({_canonical_key_bits(n, full ^ g.edges) for g in enumerate_graphs(n, mm)})
    else:
        lower = [_representative_key(g) for g in enumerate_graphs(n - 1, m)] if m <= edge_slots(n - 1) else []
        keys = lower + sorted({
            _canonical_key_bits(n, g.edges | 1 << k)
            for g in enumerate_graphs(n, m - 1)
            for k in _covering_slots(g)
            if _tops_edge_invariant(n, g.edges | 1 << k, k)
        })
    return tuple(canonical_representative(key, n) for key in keys)


def connected_on_support(g: Graph) -> bool:
    """True when the non-isolated vertices form one connected component."""
    support = g.support_mask()
    adj = _adjacency(g.n, g.edges)
    seen = frontier = support & -support
    while frontier:
        reached = 0
        for v in iter_bits(frontier):
            reached |= adj[v]
        frontier = reached & ~seen
        seen |= frontier
    return bool(support) and seen == support


@lru_cache(maxsize=None)
def _connected_classes(c: int) -> tuple[Graph, ...]:
    # Connected classes with c edges have at most c + 1 support vertices.
    return tuple(g for g in enumerate_graphs(c + 1, c) if connected_on_support(g))


def _assemble(parts: tuple[Graph, ...]) -> Graph:
    edges: list[tuple[int, int]] = []
    offset = 0
    for p in parts:
        edges.extend((i + offset, j + offset) for i, j in p.edge_list())
        offset += p.support_size()
    return make_graph(offset, edges)


@lru_cache(maxsize=None)
def _edge_count_classes(m: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class with exactly m edges.

    Built as multisets of connected classes, so supports up to 2m are covered
    even though direct enumeration stops at 9 ambient vertices.
    """
    catalog = [(c, rep) for c in range(1, m + 1) for rep in _connected_classes(c)]
    out: list[Graph] = []

    def grow(start: int, remaining: int, chosen: list[Graph]) -> None:
        if remaining == 0:
            out.append(_assemble(tuple(chosen)))
            return
        for idx in range(start, len(catalog)):
            c, rep = catalog[idx]
            if c <= remaining:
                chosen.append(rep)
                grow(idx, remaining - c, chosen)
                chosen.pop()

    grow(0, m, [])
    return tuple(out)
