"""Shared brute-force oracles, deliberately written against the naive
definitions (explicit labelings, explicit orientation walks, explicit
permutation scans) rather than the package's bitset machinery.

The orientation-walk oracle, ``oracle_23_orientable``, decides
orientability by walking every orientation of every friendly labeling, half
the edges at a time; it reaches 20 edges, where ``brute_23_orientable``
stops near 12, and shares nothing with the split reduction of the deciders.

The edge-mask oracle is the pair-by-pair loop the incident-mask XOR
replaced; it also checks, entry by entry, the per-support mask table that
``_label_masks`` builds here by Pascal's rule.  The least-witness oracle
re-decides every friendly labeling from the edge labels themselves.  The
two scan oracles walk that mask table labeling by labeling, the route that
the bit-sliced lane count of ``_passing_lanes`` replaced:
``oracle_decide_scan`` stops at the first labeling that passes, as
``_decide_bits`` once did, and ``oracle_check_scan`` reads the least
witness; they reach supports up to 16, where the least-witness oracle is
too slow.  The membership oracle is the
graph-by-graph loop of mask-table scans that whole-table bit-sliced counts
replaced, and the edge-count oracle is the graph-by-graph level check that
the level tables replaced.  The edge-variable oracle is the big-int division
that doubling one period replaced, and the level-table oracle the bit-sliced
sum of edge variables that Pascal's rule replaced.  The two preserver oracles are the
graph-by-graph paths the truth-table kernel replaced; they read membership
from ``membership_bitmap``, which is tested against the membership oracle.
The pruned-search oracle is exhaustive search before it took the kernel's
step: the same prefix order, checked graph by graph over an image array.
The canonical-key oracle is the permutation minimum the
least-bitset search replaced.  The least-bits oracle is that search before
it tried one member per twin class: every tied vertex is placed, and placed
vertices hold -1.  The tuple-state oracle is the twin-pruned search before
its states were packed into one int: each state is a tuple of per-vertex
patterns, and each placement ORs in a row tuple.  The top-edge oracle builds every edge's invariant for
each child, where ``_tops_edge_invariant`` first compares degree sums.  The
enumeration oracle is the subset walk
that level-by-level extension replaced; it takes its keys from
``_canonical_key_bits``, which is tested against the former.  The extension
oracle adds every absent edge to every representative of the level below,
the loop that one edge per pair of twin classes replaced.  The flat-level
oracle builds every in-budget level of one n from that n's level below
alone, keying every child that tops the edge invariant, the build that
support layering replaced.  The
friendly-table oracle is the Gosper iteration that Pascal's rule replaced;
``column_label_bits`` puts the ``_label_columns`` entries on a mask, the
friendly sets per support that the membership table read before it looped
over label sets, and is tested against the Gosper oracle.  The
empirical-maximum oracle is the labeled-subset walk that the scan over
isomorphism classes replaced; it decides with ``oracle_decide_scan``, so it
checks the route through the classes and the least-key witness against a
decider the package does not share.
The sample oracle is sample mode before its draws were shared and its scan
was cut to the mixed edge-count levels: a fresh draw per call, every nonempty
graph in the scan order, and one ``Graph`` per failure.  The draws oracle
is the ``random.sample`` call per index that reading the shuffle off one
block of twister outputs replaced.  The scan-order
oracle is the graph-by-graph sort into edge-count levels that reading the
level tables replaced.  The injectivity and surjectivity oracles are the
walks over every graph's image that the edge-bijection criterion replaced.
The support oracle is the edge-by-edge loop that the incident-mask test
replaced, the connectivity oracle the search over a dict of neighbour lists
that the bitmask search replaced, and the split oracle the d_plus scan that
the closed form of the orientation split replaced.  The vertex-permutation
oracle intersects the image endpoints of all n - 1 edges at every vertex,
where ``is_vertex_permutation`` reads two, and checks the induced slot map
pair by pair; the relabel oracle is the pair-by-pair loop that reading
``_vertex_edge_map`` replaced, so the round trip of ``apply`` against
``relabel`` does not compare that map with itself; it also checks
``_map_slots`` on vertex maps.  The graph6 oracles are the pair-by-pair codec
that one cached slot order per n replaced, with every message verbatim."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial
from operator import or_

from cordia import (
    BudgetError,
    CanonicalKey,
    Graph,
    GraphFormatError,
    GraphProperty,
    LinearOperator,
    Orientation,
    edge_slots,
    enumerate_graphs,
    membership_bitmap,
)
from cordia.graphs import (
    MAX_VERTICES,
    SUBSET_BUDGET,
    _canonical_key_bits,
    _edge_invariants,
    _extension_slots,
    _tops_edge_invariant,
    _twin_classes,
    canonical_representative,
    edge_index,
    incident_masks,
    iter_bits,
    pair_table,
)
from cordia.labeling import (
    _ORIENT23,
    _PRODUCT,
    Verdict,
    VertexLabeling,
    _label_columns,
    _labeling_mask,
    _lane_count,
    _lanes_counting,
    _passing,
    _sliced_sum,
    _witness_orientation,
)
from cordia.preserver import (
    SampleFailure,
    SearchReport,
    _edge_bijection,
    _operator_from_edge_map,
    _vertex_edge_maps,
)


def oracle_support_mask(g: Graph) -> int:
    """Bitset of the non-isolated vertices, edge by edge."""
    pt = pair_table(g.n)
    mask = 0
    for k in iter_bits(g.edges):
        i, j = pt[k]
        mask |= (1 << i) | (1 << j)
    return mask


def oracle_connected_on_support(g: Graph) -> bool:
    """True when the non-isolated vertices form one connected component,
    by depth-first search over a dict of neighbour lists."""
    adj: dict[int, list[int]] = {}
    for i, j in g.edge_list():
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    if not adj:
        return False
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def oracle_orientation_feasible(same_count: int, cross_count: int) -> tuple[int, int] | None:
    """First (d_plus, d_minus) split of the cross edges, scanning d_plus upward,
    for which {same_count, d_plus, d_minus} is 3-friendly, or None."""
    for dp in range(cross_count + 1):
        dm = cross_count - dp
        if max(same_count, dp, dm) - min(same_count, dp, dm) <= 1:
            return dp, dm
    return None


def _oracle_images(op) -> list[int]:
    """The image edge bitset of every graph on op.n vertices, in ascending order."""
    images = [im.edges for im in op.images]
    out = []
    for g in range(1 << edge_slots(op.n)):
        img = 0
        for k in range(len(images)):
            if g >> k & 1:
                img |= images[k]
        out.append(img)
    return out


def oracle_is_injective(op) -> bool:
    """No two graphs share an image, checked over every graph."""
    seen: set[int] = set()
    for img in _oracle_images(op):
        if img in seen:
            return False
        seen.add(img)
    return True


def oracle_is_surjective(op) -> bool:
    """Every graph is the image of some graph, checked over every graph."""
    return len(set(_oracle_images(op))) == 1 << edge_slots(op.n)


def oracle_is_vertex_permutation(op) -> tuple[int, ...] | None:
    """is_vertex_permutation(op): each vertex's image is the one endpoint
    shared by the images of every edge at it, and the candidate must induce
    op's slot map, built pair by pair."""
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
    induced = tuple(edge_index(n, sigma[i], sigma[j]) for i, j in pt)
    if sorted(sigma) != list(range(n)) or induced != pi:
        return None
    return tuple(sigma)


def oracle_relabel(g: Graph, perm: tuple[int, ...]) -> Graph:
    """relabel(g, perm), one edge at a time through edge_index."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    bits = 0
    pt = pair_table(g.n)
    for k in iter_bits(g.edges):
        i, j = pt[k]
        bits |= 1 << edge_index(g.n, perm[i], perm[j])
    return Graph(g.n, bits)


def _column_major_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


def oracle_to_graph6(g: Graph) -> str:
    """to_graph6(g), one bit per pair through edge_index, packed six at a time."""
    n = g.n
    out = [chr(n + 63)]
    stream = [(g.edges >> edge_index(n, i, j)) & 1 for i, j in _column_major_pairs(n)]
    for at in range(0, len(stream), 6):
        group = stream[at:at + 6]
        group += [0] * (6 - len(group))
        val = 0
        for bit in group:
            val = (val << 1) | bit
        out.append(chr(val + 63))
    return "".join(out)


def oracle_parse_graph6(text: str) -> Graph:
    """parse_graph6(text), unpacked to a list of bits and placed pair by pair."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise GraphFormatError(f"byte {ch!r} outside the graph6 alphabet")
    head = ord(s[0]) - 63
    if head == 63:
        raise GraphFormatError("long-form vertex counts are not supported")
    n = head
    if not 1 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} outside [1, {MAX_VERTICES}]")
    nbits = edge_slots(n)
    need = (nbits + 5) // 6
    data = s[1:]
    if len(data) != need:
        raise GraphFormatError(f"expected {need} data bytes for n={n}, got {len(data)}")
    stream: list[int] = []
    for ch in data:
        val = ord(ch) - 63
        for shift in range(5, -1, -1):
            stream.append((val >> shift) & 1)
    if any(stream[nbits:]):
        raise GraphFormatError("nonzero padding bits")
    bits = 0
    for pos, (i, j) in enumerate(_column_major_pairs(n)):
        if stream[pos]:
            bits |= 1 << edge_index(n, i, j)
    return Graph(n, bits)


def near_bijection(n: int, rng: random.Random) -> LinearOperator:
    """A random slot permutation's operator with 0 to 2 random extra edges
    ORed into random images; an extra edge may already be there."""
    slots = edge_slots(n)
    images = [1 << t for t in rng.sample(range(slots), slots)]
    for _ in range(rng.randint(0, 2) if slots else 0):
        images[rng.randrange(slots)] |= 1 << rng.randrange(slots)
    return LinearOperator(n, tuple(Graph(n, bits) for bits in images))


def support_vertices(g: Graph) -> list[int]:
    seen = set()
    for i, j in g.edge_list():
        seen.add(i)
        seen.add(j)
    return sorted(seen)


def k_friendly(counts) -> bool:
    """A labeling with these class counts is k-friendly, k = len(counts):
    every two classes differ in size by at most one."""
    return all(abs(a - b) <= 1 for a in counts for b in counts)


def brute_friendly_labelings(g: Graph):
    """Every friendly 0/1 labeling of the non-isolated vertices, as dicts."""
    sup = support_vertices(g)
    s = len(sup)
    sizes = {s // 2, s - s // 2}
    for size in sorted(sizes):
        for ones in combinations(sup, size):
            yield {v: (1 if v in ones else 0) for v in sup}


def brute_sum_cordial(g: Graph) -> bool:
    for lab in brute_friendly_labelings(g):
        c1 = sum(abs(lab[i] - lab[j]) for i, j in g.edge_list())
        if abs(g.edge_count - 2 * c1) <= 1:
            return True
    return False


def brute_product_cordial(g: Graph) -> bool:
    for lab in brute_friendly_labelings(g):
        c1 = sum(lab[i] * lab[j] for i, j in g.edge_list())
        if abs(g.edge_count - 2 * c1) <= 1:
            return True
    return False


def brute_23_orientable(g: Graph) -> bool:
    """Walk every orientation of every friendly labeling; m <= 12 or so only."""
    edges = g.edge_list()
    for lab in brute_friendly_labelings(g):
        for flips in product((0, 1), repeat=len(edges)):
            counts = {-1: 0, 0: 0, 1: 0}
            for (i, j), flip in zip(edges, flips):
                tail, head = (j, i) if flip else (i, j)
                counts[lab[head] - lab[tail]] += 1
            vals = list(counts.values())
            if max(vals) - min(vals) <= 1:
                return True
    return False


ORACLE_EDGE_LIMIT = 20


@lru_cache(maxsize=None)
def _balanced_triples(m: int) -> frozenset[int]:
    # Packed (c_minus, c_zero, c_plus) triples summing to m with pairwise gap <= 1.
    out = set()
    for a in range(m + 1):
        for b in range(m + 1 - a):
            c = m - a - b
            if max(a, b, c) - min(a, b, c) <= 1:
                out.add(a | b << 7 | c << 14)
    return frozenset(out)


def _orientation_count_table(straight: list[int], flipped: list[int]) -> list[int]:
    # Packed arc-label counts for every orientation pattern of this edge block.
    enc = {-1: 1, 0: 1 << 7, 1: 1 << 14}
    table = [0] * (1 << len(straight))
    table[0] = sum(enc[v] for v in straight)
    delta = [enc[flipped[e]] - enc[straight[e]] for e in range(len(straight))]
    for o in range(1, len(table)):
        b = o.bit_length() - 1
        table[o] = table[o - (1 << b)] + delta[b]
    return table


def oracle_23_orientable(g: Graph, ambient_friendly: bool = False) -> Verdict:
    """Brute-force orientability: every orientation of every friendly labeling.

    Kept deliberately independent of the same/cross split reduction used by
    check_23_orientable; the two must agree on every decision.
    """
    m = g.edge_count
    if m > ORACLE_EDGE_LIMIT:
        raise BudgetError(f"oracle walks 2^m orientations; m={m} exceeds {ORACLE_EDGE_LIMIT}")
    mask = _labeling_mask(g, ambient_friendly)
    labs = oracle_friendly_label_bits(mask)
    pairs = g.edge_list()
    valid = _balanced_triples(m)
    half = m // 2
    for li, lab in enumerate(labs):
        straight = [((lab >> j) & 1) - ((lab >> i) & 1) for i, j in pairs]
        flipped = [-v for v in straight]
        low = _orientation_count_table(straight[:half], flipped[:half])
        high = _orientation_count_table(straight[half:], flipped[half:])
        for ob, vb in enumerate(high):
            for oa, va in enumerate(low):
                if va + vb in valid:
                    bits = ob << half | oa
                    return Verdict(True, VertexLabeling(lab, mask), Orientation(bits, m), li + 1)
    return Verdict(False, None, None, len(labs))


def brute_least_witness(g: Graph, prop: GraphProperty) -> tuple[int | None, int]:
    """(least feasible label bitset or None, friendly labelings seen).  Sum and
    product label every edge and count the 1s; orient23 counts the same-label
    edges and tries every number d_plus of cross edges pointing 0 -> 1."""
    edges = g.edge_list()
    m = len(edges)
    best = None
    seen = 0
    for lab in brute_friendly_labelings(g):
        seen += 1
        if prop is GraphProperty.SUM:
            ok = abs(m - 2 * sum((lab[i] + lab[j]) % 2 for i, j in edges)) <= 1
        elif prop is GraphProperty.PRODUCT:
            ok = abs(m - 2 * sum(lab[i] * lab[j] for i, j in edges)) <= 1
        else:
            same = sum(1 for i, j in edges if lab[i] == lab[j])
            cross = m - same
            ok = any(
                max(same, dp, cross - dp) - min(same, dp, cross - dp) <= 1
                for dp in range(cross + 1)
            )
        if ok:
            bits = sum(1 << v for v, bit in lab.items() if bit)
            if best is None or bits < best:
                best = bits
    return best, seen


def _friendly_entries(steps: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """One entry per friendly label set over len(steps) positions, per
    popcount class ascending.  An entry starts at 0, and each position p in
    the set turns it from x into x ^ a | b, where (a, b) = steps[p].

    Built by Pascal's rule: in ascending order, the k-subsets of the first t
    positions are the k-subsets of the first t - 1, then the (k - 1)-subsets
    of the first t - 1 with position t added."""
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
def _label_masks(n: int, support: int) -> tuple[int, ...]:
    """ones | cross << C(n,2) for every friendly labeling of the support, per
    popcount class ascending: the 1-1 edges low, the cross edges high.

    Each entry is built as seen | cross << C(n,2) over the labeled vertices'
    incident slots: a labeled vertex ORs its slots into seen and XORs them
    into cross.  The 1-1 edges are then seen & ~cross."""
    shift = edge_slots(n)
    inc = incident_masks(n)
    packed = _friendly_entries(tuple((inc[v] << shift, inc[v]) for v in iter_bits(support)))
    return tuple(x & ~(x >> shift) for x in packed)


def _probe(n: int, bits: int, prop: GraphProperty) -> int:
    """The edge bitset lined up with the class prop counts in a _label_masks
    entry: the 1-1 edges for product, the cross edges otherwise."""
    return bits if prop is _PRODUCT else bits << edge_slots(n)


def oracle_decide_scan(n: int, bits: int, prop: GraphProperty, support: int) -> bool:
    """_decide_bits as a scan of the support's mask table, labeling by
    labeling, stopping at the first that passes."""
    ok = _passing(prop, bits.bit_count())
    probe = _probe(n, bits, prop)
    return any(ok >> (probe & mask).bit_count() & 1 for mask in _label_masks(n, support))


def oracle_check_scan(g: Graph, prop: GraphProperty, support: int) -> Verdict:
    """Verdict witnessed by the least feasible friendly label bitset of the
    support; the whole table is scanned, so labelings_examined is its size."""
    labs = _friendly_entries(tuple((0, 1 << p) for p in iter_bits(support)))
    ok = _passing(prop, g.edge_count)
    probe = _probe(g.n, g.edges, prop)
    best = min(
        (lab for lab, mask in zip(labs, _label_masks(g.n, support))
         if ok >> (probe & mask).bit_count() & 1),
        default=None,
    )
    if best is None:
        return Verdict(False, None, None, len(labs))
    orientation = _witness_orientation(g, best) if prop is _ORIENT23 else None
    return Verdict(True, VertexLabeling(best, support), orientation, len(labs))


def oracle_edge_masks(n: int, labels: int) -> tuple[int, int]:
    """(cross edges, both-endpoints-one edges) of a label bitset, pair by pair."""
    cross = ones = 0
    for k, (i, j) in enumerate(pair_table(n)):
        a = labels >> i & 1
        b = labels >> j & 1
        if a != b:
            cross |= 1 << k
        elif a:
            ones |= 1 << k
    return cross, ones


def brute_isomorphic(a: Graph, b: Graph) -> bool:
    """Permutation scan on the larger ambient vertex set."""
    n = max(a.n, b.n)
    ea = {tuple(sorted(e)) for e in a.edge_list()}
    eb = {tuple(sorted(e)) for e in b.edge_list()}
    if len(ea) != len(eb):
        return False
    for perm in permutations(range(n)):
        if {tuple(sorted((perm[i], perm[j]))) for i, j in ea} == eb:
            return True
    return False


def oracle_canonical_bits(g: Graph) -> int:
    """Least edge bitset over every permutation of g's non-isolated vertices,
    slots numbered in lexicographic pair order on the support alone."""
    sup = support_vertices(g)
    rank = {v: r for r, v in enumerate(sup)}
    slot = {p: k for k, p in enumerate(combinations(range(len(sup)), 2))}
    edges = [(rank[i], rank[j]) for i, j in g.edge_list()]
    best = None
    for perm in permutations(range(len(sup))):
        bits = 0
        for i, j in edges:
            a, b = perm[i], perm[j]
            bits |= 1 << slot[(a, b) if a < b else (b, a)]
        if best is None or bits < best:
            best = bits
    return best


def oracle_least_bits(adj: list[int]) -> int:
    """Least edge bitset over all orderings of the vertices 0..k-1, where
    adj[v] is the neighbour mask of v: the row-by-row search that tries every
    tied vertex, twins included, and marks placed vertices with -1."""
    k = len(adj)
    bits = 0
    states = {(0,) * k}
    for p in range(k - 1, -1, -1):
        best = min(r for pats in states for r in pats if r >= 0)
        bit = 1 << p
        nxt = set()
        for pats in states:
            for u, r in enumerate(pats):
                if r == best:
                    nu = adj[u]
                    nxt.add(tuple(
                        -1 if w == u else (q | bit if q >= 0 and nu >> w & 1 else q)
                        for w, q in enumerate(pats)
                    ))
        states = nxt
        bits |= (best >> (p + 1)) << (p * (2 * k - p - 1) // 2)
    return bits


def oracle_tuple_least_bits(adj: list[int]) -> int:
    """Least edge bitset over all orderings of the vertices 0..k-1, where
    adj[v] is the neighbour mask of v: the row-by-row search that places one
    member of each twin class at a time, on tuple states that hold each
    unplaced vertex's pattern and (1 << k) - 1 for each placed vertex."""
    k = len(adj)
    full = (1 << k) - 1
    prev: list[int] = []  # per vertex, the twin before it, or -1
    last: dict[int, int] = {}
    for v, c in enumerate(_twin_classes(adj)):
        prev.append(last.get(c, -1))
        last[c] = v
    bits = 0
    states = {(0,) * k}
    for p in range(k - 1, -1, -1):
        best = min(map(min, states))
        bit = 1 << p
        rows: dict[int, tuple[int, ...]] = {}
        nxt = set()
        for pats in states:
            for u, r in enumerate(pats):
                if r == best and (prev[u] < 0 or pats[prev[u]] == full):
                    row = rows.get(u)
                    if row is None:
                        a = adj[u]
                        row = rows[u] = tuple(full if w == u else a >> w & 1 and bit for w in range(k))
                    nxt.add(tuple(map(or_, pats, row)))
        states = nxt
        bits |= (best >> (p + 1)) << (p * (2 * k - p - 1) // 2)
    return bits


def oracle_tops_edge_invariant(n: int, bits: int, k: int) -> bool:
    """True when edge slot k has the greatest invariant among the graph's
    edges, ties counted, read off every edge's full invariant."""
    inv = _edge_invariants(n, bits)
    return inv[k] == max(inv.values())


def oracle_enumerate_keys(n: int, m: int) -> list[CanonicalKey]:
    """Sorted canonical keys of every labeled graph with m edges on n
    vertices, walked subset by subset."""
    keys = set()
    for combo in combinations(range(edge_slots(n)), m):
        keys.add(_canonical_key_bits(n, sum(1 << k for k in combo)))
    return sorted(keys)


def oracle_extend_level(n: int, m: int) -> tuple[Graph, ...]:
    """Level m built by keying every absent edge of every representative of
    enumerate_graphs(n, m - 1), sorted by canonical key."""
    slots = edge_slots(n)
    keys = {
        _canonical_key_bits(n, g.edges | 1 << k)
        for g in enumerate_graphs(n, m - 1)
        for k in range(slots)
        if not g.edges >> k & 1
    }
    return tuple(canonical_representative(key, n) for key in sorted(keys))


def count_key_calls(monkeypatch) -> list[int]:
    """A one-item list that counts ``_canonical_key_bits`` calls from now on,
    from graphs.py and extremal.py alike."""
    calls = [0]

    def counted(n, bits):
        calls[0] += 1
        return _canonical_key_bits(n, bits)

    monkeypatch.setattr("cordia.graphs._canonical_key_bits", counted)
    monkeypatch.setattr("cordia.extremal._canonical_key_bits", counted)
    return calls


def oracle_flat_levels(n: int) -> dict[int, tuple[Graph, ...]]:
    """Every level m of n within SUBSET_BUDGET, built flat: level m from level
    m - 1 of the same n alone, keying each child (one absent edge per pair of
    twin classes) whose new edge tops the edge invariant, whatever its
    support; a level above half the slots is the complements of its mirror."""
    slots = edge_slots(n)
    levels = {0: (canonical_representative(CanonicalKey(0, 0, 0), n),)}
    m = 1
    while 2 * m <= slots and comb(slots, m) <= SUBSET_BUDGET:
        keys = {
            _canonical_key_bits(n, g.edges | 1 << k)
            for g in levels[m - 1]
            for k in _extension_slots(g)
            if _tops_edge_invariant(n, g.edges | 1 << k, k)
        }
        levels[m] = tuple(canonical_representative(key, n) for key in sorted(keys))
        m += 1
    full = (1 << slots) - 1
    for mm in list(levels):
        keys = {_canonical_key_bits(n, full ^ g.edges) for g in levels[mm]}
        levels[slots - mm] = tuple(canonical_representative(key, n) for key in sorted(keys))
    return levels


def column_label_bits(mask: int) -> tuple[int, ...]:
    """Friendly label bitsets over the vertices in mask, ascending: the
    entries of _label_columns put on mask."""
    positions = list(iter_bits(mask))
    cols = _label_columns(len(positions))
    return tuple(
        sum(1 << p for col, p in zip(cols, positions) if col >> i & 1)
        for i in range(_lane_count(len(positions)))
    )


def oracle_friendly_label_bits(mask: int) -> tuple[int, ...]:
    """Friendly label bitsets over the vertices in mask, ascending, by Gosper
    iteration over the compact positions, one popcount class at a time."""
    positions = list(iter_bits(mask))
    s = len(positions)
    sizes = (s // 2,) if s % 2 == 0 else (s // 2, s - s // 2)
    out = []
    for size in sizes:
        if size == 0:
            out.append(0)
            continue
        x = (1 << size) - 1
        while x < 1 << s:
            v = 0
            for b in iter_bits(x):
                v |= 1 << positions[b]
            out.append(v)
            c = x & -x
            r = x + c
            x = (((r ^ x) >> 2) // c) | r
    return tuple(sorted(out))


def oracle_empirical_max(prop: GraphProperty, n: int) -> tuple[int, Graph]:
    """(largest satisfying edge count, least-key witness) on at most n vertices,
    walked one labeled edge subset at a time from the complete graph down."""
    if n < 2:
        raise ValueError("need at least one potential edge")
    slots = edge_slots(n)
    full = (1 << slots) - 1
    inc = incident_masks(n)
    for m in range(slots, 0, -1):
        mm = min(m, slots - m)
        if comb(slots, mm) > SUBSET_BUDGET:
            raise BudgetError(
                f"level (n={n}, m={m}) has {comb(slots, mm)} subsets; budget is {SUBSET_BUDGET}"
            )
        flip = mm != m
        satisfying = []
        for combo in combinations(range(slots), mm):
            bits = 0
            for k in combo:
                bits |= 1 << k
            if flip:
                bits ^= full
            sup = 0
            for v in range(n):
                if bits & inc[v]:
                    sup |= 1 << v
            if oracle_decide_scan(n, bits, prop, sup):
                satisfying.append((sup.bit_count(), bits, sup))
        if satisfying:
            # The satisfying set covers the full permutation orbit of each of
            # its classes, so the least canonical key can be read off the raw
            # bitsets of the minimal-support graphs sitting on a vertex prefix.
            size = min(row[0] for row in satisfying)
            prefix = (1 << size) - 1
            pt = pair_table(n)
            best = None
            for _, bits, sup in satisfying:
                if sup != prefix:
                    continue
                if size == n:
                    small = bits
                else:
                    small = 0
                    for k in iter_bits(bits):
                        i, j = pt[k]
                        small |= 1 << edge_index(size, i, j)
                if best is None or small < best:
                    best = small
            key = CanonicalKey(size, m, best)
            return m, canonical_representative(key, n)
    raise AssertionError("unreachable: a single edge satisfies every property")


def burnside_graph_count(n: int) -> int:
    """Number of graphs on n labeled-up-to-iso vertices, by orbit counting:
    average over S_n of 2^(cycles of the induced action on vertex pairs)."""
    total = 0
    pairs = list(combinations(range(n), 2))
    index = {p: k for k, p in enumerate(pairs)}
    for perm in permutations(range(n)):
        image = [index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs]
        seen = [False] * len(pairs)
        cycles = 0
        for k in range(len(pairs)):
            if not seen[k]:
                cycles += 1
                cur = k
                while not seen[cur]:
                    seen[cur] = True
                    cur = image[cur]
        total += 1 << cycles
    return total // factorial(n)


def oracle_membership_bitmap(n: int, prop: GraphProperty) -> int:
    """membership_bitmap(n, prop), one mask-table scan per nonempty graph;
    each graph's support extends that of the graph without its lowest edge."""
    slots = edge_slots(n)
    endpoint = [(1 << i) | (1 << j) for i, j in pair_table(n)]
    support = [0] * (1 << slots)
    bitmap = 0
    for g in range(1, 1 << slots):
        low = g & -g
        sup = support[g ^ low] | endpoint[low.bit_length() - 1]
        support[g] = sup
        if oracle_decide_scan(n, g, prop, sup):
            bitmap |= 1 << g
    return bitmap


def oracle_edge_variable(slots: int, k: int) -> int:
    """_edge_variable(slots, k): the all-ones table over 2^slots positions
    divided by 2^(2^k) + 1 is the blocks of 2^k set then 2^k clear bits,
    shifted up by 2^k."""
    width = 1 << k
    return ((1 << (1 << slots)) - 1) // ((1 << width) + 1) << width


def oracle_level_tables(slots: int) -> tuple[int, ...]:
    """_level_tables(slots), read off one bit-sliced sum of the edge variables."""
    planes = _sliced_sum(oracle_edge_variable(slots, k) for k in range(slots))
    full = (1 << (1 << slots)) - 1
    return tuple(_lanes_counting(planes, 1 << m, full) for m in range(slots + 1))


def oracle_edge_count_determined(bm: int, slots: int) -> bool:
    """True when membership is constant on every edge-count level, graph by graph."""
    level: dict[int, int] = {}
    for g in range(1 << slots):
        if level.setdefault(g.bit_count(), bm >> g & 1) != bm >> g & 1:
            return False
    return True


def oracle_scan_order(n: int, prop: GraphProperty) -> tuple[str, tuple[int, ...]]:
    """Sample mode's (flags, scan order): its mixed levels' non-members, the
    levels concatenated.  Every nonempty graph is sorted into its edge-count
    level one at a time; mixed levels kept, members dropped."""
    slots = edge_slots(n)
    flags = format(membership_bitmap(n, prop), f"0{1 << slots}b")[::-1]
    levels: dict[int, tuple[list[int], list[int]]] = {}
    for g in range(1, 1 << slots):
        levels.setdefault(g.bit_count(), ([], []))[flags[g] == "1"].append(g)
    order: list[int] = []
    for m in sorted(levels):
        non, mem = levels[m]
        if non and mem:
            order.extend(non)
    return flags, tuple(order)


def oracle_strongly_preserves(op, prop) -> int | None:
    """Least graph (as an edge bitset) whose membership op changes, or None:
    every graph in ascending order, its image the union of its edges' images."""
    bm = membership_bitmap(op.n, prop)
    images = [im.edges for im in op.images]
    for g in range(1 << edge_slots(op.n)):
        img = 0
        for k in range(len(images)):
            if g >> k & 1:
                img |= images[k]
        if (bm >> g ^ bm >> img) & 1:
            return g
    return None


def oracle_exhaustive_survivors(n: int, prop) -> list[tuple[int, ...]]:
    """Every slot bijection, in lexicographic order, that keeps membership of
    every graph.  Each bijection is scanned over all nonempty graphs; edge-count
    levels of mixed membership go first, non-members leading, only so that
    failing bijections are dropped early."""
    bm = membership_bitmap(n, prop)
    slots = edge_slots(n)
    levels: dict[int, tuple[list[int], list[int]]] = {}
    for g in range(1, 1 << slots):
        levels.setdefault(g.bit_count(), ([], []))[bm >> g & 1].append(g)
    mixed = [lv for _, lv in sorted(levels.items()) if lv[0] and lv[1]]
    uniform = [lv for _, lv in sorted(levels.items()) if not (lv[0] and lv[1])]
    order = [g for non, mem in mixed + uniform for g in non + mem]
    pairs = [(g, [k for k in range(slots) if g >> k & 1]) for g in order]
    passing = []
    for pi in permutations(range(slots)):
        for g, ks in pairs:
            img = 0
            for k in ks:
                img |= 1 << pi[k]
            if (bm >> g ^ bm >> img) & 1:
                break
        else:
            passing.append(pi)
    return passing


def oracle_pruned_bijections(n: int, bm: int) -> list[tuple[int, ...]]:
    """Every slot bijection that keeps membership in the table bm, in
    lexicographic order, by the prefix search over a per-graph image array.

    Slots 0, 1, ... get their images in order, targets tried in ascending
    order.  Once slot j-1 has one, every graph whose highest slot is j-1 is
    fully mapped; its image is extended from the image of the graph without
    that slot and its membership compared."""
    slots = edge_slots(n)
    member = format(bm, f"0{1 << slots}b")[::-1]
    image = [0] * (1 << slots)
    used = [False] * slots
    pi: list[int] = []
    passing: list[tuple[int, ...]] = []

    def extend(j: int) -> None:
        if j == slots:
            passing.append(tuple(pi))
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


@lru_cache(maxsize=None)
def _edge_list_table(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(iter_bits(g)) for g in range(1 << edge_slots(n)))


@lru_cache(maxsize=None)
def _scan_pairs(n: int, prop: GraphProperty) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(graph bitset, edge list) pairs covering every nonempty graph, ordered so
    that bijection mismatches surface early: edge-count levels of mixed
    membership come first, non-members leading; uniform levels follow."""
    bm = membership_bitmap(n, prop)
    levels: dict[int, tuple[list[int], list[int]]] = {}
    for g in range(1, 1 << edge_slots(n)):
        levels.setdefault(g.bit_count(), ([], []))[bm >> g & 1].append(g)
    mixed, uniform = [], []
    for m in sorted(levels):
        non, mem = levels[m]
        (mixed if non and mem else uniform).append((non, mem))
    order: list[int] = []
    for non, mem in mixed + uniform:
        order.extend(non)
        order.extend(mem)
    table = _edge_list_table(n)
    return tuple((g, table[g]) for g in order)


def _bijection_counterexample(pi, pairs, bm) -> int | None:
    for g, ks in pairs:
        img = 0
        for k in ks:
            img |= 1 << pi[k]
        if (bm >> g ^ bm >> img) & 1:
            return g
    return None


def oracle_sample_draws(slots: int, seed: int, count: int) -> tuple[tuple[int, ...], ...]:
    """_sample_draws(slots, seed, count): index i's edge map is
    random.Random(f"{seed}:{i}").sample(range(slots), slots)."""
    rng = random.Random()
    draws = []
    for i in range(count):
        rng.seed(f"{seed}:{i}")
        draws.append(tuple(rng.sample(range(slots), slots)))
    return tuple(draws)


def oracle_sample_report(n: int, prop: GraphProperty, count: int, seed: int) -> SearchReport:
    """search_strong_preservers(n, prop, "sample", count, seed): each index i
    draws its edge map from a fresh random.Random(f"{seed}:{i}"), and each
    non-vertex map is scanned over every nonempty graph in _scan_pairs order
    until its first mismatch."""
    pairs = _scan_pairs(n, prop)
    bm = membership_bitmap(n, prop)
    vset = frozenset(_vertex_edge_maps(n))
    slots = edge_slots(n)
    discarded = 0
    passing = []
    failures = []
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        pi = tuple(rng.sample(range(slots), slots))
        if pi in vset:
            discarded += 1
            continue
        cex = _bijection_counterexample(pi, pairs, bm)
        if cex is None:
            passing.append(pi)
        else:
            failures.append(SampleFailure(i, pi, Graph(n, cex)))
    ops = tuple(_operator_from_edge_map(n, pi) for pi in passing)
    return SearchReport(n, prop, "sample", count, ops, discarded, tuple(failures))
