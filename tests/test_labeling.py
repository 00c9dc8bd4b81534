"""Friendly labelings, edge rules, and the three decision procedures."""

import random
import re
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cordia import (
    BudgetError,
    GraphProperty,
    Orientation,
    VertexLabeling,
    bounds_for,
    check_23_cordial_digraph,
    check_23_orientable,
    check_property,
    complete,
    edge_slots,
    empirical_max_edges,
    empty,
    enumerate_graphs,
    has_property,
    identity_operator,
    induced_edge_counts,
    make_graph,
    membership_bitmap,
    minimal_noncordial,
    named,
    orientation_feasible,
    relabel,
    search_strong_preservers,
    strongly_preserves,
    survey,
)
from cordia.graphs import MAX_VERTICES, iter_bits
from cordia.labeling import (
    _check,
    _decide_bits,
    _label_columns,
    _labeling_mask,
    _passing,
    _probed_edges,
    _split_feasible,
)

from conftest import (
    _friendly_entries,
    _label_masks,
    brute_23_orientable,
    brute_friendly_labelings,
    brute_least_witness,
    brute_product_cordial,
    brute_sum_cordial,
    column_label_bits,
    k_friendly,
    oracle_23_orientable,
    oracle_check_scan,
    oracle_edge_masks,
    oracle_friendly_label_bits,
    oracle_orientation_feasible,
)

ALL_PROPERTIES = tuple(GraphProperty)


# ---------------------------------------------------------------- friendliness

@pytest.mark.parametrize("tag", ["2-star", "2k2", "3k2", "c4", "paw", "petersen"])
def test_friendly_labeling_count(tag):
    g = named(tag)
    s = g.support_size()
    expected = comb(s, s // 2) if s % 2 == 0 else 2 * comb(s, s // 2)
    support_mask = g.support_mask()
    labs = column_label_bits(support_mask)
    assert len(labs) == expected
    for lab in labs:
        assert lab & ~support_mask == 0
        ones = lab.bit_count()
        assert k_friendly([s - ones, ones])


@pytest.mark.parametrize("tag", ["2k2", "triangle", "3k2", "paw"])
def test_friendly_labelings_match_brute(tag):
    g = named(tag)
    got = set(column_label_bits(g.support_mask()))
    want = set()
    for assign in brute_friendly_labelings(g):
        want.add(sum(1 << v for v, bit in assign.items() if bit))
    assert got == want


def test_ambient_friendly_balances_over_all_vertices():
    g = make_graph(5, [(0, 1)])  # three isolated vertices
    plain = set(column_label_bits(g.support_mask()))
    ambient = set(column_label_bits((1 << g.n) - 1))
    assert plain == {0b01, 0b10}
    # 5 vertices, 2 or 3 ones
    assert len(ambient) == comb(5, 2) + comb(5, 3)


def test_vertex_labeling_rejects_labels_outside_support():
    with pytest.raises(ValueError):
        VertexLabeling(labels=0b100, support=0b011)


def test_orientation_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        Orientation(bits=4, edge_count=2)


# ------------------------------------------------------------------ edge rules

def test_induced_edge_counts_frozen_examples():
    two_matching = named("2k2")  # edges (0,1), (2,3)
    lab = VertexLabeling(0b0011, two_matching.support_mask())  # ones on 0 and 1
    assert induced_edge_counts(two_matching, lab, GraphProperty.SUM) == (2, 0)

    triangle = named("triangle")
    lab = VertexLabeling(0b001, triangle.support_mask())  # one vertex labeled 1
    assert induced_edge_counts(triangle, lab, GraphProperty.SUM) == (1, 2)

    star = named("k13")  # center 0, leaves 1..3
    lab = VertexLabeling(0b0011, star.support_mask())  # ones on center and leaf 1
    assert induced_edge_counts(star, lab, GraphProperty.PRODUCT) == (2, 1)


def assert_probed_edges_match_oracle(n, labels):
    cross, ones = oracle_edge_masks(n, labels)
    for prop in ALL_PROPERTIES:
        want = ones if prop is GraphProperty.PRODUCT else cross
        assert _probed_edges(n, labels, prop) == want, (n, labels, prop)


@pytest.mark.parametrize("n", range(1, 9))
def test_edge_masks_match_pair_loop_oracle_on_every_label_bitset(n):
    for labels in range(1 << n):
        assert_probed_edges_match_oracle(n, labels)


@pytest.mark.parametrize("n", range(9, MAX_VERTICES + 1))
def test_edge_masks_match_pair_loop_oracle_on_seeded_label_bitsets(n):
    rng = random.Random(n)
    for _ in range(200):
        assert_probed_edges_match_oracle(n, rng.getrandbits(n))


@pytest.mark.parametrize("s", [0, 2, 5, 9, 12, 15, 16])
def test_label_masks_match_pair_loop_oracle_entry_by_entry(s):
    rng = random.Random(s)
    n = MAX_VERTICES
    support = sum(1 << v for v in rng.sample(range(n), s))
    shift = edge_slots(n)
    masks = _label_masks(n, support)
    # _label_masks keeps its entries per popcount class; the oracle ascends.
    labs = _friendly_entries(tuple((0, 1 << p) for p in iter_bits(support)))
    assert sorted(labs) == list(oracle_friendly_label_bits(support))
    assert len(masks) == len(labs)
    for lab, mask in zip(labs, masks):
        cross, ones = oracle_edge_masks(n, lab)
        assert mask == ones | cross << shift, lab


def test_passing_counts_match_the_definitions():
    # c counts the probed class: cross edges for sum and orient23, 1-1 edges
    # for product; no count above m may pass.
    for m in range(edge_slots(MAX_VERTICES) + 1):
        for prop in ALL_PROPERTIES:
            ok = _passing(prop, m)
            assert ok >> m + 1 == 0
            for c in range(m + 1):
                if prop is GraphProperty.ORIENT23:
                    want = _split_feasible(m - c, c)
                else:
                    want = -1 <= m - 2 * c <= 1
                assert bool(ok >> c & 1) == want, (prop, m, c)


@pytest.mark.parametrize(
    "call",
    [
        lambda g, lab: induced_edge_counts(g, lab, GraphProperty.SUM),
        lambda g, lab: induced_edge_counts(g, lab, GraphProperty.PRODUCT),
        lambda g, lab: check_23_cordial_digraph(g, Orientation(0, g.edge_count), lab),
    ],
    ids=["induced-sum", "induced-product", "digraph"],
)
@pytest.mark.parametrize("labels", [0b110000, 0b010001, 0b1 << 15])
def test_labelings_naming_vertices_outside_the_graph_are_rejected(call, labels):
    # The paw has vertices 0..3; each labeling names a vertex at 4 or above.
    with pytest.raises(ValueError, match="outside the graph"):
        call(named("paw"), VertexLabeling(labels, labels))


def test_induced_edge_counts_rejects_arc_rule():
    g = named("triangle")
    lab = VertexLabeling(0b1, g.support_mask())
    with pytest.raises(ValueError):
        induced_edge_counts(g, lab, GraphProperty.ORIENT23)


# ---------------------------------------------------------------- orientations

def test_orientation_feasible_frozen():
    assert orientation_feasible(1, 2) == (1, 1)
    assert orientation_feasible(0, 3) is None
    assert orientation_feasible(5, 9) == (4, 5)
    assert orientation_feasible(0, 0) == (0, 0)
    assert orientation_feasible(2, 0) is None


def test_split_rule_closed_form_matches_orientation_feasible():
    for s in range(130):
        for d in range(130):
            want = oracle_orientation_feasible(s, d)
            assert orientation_feasible(s, d) == want, (s, d)
            assert _split_feasible(s, d) == (want is not None), (s, d)


def test_orientation_feasible_matches_brute_split_scan():
    for s in range(11):
        for d in range(11):
            out = orientation_feasible(s, d)
            splits = [
                (dp, d - dp)
                for dp in range(d + 1)
                if k_friendly([s, dp, d - dp])
            ]
            if splits:
                assert out == splits[0]  # first feasible split, d_plus ascending
            else:
                assert out is None


# --------------------------------------------------------------- the decisions

def verify_witness(g, prop, verdict):
    """Re-derive the verdict's witness from first principles."""
    assert verdict.decision
    lab = verdict.labeling
    size = lab.support.bit_count()
    ones = lab.labels.bit_count()
    assert k_friendly([size - ones, ones])
    if prop is GraphProperty.SUM:
        assert k_friendly(induced_edge_counts(g, lab, GraphProperty.SUM))
    elif prop is GraphProperty.PRODUCT:
        assert k_friendly(induced_edge_counts(g, lab, GraphProperty.PRODUCT))
    else:
        assert verdict.orientation is not None
        assert check_23_cordial_digraph(g, verdict.orientation, lab)


# Cross-verified against the brute oracles in conftest (see the test below this
# table); petersen's orientability entry walks all 2^15 orientations there.
NAMED_DECISIONS = {
    "2-star": (True, True, True),
    "2k2": (False, True, True),
    "3-path": (True, True, True),
    "3k2": (True, True, False),
    "c4": (True, False, True),
    "k13": (True, True, True),
    "paw": (True, False, True),
    "petersen": (True, False, False),
    "triangle": (True, True, True),
}


@pytest.mark.parametrize("tag", sorted(NAMED_DECISIONS))
def test_named_graph_decisions_frozen(tag):
    g = named(tag)
    expected = NAMED_DECISIONS[tag]
    for prop, want in zip(ALL_PROPERTIES, expected):
        verdict = check_property(g, prop)
        assert verdict.decision is want, (tag, prop)
        assert has_property(g, prop) is want
        if want:
            verify_witness(g, prop, verdict)


@pytest.mark.parametrize("tag", sorted(NAMED_DECISIONS))
def test_named_graph_decisions_match_brute(tag):
    g = named(tag)
    # The naive orientation walk is O(labelings * 2^m); above 8 edges use the
    # packed oracle, which the tests below pin against the naive walk.
    orient = (
        brute_23_orientable(g)
        if g.edge_count <= 8
        else oracle_23_orientable(g).decision
    )
    brute = (brute_sum_cordial(g), brute_product_cordial(g), orient)
    assert brute == NAMED_DECISIONS[tag]


def test_decisions_match_brute_on_all_five_vertex_classes():
    for m in range(1, 11):
        for g in enumerate_graphs(5, m):
            assert check_property(g, GraphProperty.SUM).decision == brute_sum_cordial(g)
            assert check_property(g, GraphProperty.PRODUCT).decision == brute_product_cordial(g)
            assert check_23_orientable(g).decision == brute_23_orientable(g)


def test_witnesses_on_all_five_vertex_classes():
    for m in range(1, 11):
        for g in enumerate_graphs(5, m):
            for prop in ALL_PROPERTIES:
                verdict = check_property(g, prop)
                if verdict.decision:
                    verify_witness(g, prop, verdict)


def test_witness_is_smallest_feasible_label_bitset():
    # Determinism pin: the reported labeling is the least feasible bitset.
    for tag in ["c4", "paw", "triangle", "3-path"]:
        g = named(tag)
        for prop in ALL_PROPERTIES:
            verdict = check_property(g, prop)
            if not verdict.decision:
                continue
            feasible = []
            for labels in column_label_bits(g.support_mask()):
                lab = VertexLabeling(labels, g.support_mask())
                if prop is GraphProperty.ORIENT23:
                    d = induced_edge_counts(g, lab, GraphProperty.SUM)[1]
                    ok = orientation_feasible(g.edge_count - d, d) is not None
                else:
                    ok = k_friendly(induced_edge_counts(g, lab, prop))
                if ok:
                    feasible.append(labels)
            assert verdict.labeling.labels == min(feasible)


def _scattered_graphs(support, density, count, seed):
    # Every one of the `support` vertices has an edge; they sit at random
    # positions among support + 2 vertices (at most MAX_VERTICES), so below
    # support 15 the support is not a prefix.
    rng = random.Random(seed)
    n = min(support + 2, MAX_VERTICES)
    out = []
    while len(out) < count:
        pos = rng.sample(range(n), support)
        edges = [
            (pos[i], pos[j])
            for i in range(support)
            for j in range(i + 1, support)
            if rng.random() < density
        ]
        g = make_graph(n, edges)
        if g.support_size() == support:
            out.append(g)
    return out


@pytest.mark.parametrize("support", range(6, 11))
@pytest.mark.parametrize("density", [0.25, 0.75])
def test_least_witness_matches_brute_force_past_support_five(support, density):
    for g in _scattered_graphs(support, density, 5, seed=support):
        for prop in ALL_PROPERTIES:
            verdict = check_property(g, prop)
            best, friendly = brute_least_witness(g, prop)
            assert verdict.decision is (best is not None), (g, prop)
            assert verdict.labelings_examined == friendly
            if best is not None:
                assert verdict.labeling.labels == best
                assert verdict.labeling.support == g.support_mask()
                verify_witness(g, prop, verdict)


def _modes(prop):
    return (False, True) if prop is GraphProperty.ORIENT23 else (False,)


@pytest.mark.parametrize("n", range(2, 6))
def test_check_matches_scan_oracle_on_every_small_edge_bitset(n):
    # The bit-sliced deciders against the table scan they replaced: the same
    # decision, Verdict, witness, orientation and count, orient23 also in
    # ambient mode.
    for bits in range(1, 1 << edge_slots(n)):
        g = _graph_from_bits(n, bits)
        for prop in ALL_PROPERTIES:
            for ambient in _modes(prop):
                support = _labeling_mask(g, ambient)
                oracle = oracle_check_scan(g, prop, support)
                assert _check(g, prop, support) == oracle, (g, prop)
                assert _decide_bits(n, bits, prop, support) == oracle.decision, (g, prop)


@pytest.mark.parametrize("support", range(11, MAX_VERTICES + 1))
@pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
def test_check_matches_scan_oracle_at_large_supports(support, density):
    # Past support 10 brute_least_witness is too slow; the table scan is not.
    for g in _scattered_graphs(support, density, 2, seed=support):
        for prop in ALL_PROPERTIES:
            for ambient in _modes(prop):
                mask = _labeling_mask(g, ambient)
                oracle = oracle_check_scan(g, prop, mask)
                assert _check(g, prop, mask) == oracle, (g, prop)
                assert _decide_bits(g.n, g.edges, prop, mask) == oracle.decision, (g, prop)


@pytest.mark.parametrize("s", range(1, MAX_VERTICES + 1))
def test_label_columns_transpose_the_compact_friendly_table(s):
    # Witness minimality reads the lowest passing lane, so the lanes ascend.
    table = oracle_friendly_label_bits((1 << s) - 1)
    cols = _label_columns(s)
    assert len(cols) == s
    lanes = len(table)
    rows = [format(col, f"0{lanes}b")[::-1] for col in cols]
    assert all(len(row) == lanes for row in rows)  # no bit at or past the last entry
    for i, entry in enumerate(table):
        assert entry == sum(1 << v for v, row in enumerate(rows) if row[i] == "1"), (s, i)


@pytest.mark.parametrize("n", range(7, MAX_VERTICES + 1))
def test_decisions_are_invariant_under_vertex_relabeling(n):
    # Seeded graphs and relabelings beyond the n <= 6 of criterion 13; the
    # bulk decider must also agree with the witness search on both graphs.
    rng = random.Random(n)
    for density in (0.2, 0.5, 0.8):
        bits = 0
        while not bits:
            bits = sum(1 << k for k in range(edge_slots(n)) if rng.random() < density)
        g = _graph_from_bits(n, bits)
        h = relabel(g, tuple(rng.sample(range(n), n)))
        for prop in ALL_PROPERTIES:
            a = check_property(g, prop)
            b = check_property(h, prop)
            assert (a.decision, a.labelings_examined) == (b.decision, b.labelings_examined)
            assert has_property(g, prop) == has_property(h, prop) == a.decision


def test_labelings_examined_is_the_full_scan_size():
    g = named("2k2")
    verdict = check_property(g, GraphProperty.SUM)
    assert not verdict.decision
    assert verdict.labelings_examined == comb(4, 2)
    verdict = check_property(g, GraphProperty.PRODUCT)
    assert verdict.decision
    assert verdict.labelings_examined == comb(4, 2)


# ------------------------------------------------- ambient-friendly exception

def test_three_matchings_orientable_only_with_an_extra_vertex():
    edges = [(0, 1), (2, 3), (4, 5)]
    assert not check_23_orientable(make_graph(6, edges)).decision
    padded = make_graph(7, edges)
    # Support-balanced labelings ignore the isolated vertex: still infeasible.
    assert not check_23_orientable(padded).decision
    verdict = check_23_orientable(padded, ambient_friendly=True)
    assert verdict.decision
    assert check_23_cordial_digraph(padded, verdict.orientation, verdict.labeling)
    # The independent oracle agrees in both modes.
    assert not oracle_23_orientable(make_graph(6, edges)).decision
    assert oracle_23_orientable(padded, ambient_friendly=True).decision


def test_oracle_agrees_with_reduction_on_five_vertex_classes():
    for m in range(1, 11):
        for g in enumerate_graphs(5, m):
            slow = oracle_23_orientable(g)
            fast = check_23_orientable(g)
            assert slow.decision == fast.decision
            if slow.decision:
                assert check_23_cordial_digraph(g, slow.orientation, slow.labeling)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_ambient_orientability_matches_oracle_on_padded_graphs(n):
    # Every class on n - 1 vertices with at most 12 edges, placed at seeded
    # positions among n vertices; at n = 7 and 8 some fail on their support
    # and pass with the isolated vertex counted, and one at n = 8 fails both.
    rng = random.Random(n)
    for m in range(1, min(12, edge_slots(n - 1)) + 1):
        for c in enumerate_graphs(n - 1, m):
            pos = rng.sample(range(n), n - 1)
            g = make_graph(n, [(pos[i], pos[j]) for i, j in c.edge_list()])
            fast = check_23_orientable(g, ambient_friendly=True)
            assert fast.decision == oracle_23_orientable(g, ambient_friendly=True).decision, g
            assert fast.labelings_examined == comb(n, n // 2) * (1 + n % 2)
            if fast.decision:
                assert check_23_cordial_digraph(g, fast.orientation, fast.labeling)


def test_oracle_refuses_past_its_edge_budget():
    with pytest.raises(BudgetError):
        oracle_23_orientable(complete(7))  # 21 edges


# ------------------------------------------------------------------ edge cases

def test_edgeless_graphs_are_rejected():
    g = empty(3)
    for prop in ALL_PROPERTIES:
        with pytest.raises(ValueError):
            check_property(g, prop)
        with pytest.raises(ValueError):
            has_property(g, prop)


PROPERTY_ENTRY_POINTS = {
    "check_property": lambda p: check_property(named("c4"), p),
    "has_property": lambda p: has_property(named("c4"), p),
    "induced_edge_counts": lambda p: induced_edge_counts(named("paw"), VertexLabeling(0b0011, 0b1111), p),
    "membership_bitmap": lambda p: membership_bitmap(4, p),
    "bounds_for": lambda p: bounds_for(p, 6),
    "survey": lambda p: survey(p, 6),
    "empirical_max_edges": lambda p: empirical_max_edges(p, 6),
    "minimal_noncordial": lambda p: minimal_noncordial(p, 6),
    "strongly_preserves": lambda p: strongly_preserves(identity_operator(4), p),
    "search_strong_preservers": lambda p: search_strong_preservers(4, p, "exhaustive"),
}


@pytest.mark.parametrize("bad", ["product", "PRODUCT", 7, None], ids=repr)
@pytest.mark.parametrize("entry", sorted(PROPERTY_ENTRY_POINTS))
def test_a_property_that_is_no_member_is_a_value_error(entry, bad):
    # The deciders dispatch on identity, so anything else would be answered
    # as sum (or as orient23 by bounds_for); no table is cached for it.
    cached = membership_bitmap.cache_info().currsize
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        PROPERTY_ENTRY_POINTS[entry](bad)
    assert membership_bitmap.cache_info().currsize == cached


@pytest.mark.parametrize("s", range(MAX_VERTICES + 1))
def test_friendly_label_bits_match_gosper_oracle_on_full_masks(s):
    mask = (1 << s) - 1
    assert column_label_bits(mask) == oracle_friendly_label_bits(mask)


def test_friendly_label_bits_match_gosper_oracle_on_seeded_masks():
    rng = random.Random(9)
    for _ in range(200):
        mask = rng.getrandbits(MAX_VERTICES)
        assert column_label_bits(mask) == oracle_friendly_label_bits(mask), mask


def test_friendly_label_sets_are_the_subsets_in_the_support_size_window():
    # The lemma membership_bitmap loops over label sets by: L is friendly on
    # S exactly when L is within S and |S| is 2|L| - 1, 2|L| or 2|L| + 1.
    for support in range(1 << 8):
        friendly = set(oracle_friendly_label_bits(support))
        s = support.bit_count()
        for labels in range(1 << 8):
            lemma = labels & ~support == 0 and abs(s - 2 * labels.bit_count()) <= 1
            assert (labels in friendly) == lemma, (support, labels)


def test_friendly_label_bits_ordering_is_stable():
    # Relied on for witness minimality: ascending, both popcount classes
    # interleaved for odd supports.
    labs = column_label_bits(0b111)
    assert labs == (0b001, 0b010, 0b011, 0b100, 0b101, 0b110)


def _graph_from_bits(n, bits):
    from cordia import edge_slots
    from cordia.graphs import pair_table

    pairs = [pair_table(n)[k] for k in range(edge_slots(n)) if bits >> k & 1]
    return make_graph(n, pairs)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    slots = n * (n - 1) // 2
    bits = draw(st.integers(min_value=1, max_value=(1 << slots) - 1))
    return _graph_from_bits(n, bits)


@given(small_graphs())
@settings(deadline=None, derandomize=True, max_examples=150)
def test_fast_decision_agrees_with_witness_scan(g):
    for prop in ALL_PROPERTIES:
        assert has_property(g, prop) == check_property(g, prop).decision
