"""Edge-count bounds, exhaustive empirical maxima, and minimal failing classes.

The empirical maxima are read off the isomorphism classes; the labeled
subset walk they replaced is kept in conftest as their oracle."""

from math import comb

import pytest

import cordia.extremal as extremal_module
from cordia import (
    BudgetError,
    GraphProperty,
    bound_23_orientable,
    bound_product_cordial,
    bound_sum_cordial,
    bounds_for,
    canonical_form,
    complete,
    empirical_max_edges,
    enumerate_graphs,
    has_property,
    make_graph,
    minimal_noncordial,
    parse_graph6,
    survey,
    to_graph6,
)
from cordia.graphs import _edge_count_classes

from conftest import (
    brute_23_orientable,
    brute_isomorphic,
    brute_least_witness,
    brute_product_cordial,
    brute_sum_cordial,
    oracle_23_orientable,
    oracle_empirical_max,
)

BRUTE = {
    GraphProperty.SUM: brute_sum_cordial,
    GraphProperty.PRODUCT: brute_product_cordial,
    GraphProperty.ORIENT23: brute_23_orientable,
}


# ------------------------------------------------------------- bound formulas

def test_bound_sum_cordial_frozen():
    assert [bound_sum_cordial(n) for n in range(4, 9)] == [5, 9, 13, 19, 25]
    with pytest.raises(ValueError):
        bound_sum_cordial(3)


def test_bound_product_cordial_frozen():
    assert [bound_product_cordial(n) for n in range(4, 8)] == [
        (2, 3),
        (6, 7),
        (6, 7),
        (12, 13),
    ]
    for n in range(4, 8):
        stated, adjusted = bound_product_cordial(n)
        assert adjusted == stated + 1
    with pytest.raises(ValueError):
        bound_product_cordial(3)


def test_bound_23_orientable_frozen():
    assert [bound_23_orientable(n) for n in range(6, 9)] == [14, 18, 24]
    with pytest.raises(ValueError):
        bound_23_orientable(5)


def test_bounds_for_dispatch():
    assert bounds_for(GraphProperty.SUM, 6) == (13, None)
    assert bounds_for(GraphProperty.PRODUCT, 6) == (6, 7)
    assert bounds_for(GraphProperty.ORIENT23, 6) == (14, None)


# ------------------------------------------------------------ empirical maxima

SUM_EMPIRICAL = {
    4: (5, "C}"),
    5: (9, "D~w"),
    6: (13, "E~~_"),
    7: (19, "F~~~_"),
    8: (25, "G~~~~_"),
    9: (33, "H~~~~~w"),
}
PRODUCT_EMPIRICAL = {4: (3, "Cw"), 5: (7, "D}o"), 6: (7, "E}o?"), 7: (13, "F~zE?")}
ORIENT_EMPIRICAL = {6: (14, "E~~o"), 7: (19, "F~~~_"), 8: (25, "G~~~vo"), 9: (31, "H~~~~rw")}

# The cells the subset walk answered under its former per-property caps
# (sum n <= 8, product n <= 7, orient23 n <= 7), plus sum n=9 and orient23
# n=8, which it settles in a fraction of a second.  Orient23 n=9 takes it
# about 10 s and product n=8 is over SUBSET_BUDGET.
ORACLE_CELLS = (
    [(GraphProperty.SUM, n) for n in range(2, 10)]
    + [(GraphProperty.PRODUCT, n) for n in range(2, 8)]
    + [(GraphProperty.ORIENT23, n) for n in range(2, 9)]
)


def _check_empirical(prop, n, expected_m, expected_g6):
    m, witness = empirical_max_edges(prop, n)
    assert m == expected_m
    assert to_graph6(witness) == expected_g6
    assert witness.edge_count == m
    assert has_property(witness, prop)
    return witness


@pytest.mark.parametrize("n", sorted(SUM_EMPIRICAL))
def test_empirical_sum_frozen(n):
    m, g6 = SUM_EMPIRICAL[n]
    witness = _check_empirical(GraphProperty.SUM, n, m, g6)
    assert brute_sum_cordial(witness)
    assert m <= bound_sum_cordial(n)  # the n in [4, 9] edge-bound invariant
    assert m == bound_sum_cordial(n)  # attained at every n here


@pytest.mark.parametrize("n", sorted(PRODUCT_EMPIRICAL))
def test_empirical_product_frozen(n):
    m, g6 = PRODUCT_EMPIRICAL[n]
    witness = _check_empirical(GraphProperty.PRODUCT, n, m, g6)
    assert brute_product_cordial(witness)
    stated, adjusted = bound_product_cordial(n)
    assert m <= adjusted
    # Finding, uniform across n = 4..7: the data exceeds the stated bound and
    # attains the one-higher variant exactly.
    assert m == stated + 1 == adjusted


@pytest.mark.parametrize("n", sorted(ORIENT_EMPIRICAL))
def test_empirical_orientable_frozen(n):
    m, g6 = ORIENT_EMPIRICAL[n]
    witness = _check_empirical(GraphProperty.ORIENT23, n, m, g6)
    # Independent confirmation from the edge labels of every friendly labeling.
    assert brute_least_witness(witness, GraphProperty.ORIENT23)[0] is not None
    if m <= 20:  # the full orientation walk refuses more edges
        assert oracle_23_orientable(witness).decision


@pytest.mark.parametrize(
    "prop,n", ORACLE_CELLS, ids=[f"{p.value}-{n}" for p, n in ORACLE_CELLS]
)
def test_empirical_matches_subset_walk_oracle(prop, n):
    m, witness = empirical_max_edges(prop, n)
    want_m, want_witness = oracle_empirical_max(prop, n)
    assert m == want_m
    assert (witness.n, witness.edges) == (want_witness.n, want_witness.edges)


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_empirical_orientable_equals_stated_bound(n):
    """The stated closed form against the count argument and the search.

    Label the n vertices friendly; at most D = floor(n/2)*ceil(n/2) edges
    join the two label classes, and only those get arc labels -1 and +1.
    The same-label edges all get label 0, so 3-friendliness needs
    s <= (m - s)/2 + 1 of them, hence s <= floor(D/2) + 1, and s is also
    at most the number of same-label pairs.  The stated closed form
    D + ceil(D/2) is that maximum only when D is odd; when D is even
    (n not 2 mod 4: n=7, 8 and 9 here) the search finds one edge more.
    """
    m, _ = empirical_max_edges(GraphProperty.ORIENT23, n)
    d = (n // 2) * ((n + 1) // 2)
    same_label_room = comb(n // 2, 2) + comb((n + 1) // 2, 2)
    assert m == d + min(d // 2 + 1, same_label_room)
    gap = 1 if d % 2 == 0 else 0
    assert m == bound_23_orientable(n) + gap, (
        f"empirical maximum {m}, closed form {bound_23_orientable(n)} at n={n}"
    )
    if n == 7:
        # A 19-edge certificate built by hand: K_{3,4} plus 7 of its 9
        # same-label edges, label 1 on the 3-side, half the cross edges
        # oriented each way.
        label = {v: 1 if v < 3 else 0 for v in range(7)}
        cross = [(i, j) for i in range(3) for j in range(3, 7)]
        same = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6), (4, 5)]
        arcs = cross[:6] + [(j, i) for i, j in cross[6:]] + same  # (tail, head)
        g = make_graph(7, cross + same)
        assert {tuple(sorted(a)) for a in arcs} == set(g.edge_list())
        assert g.edge_count == 19 == m
        arc_labels = [label[head] - label[tail] for tail, head in arcs]
        assert [arc_labels.count(x) for x in (0, -1, 1)] == [7, 6, 6]


def test_nineteen_edge_orientable_witness_beats_the_closed_form():
    """The derived truth behind the gap of one at n=7."""
    g = parse_graph6("F~~~_")
    assert g.n == 7 and g.edge_count == 19
    verdict = oracle_23_orientable(g)
    assert verdict.decision
    assert bound_23_orientable(7) == 18  # formula value, for contrast


def test_empirical_certifies_the_level_above():
    # One level above each empirical maximum has no satisfying graph; spot-check
    # the certificate by scanning every class at that level for small cells.
    m, _ = empirical_max_edges(GraphProperty.PRODUCT, 4)
    assert m == 3
    for g in enumerate_graphs(4, 4):
        assert not has_property(g, GraphProperty.PRODUCT)
        assert not brute_product_cordial(g)
    m, _ = empirical_max_edges(GraphProperty.ORIENT23, 6)
    assert m == 14
    for g in enumerate_graphs(6, 15):  # K6 alone
        assert not has_property(g, GraphProperty.ORIENT23)


@pytest.mark.parametrize(
    "prop,n",
    [(GraphProperty.SUM, n) for n in (2, 3)]
    + [(GraphProperty.PRODUCT, n) for n in (2, 3)]
    + [(GraphProperty.ORIENT23, n) for n in range(2, 6)],
)
def test_survey_below_the_closed_form_domain_reports_no_bound(prop, n):
    with pytest.raises(ValueError):
        bounds_for(prop, n)
    report = survey(prop, n)
    assert (report.bound, report.alternate_bound) == (None, None)
    assert (report.empirical_max, report.witness) == empirical_max_edges(prop, n)


def test_survey_bundles_bound_and_empirical():
    report = survey(GraphProperty.PRODUCT, 4)
    assert (report.n, report.property) == (4, GraphProperty.PRODUCT)
    assert (report.bound, report.alternate_bound) == (2, 3)
    assert report.empirical_max == 3
    assert to_graph6(report.witness) == "Cw"


def test_empirical_budget_and_domain_errors():
    # Refusals come from enumerate_graphs: a level over SUBSET_BUDGET, or n
    # above the enumeration cap.
    with pytest.raises(BudgetError, match="n=8, m=21"):
        empirical_max_edges(GraphProperty.PRODUCT, 8)
    with pytest.raises(BudgetError, match="enumeration is capped at n=9"):
        empirical_max_edges(GraphProperty.SUM, 10)
    with pytest.raises(ValueError):
        empirical_max_edges(GraphProperty.SUM, 1)


# ------------------------------------------------------- complete-graph facts

def test_complete_graph_memberships():
    for n in range(4, 9):
        assert not has_property(complete(n), GraphProperty.SUM)
    for n in (3, 4, 5):
        assert has_property(complete(n), GraphProperty.ORIENT23)
    for n in (6, 7, 8):
        assert not has_property(complete(n), GraphProperty.ORIENT23)


# ------------------------------------------------------ minimal failing classes

# Number of isomorphism classes with exactly m edges and no isolated vertices.
CLASS_COUNTS = {1: 1, 2: 2, 3: 5, 4: 11, 5: 26, 6: 68}

SUM_FAILING = [
    (2, "C`"),            # two disjoint edges
    (4, "E`G_"),          # K2 + K13
    (6, "C~"),            # K4
    (6, "Dto"),
    (6, "EBj?"),          # C6
    (6, "EwCW"),          # two triangles
    (6, "G`G`@?"),        # K2 + 5-star
    (6, "G`CP@?"),        # K2 + double star
    (6, "Gs?GOO"),        # two 3-stars
    (6, "K`?G?C??G??@"),  # six disjoint edges
]

PRODUCT_FAILING = [
    (4, "C{"),       # paw
    (4, "C]"),       # C4
    (4, "D`K"),      # K2 + triangle
    (5, "C}"),       # diamond
    (6, "C~"),       # K4
    (6, "D]o"),      # K23
    (6, "E]a?"),
    (6, "E]Q?"),
    (6, "ElQ?"),
    (6, "ELq?"),
    (6, "EPr?"),
    (6, "EBj?"),     # C6
    (6, "Fo?Wo"),    # 2-star + C4
    (6, "G`??WW"),   # K2 + K2 + C4
]

ORIENT_FAILING = [
    (3, "E`?G"),        # three disjoint edges
    (6, "ExQ?"),        # net: triangle with a pendant on each corner
    (6, "I`?G?CA?_"),   # three disjoint edges + a 3-star
]


def test_edge_count_class_counts_frozen():
    for m, count in CLASS_COUNTS.items():
        assert len(_edge_count_classes(m)) == count


@pytest.mark.parametrize("m,ambient", [(3, 6), (4, 8)])
def test_class_assembly_matches_direct_enumeration(m, ambient):
    # Independent route: enumerate all m-edge graphs on 2m ambient vertices.
    via_enum = {canonical_form(g) for g in enumerate_graphs(ambient, m)}
    via_assembly = {canonical_form(g) for g in _edge_count_classes(m)}
    assert via_enum == via_assembly


def test_class_assembly_matches_enumeration_at_five_edges():
    # Independent complete census of the 5-edge classes.  A component with c
    # edges spans at most c+1 vertices (c+1 exactly when it is a tree), so a
    # class with k components spans at most 5+k vertices, reaching that only
    # when every component is a tree.  Support 8 therefore means three tree
    # components (edge partitions (3,1,1) and (2,2,1)), support 9 means four
    # ((2,1,1,1)), and support 10 is the perfect matching; every other class
    # fits in 7 ambient vertices.
    via_enum = {canonical_form(g) for g in enumerate_graphs(7, 5)}
    high_support = [
        make_graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (6, 7)]),  # path P4 + 2 K2
        make_graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (6, 7)]),  # star K13 + 2 K2
        make_graph(8, [(0, 1), (0, 2), (3, 4), (3, 5), (6, 7)]),  # two 2-stars + K2
        make_graph(9, [(0, 1), (0, 2), (3, 4), (5, 6), (7, 8)]),  # 2-star + 3 K2
        make_graph(10, [(2 * i, 2 * i + 1) for i in range(5)]),   # 5 K2
    ]
    for g in high_support:
        via_enum.add(canonical_form(g))
    via_assembly = {canonical_form(g) for g in _edge_count_classes(5)}
    assert via_enum == via_assembly


@pytest.mark.parametrize(
    "prop,expected",
    [
        (GraphProperty.SUM, SUM_FAILING),
        (GraphProperty.PRODUCT, PRODUCT_FAILING),
        (GraphProperty.ORIENT23, ORIENT_FAILING),
    ],
    ids=["sum", "product", "orient23"],
)
def test_minimal_noncordial_frozen(prop, expected):
    rows = minimal_noncordial(prop, 6)
    assert [(m, to_graph6(g)) for m, g in rows] == expected
    for m, g in rows:
        assert g.edge_count == m
        assert not has_property(g, prop)
        assert not BRUTE[prop](g)


def test_minimal_noncordial_classes_are_distinct():
    for prop in GraphProperty:
        rows = minimal_noncordial(prop, 4)
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if rows[i][0] == rows[j][0]:
                    assert not brute_isomorphic(rows[i][1], rows[j][1])


def test_smallest_product_failures_are_exactly_three_classes():
    """Derived truth: the 4-edge product failures are C4, the paw, AND the
    disjoint union of a triangle with an edge; nothing fails below 4 edges."""
    rows = minimal_noncordial(GraphProperty.PRODUCT, 4)
    assert [m for m, _ in rows] == [4, 4, 4]
    got = {to_graph6(g) for _, g in rows}
    assert got == {"C{", "C]", "D`K"}
    triangle_plus_edge = make_graph(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
    assert any(brute_isomorphic(g, triangle_plus_edge) for _, g in rows)


def test_sum_failures_below_four_edges_is_only_the_two_matching():
    rows = minimal_noncordial(GraphProperty.SUM, 3)
    assert len(rows) == 1
    m, g = rows[0]
    assert m == 2
    assert brute_isomorphic(g, make_graph(4, [(0, 1), (2, 3)]))


def test_orientability_failures_below_six_edges_is_only_the_three_matching():
    rows = minimal_noncordial(GraphProperty.ORIENT23, 5)
    assert len(rows) == 1
    m, g = rows[0]
    assert m == 3
    assert brute_isomorphic(g, make_graph(6, [(0, 1), (2, 3), (4, 5)]))


def test_minimal_noncordial_domain_and_budget(monkeypatch):
    with pytest.raises(ValueError):
        minimal_noncordial(GraphProperty.SUM, 0)
    # The refusal is enumerate_graphs' own: 7-edge classes need the level
    # (n=8, m=7), over SUBSET_BUDGET, and it comes before any decision.
    calls = []
    monkeypatch.setattr(extremal_module, "_decide_bits", lambda *a: calls.append(a))
    for prop in GraphProperty:
        with pytest.raises(BudgetError, match=r"level \(n=8, m=7\) has 1184040 subsets"):
            minimal_noncordial(prop, 7)
    assert calls == []
