"""Edge-count extremes for the three labeling properties.

Closed-form edge bounds as stated for each property, an exhaustive empirical
maximum read off the isomorphism classes of each edge-count level (every
level above the answer is certified failing), and the minimal failing
isomorphism classes per edge count, both deciding classes from graphs.py and
refused only by its enumeration limits.  Two of the stated bounds are not
upper bounds: the empirical product maximum exceeds the stated product bound
by one at every n in 4..7, and the orientability maximum exceeds the closed
form by one at n=7, 8 and 9 (see bound_23_orientable).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .graphs import Graph, _edge_count_classes, edge_slots, enumerate_graphs
from .labeling import GraphProperty, _decide_bits, _require_property


@dataclass(frozen=True)
class BoundReport:
    """One survey cell: the closed-form bounds (None below their domain),
    the exhaustive maximum, and its least-key witness class."""

    n: int
    property: GraphProperty
    bound: int | None
    alternate_bound: int | None
    empirical_max: int
    witness: Graph


def bound_sum_cordial(n: int) -> int:
    """Largest edge count a sum-cordial graph on n vertices can have."""
    if n < 4:
        raise ValueError("the closed form needs n >= 4")
    k = n // 2
    return 2 * k * k - 2 * k + 1 if n % 2 == 0 else 2 * k * k + 1


def bound_product_cordial(n: int) -> tuple[int, int]:
    """(stated bound, adjusted bound) for product-cordial edge counts.

    The two differ by one; small cases decide between them empirically, so
    both are reported everywhere.
    """
    if n < 4:
        raise ValueError("the closed form needs n >= 4")
    c = (n + 1) // 2
    return c * (c - 1), c * (c - 1) + 1


def bound_23_orientable(n: int) -> int:
    """The stated closed form D + ceil(D/2) for (2,3)-orientable graphs on
    n >= 6 vertices, where D = floor(n/2) * ceil(n/2) counts the cross edges
    of a friendly labeling.

    3-friendliness allows up to floor(D/2) + 1 same-label edges, so when D
    is even (n not 2 mod 4) the true maximum is one above this value; the
    first such case is n=7, where a 19-edge graph is orientable.
    """
    if n < 6:
        raise ValueError("the closed form needs n >= 6")
    d = comb(n, 2) - comb((n + 1) // 2, 2) - comb(n // 2, 2)
    return d + (d + 1) // 2


def bounds_for(prop: GraphProperty, n: int) -> tuple[int, int | None]:
    """(bound, alternate) for prop at n; only product has an alternate.
    Below a closed form's domain this is a ValueError."""
    _require_property(prop)
    if prop is GraphProperty.SUM:
        return bound_sum_cordial(n), None
    if prop is GraphProperty.PRODUCT:
        return bound_product_cordial(n)
    return bound_23_orientable(n), None


def survey(prop: GraphProperty, n: int) -> BoundReport:
    """Exhaustive empirical maximum plus closed-form bound for one (prop, n)
    cell; below the closed form's domain both bounds are None."""
    emp, witness = empirical_max_edges(prop, n)
    try:
        bound, alternate = bounds_for(prop, n)
    except ValueError:
        bound, alternate = None, None
    return BoundReport(n, prop, bound, alternate, emp, witness)


def empirical_max_edges(prop: GraphProperty, n: int) -> tuple[int, Graph]:
    """Largest m with a property-satisfying graph on at most n vertices, plus
    the satisfying class with the least canonical key at that m.

    Walks m downward from the complete graph and decides each isomorphism
    class of a level once; a level is certified failing only after every one
    of its classes has failed.  enumerate_graphs returns a level sorted by
    canonical key, so the first satisfying class is the witness, and its
    limits are the only refusals.
    """
    _require_property(prop)
    if n < 2:
        raise ValueError("need at least one potential edge")
    for m in range(edge_slots(n), 0, -1):
        for g in enumerate_graphs(n, m):
            if _decide_bits(n, g.edges, prop):
                return m, g
    raise AssertionError("unreachable: a single edge satisfies every property")


def minimal_noncordial(prop: GraphProperty, edge_cap: int) -> list[tuple[int, Graph]]:
    """Failing isomorphism classes per edge count, for all m up to edge_cap;
    a cap beyond the enumeration limits is refused before any decision."""
    _require_property(prop)
    if edge_cap < 1:
        raise ValueError("edge cap must be positive")
    _edge_count_classes(edge_cap)
    out = []
    for m in range(1, edge_cap + 1):
        failing = [g for g in _edge_count_classes(m) if not _decide_bits(g.n, g.edges, prop)]
        failing.sort(key=lambda g: (g.support_size(), g.edges))
        out.extend((m, g) for g in failing)
    return out
