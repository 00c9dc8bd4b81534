"""Linear operators on edge sets and the strong-preserver searches."""

import dataclasses
import os
from itertools import permutations
from math import factorial
from multiprocessing.process import BaseProcess
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cordia.labeling as labeling_module
import cordia.preserver as preserver_module
from cordia import (
    BudgetError,
    Graph,
    GraphProperty,
    LinearOperator,
    apply,
    complete,
    compose,
    edge_graph,
    edge_slots,
    empty,
    has_property,
    identity_operator,
    is_injective,
    is_nonsingular,
    is_vertex_permutation,
    make_graph,
    membership_bitmap,
    operator_table,
    parse_operator_table,
    relabel,
    search_strong_preservers,
    strongly_preserves,
    union,
    vertex_permutation_operator,
)
from conftest import (
    _scan_pairs,
    near_bijection,
    oracle_edge_count_determined,
    oracle_exhaustive_survivors,
    oracle_is_injective,
    oracle_is_surjective,
    oracle_is_vertex_permutation,
    oracle_membership_bitmap,
    oracle_pruned_bijections,
    oracle_relabel,
    oracle_sample_draws,
    oracle_sample_report,
    oracle_scan_order,
    oracle_strongly_preserves,
)
from cordia.graphs import pair_table
from cordia.preserver import (
    SAMPLE_COUNT_BUDGET,
    SampleFailure,
    _mixed_levels,
    _operator_from_edge_map,
    _pruned_bijections,
    _sample_draws,
    _sample_scan,
    _SampleScan,
    _vertex_edge_maps,
    confirmed_failures,
)


def random_operator(n, rng):
    slots = edge_slots(n)
    images = []
    for _ in range(slots):
        bits = rng.randrange(1 << slots)
        pairs = [pair_table(n)[k] for k in range(slots) if bits >> k & 1]
        images.append(make_graph(n, pairs))
    return LinearOperator(n, tuple(images))


def collapse_operator(n, slot=0):
    """Every single edge maps to the same fixed edge."""
    e = edge_graph(n, pair_table(n)[slot])
    return LinearOperator(n, tuple(e for _ in range(edge_slots(n))))


# ----------------------------------------------------------------- structure

def test_operator_validation():
    with pytest.raises(ValueError):
        LinearOperator(4, (empty(4),) * 5)  # needs 6 images
    with pytest.raises(ValueError):
        LinearOperator(4, (empty(5),) * 6)  # wrong vertex count


def test_apply_is_union_of_images():
    op = collapse_operator(4)
    assert apply(op, empty(4)) == empty(4)
    for g in [edge_graph(4, (0, 1)), complete(4)]:
        assert apply(op, g) == edge_graph(4, (0, 1))


@given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63), st.integers())
@settings(deadline=None, derandomize=True, max_examples=80)
def test_apply_is_linear(bits_a, bits_b, seed):
    op = random_operator(4, Random(seed % 1000))
    a, b = Graph(4, bits_a), Graph(4, bits_b)
    assert apply(op, union(a, b)) == union(apply(op, a), apply(op, b))


def test_identity_operator():
    op = identity_operator(4)
    for bits in range(64):
        g = Graph(4, bits)
        assert apply(op, g) == g
    assert is_vertex_permutation(op) == (0, 1, 2, 3)
    for prop in GraphProperty:
        assert strongly_preserves(op, prop).strongly_preserves


def test_vertex_permutation_round_trip():
    for perm in permutations(range(4)):
        op = vertex_permutation_operator(perm)
        assert is_vertex_permutation(op) == perm
        for bits in (0, 1, 9, 33, 63):
            g = Graph(4, bits)
            assert apply(op, g) == relabel(g, perm) == oracle_relabel(g, perm)


def test_is_vertex_permutation_rejects_non_permutations():
    assert is_vertex_permutation(collapse_operator(4)) is None
    # a single edge mapping to a two-edge image disqualifies immediately
    images = list(identity_operator(4).images)
    images[0] = make_graph(4, [(0, 1), (2, 3)])
    assert is_vertex_permutation(LinearOperator(4, tuple(images))) is None
    # swapping two disjoint edge slots is bijective but not vertex-induced
    assert is_vertex_permutation(edge_swap_operator()) is None


def vertex_permutation_cases(n, rng):
    """Operators for comparing is_vertex_permutation with its oracle: every
    slot bijection up to n=4; every vertex map and 300 seeded bijections at
    n=5, 6; 300 seeded vertex maps and 300 seeded bijections beyond; plus 20
    near-bijections, some of them no bijection at all."""
    slots = edge_slots(n)
    if n <= 4:
        ops = [_operator_from_edge_map(n, pi) for pi in permutations(range(slots))]
    else:
        sigmas = permutations(range(n)) if n <= 6 else [rng.sample(range(n), n) for _ in range(300)]
        ops = [vertex_permutation_operator(tuple(sigma)) for sigma in sigmas]
        for _ in range(300):
            ops.append(_operator_from_edge_map(n, tuple(rng.sample(range(slots), slots))))
    return ops + [near_bijection(n, rng) for _ in range(20)]


@pytest.mark.parametrize("n", range(0, 17))
def test_is_vertex_permutation_matches_star_oracle(n):
    found = 0
    for op in vertex_permutation_cases(n, Random(f"vertex:{n}")):
        got = is_vertex_permutation(op)
        assert got == oracle_is_vertex_permutation(op)
        found += got is not None
    assert found >= min(300, max(1, factorial(n)))


def edge_swap_operator():
    """Exchange the single-edge graphs (0,1) <-> (2,3); fix the other four."""
    table = pair_table(4)
    images = []
    for k, pair in enumerate(table):
        if pair == (0, 1):
            images.append(edge_graph(4, (2, 3)))
        elif pair == (2, 3):
            images.append(edge_graph(4, (0, 1)))
        else:
            images.append(edge_graph(4, pair))
    return LinearOperator(4, tuple(images))


def test_nonsingular_and_injectivity():
    assert is_nonsingular(identity_operator(4))
    assert is_injective(identity_operator(4))

    zero = LinearOperator(4, (empty(4),) * 6)
    assert not is_nonsingular(zero)

    # collapsing is nonsingular (nothing nonzero hits the zero graph) yet far
    # from injective: nonsingularity is strictly weaker than invertibility.
    cop = collapse_operator(4)
    assert is_nonsingular(cop)
    assert not is_injective(cop)


def test_injective_iff_surjective_on_seeded_operators():
    # Through the image scans: the criterion answers both sides alike.
    rng = Random(2024)
    for _ in range(120):
        op = random_operator(4, rng) if rng.random() < 0.5 else near_bijection(4, rng)
        assert oracle_is_injective(op) == oracle_is_surjective(op)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_edge_bijection_criterion_matches_image_scans(n):
    # Random images are almost never bijective, so near-bijections carry
    # the True branch.
    rng = Random(n)
    ops = [random_operator(n, rng) for _ in range(60)]
    ops += [near_bijection(n, rng) for _ in range(60)]
    answers = set()
    for op in ops:
        want = oracle_is_injective(op)
        assert is_injective(op) == want
        assert oracle_is_surjective(op) == want
        answers.add(want)
    assert answers == ({True} if n == 1 else {True, False})  # n=1 has no edges


def test_image_criterion_answers_at_n16():
    op = identity_operator(16)
    assert is_injective(op)
    images = list(op.images)
    images[0] = images[1]
    repeated = LinearOperator(16, tuple(images))
    assert not is_injective(repeated)


def test_compose_matches_sequential_application():
    rng = Random(11)
    for _ in range(40):
        f, g = random_operator(4, rng), random_operator(4, rng)
        fg = compose(f, g)
        for bits in (0, 7, 21, 63):
            x = Graph(4, bits)
            assert apply(fg, x) == apply(f, apply(g, x))


# ------------------------------------------------------------------ membership

MEMBER_COUNTS = {
    4: {GraphProperty.SUM: 59, GraphProperty.PRODUCT: 41, GraphProperty.ORIENT23: 63},
    5: {GraphProperty.SUM: 987, GraphProperty.PRODUCT: 837, GraphProperty.ORIENT23: 1023},
    6: {GraphProperty.SUM: 32070, GraphProperty.PRODUCT: 13773, GraphProperty.ORIENT23: 32451},
}


@pytest.mark.parametrize("n", sorted(MEMBER_COUNTS))
def test_membership_bitmap_counts_frozen(n, ):
    for prop, want in MEMBER_COUNTS[n].items():
        bm = membership_bitmap(n, prop)
        assert bm.bit_count() == want
        assert bm & 1 == 0  # the edgeless graph is never a member


@pytest.mark.parametrize("n", [4, 5])
def test_membership_bitmap_matches_per_graph_decisions(n):
    for prop in GraphProperty:
        bm = membership_bitmap(n, prop)
        for bits in range(1, 1 << edge_slots(n)):
            assert bool(bm >> bits & 1) == has_property(Graph(n, bits), prop)


@pytest.mark.parametrize("prop", list(GraphProperty), ids=lambda p: p.value)
@pytest.mark.parametrize("n", range(0, 7))
def test_membership_bitmap_matches_per_graph_oracle(n, prop):
    assert membership_bitmap(n, prop) == oracle_membership_bitmap(n, prop)


def test_membership_bitmap_makes_no_per_graph_decision(monkeypatch):
    def decide(*args):
        raise AssertionError("membership_bitmap decided a graph on its own")

    want = {prop: oracle_membership_bitmap(6, prop) for prop in GraphProperty}
    monkeypatch.setattr(labeling_module, "_decide_bits", decide)
    monkeypatch.setattr(preserver_module, "_decide_bits", decide)
    membership_bitmap.cache_clear()
    for prop in GraphProperty:
        assert membership_bitmap(6, prop) == want[prop]


def test_membership_bitmap_builds_one_pass_table_per_probed_edge_set(monkeypatch):
    # A cold n=6 build keys its pass tables by the edges _probed_edges names
    # for each friendly label set of each support: one pass table (one
    # _sliced_sum, the level tables being warm) per distinct probed edge set.
    real_sum = labeling_module._sliced_sum
    real_probed = labeling_module._probed_edges
    sums = []
    probed = set()

    def counting_sum(terms):
        sums.append(1)
        return real_sum(terms)

    def recording_probed(*args):
        edges = real_probed(*args)
        probed.add(edges)
        return edges

    labeling_module._level_tables(edge_slots(6))
    monkeypatch.setattr(labeling_module, "_sliced_sum", counting_sum)
    monkeypatch.setattr(labeling_module, "_probed_edges", recording_probed)
    membership_bitmap.cache_clear()
    pass_tables = {}
    for prop in GraphProperty:
        sums.clear()
        probed.clear()
        assert membership_bitmap(6, prop).bit_count() == MEMBER_COUNTS[6][prop]
        assert len(sums) == len(probed), prop
        pass_tables[prop.value] = len(sums)
    assert pass_tables == {"sum": 31, "product": 36, "orient23": 31}


@pytest.mark.parametrize("n", range(0, 7))
def test_edge_count_determined_matches_level_oracle(n):
    slots = edge_slots(n)
    rng = Random(n)
    tables = [membership_bitmap(n, prop) for prop in GraphProperty]
    for _ in range(2):
        # A union of whole levels, then the same with one graph flipped.
        keep = rng.getrandbits(slots + 1)
        bm = sum(1 << g for g in range(1 << slots) if keep >> g.bit_count() & 1)
        tables += [bm, bm ^ 1 << rng.randrange(1 << slots)]
    tables.append(rng.getrandbits(1 << slots))
    verdicts = [oracle_edge_count_determined(bm, slots) for bm in tables]
    assert [not _mixed_levels(bm, slots) for bm in tables] == verdicts
    assert True in verdicts and (False in verdicts or slots < 2)
    # Graph by graph: the level tables, ascending, whose graphs disagree.
    levels = [[g for g in range(1 << slots) if g.bit_count() == m] for m in range(slots + 1)]
    for bm in tables:
        mixed = [sum(1 << g for g in gs) for gs in levels if len({bm >> g & 1 for g in gs}) == 2]
        assert _mixed_levels(bm, slots) == mixed


def test_membership_bitmap_capped():
    # The table's refusal is the only one for every path that reads a table.
    with pytest.raises(BudgetError, match=r"up to n=6; n=7 requested"):
        membership_bitmap(7, GraphProperty.SUM)
    with pytest.raises(BudgetError, match=r"n=7 requested"):
        strongly_preserves(identity_operator(7), GraphProperty.SUM)
    with pytest.raises(BudgetError, match=r"n=7 requested"):
        strongly_preserves(collapse_operator(7), GraphProperty.ORIENT23)
    with pytest.raises(BudgetError, match=r"n=7 requested"):
        search_strong_preservers(7, GraphProperty.SUM, "sample", count=5)
    # A bad count is a usage error before any size refusal.
    with pytest.raises(ValueError, match="sample count must be positive"):
        search_strong_preservers(7, GraphProperty.SUM, "sample", count=0)


def test_membership_bitmap_rejects_negative_n():
    with pytest.raises(ValueError):
        membership_bitmap(-2, GraphProperty.SUM)


# ---------------------------------------------------------- strong preservation

def test_collapse_operator_fails_sum_with_reverifiable_counterexample():
    op = collapse_operator(4)
    verdict = strongly_preserves(op, GraphProperty.SUM)
    assert not verdict.strongly_preserves
    g = verdict.counterexample
    assert g is not None and g.edges != 0
    assert has_property(g, GraphProperty.SUM) != has_property(apply(op, g), GraphProperty.SUM)


def test_edge_swap_preserves_sum_without_being_vertex_induced():
    """A bijection exchanging two disjoint single edges keeps every sum
    membership intact at n=4, despite not coming from a vertex bijection: the
    non-members there are the empty graph, the three perfect matchings, and
    the complete graph, all invariant under the swap."""
    op = edge_swap_operator()
    assert is_vertex_permutation(op) is None
    assert strongly_preserves(op, GraphProperty.SUM).strongly_preserves


SLOT_MATCHING_PAIRS = (frozenset({0, 5}), frozenset({1, 4}), frozenset({2, 3}))


def test_exhaustive_sum_preservers_at_four_vertices():
    """Derived truth: 48 strong sum preservers at n=4, of which 24 are vertex
    permutations.  The extras exist because membership is decided by the three
    perfect matchings alone, so any slot bijection permuting those three
    two-slot blocks (a group of order 2^3 * 3! = 48) preserves it."""
    report = search_strong_preservers(4, GraphProperty.SUM, "exhaustive")
    assert report.candidates_checked == 720
    assert len(report.operators) == 48
    vertex = [op for op in report.operators if is_vertex_permutation(op) is not None]
    assert len(vertex) == 24
    for op in report.operators:
        assert strongly_preserves(op, GraphProperty.SUM).strongly_preserves
        # block structure: single edges map to single edges respecting the
        # partition of the six slots into three matching pairs
        pi = [op.images[k].edges.bit_length() - 1 for k in range(6)]
        assert all(im.edge_count == 1 for im in op.images)
        mapped = {frozenset(pi[s] for s in block) for block in SLOT_MATCHING_PAIRS}
        assert mapped == set(SLOT_MATCHING_PAIRS)


def test_exhaustive_sum_preservers_form_a_group():
    report = search_strong_preservers(4, GraphProperty.SUM, "exhaustive")
    ops = set(report.operators)
    assert identity_operator(4) in ops
    sample = sorted(ops, key=lambda op: tuple(im.edges for im in op.images))[:8]
    for f in sample:
        for g in sample:
            assert compose(f, g) in ops


def test_exhaustive_product_at_four_vertices_is_vacuous():
    """Derived truth (open-question probe): at n=4 product membership depends
    only on the edge count, so every one of the 720 slot bijections preserves
    it and the search cannot separate vertex maps from the rest."""
    bm = membership_bitmap(4, GraphProperty.PRODUCT)
    by_count = {}
    for bits in range(64):
        by_count.setdefault(bits.bit_count(), set()).add(bm >> bits & 1)
    assert all(len(v) == 1 for v in by_count.values())

    report = search_strong_preservers(4, GraphProperty.PRODUCT, "exhaustive")
    assert len(report.operators) == 720


def test_exhaustive_product_at_five_vertices_is_exactly_vertex_maps():
    """The smallest decisive product case: all 10! slot bijections checked,
    precisely the 120 vertex permutations survive."""
    report = search_strong_preservers(5, GraphProperty.PRODUCT, "exhaustive")
    assert report.candidates_checked == 3628800
    assert len(report.operators) == 120
    perms = {is_vertex_permutation(op) for op in report.operators}
    assert None not in perms
    assert len(perms) == 120


def test_exhaustive_mode_budgets():
    with pytest.raises(BudgetError):
        search_strong_preservers(6, GraphProperty.SUM, "exhaustive")
    # Orientability at n=5 depends only on the edge count, so all 10! bijections
    # would survive; the search refuses before walking any of them.
    with pytest.raises(BudgetError, match="too permissive"):
        search_strong_preservers(5, GraphProperty.ORIENT23, "exhaustive")


def test_survivor_budget_guards_permissive_classes(monkeypatch):
    # At n=4 every bijection preserves orientability (only the empty graph is
    # a non-member), so a tiny survivor budget must trip the guard.
    monkeypatch.setattr(preserver_module, "SURVIVOR_BUDGET", 10)
    with pytest.raises(BudgetError):
        search_strong_preservers(4, GraphProperty.ORIENT23, "exhaustive")


def survivor_maps(report):
    return [tuple(im.edges.bit_length() - 1 for im in op.images) for op in report.operators]


ORACLE_SEARCHES = [(n, prop) for n in (3, 4) for prop in GraphProperty] + [(5, GraphProperty.PRODUCT)]


@pytest.mark.parametrize("n, prop", ORACLE_SEARCHES, ids=lambda v: getattr(v, "value", v))
def test_exhaustive_search_matches_permutation_walk_oracle(n, prop):
    """Same survivors in the same order as walking every bijection; the pruned
    search itself is also run on the edge-count determined tables, which the
    search answers without it."""
    want = oracle_exhaustive_survivors(n, prop)
    report = search_strong_preservers(n, prop, "exhaustive")
    assert report.candidates_checked == factorial(edge_slots(n))
    assert survivor_maps(report) == want
    assert _pruned_bijections(n, membership_bitmap(n, prop)) == want


PRUNED_ORACLE_TABLES = ORACLE_SEARCHES + [(5, GraphProperty.SUM), (3, "seeded"), (4, "seeded")]


@pytest.mark.parametrize("n, prop", PRUNED_ORACLE_TABLES, ids=lambda v: getattr(v, "value", v))
def test_pruned_bijections_match_image_array_oracle(n, prop):
    """The search over the kernel's swap step keeps the survivors, and their
    lexicographic order, of the graph-by-graph search it replaced.  Seeded
    tables are not closed under vertex maps, so there a map can keep every
    graph below the last slot and still change one that holds it."""
    if prop == "seeded":
        rng = Random(n)
        tables = [rng.getrandbits(1 << edge_slots(n)) for _ in range(200)]
    else:
        tables = [membership_bitmap(n, prop)]
    for bm in tables:
        assert _pruned_bijections(n, bm) == oracle_pruned_bijections(n, bm), bm


def assert_matches_scan_oracle(op, prop):
    verdict = strongly_preserves(op, prop)
    want = oracle_strongly_preserves(op, prop)
    assert verdict.strongly_preserves == (want is None)
    got = verdict.counterexample
    assert (None if got is None else got.edges) == want


STRONG_ORACLE_DRAWS = {4: 120, 5: 40, 6: 8}


@pytest.mark.parametrize("n", sorted(STRONG_ORACLE_DRAWS))
def test_strongly_preserves_matches_full_scan_oracle(n):
    """The least counterexample, on seeded bijections, vertex maps, the
    collapse operator and seeded random (mostly non-bijective) operators."""
    rng = Random(f"strong:{n}")
    slots = edge_slots(n)
    vertex_maps = sorted(_vertex_edge_maps(n))
    for prop in GraphProperty:
        maps = [tuple(rng.sample(range(slots), slots)) for _ in range(STRONG_ORACLE_DRAWS[n])]
        maps += rng.sample(vertex_maps, 4)
        # bijections one transposition away from a vertex map
        for pi in rng.sample(vertex_maps, 4):
            a, b = rng.sample(range(slots), 2)
            pi = list(pi)
            pi[a], pi[b] = pi[b], pi[a]
            maps.append(tuple(pi))
        for pi in maps:
            assert_matches_scan_oracle(_operator_from_edge_map(n, pi), prop)
        assert_matches_scan_oracle(collapse_operator(n), prop)
        assert_matches_scan_oracle(collapse_operator(n, slots - 1), prop)
        for _ in range(3):
            assert_matches_scan_oracle(random_operator(n, rng), prop)


def test_strongly_preserves_matches_oracle_on_every_bijection_at_four():
    for prop in GraphProperty:
        for pi in permutations(range(6)):
            assert_matches_scan_oracle(_operator_from_edge_map(4, pi), prop)


# ------------------------------------------------------------------- sampling

def test_sample_mode_is_deterministic_and_reverifiable():
    a = search_strong_preservers(4, GraphProperty.SUM, "sample", count=200, seed=7)
    b = search_strong_preservers(4, GraphProperty.SUM, "sample", count=200, seed=7)
    assert a == b
    assert a.candidates_checked == 200
    # frozen split for this seed: 6 vertex-induced draws discarded, 5 of the
    # remaining 194 bijections preserve (the non-vertex part of the 48), the
    # rest fail with recorded counterexamples
    assert a.discarded_vertex_induced == 6
    assert len(a.operators) == 5
    assert len(a.failures) == 189
    for failure in a.failures[:25]:
        op = _operator_from_edge_map(4, failure.edge_map)
        g = failure.counterexample
        assert has_property_or_false(g) != has_property_or_false(apply(op, g))

    different = search_strong_preservers(4, GraphProperty.SUM, "sample", count=200, seed=8)
    assert different != a


def test_confirmed_failures_counts_only_real_mismatches(monkeypatch):
    report = search_strong_preservers(4, GraphProperty.SUM, "sample", count=200, seed=7)

    def table(*args):
        raise AssertionError("confirmed_failures read a membership table")

    # The search found the failures with the table; they are confirmed without it.
    monkeypatch.setattr(preserver_module, "membership_bitmap", table)
    assert confirmed_failures(report) == len(report.failures) == 189
    # The identity map changes no graph's membership, so a failure that
    # claims it does is not confirmed.
    forged = SampleFailure(0, tuple(range(6)), Graph(4, 0b100001))
    report = dataclasses.replace(report, failures=report.failures[:3] + (forged,))
    assert confirmed_failures(report) == 3


def test_confirmed_failures_decides_each_distinct_graph_once(monkeypatch):
    report = search_strong_preservers(6, GraphProperty.ORIENT23, "sample", count=2000, seed=0)
    distinct = set()
    for failure in report.failures:
        g = failure.counterexample.edges
        if g:
            op = _operator_from_edge_map(6, failure.edge_map)
            distinct |= {g, apply(op, failure.counterexample).edges}
    decide = preserver_module._decide_bits
    calls = []

    def counting(n, bits, prop):
        calls.append(bits)
        return decide(n, bits, prop)

    monkeypatch.setattr(preserver_module, "_decide_bits", counting)
    assert confirmed_failures(report) == len(report.failures)
    assert len(report.failures) > len(distinct)
    assert sorted(calls) == sorted(distinct)


def has_property_or_false(g):
    return g.edges != 0 and has_property(g, GraphProperty.SUM)


def test_sample_mode_workers_agree():
    solo = search_strong_preservers(5, GraphProperty.SUM, "sample", count=60, seed=3, workers=1)
    duo = search_strong_preservers(5, GraphProperty.SUM, "sample", count=60, seed=3, workers=2)
    assert solo == duo


@pytest.mark.parametrize("prop", list(GraphProperty), ids=lambda p: p.value)
@pytest.mark.parametrize("n", range(2, 7))
def test_sample_mode_matches_oracle(n, prop):
    cases = [(seed, count) for seed in (0, 7) for count in (1, 50, 300)]
    if n == 6:
        cases.append((2001, 5000))  # the benchmark's scale
    for seed, count in cases:
        want = oracle_sample_report(n, prop, count, seed)
        for workers in (1, 2):
            got = search_strong_preservers(
                n, prop, "sample", count=count, seed=seed, workers=workers
            )
            assert got == want, (seed, count, workers)


@pytest.mark.parametrize("n", range(0, 17))
def test_sample_draws_match_random_sample(n):
    # slots = 120 at n = 16 takes 119 steps, more than one block of 32
    # outputs holds, so every index there runs the refill.
    slots = edge_slots(n)
    cases = [(seed, 200) for seed in (0, 7, 2001)]
    if n == 6:
        cases.append((1, 20_000))  # the benchmark's scale
    for seed, count in cases:
        assert _sample_draws(slots, seed, count) == oracle_sample_draws(slots, seed, count), seed


def test_sample_draws_do_not_call_random_sample(monkeypatch):
    want = oracle_sample_draws(15, 3, 100)

    def sample(*args, **kwargs):
        raise AssertionError("random.Random.sample was called")

    monkeypatch.setattr(Random, "sample", sample)
    _sample_draws.cache_clear()
    assert _sample_draws(15, 3, 100) == want


def test_sample_draws_are_keyed_by_slots_seed_and_indices():
    # Each step repeats a seed after a search that differs in one respect;
    # the last column says whether the process may reuse its kept draws.
    # Searches run in this process whatever workers is, so workers=2 shares
    # the draws too.
    steps = [
        (6, GraphProperty.SUM, 50, 3, 1, False),
        (6, GraphProperty.PRODUCT, 50, 3, 1, True),  # another property
        (6, GraphProperty.PRODUCT, 60, 3, 1, False),  # another count
        (5, GraphProperty.PRODUCT, 60, 3, 1, False),  # another n
        (5, GraphProperty.SUM, 60, 3, 2, True),  # another workers
        (5, GraphProperty.ORIENT23, 60, 3, 1, True),  # after a workers=2 run
        (5, GraphProperty.ORIENT23, 60, 4, 1, False),  # another seed
        (5, GraphProperty.SUM, 60, 4, 2, True),
    ]
    _sample_draws.cache_clear()
    for n, prop, count, seed, workers, hit in steps:
        hits = _sample_draws.cache_info().hits
        got = search_strong_preservers(n, prop, "sample", count=count, seed=seed, workers=workers)
        assert got == oracle_sample_report(n, prop, count, seed), (n, prop, count, seed, workers)
        assert _sample_draws.cache_info().hits == hits + hit


def test_sample_failures_share_draws_and_counterexample_graphs():
    report = search_strong_preservers(6, GraphProperty.PRODUCT, "sample", count=300, seed=5)
    draws = _sample_draws(edge_slots(6), 5, 300)
    assert all(f.edge_map is draws[f.index] for f in report.failures)
    graphs = {f.counterexample.edges: f.counterexample for f in report.failures}
    assert all(f.counterexample is graphs[f.counterexample.edges] for f in report.failures)
    assert len(graphs) < len(report.failures)


def scan_order(n, prop):
    """(flags, order) of a fresh scan with every mixed level built, order the
    concatenated per-level graphs; each entry's slots are checked too."""
    scan = _SampleScan(n, prop)
    while scan.grow():
        pass
    order = []
    for entries in scan.levels:
        for g, slots in entries:
            assert slots == tuple(k for k in range(edge_slots(n)) if g >> k & 1)
            order.append(g)
    return scan.flags, tuple(order)


@pytest.mark.parametrize("prop", list(GraphProperty), ids=lambda p: p.value)
@pytest.mark.parametrize("n", range(0, 7))
def test_scan_order_is_the_mixed_prefix_of_the_full_scan(n, prop):
    bm = membership_bitmap(n, prop)
    flags, order = scan_order(n, prop)
    assert flags == "".join(str(bm >> g & 1) for g in range(1 << edge_slots(n)))
    full = [g for g, _ in _scan_pairs(n, prop)]
    assert tuple(full[: len(order)]) == order
    # Every graph after the prefix sits on a level of one membership.
    uniform = {}
    for g in full[len(order):]:
        assert uniform.setdefault(g.bit_count(), bm >> g & 1) == bm >> g & 1
    assert not {g.bit_count() for g in order} & set(uniform)


@pytest.mark.parametrize("prop", list(GraphProperty), ids=lambda p: p.value)
@pytest.mark.parametrize("n", range(0, 7))
def test_scan_order_matches_graph_by_graph_oracle(n, prop):
    assert scan_order(n, prop) == oracle_scan_order(n, prop)


def test_scan_order_levels_at_six():
    levels = {
        prop: sorted({g.bit_count() for g in scan_order(6, prop)[1]}) for prop in GraphProperty
    }
    assert levels == {
        GraphProperty.SUM: [2, 4, 6, 8, 10, 12],
        GraphProperty.PRODUCT: [4, 5, 6, 7],
        GraphProperty.ORIENT23: [3, 6, 9, 12],
    }
    for n in range(6):
        assert scan_order(n, GraphProperty.ORIENT23)[1] == ()


def test_sample_search_builds_only_the_levels_its_draws_reach(monkeypatch):
    # At the benchmark's scale every draw fails on its first mixed level,
    # and no draw survives, so no vertex map is built.
    def no_maps(n):
        raise AssertionError(f"vertex maps built at n={n}")

    monkeypatch.setattr(preserver_module, "_vertex_edge_maps", no_maps)
    _sample_scan.cache_clear()
    sizes = {}
    for prop in GraphProperty:
        report = search_strong_preservers(6, prop, "sample", count=20_000, seed=1)
        assert (len(report.failures), report.discarded_vertex_induced, report.operators) == (
            20_000, 0, ()
        )
        sizes[prop] = [len(entries) for entries in _sample_scan(6, prop).levels]
    assert sizes == {
        GraphProperty.SUM: [105],
        GraphProperty.PRODUCT: [1365],
        GraphProperty.ORIENT23: [455],
    }


@pytest.mark.parametrize("prop", list(GraphProperty), ids=lambda p: p.value)
def test_sample_mode_at_three_discards_every_draw(prop):
    # All 3! edge bijections at n=3 are vertex maps.
    report = search_strong_preservers(3, prop, "sample", count=50, seed=4)
    assert report.discarded_vertex_induced == report.candidates_checked == 50
    assert (report.operators, report.failures) == ((), ())
    assert report == oracle_sample_report(3, prop, 50, 4)


def test_sample_mode_tells_vertex_maps_from_other_survivors():
    report = search_strong_preservers(4, GraphProperty.SUM, "sample", count=300, seed=0)
    assert report == oracle_sample_report(4, GraphProperty.SUM, 300, 0)
    assert report.discarded_vertex_induced == 10
    assert len(report.operators) == 9
    assert not any(is_vertex_permutation(op) for op in report.operators)
    assert len(report.failures) == 281


def refuse_tables_and_draws(monkeypatch):
    def refuse(*args):
        raise AssertionError("a table or a draw was built")

    for name in ("membership_bitmap", "_sample_scan", "_sample_draws"):
        monkeypatch.setattr(preserver_module, name, refuse)


@pytest.mark.parametrize(
    "count, seed",
    [(50, 1.0), (50, True), (50, "1"), (50, None), (True, 1), (2.5, 1), ("50", 1), (50.0, 1)],
)
def test_sample_count_and_seed_must_be_ints(monkeypatch, count, seed):
    # 1 == 1.0 == True with equal hashes, so seed=1.0 once read seed 1's
    # kept draws after a seed-1 search.
    search_strong_preservers(4, GraphProperty.SUM, "sample", count=50, seed=1)
    refuse_tables_and_draws(monkeypatch)
    with pytest.raises(ValueError, match="must be an int"):
        search_strong_preservers(4, GraphProperty.SUM, "sample", count=count, seed=seed)


def test_sample_count_budget(monkeypatch):
    refuse_tables_and_draws(monkeypatch)
    over = SAMPLE_COUNT_BUDGET + 1
    with pytest.raises(BudgetError) as info:
        search_strong_preservers(6, GraphProperty.SUM, "sample", count=over, seed=0)
    assert str(info.value) == (
        f"sample count {over} requested; sample mode draws at most {SAMPLE_COUNT_BUDGET}"
    )
    assert SAMPLE_COUNT_BUDGET == 1_000_000


def test_sample_mode_starts_no_process(monkeypatch):
    def start(*args, **kwargs):
        raise AssertionError("sample mode started a process")

    monkeypatch.setattr(BaseProcess, "start", start)
    monkeypatch.setattr(os, "fork", start)
    for count, workers in [(5, 64), (60, 4), (7, 1)]:
        got = search_strong_preservers(5, GraphProperty.SUM, "sample", count=count, seed=2, workers=workers)
        assert got == oracle_sample_report(5, GraphProperty.SUM, count, 2), (count, workers)


def test_sample_mode_requires_count():
    with pytest.raises(ValueError):
        search_strong_preservers(4, GraphProperty.SUM, "sample")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        search_strong_preservers(4, GraphProperty.SUM, "everything")


# ----------------------------------------------------------------- vertex-only

def test_vertex_only_four_vertices():
    report = search_strong_preservers(4, GraphProperty.SUM, "vertex-only")
    assert report.candidates_checked == 24
    assert len(report.operators) == 24
    assert {is_vertex_permutation(op) for op in report.operators} == set(permutations(range(4)))


def test_vertex_only_refuses_past_the_membership_tables(monkeypatch):
    # The table refuses before any vertex map is built, so n=16 never starts
    # a walk over 16! permutations.
    def no_maps(n):
        raise AssertionError(f"vertex maps built at n={n}")

    monkeypatch.setattr(preserver_module, "_vertex_edge_maps", no_maps)
    for n in (7, 8, 9, 16):
        with pytest.raises(BudgetError) as info:
            search_strong_preservers(n, GraphProperty.SUM, "vertex-only")
        assert str(info.value) == f"membership tables are kept only up to n=6; n={n} requested"


# -------------------------------------------------------------- serialization

def test_operator_table_round_trip():
    rng = Random(5)
    for op in [identity_operator(4), collapse_operator(4), random_operator(4, rng), random_operator(5, rng)]:
        text = operator_table(op)
        assert parse_operator_table(text) == op


def test_operator_table_format():
    text = operator_table(collapse_operator(4))
    lines = text.strip().splitlines()
    assert lines == ["0", "0", "0", "0", "0", "0"]
    empty_image = LinearOperator(4, (empty(4),) * 6)
    assert operator_table(empty_image).strip().splitlines() == ["-"] * 6


def test_parse_operator_table_errors():
    with pytest.raises(ValueError):
        parse_operator_table("0\n1\n")  # no triangular number of lines
    with pytest.raises(ValueError):
        parse_operator_table("\n".join(["9"] * 6))  # slot out of range for n=4
    with pytest.raises(ValueError):
        parse_operator_table("\n".join(["x"] * 6))
