from __future__ import annotations

import ast
import inspect
import itertools
import os
import random
import subprocess
import sys
import textwrap
from math import comb

import cordia
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cordia import (
    BudgetError,
    CanonicalKey,
    Graph,
    GraphFormatError,
    UnknownTagError,
    canonical_form,
    canonical_representative,
    complete,
    connected_on_support,
    edge_graph,
    edge_index,
    edge_slots,
    empty,
    enumerate_graphs,
    make_graph,
    named,
    named_tags,
    parse_graph6,
    relabel,
    to_graph6,
    union,
)
from cordia.graphs import (
    SUBSET_BUDGET,
    _adjacency,
    _edge_invariants,
    _extension_slots,
    _least_bits,
    _map_slots,
    _representative_key,
    _tops_edge_invariant,
    _twin_classes,
    _vertex_edge_map,
    incident_masks,
    iter_bits,
    pair_table,
)
from cordia.preserver import _apply_bits

from conftest import (
    brute_isomorphic,
    burnside_graph_count,
    count_key_calls,
    oracle_canonical_bits,
    oracle_connected_on_support,
    oracle_enumerate_keys,
    oracle_extend_level,
    oracle_flat_levels,
    oracle_least_bits,
    oracle_parse_graph6,
    oracle_relabel,
    oracle_to_graph6,
    oracle_support_mask,
    oracle_tops_edge_invariant,
    oracle_tuple_least_bits,
)

graphs_st = st.integers(2, 7).flatmap(
    lambda n: st.builds(Graph, st.just(n), st.integers(0, (1 << edge_slots(n)) - 1))
)
perms_st = st.permutations


def test_edge_index_matches_pair_table():
    for n in range(2, 10):
        for k, (i, j) in enumerate(pair_table(n)):
            assert edge_index(n, i, j) == k
            assert edge_index(n, j, i) == k


def test_edge_slots_and_iter_bits():
    assert [edge_slots(n) for n in range(1, 6)] == [0, 1, 3, 6, 10]
    assert list(iter_bits(0b101001)) == [0, 3, 5]


def test_incident_masks_partition_slots():
    for n in range(2, 8):
        inc = incident_masks(n)
        for k, (i, j) in enumerate(pair_table(n)):
            owners = [v for v in range(n) if inc[v] >> k & 1]
            assert owners == [i, j]


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, 0)
    with pytest.raises(ValueError):
        Graph(17, 0)
    with pytest.raises(ValueError):
        Graph(3, 1 << 3)  # only 3 slots exist
    with pytest.raises(ValueError):
        make_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 3)])
    assert make_graph(3, [(0, 1), (1, 0)]).edge_count == 1


@pytest.mark.parametrize(
    "n, edges", [(4, 1.0), (4.0, 0), (True, 0), (2, True), ("4", 0), (4, None)]
)
def test_graph_sizes_must_be_ints(n, edges):
    # Graph(4, 1.0) once built a graph whose edge_count raised
    # AttributeError, and Graph(True, 0) compared equal to Graph(1, 0).
    name, value = ("vertex count", n) if type(n) is not int else ("edge bitset", edges)
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {value!r}$"):
        Graph(n, edges)


def test_constructors():
    assert empty(4).edge_count == 0
    assert complete(4).edge_count == 6
    assert edge_graph(4, (2, 3)).edge_list() == [(2, 3)]
    g = union(edge_graph(4, (0, 1)), edge_graph(4, (2, 3)))
    assert g.edge_list() == [(0, 1), (2, 3)]
    with pytest.raises(ValueError):
        union(empty(3), empty(4))


def test_named_catalog():
    assert named("2k2").edge_list() == [(0, 1), (2, 3)]
    assert named("3k2").edge_count == 3
    assert named("petersen").n == 10 and named("petersen").edge_count == 15
    assert named("C4").edge_count == 4
    assert named(" Paw ").edge_count == 4
    assert named("k3") == named("triangle")
    assert named("triangle+pendant") == named("paw")
    with pytest.raises(UnknownTagError):
        named("nope")
    assert "2k2" in named_tags()


def test_relabel_roundtrip():
    g = named("paw")
    perm = (2, 0, 3, 1)
    h = relabel(g, perm)
    inverse = tuple(perm.index(v) for v in range(4))
    assert relabel(h, inverse) == g
    assert h.edge_count == g.edge_count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16])
def test_relabel_matches_pair_by_pair_oracle(n):
    # Every permutation up to n=5 on seeded graphs; seeded cases at n=16.
    rng = random.Random(f"relabel:{n}")
    slots = edge_slots(n)
    graphs = [0, (1 << slots) - 1] + [rng.getrandbits(slots) for _ in range(6)]
    if n <= 5:
        cases = [(g, p) for g in graphs for p in itertools.permutations(range(n))]
    else:
        cases = [(rng.getrandbits(slots), tuple(rng.sample(range(n), n))) for _ in range(300)]
    for bits, perm in cases:
        g = Graph(n, bits)
        assert relabel(g, perm) == oracle_relabel(g, perm)


@pytest.mark.parametrize("n", range(1, 17))
def test_map_slots_matches_image_list_and_pair_by_pair_oracle(n):
    # Seeded slot maps against the per-map image list that _map_slots
    # replaced, and vertex maps against the pair-by-pair relabel loop.
    rng = random.Random(f"map_slots:{n}")
    slots = edge_slots(n)
    graphs = [0, (1 << slots) - 1] + [rng.getrandbits(slots) for _ in range(20)]
    for _ in range(10):
        slot_map = tuple(rng.sample(range(slots), slots))
        images = [1 << t for t in slot_map]
        for bits in graphs:
            got = _map_slots(slot_map, tuple(iter_bits(bits)))
            assert got == _apply_bits(images, bits), (slot_map, bits)
        perm = tuple(rng.sample(range(n), n))
        for bits in graphs:
            got = _map_slots(_vertex_edge_map(perm), iter_bits(bits))
            assert got == oracle_relabel(Graph(n, bits), perm).edges, (perm, bits)


@settings(deadline=None, derandomize=True)
@given(graphs_st, st.data())
def test_canonical_form_is_relabel_invariant(g, data):
    perm = tuple(data.draw(st.permutations(range(g.n))))
    assert canonical_form(g) == canonical_form(relabel(g, perm))


@settings(deadline=None, derandomize=True, max_examples=40)
@given(graphs_st)
def test_canonical_representative_reproduces_key(g):
    key = canonical_form(g)
    rep = canonical_representative(key, g.n)
    assert canonical_form(rep) == key
    assert rep.edge_count == g.edge_count


def test_canonical_key_is_least_bitset_on_every_small_graph():
    for n in range(1, 6):
        for bits in range(1 << edge_slots(n)):
            g = Graph(n, bits)
            assert canonical_form(g).bits == oracle_canonical_bits(g)


def _seeded_graphs_on_support(k: int, density: float, count: int, seed: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = Graph(k, sum(1 << s for s in range(edge_slots(k)) if rng.random() < density))
        if g.support_size() == k:
            out.append(g)
    return out


@pytest.mark.parametrize("support, count", [(6, 20), (7, 8), (8, 5)])
@pytest.mark.parametrize("density", [0.3, 0.7])
def test_canonical_key_is_least_bitset_on_seeded_graphs(support, count, density):
    for g in _seeded_graphs_on_support(support, density, count, seed=support):
        # an isolated vertex 0 in front: the key must drop it
        key = canonical_form(make_graph(support + 1, [(i + 1, j + 1) for i, j in g.edge_list()]))
        assert key.support == support
        assert key.bits == oracle_canonical_bits(g)


def test_least_bits_matches_oracle_on_every_graph_up_to_support_6():
    # Up to 5 vertices the oracle runs on every graph.  On 6 it runs once per
    # class: its value is the same on every relabeling, so all 720 vertex
    # maps spread it over the class, and the search runs on every graph.
    for k in range(1, 6):
        for bits in range(1 << edge_slots(k)):
            adj = _adjacency(k, bits)
            assert _least_bits(adj) == oracle_least_bits(adj), (k, bits)
    maps = [_vertex_edge_map(perm) for perm in itertools.permutations(range(6))]
    want = {}
    for m in range(edge_slots(6) + 1):
        for rep in enumerate_graphs(6, m):
            value = oracle_least_bits(_adjacency(6, rep.edges))
            slots = tuple(iter_bits(rep.edges))
            for slot_map in maps:
                want[_map_slots(slot_map, slots)] = value
    assert len(want) == 1 << edge_slots(6)
    for bits, value in want.items():
        assert _least_bits(_adjacency(6, bits)) == value, bits


@pytest.mark.parametrize("support", range(7, 11))
def test_least_bits_matches_oracle_on_seeded_graphs(support):
    for density in (0.2, 0.5, 0.8):
        for g in _seeded_graphs_on_support(support, density, 6, seed=support):
            adj = _adjacency(support, g.edges)
            assert _least_bits(adj) == oracle_least_bits(adj), g


def _twin_families(k: int) -> list[Graph]:
    """K_k, every K_{a,k-a} (a = 1 is the star), and the complements of a
    perfect or near-perfect matching, of one edge and of a triangle."""
    full = (1 << edge_slots(k)) - 1
    out = [complete(k)]
    for a in range(1, k // 2 + 1):
        out.append(make_graph(k, [(i, j) for i in range(a) for j in range(a, k)]))
    sparse = [make_graph(k, [(2 * i, 2 * i + 1) for i in range(k // 2)]), edge_graph(k, (0, 1))]
    if k >= 3:
        sparse.append(make_graph(k, [(0, 1), (1, 2), (0, 2)]))
    out.extend(Graph(k, full ^ g.edges) for g in sparse)
    return out


@pytest.mark.parametrize("k", range(2, 11))
def test_least_bits_matches_oracle_on_twin_families(k):
    for g in _twin_families(k):
        adj = _adjacency(k, g.edges)
        assert len(set(_twin_classes(adj))) < k, g
        assert _least_bits(adj) == oracle_least_bits(adj), g


def test_least_bits_matches_oracle_on_symmetric_graphs_without_twins():
    cycles = [make_graph(k, [(i, (i + 1) % k) for i in range(k)]) for k in (8, 9, 10)]
    for g in cycles + [named("petersen")]:
        adj = _adjacency(g.n, g.edges)
        assert _twin_classes(adj) == list(range(g.n)), g
        assert _least_bits(adj) == oracle_least_bits(adj), g


def _relabeled_adjacency(adj: list[int], perm: list[int]) -> list[int]:
    out = [0] * len(adj)
    for v, a in enumerate(adj):
        out[perm[v]] = sum(1 << perm[w] for w in iter_bits(a))
    return out


def test_packed_least_bits_matches_both_oracles_on_relabeled_classes():
    # Every class on at most 7 vertices, each on its own support under 3
    # seeded relabelings.
    rng = random.Random(31)
    for m in range(edge_slots(7) + 1):
        for rep in enumerate_graphs(7, m):
            s = rep.support_size()
            adj = _adjacency(7, rep.edges)[:s]
            for _ in range(3):
                perm = rng.sample(range(s), s)
                relabeled = _relabeled_adjacency(adj, perm)
                want = oracle_least_bits(relabeled)
                assert oracle_tuple_least_bits(relabeled) == want, (rep, perm)
                assert _least_bits(relabeled) == want, (rep, perm)


@pytest.mark.parametrize("support", [8, 9, 10])
def test_packed_least_bits_matches_both_oracles_on_large_supports(support):
    graphs = [make_graph(support, [(i, (i + 1) % support) for i in range(support)])]
    if support == 10:
        graphs += [named("petersen"), complete(10)]
    for density in (0.2, 0.5, 0.8):
        graphs += _seeded_graphs_on_support(support, density, 4, seed=31 + support)
    for g in graphs:
        adj = _adjacency(support, g.edges)
        want = oracle_least_bits(adj)
        assert oracle_tuple_least_bits(adj) == want, g
        assert _least_bits(adj) == want, g


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cordia.__file__)))
    code = "import sys; sys.path.insert(0, sys.argv[1]); import cordia; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


PUBLIC_NAMES = [
    "BoundReport", "BudgetError", "CanonicalKey", "Graph", "GraphFormatError",
    "GraphProperty", "LinearOperator", "Orientation", "PreserverVerdict",
    "SampleFailure", "SearchReport", "UnknownTagError", "Verdict", "VertexLabeling",
    "apply", "bound_23_orientable", "bound_product_cordial", "bound_sum_cordial",
    "bounds_for", "canonical_form", "canonical_representative",
    "check_23_cordial_digraph", "check_23_orientable", "check_property", "complete",
    "compose", "connected_on_support", "edge_graph", "edge_index", "edge_slots",
    "empirical_max_edges", "empty", "enumerate_graphs", "has_property",
    "identity_operator", "induced_edge_counts", "is_injective", "is_nonsingular",
    "is_vertex_permutation", "make_graph", "membership_bitmap", "minimal_noncordial",
    "named", "named_tags", "operator_table", "orientation_feasible", "parse_graph6",
    "parse_operator_table", "relabel", "search_strong_preservers",
    "strongly_preserves", "survey", "to_graph6", "union", "vertex_permutation_operator",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 55
    assert sorted(cordia.__all__) == PUBLIC_NAMES


def test_no_module_imports_a_name_it_never_reads():
    # cordia/__init__.py is skipped: its imports are its exports, which the
    # pin above checks.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    unread = []
    for folder in ("src/cordia", "tests", "scripts"):
        for dirpath, _, files in os.walk(os.path.join(root, folder)):
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.relpath(os.path.join(dirpath, name), root)
                if path == os.path.join("src", "cordia", "__init__.py"):
                    continue
                with open(os.path.join(root, path), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), path)
                read = {
                    node.id
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                }
                for node in ast.walk(tree):
                    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                        continue
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        for alias in node.names:
                            bound = alias.asname or alias.name.split(".")[0]
                            if bound not in read:
                                unread.append(f"{path}: {bound}")
    assert unread == []


def test_every_private_top_level_name_in_the_package_is_read_by_the_package():
    # A private helper that only the tests read is test code: it belongs in
    # tests/conftest.py.  A name counts as read when some module of the
    # package loads it, reads it as an attribute or imports it.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = os.path.join(root, "src", "cordia")
    defined = {}
    read = set()
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [
                    t.id
                    for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    if isinstance(t, ast.Name)
                ]
            else:
                continue
            for target in targets:
                if target.startswith("_") and not target.startswith("__"):
                    defined[target] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert sorted(f"{defined[n]}: {n}" for n in defined.keys() - read) == []


@pytest.mark.parametrize(
    "name",
    [
        "check_product_cordial",
        "check_sum_cordial",
        "friendly_vertex_labelings",
        "idempotent_power",
        "is_k_friendly",
        "is_surjective",
    ],
)
def test_removed_public_names_do_not_import(name):
    with pytest.raises(ImportError):
        exec(f"from cordia import {name}", {})


def test_every_public_name_has_its_own_docstring():
    # Read from the source: a dataclass or NamedTuple without one gets a
    # generated __doc__ that only repeats its fields.
    def own_docstring(obj) -> str | None:
        return ast.get_docstring(ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0])

    assert [name for name in PUBLIC_NAMES if not own_docstring(getattr(cordia, name))] == []


def test_canonical_representative_refuses_inconsistent_keys():
    with pytest.raises(ValueError, match="edge count 5 but its bits hold 3 edges"):
        canonical_representative(CanonicalKey(3, 5, 7), 3)
    with pytest.raises(ValueError, match="outside the 3 slots of support 3"):
        canonical_representative(CanonicalKey(3, 4, 15), 5)
    with pytest.raises(ValueError, match="outside the 3 slots of support 3"):
        canonical_representative(CanonicalKey(3, 1, -1), 5)
    with pytest.raises(ValueError, match="support must be non-negative, got -1"):
        canonical_representative(CanonicalKey(-1, 0, 0), 4)
    with pytest.raises(ValueError, match="leave some of the 4 support vertices isolated"):
        canonical_representative(CanonicalKey(4, 1, 1), 4)
    with pytest.raises(ValueError, match="leave some of the 1 support vertices isolated"):
        canonical_representative(CanonicalKey(1, 0, 0), 4)
    with pytest.raises(ValueError, match="key needs 5 vertices but n=4"):
        canonical_representative(CanonicalKey(5, 4, 15), 4)
    assert canonical_representative(CanonicalKey(0, 0, 0), 3) == empty(3)
    assert canonical_representative(CanonicalKey(3, 3, 7), 4) == make_graph(4, [(0, 1), (0, 2), (1, 2)])


def test_canonical_support_budget():
    # 12 non-isolated vertices exceed MAX_CANONICAL_SUPPORT
    g = make_graph(12, [(i, i + 1) for i in range(0, 11, 2)] + [(0, 11)])
    assert g.support_size() > 10
    with pytest.raises(BudgetError, match=r"^canonical key search over 12 support vertices; limit is 10$"):
        canonical_form(g)


def test_enumerate_counts_match_orbit_counting():
    for n in (4, 5, 6):
        total = sum(len(enumerate_graphs(n, m)) for m in range(edge_slots(n) + 1))
        assert total == burnside_graph_count(n)


@pytest.mark.parametrize(
    "n, m",
    [(n, m) for n in range(1, 6) for m in range(edge_slots(n) + 1)]
    + [(6, m) for m in (0, 1, 2, 3, 4, 11, 12, 13, 14, 15)],
)
def test_enumerate_matches_subset_walk_oracle(n, m):
    want = [canonical_representative(key, n) for key in oracle_enumerate_keys(n, m)]
    assert list(enumerate_graphs(n, m)) == want


@pytest.mark.parametrize(
    "n, m",
    [(n, m) for n in range(2, 8) for m in range(1, edge_slots(n) + 1)] + [(8, m) for m in range(1, 7)],
)
def test_enumerate_matches_full_extension_oracle(n, m):
    assert enumerate_graphs(n, m) == oracle_extend_level(n, m)


@pytest.mark.parametrize("n", range(1, 7))
def test_extension_keys_one_absent_edge_per_pair_of_twin_classes(n):
    for m in range(edge_slots(n) + 1):
        for g in enumerate_graphs(n, m):
            nbrs = [set() for _ in range(n)]
            for i, j in g.edge_list():
                nbrs[i].add(j)
                nbrs[j].add(i)
            lead = _twin_classes(_adjacency(n, g.edges))
            for u in range(n):
                for v in range(n):
                    twins = nbrs[u] - {v} == nbrs[v] - {u}
                    assert twins == (lead[u] == lead[v]), (g, u, v)
                    if twins:
                        swap = list(range(n))
                        swap[u], swap[v] = v, u
                        assert relabel(g, tuple(swap)) == g, (g, u, v)
            pt = pair_table(n)
            joined = {
                frozenset((lead[i], lead[j]))
                for k, (i, j) in enumerate(pt)
                if not g.edges >> k & 1
            }
            slots = _extension_slots(g)
            assert all(not g.edges >> k & 1 for k in slots), g
            picked = [frozenset((lead[pt[k][0]], lead[pt[k][1]])) for k in slots]
            assert len(picked) == len(set(picked)) and set(picked) == joined, g


@pytest.mark.parametrize("n", range(2, 10))
def test_edge_invariants_are_kept_by_relabeling(n):
    rng = random.Random(n)
    pt = pair_table(n)
    for density in (0.2, 0.5, 0.8):
        for _ in range(10):
            g = Graph(n, sum(1 << k for k in range(edge_slots(n)) if rng.random() < density))
            perm = list(range(n))
            rng.shuffle(perm)
            image = _edge_invariants(n, relabel(g, tuple(perm)).edges)
            inv = _edge_invariants(n, g.edges)
            assert sorted(inv) == list(iter_bits(g.edges))
            for k, (i, j) in enumerate(pt):
                if g.edges >> k & 1:
                    assert image[edge_index(n, perm[i], perm[j])] == inv[k], (g, perm, k)


@pytest.mark.parametrize("n", range(2, 8))
def test_tops_edge_invariant_matches_full_invariant_oracle(n):
    # Every candidate child of every level: each absent edge picked by
    # _extension_slots, added to each representative of the level below.
    for m in range(1, edge_slots(n) + 1):
        for g in enumerate_graphs(n, m - 1):
            for k in _extension_slots(g):
                child = g.edges | 1 << k
                assert _tops_edge_invariant(n, child, k) == oracle_tops_edge_invariant(n, child, k), (g, k)


def _in_budget_levels(n: int) -> list[int]:
    slots = edge_slots(n)
    return [m for m in range(slots + 1) if comb(slots, min(m, slots - m)) <= SUBSET_BUDGET]


def test_enumerate_key_calls(monkeypatch):
    # Deterministic work counts of cold extension: every absent edge took
    # 2,200 and 1,048 calls, one absent edge per pair of twin classes 1,271
    # and 366, keying only children whose new edge tops the edge invariant
    # 346 and 147; reading the classes on fewer than n vertices off level
    # (n - 1, m) takes the counts below.
    calls = count_key_calls(monkeypatch)
    counts = []
    for n, m in [(7, 8), (8, 6)]:
        enumerate_graphs.cache_clear()
        calls[0] = 0
        enumerate_graphs(n, m)
        counts.append(calls[0])
    assert counts == [331, 141]


def test_cache_clear_leaves_the_next_enumeration_cold(monkeypatch):
    # enumerate_graphs holds the only level cache: after every in-budget
    # level up to n = 8 was built, cache_clear makes (7, 8) pay its cold
    # count again.
    for n in range(1, 9):
        for m in _in_budget_levels(n):
            enumerate_graphs(n, m)
    calls = count_key_calls(monkeypatch)
    enumerate_graphs.cache_clear()
    enumerate_graphs(7, 8)
    assert calls[0] == 331


@pytest.mark.parametrize("n", range(1, 10))
def test_layered_levels_match_flat_levels(n):
    # Every in-budget level: all of them up to n = 7, m <= 6 and m >= 22
    # at n = 8, m <= 5 and m >= 31 at n = 9.
    flat = oracle_flat_levels(n)
    assert sorted(flat) == _in_budget_levels(n)
    for m, level in flat.items():
        assert enumerate_graphs(n, m) == level, (n, m)
        assert [_representative_key(g) for g in level] == [canonical_form(g) for g in level], (n, m)


def test_levels_do_not_depend_on_which_lower_levels_are_cached():
    # Upward, each level (n - 1, m) is cached before (n, m) reads it;
    # downward, (n, m) builds it on demand.
    walks = []
    for ns, desc in [(range(1, 10), False), (range(9, 0, -1), True)]:
        enumerate_graphs.cache_clear()
        walks.append({
            (n, m): enumerate_graphs(n, m) for n in ns for m in sorted(_in_budget_levels(n), reverse=desc)
        })
    assert walks[0] == walks[1]


def test_enumerate_level_counts_on_four_vertices():
    assert [len(enumerate_graphs(4, m)) for m in range(7)] == [1, 1, 2, 3, 2, 1, 1]


def test_enumerate_three_edge_classes():
    reps = enumerate_graphs(6, 3)
    assert len(reps) == 5
    expected = [named("triangle"), named("3-path"), named("k13"),
                make_graph(5, [(0, 1), (1, 2), (3, 4)]), named("3k2")]
    for want in expected:
        assert sum(1 for r in reps if brute_isomorphic(r, want)) == 1
    for a, b in zip(reps, reps[1:]):
        assert not brute_isomorphic(a, b)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("n, m", [(5.0, 3), (5, 3.0), (True, 0), (2, True)])
def test_enumerate_counts_must_be_ints(warm, n, m):
    # 5 == 5.0 and 1 == True with equal hashes, so an untyped cache once
    # answered them with the int level after it had been built.
    enumerate_graphs.cache_clear()
    if warm:
        enumerate_graphs(int(n), int(m))
    name, value = ("vertex count", n) if type(n) is not int else ("edge count", m)
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {value!r}$"):
        enumerate_graphs(n, m)


def test_enumerate_budget():
    with pytest.raises(BudgetError):
        enumerate_graphs(10, 3)


@pytest.mark.parametrize("n", [0, -2])
def test_enumerate_refuses_fewer_than_one_vertex(n):
    with pytest.raises(ValueError, match=f"vertex count must be at least 1, got {n}"):
        enumerate_graphs(n, 0)


def test_connected_on_support():
    assert connected_on_support(named("triangle"))
    assert connected_on_support(named("paw"))
    assert not connected_on_support(named("2k2"))
    assert connected_on_support(make_graph(6, [(2, 4)]))  # single edge, isolates ignored


def test_support_and_connectivity_match_edge_loop_oracles():
    for n in range(1, 7):
        for bits in range(1 << edge_slots(n)):
            g = Graph(n, bits)
            assert g.support_mask() == oracle_support_mask(g), (n, bits)
            assert connected_on_support(g) == oracle_connected_on_support(g), (n, bits)


# graph6 codec


def test_graph6_frozen_strings():
    assert to_graph6(empty(1)) == "@"
    assert to_graph6(make_graph(2, [(0, 1)])) == "A_"
    assert to_graph6(complete(4)) == "C~"
    assert parse_graph6("@") == empty(1)
    assert parse_graph6("A_") == make_graph(2, [(0, 1)])
    assert parse_graph6("C~") == complete(4)


def test_graph6_header_and_whitespace():
    assert parse_graph6(">>graph6<<C~\n") == complete(4)
    assert parse_graph6("  A_ ") == make_graph(2, [(0, 1)])


def test_graph6_exhaustive_roundtrip_small():
    for n in range(1, 6):
        for bits in range(1 << edge_slots(n)):
            g = Graph(n, bits)
            assert parse_graph6(to_graph6(g)) == g


def test_graph6_malformed():
    for bad in ["", "C", "C~~", "~??", chr(62) + "_", "A" + chr(127), "A@"]:
        with pytest.raises(GraphFormatError):
            parse_graph6(bad)


def test_graph6_rejects_nonzero_padding():
    # K2's byte has 1 data bit; force a padding bit on
    with pytest.raises(GraphFormatError):
        parse_graph6("A" + chr(63 + 0b010001))


@pytest.mark.parametrize("n", range(1, 17))
def test_graph6_matches_pair_loop_oracle(n):
    # Every graph up to n=5, 200 seeded graphs (empty and complete among
    # them) from n=6 on.
    slots = edge_slots(n)
    if n <= 5:
        cases = range(1 << slots)
    else:
        rng = random.Random(f"graph6:{n}")
        cases = [0, (1 << slots) - 1] + [rng.getrandbits(slots) for _ in range(198)]
    for bits in cases:
        g = Graph(n, bits)
        text = to_graph6(g)
        assert text == oracle_to_graph6(g), bits
        assert parse_graph6(text) == oracle_parse_graph6(text) == g, bits


def test_graph6_malformed_matches_oracle_messages():
    # Every malformed input fails with the oracle's exception type and message.
    bad_inputs = [
        "", ">>graph6<<", "C", "C~~", "~??", chr(62) + "_", "A" + chr(127), "A@",
        "A" + chr(63 + 0b010001), "B@", "Q", "P" + "~" * 20, "O" + "~" * 19, "O" + "~" * 20 + "?",
    ]
    for bad in bad_inputs:
        with pytest.raises(GraphFormatError) as want:
            oracle_parse_graph6(bad)
        with pytest.raises(GraphFormatError) as got:
            parse_graph6(bad)
        assert str(got.value) == str(want.value), bad
