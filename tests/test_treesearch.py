import hashlib
import random

import pytest
from hypothesis import given, settings

from kended import treesearch
from kended.errors import CapExceededError
from kended.families import GraphFamilySpec, enumerate_connected_labeled_graphs, make_family, random_gnp
from kended.graphs import Graph, Tree, VertexSet
from kended.invariants import subset_alpha
from kended.treesearch import (
    covering_tree_with_branch_budget,
    find_k_ended_covering_tree,
    hamiltonian_path_exists,
    min_branch_covering_tree,
    minimum_leaf_covering_tree,
)

from conftest import graphs, labelled_graphs
from oracles import (
    _min_leaf_table,
    _path_endpoint_table,
    bipartite_3_7,
    covering_path_by_forward_dp,
    covering_set_by_and_loop,
    grow_tree_unpruned,
    hamiltonian_path_by_backtracking,
    hamiltonian_path_by_permutations,
    independent_sets_by_enumeration,
    min_branch_cover_by_enumeration,
    min_leaf_cover_by_enumeration,
    random_connected_graph,
    tree_from_edges,
)


def kmm(m, k):
    return make_family(GraphFamilySpec("complete-bipartite", (m, k)))


def star(k):
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def audit(graph, subset, tree, max_leaves=None, max_branch=None):
    graph.check_tree(tree)
    assert tree.covers(subset)
    if max_leaves is not None:
        assert tree.leaf_count <= max_leaves
    if max_branch is not None:
        assert tree.branch_count <= max_branch
    if len(tree.vertices) >= 2:
        assert tree.branch_count <= tree.leaf_count - 2


# existence


def test_star_has_no_spanning_two_ended_tree():
    g = star(3)
    assert find_k_ended_covering_tree(g, VertexSet.full(4), 2) is None


def test_star_is_its_own_three_ended_tree():
    g = star(3)
    tree = find_k_ended_covering_tree(g, VertexSet.full(4), 3)
    audit(g, VertexSet.full(4), tree, max_leaves=3)


def test_k23_large_part_covered_by_path():
    graph, subset = kmm(2, 1)
    tree = find_k_ended_covering_tree(graph, subset, 2)
    audit(graph, subset, tree, max_leaves=2)
    assert 4 <= len(tree.vertices) <= 5


def test_empty_and_singleton_subsets_are_trivial():
    g = star(3)
    t = find_k_ended_covering_tree(g, VertexSet.empty(4), 2)
    assert len(t.vertices) == 1
    t = find_k_ended_covering_tree(g, VertexSet.from_vertices(4, [2]), 2)
    assert t.vertices == (2,)
    assert t.leaf_count == 0


def test_uncoverable_subset_returns_none():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert find_k_ended_covering_tree(g, VertexSet.full(4), 4) is None


def test_a_disconnected_host_covers_s_only_inside_one_component():
    # S inside one component is covered by that component's edge tree; S
    # across both components has no covering tree, and the minimum is refused
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    inside, across = VertexSet.from_vertices(4, [0, 1]), VertexSet.from_vertices(4, [0, 2])
    edge = tree_from_edges(4, (0, 1), [(0, 1)])
    assert find_k_ended_covering_tree(g, inside, 2) == edge
    assert covering_tree_with_branch_budget(g, inside, 0) == edge
    assert find_k_ended_covering_tree(g, across, 4) is None
    assert covering_tree_with_branch_budget(g, across, 2) is None
    with pytest.raises(ValueError, match="subset spans more than one component"):
        minimum_leaf_covering_tree(g, across)


def test_existence_cap():
    g = Graph.from_edges(11, [(i, i + 1) for i in range(10)])
    with pytest.raises(CapExceededError):
        find_k_ended_covering_tree(g, VertexSet.full(11), 2)
    tree = find_k_ended_covering_tree(g, VertexSet.full(11), 2, cap=11)
    audit(g, VertexSet.full(11), tree, max_leaves=2)


def test_k_below_two_rejected():
    with pytest.raises(ValueError):
        find_k_ended_covering_tree(star(3), VertexSet.full(4), 1)


# The witnesses of both growth searches, recorded on CPython 3.10, 3.11 and
# 3.12; a change to the search must return the same trees.
WITNESS_SHA256 = "382a33d82be8373d937981cdea1e90c674954257c504e1c813657260bf76b0df"


def witness_instances():
    """Seeded graphs, each with S = V and two random S, many of which miss a covering path."""
    rng = random.Random(1717)
    hosts = [random_connected_graph(rng, 7 + i % 4, 0.35) for i in range(40)]
    hosts += [bipartite_3_7(rng) for _ in range(20)]
    # random recursive trees: their many branch vertices defeat the small branch budgets
    hosts += [Graph.from_edges(10, [(rng.randrange(v), v) for v in range(1, 10)]) for _ in range(10)]
    for graph in hosts:
        for smask in (graph.full_mask, rng.randrange(1, 1 << graph.n), rng.randrange(1, 1 << graph.n)):
            yield graph, VertexSet(graph.n, smask)


def test_growth_search_witnesses_are_pinned():
    digest = hashlib.sha256()
    outcomes = set()
    for graph, subset in witness_instances():
        for search, budgets in ((find_k_ended_covering_tree, range(3, 7)),
                                (covering_tree_with_branch_budget, range(1, 5))):
            for budget in budgets:
                tree = search(graph, subset, budget)
                outcomes.add((search, tree is None))
                digest.update(repr(tree.edges if tree else None).encode())
    assert len(outcomes) == 4    # each search both finds a tree and finds none
    assert digest.hexdigest() == WITNESS_SHA256


# The forced-leaf bounds cut only states from which no accepting tree is
# reachable, so the first tree in DFS order, and every witness, must be the
# one the unpruned body in tests/oracles.py returns.


def public_witnesses(cases):
    return [tree.edges if tree else None
            for graph, subset in cases
            for search, budgets in ((find_k_ended_covering_tree, range(2, 8)),
                                    (covering_tree_with_branch_budget, range(6)))
            for tree in (search(graph, subset, budget) for budget in budgets)]


def assert_witnesses_match_unpruned(monkeypatch, instances):
    cases = [(graph, VertexSet(graph.n, smask)) for graph, smask in instances]
    grown = []
    grow = treesearch._grow_tree

    def recording(*args):
        grown.append(args)
        return grow(*args)

    monkeypatch.setattr(treesearch, "_grow_tree", recording)
    pruned = public_witnesses(cases)
    assert grown    # the growth search ran
    monkeypatch.setattr(treesearch, "_grow_tree", grow_tree_unpruned)
    assert public_witnesses(cases) == pruned


def test_bounded_growth_search_matches_unpruned_every_labelled_graph_n_le_5(monkeypatch):
    assert_witnesses_match_unpruned(monkeypatch, [(graph, smask) for graph in connected_graphs_up_to(5)
                                                  for smask in range(1 << graph.n)])


def test_bounded_growth_search_matches_unpruned_on_random_gnp(monkeypatch):
    rng = random.Random(1818)
    instances = []
    for i in range(100):
        graph = random_connected_graph(rng, 6 + i % 5, rng.choice((0.3, 0.45, 0.6)))
        instances += [(graph, graph.full_mask)] + [(graph, rng.randrange(1, 1 << graph.n)) for _ in range(3)]
    assert_witnesses_match_unpruned(monkeypatch, instances)


def test_bounded_growth_search_matches_unpruned_on_random_trees(monkeypatch):
    rng = random.Random(1819)
    instances = []
    for i in range(60):
        n = 6 + i % 5
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        u, v = rng.sample(range(n), 2)
        chord = [] if (min(u, v), max(u, v)) in edges else [(u, v)]
        for graph in (Graph.from_edges(n, edges), Graph.from_edges(n, edges + chord)):
            instances += [(graph, graph.full_mask), (graph, rng.randrange(1, 1 << n))]
    assert_witnesses_match_unpruned(monkeypatch, instances)


def test_bounded_growth_search_matches_unpruned_on_complete_bipartite(monkeypatch):
    rng = random.Random(1820)
    instances = []
    for a in range(1, 10):
        for b in range(1, 11 - a):
            graph = Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])
            instances += [(graph, graph.full_mask)] + [(graph, rng.randrange(1, 1 << graph.n)) for _ in range(3)]
    assert_witnesses_match_unpruned(monkeypatch, instances)


def test_each_bound_cuts_on_k37(monkeypatch):
    # K_{3,7} with the part of 7 labelled first, so the search starts there, S = V
    graph = Graph.from_edges(10, [(u, 7 + v) for u in range(7) for v in range(3)])
    subset = VertexSet.full(10)
    cut = []
    for name in ("_leaf_bound_cuts", "_branch_bound_cuts"):
        def recording(*args, name=name, bound=getattr(treesearch, name)):
            if bound(*args):
                cut.append(name)
                return True
            return False

        monkeypatch.setattr(treesearch, name, recording)
    assert [find_k_ended_covering_tree(graph, subset, k).leaf_count for k in range(5, 8)] == [5, 6, 7]
    assert "_leaf_bound_cuts" in cut and "_branch_bound_cuts" not in cut
    assert covering_tree_with_branch_budget(graph, subset, 1).branch_count == 1
    assert "_branch_bound_cuts" in cut


# minimum leaves


def test_min_leaf_kmm_2_2():
    graph, subset = kmm(2, 2)
    # frozen from the subtree-enumeration oracle
    assert min_leaf_cover_by_enumeration(graph, subset.mask) == 3
    value, tree = minimum_leaf_covering_tree(graph, subset)
    assert value == 3
    audit(graph, subset, tree, max_leaves=3)


def test_min_leaf_path_is_two():
    g = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    value, tree = minimum_leaf_covering_tree(g, VertexSet.full(5))
    assert value == 2
    assert tree.vertices == (0, 1, 2, 3, 4)


def test_min_leaf_k4_is_two():
    g = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    value, _ = minimum_leaf_covering_tree(g, VertexSet.full(4))
    assert value == 2


def test_min_leaf_singleton_and_empty():
    g = star(3)
    value, tree = minimum_leaf_covering_tree(g, VertexSet.from_vertices(4, [1]))
    assert value == 0 and tree.vertices == (1,)
    with pytest.raises(ValueError):
        minimum_leaf_covering_tree(g, VertexSet.empty(4))


# minimum branch vertices


def test_min_branch_kmm_2_2():
    graph, subset = kmm(2, 2)
    assert min_branch_cover_by_enumeration(graph, subset.mask) == 1
    value, tree = min_branch_covering_tree(graph, subset)
    assert value == 1
    audit(graph, subset, tree, max_branch=1)


def test_min_branch_path_zero():
    g = Graph.from_edges(4, [(i, i + 1) for i in range(3)])
    value, _ = min_branch_covering_tree(g, VertexSet.full(4))
    assert value == 0


def test_min_branch_star_hub():
    g = star(4)
    value, tree = min_branch_covering_tree(g, VertexSet.full(5))
    assert value == 1
    assert tree.branch_mask == 0b1


def test_branch_budget_query():
    graph, subset = kmm(1, 3)    # only covering tree is the star itself
    assert covering_tree_with_branch_budget(graph, subset, 0) is None
    tree = covering_tree_with_branch_budget(graph, subset, 1)
    audit(graph, subset, tree, max_branch=1)


# Hamiltonian path


def test_hamiltonian_path_petersen():
    graph, _ = make_family(GraphFamilySpec("petersen", ()))
    path = hamiltonian_path_exists(graph)
    assert path is not None
    assert sorted(path) == list(range(10))
    graph.check_tree(Tree.from_path(graph.n, path))


def test_hamiltonian_path_star_none():
    assert hamiltonian_path_exists(star(3)) is None


def test_hamiltonian_path_c6():
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert hamiltonian_path_exists(g) is not None


def test_hamiltonian_path_tiny():
    assert hamiltonian_path_exists(Graph(0, [])) is None
    assert hamiltonian_path_exists(Graph(1, [0])) == (0,)
    with pytest.raises(CapExceededError):
        hamiltonian_path_exists(Graph(12, [0] * 12))


def test_hamiltonian_witness_matches_backtracking_every_labelled_graph_n_le_5():
    for graph in connected_graphs_up_to(5):
        assert hamiltonian_path_exists(graph) == hamiltonian_path_by_backtracking(graph)


def test_hamiltonian_bound_on_complete_bipartite():
    # alpha(K_{a,b}) = max(a, b) exceeds ceil((a + b) / 2) iff |a - b| >= 2
    for a in range(1, 10):
        for b in range(1, 11 - a):
            graph = Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])
            fires = subset_alpha(graph, graph.full_mask) > (graph.n + 1) // 2
            assert fires == (abs(a - b) >= 2)
            path = hamiltonian_path_exists(graph)
            assert path == hamiltonian_path_by_backtracking(graph)
            assert (path is None) == fires


def test_hamiltonian_witness_matches_backtracking_on_3_7_bipartite():
    rng = random.Random(37)
    for _ in range(30):
        graph = bipartite_3_7(rng)
        assert subset_alpha(graph, graph.full_mask) >= 7
        assert hamiltonian_path_exists(graph) is None
        assert hamiltonian_path_by_backtracking(graph) is None


def test_hamiltonian_witness_matches_backtracking_on_random_gnp():
    rng = random.Random(610)
    for n in range(6, 11):
        for _ in range(25):
            graph = random_connected_graph(rng, n, 0.5)
            assert hamiltonian_path_exists(graph) == hamiltonian_path_by_backtracking(graph)


def test_hamiltonian_bound_reads_alpha_of_v_through_the_memo(monkeypatch):
    seen = []

    def recording(graph, smask):
        seen.append(smask)
        return subset_alpha(graph, smask)

    monkeypatch.setattr(treesearch, "subset_alpha", recording)
    rng = random.Random(5)
    for n in range(2, 9):
        for _ in range(5):
            seen.clear()
            graph = random_connected_graph(rng, n, 0.5)
            hamiltonian_path_exists(graph)
            assert seen == [graph.full_mask]


def test_hamiltonian_search_reads_no_path_or_leaf_plane(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("hamiltonian_path_exists read a path or minimum-leaf plane")

    for name in ("covering_set", "path_tree", "first_paths", "min_leaves"):
        monkeypatch.setattr(Graph, name, forbidden)
    pairs = [[(u, v) for u in range(n) for v in range(u + 1, n)] for n in range(6)]
    for n in range(6):
        for bits in range(1 << len(pairs[n])):
            graph = Graph.from_edges(n, [e for i, e in enumerate(pairs[n]) if bits >> i & 1])
            assert hamiltonian_path_exists(graph) == hamiltonian_path_by_backtracking(graph)
    petersen, _ = make_family(GraphFamilySpec("petersen", ()))
    path = hamiltonian_path_exists(petersen)
    assert path is not None and path == hamiltonian_path_by_backtracking(petersen)


# cross-route consistency


def connected_graphs_up_to(n_max):
    for n in range(1, n_max + 1):
        yield from enumerate_connected_labeled_graphs(n)


def covering_tree(graph, smask):
    pset = graph.covering_set(smask)
    return None if pset is None else graph.path_tree(pset)


def tree_of(graph, seq):
    return None if seq is None else Tree.from_path(graph.n, seq)


def test_covering_path_matches_forward_dp_every_labelled_graph_n_le_5():
    # the shared endpoint table must give the tree of the path the forward DP unwinds
    for graph in connected_graphs_up_to(5):
        for smask in range(1 << graph.n):
            assert covering_tree(graph, smask) == tree_of(graph, covering_path_by_forward_dp(graph, smask))


def test_covering_path_matches_forward_dp_on_random_graphs():
    rng = random.Random(404)
    for i in range(300):
        graph = random_gnp(6 + i % 5, 0.5, rng)
        for _ in range(4):
            smask = rng.randrange(1 << graph.n)
            assert covering_tree(graph, smask) == tree_of(graph, covering_path_by_forward_dp(graph, smask))


def test_covering_path_shortcut_matches_the_and_loop():
    # a path set S is the least path set containing S, so covering_set returns
    # S itself; it must be the set the AND over S's within planes finds
    rng = random.Random(808)
    hosts = list(labelled_graphs(5)) + [random_gnp(8 + i % 3, 0.5, rng) for i in range(15)]
    path_sets = 0
    for graph in hosts:
        spans = graph.path_planes()[1]
        for smask in range(1 << graph.n):
            assert graph.covering_set(smask) == covering_set_by_and_loop(graph, smask), (graph, smask)
            path_sets += spans >> smask & 1
    assert 0 < path_sets < sum(1 << graph.n for graph in hosts)


def assert_min_leaf_table_matches_enumeration(graph, smasks):
    table = _min_leaf_table(graph.rows, _path_endpoint_table(graph.rows))
    assert [graph.min_leaves(smask) for smask in range(1 << graph.n)] == list(table)
    for smask in smasks:
        expected = min_leaf_cover_by_enumeration(graph, smask)
        assert table[smask] == (graph.n + 1 if expected is None else expected), (graph, smask)


def test_min_leaf_table_matches_enumeration_every_labelled_graph_n_le_5():
    # every subset, empty included: the table is a third route beside growth and enumeration
    for graph in connected_graphs_up_to(5):
        assert_min_leaf_table_matches_enumeration(graph, range(1 << graph.n))


def test_min_leaf_table_matches_enumeration_on_random_graphs():
    # G(n, 0.5) need not be connected: a subset across components gets the sentinel n + 1
    rng = random.Random(606)
    for i in range(24):
        graph = random_gnp(6 + i % 3, 0.5, rng)
        assert_min_leaf_table_matches_enumeration(graph, [rng.randrange(1 << graph.n) for _ in range(6)])


def test_leaf_minimum_is_at_least_the_alpha_bound_every_labelled_graph_n_le_5():
    # the scattering bound: removing the vertices outside a maximum independent
    # subset I of S splits a covering tree with L leaves into |I| pieces, at
    # most their number plus L - 1, so L >= 2 alpha(S) - n + 1
    instances = tight = 0
    for graph in connected_graphs_up_to(5):
        table = _min_leaf_table(graph.rows, _path_endpoint_table(graph.rows))
        for smask in range(1 << graph.n):
            if smask & (smask - 1) == 0:
                continue
            lower = 2 * independent_sets_by_enumeration(graph, smask)[0] - graph.n + 1
            assert treesearch._leaf_lower_bound(graph, smask) == lower
            assert table[smask] >= lower, (graph, smask)
            instances += 1
            tight += table[smask] == lower
    assert (instances, tight) == (19363, 1064)


def test_alpha_bound_is_the_minimum_on_complete_bipartite():
    # S, the part of m + k vertices of K_{m,m+k}, has alpha m + k, so the bound
    # reads k + 1, the minimum of the sharpness family
    for m in range(1, 5):
        for k in range(1, 11 - 2 * m):
            graph, subset = kmm(m, k)
            table = _min_leaf_table(graph.rows, _path_endpoint_table(graph.rows))
            assert treesearch._leaf_lower_bound(graph, subset.mask) == table[subset.mask] == k + 1, (m, k)


def test_existence_consistent_with_minimum_exhaustive_small():
    for graph in connected_graphs_up_to(4):
        n = graph.n
        for smask in range(1, 1 << n):
            subset = VertexSet(n, smask)
            value, tree = minimum_leaf_covering_tree(graph, subset)
            audit(graph, subset, tree)
            assert tree.leaf_count == value
            for k in (2, 3, 4):
                found = find_k_ended_covering_tree(graph, subset, k)
                assert (found is not None) == (value <= k)
                if found is not None:
                    audit(graph, subset, found, max_leaves=k)
            branch_value, branch_tree = min_branch_covering_tree(graph, subset)
            audit(graph, subset, branch_tree)
            assert branch_tree.branch_count == branch_value
            for budget in (0, 1, 2):
                found = covering_tree_with_branch_budget(graph, subset, budget)
                assert (found is not None) == (branch_value <= budget)
                if found is not None:
                    audit(graph, subset, found, max_branch=budget)


def test_existence_consistent_with_minimum_sampled_n6():
    # exhaustion at every n <= 6 is out of unit-test budget; seeded sampling here,
    # full n <= 5 exhaustion lives in the acceptance tier
    rng = random.Random(66)
    for _ in range(120):
        n = rng.randint(5, 6)
        graph = random_connected_graph(rng, n, rng.choice((0.35, 0.5, 0.7)))
        subset = VertexSet(n, rng.randrange(1, 1 << n))
        value, tree = minimum_leaf_covering_tree(graph, subset)
        audit(graph, subset, tree)
        assert tree.leaf_count == value
        for k in (2, 3, 4):
            found = find_k_ended_covering_tree(graph, subset, k)
            assert (found is not None) == (value <= k)


def test_minima_match_subtree_enumeration_on_random_instances():
    rng = random.Random(2026)
    for _ in range(25):
        n = rng.randint(2, 6)
        graph = random_connected_graph(rng, n, 0.5)
        smask = rng.randrange(1, 1 << n)
        subset = VertexSet(n, smask)
        expect_leaf = min_leaf_cover_by_enumeration(graph, smask)
        expect_branch = min_branch_cover_by_enumeration(graph, smask)
        got_leaf, _ = minimum_leaf_covering_tree(graph, subset)
        got_branch, _ = min_branch_covering_tree(graph, subset)
        assert got_leaf == expect_leaf
        assert got_branch == expect_branch


@settings(max_examples=50, deadline=None)
@given(graphs(min_n=1, max_n=7, connected=True))
def test_hamiltonian_agrees_with_covering_path_oracle(graph):
    ham = hamiltonian_path_exists(graph)
    value, _ = minimum_leaf_covering_tree(graph, VertexSet.full(graph.n))
    assert (ham is not None) == (value <= 2)


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=6, connected=True))
def test_hamiltonian_matches_permutation_oracle(graph):
    assert (hamiltonian_path_exists(graph) is not None) == hamiltonian_path_by_permutations(graph)
