import random

import pytest
from hypothesis import given, settings

from kended.errors import CapExceededError
from kended.families import GraphFamilySpec, enumerate_connected_labeled_graphs, make_family, random_gnp
from kended.graphs import Graph, VertexSet
from kended.treesearch import (
    covering_tree_with_branch_budget,
    find_k_ended_covering_tree,
    hamiltonian_path_exists,
    min_branch_covering_tree,
    minimum_leaf_covering_tree,
)

from conftest import graphs
from oracles import (
    _min_leaf_table,
    _path_endpoint_table,
    covering_path_by_forward_dp,
    hamiltonian_path_by_permutations,
    min_branch_cover_by_enumeration,
    min_leaf_cover_by_enumeration,
    random_connected_graph,
)


def kmm(m, k):
    return make_family(GraphFamilySpec("complete-bipartite", (m, k)))


def star(k):
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def audit(graph, subset, tree, max_leaves=None, max_branch=None):
    tree.validate_in(graph)
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


def test_existence_cap():
    g = Graph.from_edges(11, [(i, i + 1) for i in range(10)])
    with pytest.raises(CapExceededError):
        find_k_ended_covering_tree(g, VertexSet.full(11), 2)
    tree = find_k_ended_covering_tree(g, VertexSet.full(11), 2, cap=11)
    audit(g, VertexSet.full(11), tree, max_leaves=2)


def test_k_below_two_rejected():
    with pytest.raises(ValueError):
        find_k_ended_covering_tree(star(3), VertexSet.full(4), 1)


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
    assert tree.branch_vertices().to_list() == [0]


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
    assert sorted(path.vertices) == list(range(10))
    path.validate_in(graph)


def test_hamiltonian_path_star_none():
    assert hamiltonian_path_exists(star(3)) is None


def test_hamiltonian_path_c6():
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert hamiltonian_path_exists(g) is not None


def test_hamiltonian_path_tiny():
    assert hamiltonian_path_exists(Graph(0, [])) is None
    assert hamiltonian_path_exists(Graph(1, [0])).vertices == (0,)
    with pytest.raises(CapExceededError):
        hamiltonian_path_exists(Graph(12, [0] * 12))


# cross-route consistency


def connected_graphs_up_to(n_max):
    for n in range(1, n_max + 1):
        yield from enumerate_connected_labeled_graphs(n)


def test_covering_path_matches_forward_dp_every_labelled_graph_n_le_5():
    # the shared endpoint table must give the very witness the forward DP unwinds
    for graph in connected_graphs_up_to(5):
        for smask in range(1 << graph.n):
            assert graph.covering_path(smask) == covering_path_by_forward_dp(graph, smask)


def test_covering_path_matches_forward_dp_on_random_graphs():
    rng = random.Random(404)
    for i in range(300):
        graph = random_gnp(6 + i % 5, 0.5, rng)
        for _ in range(4):
            smask = rng.randrange(1 << graph.n)
            assert graph.covering_path(smask) == covering_path_by_forward_dp(graph, smask)


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
