import random

import pytest

from kended.constructive import (
    COVERING,
    RESIDUAL_BOUND,
    augment,
    base_path,
    construct_k_ended_tree,
    maximal_attachment_path,
)
from kended.errors import CapExceededError, InternalInvariantError
from kended.families import GraphFamilySpec, enumerate_connected_labeled_graphs, make_family
from kended.graphs import Graph, Tree, VertexSet, iter_bits, mask_of
from kended.invariants import (
    alpha_mask,
    independence_number,
    maximum_independent_masks,
    set_connectivity,
)
from kended.treesearch import find_k_ended_covering_tree
from kended.verify import GraphContext

from conftest import time_limit
from oracles import (base_path_by_enumeration, base_path_by_first_path_walks, hypothesis_holds,
                     random_connected_graph, tree_from_edges)


def kmm(m, k):
    return make_family(GraphFamilySpec("complete-bipartite", (m, k)))


PATH11 = Graph.from_edges(11, [(i, i + 1) for i in range(10)])    # one vertex above the cap


# base paths


def test_base_path_on_path_graph_covers():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    path = base_path(g, VertexSet.full(4))
    assert path == (0, 1, 2, 3)


def test_base_path_k23_must_cover():
    # alpha=3, kappa=2: the residual bound is 0, impossible for a nonempty
    # remainder, so only a covering path can be returned
    graph, subset = kmm(2, 1)
    path = base_path(graph, subset)
    assert subset.mask & ~mask_of(path) == 0


def test_base_path_star_leaves_residual():
    graph, subset = kmm(1, 3)    # hub 0, leaves 1..4
    path = base_path(graph, subset)
    remainder = subset.mask & ~mask_of(path)
    assert remainder != 0
    assert alpha_mask(graph, remainder)[0] <= 4 - 1 - 1


def test_base_path_matches_enumeration_every_labelled_graph_n_le_5():
    for n in range(1, 6):
        for graph in enumerate_connected_labeled_graphs(n):
            for smask in range(1, 1 << n):
                subset = VertexSet(n, smask)
                assert base_path(graph, subset) == base_path_by_enumeration(graph, subset), (graph, smask)


def random_connected_bipartite(rng, n):
    while True:
        small = rng.randint(2, 4)
        graph = Graph.from_edges(n, [(a, b) for a in range(small) for b in range(small, n)
                                     if rng.random() < 0.5])
        if graph.is_connected():
            return graph


def test_base_path_matches_enumeration_on_random_graphs():
    # bipartite hosts have no Hamiltonian path, so most answers are residual-bound paths
    rng = random.Random(909)
    for i in range(60):
        n = 9 + i % 2
        graph = random_connected_bipartite(rng, n) if i % 3 else random_connected_graph(rng, n, 0.3)
        for smask in [graph.full_mask] + [rng.randrange(1, 1 << n) for _ in range(2)]:
            subset = VertexSet(n, smask)
            assert base_path(graph, subset) == base_path_by_enumeration(graph, subset), (graph, smask)


def test_base_path_matches_the_uncached_walks_every_labelled_graph_n_le_5():
    # one Graph per side: the memo fills across the subsets of one, never the other
    for n in range(1, 6):
        for graph in enumerate_connected_labeled_graphs(n):
            fresh = Graph(n, graph.rows)
            for smask in range(1, 1 << n):
                subset = VertexSet(n, smask)
                assert base_path(graph, subset) == base_path_by_first_path_walks(fresh, subset), (graph, smask)


def test_base_path_matches_the_uncached_walks_on_random_graphs():
    rng = random.Random(3131)
    for n in range(2, 11):
        for _ in range(8):
            graph = random_connected_bipartite(rng, n) if n > 4 and rng.random() < 0.5 else \
                random_connected_graph(rng, n, rng.choice((0.3, 0.5)))
            fresh = Graph(n, graph.rows)
            for smask in rng.sample(range(1, 1 << n), min(60, (1 << n) - 1)):
                subset = VertexSet(n, smask)
                assert base_path(graph, subset) == base_path_by_first_path_walks(fresh, subset), (graph, smask)


def test_base_path_input_validation():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        base_path(g, VertexSet.full(4))    # disconnected
    g2 = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        base_path(g2, VertexSet.empty(2))
    with pytest.raises(CapExceededError):
        base_path(PATH11, VertexSet.full(11))


# maximal attachment paths


def test_attachment_star_center():
    graph, subset = kmm(1, 3)
    tree = Tree(5, 0)
    path = maximal_attachment_path(graph, tree, subset)
    assert len(path) == 2 and path[-1] == 0
    assert subset.mask >> path[0] & 1


def test_attachment_unique_maximal_path():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    tree = tree_from_edges(5, (0, 1), [(0, 1)])
    path = maximal_attachment_path(g, tree, VertexSet.from_vertices(5, [4]))
    assert path == (4, 3, 2, 1)


def test_attachment_prefers_longer_arc():
    # arcs from the target to the tree edge: lengths 4 and 3; the longer wins
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    tree = tree_from_edges(6, (0, 1), [(0, 1)])
    path = maximal_attachment_path(g, tree, VertexSet.from_vertices(6, [3]))
    assert path == (3, 4, 5, 0)
    path = maximal_attachment_path(g, tree, VertexSet.from_vertices(6, [4]))
    assert path == (4, 3, 2, 1)
    # the cycle 0-3-2-1-4-0: the longer arc from 1, by 2 and 3, is found first
    # and must stand against the shorter one by 4 found after it
    c5 = Graph.from_edges(5, [(0, 3), (3, 2), (2, 1), (1, 4), (4, 0)])
    assert maximal_attachment_path(c5, Tree(5, 0), VertexSet.from_vertices(5, [1])) == (1, 2, 3, 0)


def test_attachment_search_is_refused_above_the_cap():
    # uncapped, the path search takes seconds on K_11 and minutes on K_12;
    # above the cap it is refused before it starts
    k11 = Graph.from_edges(11, [(u, v) for u in range(11) for v in range(u + 1, 11)])
    with time_limit(2), pytest.raises(CapExceededError):
        maximal_attachment_path(k11, Tree(11, 0), VertexSet.from_vertices(11, range(1, 11)))


def test_attachment_hits_every_maximum_independent_subset():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(3, 7)
        graph = random_connected_graph(rng, n, 0.45)
        # grow a small random subtree
        start = rng.randrange(n)
        tree = Tree(n, start)
        for _ in range(rng.randint(0, n - 2)):
            frontier = [
                (w, u)
                for w in tree.vertices
                for u in iter_bits(graph.rows[w] & ~tree.vertex_mask)
            ]
            if not frontier:
                break
            w, u = rng.choice(frontier)
            tree = tree_from_edges(n, tree.vertices + (u,), list(tree.edges) + [(w, u)])
        smask = rng.randrange(1, 1 << n)
        subset = VertexSet(n, smask)
        if smask & ~tree.vertex_mask == 0:
            with pytest.raises(ValueError):
                maximal_attachment_path(graph, tree, subset)
            continue
        path = maximal_attachment_path(graph, tree, subset)
        union = 0
        for si in maximum_independent_masks(graph, smask & ~tree.vertex_mask):
            assert mask_of(path) & si, "attachment path must meet every maximum subset"
            union |= si
        assert (union >> path[0]) & 1
        assert mask_of(path) & tree.vertex_mask == 1 << path[-1]


def test_exchange_property_on_random_instances():
    # for any maximum independent subset of the remainder and any union vertex
    # outside it, some member is adjacent to that vertex
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 7)
        graph = random_connected_graph(rng, n, 0.4)
        smask = rng.randrange(1, 1 << n)
        subsets = maximum_independent_masks(graph, smask)
        union = 0
        for si in subsets:
            union |= si
        for si in subsets:
            others = union & ~si
            for s0 in VertexSet(n, others):
                assert graph.rows[s0] & si, "maximality forces a neighbor inside the subset"


# augmentation


def test_augment_extends_path():
    t = tree_from_edges(3, (0, 1), [(0, 1)])
    merged = augment(t, (2, 1))
    assert merged.vertices == (0, 1, 2)
    assert merged.leaf_count == 2


def test_augment_creates_spider():
    t = Tree.from_path(4, (0, 1, 2))
    merged = augment(t, (3, 1))
    assert merged.leaf_count == 3
    assert merged.branch_mask == 1 << 1


def test_augment_from_single_vertex():
    t = Tree(3, 2)
    merged = augment(t, (0, 1, 2))
    assert merged.leaf_count == 2


def test_augment_rejects_bad_paths():
    t = Tree.from_path(4, (0, 1, 2))
    with pytest.raises(ValueError):
        augment(t, (3, 0, 1))    # touches the tree before its end (would cycle)
    with pytest.raises(ValueError):
        augment(t, (3,))
    with pytest.raises(ValueError):
        augment(t, (0, 3))       # ends outside the tree
    # a path repeats no vertex, though it meets the tree only at its end
    for path in ((3, 4, 3), (4, 0, 4, 3), (0, 4, 4, 3)):
        with pytest.raises(ValueError):
            augment(Tree.from_path(5, (1, 2, 3)), path)


# the full construction


def test_construct_k34_covering_path():
    graph, subset = kmm(3, 1)
    outcome = construct_k_ended_tree(graph, subset, 2)
    assert outcome.kind == COVERING
    assert outcome.tree.covers(subset)
    assert outcome.tree.leaf_count <= 2
    assert len(outcome.trace) == 1


def test_construct_singleton_subset():
    graph, _ = kmm(2, 1)
    outcome = construct_k_ended_tree(graph, VertexSet.from_vertices(5, [3]), 4)
    assert outcome.kind == COVERING
    assert outcome.tree.vertices == (3,)
    assert outcome.bound is None


def test_construct_empty_subset():
    graph, _ = kmm(2, 1)
    outcome = construct_k_ended_tree(graph, VertexSet.empty(5), 2)
    assert outcome.kind == COVERING
    assert len(outcome.tree.vertices) == 1


def test_construct_sharpness_cell_residual():
    # hypothesis fails by exactly one: residual <= alpha - kappa - k + 1 = 1
    graph, subset = kmm(2, 2)
    outcome = construct_k_ended_tree(graph, subset, 2)
    assert outcome.kind == RESIDUAL_BOUND
    assert outcome.bound == 1
    fresh = alpha_mask(graph, subset.mask & ~outcome.tree.vertex_mask)[0]
    assert fresh == outcome.residual_alpha
    assert fresh <= 1
    assert outcome.tree.leaf_count <= 2


def test_construct_input_validation():
    graph, subset = kmm(2, 1)
    with pytest.raises(ValueError):
        construct_k_ended_tree(graph, subset, 1)
    bad = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        construct_k_ended_tree(bad, VertexSet.full(4), 2)
    with pytest.raises(CapExceededError):
        construct_k_ended_tree(PATH11, VertexSet.full(11), 2)


def test_construct_trace_replays_to_tree():
    graph, subset = kmm(2, 2)
    outcome = construct_k_ended_tree(graph, subset, 3)
    tree = Tree.from_path(graph.n, outcome.trace[0])
    for p in outcome.trace[1:]:
        tree = augment(tree, p)
    assert tree == outcome.tree


def assert_resumes_match_fresh(graph, subset, ks):
    """Each k resumed from the fresh k - 1 and from the fresh smallest k, and each k of
    the sweep context, equals a fresh run in kind, tree, residual_alpha, bound and trace
    (the outcome's fields); a covering start with |S| >= 2 hands on its own tree, and the
    context hands on a covering at k - 1 itself. Returns the number of attachments made
    at the largest k."""
    fresh = {k: construct_k_ended_tree(graph, subset, k) for k in ks}
    for k in ks[1:]:
        for previous in {k - 1, ks[0]}:
            start = fresh[previous]
            resumed = construct_k_ended_tree(graph, subset, k, start=start)
            assert resumed == fresh[k]
            if start.kind == COVERING and len(subset) >= 2:
                assert resumed.tree is start.tree
    ctx = GraphContext(graph)
    for k in ks:
        outcome = ctx.construct(subset.mask, k)
        assert outcome == fresh[k]
        start = ctx._construct.get((subset.mask, k - 1))
        if start is not None and start.kind == COVERING:    # equal to fresh, so its bound is one lower
            assert outcome.tree is start.tree and outcome.trace is start.trace
    return len(fresh[ks[-1]].trace) - 1


def test_resumed_construction_matches_fresh_every_labelled_graph_n_le_5():
    for n in range(1, 6):
        for graph in enumerate_connected_labeled_graphs(n):
            for smask in range(1, 1 << n):
                assert_resumes_match_fresh(graph, VertexSet(n, smask), (2, 3, 4, 5))


def test_a_covering_start_is_checked_against_the_leaf_budget():
    # the claw's three leaves fit k = 3, not k = 2: the budget is checked at every k
    claw = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    leaves = VertexSet(4, 0b1110)
    three = construct_k_ended_tree(claw, leaves, 3)
    assert three.kind == COVERING and three.tree.leaf_count == 3
    with pytest.raises(InternalInvariantError, match="covering tree exceeded the leaf budget"):
        construct_k_ended_tree(claw, leaves, 2, start=three)


def test_resumed_construction_matches_fresh_on_bipartite_n10():
    rng = random.Random(1010)
    attachments = 0
    for _ in range(40):
        label = list(range(10))
        rng.shuffle(label)
        edges = [(label[a], label[3 + b]) for a in range(3) for b in range(7) if rng.random() < 0.8]
        graph = Graph.from_edges(10, edges)
        if graph.is_connected():
            attachments += assert_resumes_match_fresh(graph, VertexSet.full(10), (2, 3, 4, 5, 6))
    assert attachments > 0


def test_construct_agrees_with_oracle_exhaustive_small():
    # hypothesis-true instances must come out covering, and the witness audits
    for n in range(1, 5):
        for graph in enumerate_connected_labeled_graphs(n):
            for smask in range(1, 1 << n):
                subset = VertexSet(n, smask)
                alpha = independence_number(graph, subset).size
                kappa = set_connectivity(graph, subset)
                for k in (2, 3):
                    outcome = construct_k_ended_tree(graph, subset, k)
                    graph.check_tree(outcome.tree)
                    if hypothesis_holds(alpha, k, kappa):
                        assert outcome.kind == COVERING
                        assert outcome.tree.covers(subset)
                        assert outcome.tree.leaf_count <= k
                        assert find_k_ended_covering_tree(graph, subset, k) is not None
                    if outcome.kind == RESIDUAL_BOUND:
                        fresh = alpha_mask(graph, smask & ~outcome.tree.vertex_mask)[0]
                        assert fresh == outcome.residual_alpha
                        assert not kappa.is_infinite
                        assert fresh <= alpha - kappa.finite - k + 1
