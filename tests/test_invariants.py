import operator
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kended import invariants
from kended.errors import CapExceededError
from kended.families import GraphFamilySpec, enumerate_connected_labeled_graphs, make_family
from kended.graphs import Graph, VertexSet
from kended.invariants import (
    ConnectivityValue,
    independence_number,
    local_connectivity,
    maximum_independent_masks,
    set_connectivity,
    set_connectivity_pair,
    subset_alpha,
)

from conftest import graph_with_subset, graphs
from oracles import (
    hypothesis_holds,
    independent_sets_by_enumeration,
    max_internally_disjoint_paths,
    vertex_connectivity_by_cuts,
)


def kmm(m, k):
    return make_family(GraphFamilySpec("complete-bipartite", (m, k)))


def c5():
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


# ConnectivityValue semantics


def test_connectivity_value_ordering():
    inf = ConnectivityValue.INFINITE
    assert inf.is_infinite
    assert inf > 10**9
    assert inf >= inf and inf == inf
    assert not inf < inf
    assert ConnectivityValue(3) == 3
    assert ConnectivityValue(3) < ConnectivityValue(4)
    assert ConnectivityValue(3) < inf
    assert ConnectivityValue(0) <= 0
    assert inf != 7


def test_connectivity_value_six_operators_match_int_order():
    inf = ConnectivityValue.INFINITE
    ops = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
    keys = {None: float("inf")}
    values = [None, 0, 1, 2, 5]
    for a in values:
        left = ConnectivityValue(a) if a is not None else inf
        for b in values:
            right = ConnectivityValue(b) if b is not None else inf
            ka, kb = keys.get(a, a), keys.get(b, b)
            for op in ops:
                assert op(left, right) is op(ka, kb), (op.__name__, a, b)
                if b is not None:
                    assert op(left, b) is op(ka, b), (op.__name__, a, b)
                    assert op(b, left) is op(b, ka), (op.__name__, b, a)
    for other in ("3", 3.0, None, object()):
        for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(ConnectivityValue(3), name)(other) is NotImplemented
            assert getattr(inf, name)(other) is NotImplemented
        assert ConnectivityValue(3) != other
        with pytest.raises(TypeError):
            ConnectivityValue(3) < other


def test_connectivity_value_json_and_repr():
    assert ConnectivityValue.INFINITE.to_json() == "infinity"
    assert ConnectivityValue(2).to_json() == 2
    assert str(ConnectivityValue.INFINITE) == "infinity"
    with pytest.raises(ValueError):
        ConnectivityValue(-1)


def test_hypothesis_holds_with_infinite_kappa():
    assert hypothesis_holds(10**6, 2, ConnectivityValue.INFINITE)
    assert hypothesis_holds(4, 2, ConnectivityValue(3))
    assert not hypothesis_holds(4, 2, ConnectivityValue(2))


# independence numbers


def test_alpha_on_k34_larger_part():
    graph, subset = kmm(3, 1)
    assert independence_number(graph, subset).size == 4


def test_alpha_singleton():
    g = c5()
    w = independence_number(g, VertexSet.from_vertices(5, [3]))
    assert w.size == 1
    assert w.witness.to_list() == [3]


def test_alpha_c5_is_two():
    # frozen from the subset-enumeration oracle over all 32 subsets
    g = c5()
    alpha, _ = independent_sets_by_enumeration(g, g.full_mask)
    assert alpha == 2
    w = independence_number(g, VertexSet.full(5))
    assert w.size == 2
    assert w.witness.to_list() not in ([],)
    assert all(not g.has_edge(u, v) for u in w.witness for v in w.witness if u < v)


def test_alpha_empty_set_is_zero():
    g = c5()
    assert independence_number(g, VertexSet.empty(5)).size == 0


def lattice_hosts():
    """Every connected labelled graph with n <= 5, and 30 seeded G(n, 0.4)
    graphs with n = 6..8, connected or not."""
    for n in range(1, 6):
        yield from enumerate_connected_labeled_graphs(n)
    rng = random.Random(38)
    for i in range(30):
        n = 6 + i % 3
        yield Graph.from_edges(n, [pair for pair in combinations(range(n), 2) if rng.random() < 0.4])


def test_subset_alpha_from_the_lattice_matches_enumeration_in_any_order(monkeypatch):
    # in ascending order from the empty set every other mask finds S - v and
    # S - N[v] in the memo, so alpha_mask decides the empty set alone; in a
    # shuffled order both routes decide masks
    exact = invariants.alpha_mask
    runs = []

    def counted(graph, smask):
        runs.append(smask)
        return exact(graph, smask)

    monkeypatch.setattr(invariants, "alpha_mask", counted)
    rng = random.Random(5)
    hosts = disconnected = shuffled_runs = shuffled_masks = 0
    for graph in lattice_hosts():
        hosts += 1
        disconnected += not graph.is_connected()
        masks = list(range(1 << graph.n))
        expected = [independent_sets_by_enumeration(graph, smask)[0] for smask in masks]
        for order in (masks, rng.sample(masks, len(masks))):
            fresh = Graph.from_edges(graph.n, graph.edges())    # an empty alpha memo
            runs.clear()
            found = {smask: subset_alpha(fresh, smask) for smask in order}
            assert [found[smask] for smask in masks] == expected, (graph, order is masks)
            if order is masks:
                assert runs == [0]
            else:
                shuffled_runs += len(runs)
                shuffled_masks += len(masks)
    assert hosts == 802 and disconnected > 0
    assert 0 < shuffled_runs < shuffled_masks


def test_alpha_range_check():
    with pytest.raises(ValueError):
        independence_number(c5(), VertexSet.full(4))


def test_enumerate_maximum_independent_subsets_c4():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert maximum_independent_masks(g, g.full_mask) == [0b0101, 0b1010]


def test_enumerate_maximum_independent_subsets_k3():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert maximum_independent_masks(g, g.full_mask) == [0b001, 0b010, 0b100]


def test_enumerate_maximum_independent_subsets_k23():
    graph, _ = kmm(2, 1)
    assert maximum_independent_masks(graph, graph.full_mask) == [0b11100]


def test_enumerate_empty_subset():
    assert maximum_independent_masks(c5(), 0) == [0]


def test_enumerate_cap():
    g = Graph.from_edges(6, [])    # every 3-subset of 6 isolated vertices is independent
    with pytest.raises(CapExceededError):
        maximum_independent_masks(g, g.full_mask, cap=0)


# local connectivity


def test_local_connectivity_k4():
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    # frozen from the disjoint-path packing oracle
    assert max_internally_disjoint_paths(k4, 0, 1) == 3
    assert local_connectivity(k4, 0, 1) == 3


def test_local_connectivity_cut_vertex():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert local_connectivity(g, 0, 2) == 1
    # 0-2-4-1 and 0-3-4-1 share 4: once 2 takes 4, no x-a-b-y path is left
    # for 3, so the short paths do not count both
    g = Graph.from_edges(6, [(0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (3, 4)])
    assert local_connectivity(g, 0, 1) == 1
    assert local_connectivity(g, 1, 0) == 1


def test_local_connectivity_k34_within_large_part():
    graph, _ = kmm(3, 1)
    # all paths route through the 3 small-part vertices
    assert max_internally_disjoint_paths(graph, 3, 4) == 3
    assert local_connectivity(graph, 3, 4) == 3


@pytest.mark.parametrize("n", [2, 3, 6, 8])
def test_local_connectivity_complete_graph_reaches_degree_bound(n):
    # adjacent endpoints: the direct edge plus n - 2 common neighbours
    kn = Graph.from_edges(n, combinations(range(n), 2))
    assert local_connectivity(kn, 0, n - 1) == n - 1
    assert local_connectivity(kn, n - 1, 0) == n - 1


def test_local_connectivity_degree_bound_through_long_paths():
    # opposite vertices of C8 share no neighbour: both paths come from the BFS rounds
    c8 = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    assert local_connectivity(c8, 0, 4) == 2
    assert local_connectivity(c8, 4, 0) == 2
    # two x-a-b-y paths exist (0-2-5-1 and 0-3-4-1), but matching each
    # neighbour of one end to its lowest free neighbour of the other pairs 2
    # with 4 and leaves 3 none, so the short-path count stops at 1 and the
    # flow finds the second path
    g = Graph.from_edges(6, [(0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4)])
    assert max_internally_disjoint_paths(g, 0, 1) == 2
    assert local_connectivity(g, 0, 1) == 2
    assert local_connectivity(g, 1, 0) == 2


def test_local_connectivity_matches_oracle_every_labelled_graph_n_le_5():
    # every labelled graph on n <= 5 vertices, connected or not, every ordered pair
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            graph = Graph.from_edges(n, [p for i, p in enumerate(pairs) if (bits >> i) & 1])
            for x in range(n):
                for y in range(n):
                    if x != y:
                        assert local_connectivity(graph, x, y) == max_internally_disjoint_paths(graph, x, y)


def test_local_connectivity_errors():
    with pytest.raises(ValueError):
        local_connectivity(c5(), 2, 2)
    with pytest.raises(ValueError):
        local_connectivity(c5(), 0, 9)


# set connectivity


def test_set_connectivity_singleton_infinite():
    value = set_connectivity(c5(), VertexSet.from_vertices(5, [2]))
    assert value.is_infinite
    assert set_connectivity(c5(), VertexSet.empty(5)).is_infinite


def test_set_connectivity_kmm_cell():
    graph, subset = kmm(2, 3)
    assert set_connectivity(graph, subset) == 2


def test_set_connectivity_disconnected_zero():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    value, pair = set_connectivity_pair(g, VertexSet.from_vertices(4, [0, 2]))
    assert value == 0
    assert pair == (0, 2)


def brute_force_set_connectivity(values, smask):
    """(value, first lexicographic minimizing pair) over the pairs of smask, or None."""
    vertices = [v for v in range(smask.bit_length()) if (smask >> v) & 1]
    pairs = list(combinations(vertices, 2))
    if not pairs:
        return None
    best = min(values[pair] for pair in pairs)
    return best, next(pair for pair in pairs if values[pair] == best)


def check_against_brute_force(graph, smask, values):
    value, pair = set_connectivity_pair(graph, VertexSet(graph.n, smask))
    expected = brute_force_set_connectivity(values, smask)
    if expected is None:
        assert value.is_infinite and pair is None
    else:
        assert (value, pair) == expected
    assert all(values[key] == flow for key, flow in graph._flows.items())    # exact flows only


def test_set_connectivity_pair_matches_brute_force_every_labelled_graph_n_le_5():
    # every labelled graph on n <= 5 vertices, connected or not, every subset
    for n in range(1, 6):
        all_pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(all_pairs)):
            graph = Graph.from_edges(n, [p for i, p in enumerate(all_pairs) if (bits >> i) & 1])
            values = {(x, y): local_connectivity(graph, x, y) for x, y in all_pairs}
            for smask in range(1 << n):
                check_against_brute_force(Graph(n, graph.rows), smask, values)    # a fresh store
                check_against_brute_force(graph, smask, values)    # one store across subsets


def counted_flows(monkeypatch):
    """The (x, y) of every local_connectivity call set_connectivity_pair makes from now on."""
    original = invariants.local_connectivity
    flows = []

    def counted(graph, x, y):
        flows.append((x, y))
        return original(graph, x, y)

    monkeypatch.setattr(invariants, "local_connectivity", counted)
    return flows


def test_set_connectivity_pair_shares_one_table_on_random_graphs(monkeypatch):
    flows = counted_flows(monkeypatch)
    rng = random.Random(7707)
    skipped = 0
    for n in (8, 9, 10):
        for _ in range(8):
            graph = Graph.from_edges(n, [(x, y) for x, y in combinations(range(n), 2) if rng.random() < 0.45])
            values = {(x, y): local_connectivity(graph, x, y) for x, y in combinations(range(n), 2)}
            masks = list(range(1 << n))
            rng.shuffle(masks)
            flows.clear()
            for smask in masks[:60] + [(1 << n) - 1]:
                check_against_brute_force(graph, smask, values)
            assert len(flows) == len(set(flows)) == len(graph._flows)
            skipped += len(values) - len(graph._flows)    # S = V reaches every pair
    assert skipped > 0


def test_set_connectivity_pair_skips_flows_that_cannot_lower_the_minimum(monkeypatch):
    # P6: after kappa(0, 1) = 1 only the pairs with no edge and no common
    # neighbour can go lower, and the stopping rule ends the loop at x = s_1;
    # a flow for every pair would be 15
    flows = counted_flows(monkeypatch)
    p6 = Graph.from_edges(6, [(v, v + 1) for v in range(5)])
    value, pair = set_connectivity_pair(p6, VertexSet.full(6))
    assert (value, pair) == (1, (0, 1))
    assert flows == [(0, 1), (0, 3), (0, 4), (0, 5)]
    assert sorted(p6._flows) == sorted(flows)


def test_set_connectivity_full_equals_classical():
    g = c5()
    assert set_connectivity(g, VertexSet.full(5)) == vertex_connectivity_by_cuts(g)


# oracle agreement and properties


@settings(max_examples=60)
@given(graph_with_subset(max_n=6))
def test_alpha_matches_enumeration(data):
    graph, smask = data
    expected, expected_sets = independent_sets_by_enumeration(graph, smask)
    witness = independence_number(graph, VertexSet(graph.n, smask))
    assert witness.size == expected
    assert maximum_independent_masks(graph, smask) == expected_sets
    # witness audits: inside S, independent, of the right size
    assert witness.witness.mask & ~smask == 0
    assert len(witness.witness) == expected


@settings(max_examples=40)
@given(graph_with_subset(max_n=7), st.randoms(use_true_random=False))
def test_alpha_monotone_on_subset_chains(data, rnd):
    graph, smask = data
    sub = smask
    # random sub-subset chain
    for v in list(range(graph.n)):
        if rnd.random() < 0.3:
            sub &= ~(1 << v)
    big = independence_number(graph, VertexSet(graph.n, smask)).size
    small = independence_number(graph, VertexSet(graph.n, sub)).size
    assert small <= big


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=2, max_n=8))
def test_local_connectivity_symmetric_and_exact(graph):
    rng = random.Random(graph.rows[0] * 31 + graph.n)
    pairs = [(x, y) for x in range(graph.n) for y in range(x + 1, graph.n)]
    rng.shuffle(pairs)
    for x, y in pairs[:3]:
        forward = local_connectivity(graph, x, y)
        assert forward == local_connectivity(graph, y, x)
        assert forward == max_internally_disjoint_paths(graph, x, y)


@settings(max_examples=40)
@given(graphs(min_n=2, max_n=6))
def test_set_connectivity_full_matches_cut_oracle(graph):
    assert set_connectivity(graph, VertexSet.full(graph.n)) == vertex_connectivity_by_cuts(graph)
