import copy
import operator
import pickle
import random
from itertools import accumulate, combinations, islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kended import graphs as graphs_module
from kended.constructive import base_path, construct_k_ended_tree, maximal_attachment_path
from kended.errors import InternalInvariantError
from kended.families import random_gnp
from kended.graphs import Graph, Tree, VertexSet, _vertex_planes, mask_of
from kended.invariants import independence_number, set_connectivity_pair
from kended.treesearch import find_k_ended_covering_tree
from kended.verify import verify_instance

from conftest import graphs, seeded_rng
from oracles import (_down_closure, _min_leaf_table, _path_endpoint_table, _paths_with_length,
                     min_leaf_planes_by_length_steps, path_planes_by_length_steps, random_connected_graph,
                     random_spanning_tree)


def test_graph_construction_validates_symmetry():
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])


def test_graph_rejects_self_adjacency():
    with pytest.raises(ValueError):
        Graph(1, [0b1])


def test_graph_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        Graph(2, [0b100, 0b000])


def test_from_edges_rejects_self_loop_and_duplicates():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 3)])


def test_graph_basic_queries():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.rows[1].bit_count() == 2
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.is_connected()
    assert not Graph.from_edges(4, [(0, 1), (2, 3)]).is_connected()
    assert Graph(0, []).is_connected()


def test_is_connected_is_computed_once_per_graph(monkeypatch):
    original = Graph.component_mask
    calls = []

    def counted(self, start):
        calls.append(start)
        return original(self, start)

    monkeypatch.setattr(Graph, "component_mask", counted)
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not g.is_connected()
    assert not g.is_connected()
    assert calls == [0]


def assert_planes_match_tuple_tables(graph):
    # every mask, the empty one included, against the per-mask Held-Karp and minimum-leaf DPs and popcount
    n, rows = graph.n, graph.rows
    table = _path_endpoint_table(rows)
    leaves = _min_leaf_table(rows, table)
    ends, spans = graph.path_planes()
    sizes = _vertex_planes(n)[2]
    for m in range(1 << n):
        assert sum(1 << v for v in range(n) if ends[v] >> m & 1) == table[m], (graph, m)
        assert spans >> m & 1 == (table[m] != 0), (graph, m)
        assert graph.min_leaves(m) == leaves[m], (graph, m)
        assert [j for j, plane in enumerate(sizes) if plane >> m & 1] == [m.bit_count()], (n, m)
    assert spans >> (1 << n) == 0 and all(p >> (1 << n) == 0 for p in ends + sizes)


def test_planes_match_tuple_tables_on_every_labelled_graph_n_le_5():
    count = 0
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            assert_planes_match_tuple_tables(
                Graph.from_edges(n, [pair for i, pair in enumerate(pairs) if bits >> i & 1]))
            count += 1
    assert count == 1 + 1 + 2 + 8 + 64 + 1024


def test_planes_match_tuple_tables_on_random_graphs():
    rng = random.Random(1010)
    drawn = [random_gnp(n, p, rng) for n in range(6, 11) for p in (0.3, 0.5, 0.8) for _ in range(3)]
    for _ in range(6):
        order = list(range(10))
        rng.shuffle(order)    # parts 3 and 7 under shuffled labels
        drawn.append(Graph.from_edges(10, [(order[a], order[b]) for a in range(3) for b in range(3, 10)
                                           if rng.random() < 0.6]))
    assert any(not graph.is_connected() for graph in drawn)
    assert any(graph.is_connected() for graph in drawn[-6:])
    for graph in drawn:
        assert_planes_match_tuple_tables(graph)


def zigzag(n):
    """0, n - 1, 1, n - 2, ...: a walk in this order turns at every vertex, so
    each of its edges is a monotone run of its own."""
    return [v // 2 if v % 2 == 0 else n - 1 - v // 2 for v in range(n)]


def kernel_hosts():
    """Every labelled graph with n <= 5, random connected and disconnected
    graphs with n = 6..10, bipartite graphs with parts 3 and 7 under shuffled
    labels, and the path and the cycle on 10 vertices in zigzag order."""
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield Graph.from_edges(n, [pair for i, pair in enumerate(pairs) if bits >> i & 1])
    rng = random.Random(2626)
    for n in range(6, 11):
        for p in (0.2, 0.35, 0.5, 0.8):
            yield random_gnp(n, p, rng)
        yield random_connected_graph(rng, n, 0.3)
    for _ in range(4):
        order = list(range(10))
        rng.shuffle(order)
        yield Graph.from_edges(10, [(order[a], order[b]) for a in range(3) for b in range(3, 10)
                                    if rng.random() < 0.7])
    walk = zigzag(10)
    yield Graph.from_edges(10, list(zip(walk, walk[1:])))
    yield Graph.from_edges(10, list(zip(walk, walk[1:] + walk[:1])))


def test_plane_kernel_matches_length_steps():
    hosts = list(kernel_hosts())
    assert any(graph.is_connected() for graph in hosts[1100:]) and any(
        not graph.is_connected() for graph in hosts[1100:])
    for graph in hosts:
        ends, spans = graphs_module._path_planes(graph.rows)
        assert (ends, spans) == path_planes_by_length_steps(graph.rows), graph
        # every level forced: the sets new at each level from 2 up, then the
        # empty one that ends the growth, whose closed plane repeats the top
        # one (unless it is level 2 itself, on the empty graph)
        levels = [spans]
        while levels[-1]:
            levels.append(graphs_module._min_leaf_level(graph.rows, levels))
        within = _vertex_planes(graph.n)[1]
        closed = tuple(accumulate((_down_closure(level, within) for level in levels), operator.or_))
        planes = min_leaf_planes_by_length_steps(graph.rows, spans)
        assert closed == planes[2:] + planes[-1:] * (len(levels) > 1), graph


def assert_first_paths_are_least_paths(graph):
    # per size, the least path on each path set, with its mask, in lexicographic
    # order, against enumeration: half read cold, then whole past the memo's
    # end, then whole from the memo alone
    for size in range(1, graph.n + 1):
        least = {}
        for seq in _paths_with_length(graph, size):
            least.setdefault(mask_of(seq), seq)
        expected = [(seq, mask_of(seq)) for seq in sorted(least.values())]
        half = len(expected) // 2
        assert list(islice(graph.first_paths(size), half)) == expected[:half], (graph, size)
        assert list(graph.first_paths(size)) == expected, (graph, size)
        assert list(graph.first_paths(size)) == expected, (graph, size)


def test_first_paths_match_enumeration_on_every_labelled_graph_n_le_5():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            assert_first_paths_are_least_paths(
                Graph.from_edges(n, [pair for i, pair in enumerate(pairs) if bits >> i & 1]))


def test_first_paths_match_enumeration_on_random_connected_graphs():
    rng = random.Random(1112)
    for n in range(6, 11):
        for p in (0.3, 0.5):
            assert_first_paths_are_least_paths(random_connected_graph(rng, n, p))


def test_first_paths_yield_nothing_for_a_size_without_a_path_set():
    graph = Graph.from_edges(3, [(0, 1)])
    assert list(graph.first_paths(2)) == [((0, 1), 0b11)]
    assert list(graph.first_paths(3)) == []
    assert list(graph.first_paths(0)) == []


def test_first_paths_yield_nothing_for_a_size_outside_one_to_n():
    # a negative size once read the size planes from the end, and n + 1 past them
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert list(p4.first_paths(4)) == [((0, 1, 2, 3), 0b1111)]
    for size in (-1, -4, -5, 0, 5, 9):
        assert list(p4.first_paths(size)) == [], size


def test_first_paths_abort_on_a_table_that_loses_a_path():
    graph = Graph.from_edges(2, [(0, 1)])
    ends, spans = graph.path_planes()
    graph._paths = (ends[0], ends[1] & ~(1 << 0b10)), spans    # the path on {1} no longer ends at 1
    with pytest.raises(InternalInvariantError):
        next(graph.first_paths(2))
    assert graph._first_paths == {}
    # the memo keeps the walk to {0}, and the lost walk to {1} leaves it as it was
    paths = graph.first_paths(1)
    assert next(paths) == ((0,), 0b01)
    kept = copy.deepcopy(graph._first_paths)
    with pytest.raises(InternalInvariantError):
        next(paths)
    assert graph._first_paths == kept and kept[1][1] == [((0,), 0b01)]


def count_walks(monkeypatch):
    walks = []
    walk = Graph._walk

    def counted(graph, ends, rest):
        walks.append(rest)
        return walk(graph, ends, rest)

    monkeypatch.setattr(Graph, "_walk", counted)
    return walks


def test_a_second_base_path_on_a_graph_walks_no_path(monkeypatch):
    walks = count_walks(monkeypatch)
    for graph in (random_connected_graph(random.Random(n), n, 0.4) for n in range(3, 11)):
        for subset in (VertexSet.full(graph.n), VertexSet(graph.n, 0b101)):
            first = base_path(graph, subset)
            cold = len(walks)
            assert base_path(graph, subset) == first and len(walks) == cold, (graph, subset)
    assert walks


def test_every_subset_of_a_graph_shares_one_walk_per_path_set(monkeypatch):
    # K_{2,5} has no Hamiltonian path, so base paths of many sizes are read; every
    # subset reads the same memo, so each walk is of a path set not walked before
    graph = Graph.from_edges(7, [(a, b) for a in range(2) for b in range(2, 7)])
    walks = count_walks(monkeypatch)
    for smask in range(1, 1 << 7):
        base_path(graph, VertexSet(7, smask))
    sets = [mask for _, found in graph._first_paths.values() for _, mask in found]
    assert len(walks) == len(sets) == len(set(sets))


def test_a_graph_pickles_with_its_first_path_memo():
    graph = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3)])
    path = base_path(graph, VertexSet(6, 0b100101))
    copied = pickle.loads(pickle.dumps(graph))
    assert copied == graph and copied._first_paths == graph._first_paths != {}
    assert base_path(copied, VertexSet(6, 0b100101)) == path


def test_vertex_set_semantics():
    s = VertexSet.from_vertices(5, [0, 2, 4])
    assert len(s) == 3
    assert list(s) == [0, 2, 4]
    assert s.mask >> 2 & 1 and not s.mask >> 1 & 1
    with pytest.raises(ValueError):
        VertexSet(3, 0b1000)


def test_path_validation():
    # a path is its vertex tuple: Tree.from_path checks its vertices and
    # Graph.check_tree its steps
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    g.check_tree(Tree.from_path(g.n, (0, 1, 2)))
    for vs in ((), (0, 1, 0), (0, 3)):
        with pytest.raises(ValueError):
            Tree.from_path(g.n, vs)
    with pytest.raises(InternalInvariantError, match=r"tree edge \(0, 2\) is not a graph edge"):
        g.check_tree(Tree.from_path(g.n, (0, 2)))


def test_tree_axioms_enforced():
    with pytest.raises(ValueError):
        Tree(3, (0, 1, 2), [(0, 1), (1, 2), (0, 2)])    # cycle
    with pytest.raises(ValueError):
        Tree(3, (0, 1, 2), [(0, 1)])                    # disconnected
    with pytest.raises(ValueError):
        Tree(3, (0, 1), [(0, 2)])                       # edge leaves vertex set
    with pytest.raises(ValueError):
        Tree(3, (), [])


def test_tree_leaves_single_edge():
    t = Tree(2, (0, 1), [(0, 1)])
    assert t.leaf_mask == 0b11
    assert t.leaf_count == 2


def test_tree_leaves_star():
    t = Tree(4, (0, 1, 2, 3), [(0, 1), (0, 2), (0, 3)])
    assert t.leaf_mask == 0b1110
    assert t.branch_mask == 0b1


def test_tree_leaves_path_endpoints():
    # degree count by hand: only the two endpoints have degree 1
    t = Tree.from_path(5, (0, 1, 2, 3, 4))
    assert t.leaf_mask == 0b10001
    assert t.branch_mask == 0


def test_one_vertex_tree_has_no_leaves():
    t = Tree.single_vertex(3, 1)
    assert t.leaf_count == 0
    assert t.branch_count == 0


def tree_state(tree):
    return tuple(getattr(tree, name) for name in Tree.__slots__)


def test_from_path_equals_the_general_constructor_on_every_path_n_le_5():
    # the paths of the labelled graphs on n vertices are the sequences of
    # distinct vertices in range(n), each a path of K_n
    for n in range(1, 6):
        for length in range(1, n + 1):
            for vs in permutations(range(n), length):
                general = Tree(n, vs, list(zip(vs, vs[1:])))
                assert tree_state(Tree.from_path(n, vs)) == tree_state(general), vs
                assert tree_state(Tree.from_path(n, iter(vs))) == tree_state(general), vs
        for v in range(n):
            assert tree_state(Tree.single_vertex(n, v)) == tree_state(Tree(n, (v,), ()))


@pytest.mark.parametrize("host_n, vs", [(3, ()), (3, (0, 1, 0)), (3, (2, 2)), (3, (0, 3)), (3, (3,)),
                                        (3, (-1, 0)), (0, (0,))])
def test_from_path_rejects_what_the_general_constructor_rejects(host_n, vs):
    with pytest.raises(ValueError) as general:
        Tree(host_n, vs, list(zip(vs, vs[1:])))
    with pytest.raises(ValueError) as fast:
        Tree.from_path(host_n, vs)
    assert str(fast.value) == str(general.value)
    if len(vs) == 1:
        with pytest.raises(ValueError) as single:
            Tree.single_vertex(host_n, vs[0])
        assert str(single.value) == str(general.value)


def random_growth(rng, host_n):
    """A random root and growth steps (anchor in the tree so far, new vertex
    outside it) over a random subset of the host's vertices."""
    order = rng.sample(range(host_n), rng.randint(1, host_n))
    return order[0], [(rng.choice(order[:i]), u) for i, u in enumerate(order[1:], 1)]


def test_grown_trees_equal_the_general_constructors_in_every_slot():
    rng = random.Random(3333)
    for _ in range(600):
        host_n = rng.randint(1, 10)
        root, steps = random_growth(rng, host_n)
        cut = rng.randint(0, len(steps))
        part = Tree.from_root(host_n, root, steps[:cut])
        before = tree_state(part)
        grown = part.grow(steps[cut:])
        assert tree_state(part) == before == tree_state(Tree(host_n, [root] + [u for _, u in steps[:cut]],
                                                             steps[:cut]))
        general = tree_state(Tree(host_n, [root] + [u for _, u in steps], steps))
        assert tree_state(grown) == tree_state(Tree.from_root(host_n, root, steps)) == general, (root, steps)


def test_a_growth_step_must_go_from_the_tree_to_a_new_host_vertex():
    rng = random.Random(3434)
    for _ in range(300):
        host_n = rng.randint(1, 10)
        root, steps = random_growth(rng, host_n)
        tree = Tree.from_root(host_n, root, steps)
        inside = list(tree.vertices)
        outside = [v for v in range(host_n) if v not in inside] + [host_n]
        bad = [(rng.choice(inside), rng.choice(inside)),      # the new vertex is in the tree
               (rng.choice(outside), rng.choice(outside)),    # the anchor is not
               (rng.choice(inside), host_n)]                  # the new vertex is not a host vertex
        for step in bad:
            with pytest.raises(ValueError):
                tree.grow([step])
            with pytest.raises(ValueError):
                Tree.from_root(host_n, root, steps + [step])
    with pytest.raises(ValueError, match="tree vertex out of host range"):
        Tree.from_root(3, 3, [])


def test_spider_branch_vertices():
    # hub 0 with four legs: degree count gives exactly one branch vertex
    t = Tree(5, range(5), [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert t.branch_mask == 0b1
    assert t.leaf_count == 4


def test_every_entry_point_rejects_a_subset_of_another_host():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    other = VertexSet.full(4)
    calls = [
        lambda: graph.subset_mask(other),
        lambda: independence_number(graph, other),
        lambda: set_connectivity_pair(graph, other),
        lambda: find_k_ended_covering_tree(graph, other, 2),
        lambda: base_path(graph, other),
        lambda: construct_k_ended_tree(graph, other, 2),
        lambda: maximal_attachment_path(graph, Tree.single_vertex(3, 0), other),
        lambda: verify_instance(graph, other, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="subset indexes 4 vertices but graph has 3"):
            call()


def test_tree_validate_in_host():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    t = Tree(3, (0, 1, 2), [(0, 1), (1, 2)])
    t.validate_in(g)
    bad = Tree(3, (0, 1, 2), [(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        bad.validate_in(g)


def test_check_tree_validates_on_every_call(monkeypatch):
    # no memo: the same object is checked again on each call, and the graph
    # keeps nothing of the trees it checked
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    good, bad = Tree.from_path(3, (0, 1, 2)), Tree.from_path(3, (1, 0, 2))
    checked = []
    original = Tree.validate_in

    def counted(tree, graph):
        checked.append(tree)
        original(tree, graph)

    monkeypatch.setattr(Tree, "validate_in", counted)
    state = {name: repr(getattr(g, name)) for name in Graph.__slots__}
    g.check_tree(good)
    g.check_tree(good)
    with pytest.raises(InternalInvariantError, match=r"^tree edge \(0, 2\) is not a graph edge$"):
        g.check_tree(bad)
    with pytest.raises(InternalInvariantError, match=r"^tree edge \(0, 2\) is not a graph edge$"):
        g.check_tree(bad)
    assert checked == [good, good, bad, bad]
    assert {name: repr(getattr(g, name)) for name in Graph.__slots__} == state


@given(graphs(min_n=2, max_n=8, connected=True))
def test_leaf_branch_identity_on_random_spanning_trees(graph):
    # degree-sum identity: leaves >= branch vertices + 2 on any tree with >= 2 vertices
    rng = seeded_rng(graph.rows[0] ^ graph.n)
    edges = random_spanning_tree(graph, rng)
    tree = Tree(graph.n, range(graph.n), edges)
    assert tree.leaf_count >= tree.branch_count + 2


@st.composite
def random_trees(draw):
    """(host_n, sorted vertices, edges) of a random tree on some vertices of the host."""
    host_n = draw(st.integers(min_value=1, max_value=10))
    order = draw(st.permutations(range(host_n)))
    vs = order[:draw(st.integers(min_value=1, max_value=host_n))]
    edges = []
    for i in range(1, len(vs)):
        u, w = vs[i], vs[draw(st.integers(min_value=0, max_value=i - 1))]
        edges.append((u, w) if draw(st.booleans()) else (w, u))
    return host_n, sorted(vs), edges


def dict_degrees(vertices, edges):
    deg = {v: 0 for v in vertices}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


@settings(max_examples=200)
@given(random_trees())
def test_tree_masks_match_dict_degree_oracle(case):
    host_n, vs, edges = case
    tree = Tree(host_n, vs, edges)
    deg = dict_degrees(vs, edges)
    assert tree.leaf_mask == mask_of(v for v in vs if deg[v] == 1)
    assert tree.branch_mask == mask_of(v for v in vs if deg[v] >= 3)
    assert tree.leaf_count == sum(1 for d in deg.values() if d == 1)
    assert tree.branch_count == sum(1 for d in deg.values() if d >= 3)
    assert [tree.adjacency[v].bit_count() for v in range(host_n)] == [deg.get(v, 0) for v in range(host_n)]
    assert tree.vertex_mask == sum(1 << v for v in vs)
    assert tree.edges == tuple(sorted((min(u, v), max(u, v)) for u, v in edges))


@settings(max_examples=200)
@given(random_trees(), st.data())
def test_tree_rejects_broken_edge_sets(case, data):
    host_n, vs, edges = case
    with pytest.raises(ValueError):
        Tree(host_n, (), [])
    if len(edges) >= 1:
        drop = data.draw(st.integers(min_value=0, max_value=len(edges) - 1))
        rest = edges[:drop] + edges[drop + 1:]
        with pytest.raises(ValueError, match="edges"):
            Tree(host_n, vs, rest)                               # one edge short: disconnected
        with pytest.raises(ValueError, match="duplicate"):
            Tree(host_n, vs, rest + [rest[0][::-1]] if rest else edges * 2)
        outside = [v for v in range(host_n) if v not in vs]
        if outside:
            u = edges[drop][0]
            with pytest.raises(ValueError, match="leaves the vertex set"):
                Tree(host_n, vs, rest + [(u, outside[0])])
    # a chord between two vertices of one side of a removed edge closes a cycle
    # while the edge count stays |V| - 1
    for drop in range(len(edges)):
        rest = edges[:drop] + edges[drop + 1:]
        side = Graph.from_edges(host_n, rest).component_mask(edges[drop][0])
        present = {frozenset(e) for e in rest}
        chords = [(a, b) for a in vs for b in vs if a < b and (side >> a) & 1 and (side >> b) & 1
                  and frozenset((a, b)) not in present]
        if chords:
            with pytest.raises(ValueError, match="not connected"):
                Tree(host_n, vs, rest + [chords[0]])
            break


@settings(max_examples=200)
@given(random_trees(), st.data())
def test_validate_in_names_the_first_missing_edge(case, data):
    host_n, vs, edges = case
    tree = Tree(host_n, vs, edges)
    missing = data.draw(st.sets(st.sampled_from(tree.edges)) if tree.edges else st.just(set()))
    host = Graph.from_edges(host_n, [e for e in tree.edges if e not in missing])
    if not missing:
        tree.validate_in(host)
        return
    u, v = min(missing)
    with pytest.raises(ValueError, match=rf"^tree edge \({u}, {v}\) is not a graph edge$"):
        tree.validate_in(host)
