import pytest

from kended.errors import CapExceededError
from kended.families import (
    GraphFamilySpec,
    enumerate_connected_labeled_graphs,
    make_family,
    parse_family_spec,
)

from oracles import count_connected_graphs_by_bitmask


def test_parse_family_spec_aliases():
    assert parse_family_spec("kmm 2 3") == GraphFamilySpec("complete-bipartite", (2, 3))
    assert parse_family_spec("gnp 8 0.5 7") == GraphFamilySpec("random-gnp", (8, 0.5, 7))
    assert parse_family_spec("cycle 5") == GraphFamilySpec("cycle", (5,))
    assert parse_family_spec("petersen") == GraphFamilySpec("petersen", ())


@pytest.mark.parametrize("text", ["", "nosuch 3", "cycle", "cycle 4 5", "kmm 2"])
def test_parse_family_spec_rejects(text):
    with pytest.raises(ValueError):
        parse_family_spec(text)


def test_complete_bipartite_returns_larger_part():
    graph, subset = make_family(parse_family_spec("kmm 1 1"))
    assert graph.n == 3
    assert graph.edges() == [(0, 1), (0, 2)]
    assert subset.to_list() == [1, 2]


def test_cycle_family():
    graph, subset = make_family(parse_family_spec("cycle 5"))
    assert subset is None
    assert graph.n == 5 and len(graph.edges()) == 5
    assert all(row.bit_count() == 2 for row in graph.rows)


def test_petersen_family():
    graph, _ = make_family(parse_family_spec("petersen"))
    assert graph.n == 10
    assert len(graph.edges()) == 15
    assert all(row.bit_count() == 3 for row in graph.rows)
    assert graph.is_connected()


def test_gnp_reproducible_and_validated():
    g1, _ = make_family(parse_family_spec("gnp 8 0.5 7"))
    g2, _ = make_family(parse_family_spec("gnp 8 0.5 7"))
    g3, _ = make_family(parse_family_spec("gnp 8 0.5 8"))
    assert g1 == g2
    assert g1 != g3
    with pytest.raises(ValueError):
        make_family(GraphFamilySpec("random-gnp", (5, 1.5, 0)))


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        make_family(GraphFamilySpec("cycle", (2,)))
    with pytest.raises(ValueError):
        make_family(GraphFamilySpec("complete-bipartite", (0, 1)))
    with pytest.raises(ValueError):
        GraphFamilySpec("no-such-family", ())


def test_enumeration_counts_small():
    assert sum(1 for _ in enumerate_connected_labeled_graphs(1)) == 1
    assert sum(1 for _ in enumerate_connected_labeled_graphs(2)) == 1
    # 4 connected labeled graphs on 3 vertices: the triangle and three paths
    assert sum(1 for _ in enumerate_connected_labeled_graphs(3)) == 4
    assert sum(1 for _ in enumerate_connected_labeled_graphs(4)) == 38


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_bitmask_count(n):
    assert sum(1 for _ in enumerate_connected_labeled_graphs(n)) == count_connected_graphs_by_bitmask(n)


def test_enumeration_yields_valid_connected_graphs_once():
    seen = set()
    for graph in enumerate_connected_labeled_graphs(4):
        assert graph.is_connected()
        key = graph.rows
        assert key not in seen
        seen.add(key)


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        next(enumerate_connected_labeled_graphs(7))
    first = next(enumerate_connected_labeled_graphs(7, cap=7))
    assert first.is_connected() and first.n == 7
    with pytest.raises(ValueError):
        next(enumerate_connected_labeled_graphs(0))
