import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kended.errors import EdgeListError, Graph6Error
from kended.formats import emit_edge_list, emit_graph6, parse_edge_list, parse_graph6
from kended.graphs import Graph

from conftest import graphs
from oracles import emit_graph6_by_pairs, random_gnp_by_edge_list


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


# graph6


def test_known_graph6_values():
    assert emit_graph6(Graph(0, [])) == "?"
    assert emit_graph6(Graph.from_edges(2, [])) == "A?"
    assert emit_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert emit_graph6(k4) == "C~"


def test_graph6_empty_graph_round_trip():
    assert parse_graph6("?") == Graph(0, [])


def test_graph6_k2_round_trip():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert parse_graph6(emit_graph6(k2)) == k2


def test_graph6_five_vertex_record():
    star = parse_graph6("D?{")
    assert star.n == 5
    assert star.edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert emit_graph6(star) == "D?{"


def test_graph6_accepts_bytes_and_header():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert parse_graph6(b"A_") == k2
    assert parse_graph6(">>graph6<<A_\n") == k2


@pytest.mark.parametrize(
    "record",
    [
        "",                 # empty
        "~??",              # long form marker
        "=",                # header below 63
        "B",                # truncated body
        "A__",              # trailing data
        "A\x1f",            # body byte out of range
        "A@",               # nonzero padding (n=2 has 1 data bit, 5 padding bits)
    ],
)
def test_graph6_malformed_records(record):
    with pytest.raises(Graph6Error):
        parse_graph6(record)


def test_graph6_malformed_records_keep_their_messages():
    messages = {
        "": "empty graph6 record",
        "~??": "long-form graph6 (n >= 63) is not supported",
        "=": "malformed size header byte 61",
        "\x80": "malformed size header byte 128",
        "B": "truncated record: need 1 body bytes, got 0",
        "A__": "trailing data after record: expected 1 body bytes, got 2",
        ">>graph6<<A_A": "trailing data after record: expected 1 body bytes, got 2",
        "A\x1f": "body byte 31 out of range",
        "D?\x7f": "body byte 127 out of range",
        "D\x1f\x7f": "body byte 31 out of range",     # the first byte out of range is named
        "D@\x7f": "body byte 127 out of range",        # and named before the padding is read
        "A@": "nonzero padding bits",
        "DQ@": "nonzero padding bits",
        b"A\xff": "graph6 record is not ASCII",
    }
    for record, message in messages.items():
        with pytest.raises(Graph6Error) as info:
            parse_graph6(record)
        assert str(info.value) == message, record


def test_graph6_emit_matches_the_per_pair_encoder_and_round_trips_to_n62():
    rng = random.Random(62)
    for n in range(63):
        full = (1 << n) - 1
        for graph in (Graph(n, [0] * n), Graph(n, [full ^ 1 << v for v in range(n)]),
                      random_gnp_by_edge_list(n, 0.5, rng)):
            record = emit_graph6(graph)
            assert record == emit_graph6_by_pairs(graph)
            assert parse_graph6(record) == graph


def test_graph6_emit_rejects_large_n():
    with pytest.raises(Graph6Error):
        emit_graph6(Graph(63, [0] * 63))


def test_graph6_round_trip_exhaustive_small():
    for n in range(0, 6):
        for g in all_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g


def test_graph6_round_trip_sampled_to_n8():
    rng = random.Random(4213)
    for _ in range(300):
        n = rng.randint(6, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(0, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        # isolated vertices must be added as nodes or networkx drops them
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        expected = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert emit_graph6(g) == expected
        assert parse_graph6(expected) == g


# edge list


def test_edge_list_parse_path():
    g = parse_edge_list("n 3\n0 1\n1 2")
    assert g == Graph.from_edges(3, [(0, 1), (1, 2)])


def test_edge_list_rejects_self_loop():
    with pytest.raises(EdgeListError):
        parse_edge_list("n 2\n0 0")


def test_edge_list_rejects_duplicates_and_bad_labels():
    with pytest.raises(EdgeListError):
        parse_edge_list("n 3\n0 1\n1 0")
    with pytest.raises(EdgeListError):
        parse_edge_list("n 2\n0 2")
    with pytest.raises(EdgeListError):
        parse_edge_list("n 2\n0")
    with pytest.raises(EdgeListError):
        parse_edge_list("m 2")
    with pytest.raises(EdgeListError):
        parse_edge_list("")


def test_edge_list_round_trip_c4():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert parse_edge_list(emit_edge_list(c4)) == c4


def test_edge_list_round_trip_exhaustive_small():
    for n in range(0, 6):
        for g in all_graphs(n):
            assert parse_edge_list(emit_edge_list(g)) == g


@given(graphs(min_n=1, max_n=8))
def test_round_trips_random(graph):
    assert parse_graph6(emit_graph6(graph)) == graph
    assert parse_edge_list(emit_edge_list(graph)) == graph
