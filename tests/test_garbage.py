"""No search, sweep or CLI request leaves a reference cycle behind.

A nested search that names itself holds a cycle through its closure cell,
which only the cyclic collector frees. With the collector off, gc.collect()
counts the unreachable objects a call left; each test here requires 0.
"""

import contextlib
import gc
import io

import pytest

from kended import cli
from kended.constructive import base_path, maximal_attachment_path
from kended.errors import CapExceededError
from kended.families import GraphFamilySpec, make_family
from kended.graphs import Graph, Tree, VertexSet
from kended.invariants import alpha_mask, maximum_independent_masks
from kended.treesearch import _grow_tree, hamiltonian_path_exists
from kended.verify import SweepPlan, sweep_verdicts

PETERSEN = make_family(GraphFamilySpec("petersen"))[0]
K37 = Graph.from_edges(10, [(a, b) for a in range(3) for b in range(3, 10)])


@pytest.fixture
def left_behind():
    """Run a call with the collector off; return the unreachable objects it left."""
    enabled = gc.isenabled()
    gc.disable()

    def count(call):
        gc.collect()
        result = call()
        return gc.collect(), result

    try:
        yield count
    finally:
        if enabled:
            gc.enable()


SEARCHES = {
    "alpha_mask": lambda: alpha_mask(PETERSEN, PETERSEN.full_mask) == (4, 0b1100000101),
    "maximum_independent_masks": lambda: len(maximum_independent_masks(PETERSEN, PETERSEN.full_mask)) == 5,
    # K_{3,7} needs 5 leaves and 2 branch vertices, so both searches run in full
    "grow_tree_leaf_budget": lambda: _grow_tree(K37, K37.full_mask, 8, 0, False) is not None,
    "grow_tree_branch_budget": lambda: _grow_tree(K37, K37.full_mask, 3, 0, True) is not None,
    "hamiltonian_path_exists": lambda: hamiltonian_path_exists(PETERSEN) is not None,
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_a_search_leaves_no_garbage(left_behind, name):
    assert left_behind(SEARCHES[name]) == (0, True)


def test_an_attachment_search_leaves_no_garbage(left_behind):
    tree = Tree.from_path(10, base_path(K37, VertexSet.full(10)))
    garbage, path = left_behind(lambda: maximal_attachment_path(K37, tree, VertexSet.full(10)))
    assert garbage == 0 and len(path) >= 2


def test_a_search_that_raises_leaves_no_garbage(left_behind):
    def over_cap():
        with pytest.raises(CapExceededError):
            maximum_independent_masks(PETERSEN, PETERSEN.full_mask, cap=2)
        return True

    assert left_behind(over_cap) == (0, True)


def test_an_exhaustive_n4_sweep_leaves_no_garbage(left_behind):
    assert left_behind(lambda: sum(1 for _ in sweep_verdicts(SweepPlan(mode="exhaustive", n=4)))) == (0, 5462)


@pytest.mark.parametrize("argv", [
    ("analyze", "--family", "petersen", "--no-timing"),
    ("construct", "--family", "kmm 2 3", "--set", "B", "--k", "3", "--no-timing"),
    ("sharpness", "--m-range", "1..2", "--k-range", "1..2", "--no-timing"),
], ids=["analyze", "construct", "sharpness"])
def test_a_cli_request_leaves_no_garbage(left_behind, argv):
    # the first request builds the parser once, which leaves argparse's help
    # formatters behind; the measured request reads its graph afresh
    def request():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(list(argv))
        return code, len(out.getvalue()) > 0

    request()
    cli._read_graph.cache_clear()
    assert left_behind(request) == (0, (0, True))
