"""Fault gate: each seeded fault must make the harness abort with reproduction data.

A harness that cannot fail proves nothing, so every fault here is patched into
one library function and the test requires a named abort, never a quiet
verdict. A fault that no check catches gets a new check; it is not dropped.
"""

import re

import pytest

from kended import invariants
from kended.errors import InternalInvariantError
from kended.graphs import Graph
from kended.verify import SweepPlan, sweep_verdicts, verify_hamiltonian_path_condition

REPRODUCTION = re.compile(r"claim '[a-z-]+' on graph \S+ with S=\[[0-9, ]*\], k=\d+")


@pytest.fixture
def alpha_one_too_high(monkeypatch):
    exact = invariants.alpha_mask

    def faulty(graph, smask):
        size, witness = exact(graph, smask)
        return size + 1, witness

    monkeypatch.setattr(invariants, "alpha_mask", faulty)


def test_alpha_one_too_high_breaks_the_hamiltonian_verdict(alpha_one_too_high):
    # alpha(P_4) reads 3 > ceil(4/2), so the backtracking route answers "no"
    # while the covering-path planes find the path
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InternalInvariantError,
                       match="backtracking Hamiltonian search disagrees with the covering-path oracle"):
        verify_hamiltonian_path_condition(p4)


def test_alpha_one_too_high_aborts_a_sweep_with_reproduction_data(alpha_one_too_high):
    with pytest.raises(InternalInvariantError) as info:
        for _ in sweep_verdicts(SweepPlan(mode="exhaustive", n=4)):
            pass
    assert REPRODUCTION.search(str(info.value))
