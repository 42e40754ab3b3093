"""Fault gate: each seeded fault must make the harness abort with reproduction data.

A harness that cannot fail proves nothing, so every fault here is patched into
one library function and the test requires a named abort, never a quiet
verdict. A fault that no check catches gets a new check; it is not dropped.

One fault runs quiet through the harness's own checks on exhaustive n <= 4:
kappa - 1 on every pair flow. A smaller kappa only shrinks the hypothesis and
loosens the bounds the construction must meet. It is caught here by the
verdict-vs-oracle test, which recomputes alpha, kappa, the hypothesis and the
cover conclusions of every verdict by brute force in `tests/oracles.py`.

The hypothesis flag of the verdict layer is checked against the construction's
bound alpha - kappa - k + 1, which is at most 0 exactly when the hypothesis
holds, so a hypothesis read at k - 1 aborts the sweep at the first verdict
where the two disagree.

The growth search's forced-leaf bounds are seeded too. A leaf bound that cuts
too much aborts at n <= 4, because every leaf-budget search must find the tree
the minimum-leaf table promises. The branch-budget search has no such second
route in the harness, so its fault first shows at n = 6, as a branch-cover
counterexample.

A kappa one too high on every pair flow lets the hypothesis hold where the
theorem promises nothing, and the construction then finds no base path. This
is the fault a pair value settled without its flow would make if it
over-counted disjoint paths.

The sweep context hands a covering at k - 1 on to k with a bound one lower.
A covering handed on with the bound of k - 1 runs quiet on exhaustive n <= 4
and aborts on n <= 5, where the bound first disagrees with the hypothesis flag.

A witness that uses a non-edge fails the host check of the witness audit,
which the sweep reports like every other internal failure, with the claim,
graph6, S and k, in serial and in pool mode. The Hamiltonian witness gets the
same check.
"""

import functools
import re
from dataclasses import replace
from itertools import combinations

import pytest

from kended import cli, invariants, treesearch, verify
from kended.constructive import COVERING
from kended.errors import CounterexampleError, InternalInvariantError
from kended.formats import parse_graph6
from kended.graphs import Graph, Path, Tree, iter_bits
from kended.verify import SweepPlan, sweep_verdicts, verify_hamiltonian_path_condition

from conftest import time_limit
from oracles import (
    independent_sets_by_enumeration,
    max_internally_disjoint_paths,
    min_branch_cover_by_enumeration,
    min_leaf_cover_by_enumeration,
)

REPRODUCTION = re.compile(r"claim '[a-z-]+' on graph \S+ with S=\[[0-9, ]*\], k=\d+")
N4 = SweepPlan(mode="exhaustive", n=4)    # 44 graphs, 5,462 verdicts


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


def test_alpha_one_too_low_aborts_a_sweep_with_reproduction_data(monkeypatch):
    exact = invariants.alpha_mask

    def faulty(graph, smask):
        size, witness = exact(graph, smask)
        return (size - 1 if size >= 2 else size), witness

    monkeypatch.setattr(invariants, "alpha_mask", faulty)
    with pytest.raises(InternalInvariantError, match="path search exhausted") as info:
        for _ in sweep_verdicts(SweepPlan(mode="exhaustive", n=4)):
            pass
    assert str(info.value).endswith("(claim 'kended-cover' on graph Cs with S=[1, 2, 3], k=2)")


def test_leaf_bound_without_its_absorbed_leaves_aborts_a_sweep(monkeypatch):
    # a leaf that takes a forced vertex as its child stops being a leaf; without
    # "- min(...)" the bound counts both and cuts states that still fit the budget
    def faulty(rows, smask, budget, mask, deg1, deg2):
        return deg1.bit_count() + treesearch._forced(rows, smask, mask, 0)[0] > budget

    monkeypatch.setattr(treesearch, "_leaf_bound_cuts", faulty)
    with pytest.raises(InternalInvariantError, match="the minimum-leaf table gives 3 leaves but the growth "
                                                     "search found no tree with at most 3") as info:
        for _ in sweep_verdicts(N4):
            pass
    assert str(info.value).endswith("(claim 'kended-cover' on graph Cs with S=[1, 2, 3], k=3)")


def test_branch_bound_on_every_forced_vertex_is_caught_at_n6(monkeypatch):
    # the branch bound cutting whenever a forced vertex lacks a branch neighbour,
    # though a leaf could take it; it changes no branch-budget result on any
    # labelled graph with n <= 5, so exhaustive n <= 5 runs quiet, and the
    # sampled n = 6 tier of the acceptance tests first aborts at its 3,505th
    # graph (E[?g, S=[1, 2, 3, 4], k=3); this is the smallest sweep found that
    # catches it: the first connected G(6, 0.3) of seed 0, with every S
    def faulty(rows, smask, budget, mask, deg1, deg2):
        branch = mask & ~deg1 & ~deg2
        return branch.bit_count() >= budget and treesearch._forced(rows, smask, mask, branch)[0] > 0

    monkeypatch.setattr(treesearch, "_branch_bound_cuts", faulty)
    plan = SweepPlan(mode="random", n=6, p=0.3, count=8, seed=0, s_policy="all-subsets")
    with pytest.raises(CounterexampleError) as info:
        for _ in sweep_verdicts(plan):
            pass
    assert str(info.value) == "counterexample for claim 'branch-cover' on graph EgU? with S=[2, 3, 5], k=3"


@pytest.mark.parametrize("workers", [1, 2])
def test_a_witness_on_a_non_edge_aborts_a_sweep_with_reproduction_data(monkeypatch, tmp_path, capsys, workers):
    # the path through every vertex in label order, handed out as the k = 3
    # leaf-budget witness; the audit's ValueError from validate_in must reach
    # the sweep as an internal failure that names the instance, also from a
    # pool worker (the pool forks after the patch), and the CLI must report an
    # internal error (exit 1), not a usage error (exit 2)
    exact = verify.find_k_ended_covering_tree

    def faulty(graph, subset, k, cap=treesearch.DEFAULT_TREE_CAP):
        tree = exact(graph, subset, k, cap=cap)
        return Tree.from_path(graph.n, range(graph.n)) if k == 3 and tree is not None else tree

    monkeypatch.setattr(verify, "find_k_ended_covering_tree", faulty)
    with time_limit(60), pytest.raises(InternalInvariantError) as info:
        for _ in sweep_verdicts(replace(N4, workers=workers)):
            pass
    message = "tree edge (1, 2) is not a graph edge (claim 'kended-cover' on graph Cs with S=[1, 2, 3], k=3)"
    assert str(info.value) == message
    plan = tmp_path / "n4.plan"
    plan.write_text(f"mode = exhaustive\nn = 4\nworkers = {workers}\n")
    assert cli.main(["verify", "--plan", str(plan), "--no-timing"]) == 1
    assert capsys.readouterr().err == f"kended: internal error: {message}\n"


def test_a_hamiltonian_witness_on_a_non_edge_aborts_a_sweep(monkeypatch):
    # the vertices in label order whenever a Hamiltonian path exists: the
    # covering-path oracle agrees that one exists, so only the host check of
    # the witness can tell; on the path 1-0-2 the order 0, 1, 2 uses 12
    exact = verify.hamiltonian_path_exists

    def faulty(graph, cap=treesearch.DEFAULT_TREE_CAP):
        path = exact(graph, cap=cap)
        return None if path is None else Path(tuple(range(graph.n)))

    monkeypatch.setattr(verify, "hamiltonian_path_exists", faulty)
    with pytest.raises(InternalInvariantError) as info:
        for _ in sweep_verdicts(N4):
            pass
    assert str(info.value) == ("tree edge (1, 2) is not a graph edge "
                               "(claim 'hamiltonian-path' on graph Bo with S=[0, 1, 2], k=2)")


def test_kappa_one_too_high_aborts_a_sweep_with_reproduction_data(monkeypatch):
    # a pair value above the true flow, the error a flow shortcut could make by
    # over-counting disjoint paths: the hypothesis then holds where the theorem
    # promises nothing, and the construction finds no base path it can trust
    exact = invariants.local_connectivity
    monkeypatch.setattr(invariants, "local_connectivity", lambda graph, x, y: exact(graph, x, y) + 1)
    with pytest.raises(InternalInvariantError) as info:
        for _ in sweep_verdicts(N4):
            pass
    assert str(info.value) == ("path search exhausted; this contradicts the base-path guarantee "
                               "(claim 'kended-cover' on graph Cs with S=[1, 2, 3], k=2)")


@functools.lru_cache(maxsize=None)
def oracle_facts(graph6: str, smask: int) -> tuple[int, int | None, int, int]:
    """alpha(S), kappa(S) (None when |S| <= 1), and the least leaf and branch
    vertex counts of a tree covering S, all by enumeration."""
    graph = parse_graph6(graph6)
    pairs = combinations(iter_bits(smask), 2)
    kappa = min((max_internally_disjoint_paths(graph, x, y) for x, y in pairs), default=None)
    return (independent_sets_by_enumeration(graph, smask)[0], kappa,
            min_leaf_cover_by_enumeration(graph, smask), min_branch_cover_by_enumeration(graph, smask))


def oracle_mismatches(plan: SweepPlan) -> list:
    """Every verdict of the plan whose alpha, kappa, hypothesis or cover
    conclusion disagrees with the oracles."""
    mismatches = []
    for verdict in sweep_verdicts(plan):
        smask = sum(1 << v for v in verdict.subset)
        alpha, kappa, min_leaves, min_branch = oracle_facts(verdict.graph_id, smask)
        expected = {
            "alpha": alpha,
            "kappa": kappa,
            "hypothesis_holds": kappa is None or alpha <= verdict.k + kappa - 1,
        }
        if verdict.claim in ("kended-cover", "hamiltonian-path"):
            expected["conclusion_holds"] = min_leaves <= verdict.k
        elif verdict.claim == "branch-cover":
            expected["conclusion_holds"] = min_branch <= verdict.k - 2
        actual = dict(vars(verdict), kappa=verdict.kappa.finite)
        if any(actual[name] != value for name, value in expected.items()):
            mismatches.append(verdict)
    return mismatches


def test_every_exhaustive_n4_verdict_matches_the_oracles():
    assert oracle_mismatches(N4) == []


def test_kappa_one_too_low_is_caught_by_the_oracles(monkeypatch):
    exact = invariants.local_connectivity
    monkeypatch.setattr(invariants, "local_connectivity",
                        lambda graph, x, y: max(exact(graph, x, y) - 1, 0))
    assert len(oracle_mismatches(N4)) == 3958    # the sweep itself runs clean


def test_hypothesis_at_k_minus_one_aborts_a_sweep_with_reproduction_data(monkeypatch):
    exact = verify.hypothesis_holds
    monkeypatch.setattr(verify, "hypothesis_holds", lambda alpha, k, kappa: exact(alpha, k - 1, kappa))
    with pytest.raises(InternalInvariantError, match="the hypothesis flag disagrees with the "
                                                     "construction's bound") as info:
        for _ in sweep_verdicts(N4):
            pass
    assert str(info.value).endswith("(claim 'kended-cover' on graph Bo with S=[1, 2], k=2)")


def test_a_covering_handed_on_with_the_bound_of_k_minus_one_aborts_a_sweep(monkeypatch):
    # the sweep context hands a covering at k - 1 on to k with a bound one lower;
    # kept at k - 1, the bound is one too high, which the hypothesis check sees
    # only where the hypothesis first holds at k and the construction already
    # covered at k - 1: no instance with n <= 4 is such, and exhaustive n <= 5
    # aborts at the first one
    exact = verify.GraphContext.construct

    def faulty(ctx, smask, k):
        start = ctx._construct.get((smask, k - 1))
        if (smask, k) not in ctx._construct and start is not None and start.kind == COVERING:
            ctx._construct[(smask, k)] = replace(start)    # the bound of k - 1
        return exact(ctx, smask, k)

    monkeypatch.setattr(verify.GraphContext, "construct", faulty)
    for _ in sweep_verdicts(N4):
        pass
    with pytest.raises(InternalInvariantError) as info:
        for _ in sweep_verdicts(SweepPlan(mode="exhaustive", n=5)):
            pass
    assert str(info.value) == ("the hypothesis flag disagrees with the construction's bound "
                               "(claim 'kended-cover' on graph DY_ with S=[2, 3, 4], k=3)")

