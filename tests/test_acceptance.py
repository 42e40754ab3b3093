"""Acceptance criteria, one test (or parametrized cell) per criterion.

Each criterion prints one PASS/FAIL line (visible with pytest -s). All
tolerances are exact integers; no tolerance is deferred to calibration.
"""

import random
from itertools import combinations

import pytest

from kended.families import GraphFamilySpec, enumerate_connected_labeled_graphs, make_family
from kended.formats import emit_edge_list, emit_graph6, parse_edge_list, parse_graph6
from kended.graphs import Graph, Tree, VertexSet
from kended.invariants import (
    independence_number,
    local_connectivity,
    set_connectivity,
)
from kended.treesearch import hamiltonian_path_exists
from kended.verify import SweepPlan, run_sweep, sweep_verdicts, verify_sharpness

from oracles import (
    independent_sets_by_enumeration,
    max_internally_disjoint_paths,
    random_connected_graph,
    random_spanning_tree,
    vertex_connectivity_by_cuts,
)

pytestmark = pytest.mark.acceptance


def report_line(name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")


# criterion 1: sharpness grid, exact integers

GRID_CELLS = [
    (m, k)
    for m in range(1, 5)
    for k in range(1, 5)
    if m + (m + k) <= 10
]


@pytest.mark.parametrize("m,k", GRID_CELLS)
def test_criterion_1_sharpness_grid_cell(m, k):
    verdict = verify_sharpness(m, k)
    # exact minimum branch count over trees covering S = B in K_{m,m+k}:
    # lower bound: a branch-free tree is a path, which alternates sides and so
    #   covers at most m + 1 vertices of B, fewer than m + k once k >= 2;
    #   for k = 1 a Hamiltonian path exists, so the minimum is 0
    # upper bound: a spider centred at one vertex of A, with k + 1 legs run
    #   through the other m - 1 vertices of A, covers B with one branch vertex
    #   (and k + 1 leaves, so the minimum holds among minimum-leaf trees too)
    # k - 1 is only the largest branch count a (k + 1)-leaf tree can have
    expected = {
        "alpha": m + k,
        "kappa": m,
        "min_leaves": k + 1,
        "min_branch": 0 if k == 1 else 1,
    }
    actual = {
        "alpha": verdict.alpha,
        "kappa": verdict.kappa,
        "min_leaves": verdict.min_leaves,
        "min_branch": verdict.min_branch,
    }
    ok = actual == expected
    report_line(f"1 sharpness cell (m={m}, k={k})", ok, f"actual {actual}")
    assert actual == expected


# criteria 2 + 3 share the exhaustive tier stream


@pytest.fixture(scope="module")
def exhaustive_tier():
    plan = SweepPlan(mode="exhaustive", n=5, k_min=2, k_max=4, s_policy="all-subsets")
    stats = {
        "instances": 0,
        "graphs": 0,
        "hyp_true_cover": 0,
        "constructive_covering_ok": 0,
        "oracle_agreement_ok": 0,
    }
    # a counterexample or a failed progress/audit assertion raises here
    for verdict in sweep_verdicts(plan):
        stats["instances"] += 1
        if verdict.claim == "hamiltonian-path":
            stats["graphs"] += 1
        if verdict.claim == "kended-cover" and verdict.hypothesis_holds:
            stats["hyp_true_cover"] += 1
            if verdict.detail["constructive_covering"]:
                stats["constructive_covering_ok"] += 1
            if verdict.conclusion_holds:
                stats["oracle_agreement_ok"] += 1
    return stats


def test_criterion_2_exhaustive_tier(exhaustive_tier):
    # 1 + 1 + 4 + 38 + 728 connected labeled graphs with n <= 5
    ok = exhaustive_tier["graphs"] == 772 and exhaustive_tier["instances"] > 0
    report_line(
        "2 exhaustive n<=5",
        ok,
        f"{exhaustive_tier['graphs']} graphs, {exhaustive_tier['instances']} instances, "
        "0 counterexamples",
    )
    assert ok


def test_criterion_2_sampled_tier():
    total_graphs = 0
    total_instances = 0
    for n, count in ((6, 5000), (7, 4200), (8, 4000)):
        plan = SweepPlan(
            mode="random", n=n, p=0.5, count=count, seed=1000 + n,
            k_min=2, k_max=4, s_policy="random-subsets", s_count=1,
        )
        report = run_sweep(plan)    # aborts on any counterexample
        total_graphs += report.graphs_evaluated
        total_instances += report.total_instances
    ok = total_graphs >= 10_000
    report_line(
        "2 sampled n in 6..8",
        ok,
        f"{total_graphs} connected graphs, {total_instances} instances, 0 counterexamples",
    )
    assert ok


def test_criterion_3_constructive_equivalence(exhaustive_tier):
    # every hypothesis-true instance: construction covered, oracle agreed, and
    # the in-loop progress assertion never raised while the stream ran
    hyp = exhaustive_tier["hyp_true_cover"]
    ok = (
        hyp > 0
        and exhaustive_tier["constructive_covering_ok"] == hyp
        and exhaustive_tier["oracle_agreement_ok"] == hyp
    )
    report_line("3 constructive vs oracle", ok, f"{hyp} hypothesis-true instances")
    assert ok


# criterion 4: Hamiltonian path condition


def test_criterion_4_hamiltonian_path_condition():
    checked = 0
    for n in range(1, 7):
        for graph in enumerate_connected_labeled_graphs(n):
            alpha = independence_number(graph, VertexSet.full(n)).size
            if n >= 2:
                # kappa never exceeds the minimum degree; skip early failures
                min_deg = min(row.bit_count() for row in graph.rows)
                if alpha > min_deg + 1:
                    continue
            kappa = set_connectivity(graph, VertexSet.full(n))
            if not (kappa.is_infinite or alpha <= kappa.finite + 1):
                continue
            path = hamiltonian_path_exists(graph)
            assert path is not None, f"no Hamiltonian path on {emit_graph6(graph)}"
            graph.check_tree(Tree.from_path(n, path))
            assert sorted(path) == list(range(n))
            checked += 1
    petersen, _ = make_family(GraphFamilySpec("petersen", ()))
    assert independence_number(petersen, VertexSet.full(10)).size == 4
    assert set_connectivity(petersen, VertexSet.full(10)) == 3
    petersen_path = hamiltonian_path_exists(petersen)
    assert petersen_path is not None
    petersen.check_tree(Tree.from_path(10, petersen_path))
    report_line("4 hamiltonian path condition", True, f"{checked} qualifying graphs + petersen")


# criterion 5: invariant oracle agreement


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def check_invariants_against_oracles(graph, rng, pair_limit=None):
    n = graph.n
    full = VertexSet.full(n)
    expected_alpha, _ = independent_sets_by_enumeration(graph, graph.full_mask)
    assert independence_number(graph, full).size == expected_alpha
    smask = rng.randrange(0, graph.full_mask + 1)
    expected_alpha, _ = independent_sets_by_enumeration(graph, smask)
    assert independence_number(graph, VertexSet(n, smask)).size == expected_alpha
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    if pair_limit is not None and len(pairs) > pair_limit:
        pairs = rng.sample(pairs, pair_limit)
    for x, y in pairs:
        assert local_connectivity(graph, x, y) == max_internally_disjoint_paths(graph, x, y)
    if n >= 2:
        assert set_connectivity(graph, full) == vertex_connectivity_by_cuts(graph)


def test_criterion_5_invariant_oracle_agreement():
    rng = random.Random(5)
    count = 0
    for n in range(1, 6):
        for graph in all_graphs(n):
            check_invariants_against_oracles(graph, rng)
            count += 1
    for _ in range(1000):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        graph = Graph.from_edges(n, edges)
        check_invariants_against_oracles(graph, rng, pair_limit=3)
        count += 1
    report_line("5 invariant oracles", True, f"{count} graphs")


# criterion 6: format round trips


def test_criterion_6_format_round_trips():
    count = 0
    for n in range(0, 6):
        for graph in all_graphs(n):
            assert parse_graph6(emit_graph6(graph)) == graph
            assert parse_edge_list(emit_edge_list(graph)) == graph
            count += 1
    rng = random.Random(6)
    for _ in range(500):
        n = rng.randint(6, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        graph = Graph.from_edges(n, edges)
        assert parse_graph6(emit_graph6(graph)) == graph
        assert parse_edge_list(emit_edge_list(graph)) == graph
        count += 1
    report_line("6 format round trips", True, f"{count} graphs")


# criterion 7: leaf/branch identity on random spanning trees


def test_criterion_7_tree_structure_property():
    rng = random.Random(7)
    for _ in range(10_000):
        n = rng.randint(2, 12)
        graph = random_connected_graph(rng, n, min(1.0, 2.5 / n + 0.2))
        edges = random_spanning_tree(graph, rng)
        tree = Tree(n, range(n), edges)
        assert tree.leaf_count >= tree.branch_count + 2
    report_line("7 leaves >= branch + 2", True, "10000 random spanning trees")
