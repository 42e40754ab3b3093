"""Fault gate: each seeded fault must make the harness abort with reproduction data.

A harness that cannot fail proves nothing, so every fault here is patched into
one library function and the test requires a named abort, never a quiet
verdict. A fault that no check catches gets a new check; it is not dropped.

One fault runs quiet through the harness's own checks on exhaustive n <= 4:
kappa - 1 on every pair flow. A smaller kappa only shrinks the hypothesis and
loosens the bounds the construction must meet. It is caught here by the
verdict-vs-oracle test, which recomputes alpha, kappa, the hypothesis and the
cover conclusions of every verdict by brute force in `tests/oracles.py`.

The hypothesis flag of the verdict layer, k >= alpha - kappa + 1 with the least
k read once per S, is checked against the construction's bound
alpha - kappa - k + 1, which is at most 0 exactly when the hypothesis holds,
so a least k one too high (the hypothesis read at k - 1) aborts the sweep at
the first verdict where the two disagree.

The growth search's forced-leaf bounds are seeded too. A leaf bound that cuts
too much aborts at n <= 4, because every leaf-budget search must find the tree
the minimum-leaf table promises. The branch-budget search is checked against
the same table: a tree with L >= 2 leaves has at most L - 2 branch vertices,
so a "no" at budget b where a tree with b + 2 leaves covers S aborts. The
seeded branch-bound fault changes no result on n <= 5, so it first shows at
n = 6; the n = 7 atlas tier aborts at its fourth graph.

Two attachment faults shorten the attachment the construction takes: without
its first vertex, or one edge from its start, wherever it has two or more
edges. `augment` accepts either, but the residual alpha need not fall, so the
construction aborts. Neither shows on n <= 6; the n = 7 atlas tier aborts at
its 10th and its 188th graph.

alpha has two routes, and both are seeded. On exhaustive n <= 4 the lattice
step of `subset_alpha` fills every mask with alpha >= 2, so its faults abort
that sweep, while `alpha_mask` decides only masks with alpha <= 1; its
alpha - 1 runs on a sweep with S = V, whose first mask it decides.

The alpha leaf bound 2 alpha(S) - n + 1 is seeded one off each way. One too
high answers "no" below the least leaf count, which the construction's
covering contradicts on n <= 4 already. One too low is only a weaker bound:
it sends more leaf budgets to the minimum-leaf table, which answers them as
before, so no verdict changes, and the fault shows as levels built where the
exact bound builds none.

A kappa one too high on every pair flow lets the hypothesis hold where the
theorem promises nothing, and the construction then finds no base path. This
is the fault a pair value settled without its flow would make if it
over-counted disjoint paths.

The sweep context hands a covering at k - 1 on to k with a bound one lower.
A covering handed on with the bound of k - 1 runs quiet on exhaustive n <= 4
and aborts on n <= 5, where the bound first disagrees with the hypothesis flag.

A witness that uses a non-edge fails the host check that the sweep context
makes where the tree enters its cache, which the sweep reports like every
other internal failure, with the claim, graph6, S and k, in serial and in
pool mode. A witness over its leaf budget fails the audit made there too. The construction's tree and the sharpness cells' trees get the
same check, from `Graph.check_tree`. The Hamiltonian witness is the covering
tree of V, checked as it enters the cache, and the backtracking path must be
the first path on V, so a wrong path aborts even where it is a valid one, as
its reverse is. An attachment that
`augment` refuses is a failed step of the construction, not bad input, so it
ends the sweep and the CLI the same way.
"""

import functools
import re
from dataclasses import replace
from itertools import combinations

import pytest

from kended import cli, constructive, graphs, invariants, treesearch, verify
from kended.constructive import COVERING
from kended.errors import InternalInvariantError
from kended.formats import parse_graph6
from kended.graphs import Graph, Tree, VertexSet, iter_bits
from kended.verify import SweepPlan, sweep_verdicts, verify_instance

from conftest import rebind_everywhere, time_limit
from oracles import (
    independent_sets_by_enumeration,
    max_internally_disjoint_paths,
    min_branch_cover_by_enumeration,
    min_leaf_cover_by_enumeration,
)

REPRODUCTION = re.compile(r"claim '([a-z-]+)' on graph (\S+) with S=\[([0-9, ]*)\], k=(\d+)")
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
                       match="backtracking Hamiltonian search disagrees with the covering-path oracle") as info:
        verify_instance(p4, VertexSet.full(4), 2)
    assert REPRODUCTION.search(str(info.value))


def test_alpha_one_too_high_aborts_a_sweep_with_reproduction_data(alpha_one_too_high):
    with pytest.raises(InternalInvariantError) as info:
        for _ in sweep_verdicts(SweepPlan(mode="exhaustive", n=4)):
            pass
    assert REPRODUCTION.search(str(info.value))


def test_alpha_one_too_low_aborts_a_sweep_with_reproduction_data(monkeypatch):
    # on exhaustive n <= 4 the lattice step fills every mask with alpha >= 2,
    # so the fault is run where alpha_mask decides S = V on each graph
    exact = invariants.alpha_mask

    def faulty(graph, smask):
        size, witness = exact(graph, smask)
        return (size - 1 if size >= 2 else size), witness

    monkeypatch.setattr(invariants, "alpha_mask", faulty)
    with pytest.raises(InternalInvariantError, match="path search exhausted") as info:
        for _ in sweep_verdicts(SweepPlan(mode="random", n=6, count=50, seed=0, s_policy="s=v")):
            pass
    assert str(info.value).endswith("(claim 'kended-cover' on graph EKt? with S=[0, 1, 2, 3, 4, 5], k=2)")


def seed_lattice_fault(monkeypatch, apart_of, gain):
    """subset_alpha, rebound in every module, with alpha(S) = max(alpha(S - v),
    gain + alpha(apart_of(S))) for its lattice step, where v is the lowest
    vertex of S; the exact step reads S - N[v] with gain 1."""
    def subset_alpha(graph, smask):
        memo = graph._alpha
        alpha = memo.get(smask)
        if alpha is None:
            low = smask & -smask
            without = memo.get(smask ^ low)
            apart = None if without is None else memo.get(apart_of(graph, smask, low))
            alpha = invariants.alpha_mask(graph, smask)[0] if apart is None else max(without, apart + gain)
            memo[smask] = alpha
        return alpha

    rebind_everywhere(monkeypatch, invariants.subset_alpha, subset_alpha)


def closed_apart(graph, smask, low):
    return smask & ~graph.rows[low.bit_length() - 1] & ~low


def test_the_exact_lattice_step_of_the_fault_seeder_runs_clean(monkeypatch):
    # the seeder's own step, unfaulted, gives the sweep's verdicts, so the two
    # faults below differ from subset_alpha by their fault alone
    clean = list(sweep_verdicts(N4))
    seed_lattice_fault(monkeypatch, closed_apart, 1)
    assert list(sweep_verdicts(N4)) == clean


@pytest.mark.parametrize("apart_of, gain, message", [
    (closed_apart, 0, "path search exhausted; this contradicts the base-path guarantee "
                      "(claim 'kended-cover' on graph Cs with S=[1, 2, 3], k=2)"),
    (lambda graph, smask, low: smask ^ low, 1,
     "backtracking Hamiltonian search disagrees with the covering-path oracle: backtracking found None, "
     "the first path on V is (0, 1) (claim 'hamiltonian-path' on graph A_ with S=[0, 1], k=2)"),
], ids=["without-plus-one", "s-minus-v-for-s-minus-closed-neighbourhood"])
def test_a_faulty_lattice_step_aborts_a_sweep_with_reproduction_data(monkeypatch, apart_of, gain, message):
    # alpha_mask decides only masks with alpha <= 1 on exhaustive n <= 4, so
    # these are the faults an alpha >= 2 there can come from
    seed_lattice_fault(monkeypatch, apart_of, gain)
    with pytest.raises(InternalInvariantError) as info:
        for _ in sweep_verdicts(N4):
            pass
    assert str(info.value) == message


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


def test_alpha_leaf_bound_one_too_high_aborts_a_sweep_with_reproduction_data(monkeypatch):
    # a bound above the least leaf count answers "no" where a tree within the
    # budget exists, which the construction's covering contradicts
    exact = treesearch._leaf_lower_bound
    monkeypatch.setattr(treesearch, "_leaf_lower_bound", lambda graph, smask: exact(graph, smask) + 1)
    with pytest.raises(InternalInvariantError) as info:
        for _ in sweep_verdicts(SweepPlan(mode="exhaustive", n=5)):
            pass
    message = str(info.value)
    assert message == ("construction covered but the exhaustive oracle found nothing "
                       "(claim 'kended-cover' on graph Cs with S=[1, 2, 3], k=3)")
    # the named instance aborts on its own, with the same message
    _, graph6, subset, k = REPRODUCTION.search(message).groups()
    graph = parse_graph6(graph6)
    with pytest.raises(InternalInvariantError) as again:
        verify_instance(graph, VertexSet.from_vertices(graph.n, map(int, subset.split(", "))), int(k))
    assert str(again.value) == message


def test_alpha_leaf_bound_one_too_low_changes_no_verdict_but_builds_levels(monkeypatch):
    # a bound below the least leaf count only sends more budgets to the
    # minimum-leaf table, which answers them as before; the levels it builds
    # are where the fault shows
    original = graphs._min_leaf_level
    builds = []

    def counted(rows, levels):
        builds.append(rows)
        return original(rows, levels)

    monkeypatch.setattr(graphs, "_min_leaf_level", counted)
    clean = list(sweep_verdicts(N4))
    assert builds == []
    exact = treesearch._leaf_lower_bound
    monkeypatch.setattr(treesearch, "_leaf_lower_bound", lambda graph, smask: exact(graph, smask) - 1)
    assert list(sweep_verdicts(N4)) == clean
    assert len(builds) == 4


def branch_bound_on_every_forced_vertex(rows, smask, budget, mask, deg1, deg2):
    """The branch bound cutting whenever a forced vertex lacks a branch
    neighbour, though a leaf could take it."""
    branch = mask & ~deg1 & ~deg2
    return branch.bit_count() >= budget and treesearch._forced(rows, smask, mask, branch)[0] > 0


def test_branch_bound_on_every_forced_vertex_is_caught_at_n6(monkeypatch):
    # the fault changes no branch-budget result on any labelled graph with
    # n <= 5, so exhaustive n <= 5 runs quiet, and the sampled n = 6 tier of
    # the acceptance tests first aborts at its 3,505th graph (E[?g,
    # S=[1, 2, 3, 4], k=3); this is the smallest sweep found that catches it:
    # the first connected G(6, 0.3) of seed 0, with every S. The wrong "no"
    # meets the minimum-leaf table, since a tree with 3 leaves has at most 1
    # branch vertex, before it could become a counterexample
    monkeypatch.setattr(treesearch, "_branch_bound_cuts", branch_bound_on_every_forced_vertex)
    plan = SweepPlan(mode="random", n=6, p=0.3, count=8, seed=0, s_policy="all-subsets")
    with pytest.raises(InternalInvariantError) as info:
        for _ in sweep_verdicts(plan):
            pass
    assert str(info.value) == ("the minimum-leaf table gives 3 leaves but the branch search found no tree with "
                               "at most 1 branch vertices (claim 'branch-cover' on graph EgU? with S=[2, 3, 5], k=3)")


def first_abort_on_the_n7_atlas_tier() -> str:
    """The message with which the tier of the widest regression pin, every S
    and k = 2..5 of the connected 7-vertex atlas graphs in atlas order, aborts."""
    nx = pytest.importorskip("networkx")
    graphs = (Graph.from_edges(7, g.edges()) for g in nx.graph_atlas_g()
              if g.number_of_nodes() == 7 and nx.is_connected(g))
    with time_limit(60), pytest.raises(InternalInvariantError) as info:
        for graph in graphs:
            verify._graph_task((graph, list(range(1, 1 << 7)), (2, 3, 4, 5)))
    return str(info.value)


def test_branch_bound_on_every_forced_vertex_aborts_the_n7_atlas_tier(monkeypatch):
    # the tier aborts at its 4th graph
    monkeypatch.setattr(treesearch, "_branch_bound_cuts", branch_bound_on_every_forced_vertex)
    assert first_abort_on_the_n7_atlas_tier() == (
        "the minimum-leaf table gives 3 leaves but the branch search found no tree with at most 1 branch vertices "
        "(claim 'branch-cover' on graph FiOG_ with S=[0, 5, 6], k=3)")


def without_its_first_vertex(graph, tree, path):
    """An attachment with two or more edges without its first vertex."""
    return path[1:] if len(path) >= 3 else path


def one_edge_from_its_start(graph, tree, path):
    """In place of an attachment with two or more edges, the edge from its
    start to that vertex's lowest tree neighbour, if it has one."""
    near = graph.rows[path[0]] & tree.vertex_mask
    return (path[0], (near & -near).bit_length() - 1) if len(path) >= 3 and near else path


def bend_every_attachment(monkeypatch, bend):
    exact = constructive.maximal_attachment_path
    rebind_everywhere(monkeypatch, exact, lambda graph, tree, subset: bend(graph, tree, exact(graph, tree, subset)))


@pytest.mark.parametrize("bend, where", [
    (without_its_first_vertex, "graph Fk_G_ with S=[0, 2, 5], k=3"),
    (one_edge_from_its_start, "graph FGEFw with S=[0, 1, 3, 4], k=3"),
], ids=["drop-first", "one-edge"])
def test_a_short_attachment_aborts_the_n7_atlas_tier(monkeypatch, bend, where):
    # each fault hands augment a shorter attachment that it accepts, which can
    # miss a maximum independent subset of the remainder; the residual alpha
    # then does not fall. Both run quiet on exhaustive n <= 5 and on the n = 6
    # atlas graphs, and the tier aborts at its 10th and its 188th graph
    bend_every_attachment(monkeypatch, bend)
    assert first_abort_on_the_n7_atlas_tier() == (
        f"augmentation failed to reduce the residual alpha (claim 'kended-cover' on {where})")


def test_an_attachment_without_its_first_vertex_aborts_its_7_vertex_reproduction(monkeypatch):
    # the tier's first abort alone, a tree on 7 vertices, fails in milliseconds
    bend_every_attachment(monkeypatch, without_its_first_vertex)
    with time_limit(10), pytest.raises(InternalInvariantError) as info:
        verify_instance(parse_graph6("Fk_G_"), VertexSet.from_vertices(7, [0, 2, 5]), 3)
    assert str(info.value) == ("augmentation failed to reduce the residual alpha "
                               "(claim 'kended-cover' on graph Fk_G_ with S=[0, 2, 5], k=3)")


@pytest.mark.parametrize("workers", [1, 2])
def test_a_witness_on_a_non_edge_aborts_a_sweep_with_reproduction_data(monkeypatch, tmp_path, capsys, workers):
    # the path through every vertex in label order, handed out as the k = 3
    # leaf-budget witness; Graph.check_tree's InternalInvariantError must reach
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


def attached_along_a_non_edge(graph, tree, path):
    """The attachment with its last step moved to the highest tree vertex off
    the vertex before it."""
    far = tree.vertex_mask & ~graph.rows[path[-2]]
    return path[:-1] + (far.bit_length() - 1,) if far else path


def touching_the_tree_early(graph, tree, path):
    """The attachment started at the highest tree vertex other than its end."""
    touch = tree.vertex_mask & ~(1 << path[-1])
    return (touch.bit_length() - 1,) + path if touch else path


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bend, message", [
    (attached_along_a_non_edge, "tree edge (2, 3) is not a graph edge"),
    (touching_the_tree_early, "attachment path touches the tree before its end"),
], ids=["non-edge", "early-touch"])
def test_a_faulty_attachment_aborts_a_sweep_and_the_cli_as_an_internal_error(
        monkeypatch, tmp_path, capsys, bend, message, workers):
    # the construction's host check and augment's ValueError must reach the
    # sweep as internal failures that name the instance, also from a pool
    # worker, and `kended verify` and `kended construct` must exit 1 with an
    # internal error, not 2 with a usage error
    exact = constructive.maximal_attachment_path
    monkeypatch.setattr(constructive, "maximal_attachment_path",
                        lambda graph, tree, subset: bend(graph, tree, exact(graph, tree, subset)))
    where = "claim 'kended-cover' on graph Cs with S=[1, 2, 3], k=3"
    with time_limit(60), pytest.raises(InternalInvariantError) as info:
        for _ in sweep_verdicts(replace(N4, workers=workers)):
            pass
    assert str(info.value) == f"{message} ({where})"
    plan = tmp_path / "n4.plan"
    plan.write_text(f"mode = exhaustive\nn = 4\nworkers = {workers}\n")
    assert cli.main(["verify", "--plan", str(plan), "--no-timing"]) == 1
    assert capsys.readouterr().err == f"kended: internal error: {message} ({where})\n"
    # K_{1,3} with S = B: the base path leaves one leaf of the star to attach
    assert cli.main(["construct", "--family", "kmm 1 2", "--set", "B", "--k", "3", "--no-timing"]) == 1
    assert capsys.readouterr().err == f"kended: internal error: {message} (graph6=Cs, S=[1, 2, 3], k=3)\n"


def test_a_sharpness_leaf_tree_on_a_non_edge_is_an_internal_error(monkeypatch, capsys):
    # the path through every vertex in label order as the minimum-leaf tree of
    # K_{1,2}: the cell's host check must fail as an internal error (exit 1)
    # that names the cell's m, k and graph6
    exact = verify.minimum_leaf_covering_tree
    monkeypatch.setattr(verify, "minimum_leaf_covering_tree", lambda graph, subset: (
        exact(graph, subset)[0], Tree.from_path(graph.n, range(graph.n))))
    message = "tree edge (1, 2) is not a graph edge (sharpness cell m=1, k=1 on graph Bo)"
    with pytest.raises(InternalInvariantError) as info:
        verify.verify_sharpness(1, 1)
    assert str(info.value) == message
    assert cli.main(["sharpness", "--m-range", "1..1", "--k-range", "1..1", "--no-timing"]) == 1
    assert capsys.readouterr() == ("", f"kended: internal error: {message}\n")


def test_a_witness_over_its_leaf_budget_aborts_a_sweep(monkeypatch):
    # the leaf search asked at k + 1 for k >= 3 (k = 2 is left alone, so the
    # Hamiltonian check does not see it first): its tree enters the cache
    # audited within k leaves, and the first tree with k + 1 leaves aborts
    exact = verify.find_k_ended_covering_tree

    def faulty(graph, subset, k, cap=treesearch.DEFAULT_TREE_CAP):
        return exact(graph, subset, k + 1 if k >= 3 else k, cap=cap)

    monkeypatch.setattr(verify, "find_k_ended_covering_tree", faulty)
    with pytest.raises(InternalInvariantError) as info:
        for _ in sweep_verdicts(SweepPlan(mode="exhaustive", n=5)):
            pass
    assert str(info.value) == ("witness tree exceeds the leaf budget "
                               "(claim 'kended-cover' on graph Ds_ with S=[1, 2, 3, 4], k=3)")


def test_a_hamiltonian_witness_on_a_non_edge_aborts_a_sweep(monkeypatch):
    # the vertices in label order whenever a Hamiltonian path exists: the
    # covering-path oracle agrees that one exists, so only the exact path can
    # tell; on the path 1-0-2 the order 0, 1, 2 uses the non-edge 12
    exact = verify.hamiltonian_path_exists

    def faulty(graph, cap=treesearch.DEFAULT_TREE_CAP):
        path = exact(graph, cap=cap)
        return None if path is None else tuple(range(graph.n))

    monkeypatch.setattr(verify, "hamiltonian_path_exists", faulty)
    with pytest.raises(InternalInvariantError) as info:
        for _ in sweep_verdicts(N4):
            pass
    assert str(info.value) == ("backtracking Hamiltonian search disagrees with the covering-path oracle: "
                               "backtracking found (0, 1, 2), the first path on V is (1, 0, 2) "
                               "(claim 'hamiltonian-path' on graph Bo with S=[0, 1, 2], k=2)")


def test_a_reversed_hamiltonian_path_aborts_a_sweep(monkeypatch):
    # the reverse of a Hamiltonian path is a valid one on the same edges, so
    # only the exact path tells it from the first: on K_2 it reads (1, 0)
    exact = verify.hamiltonian_path_exists

    def faulty(graph, cap=treesearch.DEFAULT_TREE_CAP):
        path = exact(graph, cap=cap)
        return None if path is None else path[::-1]

    monkeypatch.setattr(verify, "hamiltonian_path_exists", faulty)
    with pytest.raises(InternalInvariantError) as info:
        for _ in sweep_verdicts(N4):
            pass
    assert str(info.value) == ("backtracking Hamiltonian search disagrees with the covering-path oracle: "
                               "backtracking found (1, 0), the first path on V is (0, 1) "
                               "(claim 'hamiltonian-path' on graph A_ with S=[0, 1], k=2)")


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
    # the least k of the hypothesis one too high reads the hypothesis at k - 1
    exact = verify.GraphContext._subset_facts

    def faulty(ctx, smask):
        subset, alpha, kappa, least_k = exact(ctx, smask)
        ctx._facts[smask] = facts = (subset, alpha, kappa, least_k + (not kappa.is_infinite))
        return facts

    monkeypatch.setattr(verify.GraphContext, "_subset_facts", faulty)
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



@pytest.mark.parametrize("reader, message", [
    ("covering search", "witness tree does not cover the subset"),
    ("construction", "base path violates its residual guarantee"),
])
def test_a_path_tree_memo_that_hands_back_another_set_aborts_a_sweep(monkeypatch, reader, message):
    # the memo answers with the tree of the set without the lowest vertex, where
    # that is a path set too; the covering search asks without a sequence, the
    # construction with its base path. The least covering set is the least path
    # set containing S, so the lower set misses S, and a base tree that lacks a
    # base path vertex leaves more of S uncovered than the base path's guarantee
    exact = Graph.path_tree

    def faulty(graph, pmask, seq=None):
        lower = pmask & (pmask - 1)
        if (seq is None) == (reader == "covering search") and lower and graph.covering_set(lower) == lower:
            return exact(graph, lower)
        return exact(graph, pmask, seq)

    monkeypatch.setattr(Graph, "path_tree", faulty)
    with pytest.raises(InternalInvariantError) as info:
        for _ in sweep_verdicts(N4):
            pass
    assert str(info.value) == f"{message} (claim 'kended-cover' on graph A_ with S=[0, 1], k=2)"
