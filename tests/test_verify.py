import hashlib
import json
import marshal
import pickle
import random
import re
import time
from collections import Counter
from dataclasses import replace

import pytest

from kended import cli, constructive, graphs, invariants, treesearch, verify
from kended.constructive import RESIDUAL_BOUND
from kended.errors import CapExceededError, CounterexampleError, InternalInvariantError, PlanError
from kended.families import GraphFamilySpec, enumerate_connected_labeled_graphs, make_family
from kended.formats import emit_graph6, parse_graph6
from kended.graphs import Graph, Tree, VertexSet, mask_of
from kended.report import sweep_report_to_json, tree_to_json, verdict_to_json
from kended.treesearch import DEFAULT_TREE_CAP, minimum_leaf_covering_tree
from kended.verify import (
    CLAIMS,
    GraphContext,
    SweepPlan,
    TheoremVerdict,
    _graph_verdicts,
    _verdict_hamiltonian,
    parse_sweep_plan,
    run_sweep,
    sweep_verdicts,
    verify_instance,
    verify_sharpness,
)
from kended.invariants import ConnectivityValue

from conftest import rebind_everywhere, time_limit
from oracles import (
    bipartite_3_7,
    covering_path_by_forward_dp,
    min_branch_cover_by_enumeration,
    min_leaf_cover_by_enumeration,
    random_connected_graph,
    tree_from_edges,
)


def kmm(m, k):
    return make_family(GraphFamilySpec("complete-bipartite", (m, k)))


# single-instance checks


def test_cover_verdict_petersen_spanning():
    graph, _ = make_family(GraphFamilySpec("petersen", ()))
    verdicts = verify_instance(graph, VertexSet.full(10), 2)
    assert [v.claim for v in verdicts] == list(CLAIMS)
    v = verdicts[0]
    assert (v.alpha, v.kappa, v.hypothesis_holds, v.conclusion_holds) == (4, 3, True, True)
    assert v.detail["constructive_covering"]
    assert not v.is_counterexample


def test_cover_verdict_hypothesis_false_recorded():
    graph, subset = kmm(2, 2)
    v = verify_instance(graph, subset, 2)[0]
    assert (v.alpha, v.kappa) == (4, 2)
    assert not v.hypothesis_holds
    assert not v.conclusion_holds
    assert not v.is_counterexample


def test_cover_verdict_singleton_trivial():
    graph, _ = kmm(2, 2)
    v = verify_instance(graph, VertexSet.from_vertices(6, [4]), 3)[0]
    assert v.kappa.is_infinite
    assert v.hypothesis_holds and v.conclusion_holds


def test_branch_verdict_k15():
    g = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    v = verify_instance(g, VertexSet.full(6), 6)[1]
    assert v.claim == "branch-cover"
    assert (v.alpha, v.kappa) == (5, 1)
    assert v.hypothesis_holds and v.conclusion_holds
    assert v.witness.branch_count <= 4


def test_residual_verdict_star_leaves():
    graph, subset = kmm(1, 3)
    v = verify_instance(graph, subset, 2)[2]
    assert v.claim == "residual-bound"
    assert v.conclusion_holds
    assert v.detail == {"covering": False, "residual_alpha": 2, "bound": 2}


def test_residual_verdict_first_disjunct():
    graph, subset = kmm(3, 1)
    v = verify_instance(graph, subset, 2)[2]
    assert v.conclusion_holds and v.detail == {"covering": True}


def test_hamiltonian_verdict_petersen():
    graph, _ = make_family(GraphFamilySpec("petersen", ()))
    v = verify_instance(graph, VertexSet.full(10), 2)[3]
    assert v.claim == "hamiltonian-path"
    assert (v.alpha, v.kappa) == (4, 3)
    assert v.hypothesis_holds and v.conclusion_holds


def test_verify_rejects_disconnected_or_bad_k():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        verify_instance(g, VertexSet.full(4), 2)
    graph, subset = kmm(2, 1)
    with pytest.raises(ValueError):
        verify_instance(graph, subset, 1)


# sharpness


def test_sharpness_cell_1_1():
    v = verify_sharpness(1, 1)
    assert (v.alpha, v.kappa, v.min_leaves, v.min_branch) == (2, 1, 2, 0)
    assert v.matches_expected


def test_sharpness_cell_2_2():
    v = verify_sharpness(2, 2)
    assert (v.alpha, v.kappa, v.min_leaves, v.min_branch) == (4, 2, 3, 1)
    assert v.matches_expected


def test_sharpness_cell_1_3_exact_minima():
    # exact minima via the independent subtree-enumeration oracle: the only
    # covering tree of the 4-leaf star is the star itself
    graph, subset = kmm(1, 3)
    assert min_leaf_cover_by_enumeration(graph, subset.mask) == 4
    assert min_branch_cover_by_enumeration(graph, subset.mask) == 1
    v = verify_sharpness(1, 3)
    assert (v.min_leaves, v.min_branch) == (4, 1)
    # 1 is the proved minimum branch count for k >= 2; the program's own
    # reported expectation is still k - 1 = 2, so the cell does not match it
    assert not v.matches_expected


@pytest.mark.parametrize("m,k", [(m, k) for m in (1, 2, 3) for k in (3, 4)])
def test_sharpness_oracle_minima_match_closed_form(m, k):
    # the criterion-1 closed forms, by subtree enumeration independent of treesearch
    graph, subset = kmm(m, k)
    assert min_leaf_cover_by_enumeration(graph, subset.mask) == k + 1
    assert min_branch_cover_by_enumeration(graph, subset.mask) == (0 if k == 1 else 1)


def test_sharpness_alpha_kappa_identity_on_grid():
    for m in (1, 2, 3):
        for k in (1, 2, 3):
            if 2 * m + k > 10:
                continue
            v = verify_sharpness(m, k)
            assert v.alpha == v.k + v.kappa    # alpha = k + kappa on the family
            assert v.min_leaves == k + 1


def test_sharpness_cap_and_validation():
    with pytest.raises(CapExceededError):
        verify_sharpness(4, 3)
    with pytest.raises(ValueError):
        verify_sharpness(0, 1)


# plans


def test_parse_plan_round_trip():
    plan = parse_sweep_plan(
        """
        # comment
        mode = random
        n = 6
        p = 0.4
        count = 50
        seed = 9
        k_min = 2
        k_max = 3
        s_policy = random-subsets
        s_count = 2
        """
    )
    assert plan == SweepPlan(
        mode="random", n=6, p=0.4, count=50, seed=9, k_min=2, k_max=3,
        s_policy="random-subsets", s_count=2,
    )


@pytest.mark.parametrize(
    "text",
    [
        "mode = nosuch",
        "mode = exhaustive\nn = 9",
        "mode = random\nn = 8\ns_policy = all-subsets",
        "mode = random\np = 1.5",
        "mode = graph6",
        "mode = exhaustive\nn = 3\ns_policy = random-subsets\ns_count = 0",
        "mode = graph6\npath = x.g6\ns_policy = random-subsets\ns_count = 0",
        "k_min = 1",
        "k_min = 4\nk_max = 2",
        "bogus = 1",
        "mode exhaustive",
        "n = x",
        "n = 3\nn = 4",
    ],
)
def test_parse_plan_rejects(text):
    with pytest.raises(PlanError):
        parse_sweep_plan(text)


def test_default_plan_is_exhaustive_small():
    plan = SweepPlan()
    assert plan.mode == "exhaustive" and plan.n == 5
    assert (plan.k_min, plan.k_max) == (2, 4)
    assert plan.s_policy == "all-subsets"


# sweeps


def test_exhaustive_sweep_small_clean():
    report = run_sweep(SweepPlan(mode="exhaustive", n=3))
    assert report.graphs_evaluated == 6    # 1 + 1 + 4 connected labeled graphs
    assert report.skipped_disconnected == 0
    # (1 subset + 3 + 4 graphs * 7 subsets) * 3 values of k
    for claim in ("kended-cover", "branch-cover", "residual-bound"):
        assert report.claims[claim].instances == 96
    assert report.claims["hamiltonian-path"].instances == 6


def test_sweep_stream_is_deterministic():
    plan = SweepPlan(mode="random", n=6, p=0.5, count=30, seed=3,
                     s_policy="random-subsets", s_count=2)
    first = [verdict_to_json(v) for v in sweep_verdicts(plan)]
    second = [verdict_to_json(v) for v in sweep_verdicts(plan)]
    assert first == second
    assert json.dumps(first) == json.dumps(second)
    third = [verdict_to_json(v) for v in sweep_verdicts(SweepPlan(
        mode="random", n=6, p=0.5, count=30, seed=4, s_policy="random-subsets", s_count=2))]
    assert first != third


# Recorded on CPython 3.10, 3.11 and 3.12; a refactor of the verdict layer
# must leave both byte for byte as they are.
N4_STREAM_SHA256 = "c2828d708b0ffc9ecd563e5a26ca61df1cf08003ce0607cf69536b9b06bf1216"
N4_REPORT_SHA256 = "5398b6bc5af3cf514dcecbfea4649a44ba45950009aed6ba5daaaaf070976cff"
# Recorded on CPython 3.11 while every (S, k) still ran the construction.
N5_STREAM_SHA256 = "d08ed543d2c0e920275325295fce9a3664b8dc8c5a6577043f04d747841ac834"
# Recorded on CPython 3.11 while every (S, k) still built its own path tree,
# for the plans of `larger_plans`.
LARGER_STREAM_SHA256 = {
    "bipartite-3-7": "10192353d4ff0c3bfe1cf707d56d37b1b41c344f0429bba2f1e0394d651e0dc0",
    "gnp-9-0.3": "28bbea6b90a81ffb7c89b368530992ec6cf99333fd1101a0c1697711a3baeb1d",
    "gnp-8-0.5": "e431edfdac4e14d57a93b05e185e4535d5a2a6ffc505ff7f439c445b575a8799",
}

# Recorded on CPython 3.11 before the first-path memo: every S and k = 2..5 of
# the 853 connected graphs on 7 vertices in networkx's atlas, 1,300,825
# verdicts. Their verdict_stream_sha256 was
# bfc359dfe71d506463286a84ba1f0f0e1468074338e6e62f8a7b094aa97485d0; the
# cheaper encoding of `atlas7_digest_and_tallies` pins the same fields.
ATLAS7_SHA256 = "88ad7ba8a770965bab0b68ba1d248df9833923ea485f3c1f912959e973a89fa8"
ATLAS7_TALLIES = {    # claim: (instances, hypothesis true, conclusion true)
    "kended-cover": (433324, 414785, 429112),
    "branch-cover": (433324, 414785, 429462),
    "residual-bound": (433324, 414785, 433324),
    "hamiltonian-path": (853, 432, 734),
}


def verdict_stream_sha256(verdicts):
    stream = hashlib.sha256()
    for verdict in verdicts:
        stream.update((json.dumps(verdict_to_json(verdict), sort_keys=True) + "\n").encode())
    return stream.hexdigest()


def test_exhaustive_n4_outputs_are_pinned(tmp_path, monkeypatch):
    assert verdict_stream_sha256(sweep_verdicts(SweepPlan(mode="exhaustive", n=4))) == N4_STREAM_SHA256
    monkeypatch.chdir(tmp_path)    # the report echoes the plan path
    (tmp_path / "p4.plan").write_text("mode = exhaustive\nn = 4\n")
    assert cli.main(["verify", "--plan", "p4.plan", "--no-timing", "--out", "r.json"]) == 0
    assert hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest() == N4_REPORT_SHA256


@pytest.fixture(scope="module")
def exhaustive_n5_sweep():
    """One default exhaustive n <= 5 sweep, counted: its verdict stream digest,
    and the number of verdicts, constructions, path trees, `Tree.__init__`
    runs, path walks, witness audits and alpha_mask runs."""
    calls = {"verdicts": 0, "constructions": 0, "trees": 0, "inits": 0, "walks": 0, "audits": 0, "alpha_masks": 0}
    construct, alpha_mask = constructive.construct_k_ended_tree, invariants.alpha_mask
    from_path, init, walk, audit = Tree.from_path.__func__, Tree.__init__, Graph._walk, verify._audit_cover_witness

    def counted_construct(graph, subset, k, start=None):
        calls["constructions"] += 1
        return construct(graph, subset, k, start=start)

    def counted_tree(cls, host_n, vertices):
        calls["trees"] += 1
        return from_path(cls, host_n, vertices)

    def counted_init(tree, host_n, root, steps=()):
        calls["inits"] += 1
        init(tree, host_n, root, steps)

    def counted_walk(graph, ends, rest):
        calls["walks"] += 1
        return walk(graph, ends, rest)

    def counted_audit(tree, smask, leaf_budget, branch_budget):
        calls["audits"] += 1
        return audit(tree, smask, leaf_budget, branch_budget)

    def counted_alpha_mask(graph, smask):
        calls["alpha_masks"] += 1
        return alpha_mask(graph, smask)

    def counted_verdicts(plan):
        for verdict in sweep_verdicts(plan):
            calls["verdicts"] += 1
            yield verdict

    with pytest.MonkeyPatch.context() as patch:
        rebind_everywhere(patch, construct, counted_construct)
        rebind_everywhere(patch, alpha_mask, counted_alpha_mask)
        patch.setattr(Tree, "from_path", classmethod(counted_tree))
        patch.setattr(Tree, "__init__", counted_init)
        patch.setattr(Graph, "_walk", counted_walk)
        patch.setattr(verify, "_audit_cover_witness", counted_audit)
        digest = verdict_stream_sha256(counted_verdicts(SweepPlan(mode="exhaustive", n=5, k_min=2, k_max=4)))
    return digest, calls


def test_exhaustive_n5_stream_is_pinned_and_constructs_only_past_a_covering(exhaustive_n5_sweep):
    # the context hands a covering at k - 1 on to k itself; 69,510 constructions
    # ran when every (S, k) constructed
    digest, calls = exhaustive_n5_sweep
    assert digest == N5_STREAM_SHA256
    assert calls["constructions"] == 23778


def test_exhaustive_n5_sweep_audits_each_search_tree_once(exhaustive_n5_sweep):
    # each tree a search finds is audited where it enters the context's caches;
    # 138,487 audits ran when every verdict audited the witness it read
    assert exhaustive_n5_sweep[1]["audits"] == 23768


def test_exhaustive_n5_sweep_fills_most_alpha_masks_from_the_lattice(exhaustive_n5_sweep):
    # subset_alpha takes alpha(S) = max(alpha(S - v), 1 + alpha(S - N[v])) from
    # the memo where it holds both; 23,941 alpha_mask runs when it decided
    # every mask
    assert exhaustive_n5_sweep[1]["alpha_masks"] == 2756


def test_the_branch_cache_refuses_a_tree_over_its_branch_budget(monkeypatch):
    # the double star has 2 branch vertices, 0 and 3, and 4 leaves, so only the
    # branch budget of 1 refuses it as it enters the cache
    edges = [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]
    graph = Graph.from_edges(6, edges)
    monkeypatch.setattr(verify, "covering_tree_with_branch_budget",
                        lambda host, subset, budget: tree_from_edges(6, range(6), edges))
    ctx = GraphContext(graph)
    with pytest.raises(InternalInvariantError, match="^witness tree exceeds the branch budget$"):
        ctx.branch_tree(mask_of([1, 2, 4, 5]), 1)
    assert ctx._branch == {}


def larger_plans(folder):
    """Plans at n = 8..10: 20 connected bipartite graphs with parts 3 and 7,
    S = V and k = 2..6, and 20 connected G(9, 0.3) and G(8, 0.5) graphs with 3
    random S each."""
    rng = random.Random(2024)
    bipartite = []
    while len(bipartite) < 20:
        label = list(range(10))
        rng.shuffle(label)
        graph = Graph.from_edges(10, [(label[a], label[3 + b]) for a in range(3) for b in range(7)
                                      if rng.random() < 0.8])
        if graph.is_connected():
            bipartite.append(graph)
    path = folder / "bipartite.g6"
    path.write_text("".join(emit_graph6(graph) + "\n" for graph in bipartite))
    return {
        "bipartite-3-7": SweepPlan(mode="graph6", path=str(path), s_policy="s=v", k_min=2, k_max=6),
        "gnp-9-0.3": SweepPlan(mode="random", n=9, p=0.3, count=41, seed=9, s_policy="random-subsets", s_count=3),
        "gnp-8-0.5": SweepPlan(mode="random", n=8, p=0.5, count=22, seed=8, s_policy="random-subsets", s_count=3),
    }


def test_larger_streams_are_pinned(tmp_path):
    for name, plan in larger_plans(tmp_path).items():
        assert run_sweep(plan).graphs_evaluated == 20, name
        assert verdict_stream_sha256(sweep_verdicts(plan)) == LARGER_STREAM_SHA256[name], name


def atlas7_digest_and_tallies(graphs):
    """The sha256 of the verdicts of every S and k = 2..5 of each graph, one
    marshal record per graph (format 2 has no back-references, so equal
    values give equal bytes), and the claim tallies."""
    digest = hashlib.sha256()
    counts = Counter()
    for graph in graphs:
        verdicts = verify._graph_task((graph, list(range(1, 1 << graph.n)), (2, 3, 4, 5)))[1]
        rows = [(v.claim, v.subset, v.k, v.alpha, v.kappa.finite, v.hypothesis_holds, v.conclusion_holds,
                 v.witness and v.witness.edges, v.detail) for v in verdicts]
        digest.update(marshal.dumps((verdicts[0].graph_id, rows), 2))
        counts.update((v.claim, v.hypothesis_holds, v.conclusion_holds) for v in verdicts)
    tallies = {claim: [0, 0, 0] for claim in CLAIMS}
    for (claim, hypothesis, conclusion), count in counts.items():
        tallies[claim] = [a + b for a, b in zip(tallies[claim], (count, hypothesis * count, conclusion * count))]
    return digest.hexdigest(), {claim: tuple(tally) for claim, tally in tallies.items()}


def test_every_connected_graph_on_7_vertices_is_pinned():
    # the widest regression anchor: all unlabelled connected graphs with n = 7
    nx = pytest.importorskip("networkx")
    graphs = [Graph.from_edges(7, g.edges()) for g in nx.graph_atlas_g()
              if g.number_of_nodes() == 7 and nx.is_connected(g)]
    assert len(graphs) == 853
    assert atlas7_digest_and_tallies(graphs) == (ATLAS7_SHA256, ATLAS7_TALLIES)


def memo_hosts():
    """Every connected labelled graph with n <= 5, and two random connected
    graphs for each n = 6..10."""
    for n in range(1, 6):
        yield from enumerate_connected_labeled_graphs(n)
    rng = random.Random(24)
    for n in range(6, 11):
        for _ in range(2):
            yield random_connected_graph(rng, n, 0.4)


def test_each_path_set_has_one_tree_for_the_covering_and_the_base_path():
    # the covering tree of S is the tree of the oracle's covering path, one
    # object per least path set; the base tree (k = 2 attaches nothing) is the
    # memo's tree of its set, the covering tree itself where the sets agree
    shared = 0
    for graph in memo_hosts():
        ctx = GraphContext(graph)
        by_set = {}
        for smask in range(1, 1 << graph.n):
            tree = ctx.cover_tree(smask, 2)
            seq = covering_path_by_forward_dp(graph, smask)
            assert tree == (None if seq is None else Tree.from_path(graph.n, seq)), (graph, smask)
            if smask.bit_count() < 2:
                continue
            base = ctx.construct(smask, 2)
            pmask = mask_of(base.trace[0])
            assert base.tree is graph.path_tree(pmask)
            assert base.tree == Tree.from_path(graph.n, base.trace[0])
            if seq is not None:
                assert by_set.setdefault(mask_of(seq), tree) is tree
                if pmask == mask_of(seq):
                    assert base.tree is tree
                    shared += 1
    assert shared > 0


def test_the_hamiltonian_witness_is_the_covering_tree_of_v():
    # the witness is the cached covering tree of V at k = 2, and the
    # backtracking path, the independent route, is the planes' first path on V
    found = 0
    for graph in memo_hosts():
        ctx = GraphContext(graph)
        witness = _verdict_hamiltonian(ctx).witness
        assert witness is ctx.cover_tree(graph.full_mask, 2)
        ham = treesearch.hamiltonian_path_exists(graph)
        assert ham == next(graph.first_paths(graph.n), (None,))[0]
        if witness is not None:
            assert witness == Tree.from_path(graph.n, ham)
            found += 1
    assert found > 0


def test_exhaustive_n5_sweep_builds_one_path_tree_per_path_set(exhaustive_n5_sweep):
    # 46,415 trees and 39,687 walks when every (S, k) built its own path tree,
    # 32,214 walks when every S walked its base path's first paths again, and
    # 20,394 trees and 12,444 walks when the Hamiltonian claim built its own
    # tree from the backtracking path (its check walks the n = 1 graph's path);
    # 19,721 trees while the 7,614 one-vertex trees of a one-vertex S were
    # one-vertex paths, which are now Tree(host_n, v) and not path trees
    calls = exhaustive_n5_sweep[1]
    assert calls["verdicts"] == 209302
    assert (calls["trees"], calls["walks"]) == (12107, 12445)


def test_exhaustive_n5_sweep_builds_every_root_grown_tree_in_the_constructor(exhaustive_n5_sweep):
    # 12,107 path trees, 7,614 one-vertex trees and 1,196 growth-search trees
    # run Tree.__init__, the layer the benchmark's tracer counts as
    # graphs.Tree; a tree grown on from another (augment's attached paths)
    # does not. None ran it when every tree was grown past the edge-list
    # constructor
    assert exhaustive_n5_sweep[1]["inits"] == 20917


def test_every_serialized_witness_of_the_n4_sweep_reads_back_as_its_tree():
    # tree_to_json's {host_n, vertices, edges} are the edge-list oracle's
    # arguments; the oracle checks them and grows the same tree, every slot equal
    witnesses = 0
    for verdict in sweep_verdicts(SweepPlan(mode="exhaustive", n=4)):
        if verdict.witness is not None:
            rebuilt = tree_from_edges(**json.loads(json.dumps(tree_to_json(verdict.witness))))
            assert [getattr(rebuilt, name) for name in Tree.__slots__] == [
                getattr(verdict.witness, name) for name in Tree.__slots__], verdict
            witnesses += 1
    assert witnesses > 0


def test_sweep_random_n9_clean_and_reproducible():
    plan = SweepPlan(mode="random", n=9, p=0.4, count=60, seed=7,
                     s_policy="random-subsets", s_count=1)
    report = run_sweep(plan)
    assert report.graphs_evaluated + report.skipped_disconnected == 60
    first = [verdict_to_json(v) for v in sweep_verdicts(plan)]
    second = [verdict_to_json(v) for v in sweep_verdicts(plan)]
    assert first == second


def test_sweep_skips_disconnected():
    plan = SweepPlan(mode="random", n=7, p=0.15, count=40, seed=1, s_policy="s=v")
    report = run_sweep(plan)
    assert report.skipped_disconnected > 0
    assert report.graphs_evaluated + report.skipped_disconnected == 40


def test_sweep_graph6_source(tmp_path):
    graphs = [
        make_family(GraphFamilySpec("petersen", ()))[0],
        Graph.from_edges(4, [(0, 1), (2, 3)]),            # disconnected: skipped
        Graph.from_edges(3, [(0, 1), (1, 2)]),
    ]
    path = tmp_path / "stream.g6"
    path.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
    plan = SweepPlan(mode="graph6", path=str(path), s_policy="s=v", k_min=2, k_max=2)
    report = run_sweep(plan)
    assert report.graphs_evaluated == 2
    assert report.skipped_disconnected == 1
    assert report.claims["kended-cover"].instances == 2


def skips_first_middle_last(tmp_path):
    """A graph6 plan whose disconnected records come first, in the middle and last."""
    disconnected = [Graph.from_edges(4, [(0, 1), (2, 3)]), Graph(2, [0, 0])]
    connected = [make_family(GraphFamilySpec("petersen", ()))[0],
                 Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
                 Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])]
    records = disconnected + connected[:2] + disconnected[:1] + connected[2:] + disconnected
    path = tmp_path / "skips.g6"
    path.write_text("".join(emit_graph6(g) + "\n" for g in records))
    return SweepPlan(mode="graph6", path=str(path), s_policy="random-subsets", s_count=2,
                     seed=11, k_min=2, k_max=3)


@pytest.mark.parametrize("source", ["exhaustive", "graph6-skips"])
def test_sweep_workers_match_serial(source, tmp_path):
    plan = SweepPlan(mode="exhaustive", n=3) if source == "exhaustive" else skips_first_middle_last(tmp_path)
    pooled = replace(plan, workers=2)
    assert [verdict_to_json(v) for v in sweep_verdicts(plan)] == [
        verdict_to_json(v) for v in sweep_verdicts(pooled)]
    serial, parallel = run_sweep(plan), run_sweep(pooled)
    assert (serial.graphs_evaluated, serial.skipped_disconnected) == (
        parallel.graphs_evaluated, parallel.skipped_disconnected)
    assert serial.claims == parallel.claims
    if source == "graph6-skips":
        assert (serial.graphs_evaluated, serial.skipped_disconnected) == (3, 5)


def test_counterexample_aborts_with_reproduction_data(monkeypatch):
    # inject a lying verdict: hypothesis true, conclusion false
    import kended.verify as V

    monkeypatch.setattr(
        V, "_verdict_cover",
        lambda ctx, smask, k: TheoremVerdict(
            claim="kended-cover", graph_id=ctx.graph_id, subset=(0,), k=k,
            alpha=1, kappa=ConnectivityValue.INFINITE, hypothesis_holds=True,
            conclusion_holds=False, witness=None,
        ),
    )
    with pytest.raises(CounterexampleError) as err:
        list(sweep_verdicts(SweepPlan(mode="exhaustive", n=2)))
    verdict = err.value.verdict
    assert verdict.claim == "kended-cover"
    assert verdict.graph_id
    assert verdict.is_counterexample
    assert "counterexample" in str(err.value)
    # one instance goes through the sweep's graph task, so it aborts the same way
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(CounterexampleError) as err:
        verify_instance(p3, VertexSet.full(3), 2)
    assert (err.value.verdict.claim, err.value.verdict.graph_id) == ("kended-cover", emit_graph6(p3))
    assert str(err.value).startswith(f"counterexample for claim 'kended-cover' on graph {emit_graph6(p3)} ")


def test_all_subsets_sweep_runs_each_pair_flow_once(monkeypatch):
    original = invariants.local_connectivity
    calls = []

    def counted(graph, x, y):
        calls.append((x, y))
        return original(graph, x, y)

    rebind_everywhere(monkeypatch, original, counted)
    graph = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
    verdicts = _graph_verdicts(graph, list(range(1, 32)), (2, 3, 4))
    assert len(verdicts) == 31 * 3 * 3 + 1
    assert len(calls) <= 10
    assert len({frozenset(pair) for pair in calls}) == len(calls)


@pytest.mark.parametrize("edges", [
    [(0, 1), (0, 2), (0, 3), (0, 4)],    # the star K_{1,4}
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)],    # C5 plus chords (0, 2), (1, 3)
])
def test_all_subsets_sweep_runs_alpha_once_per_mask(monkeypatch, edges):
    original = invariants.alpha_mask
    masks = []

    def counted(graph, smask):
        masks.append(smask)
        return original(graph, smask)

    rebind_everywhere(monkeypatch, original, counted)
    graph = Graph.from_edges(5, edges)
    verdicts = _graph_verdicts(graph, list(range(1, 32)), (2, 3, 4))
    assert len(verdicts) == 31 * 3 * 3 + 1
    assert len(masks) == len(set(masks)) <= 32


@pytest.mark.parametrize("edges", [
    [(0, 1), (0, 2), (0, 3), (0, 4)],    # the star K_{1,4}
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)],    # C5 plus chords (0, 2), (1, 3)
])
def test_all_subsets_sweep_checks_every_tree_where_it_enters_a_cache(monkeypatch, edges):
    # the sweep context checks each tree a search finds and each outcome of the
    # construction, one-vertex trees included, as it stores them; every witness
    # of a subset claim is such a tree. A search that hands back a tree on a
    # non-edge then aborts at its first tree with an edge, S = [0, 1] and k = 2,
    # with the claim, graph6, S and k
    checked, stored = [], []
    check_tree = graphs.Graph.check_tree

    def counted(graph, tree):
        checked.append(tree)
        check_tree(graph, tree)

    def recorded(original, tree_of=lambda result: result):
        def call(*args, **kwargs):
            result = original(*args, **kwargs)
            if result is not None:
                stored.append(tree_of(result))
            return result
        return call

    monkeypatch.setattr(graphs.Graph, "check_tree", counted)
    for search in (treesearch.find_k_ended_covering_tree, treesearch.covering_tree_with_branch_budget):
        rebind_everywhere(monkeypatch, search, recorded(search))
    construct = constructive.construct_k_ended_tree
    rebind_everywhere(monkeypatch, construct, recorded(construct, lambda outcome: outcome.tree))
    graph = Graph.from_edges(5, edges)
    verdicts = _graph_verdicts(graph, list(range(1, 32)), (2, 3, 4))
    ids = {id(tree) for tree in checked}
    assert stored and {id(tree) for tree in stored} <= ids
    assert {id(v.witness) for v in verdicts if v.witness is not None and v.claim != "hamiltonian-path"} <= ids

    monkeypatch.undo()
    non_edge = next((u, v) for u in range(5) for v in range(u + 1, 5) if not graph.has_edge(u, v))
    exact = verify.find_k_ended_covering_tree
    monkeypatch.setattr(verify, "find_k_ended_covering_tree", lambda graph, subset, k: (
        exact(graph, subset, k) if subset.mask & (subset.mask - 1) == 0 else Tree.from_path(5, non_edge)))
    with pytest.raises(InternalInvariantError) as info:
        _graph_verdicts(graph, list(range(1, 32)), (2, 3, 4))
    assert str(info.value) == (f"tree edge {non_edge} is not a graph edge "
                               f"(claim 'kended-cover' on graph {emit_graph6(graph)} with S=[0, 1], k=2)")


def test_sweep_builds_each_base_path_once_and_reads_branch_zero_from_leaf_two(monkeypatch):
    import kended.verify as V

    bases, budgets, contexts = [], [], []
    original_base = constructive.base_path
    original_branch = treesearch.covering_tree_with_branch_budget

    def counted_base(graph, subset, *args, **kwargs):
        bases.append(subset.mask)
        return original_base(graph, subset, *args, **kwargs)

    def counted_branch(graph, subset, budget, cap=DEFAULT_TREE_CAP):
        budgets.append(budget)
        return original_branch(graph, subset, budget, cap=cap)

    class RecordedContext(V.GraphContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    rebind_everywhere(monkeypatch, original_base, counted_base)
    rebind_everywhere(monkeypatch, original_branch, counted_branch)
    monkeypatch.setattr(V, "GraphContext", RecordedContext)
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    verdicts = _graph_verdicts(star, list(range(1, 32)), (2, 3, 4))
    assert len(verdicts) == 31 * 3 * 3 + 1
    assert sorted(bases) == [m for m in range(1, 32) if m.bit_count() >= 2]
    assert budgets and 0 not in budgets
    (ctx,) = contexts
    attachments = 0
    for smask in range(1, 32):
        assert ctx.branch_tree(smask, 0) is ctx.cover_tree(smask, 2)
        for k in (3, 4):
            before, after = ctx.construct(smask, k - 1).trace, ctx.construct(smask, k).trace
            assert after[:len(before)] == before
            attachments += len(after) - len(before)
    assert attachments > 0


def test_off_by_one_local_connectivity_aborts_the_sweep(monkeypatch):
    original = invariants.local_connectivity
    rebind_everywhere(monkeypatch, original, lambda graph, x, y: original(graph, x, y) + 1)
    with pytest.raises((InternalInvariantError, CounterexampleError)):
        run_sweep(SweepPlan(mode="exhaustive", n=4))


def test_all_subsets_sweep_builds_the_path_table_once(monkeypatch):
    original = graphs._path_planes
    builds = []

    def counted(rows):
        builds.append(rows)
        return original(rows)

    rebind_everywhere(monkeypatch, original, counted)
    graph = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
    verdicts = _graph_verdicts(graph, list(range(1, 32)), (2, 3, 4))
    assert len(verdicts) == 31 * 3 * 3 + 1
    assert builds == [graph.rows]


def test_faulty_path_table_is_caught_by_the_backtracking_check(monkeypatch):
    # a table that loses the Hamiltonian entry disagrees with the independent search
    original = graphs._path_planes

    def without_full_entry(rows):
        ends, spans = original(rows)
        keep = ~(1 << (1 << len(rows)) - 1)    # every bit but that of the full mask
        return tuple(p & keep for p in ends), spans & keep

    rebind_everywhere(monkeypatch, original, without_full_entry)
    graph = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
    with pytest.raises(InternalInvariantError, match="backtracking Hamiltonian search disagrees"):
        _graph_verdicts(graph, [], (2,))
    with pytest.raises(InternalInvariantError):
        _graph_verdicts(graph, list(range(1, 32)), (2, 3, 4))


def counted_levels(monkeypatch):
    """Patch the minimum-leaf level builder to record (rows, level) per build."""
    original = graphs._min_leaf_level
    builds = []

    def counted(rows, levels):
        builds.append((rows, len(levels) + 2))
        return original(rows, levels)

    rebind_everywhere(monkeypatch, original, counted)
    return builds


def test_min_leaf_table_is_built_once_and_only_past_the_covering_path(monkeypatch):
    builds = counted_levels(monkeypatch)
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    _graph_verdicts(c5, list(range(1, 32)), (2, 3, 4))
    assert builds == []    # every subset of C5 has a covering path
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    _graph_verdicts(star, list(range(1, 32)), (2, 3, 4))
    # level 3 once: the S holding all 4 leaves of the star have the alpha
    # bound 2 * 4 - 5 + 1 = 4, which answers k = 3 and hands k = 4 to the
    # growth search, so no query reads level 4
    assert builds == [(star.rows, 3)]


def test_min_leaf_levels_grow_only_as_far_as_a_query_reads(monkeypatch):
    # a tree covering K_{3,7} keeps at least 5 of the 7 vertices of the large
    # part as leaves, the alpha bound 2 * 7 - 10 + 1: the bound answers k = 3
    # and 4 and the growth search k = 5, so the sweep builds no level, and an
    # explicit read of S = V reads no level past 5
    builds = counted_levels(monkeypatch)
    k37 = Graph.from_edges(10, [(a, b) for a in range(3) for b in range(3, 10)])
    verdicts = _graph_verdicts(k37, [k37.full_mask], (2, 3, 4, 5, 6))
    assert [v.conclusion_holds for v in verdicts if v.claim == "kended-cover"] == [False, False, False, True, True]
    assert builds == []
    assert k37.min_leaves(k37.full_mask) == 5
    assert builds == [(k37.rows, 3), (k37.rows, 4), (k37.rows, 5)]


def test_bipartite_3_7_sweeps_build_no_level_where_the_alpha_bound_is_the_minimum(monkeypatch):
    # alpha(V) >= 7 bounds every covering tree below by 5 leaves, so where the
    # minimum is 5 the bound and the growth search answer every leaf budget
    builds = counted_levels(monkeypatch)
    rng = random.Random(3710)
    for _ in range(50):
        graph = bipartite_3_7(rng)
        _graph_verdicts(graph, [graph.full_mask], (2, 3, 4, 5, 6))
        assert builds == [], emit_graph6(graph)
        assert graph.min_leaves(graph.full_mask) == 5
        builds.clear()


def a_level_too_many(grow, rows, levels):
    """Level 3 repeats the path sets, so every minimum from 3 up reads one higher."""
    return levels[-1] if len(levels) == 1 else grow(rows, levels)


def level_3_in_the_path_level(grow, rows, levels):
    """Level 3 joins the path sets, so every minimum from 3 up reads one lower
    (floored at 2)."""
    if len(levels) == 1:
        levels[0] |= grow(rows, levels)
    return grow(rows, levels)


# each fault moves every minimum from 3 leaves up by one leaf count, at the level builder
TABLE_FAULTS = {"one-too-high": a_level_too_many, "one-too-low": level_3_in_the_path_level}

REPRODUCTION = re.compile(r"claim '([a-z-]+)' on graph (\S+) with S=\[([0-9, ]*)\], k=(\d+)\)?$")


@pytest.mark.parametrize("fault", sorted(TABLE_FAULTS))
def test_faulty_min_leaf_table_aborts_the_sweep(monkeypatch, fault):
    original = graphs._min_leaf_level
    faulty = TABLE_FAULTS[fault]
    rebind_everywhere(monkeypatch, original, lambda rows, levels: faulty(original, rows, levels))
    with pytest.raises((InternalInvariantError, CounterexampleError)) as err:
        run_sweep(SweepPlan(mode="exhaustive", n=5))
    match = REPRODUCTION.search(str(err.value))
    assert match, str(err.value)
    claim, graph6, subset, k = match.groups()
    assert claim in ("kended-cover", "branch-cover", "residual-bound", "hamiltonian-path")
    graph = parse_graph6(graph6)
    smask = sum(1 << int(v) for v in subset.split(", "))
    # the named instance reproduces the abort on its own, and the minimum search trips too
    with pytest.raises((InternalInvariantError, CounterexampleError)):
        for verdict in _graph_verdicts(graph, [smask], (int(k),)):
            if verdict.is_counterexample:
                raise CounterexampleError(verdict)
    with pytest.raises(InternalInvariantError, match="minimum-leaf table"):
        minimum_leaf_covering_tree(graph, VertexSet(graph.n, smask))


@pytest.mark.parametrize("workers", [1, 2])
def test_internal_failure_carries_reproduction_data(monkeypatch, workers):
    # a construction that never reports a covering; pool workers inherit the
    # patch because the pool forks after it is applied
    import kended.verify as V

    original = V.construct_k_ended_tree
    monkeypatch.setattr(
        V, "construct_k_ended_tree",
        lambda *args, **kwargs: replace(original(*args, **kwargs), kind=RESIDUAL_BOUND),
    )
    with time_limit(60), pytest.raises(InternalInvariantError) as err:
        list(sweep_verdicts(SweepPlan(mode="exhaustive", n=2, workers=workers)))
    message = str(err.value)
    assert message == (
        "construction must cover when the hypothesis holds "
        f"(claim 'kended-cover' on graph {emit_graph6(Graph(1, [0]))} with S=[0], k=2)"
    )
    assert str(pickle.loads(pickle.dumps(err.value))) == message


def test_sweep_report_json_shape():
    report = run_sweep(SweepPlan(mode="exhaustive", n=2))
    payload = sweep_report_to_json(report, include_timing=True)
    assert payload["zero_counterexamples"] is True
    assert set(payload["claims"]) == {
        "branch-cover", "hamiltonian-path", "kended-cover", "residual-bound",
    }
    assert set(payload["worst_case"]) == {"elapsed_seconds", "graph_id"}
    stable = sweep_report_to_json(report, include_timing=False)
    assert "worst_case" not in stable
    empty = run_sweep(SweepPlan(mode="random", n=4, p=0.0, count=3, s_policy="s=v"))
    assert empty.graphs_evaluated == 0
    assert sweep_report_to_json(empty, include_timing=True)["worst_case"] is None


def test_worst_case_names_the_slowest_graph(monkeypatch):
    # the planes a graph's verdicts share are charged to the graph, not to
    # the claim that first asks for them
    slow = Graph.from_edges(3, [(0, 1), (1, 2)])
    build = graphs._path_planes

    def slow_planes(rows):
        if rows == slow.rows:
            time.sleep(0.2)
        return build(rows)

    monkeypatch.setattr(graphs, "_path_planes", slow_planes)
    worst = run_sweep(SweepPlan(mode="exhaustive", n=3)).worst
    assert worst.graph_id == emit_graph6(slow)
    assert worst.elapsed >= 0.2
