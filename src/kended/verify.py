"""Verification harness: per-instance claim checks, sharpness cells, sweeps.

Checked claims (ids used in verdicts and reports):
  kended-cover     if alpha_G(S) <= k + kappa_G(S) - 1 then some tree with at
                   most k leaves covers S
  branch-cover     same hypothesis, conclusion: a covering tree with at most
                   k - 2 branch vertices exists
  residual-bound   unconditional: either a k-ended covering tree exists or
                   the construction yields a k-ended tree whose uncovered
                   part has independence number <= alpha - kappa - k + 1
  hamiltonian-path if alpha(G) <= kappa(G) + 1 then a Hamiltonian path exists

All four are proved statements, so any counterexample verdict is promoted to
a hard CounterexampleError carrying full reproduction data: it means a bug in
this package, not new mathematics. One instance runs through the sweep's own
`_graph_task` (`verify_instance`), so it gets the same verdicts, the same
reproduction data on an internal error and the same promotion.

One judge, `_graph_verdicts`, checks each (S, k) of a graph: kended-cover
through `_verdict_cover`, which also cross-checks the construction, then
branch-cover from one branch-budget read and residual-bound from one
leaf-budget read, with the construction only where no tree covers. One
builder, `_verdict`, makes every TheoremVerdict. It reads S's tuple, alpha,
kappa and the least k the hypothesis admits once per S of a graph; the judge
brings each claim's witness, conclusion and detail, taken from the
GraphContext caches of the tree searches and constructions. The caches hand
one tree to several k and claims, so each tree is checked where it enters a
cache: a search's tree, when the search finds it, by `Graph.check_tree`
against the graph and by `_audit_cover_witness` to cover S within the
search's budget of leaves or branch vertices; and `construct_k_ended_tree`
checks each tree it returns. A tree that stands for the next budget, the
covering path that stands for branch budget 0, or a covering handed on to
the next k, is an entry already checked, within a budget as tight. The
verdicts only read. The Hamiltonian witness is the covering tree of V at
k = 2, and the backtracking path must be the first path on V; the sharpness
cells' trees are checked where they are built.

Verdicts are plain dataclasses, immutable by convention like `Tree` and
`Graph`; a frozen one sets each of its ten fields through object.__setattr__,
which every verdict paid. `_verdict` passes the ten fields positionally,
since binding them by keyword costs the generated __init__ more than the
record itself (0.84 against 0.32 us per record, CPython 3.11 on a 2-core
Xeon).

Time is measured once per graph, in `_graph_task`: the planes, memos and
constructions a graph's verdicts share are built by whichever claim asks
first, so a clock per verdict would charge that shared work to one claim.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, fields
from typing import Iterator

from .constructive import COVERING, ConstructionOutcome, construct_k_ended_tree
from .errors import CapExceededError, CounterexampleError, InternalInvariantError, PlanError
from .families import (
    DEFAULT_ENUM_CAP,
    GraphFamilySpec,
    enumerate_connected_labeled_graphs,
    make_family,
    random_gnp,
)
from .formats import emit_graph6, parse_graph6
from .graphs import Graph, Tree, VertexSet, iter_bits
from .invariants import ConnectivityValue, set_connectivity, subset_alpha, subset_kappa
from .treesearch import (
    DEFAULT_TREE_CAP,
    covering_tree_with_branch_budget,
    find_k_ended_covering_tree,
    hamiltonian_path_exists,
    min_branch_covering_tree,
    minimum_leaf_covering_tree,
)

CLAIMS = ("kended-cover", "branch-cover", "residual-bound", "hamiltonian-path")

S_POLICIES = ("all-subsets", "random-subsets", "s=v")
ALL_SUBSETS_MAX_N = 6


@dataclass
class TheoremVerdict:
    """Outcome of one claim check on one instance; immutable by convention.

    hypothesis_holds always records alpha <= k + kappa - 1 (true for infinite
    kappa); for the unconditional residual-bound claim a counterexample is any
    false conclusion, for the others it is hypothesis true with conclusion
    false.
    """

    claim: str
    graph_id: str
    subset: tuple[int, ...]
    k: int
    alpha: int
    kappa: ConnectivityValue
    hypothesis_holds: bool
    conclusion_holds: bool
    witness: Tree | None
    detail: dict | None = None

    @property
    def is_counterexample(self) -> bool:
        if self.claim == "residual-bound":
            return not self.conclusion_holds
        return self.hypothesis_holds and not self.conclusion_holds


@dataclass(frozen=True)
class SharpnessVerdict:
    """Exact invariants of one complete-bipartite cell (parts m and m+k, S = larger part)."""

    m: int
    k: int
    alpha: int
    kappa: int
    min_leaves: int
    min_branch: int

    @property
    def expected(self) -> dict[str, int]:
        """The values SHARPNESS_NOTE states for this cell, keyed by field name."""
        return {"alpha": self.m + self.k, "kappa": self.m, "min_leaves": self.k + 1, "min_branch": self.k - 1}

    @property
    def matches_expected(self) -> bool:
        return all(getattr(self, name) == value for name, value in self.expected.items())


SHARPNESS_NOTE = (
    "min_leaves and min_branch are exact minima over all covering trees, "
    "computed by exhaustive search; expected values are alpha = m+k, "
    "kappa = m, min_leaves = k+1, min_branch = k-1"
)


_MISSING = object()    # a cache entry not yet made; None is a search's "no tree"


class GraphContext:
    """Per-graph caches of the tree searches and constructions, shared across
    subsets, budgets and claims.

    Everything cached here is a pure function of the graph, so contexts can be
    used by one worker without coordination. Each tree a search finds is
    checked against the graph and audited within its budget as it is stored,
    so a read needs neither. alpha and kappa delegate to the graph's own memo
    (invariants.subset_alpha and subset_kappa), which the construction reads
    too. construct hands a covering at k - 1 on to k,
    with its tree and trace and a bound one lower: the tree's leaves were
    checked against k - 1. Any other k resumes the construction from the
    outcome at k - 1, and only this class resumes one.
    `_facts` holds, per S, its tuple, alpha, kappa and the least k for which
    alpha <= k + kappa - 1: alpha - kappa + 1, or 0 when kappa is infinite.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.graph_id = emit_graph6(graph)
        self._cover: dict[tuple[int, int], Tree | None] = {}
        self._branch: dict[tuple[int, int], Tree | None] = {}
        self._construct: dict[tuple[int, int], ConstructionOutcome] = {}
        self._facts: dict[int, tuple[tuple[int, ...], int, ConnectivityValue, int]] = {}

    def alpha(self, smask: int) -> int:
        return subset_alpha(self.graph, smask)

    def kappa(self, smask: int) -> ConnectivityValue:
        return subset_kappa(self.graph, smask)[0]

    def cover_tree(self, smask: int, k: int) -> Tree | None:
        return self._budgeted(self._cover, find_k_ended_covering_tree, smask, k, True)

    def branch_tree(self, smask: int, budget: int) -> Tree | None:
        if budget == 0 and (smask, 0) not in self._branch:
            # no branch vertex means a covering path, the leaf-budget-2 answer,
            # audited within 2 leaves and so within 0 branch vertices
            self._branch[(smask, 0)] = self.cover_tree(smask, 2)
        return self._budgeted(self._branch, covering_tree_with_branch_budget, smask, budget, False)

    def _budgeted(self, cache: dict, search, smask: int, budget: int, leaves: bool) -> Tree | None:
        """search's tree at this budget of leaves (or of branch vertices), checked
        against the graph and audited to cover S within the budget when the search
        finds it; a tree found at budget - 1 stands, audited within that tighter
        budget when it was stored."""
        tree = cache.get((smask, budget), _MISSING)
        if tree is _MISSING:
            tree = cache.get((smask, budget - 1))
            if tree is None and (tree := search(self.graph, VertexSet(self.graph.n, smask), budget)):
                self.graph.check_tree(tree)
                _audit_cover_witness(tree, smask, *((budget, None) if leaves else (None, budget)))
            cache[(smask, budget)] = tree
        return tree

    def construct(self, smask: int, k: int) -> ConstructionOutcome:
        key = (smask, k)
        if key not in self._construct:
            start = self._construct.get((smask, k - 1))
            if start is not None and start.kind == COVERING:
                # a tree that covers S with at most k - 1 leaves is this k's covering
                bound = None if start.bound is None else start.bound - 1
                self._construct[key] = ConstructionOutcome(COVERING, start.tree, 0, bound, start.trace)
            else:
                # construct_k_ended_tree checks every tree it returns
                self._construct[key] = construct_k_ended_tree(self.graph, VertexSet(self.graph.n, smask), k,
                                                              start=start)
        return self._construct[key]

    def _subset_facts(self, smask: int) -> tuple[tuple[int, ...], int, ConnectivityValue, int]:
        alpha, kappa = self.alpha(smask), self.kappa(smask)
        least_k = 0 if kappa.is_infinite else alpha - kappa.finite + 1
        # via a list: a tuple of a generator shrinks from a guessed size, a count the collector never gets back
        return self._facts.setdefault(smask, (tuple([*iter_bits(smask)]), alpha, kappa, least_k))


def _audit_cover_witness(tree: Tree, smask: int, leaf_budget: int | None, branch_budget: int | None) -> None:
    if smask & ~tree.vertex_mask:
        raise InternalInvariantError("witness tree does not cover the subset")
    if leaf_budget is not None and tree.leaf_count > leaf_budget:
        raise InternalInvariantError("witness tree exceeds the leaf budget")
    if branch_budget is not None and tree.branch_count > branch_budget:
        raise InternalInvariantError("witness tree exceeds the branch budget")
    if len(tree.vertices) >= 2 and tree.branch_count > tree.leaf_count - 2:
        raise InternalInvariantError("witness tree violates leaves >= branch vertices + 2")


def _verdict(ctx: GraphContext, claim: str, smask: int, k: int, witness: Tree | None,
             conclusion: bool, detail: dict | None = None) -> TheoremVerdict:
    """The verdict of one claim on (graph, S, k): S's tuple, alpha, kappa and the
    least k of the hypothesis are read once per S, from the graph's memo."""
    subset, alpha, kappa, least_k = ctx._facts.get(smask) or ctx._subset_facts(smask)
    return TheoremVerdict(claim, ctx.graph_id, subset, k, alpha, kappa, k >= least_k,
                          conclusion, witness, detail)


def _verdict_cover(ctx: GraphContext, smask: int, k: int) -> TheoremVerdict:
    witness = ctx.cover_tree(smask, k)
    outcome = ctx.construct(smask, k)
    constructive_covering = outcome.kind == COVERING
    verdict = _verdict(ctx, "kended-cover", smask, k, witness, witness is not None,
                       {"constructive_covering": constructive_covering})
    # the construction's bound alpha - kappa - k + 1 is <= 0 exactly when the hypothesis holds
    if verdict.hypothesis_holds != (outcome.bound is None or outcome.bound <= 0):
        raise InternalInvariantError("the hypothesis flag disagrees with the construction's bound")
    if verdict.hypothesis_holds and not constructive_covering:
        raise InternalInvariantError("construction must cover when the hypothesis holds")
    if constructive_covering and witness is None:
        raise InternalInvariantError("construction covered but the exhaustive oracle found nothing")
    return verdict


def _verdict_hamiltonian(ctx: GraphContext) -> TheoremVerdict:
    """S = V and k = 2, so the hypothesis reads alpha <= kappa + 1. The witness
    is the covering tree of V at k = 2, checked and audited to span V within 2
    leaves where it entered the cache.
    Backtracking tries starts and neighbours in ascending order, so its path
    is the lexicographically first Hamiltonian path, the first path that the
    planes give on V: the two routes must agree on the exact path."""
    graph = ctx.graph
    full = graph.full_mask
    ham = hamiltonian_path_exists(graph)
    witness = ctx.cover_tree(full, 2)
    first = None if witness is None else next(graph.first_paths(graph.n), (None,))[0]
    if ham != first:
        raise InternalInvariantError(
            "backtracking Hamiltonian search disagrees with the covering-path oracle: "
            f"backtracking found {ham}, the first path on V is {first}"
        )
    return _verdict(ctx, "hamiltonian-path", full, 2, witness, witness is not None)


def verify_instance(graph: Graph, subset: VertexSet, k: int) -> list[TheoremVerdict]:
    """The four verdicts of one instance (connected graph, k >= 2), in CLAIMS order,
    from the sweep's own graph task; aborts on a counterexample."""
    smask = graph.subset_mask(subset)
    if k < 2:
        raise ValueError("k must be at least 2")
    if graph.n == 0 or not graph.is_connected():
        raise ValueError("verification requires a nonempty connected graph")
    return _graph_task((graph, [smask], (k,)))[1]


def verify_sharpness(m: int, k: int) -> SharpnessVerdict:
    """Exact invariants of the complete-bipartite cell with parts m and m+k, S = larger part.

    An internal error names the cell: m, k and the graph6 of K_{m,m+k}."""
    if m < 1 or k < 1:
        raise ValueError("sharpness cells need m >= 1 and k >= 1")
    n = 2 * m + k
    if n > DEFAULT_TREE_CAP:
        raise CapExceededError(f"cell (m={m}, k={k}) needs n={n}, above the cap {DEFAULT_TREE_CAP}")
    graph, subset = make_family(GraphFamilySpec("complete-bipartite", (m, k)))
    assert subset is not None
    try:
        alpha = subset_alpha(graph, subset.mask)
        kappa = set_connectivity(graph, subset)
        assert not kappa.is_infinite
        min_leaves, leaf_tree = minimum_leaf_covering_tree(graph, subset)
        min_branch, branch_tree = min_branch_covering_tree(graph, subset)
        graph.check_tree(leaf_tree)
        graph.check_tree(branch_tree)
    except InternalInvariantError as exc:
        raise InternalInvariantError(f"{exc} (sharpness cell m={m}, k={k} on graph {emit_graph6(graph)})") from exc
    return SharpnessVerdict(m, k, alpha, kappa.finite, min_leaves, min_branch)


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepPlan:
    """One harness run: an instance source, a k-range, and a subset policy."""

    mode: str = "exhaustive"       # exhaustive | random | graph6
    n: int = 5
    p: float = 0.5
    count: int = 100
    seed: int = 0
    k_min: int = 2
    k_max: int = 4
    s_policy: str = "all-subsets"  # all-subsets | random-subsets | s=v
    s_count: int = 1
    path: str | None = None
    workers: int = 1


def validate_plan(plan: SweepPlan) -> None:
    if plan.mode not in ("exhaustive", "random", "graph6"):
        raise PlanError(f"unknown mode {plan.mode!r}")
    if plan.s_policy not in S_POLICIES:
        raise PlanError(f"unknown s_policy {plan.s_policy!r}; expected one of {S_POLICIES}")
    if plan.k_min < 2:
        raise PlanError("k_min must be at least 2")
    if plan.k_max < plan.k_min:
        raise PlanError("k_max must be >= k_min")
    if plan.mode == "exhaustive":
        if not 1 <= plan.n <= DEFAULT_ENUM_CAP:
            raise PlanError(f"exhaustive mode needs 1 <= n <= {DEFAULT_ENUM_CAP}")
    if plan.mode == "random":
        if plan.n < 1:
            raise PlanError("random mode needs n >= 1")
        if not 0.0 <= plan.p <= 1.0:
            raise PlanError("edge probability must lie in [0, 1]")
        if plan.count < 0:
            raise PlanError("count must be non-negative")
    if plan.mode == "graph6" and not plan.path:
        raise PlanError("graph6 mode needs path = <file>")
    if plan.s_policy == "random-subsets" and plan.s_count < 1:
        raise PlanError("s_count must be at least 1")
    if plan.s_policy == "all-subsets":
        if plan.mode == "random" and plan.n > ALL_SUBSETS_MAX_N:
            raise PlanError(f"all-subsets policy is restricted to n <= {ALL_SUBSETS_MAX_N}")
    if plan.workers < 1:
        raise PlanError("workers must be at least 1")


_PLAN_KEYS = {f.name: str if f.default is None else type(f.default) for f in fields(SweepPlan)}


def parse_sweep_plan(text: str) -> SweepPlan:
    """Parse a key = value plan file; '#' starts a comment."""
    values: dict = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PlanError(f"line {no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PLAN_KEYS:
            raise PlanError(f"line {no}: unknown key {key!r}")
        if key in values:
            raise PlanError(f"line {no}: duplicate key {key!r}")
        try:
            values[key] = _PLAN_KEYS[key](value)
        except ValueError as exc:
            raise PlanError(f"line {no}: bad value for {key!r}: {value!r}") from exc
    plan = SweepPlan(**values)
    validate_plan(plan)
    return plan


def _subset_masks(plan: SweepPlan, n: int, rng: random.Random) -> list[int]:
    full = (1 << n) - 1
    if plan.s_policy == "all-subsets":
        if n > ALL_SUBSETS_MAX_N:
            raise PlanError(f"all-subsets policy is restricted to n <= {ALL_SUBSETS_MAX_N}")
        return list(range(1, full + 1))
    if plan.s_policy == "s=v":
        return [full]
    return [rng.randrange(1, full + 1) for _ in range(plan.s_count)]


def _plan_instances(plan: SweepPlan) -> Iterator[tuple[Graph | None, list[int]]]:
    """Yield (graph, subset masks) per instance; (None, []) marks a skipped one.

    Subsets are drawn here, in the parent process, so the stream is identical
    regardless of worker count.
    """
    rng = random.Random(plan.seed)
    if plan.mode == "exhaustive":
        for n in range(1, plan.n + 1):
            for graph in enumerate_connected_labeled_graphs(n):
                yield graph, _subset_masks(plan, n, rng)
    elif plan.mode == "random":
        for _ in range(plan.count):
            graph = random_gnp(plan.n, plan.p, rng)
            if not graph.is_connected() or graph.n == 0:
                yield None, []
                continue
            yield graph, _subset_masks(plan, plan.n, rng)
    else:
        assert plan.path is not None
        with open(plan.path, "r", encoding="ascii") as handle:
            records = [line.strip() for line in handle if line.strip()]
        for record in records:
            graph = parse_graph6(record)
            if graph.n == 0 or not graph.is_connected():
                yield None, []
                continue
            yield graph, _subset_masks(plan, graph.n, rng)


def _graph_verdicts(graph: Graph, subset_masks: list[int],
                    ks: tuple[int, ...]) -> list[TheoremVerdict]:
    """Every verdict of one graph, in CLAIMS order per (S, k) and the Hamiltonian
    claim last; an internal failure is re-raised as a plain-message
    InternalInvariantError naming the claim, graph6, S and k that reproduce it."""
    ctx = GraphContext(graph)
    verdicts = []
    append = verdicts.append
    try:
        for smask in subset_masks:
            for k in ks:
                claim = "kended-cover"
                append(_verdict_cover(ctx, smask, k))
                claim = "branch-cover"
                witness = ctx.branch_tree(smask, k - 2)
                append(_verdict(ctx, claim, smask, k, witness, witness is not None))
                claim = "residual-bound"
                witness = ctx.cover_tree(smask, k)
                if witness is not None:
                    append(_verdict(ctx, claim, smask, k, witness, True, {"covering": True}))
                    continue
                # the kended-cover check just before refused a covering construction here
                tree = ctx.construct(smask, k).tree
                kappa = ctx.kappa(smask)
                assert not kappa.is_infinite    # infinite kappa always yields a covering
                bound = ctx.alpha(smask) - kappa.finite - k + 1
                residual = ctx.alpha(smask & ~tree.vertex_mask)
                append(_verdict(ctx, claim, smask, k, tree, residual <= bound and tree.leaf_count <= k,
                                {"covering": False, "residual_alpha": residual, "bound": bound}))
        claim, smask, k = "hamiltonian-path", graph.full_mask, 2
        append(_verdict_hamiltonian(ctx))
    except InternalInvariantError as exc:
        raise InternalInvariantError(
            f"{exc} (claim {claim!r} on graph {ctx.graph_id} with S={list(iter_bits(smask))}, k={k})"
        ) from exc
    return verdicts


def _graph_task(args: tuple[Graph | None, list[int], tuple[int, ...]]
                ) -> tuple[float, list[TheoremVerdict]] | None:
    """(seconds, every verdict) of one instance, or None for a skipped one; aborts
    on a counterexample."""
    graph, subset_masks, ks = args
    if graph is None:
        return None
    start = time.perf_counter()
    verdicts = _graph_verdicts(graph, subset_masks, ks)
    seconds = time.perf_counter() - start
    for verdict in verdicts:
        if verdict.is_counterexample:
            raise CounterexampleError(verdict)
    return seconds, verdicts


def _graph_results(plan: SweepPlan) -> Iterator[tuple[float, list[TheoremVerdict]] | None]:
    """_graph_task over the plan's instances in order: the builtin map for
    workers = 1, a process pool otherwise. The pool's modules load only for
    workers > 1."""
    validate_plan(plan)
    ks = tuple(range(plan.k_min, plan.k_max + 1))
    tasks = ((graph, masks, ks) for graph, masks in _plan_instances(plan))
    if plan.workers == 1:
        yield from map(_graph_task, tasks)
        return
    # imported here, not at module level: the pool loads multiprocessing,
    # pickle, socket, logging and 32 more modules past kended's own (about
    # 2 MB on CPython 3.11), which every serial sweep and CLI call would pay for
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=plan.workers) as pool:
        yield from pool.map(_graph_task, tasks, chunksize=4)


def sweep_verdicts(plan: SweepPlan) -> Iterator[TheoremVerdict]:
    """Deterministic stream of verdicts for a plan; aborts on any counterexample."""
    for result in _graph_results(plan):
        if result is not None:
            yield from result[1]
            del result    # so this graph's verdicts do not live on, counted toward a collection, while the next runs


@dataclass
class ClaimTally:
    instances: int = 0
    hypothesis_true: int = 0
    conclusion_true: int = 0


@dataclass
class WorstCase:
    """The slowest graph of a sweep: the seconds of all its verdicts together."""

    elapsed: float
    graph_id: str


@dataclass
class SweepReport:
    plan: SweepPlan
    graphs_evaluated: int = 0
    skipped_disconnected: int = 0
    claims: dict[str, ClaimTally] = field(default_factory=dict)
    worst: WorstCase | None = None

    @property
    def total_instances(self) -> int:
        return sum(t.instances for t in self.claims.values())


def run_sweep(plan: SweepPlan) -> SweepReport:
    """Run a plan to completion and aggregate; raises CounterexampleError on failure."""
    report = SweepReport(plan=plan)
    for claim in CLAIMS:
        report.claims[claim] = ClaimTally()
    for result in _graph_results(plan):
        if result is None:
            report.skipped_disconnected += 1
            continue
        seconds, verdicts = result
        report.graphs_evaluated += 1
        for verdict in verdicts:
            tally = report.claims[verdict.claim]
            tally.instances += 1
            tally.hypothesis_true += verdict.hypothesis_holds
            tally.conclusion_true += verdict.conclusion_holds
        if report.worst is None or seconds > report.worst.elapsed:
            report.worst = WorstCase(seconds, verdicts[0].graph_id)
    return report
