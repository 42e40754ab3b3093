"""Constructive pipeline: base path, maximal attachment paths, augmentation.

Starting from a base path that either covers S or pushes the independence
number of the uncovered part below alpha - kappa - 1, the loop repeatedly
attaches a maximum-length path that starts inside the union of all maximum
independent subsets of the uncovered part and meets the tree only at its
terminal vertex. Each attachment raises the leaf budget by at most one and
lowers the residual independence number by at least one, so the loop ends
with either a covering tree with at most k leaves or a k-ended tree whose
residual is at most alpha - kappa - k + 1. Nothing before the loop's
stop depends on k, so a run can resume from the outcome for a smaller k;
only the sweep's `GraphContext` does, and it hands a covering at k - 1 on to
k itself. alpha, kappa and every residual alpha come from the graph's own
memo (invariants.subset_alpha and subset_kappa), shared with every other
caller. Every path here is the tuple of its vertices in order, the only
thing the construction keeps of it; the outcome's trace holds the base path
and each attached path. The base path reads the first path on each path set
of a size, with its mask, from the graph's memo (`Graph.first_paths`),
longest sets first, so all subsets of a graph share one walk per path set;
only `graphs` reads the path planes behind it. Its tree is the graph's
memoized tree of its path set (`Graph.path_tree`), the covering search's
object where the sets agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError
from .graphs import Graph, Tree, VertexSet, iter_bits, mask_of
from .invariants import maximum_independent_masks, subset_alpha, subset_kappa
from .treesearch import DEFAULT_TREE_CAP, _check_cap

COVERING = "covering"
RESIDUAL_BOUND = "residual-bound"


@dataclass
class ConstructionOutcome:
    """Result of the construction: a covering tree, or a k-ended tree with a residual bound.

    `bound` is alpha - kappa - k + 1, or None when kappa is infinite (|S| <= 1),
    in which case the outcome is always a trivial covering. The trace replays
    the construction as vertex tuples: base path first, then each attached
    path, oriented from its start to its tree endpoint.

    Immutable by convention, like `Tree` and `Graph`: the sweep's caches hand
    one outcome to several claims, and its tree and trace to the outcomes of
    the next k, as a covering or as a resumed start. It is not frozen because
    a frozen dataclass sets each field through object.__setattr__, a cost every
    construction paid.
    """

    kind: str    # COVERING or RESIDUAL_BOUND
    tree: Tree
    residual_alpha: int
    bound: int | None
    trace: tuple[tuple[int, ...], ...]


def base_path(graph: Graph, subset: VertexSet) -> tuple[int, ...]:
    """The vertex tuple of a path covering S, or of one whose uncovered part
    has alpha <= alpha - kappa - 1.

    The longest such path, first in lexicographic order. Qualifying depends
    only on the vertex set, so only the first path on each path set is
    tried, as `Graph.first_paths` yields them, longest sets first: if it
    fails, no other path on its set qualifies either. The reverse of a path
    is a path on the same set, so the first path reads with first < last
    vertex. It covers S iff `smask & ~pmask == 0`, with pmask the mask the
    memo keeps beside it, so no candidate is masked again. One path always
    qualifies for a connected graph and nonempty S, so exhaustion is an
    internal invariant failure.
    Graphs above DEFAULT_TREE_CAP vertices raise CapExceededError.
    """
    smask = graph.subset_mask(subset)
    _check_cap(graph.n, DEFAULT_TREE_CAP)
    if smask == 0:
        raise ValueError("base path needs a nonempty subset")
    if not graph.is_connected():
        raise ValueError("base path needs a connected graph")
    if smask & (smask - 1) == 0:
        return (smask.bit_length() - 1,)
    kappa = subset_kappa(graph, smask)[0]
    assert not kappa.is_infinite
    bound = subset_alpha(graph, smask) - kappa.finite - 1
    for length in range(graph.n, 0, -1):
        for seq, pmask in graph.first_paths(length):
            remainder = smask & ~pmask
            if remainder == 0 or (bound >= 0 and subset_alpha(graph, remainder) <= bound):
                return seq
    raise InternalInvariantError("path search exhausted; this contradicts the base-path guarantee")


def maximal_attachment_path(graph: Graph, tree: Tree, subset: VertexSet) -> tuple[int, ...]:
    """The vertex tuple of a maximum-length path from the union of maximum
    independent subsets of the uncovered part to the tree, internally
    disjoint from the tree.

    Ties are broken lexicographically on vertex sequences. The returned path
    is oriented from its start s0 = path[0] (in the union) to its tree
    endpoint path[-1]. The postcondition that the path meets every maximum
    independent subset of S - V(tree) is asserted; a failure is a bug
    detector, not an input error.
    Graphs above DEFAULT_TREE_CAP vertices raise CapExceededError.
    """
    smask = graph.subset_mask(subset)
    _check_cap(graph.n, DEFAULT_TREE_CAP)
    if tree.host_n != graph.n:
        raise ValueError("tree belongs to a different host graph")
    tmask = tree.vertex_mask
    remainder = smask & ~tmask
    if remainder == 0:
        raise ValueError("subset already covered; nothing to attach")
    if not graph.is_connected():
        raise ValueError("attachment needs a connected graph")
    subsets = maximum_independent_masks(graph, remainder)
    union = 0
    for m in subsets:
        union |= m
    rows = graph.rows
    best: tuple[int, ...] | None = None

    def consider(seq: tuple[int, ...]) -> None:
        nonlocal best
        if best is None or len(seq) > len(best) or (len(seq) == len(best) and seq < best):
            best = seq

    def rec(prefix: tuple[int, ...], visited: int) -> None:
        v = prefix[-1]
        finish = rows[v] & tmask
        while finish:
            low = finish & -finish
            finish ^= low
            consider(prefix + (low.bit_length() - 1,))
        cand = rows[v] & ~tmask & ~visited
        while cand:
            low = cand & -cand
            cand ^= low
            rec(prefix + (low.bit_length() - 1,), visited | low)

    try:
        for s in iter_bits(union):
            rec((s,), 1 << s)
    finally:
        del rec    # a nested search that names itself is a cycle only the collector frees
    if best is None:
        raise InternalInvariantError("no attachment path found in a connected graph")
    pmask = mask_of(best)
    for m in subsets:
        if pmask & m == 0:
            raise InternalInvariantError(
                "maximal attachment path misses a maximum independent subset of the remainder"
            )
    return best


def augment(tree: Tree, path: tuple[int, ...]) -> Tree:
    """Attach a path, as its vertex tuple, that meets the tree exactly at its
    terminal vertex. The result is a valid tree with at most one more leaf
    than before; a repeated vertex fails a step check of `Tree.grow`.
    """
    if len(path) < 2:
        raise ValueError("attachment path needs at least two vertices")
    tmask = tree.vertex_mask
    last = path[-1]
    if not (tmask >> last) & 1:
        raise ValueError("attachment path must end at a tree vertex")
    if mask_of(path) & tmask != 1 << last:
        raise ValueError("attachment path touches the tree before its end")
    merged = tree.grow(zip(path[::-1], path[-2::-1]))
    # a one-vertex tree has zero leaves but any proper extension has two
    if merged.leaf_count > max(2, tree.leaf_count + 1):
        raise InternalInvariantError("augmentation raised the leaf count by more than one")
    return merged


def construct_k_ended_tree(
    graph: Graph,
    subset: VertexSet,
    k: int,
    start: ConstructionOutcome | None = None,
) -> ConstructionOutcome:
    """Run the full construction for a budget of k leaves.

    `start` resumes from an outcome this function returned for the same graph
    and S at a smaller k: the base path and the attachments do not depend on
    k, so its tree, residual and trace are this run's prefix and the
    attachment loop goes on from there; a covering start has residual 0, so
    the loop adds nothing and its tree meets every check below at this k.
    |S| <= 1 gives the one-vertex covering, start or not. Every tree returned,
    that one included, is checked against the graph. When alpha <= k +
    kappa - 1 the outcome is always a covering (asserted); otherwise a
    residual-bound outcome satisfies residual <= alpha - kappa - k + 1
    (asserted). An attachment that `augment` refuses is a failed step, not bad
    input, so its ValueError is raised as InternalInvariantError.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    smask = graph.subset_mask(subset)
    _check_cap(graph.n, DEFAULT_TREE_CAP)
    if graph.n == 0:
        raise ValueError("construction needs a nonempty graph")
    if not graph.is_connected():
        raise ValueError("construction needs a connected graph")
    if smask.bit_count() <= 1:
        v = smask.bit_length() - 1 if smask else 0
        tree = Tree.single_vertex(graph.n, v)
        graph.check_tree(tree)
        return ConstructionOutcome(COVERING, tree, 0, None, ())
    alpha = subset_alpha(graph, smask)
    kappa = subset_kappa(graph, smask)[0]
    assert not kappa.is_infinite
    bound = alpha - kappa.finite - k + 1
    if start is None:
        path0 = base_path(graph, subset)
        tree = graph.path_tree(mask_of(path0), path0)
        residual_alpha = subset_alpha(graph, smask & ~tree.vertex_mask)
        trace = [path0]
        if residual_alpha > 0 and residual_alpha > alpha - kappa.finite - 1:
            raise InternalInvariantError("base path violates its residual guarantee")
    else:
        tree, residual_alpha, trace = start.tree, start.residual_alpha, list(start.trace)
    t = len(trace) + 1
    while residual_alpha > 0 and t < k:
        try:
            p0 = maximal_attachment_path(graph, tree, subset)
            tree = augment(tree, p0)
        except ValueError as exc:    # the input checks above leave no bad input here
            raise InternalInvariantError(str(exc)) from exc
        trace.append(p0)
        t += 1
        new_residual = subset_alpha(graph, smask & ~tree.vertex_mask)
        if new_residual > residual_alpha - 1:
            raise InternalInvariantError("augmentation failed to reduce the residual alpha")
        residual_alpha = new_residual
        if tree.leaf_count > t:
            raise InternalInvariantError("tree exceeded its leaf budget")
    graph.check_tree(tree)
    if residual_alpha == 0:
        if not tree.covers(subset):
            raise InternalInvariantError("zero residual but the subset is not covered")
        if tree.leaf_count > k:
            raise InternalInvariantError("covering tree exceeded the leaf budget")
        return ConstructionOutcome(COVERING, tree, 0, bound, tuple(trace))
    if residual_alpha > bound:
        raise InternalInvariantError(f"residual alpha {residual_alpha} exceeds the bound {bound}")
    if bound <= 0:
        raise InternalInvariantError("outcome must be covering when alpha <= k + kappa - 1")
    return ConstructionOutcome(RESIDUAL_BOUND, tree, residual_alpha, bound, tuple(trace))
