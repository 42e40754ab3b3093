"""Exact covering-tree oracles: k-ended existence, minimum leaves, minimum
branch vertices, and Hamiltonian path search.

The existence searches grow trees one frontier edge at a time and memoize on
a state that fully determines future options: (vertex mask, leaf mask) for
the leaf-budget search, (vertex mask, degree-1 mask, degree-2 mask) for the
branch-budget search. Both budgets are monotone along growth, so pruning a
state over budget is sound, and any covering tree can be pruned down to one
whose every leaf lies in S without raising either budget, so the searches
restrict acceptance to such trees without losing completeness.

The two existence searches share one front end (trivial answers, the
coverability check, the covering path). The covering path comes from the
graph's Held-Karp path planes by vertex mask (`Graph.covering_path`; only
`graphs` reads a plane); hamiltonian_path_exists is an independent
backtracking search, so the two routes are cross-checked. Leaf budgets read
the graph's minimum-leaf planes (`Graph.min_leaves`), which answer "no"
without a search and are cross-checked by each growth search. Both tables are
built once per graph and shared by every subset and budget.
"""

from __future__ import annotations

from typing import Callable

from .errors import CapExceededError, InternalInvariantError
from .graphs import Graph, Path, Tree, VertexSet

DEFAULT_TREE_CAP = 10


def _check_cap(graph: Graph, cap: int) -> None:
    if graph.n > cap:
        raise CapExceededError(f"instance has n={graph.n}, above the cap {cap}")


def _grow_tree_leaf_budget(graph: Graph, smask: int, k: int, r0: int) -> list[tuple[int, int]] | None:
    """Edges of a tree containing r0 that covers smask with at most k leaves, all in S,
    or None when the minimum-leaf planes give more than k; the search must find one otherwise."""
    minimum = graph.min_leaves(smask)
    if minimum > k:
        return None
    n = graph.n
    rows = graph.rows
    seen: set[int] = set()
    edges: list[tuple[int, int]] = []

    def rec(mask: int, leaf: int) -> bool:
        if smask & ~mask == 0 and leaf & ~smask == 0:
            return True
        key = (mask << n) | leaf
        if key in seen:
            return False
        seen.add(key)
        single = mask & (mask - 1) == 0
        m = mask
        while m:
            lw = m & -m
            w = lw.bit_length() - 1
            m ^= lw
            cand = rows[w] & ~mask
            while cand:
                lu = cand & -cand
                u = lu.bit_length() - 1
                cand ^= lu
                if single:
                    new_leaf = mask | lu
                else:
                    new_leaf = (leaf & ~lw) | lu
                if new_leaf.bit_count() > k:
                    continue
                new_mask = mask | lu
                # a non-S leaf with no free neighbor can never stop being a leaf
                dead = False
                t = new_leaf & ~smask
                while t:
                    lv = t & -t
                    if rows[lv.bit_length() - 1] & ~new_mask == 0:
                        dead = True
                        break
                    t ^= lv
                if dead:
                    continue
                edges.append((w, u))
                if rec(new_mask, new_leaf):
                    return True
                edges.pop()
        return False

    if rec(1 << r0, 0):
        return list(edges)
    raise InternalInvariantError(
        f"the minimum-leaf table gives {minimum} leaves but the growth search found no tree with at most {k}"
    )


def _grow_tree_branch_budget(graph: Graph, smask: int, budget: int, r0: int) -> list[tuple[int, int]] | None:
    """Edges of a tree containing r0 covering smask with at most `budget` branch vertices."""
    n = graph.n
    rows = graph.rows
    seen: set[int] = set()
    edges: list[tuple[int, int]] = []

    def rec(mask: int, deg1: int, deg2: int, branch_count: int) -> bool:
        if smask & ~mask == 0 and deg1 & ~smask == 0 and mask & (mask - 1):
            return True
        key = ((mask << n) | deg1) << n | deg2
        if key in seen:
            return False
        seen.add(key)
        single = mask & (mask - 1) == 0
        m = mask
        while m:
            lw = m & -m
            w = lw.bit_length() - 1
            m ^= lw
            cand = rows[w] & ~mask
            while cand:
                lu = cand & -cand
                u = lu.bit_length() - 1
                cand ^= lu
                if single:
                    new_d1, new_d2, new_bc = mask | lu, 0, 0
                elif deg1 & lw:
                    new_d1, new_d2, new_bc = (deg1 & ~lw) | lu, deg2 | lw, branch_count
                elif deg2 & lw:
                    if branch_count + 1 > budget:
                        continue
                    new_d1, new_d2, new_bc = deg1 | lu, deg2 & ~lw, branch_count + 1
                else:
                    new_d1, new_d2, new_bc = deg1 | lu, deg2, branch_count
                new_mask = mask | lu
                dead = False
                t = new_d1 & ~smask
                while t:
                    lv = t & -t
                    if rows[lv.bit_length() - 1] & ~new_mask == 0:
                        dead = True
                        break
                    t ^= lv
                if dead:
                    continue
                edges.append((w, u))
                if rec(new_mask, new_d1, new_d2, new_bc):
                    return True
                edges.pop()
        return False

    if rec(1 << r0, 1 << r0, 0, 0):
        return list(edges)
    return None


def _coverable(graph: Graph, smask: int) -> bool:
    r0 = (smask & -smask).bit_length() - 1
    return graph.component_mask(r0) & smask == smask


def _covering_tree(graph: Graph, subset: VertexSet, cap: int, grow: Callable | None,
                   budget: int) -> Tree | None:
    """The body of both existence searches: trivial and path answers first, then
    grow(graph, smask, budget, r0), unless grow is None (the budget only allows
    a path)."""
    _check_cap(graph, cap)
    smask = graph.subset_mask(subset)
    if graph.n == 0:
        return None
    if smask & (smask - 1) == 0:
        return Tree.single_vertex(graph.n, max(smask.bit_length() - 1, 0))
    if not _coverable(graph, smask):
        return None
    seq = graph.covering_path(smask)
    if seq is not None:
        return Tree.from_path(graph.n, seq)
    if grow is None:
        return None
    r0 = (smask & -smask).bit_length() - 1
    edges = grow(graph, smask, budget, r0)
    if edges is None:
        return None
    return Tree(graph.n, [r0] + [v for edge in edges for v in edge], edges)


def find_k_ended_covering_tree(
    graph: Graph, subset: VertexSet, k: int, cap: int = DEFAULT_TREE_CAP
) -> Tree | None:
    """Some tree with at most k leaves whose vertices cover S, or None.

    The tree need not be spanning. Exhaustive and exact up to the cap.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    return _covering_tree(graph, subset, cap, _grow_tree_leaf_budget if k > 2 else None, k)


def covering_tree_with_branch_budget(
    graph: Graph, subset: VertexSet, budget: int, cap: int = DEFAULT_TREE_CAP
) -> Tree | None:
    """Some covering tree with at most `budget` branch vertices, or None."""
    if budget < 0:
        raise ValueError("branch budget must be non-negative")
    return _covering_tree(graph, subset, cap, _grow_tree_branch_budget if budget > 0 else None, budget)


def _coverable_subset_mask(graph: Graph, subset: VertexSet, cap: int) -> int:
    _check_cap(graph, cap)
    smask = graph.subset_mask(subset)
    if smask == 0:
        raise ValueError("minimum over covering trees needs a nonempty subset")
    if not _coverable(graph, smask):
        raise ValueError("subset spans more than one component; no covering tree exists")
    return smask


def minimum_leaf_covering_tree(
    graph: Graph, subset: VertexSet, cap: int = DEFAULT_TREE_CAP
) -> tuple[int, Tree]:
    """Exact minimum of the leaf count over covering trees, with a witness.

    The minimum comes from the graph's minimum-leaf table, and the witness is
    the one find_k_ended_covering_tree returns at that budget. A one-vertex
    subset yields (0, one-vertex tree).
    """
    smask = _coverable_subset_mask(graph, subset, cap)
    if smask & (smask - 1) == 0:
        return 0, Tree.single_vertex(graph.n, smask.bit_length() - 1)
    k = graph.min_leaves(smask)
    tree = find_k_ended_covering_tree(graph, subset, k, cap=cap)
    if tree is None or tree.leaf_count != k:
        raise InternalInvariantError(f"the minimum-leaf table gives {k} leaves but the budget-{k} search "
                                     f"returned {tree!r}")
    return k, tree


def min_branch_covering_tree(
    graph: Graph, subset: VertexSet, cap: int = DEFAULT_TREE_CAP
) -> tuple[int, Tree]:
    """Exact minimum of the branch-vertex count over covering trees, with a witness.

    Runs existence queries for increasing branch budgets from 0; a tree whose
    leaves all lie in S has at most |S| - 2 branch vertices.
    """
    smask = _coverable_subset_mask(graph, subset, cap)
    for budget in range(max(1, smask.bit_count() - 1)):
        tree = covering_tree_with_branch_budget(graph, subset, budget, cap=cap)
        if tree is not None:
            if tree.branch_count != budget:
                raise InternalInvariantError(
                    f"budget-{budget} search returned {tree.branch_count} branch vertices "
                    f"after budget {budget - 1} failed"
                )
            return budget, tree
    raise InternalInvariantError("no covering tree found although the subset is coverable")


def hamiltonian_path_exists(graph: Graph, cap: int = DEFAULT_TREE_CAP) -> Path | None:
    """A Hamiltonian path found by plain backtracking, or None.

    Kept independent of the covering-path DP so the two can be checked
    against each other.
    """
    _check_cap(graph, cap)
    n = graph.n
    if n == 0:
        return None
    if n == 1:
        return Path((0,))
    if not graph.is_connected():
        return None
    rows = graph.rows
    full = (1 << n) - 1
    seq: list[int] = []

    def extend(v: int, visited: int) -> bool:
        seq.append(v)
        if visited == full:
            return True
        cand = rows[v] & ~visited
        while cand:
            low = cand & -cand
            cand ^= low
            if extend(low.bit_length() - 1, visited | low):
                return True
        seq.pop()
        return False

    for start in range(n):
        if extend(start, 1 << start):
            return Path(tuple(seq))
    return None
