"""Exact covering-tree oracles: k-ended existence, minimum leaves, minimum
branch vertices, and Hamiltonian path search.

Both existence searches run one growth search. It grows a tree one frontier
edge at a time and memoizes on a state that fully determines future options:
(vertex mask, degree-1 mask, degree-2 mask). A branch budget needs the
degree-2 mask, since a branch vertex is one in neither mask. A leaf budget
needs only the degree-1 (leaf) mask, so it keeps the degree-2 mask at 0: its
memo keys are then exactly its (vertex mask, leaf mask) states, where
tracking degree 2 would split each state by its degree-2 vertices and search
the same trees again. Both budgets are monotone along growth, so pruning a
state over budget is sound, and any covering tree can be pruned down to one
whose every leaf lies in S without raising either budget, so the search
restricts acceptance to such trees without losing completeness.

Each call of the search first tests one bound per budget (`_leaf_bound_cuts`,
`_branch_bound_cuts`). Let F be the vertices of S outside the tree whose
every neighbour is in it, and L the tree's leaves. A vertex of F can join a
grown tree only as a leaf hanging from a vertex of the current tree.
- Leaf budget: a grown tree keeps one leaf per leaf of L, the leaf itself or
  a leaf of what hangs from it, all distinct, and every vertex of F is a
  leaf too. A vertex of F is a kept leaf only if it hangs from a leaf of L,
  which then lies in N(F), and distinct leaves of L keep distinct leaves, so
  at most min(|F|, |L & N(F)|) vertices of F are counted twice. The state is
  cut when |L| + |F| - min(|F|, |L & N(F)|) exceeds the budget.
- Branch budget: a grown tree keeps every branch vertex of the current
  tree, so once their count equals the budget no other vertex may reach
  degree 3. A vertex of F with no branch neighbour must then hang from a
  leaf of L, since a degree-2 parent would reach degree 3, and no leaf of L
  may take two children, so the state is cut when those F vertices
  outnumber the leaves adjacent to them.
A cut state has no accepting tree beyond it, and the memoized search returns
False from a state exactly when none lies beyond it, so the cuts leave the
first tree in DFS order, and so every witness, unchanged.

Before it, the existence searches share trivial answers, the coverability
check and the covering path. The covering path's tree is the graph's memoized
tree of the least path set containing S (`Graph.covering_set`,
`Graph.path_tree`; only `graphs` reads a plane), one object for every subset
with that set. hamiltonian_path_exists reads no plane, so the two routes are
cross-checked: it backtracks unless alpha(V), from the alpha memo, exceeds
ceil(n/2), which rules out a Hamiltonian path (Jung 1978).

Past the covering path, a leaf budget first meets the bound behind Jung's:
every tree covering S has at least 2 alpha(S) - n + 1 leaves
(`_leaf_lower_bound`; Jung's test is its case S = V at 2 leaves). A budget
below the bound is "no" without a search, and a budget at the bound goes
straight to the growth search, which decides it exactly. Above the bound, a
leaf budget reads the graph's minimum-leaf levels (`Graph.min_leaves`),
which answer "no" without a search. Each growth search's "no" is checked
against the levels. A branch-budget "no" is checked against them too: a
tree with L >= 2 leaves has at most L - 2 branch vertices, so no tree within
budget b is a contradiction where a tree with at most b + 2 leaves covers S.
Every read of the levels here must give at least 3, since S has no covering
path, and at least the bound. Both tables are shared by every subset and
budget; the levels grow only as far as a query reads.
"""

from __future__ import annotations

from .errors import CapExceededError, InternalInvariantError
from .graphs import Graph, Tree, VertexSet
from .invariants import subset_alpha

DEFAULT_TREE_CAP = 10


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceededError(f"instance has n={n}, above the cap {cap}")


def _forced(rows: tuple[int, ...], smask: int, mask: int, avoid: int) -> tuple[int, int]:
    """How many vertices of S outside the tree have every neighbour in it and
    none in `avoid`, and the union of their neighbourhoods."""
    count = near = 0
    banned = ~mask | avoid
    t = smask & ~mask
    while t:
        lu = t & -t
        t ^= lu
        row = rows[lu.bit_length() - 1]
        if row & banned == 0:
            count += 1
            near |= row
    return count, near


def _leaf_bound_cuts(rows: tuple[int, ...], smask: int, budget: int, mask: int, deg1: int, deg2: int) -> bool:
    """Whether every covering tree grown from this state has more than `budget`
    leaves: each forced vertex ends as a leaf, and a leaf of the state stops
    being one only by taking a child, so at most one per forced vertex does."""
    forced, near = _forced(rows, smask, mask, 0)
    return deg1.bit_count() + forced - min(forced, (deg1 & near).bit_count()) > budget


def _branch_bound_cuts(rows: tuple[int, ...], smask: int, budget: int, mask: int, deg1: int, deg2: int) -> bool:
    """Whether, with the branch budget spent, the forced vertices without a
    branch neighbour outnumber the leaves they could hang from, one each. The
    one-vertex start counts its root as a branch vertex, which every forced
    vertex then neighbours, so it is never cut."""
    branch = mask & ~deg1 & ~deg2
    if branch.bit_count() < budget:
        return False
    forced, near = _forced(rows, smask, mask, branch)
    return forced > (deg1 & near).bit_count()


def _grow_tree(graph: Graph, smask: int, budget: int, r0: int, branches: bool) -> list[tuple[int, int]] | None:
    """Edges of a tree containing r0 that covers smask with all leaves in S and at
    most `budget` branch vertices (branches) or leaves (not branches), or None.
    S has at least two vertices, so the one-vertex start is never accepted."""
    n = graph.n
    rows = graph.rows
    cuts = _branch_bound_cuts if branches else _leaf_bound_cuts
    seen: set[int] = set()
    edges: list[tuple[int, int]] = []

    def rec(mask: int, deg1: int, deg2: int) -> bool:
        if smask & ~mask == 0 and deg1 & ~smask == 0:
            return True
        if cuts(rows, smask, budget, mask, deg1, deg2):
            return False
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
                    new_d1, new_d2 = mask | lu, 0
                elif not branches:
                    new_d1, new_d2 = (deg1 & ~lw) | lu, 0
                    if new_d1.bit_count() > budget:
                        continue
                elif deg1 & lw:
                    new_d1, new_d2 = (deg1 & ~lw) | lu, deg2 | lw
                elif deg2 & lw:
                    # w becomes a branch vertex; the ones so far lie in neither degree mask
                    if (mask & ~deg1 & ~deg2).bit_count() >= budget:
                        continue
                    new_d1, new_d2 = deg1 | lu, deg2 & ~lw
                else:
                    new_d1, new_d2 = deg1 | lu, deg2
                new_mask = mask | lu
                # the memo is read before the call: most children were seen already
                key = ((new_mask << n) | new_d1) << n | new_d2
                if key in seen:
                    continue
                seen.add(key)
                # a non-S leaf with no free neighbor can never stop being a leaf
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
                if rec(new_mask, new_d1, new_d2):
                    return True
                edges.pop()
        return False

    try:
        return list(edges) if rec(1 << r0, 0, 0) else None
    finally:
        del rec    # a nested search that names itself is a cycle only the collector frees


def _coverable(graph: Graph, smask: int) -> bool:
    r0 = (smask & -smask).bit_length() - 1
    return graph.is_connected() or graph.component_mask(r0) & smask == smask


def _leaf_lower_bound(graph: Graph, smask: int) -> int:
    """2 alpha(S) - n + 1, at most the leaf count L of every tree T covering S.
    A tree with L leaves falls into at most |X| + L - 1 components when a
    vertex set X is removed. With I a maximum independent subset of S and
    X = V(T) - I, what is left is I, so alpha(S) <= |V(T)| - alpha(S) + L - 1."""
    return 2 * subset_alpha(graph, smask) - graph.n + 1


def _table_minimum(graph: Graph, smask: int, lower: int) -> int:
    """The minimum-leaf table's answer for an S with no covering path, which
    must be at least 3 and at least the alpha bound `lower`."""
    minimum = graph.min_leaves(smask)
    if minimum < max(lower, 3):
        raise InternalInvariantError(f"the minimum-leaf table gives {minimum} leaves, below 3 or the alpha bound "
                                     f"{lower}, for a subset with no covering path")
    return minimum


def _covering_tree(graph: Graph, subset: VertexSet, cap: int, budget: int, branches: bool) -> Tree | None:
    """The body of both existence searches: trivial and path answers first, then
    the growth search, unless the budget allows only a path (2 leaves or no
    branch vertex) or a leaf budget lies below the alpha bound, or above it
    and below the minimum-leaf table's answer. At the bound the growth search
    decides alone; the table is read only where it fails."""
    _check_cap(graph.n, cap)
    smask = graph.subset_mask(subset)
    if graph.n == 0:
        return None
    if smask & (smask - 1) == 0:
        return Tree(graph.n, max(smask.bit_length() - 1, 0))
    if not _coverable(graph, smask):
        return None
    pset = graph.covering_set(smask)
    if pset is not None:
        return graph.path_tree(pset)
    if budget == (0 if branches else 2):
        return None
    lower = _leaf_lower_bound(graph, smask)
    if not branches:
        if lower > budget:
            return None
        # at the bound the table could only confirm what the growth search decides
        if lower < budget and _table_minimum(graph, smask, lower) > budget:
            return None
    r0 = (smask & -smask).bit_length() - 1
    edges = _grow_tree(graph, smask, budget, r0, branches)
    if edges is not None:
        return Tree(graph.n, r0, edges)
    minimum = _table_minimum(graph, smask, lower)
    # a tree with L >= 2 leaves has at most L - 2 branch vertices
    if minimum > (budget + 2 if branches else budget):
        return None
    if branches:
        found = f"the branch search found no tree with at most {budget} branch vertices"
    else:
        found = f"the growth search found no tree with at most {budget}"
    raise InternalInvariantError(f"the minimum-leaf table gives {minimum} leaves but {found}")


def find_k_ended_covering_tree(
    graph: Graph, subset: VertexSet, k: int, cap: int = DEFAULT_TREE_CAP
) -> Tree | None:
    """Some tree with at most k leaves whose vertices cover S, or None.

    The tree need not be spanning. Exhaustive and exact up to the cap.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    return _covering_tree(graph, subset, cap, k, False)


def covering_tree_with_branch_budget(
    graph: Graph, subset: VertexSet, budget: int, cap: int = DEFAULT_TREE_CAP
) -> Tree | None:
    """Some covering tree with at most `budget` branch vertices, or None."""
    if budget < 0:
        raise ValueError("branch budget must be non-negative")
    return _covering_tree(graph, subset, cap, budget, True)


def _coverable_subset_mask(graph: Graph, subset: VertexSet, cap: int) -> int:
    _check_cap(graph.n, cap)
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
        return 0, Tree(graph.n, smask.bit_length() - 1)
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


def hamiltonian_path_exists(graph: Graph, cap: int = DEFAULT_TREE_CAP) -> tuple[int, ...] | None:
    """The vertex tuple of a Hamiltonian path found by plain backtracking, or None.

    Kept independent of the path planes so the two can be checked against
    each other; it reads only alpha(V), from the alpha memo. A path on n
    vertices has alpha = ceil(n/2), so alpha(V) > ceil(n/2) answers None
    without backtracking (the scattering bound, Jung 1978).
    """
    _check_cap(graph.n, cap)
    n = graph.n
    if not graph.is_connected() or subset_alpha(graph, graph.full_mask) > (n + 1) // 2:
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

    try:
        for start in range(n):
            if extend(start, 1 << start):
                return tuple(seq)
        return None
    finally:
        del extend    # a nested search that names itself is a cycle only the collector frees
