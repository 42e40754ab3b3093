"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive (full enumeration over subsets,
permutations, edge combinations or simple paths) and shares no code path with
the implementations it checks; the reference base path takes alpha and kappa
from the library, since it checks only the path search. The two per-mask
tuple DPs, `_path_endpoint_table` and `_min_leaf_table`, are the library's
former subset tables, kept verbatim as the reference for its bit planes;
`path_planes_by_length_steps` and `min_leaf_planes_by_length_steps` are its
former plane builders, one shift step per path length, kept as the reference
for its fixpoint kernel;
`hamiltonian_path_by_backtracking` is the library's Hamiltonian search as it
was before the independence-number bound, `grow_tree_unpruned` its
growth search as it was before the forced-leaf bounds, and
`covering_set_by_and_loop` its covering-set lookup as it was before the
path-set shortcut, each kept as the reference for its witnesses;
`base_path_by_first_path_walks` is the base path as it was before the
first-path memo, the reference for the memo's order and masks.
`emit_graph6_by_pairs` and `random_gnp_by_edge_list` are the graph6 encoder
and the G(n, p) draw as they were before both read and filled the adjacency
rows directly, kept as the reference for their records and graphs.
`tree_from_edges` is the library's former general `Tree` constructor, which
checked an arbitrary vertex and edge list, kept as the reference for every
grown tree and as the way tests build a tree from its edges.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from kended.errors import InternalInvariantError
from kended.graphs import Graph, Tree, VertexSet, _vertex_planes, iter_bits, mask_of
from kended.invariants import ConnectivityValue, alpha_mask, set_connectivity, subset_alpha, subset_kappa
from kended.treesearch import DEFAULT_TREE_CAP, _check_cap


def independent_sets_by_enumeration(graph: Graph, smask: int) -> tuple[int, list[int]]:
    """(alpha, all maximum independent subsets) of smask via full subset enumeration."""
    members = list(iter_bits(smask))
    best = 0
    sets: list[int] = [0]
    for r in range(1, len(members) + 1):
        for combo in combinations(members, r):
            if all(not graph.has_edge(u, v) for u, v in combinations(combo, 2)):
                if r > best:
                    best = r
                    sets = []
                if r == best:
                    mask = 0
                    for v in combo:
                        mask |= 1 << v
                    sets.append(mask)
    return best, sorted(sets)


def hypothesis_holds(alpha: int, k: int, kappa: ConnectivityValue) -> bool:
    """The theorem's hypothesis alpha <= k + kappa - 1; an infinite kappa satisfies it."""
    return kappa.is_infinite or alpha <= k + kappa.finite - 1


def max_internally_disjoint_paths(graph: Graph, x: int, y: int) -> int:
    """Maximum size of a family of pairwise internally disjoint x-y paths."""
    internals: set[int] = set()

    def walk(v: int, visited: int, internal: int) -> None:
        row = graph.rows[v]
        if (row >> y) & 1:
            internals.add(internal)
        cand = row & ~visited & ~(1 << y)
        while cand:
            low = cand & -cand
            cand ^= low
            walk(low.bit_length() - 1, visited | low, internal | low)

    walk(x, 1 << x, 0)
    masks = sorted(internals, key=lambda m: (m.bit_count(), m))
    best = 0

    def pack(index: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if count + (len(masks) - index) <= best:
            return
        for j in range(index, len(masks)):
            if masks[j] & used == 0:
                pack(j + 1, used | masks[j], count + 1)

    pack(0, 0, 0)
    return best


def vertex_connectivity_by_cuts(graph: Graph) -> int:
    """Classical vertex connectivity via minimum separating vertex sets (n >= 2)."""
    n = graph.n
    assert n >= 2
    nonadjacent = [
        (x, y) for x in range(n) for y in range(x + 1, n) if not graph.has_edge(x, y)
    ]
    if not nonadjacent:
        return n - 1

    def separated(x: int, y: int, cut: int) -> bool:
        seen = 1 << x
        stack = [x]
        while stack:
            v = stack.pop()
            cand = graph.rows[v] & ~seen & ~cut
            while cand:
                low = cand & -cand
                u = low.bit_length() - 1
                cand ^= low
                if u == y:
                    return False
                seen |= low
                stack.append(u)
        return True

    best = n - 2
    for x, y in nonadjacent:
        others = [v for v in range(n) if v != x and v != y]
        for size in range(0, best + 1):
            found = False
            for cut_vertices in combinations(others, size):
                cut = 0
                for v in cut_vertices:
                    cut |= 1 << v
                if separated(x, y, cut):
                    best = min(best, size)
                    found = True
                    break
            if found:
                break
    return best


def covering_tree_stats(graph: Graph, smask: int):
    """Yield (leaf count, branch count) for every subtree of the graph covering smask."""
    n = graph.n
    required = list(iter_bits(smask))
    optional = [v for v in range(n) if not (smask >> v) & 1]
    for r in range(len(optional) + 1):
        for extra in combinations(optional, r):
            vertices = sorted(required + list(extra))
            if not vertices:
                continue
            if len(vertices) == 1:
                yield 0, 0
                continue
            vset = set(vertices)
            edges = [(u, v) for u, v in graph.edges() if u in vset and v in vset]
            for chosen in combinations(edges, len(vertices) - 1):
                parent = {v: v for v in vertices}

                def find(v):
                    while parent[v] != v:
                        parent[v] = parent[parent[v]]
                        v = parent[v]
                    return v

                acyclic = True
                for u, v in chosen:
                    ru, rv = find(u), find(v)
                    if ru == rv:
                        acyclic = False
                        break
                    parent[ru] = rv
                if not acyclic:
                    continue
                deg = {v: 0 for v in vertices}
                for u, v in chosen:
                    deg[u] += 1
                    deg[v] += 1
                yield (
                    sum(1 for d in deg.values() if d == 1),
                    sum(1 for d in deg.values() if d >= 3),
                )


def min_leaf_cover_by_enumeration(graph: Graph, smask: int) -> int | None:
    values = [leaves for leaves, _ in covering_tree_stats(graph, smask)]
    return min(values) if values else None


def min_branch_cover_by_enumeration(graph: Graph, smask: int) -> int | None:
    values = [branch for _, branch in covering_tree_stats(graph, smask)]
    return min(values) if values else None


def _path_endpoint_table(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Held-Karp subset DP: entry m is the mask of the vertices at which some
    path with vertex set exactly m ends (Held & Karp 1962).

    Masks are processed in ascending order, so each entry is complete before
    it is extended; `reach[m]` is the union of the neighbourhoods of m.
    """
    size = 1 << len(rows)
    table = [0] * size
    reach = [0] * size
    for v in range(len(rows)):
        table[1 << v] = 1 << v
    for mask in range(1, size):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | rows[low.bit_length() - 1]
        ends = table[mask]
        if not ends:
            continue
        grow = reach[ends] & ~mask
        while grow:
            low = grow & -grow
            grow ^= low
            table[mask | low] |= low
    return tuple(table)


def _min_leaf_table(rows: tuple[int, ...], ends: tuple[int, ...]) -> tuple[int, ...]:
    """Entry S is the least leaf count of a tree covering S: 0 for one vertex, n + 1 for none.

    exact[m], the least leaf count of a tree on exactly m, is 0 for one vertex,
    2 for a path set, else the least exact[m ^ p] + 1 over path sets p that miss
    the lowest vertex of m, leave two or more vertices and have an end adjacent
    to m ^ p: a tree with 3 or more leaves has 3 disjoint pendant paths, two
    miss that vertex, and cutting one removes exactly one leaf. Then one
    superset minimum (Bjorklund, Husfeldt, Kaski & Koivisto, STOC 2007).
    """
    n = len(rows)
    size = 1 << n
    none = n + 1
    exact = [none] * size
    reach = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | rows[low.bit_length() - 1]
        if mask == low:
            exact[mask] = 0
            continue
        if ends[mask]:
            exact[mask] = 2
            continue
        seen = frontier = low
        while frontier:
            frontier = reach[frontier] & mask & ~seen
            seen |= frontier
        if seen != mask:    # a disconnected set spans no tree
            continue
        rest = mask ^ low
        best = none
        p = (rest - 1) & rest
        while p:
            if ends[p] & reach[mask ^ p] and exact[mask ^ p] < best - 1:
                best = exact[mask ^ p] + 1
                if best == 3:    # no tree on a set that is not a path set has fewer
                    break
            p = (p - 1) & rest
        exact[mask] = best
    for v in range(n):
        bit = 1 << v
        for mask in range(size):
            if not mask & bit and exact[mask | bit] < exact[mask]:
                exact[mask] = exact[mask | bit]
    return tuple(exact)


def _grow(front: list[int], nbrs: list[list[int]], without: tuple[int, ...]) -> list[int]:
    """One shift step: front[v] holds the masks of paths that end at v, and
    entry v of the result those one vertex longer. A path ending at v is one
    ending at a neighbour of v, on a mask without v, plus v: a shift of the
    plane by 2**v."""
    grown = []
    for v, near_v in enumerate(nbrs):
        near = 0
        for u in near_v:
            near |= front[u]
        grown.append((near & without[v]) << (1 << v))
    return grown


def path_planes_by_length_steps(rows: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The path planes (ends, spans) of `Graph.path_planes`, one `_grow` step
    per path length."""
    n = len(rows)
    without = _vertex_planes(n)[0]
    nbrs = [list(iter_bits(row)) for row in rows]
    front = [1 << (1 << v) for v in range(n)]
    ends = front
    while any(front):
        front = _grow(front, nbrs, without)
        ends = [plane | new for plane, new in zip(ends, front)]
    spans = 0
    for plane in ends:
        spans |= plane
    return tuple(ends), spans


def _down_closure(plane: int, within: tuple[int, ...]) -> int:
    """The plane closed under removing vertices: every submask of its masks
    (the library's down-closure before its levels took a superset test)."""
    for v, inside in enumerate(within):
        plane |= (plane & inside) >> (1 << v)
    return plane


def min_leaf_planes_by_length_steps(rows: tuple[int, ...], spans: int) -> tuple[int, ...]:
    """The minimum-leaf planes, every level built: plane j holds the masks
    that some tree with at most j leaves covers, closed under removing
    vertices. The sets new at level j grow a pendant path one `_grow` step
    per length from each vertex of the sets new at level j - 1, front[v]
    holding the masks whose path ends at v, and a mask with a tree of at most
    j - 1 leaves leaves the front."""
    n = len(rows)
    without, within = _vertex_planes(n)[:2]
    nbrs = [list(iter_bits(row)) for row in rows]
    planes = [_down_closure(sum(1 << (1 << v) for v in range(n)), within)] * 2 + [_down_closure(spans, within)]
    trees = fresh = spans
    while fresh:
        front = [fresh & plane for plane in within]
        fresh, unseen = 0, ~trees
        while any(front):
            front = [plane & unseen for plane in _grow(front, nbrs, without)]
            for plane in front:
                fresh |= plane
        if fresh:
            trees |= fresh
            planes.append(planes[-1] | _down_closure(fresh, within))
    return tuple(planes)


def covering_path_by_forward_dp(graph: Graph, smask: int) -> list[int] | None:
    """Reference covering path: the forward Held-Karp DP with a parent dict.

    DP over (vertex mask, endpoint); masks are processed in ascending numeric
    order and the first mask covering smask is unwound through the parent of
    each (mask, endpoint), which fixes the witness the library must return.
    """
    n = graph.n
    rows = graph.rows
    if n == 0:
        return None
    endpoint = [0] * (1 << n)
    parent: dict[tuple[int, int], int] = {}
    for v in range(n):
        endpoint[1 << v] = 1 << v
    for mask in range(1, 1 << n):
        eps = endpoint[mask]
        if not eps:
            continue
        if smask & ~mask == 0:
            v = (eps & -eps).bit_length() - 1
            seq = [v]
            m = mask
            while m != 1 << seq[-1]:
                u = parent[(m, seq[-1])]
                m ^= 1 << seq[-1]
                seq.append(u)
            seq.reverse()
            return seq
        while eps:
            low = eps & -eps
            v = low.bit_length() - 1
            eps ^= low
            cand = rows[v] & ~mask
            while cand:
                lu = cand & -cand
                u = lu.bit_length() - 1
                cand ^= lu
                nm = mask | lu
                if not (endpoint[nm] >> u) & 1:
                    endpoint[nm] |= lu
                    parent[(nm, u)] = v
    return None


def covering_set_by_and_loop(graph: Graph, smask: int) -> int | None:
    """`Graph.covering_set` without its shortcut for a path set: the least path
    set containing smask is always found by ANDing the within plane of each
    vertex of smask into the spans plane."""
    spans = graph.path_planes()[1]
    within = _vertex_planes(graph.n)[1]
    for v in iter_bits(smask):
        spans &= within[v]
    return (spans & -spans).bit_length() - 1 if spans else None


def _reachable_free_count(graph: Graph, v: int, visited: int) -> int:
    comp = 0
    frontier = graph.rows[v] & ~visited
    while frontier:
        comp |= frontier
        grow = 0
        for u in iter_bits(frontier):
            grow |= graph.rows[u]
        frontier = grow & ~visited & ~comp
    return comp.bit_count()


def _paths_with_length(graph: Graph, length: int):
    """All simple paths with exactly `length` vertices, lexicographic order.

    Each path appears once, in its canonical direction (first < last vertex).
    """
    rows = graph.rows

    def rec(prefix: tuple[int, ...], visited: int):
        if len(prefix) == length:
            if length == 1 or prefix[0] < prefix[-1]:
                yield prefix
            return
        v = prefix[-1]
        if len(prefix) + _reachable_free_count(graph, v, visited) < length:
            return
        cand = rows[v] & ~visited
        while cand:
            low = cand & -cand
            cand ^= low
            yield from rec(prefix + (low.bit_length() - 1,), visited | low)

    for s in range(graph.n):
        yield from rec((s,), 1 << s)


def base_path_by_enumeration(graph: Graph, subset: VertexSet,
                              alpha_kappa: tuple[int, ConnectivityValue] | None = None) -> tuple[int, ...]:
    """Reference base path: the vertex tuple of a path covering S, or of one
    whose uncovered part has alpha <= alpha - kappa - 1.

    Exhaustive search: paths are enumerated in decreasing length and the first
    one meeting either condition is returned. One of the two always exists for
    a connected graph and nonempty S, so exhaustion without success is an
    internal invariant failure, not an input error. `alpha_kappa` passes in
    (alpha_G(S), kappa_G(S)) when the caller knows them; else they are computed.
    """
    smask = graph.subset_mask(subset)
    _check_cap(graph.n, DEFAULT_TREE_CAP)
    if smask == 0:
        raise ValueError("base path needs a nonempty subset")
    if not graph.is_connected():
        raise ValueError("base path needs a connected graph")
    if smask & (smask - 1) == 0:
        return (smask.bit_length() - 1,)
    if alpha_kappa is None:
        alpha_kappa = alpha_mask(graph, smask)[0], set_connectivity(graph, subset)
    alpha, kappa = alpha_kappa
    assert not kappa.is_infinite
    bound = alpha - kappa.finite - 1
    residual_cache: dict[int, int] = {}
    for length in range(graph.n, 0, -1):
        for seq in _paths_with_length(graph, length):
            pmask = 0
            for v in seq:
                pmask |= 1 << v
            remainder = smask & ~pmask
            if remainder == 0:
                return seq
            if bound >= 0:
                if remainder not in residual_cache:
                    residual_cache[remainder] = alpha_mask(graph, remainder)[0]
                if residual_cache[remainder] <= bound:
                    return seq
    raise InternalInvariantError("path search exhausted; this contradicts the base-path guarantee")


def base_path_by_first_path_walks(graph: Graph, subset: VertexSet) -> tuple[int, ...]:
    """`constructive.base_path` as it was before the first-path memo: per size,
    longest first, one `Graph._walk` per path set from the goal plane of the
    sets not yet walked, and a `mask_of` per candidate path."""
    smask = graph.subset_mask(subset)
    if smask & (smask - 1) == 0:
        return (smask.bit_length() - 1,)
    kappa = subset_kappa(graph, smask)[0]
    bound = subset_alpha(graph, smask) - kappa.finite - 1
    ends, spans = graph.path_planes()
    for length in range(graph.n, 0, -1):
        goals = spans & _vertex_planes(graph.n)[2][length]
        while goals:
            seq = graph._walk(ends, goals)[0]
            goals ^= 1 << mask_of(seq)
            remainder = smask & ~mask_of(seq)
            if remainder == 0 or (bound >= 0 and subset_alpha(graph, remainder) <= bound):
                return tuple(seq)
    raise InternalInvariantError("path search exhausted; this contradicts the base-path guarantee")


def grow_tree_unpruned(graph: Graph, smask: int, budget: int, r0: int, branches: bool) -> list[tuple[int, int]] | None:
    """`treesearch._grow_tree` without the forced-leaf bounds: edges of a tree
    containing r0 that covers smask with all leaves in S and at most `budget`
    branch vertices (branches) or leaves (not branches), or None."""
    n = graph.n
    rows = graph.rows
    seen: set[int] = set()
    edges: list[tuple[int, int]] = []

    def rec(mask: int, deg1: int, deg2: int) -> bool:
        if smask & ~mask == 0 and deg1 & ~smask == 0:
            return True
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
                    if (mask & ~deg1 & ~deg2).bit_count() >= budget:
                        continue
                    new_d1, new_d2 = deg1 | lu, deg2 & ~lw
                else:
                    new_d1, new_d2 = deg1 | lu, deg2
                new_mask = mask | lu
                key = ((new_mask << n) | new_d1) << n | new_d2
                if key in seen:
                    continue
                seen.add(key)
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

    return list(edges) if rec(1 << r0, 0, 0) else None


def hamiltonian_path_by_backtracking(graph: Graph) -> tuple[int, ...] | None:
    """The vertex tuple of the first Hamiltonian path of plain backtracking
    from each start in turn, or None."""
    n = graph.n
    if n == 0:
        return None
    if n == 1:
        return (0,)
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
            return tuple(seq)
    return None


def hamiltonian_path_by_permutations(graph: Graph) -> bool:
    n = graph.n
    if n == 0:
        return False
    if n == 1:
        return True
    for perm in permutations(range(n)):
        if perm[0] > perm[-1]:
            continue
        if all(graph.has_edge(perm[i], perm[i + 1]) for i in range(n - 1)):
            return True
    return False


def count_connected_graphs_by_bitmask(n: int) -> int:
    """Count connected labeled graphs on n vertices with a union-find connectivity test."""
    pairs = list(combinations(range(n), 2))
    count = 0
    for mask in range(1 << len(pairs)):
        parent = list(range(n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        components = n
        for i, (u, v) in enumerate(pairs):
            if (mask >> i) & 1:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    components -= 1
        if components == 1:
            count += 1
    return count


def emit_graph6_by_pairs(graph: Graph) -> str:
    """The short-form graph6 record of a graph, one edge test per vertex pair
    in column-major order, 6 bits per byte MSB-first."""
    n = graph.n
    out = [chr(63 + n)]
    buf = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            buf = (buf << 1) | graph.has_edge(i, j)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + buf))
                buf = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (buf << (6 - nbits))))
    return "".join(out)


def random_gnp_by_edge_list(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p) from the list of its drawn edges, one rng draw per vertex pair,
    pairs in lexicographic order."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Rejection-sample a connected G(n, p) graph."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graph = Graph.from_edges(n, edges)
        if graph.is_connected():
            return graph


def bipartite_3_7(rng: random.Random) -> Graph:
    """A connected bipartite graph with parts 3 and 7, each edge kept with
    probability 0.8, labels shuffled."""
    while True:
        label = list(range(10))
        rng.shuffle(label)
        graph = Graph.from_edges(10, [(label[a], label[3 + b]) for a in range(3) for b in range(7)
                                      if rng.random() < 0.8])
        if graph.is_connected():
            return graph


def random_spanning_tree(graph: Graph, rng: random.Random):
    """A uniform-ish random spanning tree via Kruskal over shuffled edges."""
    edges = graph.edges()
    rng.shuffle(edges)
    parent = list(range(graph.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    chosen = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v))
    return chosen


def tree_from_edges(host_n: int, vertices, edges) -> Tree:
    """The tree on `vertices` with `edges`, once the tree axioms hold (edges
    within the vertex set, no duplicate, |V| - 1 of them, connected), else
    ValueError. It grows the tree from its least vertex in breadth-first
    order, and asserts that the grown tree holds the masks counted here from
    the degrees."""
    vs = tuple(sorted(set(vertices)))
    es = tuple(sorted([(u, v) if u < v else (v, u) for u, v in edges]))
    if not vs:
        raise ValueError("a tree has at least one vertex")
    if vs[0] < 0 or vs[-1] >= host_n:
        raise ValueError("tree vertex out of host range")
    vmask = mask_of(vs)
    if len(set(es)) != len(es):
        raise ValueError("duplicate tree edge")
    adj = [0] * host_n
    for u, v in es:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if not ((vmask >> u) & 1 and (vmask >> v) & 1):
            raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if len(es) != len(vs) - 1:
        raise ValueError(f"{len(vs)} vertices need {len(vs) - 1} edges, got {len(es)}")
    # connectivity plus the edge count above implies acyclicity
    seen, order, steps = 1 << vs[0], [vs[0]], []
    for a in order:
        for u in iter_bits(adj[a] & ~seen):
            seen |= 1 << u
            order.append(u)
            steps.append((a, u))
    if seen != vmask:
        raise ValueError("tree is not connected")
    tree = Tree(host_n, vs[0], steps)
    degree = [row.bit_count() for row in adj]
    expected = {"host_n": host_n, "vertices": vs, "edges": es, "vertex_mask": vmask,
                "leaf_mask": mask_of(v for v in vs if degree[v] == 1),
                "branch_mask": mask_of(v for v in vs if degree[v] >= 3)}
    assert {name: getattr(tree, name) for name in Tree.__slots__} == expected, (host_n, vs, es)
    return tree
