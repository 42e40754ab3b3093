"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive (full enumeration over subsets,
permutations or edge combinations) and shares no code path with the
implementations it checks.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from kended.graphs import Graph, iter_bits


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


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Rejection-sample a connected G(n, p) graph."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graph = Graph.from_edges(n, edges)
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
