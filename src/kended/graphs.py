"""Bitmask-backed types for simple graphs, vertex subsets, paths and trees.

Vertices are dense 0-based integers. Every set-like quantity is an int used
as a bit-vector, which keeps the exhaustive searches cheap at desk scale.
All four types are immutable after construction and safe to share across
concurrent workers; a graph's connectivity flag, its path-endpoint and
minimum-leaf tables and its subset invariant memos (alpha by mask, pair
flows, kappa by mask; read and written only by `invariants`) are filled
lazily, but each is a pure function of the adjacency rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


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


class Graph:
    """Finite simple undirected graph with one adjacency bitmask per vertex.

    Invariants enforced on every construction path: adjacency is symmetric,
    no vertex is self-adjacent, and no row has bits at or beyond index n.
    """

    __slots__ = ("n", "rows", "_connected", "_path_ends", "_min_leaves", "_alpha", "_flows", "_kappa")

    def __init__(self, n: int, rows: Iterable[int]) -> None:
        rows = tuple(rows)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} has bits beyond vertex {n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"vertex {v} is self-adjacent")
            for u in iter_bits(row):
                if not (rows[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric on ({v}, {u})")
        self.n = n
        self.rows = rows
        self._connected: bool | None = None
        self._path_ends: tuple[int, ...] | None = None
        self._min_leaves: tuple[int, ...] | None = None
        self._alpha: dict[int, int] = {}
        self._flows: dict[tuple[int, int], int] = {}
        self._kappa: dict[int, tuple] = {}

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if (rows[u] >> v) & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.rows[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            for v in iter_bits(row):
                out.append((u, v))
        return out

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def component_mask(self, start: int, within: int | None = None) -> int:
        """Bitmask of vertices reachable from start, restricted to `within` if given."""
        allowed = self.full_mask if within is None else within
        comp = (1 << start) & allowed
        frontier = comp
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= self.rows[v]
            frontier = grow & allowed & ~comp
            comp |= frontier
        return comp

    def path_endpoints(self) -> tuple[int, ...]:
        """The Held-Karp endpoint table of this graph, built on first use.

        Entry m is the mask of the vertices at which some path with vertex set
        exactly m ends. It has 2**n entries, so callers cap n first.
        """
        if self._path_ends is None:
            self._path_ends = _path_endpoint_table(self.rows)
        return self._path_ends

    def min_leaf_table(self) -> tuple[int, ...]:
        """Entry S is the least leaf count of a tree covering S (n + 1 for none);
        built on first use, with 2**n entries, so callers cap n first."""
        if self._min_leaves is None:
            self._min_leaves = _min_leaf_table(self.rows, self.path_endpoints())
        return self._min_leaves

    def subset_mask(self, subset: "VertexSet") -> int:
        """The mask of a subset, after checking that it indexes this graph's vertices."""
        if subset.host_n != self.n:
            raise ValueError(f"subset indexes {subset.host_n} vertices but graph has {self.n}")
        return subset.mask

    def is_connected(self) -> bool:
        if self._connected is None:
            self._connected = self.n <= 1 or self.component_mask(0) == self.full_mask
        return self._connected

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices 0..host_n-1 of some graph, stored as a bitmask."""

    host_n: int
    mask: int

    def __post_init__(self) -> None:
        if self.host_n < 0:
            raise ValueError("host_n must be non-negative")
        if self.mask < 0 or self.mask >> self.host_n:
            raise ValueError(f"mask {self.mask:#x} not within 0..{self.host_n - 1}")

    @classmethod
    def from_vertices(cls, host_n: int, vertices: Iterable[int]) -> "VertexSet":
        return cls(host_n, mask_of(vertices))

    @classmethod
    def empty(cls, host_n: int) -> "VertexSet":
        return cls(host_n, 0)

    @classmethod
    def full(cls, host_n: int) -> "VertexSet":
        return cls(host_n, (1 << host_n) - 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.host_n and bool((self.mask >> v) & 1)

    def to_list(self) -> list[int]:
        return list(iter_bits(self.mask))

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_host(other)
        return VertexSet(self.host_n, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_host(other)
        return VertexSet(self.host_n, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_host(other)
        return VertexSet(self.host_n, self.mask & ~other.mask)

    def _check_host(self, other: "VertexSet") -> None:
        if self.host_n != other.host_n:
            raise ValueError("vertex sets index different hosts")


@dataclass(frozen=True)
class Path:
    """An ordered sequence of distinct vertices; consecutive ones must be adjacent in the host."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 1:
            raise ValueError("a path has at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("path vertices must be distinct")

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def mask(self) -> int:
        return mask_of(self.vertices)

    def edge_pairs(self) -> list[tuple[int, int]]:
        vs = self.vertices
        return [(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]

    def validate_in(self, graph: Graph) -> None:
        for v in self.vertices:
            if not 0 <= v < graph.n:
                raise ValueError(f"path vertex {v} out of range")
        for u, v in self.edge_pairs():
            if not graph.has_edge(u, v):
                raise ValueError(f"path step ({u}, {v}) is not an edge")


class Tree:
    """An acyclic connected subgraph of a host graph, with leaf and branch queries.

    The constructor enforces the tree axioms (edge count, connectivity, edges
    within the vertex set) and stores the tree as masks: `vertex_mask`, one
    tree-adjacency mask per host vertex, and the leaf (degree one) and branch
    (degree at least three) masks, so every degree query is a popcount. The
    sorted `vertices` and `edges` tuples are kept for equality, hashing and
    serialization. `validate_in` additionally checks that every edge exists
    in a concrete host graph.
    """

    __slots__ = ("host_n", "vertices", "edges", "vertex_mask", "adjacency", "leaf_mask", "branch_mask")

    def __init__(self, host_n: int, vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> None:
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
        # Connectivity plus the edge count above implies acyclicity.
        seen = frontier = vmask & -vmask
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grow |= adj[low.bit_length() - 1]
            frontier = grow & ~seen
            seen |= frontier
        if seen != vmask:
            raise ValueError("tree is not connected")
        leaf = branch = 0
        for v in vs:
            d = adj[v].bit_count()
            if d == 1:
                leaf |= 1 << v
            elif d >= 3:
                branch |= 1 << v
        self.host_n = host_n
        self.vertices = vs
        self.edges = es
        self.vertex_mask = vmask
        self.adjacency = tuple(adj)
        self.leaf_mask = leaf
        self.branch_mask = branch

    @classmethod
    def single_vertex(cls, host_n: int, v: int) -> "Tree":
        return cls(host_n, (v,), ())

    @classmethod
    def from_path(cls, host_n: int, vertices: Iterable[int]) -> "Tree":
        vs = tuple(vertices)
        return cls(host_n, vs, [(vs[i], vs[i + 1]) for i in range(len(vs) - 1)])

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count() if 0 <= v < self.host_n else 0

    def leaves(self) -> VertexSet:
        """Vertices of degree exactly one; a one-vertex tree has none."""
        return VertexSet(self.host_n, self.leaf_mask)

    def branch_vertices(self) -> VertexSet:
        """Vertices of degree at least three."""
        return VertexSet(self.host_n, self.branch_mask)

    @property
    def leaf_count(self) -> int:
        return self.leaf_mask.bit_count()

    @property
    def branch_count(self) -> int:
        return self.branch_mask.bit_count()

    def covers(self, subset: VertexSet) -> bool:
        return subset.mask & ~self.vertex_mask == 0

    def validate_in(self, graph: Graph) -> None:
        if graph.n != self.host_n:
            raise ValueError("tree host size does not match graph")
        rows = graph.rows
        for v in self.vertices:
            if self.adjacency[v] & ~rows[v]:
                for a, b in self.edges:
                    if not graph.has_edge(a, b):
                        raise ValueError(f"tree edge ({a}, {b}) is not a graph edge")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tree)
            and self.host_n == other.host_n
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.host_n, self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Tree(vertices={list(self.vertices)}, edges={list(self.edges)})"
