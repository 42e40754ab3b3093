"""Bitmask-backed types for simple graphs, vertex subsets, paths and trees.

Vertices are dense 0-based integers. Every set-like quantity is an int used
as a bit-vector, which keeps the exhaustive searches cheap at desk scale.
All four types are immutable after construction and safe to share across
concurrent workers.
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


class Graph:
    """Finite simple undirected graph with one adjacency bitmask per vertex.

    Invariants enforced on every construction path: adjacency is symmetric,
    no vertex is self-adjacent, and no row has bits at or beyond index n.
    """

    __slots__ = ("n", "rows")

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

    def subset_mask(self, subset: "VertexSet") -> int:
        """The mask of a subset, after checking that it indexes this graph's vertices."""
        if subset.host_n != self.n:
            raise ValueError(f"subset indexes {subset.host_n} vertices but graph has {self.n}")
        return subset.mask

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        return self.component_mask(0) == self.full_mask

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
    within the vertex set); `validate_in` additionally checks that every edge
    exists in a concrete host graph.
    """

    __slots__ = ("host_n", "vertices", "edges")

    def __init__(self, host_n: int, vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> None:
        vs = tuple(sorted(set(vertices)))
        es = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        if not vs:
            raise ValueError("a tree has at least one vertex")
        if any(not 0 <= v < host_n for v in vs):
            raise ValueError("tree vertex out of host range")
        vmask = mask_of(vs)
        if len(set(es)) != len(es):
            raise ValueError("duplicate tree edge")
        for u, v in es:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not ((vmask >> u) & 1 and (vmask >> v) & 1):
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
        if len(es) != len(vs) - 1:
            raise ValueError(f"{len(vs)} vertices need {len(vs) - 1} edges, got {len(es)}")
        # Connectivity plus the edge count above implies acyclicity.
        adj: dict[int, list[int]] = {v: [] for v in vs}
        for u, v in es:
            adj[u].append(v)
            adj[v].append(u)
        seen = {vs[0]}
        stack = [vs[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(vs):
            raise ValueError("tree is not connected")
        self.host_n = host_n
        self.vertices = vs
        self.edges = es

    @classmethod
    def single_vertex(cls, host_n: int, v: int) -> "Tree":
        return cls(host_n, (v,), ())

    @classmethod
    def from_path(cls, host_n: int, vertices: Iterable[int]) -> "Tree":
        vs = tuple(vertices)
        return cls(host_n, vs, [(vs[i], vs[i + 1]) for i in range(len(vs) - 1)])

    @property
    def vertex_mask(self) -> int:
        return mask_of(self.vertices)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def _degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertices}
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def leaves(self) -> VertexSet:
        """Vertices of degree exactly one; a one-vertex tree has none."""
        deg = self._degrees()
        return VertexSet.from_vertices(self.host_n, (v for v, d in deg.items() if d == 1))

    def branch_vertices(self) -> VertexSet:
        """Vertices of degree at least three."""
        deg = self._degrees()
        return VertexSet.from_vertices(self.host_n, (v for v, d in deg.items() if d >= 3))

    @property
    def leaf_count(self) -> int:
        return len(self.leaves())

    @property
    def branch_count(self) -> int:
        return len(self.branch_vertices())

    def covers(self, subset: VertexSet) -> bool:
        return subset.mask & ~self.vertex_mask == 0

    def validate_in(self, graph: Graph) -> None:
        if graph.n != self.host_n:
            raise ValueError("tree host size does not match graph")
        for u, v in self.edges:
            if not graph.has_edge(u, v):
                raise ValueError(f"tree edge ({u}, {v}) is not a graph edge")

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
