"""Bitmask-backed types for simple graphs, vertex subsets and trees.

Vertices are dense 0-based integers. Every set-like quantity is an int used
as a bit-vector, which keeps the exhaustive searches cheap at desk scale.
A path is the tuple of its vertices in order; its tree is `Tree.from_path`
or `Graph.path_tree`, checked against the graph by `Graph.check_tree`. All
three types are immutable after construction and safe to share across
concurrent workers. A graph fills these memos lazily, each a pure function of
the adjacency rows:
- the connectivity flag;
- the path planes (`path_planes`);
- the path trees, one `Tree` per path set, of the first path on it
  (`path_tree`), shared by the covering search and the construction's base
  path;
- the minimum-leaf planes (`min_leaves`);
- the subset invariants: alpha by mask, pair flows and kappa by mask, read
  and written only by `invariants`;
- the trees already checked against the graph (`check_tree`).

Both tables are bit planes, ints in which bit m stands for the vertex mask m,
so one int operation acts on all 2**n masks: a plane per path end and one per
leaf count, built by one fixpoint kernel (`_close`), the vertex and size
planes (`_vertex_planes`) and the down-closure (`_down_closure`). Only this
module reads a plane; callers ask by size or vertex mask: `first_paths`,
`covering_set`, `path_tree` and `min_leaves`.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InternalInvariantError


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


@functools.lru_cache(maxsize=None)
def _vertex_planes(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(without, within, sizes) over the 2**n masks on n vertices: bit m of
    without[v] is set iff m lacks v, within[v] is its complement, and bit m of
    sizes[j] is set iff m has j bits."""
    every = (1 << (1 << n)) - 1
    # without[v] repeats 2**v ones then 2**v zeros; the quotient puts a one at
    # the start of each period of 2**(v + 1) bits
    without = tuple(((1 << (1 << v)) - 1) * (every // ((1 << (2 << v)) - 1)) for v in range(n))
    # the j-bit masks on v + 1 vertices: those on v, and the (j - 1)-bit ones plus v
    sizes = [1]
    for v in range(n):
        sizes = [low | high << (1 << v) for low, high in zip(sizes + [0], [0] + sizes)]
    return without, tuple(every ^ plane for plane in without), tuple(sizes)


def _down_closure(plane: int, within: tuple[int, ...]) -> int:
    """The plane closed under removing vertices: every submask of its masks."""
    for v, inside in enumerate(within):
        plane |= (plane & inside) >> (1 << v)
    return plane


def _close(planes: list[int], rows: tuple[int, ...], nbrs: list[list[int]], without: tuple[int, ...],
           unseen: int) -> list[int]:
    """Grow the seed planes in place to their least fixpoint, where planes[v]
    holds the masks of paths that end at v and gains ((OR of planes[u],
    u ~ v) & without[v]) << 2**v & unseen: a path ending at a neighbour of v,
    on a mask without v, plus v, a shift of the plane by 2**v.

    Sweeps v up, then down, alternately, updating each plane from the current
    ones of its neighbours, so one sweep extends a path along a whole
    monotone run of its vertices; `stale` holds the vertices with a neighbour
    changed since their last update. Update order cannot change a least
    fixpoint, so the planes are those of one step per path length."""
    order = list(range(len(planes)))
    stale = (1 << len(planes)) - 1
    while stale:
        for v in order:
            if stale >> v & 1:
                stale ^= 1 << v
                near = 0
                for u in nbrs[v]:
                    near |= planes[u]
                grown = planes[v] | (near & without[v]) << (1 << v) & unseen
                if grown != planes[v]:
                    planes[v] = grown
                    stale |= rows[v]
        order.reverse()
    return planes


def _path_planes(rows: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The Held-Karp endpoint table (Held & Karp 1962) as the bit planes
    (ends, spans) described at `Graph.path_planes`, closed by `_close` from
    the one-vertex paths."""
    n = len(rows)
    nbrs = [list(iter_bits(row)) for row in rows]
    ends = _close([1 << (1 << v) for v in range(n)], rows, nbrs, _vertex_planes(n)[0], -1)
    return tuple(ends), functools.reduce(operator.or_, ends, 0)


def _min_leaf_planes(rows: tuple[int, ...], spans: int) -> tuple[int, ...]:
    """Plane j holds the masks that some tree with at most j leaves covers,
    from j = 0 up to the least j whose plane holds every mask a tree covers.

    `trees` holds the vertex sets of the trees with at most j leaves, the
    path sets for j = 2. Cutting a pendant path off a tree with 3 or more
    leaves removes one leaf, so the sets new at level j grow a pendant path
    from each vertex with `_close`, whose plane v starts as the sets new at
    level j - 1 that hold v. A mask already in `trees` is left out of the
    growth: it grows from its own level. Each plane is closed under removing
    vertices, a superset minimum (Bjorklund, Husfeldt, Kaski & Koivisto 2007).
    """
    n = len(rows)
    without, within = _vertex_planes(n)[:2]
    nbrs = [list(iter_bits(row)) for row in rows]
    planes = [_down_closure(sum(1 << (1 << v) for v in range(n)), within)] * 2 + [_down_closure(spans, within)]
    trees = fresh = spans
    while fresh:
        unseen = ~trees
        grown = _close([fresh & plane for plane in within], rows, nbrs, without, unseen)
        fresh = functools.reduce(operator.or_, grown, 0) & unseen
        if fresh:
            trees |= fresh
            planes.append(planes[-1] | _down_closure(fresh, within))
    return tuple(planes)


class Graph:
    """Finite simple undirected graph with one adjacency bitmask per vertex.

    Invariants enforced on every construction path: adjacency is symmetric,
    no vertex is self-adjacent, and no row has bits at or beyond index n.
    """

    __slots__ = ("n", "rows", "_connected", "_paths", "_path_trees", "_min_leaves", "_alpha", "_flows", "_kappa",
                 "_checked")

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
        self._paths: tuple[tuple[int, ...], int] | None = None
        self._path_trees: dict[int, Tree] = {}
        self._min_leaves: tuple[int, ...] | None = None
        self._alpha: dict[int, int] = {}
        self._flows: dict[tuple[int, int], int] = {}
        self._kappa: dict[int, tuple] = {}
        self._checked: dict[int, Tree] = {}

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

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            for v in iter_bits(row):
                out.append((u, v))
        return out

    def component_mask(self, start: int) -> int:
        """Bitmask of the vertices reachable from start."""
        comp = 1 << start
        frontier = comp
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= self.rows[v]
            frontier = grow & ~comp
            comp |= frontier
        return comp

    def path_planes(self) -> tuple[tuple[int, ...], int]:
        """The Held-Karp path table of this graph as bit planes, built on first use.

        A plane is an int in which bit m stands for the vertex mask m. Returns
        (ends, spans): bit m of ends[v] is set iff some path with vertex set
        exactly m ends at v, and spans is the union of the ends planes, the
        vertex sets of paths. Each plane has 2**n bits, so callers cap n first.
        """
        if self._paths is None:
            self._paths = _path_planes(self.rows)
        return self._paths

    def first_paths(self, size: int) -> Iterator[list[int]]:
        """The lexicographically first path on each vertex set of a path on
        `size` vertices, in lexicographic order; nothing where no such set
        exists.

        Each path is one walk over the goal plane, bit m for each path set m
        of that size not yet yielded, and its set is cleared from the plane
        after it is yielded. The walk never backtracks. With P the set
        visited so far, `rest` is the plane of the remainders g - P of the
        goals g that P can still reach. The walk takes the lowest candidate
        u (any vertex first, then a neighbour of the last vertex) for which
        some remainder is the set of a path that ends at u, `rest & ends[u]`,
        and keeps those remainders, minus u: a shift by 2**u. A remainder
        never holds a visited vertex, so visited neighbours fail the test by
        themselves.
        """
        ends, spans = self.path_planes()
        goals = spans & _vertex_planes(self.n)[2][size]
        while goals:
            seq = self._walk(ends, goals)
            yield seq
            goals ^= 1 << mask_of(seq)

    def _walk(self, ends: tuple[int, ...], rest: int) -> list[int]:
        """The `first_paths` walk from a nonzero goal plane `rest`."""
        seq: list[int] = []
        cand = self.full_mask
        while not rest & 1:
            kept = 0
            while cand and not kept:
                u = (cand & -cand).bit_length() - 1
                kept = rest & ends[u]
                cand &= cand - 1
            if not kept:
                raise InternalInvariantError("the path planes lost the path to a goal")
            rest = kept >> (1 << u)
            seq.append(u)
            cand = self.rows[u]
        return seq

    def covering_set(self, smask: int) -> int | None:
        """The least path set containing smask, the lowest bit of the spans
        plane ANDed with the within planes of smask, or None if none does."""
        spans = self.path_planes()[1]
        if spans >> smask & 1:
            return smask
        within = _vertex_planes(self.n)[1]
        for v in iter_bits(smask):
            spans &= within[v]
        return (spans & -spans).bit_length() - 1 if spans else None

    def path_tree(self, pmask: int, seq: Iterable[int] | None = None) -> Tree:
        """The tree of the first path on the path set pmask, built on first use
        and then shared: each subset whose covering set or base path is pmask
        gets this one object. A caller that holds that first path passes it as
        seq, which spares the `first_paths` walk from the one goal pmask."""
        tree = self._path_trees.get(pmask)
        if tree is None:
            if seq is None:
                seq = self._walk(self.path_planes()[0], 1 << pmask)
            tree = self._path_trees[pmask] = Tree.from_path(self.n, seq)
        return tree

    def check_tree(self, tree: Tree) -> None:
        """Check once per tree object that every tree edge is a graph edge, else
        raise InternalInvariantError. An id vouches only for the tree kept under it."""
        if self._checked.get(id(tree)) is tree:
            return
        try:
            tree.validate_in(self)
        except ValueError as exc:
            raise InternalInvariantError(str(exc)) from exc
        self._checked[id(tree)] = tree

    def min_leaves(self, smask: int) -> int:
        """The least leaf count of a tree covering smask (0 for one vertex),
        or n + 1 where no tree covers it.

        Reads the minimum-leaf planes, built on first use: plane j holds the
        masks that some tree with at most j leaves covers, 2**n bits each, so
        callers cap n first.
        """
        if self._min_leaves is None:
            self._min_leaves = _min_leaf_planes(self.rows, self.path_planes()[1])
        for j, plane in enumerate(self._min_leaves):
            if plane >> smask & 1:
                return j
        return self.n + 1

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

    def to_list(self) -> list[int]:
        return list(iter_bits(self.mask))


class Tree:
    """An acyclic connected subgraph of a host graph, with leaf and branch masks.

    The constructor enforces the tree axioms (edge count, connectivity, edges
    within the vertex set) and stores the tree as masks: `vertex_mask`, one
    tree-adjacency mask per host vertex, and the leaf (degree one) and branch
    (degree at least three) masks, so every degree query is a popcount. The
    sorted `vertices` and `edges` tuples are kept for equality, hashing and
    serialization. `from_path` and `single_vertex` build a path's masks
    directly, since a sequence of distinct in-range vertices needs none of
    those checks; any other sequence, an empty one included, is refused with
    ValueError. `validate_in` additionally checks that every edge exists in a
    concrete host graph.
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
        self._store(host_n, vs, es, vmask, adj, leaf, branch)

    def _store(self, host_n: int, vs: tuple[int, ...], es: tuple[tuple[int, int], ...], vmask: int,
               adj: list[int], leaf: int, branch: int) -> None:
        self.host_n = host_n
        self.vertices = vs
        self.edges = es
        self.vertex_mask = vmask
        self.adjacency = tuple(adj)
        self.leaf_mask = leaf
        self.branch_mask = branch

    @classmethod
    def single_vertex(cls, host_n: int, v: int) -> "Tree":
        return cls.from_path(host_n, (v,))

    @classmethod
    def from_path(cls, host_n: int, vertices: Iterable[int]) -> "Tree":
        """The path through `vertices` in order, as a tree.

        Distinct in-range vertices, at least one, always make a tree, so the
        masks are built in one pass along the path; any other sequence goes
        through the general constructor, which raises its usual ValueError.
        """
        vs = tuple(vertices)
        if vs and min(vs) >= 0 and max(vs) < host_n:
            adj = [0] * host_n
            es = []
            u = vs[0]
            vmask = 1 << u
            for v in vs[1:]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                vmask |= 1 << v
                es.append((u, v) if u < v else (v, u))
                u = v
            if vmask.bit_count() == len(vs):    # no repeated vertex
                es.sort()
                tree = cls.__new__(cls)
                tree._store(host_n, tuple(sorted(vs)), tuple(es), vmask, adj,
                            1 << vs[0] | 1 << u if es else 0, 0)
                return tree
        return cls(host_n, vs, list(zip(vs, vs[1:])))

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
