"""Named graph families, seeded random graphs and small-graph enumeration."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import CapExceededError
from .graphs import Graph, VertexSet

DEFAULT_ENUM_CAP = 6

FAMILIES = ("complete", "cycle", "path", "complete-bipartite", "petersen", "random-gnp")

_ALIASES = {"kmm": "complete-bipartite", "gnp": "random-gnp"}


@dataclass(frozen=True)
class GraphFamilySpec:
    """A named family plus its numeric parameters, e.g. ("complete-bipartite", (2, 3))."""

    family: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")

    @property
    def order(self) -> float:
        """The vertex count of the graph this spec builds, read from the parameters alone."""
        if self.family == "complete-bipartite":
            return 2 * self.params[0] + self.params[1]
        return self.params[0] if self.params else 10    # petersen takes none


def parse_family_spec(text: str) -> GraphFamilySpec:
    """Parse CLI family strings like "kmm 2 3", "cycle 5", "gnp 8 0.5 7", "petersen"."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty family spec")
    name = _ALIASES.get(tokens[0].lower(), tokens[0].lower())
    args = tokens[1:]
    arity = {
        "complete": 1,
        "cycle": 1,
        "path": 1,
        "complete-bipartite": 2,
        "petersen": 0,
        "random-gnp": 3,
    }
    if name not in arity:
        raise ValueError(f"unknown family {tokens[0]!r}")
    if len(args) != arity[name]:
        raise ValueError(f"family {name!r} takes {arity[name]} parameter(s), got {len(args)}")
    params: list[float] = []
    for i, a in enumerate(args):
        # only the gnp probability is real-valued
        if name == "random-gnp" and i == 1:
            params.append(float(a))
        else:
            params.append(int(a))
    return GraphFamilySpec(name, tuple(params))


def make_family(spec: GraphFamilySpec) -> tuple[Graph, VertexSet | None]:
    """Build the graph for a family spec.

    Deterministic families are built directly; random-gnp is reproducible from
    its seed. complete-bipartite(m, k) builds the graph with parts |A| = m and
    |B| = m + k and additionally returns S = B (the second part); every other
    family returns None for the subset.
    """
    name = spec.family
    if name == "complete":
        (n,) = spec.params
        n = _nat(n, "n")
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph.from_edges(n, edges), None
    if name == "cycle":
        (n,) = spec.params
        n = _nat(n, "n")
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]), None
    if name == "path":
        (n,) = spec.params
        n = _nat(n, "n")
        if n < 1:
            raise ValueError("path needs n >= 1")
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]), None
    if name == "complete-bipartite":
        m, k = spec.params
        m = _nat(m, "m")
        k = _nat(k, "k")
        if m < 1 or k < 0:
            raise ValueError("complete-bipartite needs m >= 1 and k >= 0")
        b = m + k
        edges = [(a, m + j) for a in range(m) for j in range(b)]
        graph = Graph.from_edges(m + b, edges)
        subset = VertexSet.from_vertices(m + b, range(m, m + b))
        return graph, subset
    if name == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return Graph.from_edges(10, outer + spokes + inner), None
    if name == "random-gnp":
        n, p, seed = spec.params
        n = _nat(n, "n")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"edge probability {p} outside [0, 1]")
        rng = random.Random(int(seed))
        return random_gnp(n, p, rng), None
    raise AssertionError(f"unhandled family {name}")


def _nat(x: float, name: str) -> int:
    if x != int(x) or x < 0:
        raise ValueError(f"parameter {name} must be a non-negative integer, got {x}")
    return int(x)


def random_gnp(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p) with one rng draw per vertex pair, pairs in lexicographic order."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def enumerate_connected_labeled_graphs(n: int, cap: int = DEFAULT_ENUM_CAP) -> Iterator[Graph]:
    """Every connected labeled simple graph on n vertices, exactly once.

    Order is lexicographic over the edge bitmask, where bit i corresponds to
    the i-th pair in lexicographic pair order (0,1), (0,2), ..., (n-2, n-1).
    No isomorphism rejection is performed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise CapExceededError(f"enumeration capped at n <= {cap}, got {n}")
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        m = mask
        while m:
            low = m & -m
            u, v = pairs[low.bit_length() - 1]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m ^= low
        graph = Graph(n, rows)
        if graph.is_connected():
            yield graph
