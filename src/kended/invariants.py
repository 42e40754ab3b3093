"""Exact subset invariants: independence numbers and local/set connectivity.

Every result is a function of the graph and subset alone. Independence numbers
use branch-and-bound over bitmask candidate sets, or one branching step over
two smaller subsets where the memo holds both. Connectivity is unit-capacity
max flow on the vertex-split digraph (Even & Tarjan 1975), so values are exact
Menger counts; the residual network is one bitmask per split node, and the flow
stops at min(deg x, deg y). Every x-y path uses its own neighbour of x and of
y, so disjoint paths of at most 3 edges that reach min(deg x, deg y) settle a
pair without a flow, as they do for most pairs of a dense graph.

alpha and kappa are memoized once per graph, on the Graph itself, and only
here: subset_alpha keeps alpha by mask, each entry from alpha_mask or from
two entries before it, and subset_kappa, the one pair-minimum loop, keeps
kappa and its pair by mask and each pair's flow, so every caller on a graph
(sweep, construction, CLI) shares one store. A
pair's flow is at least [xy is an edge] + |N(x) & N(y)|, the paths it routes
first, and only a smaller value replaces the running minimum, so a pair
whose bound reaches it is skipped, stores nothing, and cannot change the
value or the first pair. With S = s_0 < s_1 < ..., the first minimizing pair
starts at or before s_kappa (Even's stopping rule, 1975), so the loop ends
once its first vertex reaches s_best for the running minimum best.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

from .errors import CapExceededError
from .graphs import Graph, VertexSet, iter_bits

DEFAULT_ENUMERATION_CAP = 10**6


@functools.total_ordering
class ConnectivityValue:
    """A non-negative integer, or the distinguished infinite value used when |S| <= 1.

    Infinite compares greater than every integer and is never a sentinel
    number; serialization uses the JSON string "infinity". It compares with
    ints and with other values; `functools.total_ordering` derives <=, > and
    >= from == and <.
    """

    __slots__ = ("finite",)

    INFINITE: "ConnectivityValue"

    def __init__(self, finite: int | None) -> None:
        if finite is not None:
            if finite < 0:
                raise ValueError("connectivity cannot be negative")
            finite = int(finite)
        self.finite = finite

    @property
    def is_infinite(self) -> bool:
        return self.finite is None

    @staticmethod
    def _key(value: object) -> float | None:
        """The order key of a ConnectivityValue or an int; None for any other type."""
        if isinstance(value, ConnectivityValue):
            return float("inf") if value.finite is None else float(value.finite)
        return float(value) if isinstance(value, int) else None

    def __eq__(self, other: object) -> bool:
        key = self._key(other)
        return NotImplemented if key is None else self._key(self) == key

    def __lt__(self, other: object) -> bool:
        key = self._key(other)
        return NotImplemented if key is None else self._key(self) < key

    def __hash__(self) -> int:
        return hash(self._key(self))

    def to_json(self) -> int | str:
        return "infinity" if self.finite is None else self.finite

    def __repr__(self) -> str:
        return "ConnectivityValue(infinite)" if self.finite is None else f"ConnectivityValue({self.finite})"

    def __str__(self) -> str:
        return "infinity" if self.finite is None else str(self.finite)


ConnectivityValue.INFINITE = ConnectivityValue(None)


@dataclass(frozen=True)
class IndependenceWitness:
    """Exact independence number of S in G together with one maximum witness set."""

    size: int
    witness: VertexSet


def alpha_mask(graph: Graph, smask: int) -> tuple[int, int]:
    """Exact maximum independent subset of the vertices in smask: (size, witness mask).

    Branch and bound: pick the candidate vertex with the most candidate
    neighbors, branch on include/exclude, bound by the remaining candidate
    count. Deterministic (include-first, lowest-index tie break).
    """
    rows = graph.rows
    closed = [rows[v] | (1 << v) for v in range(graph.n)]
    best_size = 0
    best_mask = 0

    def grow(cand: int, size: int, chosen: int) -> None:
        nonlocal best_size, best_mask
        if size + cand.bit_count() <= best_size:
            return
        pivot = -1
        pivot_deg = -1
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            d = (rows[v] & cand).bit_count()
            if d > pivot_deg:
                pivot_deg = d
                pivot = v
            m ^= low
        if pivot_deg <= 0:
            # remaining candidates are pairwise non-adjacent; take them all
            best_size = size + cand.bit_count()
            best_mask = chosen | cand
            return
        grow(cand & ~closed[pivot], size + 1, chosen | (1 << pivot))
        grow(cand & ~(1 << pivot), size, chosen)

    try:
        grow(smask, 0, 0)
    finally:
        del grow    # a nested search that names itself is a cycle only the collector frees
    return best_size, best_mask


def subset_alpha(graph: Graph, smask: int) -> int:
    """alpha_G(S) for the S in smask, from the graph's memo.

    A missing mask takes the branching step on the lowest vertex v of S,
    alpha(S) = max(alpha(S - v), 1 + alpha(S - N[v])) (Tarjan & Trojanowski,
    SIAM J. Comput. 1977), when the memo holds both; otherwise alpha_mask
    decides it. Either way each mask is computed once per graph. The empty
    set is not seeded, so alpha_mask still decides the singletons and each
    sweep meets both routes.
    """
    memo = graph._alpha
    alpha = memo.get(smask)
    if alpha is None:
        low = smask & -smask
        without = memo.get(smask ^ low)
        apart = None if without is None else memo.get(smask & ~graph.rows[low.bit_length() - 1] & ~low)
        if apart is None:
            alpha = alpha_mask(graph, smask)[0]
        else:
            # S - N[v] lies in S - v, so apart <= without
            alpha = apart + 1 if apart == without else without
        memo[smask] = alpha
    return alpha


def independence_number(graph: Graph, subset: VertexSet) -> IndependenceWitness:
    """Maximum cardinality of an independent-in-G subset of S, with a witness."""
    smask = graph.subset_mask(subset)
    size, witness = alpha_mask(graph, smask)
    return IndependenceWitness(size, VertexSet(graph.n, witness))


def maximum_independent_masks(graph: Graph, smask: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[int]:
    """All maximum independent subsets of smask, as masks sorted ascending.

    Raises CapExceededError past `cap` rather than truncating, because callers
    rely on the list being complete.
    """
    alpha = subset_alpha(graph, smask)
    if alpha == 0:
        return [0]
    rows = graph.rows
    closed = [rows[v] | (1 << v) for v in range(graph.n)]
    out: list[int] = []

    def rec(cand: int, chosen: int, size: int) -> None:
        if size == alpha:
            out.append(chosen)
            if len(out) > cap:
                raise CapExceededError(f"more than {cap} maximum independent subsets")
            return
        if size + cand.bit_count() < alpha:
            return
        low = cand & -cand
        v = low.bit_length() - 1
        rec(cand & ~closed[v], chosen | low, size + 1)
        rec(cand ^ low, chosen, size)

    try:
        rec(smask, 0, 0)
    finally:
        del rec    # a nested search that names itself is a cycle only the collector frees
    out.sort()
    return out


def local_connectivity(graph: Graph, x: int, y: int) -> int:
    """Maximum number of internally disjoint x-y paths (exact, via unit-capacity flow).

    The short paths come first: the direct edge, one path through each common
    neighbour, and x-a-b-y paths. For those, each private neighbour a of the
    end with fewer of them (a neighbour of that end only, not the other end
    itself) takes, in index order, the lowest free private neighbour b of the
    other end with ab an edge. The paths are disjoint, and each uses its own
    neighbour of x and of y, so if every a finds a b they number
    min(deg x, deg y), which no set of disjoint paths exceeds, and that is
    the value. Otherwise the flow below runs, reusing all but the x-a-b-y paths.

    Every vertex v other than x and y is split into an in-node v and an
    out-node n + v joined by a unit arc; each edge uv becomes unit arcs
    n + u -> v and n + v -> u. No two arcs are antiparallel, so the residual
    network is one bitmask per node: res[a] holds the b whose arc a -> b has
    capacity left. Flow from n + x to y first takes the shortest paths, the
    direct edge and one through each common neighbour, then one path per
    level-synchronous BFS over node masks. Each path has its own edge at x
    and at y, so the search stops once the flow reaches min(deg x, deg y).
    """
    n = graph.n
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError("endpoint out of range")
    if x == y:
        raise ValueError("local connectivity needs two distinct vertices")
    rows = graph.rows
    row_x, row_y = rows[x], rows[y]
    common = row_x & row_y
    near = row_x & ~common & ~(1 << y)
    far = row_y & ~common & ~(1 << x)
    if near.bit_count() > far.bit_count():
        near, far = far, near
    # [xy] + |common| + |near|, reached when every near vertex finds a far one
    limit = min(row_x.bit_count(), row_y.bit_count())
    m = near
    while m:
        low = m & -m
        b = rows[low.bit_length() - 1] & far
        if not b:
            break
        far ^= b & -b
        m ^= low
    else:
        return limit
    res = [1 << (n + v) for v in range(n)] + list(rows)
    out_x = n + x
    flow = (row_x >> y) & 1
    res[x] = 0
    res[y] = flow << out_x
    res[out_x] ^= flow << y
    for w in iter_bits(common):
        res[out_x] ^= 1 << w
        res[w] = 1 << out_x
        res[n + w] ^= (1 << y) | (1 << w)
        res[y] |= 1 << (n + w)
        flow += 1
    while flow < limit:
        levels = [1 << out_x]
        seen = frontier = levels[0]
        while not (frontier >> y) & 1:
            reach = 0
            m = frontier
            while m:
                low = m & -m
                reach |= res[low.bit_length() - 1]
                m ^= low
            frontier = reach & ~seen
            if not frontier:
                return flow
            seen |= frontier
            levels.append(frontier)
        b = y
        for level in reversed(levels[:-1]):
            # the lowest-index node of this level with capacity left into b
            m = level
            a = (m & -m).bit_length() - 1
            while not (res[a] >> b) & 1:
                m &= m - 1
                a = (m & -m).bit_length() - 1
            res[a] ^= 1 << b
            res[b] |= 1 << a
            b = a
        flow += 1
    return flow


def subset_kappa(graph: Graph, smask: int) -> tuple[ConnectivityValue, tuple[int, int] | None]:
    """Minimum local connectivity over distinct pairs of the S in smask, with the
    first minimizing pair in lexicographic order, from the graph's memo.

    Infinite (and no pair) when |S| <= 1; zero when some pair lies in
    different components. Each pair's flow runs at most once per graph; a
    pair whose lower bound already reaches the running minimum runs no flow
    and is not stored.

    Even's stopping rule (SIAM J. Comput. 4, 1975): with S = s_0 < s_1 < ...
    and running minimum best, the loop ends once x reaches s_best (at once
    for best = 0). It is exact. Let kappa_G(S) = c, reached by the pair
    (u, v). There is a set X of c vertices such that every vertex of S
    outside X is in a pair of value c. If uv is no edge, X is a minimum u-v
    separator, and a vertex z of S outside X is cut off from u or from v, so
    one of its pairs has value at most, hence exactly, c. If uv is an edge,
    X is a u-v separator of G - uv (size c - 1) plus v, and z other than u is
    cut off from u by X or from v by X - v + u. Among s_0, ..., s_c one
    vertex lies outside X, so the first minimizing pair starts at or before
    s_c. While best > c, s_c comes before s_best, so the loop reaches that
    pair, and from then on best = c and the pair is found.
    """
    found = graph._kappa.get(smask)
    if found is not None:
        return found
    flows = graph._flows
    rows = graph.rows
    members = list(iter_bits(smask))
    best: int | None = None
    best_pair: tuple[int, int] | None = None
    stop = graph.n  # no cut-off until a minimum is known
    for x, y in combinations(members, 2):
        if x >= stop:
            break
        value = flows.get((x, y))
        if value is None:
            # the direct edge and the common neighbours are disjoint paths
            if best is not None and ((rows[x] >> y) & 1) + (rows[x] & rows[y]).bit_count() >= best:
                continue
            value = flows[(x, y)] = local_connectivity(graph, x, y)
        if best is None or value < best:
            best, best_pair = value, (x, y)
            if best < len(members):
                stop = members[best]
    kappa = ConnectivityValue.INFINITE if best is None else ConnectivityValue(best)
    found = graph._kappa[smask] = kappa, best_pair
    return found


def set_connectivity_pair(graph: Graph, subset: VertexSet) -> tuple[ConnectivityValue, tuple[int, int] | None]:
    """subset_kappa for a VertexSet, after checking that it indexes this graph's vertices."""
    return subset_kappa(graph, graph.subset_mask(subset))


def set_connectivity(graph: Graph, subset: VertexSet) -> ConnectivityValue:
    return set_connectivity_pair(graph, subset)[0]
