"""Independent output checks for the benchmark.

Nothing here imports kended. Graphs are decoded from their graph6 ids with
this file's own decoder, and every witness tree is re-validated with this
file's own code: it must be a tree in G, cover S and keep within the leaf or
branch budget of its claim. The implementation-independent fields of each
verdict (claim, graph6, S, k, alpha, kappa, hypothesis, conclusion) are hashed
per graph and compared with the reference recorded at the seed commit; the
full stream, witnesses included, is hashed per unit and compared for
information only.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations


def decode_graph6(record: str) -> tuple[int, list[int]]:
    """(n, adjacency bitmask rows) of a short-form graph6 record."""
    n = ord(record[0]) - 63
    bits = []
    for ch in record[1:]:
        value = ord(ch) - 63
        bits.extend((value >> (5 - i)) & 1 for i in range(6))
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return n, rows


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def independence(rows: list[int], smask: int) -> int:
    """Largest independent subset of smask, by include/exclude on the lowest vertex."""
    if smask == 0:
        return 0
    low = smask & -smask
    v = low.bit_length() - 1
    rest = smask ^ low
    return max(1 + independence(rows, rest & ~rows[v]), independence(rows, rest))


def is_independent(rows: list[int], mask: int) -> bool:
    return all(rows[v] & mask == 0 for v in members(mask))


def _reaches(rows: list[int], x: int, y: int, blocked: int) -> bool:
    seen = 1 << x
    frontier = seen
    while frontier:
        grow = 0
        for v in members(frontier):
            grow |= rows[v]
        if (grow >> y) & 1:
            return True
        frontier = grow & ~seen & ~blocked
        seen |= frontier
    return False


def local_connectivity(rows: list[int], x: int, y: int) -> int:
    """Internally disjoint x-y paths, by Menger: the smallest separating vertex set.

    A direct x-y edge counts as one path and is removed before cutting.
    """
    n = len(rows)
    direct = (rows[x] >> y) & 1
    if direct:
        rows = list(rows)
        rows[x] &= ~(1 << y)
        rows[y] &= ~(1 << x)
    others = [v for v in range(n) if v != x and v != y]
    for size in range(len(others) + 1):
        for cut in combinations(others, size):
            if not _reaches(rows, x, y, mask_of(cut)):
                return size + direct
    raise AssertionError("unreachable: removing every other vertex separates x and y")


def tree_problem(rows: list[int], tree: dict, smask: int) -> tuple[str | None, int, int, int]:
    """(problem or None, vertex mask, leaves, branch vertices) of a serialized tree."""
    vertices = tree["vertices"]
    edges = tree["edges"]
    n = len(rows)
    vmask = mask_of(vertices)
    if not vertices or len(set(vertices)) != len(vertices) or any(not 0 <= v < n for v in vertices):
        return "bad vertex list", vmask, 0, 0
    if len(edges) != len(vertices) - 1:
        return "edge count is not |V| - 1", vmask, 0, 0
    adj = {v: 0 for v in vertices}
    for u, v in edges:
        if u not in adj or v not in adj or u == v:
            return "edge leaves the vertex set", vmask, 0, 0
        if not (rows[u] >> v) & 1:
            return "edge is not in G", vmask, 0, 0
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    seen = 1 << vertices[0]
    frontier = seen
    while frontier:
        grow = 0
        for v in members(frontier):
            grow |= adj[v]
        frontier = grow & ~seen
        seen |= frontier
    if seen != vmask:
        return "not connected", vmask, 0, 0
    if smask & ~vmask:
        return "does not cover S", vmask, 0, 0
    degrees = [a.bit_count() for a in adj.values()]
    leaves = sum(1 for d in degrees if d == 1)
    branch = sum(1 for d in degrees if d >= 3)
    return None, vmask, leaves, branch


def kappa_text(value) -> str:
    return "inf" if value == "infinity" else str(value)


def independent_line(vj: dict) -> str:
    """The implementation-independent fields of one serialized verdict."""
    return "|".join((
        vj["claim"], vj["graph_id"], ",".join(map(str, vj["S"])), str(vj["k"]),
        str(vj["alpha"]), kappa_text(vj["kappa"]),
        str(int(vj["hypothesis_holds"])), str(int(vj["conclusion_holds"])),
    ))


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def verdict_problem(vj: dict, rows: list[int], cache: dict) -> str | None:
    """Re-validate one serialized verdict's witness against its claim; None if sound."""
    claim = vj["claim"]
    k = vj["k"]
    smask = mask_of(vj["S"])
    witness = vj["witness"]
    concl = vj["conclusion_holds"]
    if claim in ("kended-cover", "branch-cover", "hamiltonian-path"):
        if concl != (witness is not None):
            return f"{claim}: conclusion and witness disagree"
        if witness is None:
            return None
    elif claim == "residual-bound":
        if not concl or witness is None:
            return "residual-bound: the claim is a theorem, its conclusion must hold"
    else:
        return f"unknown claim {claim!r}"
    # A residual-bound tree need not cover S, so its S coverage is checked below.
    checked = smask if claim != "residual-bound" else 0
    key = (tuple(witness["vertices"]), tuple(map(tuple, witness["edges"])), checked)
    if key not in cache:
        cache[key] = tree_problem(rows, witness, checked)
    problem, vmask, leaves, branch = cache[key]
    if problem:
        return f"{claim} witness: {problem}"
    if claim == "kended-cover" and leaves > k:
        return f"kended-cover witness has {leaves} leaves, budget {k}"
    if claim == "branch-cover" and branch > k - 2:
        return f"branch-cover witness has {branch} branch vertices, budget {k - 2}"
    if claim == "hamiltonian-path" and (vmask != (1 << len(rows)) - 1 or branch or leaves > 2):
        return "hamiltonian-path witness is not a spanning path"
    if claim == "residual-bound":
        if leaves > k:
            return f"residual-bound tree has {leaves} leaves, budget {k}"
        detail = vj["detail"] or {}
        if detail.get("covering"):
            if smask & ~vmask:
                return "residual-bound covering tree does not cover S"
        else:
            if vj["kappa"] == "infinity":
                return "residual-bound: non-covering outcome with infinite kappa"
            bound = vj["alpha"] - vj["kappa"] - k + 1
            residual = independence(rows, smask & ~vmask)
            if residual > bound or detail.get("residual_alpha") != residual:
                return f"residual-bound: residual alpha {residual} against bound {bound}"
    return None


class StreamChecker:
    """Checks a verdict stream graph by graph against per-graph reference digests."""

    def __init__(self, expected: list[str]) -> None:
        self.expected = expected
        self.graphs = 0
        self.failed = 0
        self.problems: list[str] = []
        self.full = hashlib.sha256()
        self._lines: list[str] = []
        self._problem: str | None = None
        self._graph_id: str | None = None
        self._rows: list[int] = []
        self._cache: dict = {}

    def add(self, vj: dict) -> bool:
        """Take one serialized verdict; True when it closes its graph."""
        self.full.update(json.dumps(vj, sort_keys=True).encode())
        if vj["graph_id"] != self._graph_id:
            self._graph_id = vj["graph_id"]
            self._rows = decode_graph6(vj["graph_id"])[1]
            self._cache = {}
        self._lines.append(independent_line(vj))
        if self._problem is None:
            self._problem = verdict_problem(vj, self._rows, self._cache)
        if vj["claim"] != "hamiltonian-path":
            return False
        digest = short_digest("\n".join(self._lines))
        index = self.graphs
        if self._problem is None:
            if index >= len(self.expected):
                self._problem = "more graphs than the reference"
            elif digest != self.expected[index]:
                self._problem = "verdict fields differ from the reference"
        if self._problem is not None:
            self.failed += 1
            self.problems.append(f"graph {index} ({vj['graph_id']}): {self._problem}")
        self.graphs += 1
        self._lines = []
        self._problem = None
        return True

    def finish(self, error: str | None = None) -> None:
        """Count graphs the reference expects but the stream never delivered."""
        missing = len(self.expected) - self.graphs
        if missing > 0:
            self.failed += missing
            self.problems.append(f"{missing} graphs missing" + (f" after {error}" if error else ""))


def check_request(ref: dict, exit_code, document: dict | None, sources: dict) -> str | None:
    """Check one CLI request's exit code and report against its reference; None if sound."""
    if exit_code != ref["exit"]:
        return f"exit code {exit_code}, expected {ref['exit']}"
    if document is None:
        return "no JSON report on stdout"
    if document["inputs"].get("graph6") != ref.get("graph6"):
        return "input graph differs from the reference"
    results = document["results"]
    for key, value in ref["fields"].items():
        if results.get(key) != value:
            return f"{key} = {results.get(key)!r}, expected {value!r}"
    command = document["command"]
    if command == "sharpness":
        return None
    graph6 = document["inputs"]["graph6"]
    rows = sources.get(graph6)
    if rows is None:
        rows = sources[graph6] = decode_graph6(graph6)[1]
    smask = mask_of(document["inputs"]["set"])
    if command == "analyze":
        witness = mask_of(results["alpha_witness"])
        if witness & ~smask or witness.bit_count() != results["alpha"] or not is_independent(rows, witness):
            return "alpha witness is not a maximum independent subset of S"
        pair = results["kappa_pair"]
        if pair is not None:
            x, y = pair
            if not ((smask >> x) & 1 and (smask >> y) & 1):
                return "kappa pair lies outside S"
            if local_connectivity(rows, x, y) != results["kappa"]:
                return "kappa pair does not attain kappa"
        return None
    k = document["inputs"]["k"]
    problem, vmask, leaves, branch = tree_problem(rows, results["tree"], 0)
    if problem:
        return f"construct tree: {problem}"
    if leaves != results["leaf_count"] or branch != results["branch_count"]:
        return "construct leaf or branch count is wrong"
    covers = smask & ~vmask == 0
    if covers != results["covers_set"]:
        return "construct covers_set is wrong"
    residual = independence(rows, smask & ~vmask)
    if residual != results["residual_alpha"]:
        return f"construct residual alpha {results['residual_alpha']}, recomputed {residual}"
    if leaves > k:
        return f"construct tree has {leaves} leaves, budget {k}"
    if (results["outcome"] == "covering") != covers:
        return "construct outcome disagrees with coverage"
    if not covers and residual > results["bound"]:
        return f"construct residual {residual} exceeds the bound {results['bound']}"
    return None
