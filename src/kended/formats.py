"""Serialization of graphs: graph6 records and a plain edge-list text format.

graph6 (short form, n <= 62): one size byte chr(63 + n), then the upper
triangle of the adjacency matrix in column-major order, packed 6 bits per
byte MSB-first, each byte offset by 63. Padding bits must be zero.

Edge list: first line "n <vertex count>", then one "u v" line per edge with
0-based labels. Self-loops and duplicate edges are rejected.
"""

from __future__ import annotations

from .errors import EdgeListError, Graph6Error
from .graphs import Graph

_HEADER = ">>graph6<<"
_MAX_SHORT_N = 62


def emit_graph6(graph: Graph) -> str:
    """Encode a graph as a short-form graph6 record (bit-exact)."""
    n = graph.n
    if n > _MAX_SHORT_N:
        raise Graph6Error(f"short-form graph6 supports n <= {_MAX_SHORT_N}, got {n}")
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


def parse_graph6(record: str | bytes) -> Graph:
    """Decode one short-form graph6 record; strict about length, range and padding."""
    if isinstance(record, bytes):
        try:
            text = record.decode("ascii")
        except UnicodeDecodeError as exc:
            raise Graph6Error("graph6 record is not ASCII") from exc
    else:
        text = record
    if text.startswith(_HEADER):
        text = text[len(_HEADER):]
    text = text.rstrip("\r\n")
    if not text:
        raise Graph6Error("empty graph6 record")
    head = ord(text[0])
    if head == 126:
        raise Graph6Error("long-form graph6 (n >= 63) is not supported")
    if not 63 <= head <= 125:
        raise Graph6Error(f"malformed size header byte {head}")
    n = head - 63
    body = text[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise Graph6Error(f"truncated record: need {need} body bytes, got {len(body)}")
    if len(body) > need:
        raise Graph6Error(f"trailing data after record: expected {need} body bytes, got {len(body)}")
    values = []
    for ch in body:
        b = ord(ch)
        if not 63 <= b <= 126:
            raise Graph6Error(f"body byte {b} out of range")
        values.append(b - 63)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if (values[idx // 6] >> (5 - idx % 6)) & 1:
                edges.append((i, j))
            idx += 1
    while idx < 6 * need:
        if (values[idx // 6] >> (5 - idx % 6)) & 1:
            raise Graph6Error("nonzero padding bits")
        idx += 1
    return Graph.from_edges(n, edges)


def emit_edge_list(graph: Graph) -> str:
    lines = [f"n {graph.n}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def _edge_list_header(text: str) -> tuple[int, list[tuple[int, str]]]:
    """The vertex count on an edge list's header, read without building the
    graph, and the (line number, stripped line) of each nonblank line after it."""
    lines = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
    lines = [(no, line) for no, line in lines if line]
    if not lines:
        raise EdgeListError("empty edge-list input")
    no, first = lines[0]
    parts = first.split()
    if len(parts) != 2 or parts[0] != "n":
        raise EdgeListError(f"line {no}: expected header 'n <count>', got {first!r}")
    try:
        n = int(parts[1])
    except ValueError as exc:
        raise EdgeListError(f"line {no}: vertex count {parts[1]!r} is not an integer") from exc
    if n < 0:
        raise EdgeListError(f"line {no}: negative vertex count")
    return n, lines[1:]


def parse_edge_list(text: str) -> Graph:
    n, lines = _edge_list_header(text)
    rows = [0] * n
    for no, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"line {no}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise EdgeListError(f"line {no}: non-integer vertex label in {line!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"line {no}: label out of range 0..{n - 1} in {line!r}")
        if u == v:
            raise EdgeListError(f"line {no}: self-loop at vertex {u}")
        if (rows[u] >> v) & 1:
            raise EdgeListError(f"line {no}: duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)
