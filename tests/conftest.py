import random
import signal
import sys
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import strategies as st

from kended import cli
from kended.graphs import Graph


@pytest.fixture(autouse=True)
def no_cli_graphs_kept():
    """Start every test with an empty CLI graph memo: a test that counts flows
    or patches in a fault must not meet the memos an earlier test filled."""
    cli._read_graph.cache_clear()


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 7, connected: bool = False):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    bits = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
    graph = Graph.from_edges(n, edges)
    if connected and not graph.is_connected():
        # join components along the vertex order
        extra = list(graph.edges())
        seen = graph.component_mask(0) if n else 0
        for v in range(n):
            if not (seen >> v) & 1:
                extra.append((draw(st.integers(min_value=0, max_value=v - 1)), v))
                graph = Graph.from_edges(n, extra)
                seen = graph.component_mask(0)
    return graph


@st.composite
def graph_with_subset(draw, min_n: int = 1, max_n: int = 6, connected: bool = False):
    graph = draw(graphs(min_n=min_n, max_n=max_n, connected=connected))
    smask = draw(st.integers(min_value=0, max_value=graph.full_mask))
    return graph, smask


def labelled_graphs(n_max: int):
    """Every labelled graph on 1..n_max vertices, connected or not."""
    for n in range(1, n_max + 1):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield Graph.from_edges(n, [pair for i, pair in enumerate(pairs) if bits >> i & 1])


def seeded_rng(seed: int) -> random.Random:
    return random.Random(seed)


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def rebind_everywhere(monkeypatch, original, replacement):
    """Patch every kended module attribute bound to `original`."""
    owners = [(module, attr) for name, module in list(sys.modules.items())
              if name == "kended" or name.startswith("kended.")
              for attr, value in list(vars(module).items()) if value is original]
    assert owners
    for module, attr in owners:
        monkeypatch.setattr(module, attr, replacement)
