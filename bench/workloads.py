"""The four benchmark workloads: inputs made from the seed, and units of work.

Every workload is a closed loop with one client in one process: sweeps run
with workers = 1 and CLI requests run in-process through kended.cli.main.
A workload is cut into units (a sweep plan, or a batch of CLI requests);
the reference records, per unit, what the seed commit produced, so a run
may take any seed-chosen sequence of units from a fixed pool.

- exhaustive-n5: every connected labelled graph on n <= 5, all nonempty S,
  k = 2..4. Tiny graphs with many subsets: per-verdict overhead and per-graph
  cache reuse dominate. One unit; the seed is unused.
- gnp-n8: G(8, 0.5) draws with one random S per graph, k = 2..4. One subset
  per graph, so little reuse: uncached kappa and the covering-path DP
  dominate. Units are 250-draw plans; the seed orders a pool of 48 of them.
- bipartite-n10: random connected bipartite graphs with parts 3 and 7, edge
  probability 0.8 and shuffled labels, read as graph6 with S = V, k = 2..6.
  No Hamiltonian path exists, so the leaf-budget growth search and base_path
  enumeration dominate and per-graph time is heavy-tailed. Units are
  100-graph files; the seed orders a pool of 24.
- cli-mixed: single-instance analyze, construct (k = 2..5) and single-cell
  sharpness requests on n = 9..10 graphs from families and from graph6 and
  edge-list files. No GraphContext; argument parsing and report rendering
  run. A unit is one pass over a fixed pool of 1138 requests (226 analyze,
  904 construct, 8 sharpness); the seed orders each pass.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORK_DIR = ".bench_work"

GNP_POOL = [8000 + i for i in range(48)]
GNP_DRAWS = 250
BIPARTITE_UNITS = 24
BIPARTITE_GRAPHS = 100
CLI_PASSES = 4
SHARPNESS_CELLS = [(1, 7), (1, 8), (2, 5), (2, 6), (3, 3), (3, 4), (4, 1), (4, 2)]
KMM_CELLS = [(2, 5), (2, 6), (3, 3), (3, 4), (4, 1), (4, 2)]


@dataclass
class Unit:
    id: str
    plan: object = None                               # kended SweepPlan, for sweeps
    requests: list = field(default_factory=list)      # (request id, argv), for cli-mixed


def seeded_order(pool: list, name: str, seed: int) -> list:
    order = list(pool)
    random.Random(f"{name}:{seed}").shuffle(order)
    return order


def connected(n: int, edges: list) -> bool:
    seen = {0}
    grew = True
    while grew:
        grew = False
        for u, v in edges:
            if (u in seen) != (v in seen):
                seen.update((u, v))
                grew = True
    return len(seen) == n


# -- exhaustive-n5 -----------------------------------------------------------

def exhaustive_units(api, seed: int) -> list[Unit]:
    plan = api.SweepPlan(mode="exhaustive", n=5, k_min=2, k_max=4, s_policy="all-subsets", workers=1)
    return [Unit("n<=5", plan)]


# -- gnp-n8 -----------------------------------------------------------------

def gnp_plan(api, plan_seed: int):
    return api.SweepPlan(mode="random", n=8, p=0.5, count=GNP_DRAWS, seed=plan_seed, k_min=2, k_max=4,
                         s_policy="random-subsets", s_count=1, workers=1)


def gnp_units(api, seed: int) -> list[Unit]:
    return [Unit(str(s), gnp_plan(api, s)) for s in seeded_order(GNP_POOL, "gnp-n8", seed)]


# -- bipartite-n10 -----------------------------------------------------------

def bipartite_edges(rng: random.Random) -> list[tuple[int, int]]:
    """One connected bipartite graph with parts 3 and 7 and shuffled labels."""
    while True:
        label = list(range(10))
        rng.shuffle(label)
        edges = [(label[a], label[3 + b]) for a in range(3) for b in range(7) if rng.random() < 0.8]
        if connected(10, edges):
            return edges


def bipartite_pool() -> list[list[list[tuple[int, int]]]]:
    """Edge lists of every pool graph, unit by unit; fixed, independent of the run seed."""
    rng = random.Random("bipartite-n10:pool")
    return [[bipartite_edges(rng) for _ in range(BIPARTITE_GRAPHS)] for _ in range(BIPARTITE_UNITS)]


def bipartite_units(api, seed: int) -> list[Unit]:
    folder = os.path.join(WORK_DIR, "bipartite-n10")
    os.makedirs(folder, exist_ok=True)
    units = []
    for index, graphs in enumerate(bipartite_pool()):
        path = os.path.join(folder, f"u{index:02d}.g6")
        with open(path, "w", encoding="ascii") as handle:
            for edges in graphs:
                handle.write(api.emit_graph6(api.Graph.from_edges(10, edges)) + "\n")
        plan = api.SweepPlan(mode="graph6", path=path, s_policy="s=v", k_min=2, k_max=6, workers=1)
        units.append(Unit(f"u{index:02d}", plan))
    return seeded_order(units, "bipartite-n10", seed)


# -- cli-mixed ---------------------------------------------------------------

def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, p) edges in kended's draw order: one draw per pair, pairs in lexicographic order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def cli_pool() -> tuple[list[list[str]], dict[str, tuple[int, list]]]:
    """(argv of every pool request, file path -> (n, edges) of the input files to write)."""
    rng = random.Random("cli-mixed:pool")
    folder = os.path.join(WORK_DIR, "cli-mixed")
    sources: list[tuple[list[str], int, list[str]]] = [(["--family", "petersen"], 10, [])]
    sources += [(["--family", f"kmm {m} {k}"], 2 * m + k, ["B"]) for m, k in KMM_CELLS]
    gnp_seed = 0
    for n in (9, 10):
        for p in (0.3, 0.45, 0.6):
            found = 0
            while found < 4:
                gnp_seed += 1
                if connected(n, gnp_edges(n, p, random.Random(gnp_seed))):
                    sources.append((["--family", f"gnp {n} {p} {gnp_seed}"], n, []))
                    found += 1
    files: dict[str, tuple[int, list]] = {}
    for index in range(24):
        n = 9 + index % 2
        p = rng.choice((0.3, 0.4, 0.5, 0.6))
        edges = gnp_edges(n, p, rng)
        while not connected(n, edges):
            edges = gnp_edges(n, p, rng)
        fmt, ext = ("graph6", "g6") if index % 2 == 0 else ("edgelist", "txt")
        path = os.path.join(folder, f"f{index:02d}.{ext}")
        files[path] = (n, edges)
        sources.append((["--graph", path, "--format", fmt], n, []))
    argvs = []
    for source, n, extra_sets in sources:
        subsets = [sorted(rng.sample(range(n), rng.randint(3, n - 1))) for _ in range(3)]
        sets = ["all"] + [",".join(map(str, subset)) for subset in subsets] + extra_sets
        for spec in sets:
            argvs.append(["analyze", *source, "--set", spec, "--no-timing"])
            for k in range(2, 6):
                argvs.append(["construct", *source, "--set", spec, "--k", str(k), "--no-timing"])
    for m, k in SHARPNESS_CELLS:
        argvs.append(["sharpness", "--m-range", f"{m}..{m}", "--k-range", f"{k}..{k}", "--no-timing"])
    return argvs, files


def write_cli_files(api, files: dict) -> None:
    os.makedirs(os.path.join(WORK_DIR, "cli-mixed"), exist_ok=True)
    for path, (n, edges) in files.items():
        graph = api.Graph.from_edges(n, edges)
        text = api.emit_graph6(graph) + "\n" if path.endswith(".g6") else api.emit_edge_list(graph)
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)


def cli_units(api, seed: int) -> list[Unit]:
    """Units that each make every pool request once, in a seeded order.

    A whole pass is one unit so that every run measures the same request mix:
    a few kmm constructs take 20 times the median request, and sampling them
    would move the tail from seed to seed more than any useful bound.
    """
    argvs, files = cli_pool()
    write_cli_files(api, files)
    requests = [(str(index), argv) for index, argv in enumerate(argvs)]
    return [Unit(f"pass{p}", requests=seeded_order(requests, f"cli-mixed:{p}", seed))
            for p in range(CLI_PASSES)]


WORKLOADS = {
    "exhaustive-n5": exhaustive_units,
    "gnp-n8": gnp_units,
    "bipartite-n10": bipartite_units,
    "cli-mixed": cli_units,
}

# Units a traced run measures, whatever --seconds says, so its counters repeat.
TRACE_UNITS = {"exhaustive-n5": 1, "gnp-n8": 4, "bipartite-n10": 2, "cli-mixed": 1}
