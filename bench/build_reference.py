"""Record the benchmark's reference outputs and cross-check them independently.

Run from the repository root at the commit whose outputs are the reference:

    python3 bench/build_reference.py [workload ...]

For every unit in each workload's pool it stores the per-graph digest of the
implementation-independent verdict fields (claim, graph6, S, k, alpha, kappa,
hypothesis, conclusion) and the digest of the full verdict stream; for every
CLI request in the pool it stores the exit code, the implementation-
independent result fields and the digest of the report. It then checks the
recorded values by routes that share no code with kended: alpha and kappa
with networkx, covering-tree conclusions with the subtree enumeration and
Hamiltonian search in tests/oracles.py, every witness with bench/check.py,
and the sharpness cells with their closed forms. It exits 1 on any
disagreement and writes nothing in that case.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

import networkx as nx
from networkx.algorithms.connectivity import local_node_connectivity

import check
import measure
import workloads

oracles = None    # tests/oracles.py, imported once kended is on the path

INF = "infinity"


class CrossCheck:
    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.errors: list[str] = []

    def expect(self, what: str, ok: bool, context: str) -> None:
        self.counts[what] = self.counts.get(what, 0) + 1
        if not ok:
            self.errors.append(f"{what}: {context}")


def nx_graph(rows: list[int]) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(len(rows)))
    graph.add_edges_from((u, v) for u in range(len(rows)) for v in check.members(rows[u]) if u < v)
    return graph


def nx_alpha(graph: nx.Graph, subset: list[int]) -> int:
    if not subset:
        return 0
    return nx.max_weight_clique(nx.complement(graph.subgraph(subset)), weight=None)[1]


def nx_kappa(graph: nx.Graph, subset: list[int], pairs: dict):
    if len(subset) <= 1:
        return INF
    best = None
    for i, x in enumerate(subset):
        for y in subset[i + 1:]:
            if (x, y) not in pairs:
                pairs[(x, y)] = local_node_connectivity(graph, x, y)
            best = pairs[(x, y)] if best is None else min(best, pairs[(x, y)])
    return best


def sweep_reference(kended, plan) -> tuple[dict, list[list[dict]]]:
    """(reference entry, serialized verdicts grouped by graph) of one sweep unit."""
    digests, graphs, lines, current = [], [], [], []
    full = hashlib.sha256()
    for verdict in kended.sweep_verdicts(plan):
        vj = kended.report.verdict_to_json(verdict)
        full.update(json.dumps(vj, sort_keys=True).encode())
        lines.append(check.independent_line(vj))
        current.append(vj)
        if vj["claim"] == "hamiltonian-path":
            digests.append(check.short_digest("\n".join(lines)))
            graphs.append(current)
            lines, current = [], []
    return {"graphs": digests, "full": full.hexdigest()[:12]}, graphs


def crosscheck_graph(kended, records: list[dict], cc: CrossCheck, enumerate_trees: bool,
                     bipartite: tuple[int, int] | None = None) -> None:
    graph6 = records[0]["graph_id"]
    rows = check.decode_graph6(graph6)[1]
    graph = nx_graph(rows)
    kgraph = kended.parse_graph6(graph6)
    pairs: dict = {}
    minima: dict = {}
    cache: dict = {}
    for vj in records:
        context = f"{graph6} S={vj['S']} k={vj['k']} {vj['claim']}"
        cc.expect("witness re-validated", check.verdict_problem(vj, rows, cache) is None, context)
        cc.expect("alpha vs networkx", vj["alpha"] == nx_alpha(graph, vj["S"]), context)
        cc.expect("kappa vs networkx", vj["kappa"] == nx_kappa(graph, vj["S"], pairs), context)
        claim, k = vj["claim"], vj["k"]
        if claim == "hamiltonian-path":
            if bipartite is not None:
                a, b = bipartite
                cc.expect("no Hamiltonian path when parts differ by 2 or more",
                          not vj["conclusion_holds"] and b > a + 1, context)
            elif enumerate_trees:
                cc.expect("Hamiltonian path vs permutations",
                          vj["conclusion_holds"] == oracles.hamiltonian_path_by_permutations(kgraph), context)
            continue
        if claim == "residual-bound":
            continue
        if bipartite is not None and claim == "kended-cover" and k < bipartite[1] - bipartite[0] + 1:
            # Every spanning tree of a bipartite graph with parts a < b has at
            # least b - a + 1 leaves in the larger part, so no such tree exists.
            cc.expect("leaf lower bound b - a + 1", not vj["conclusion_holds"], context)
        if not enumerate_trees:
            continue
        smask = check.mask_of(vj["S"])
        if smask not in minima:
            stats = list(oracles.covering_tree_stats(kgraph, smask))
            minima[smask] = (min(s[0] for s in stats), min(s[1] for s in stats))
        min_leaves, min_branch = minima[smask]
        if claim == "kended-cover":
            cc.expect("kended-cover vs subtree enumeration", vj["conclusion_holds"] == (min_leaves <= k), context)
        else:
            cc.expect("branch-cover vs subtree enumeration",
                      vj["conclusion_holds"] == (min_branch <= k - 2), context)


def build_sweeps(kended, workload: str, cc: CrossCheck) -> dict:
    units = workloads.WORKLOADS[workload](kended, 0)
    reference = {}
    for unit in sorted(units, key=lambda u: u.id):
        entry, graphs = sweep_reference(kended, unit.plan)
        reference[unit.id] = entry
        for index, records in enumerate(graphs):
            if workload == "exhaustive-n5":
                crosscheck_graph(kended, records, cc, enumerate_trees=True)
            elif workload == "gnp-n8":
                # subtree enumeration on n = 8 is slow: every 25th graph
                crosscheck_graph(kended, records, cc, enumerate_trees=index % 25 == 0)
            else:
                rows = check.decode_graph6(records[0]["graph_id"])[1]
                sides = nx.bipartite.sets(nx_graph(rows))
                parts = tuple(sorted(len(side) for side in sides))
                crosscheck_graph(kended, records, cc, enumerate_trees=index % 5 == 0, bipartite=parts)
        print(f"{workload} unit {unit.id}: {len(graphs)} graphs", file=sys.stderr)
    return {"workload": workload, "units": reference}


ANALYZE_FIELDS = ("alpha", "kappa", "graph_connected", "graph_connectivity", "threshold_k", "largest_failing_k")


def build_cli(kended, cc: CrossCheck) -> dict:
    argvs, files = workloads.cli_pool()
    workloads.write_cli_files(kended, files)
    requests = {}
    for index, argv in enumerate(argvs):
        code, text = run_request(kended, argv)
        document = json.loads(text)
        results = document["results"]
        context = " ".join(argv)
        entry = {"argv": argv, "exit": code, "graph6": document["inputs"].get("graph6"),
                 "full": check.short_digest(text)}
        if argv[0] == "sharpness":
            entry["fields"] = {"cells": results["cells"], "all_match": results["all_match"]}
            for cell in results["cells"]:
                m, k = cell["m"], cell["k"]
                # S = B in K_{m,m+k}: B is independent, any two B vertices have m
                # disjoint paths through A, a tree covering B needs >= k + 1 leaves
                # (leaf bound in a bipartite tree) and a star on one A vertex
                # covers B with one branch vertex; a path exists only for k <= 1.
                closed = {"alpha": m + k, "kappa": m, "min_leaves": k + 1, "min_branch": 0 if k <= 1 else 1}
                actual = {key: cell[key] for key in closed}
                cc.expect("sharpness cell vs closed form", actual == closed, context)
            cc.expect("sharpness exit code", code == (0 if results["all_match"] else 1), context)
        else:
            rows = check.decode_graph6(entry["graph6"])[1]
            graph = nx_graph(rows)
            subset = document["inputs"]["set"]
            pairs: dict = {}
            alpha, kappa = nx_alpha(graph, subset), nx_kappa(graph, subset, pairs)
            if argv[0] == "analyze":
                entry["fields"] = {key: results[key] for key in ANALYZE_FIELDS}
                full_kappa = nx_kappa(graph, list(range(len(rows))), {})
                cc.expect("analyze vs networkx", (results["alpha"], results["kappa"], results["graph_connectivity"])
                          == (alpha, kappa, full_kappa), context)
            else:
                entry["fields"] = {"outcome": results["outcome"], "bound": results["bound"]}
                k = document["inputs"]["k"]
                cc.expect("construct bound vs networkx", results["bound"] == alpha - kappa - k + 1, context)
                if alpha <= k + kappa - 1:
                    cc.expect("construct covers under the hypothesis", results["outcome"] == "covering", context)
            cc.expect("cli exit code 0", code == 0, context)
        problem = check.check_request(entry, code, document, {})
        cc.expect("cli report re-validated", problem is None, f"{context}: {problem}")
        requests[str(index)] = entry
    print(f"cli-mixed: {len(requests)} requests", file=sys.stderr)
    return {"workload": "cli-mixed", "requests": requests}


def run_request(kended, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kended.cli.main(list(argv))
    return code, out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    kended = measure.import_kended()
    global oracles
    sys.path.insert(0, os.path.abspath("tests"))
    import oracles
    os.makedirs(measure.REFERENCE_DIR, exist_ok=True)
    for workload in args.workloads:
        cc = CrossCheck()
        if workload == "cli-mixed":
            reference = build_cli(kended, cc)
        else:
            reference = build_sweeps(kended, workload, cc)
        reference["crosscheck"] = cc.counts
        for what, count in sorted(cc.counts.items()):
            print(f"{workload}: {what}: {count} checked", file=sys.stderr)
        if cc.errors:
            print(f"{workload}: {len(cc.errors)} cross-check disagreements, first: {cc.errors[:5]}",
                  file=sys.stderr)
            return 1
        write_reference(reference)
    return 0


def write_reference(reference: dict) -> None:
    """One unit or request per line, so that a changed reference diffs readably."""
    key = "units" if "units" in reference else "requests"
    head = {k: v for k, v in reference.items() if k != key}
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in reference[key].items()]
    path = os.path.join(measure.REFERENCE_DIR, f"{reference['workload']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(head)[:-1] + f', "{key}": {{\n' + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    sys.exit(main())
