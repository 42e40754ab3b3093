"""Command-line front end: analyze, construct, verify, sharpness.

Exit codes: 0 clean, 1 counterexample, sharpness mismatch or internal
error, 2 usage or parse errors. An internal error (a proved property failed,
which means a bug here) is reported on stderr with the graph6, S and, for
construct, k that reproduce it. Reports are JSON on stdout or a file; pass
--no-timing for byte-stable output across runs. Every command runs at the
fixed vertex cap treesearch.DEFAULT_TREE_CAP (10); no option changes it, and
an instance or a sharpness range above it is refused with exit 2, an
analyze or construct input before its graph is built.

main(argv) is reentrant and builds its argument parser once per process; each
call reads argv into a fresh namespace (_parse_args) and looks up its cmd_*
handler by name. A plain argv (a command, then distinct exact options with
valid values) is read in one pass over the command's argparse actions; any
other goes whole to the kended parser, so help and usage errors are argparse's.
analyze and construct keep one Graph, with its memos, per distinct input for
the 64 inputs used last (_read_graph), keyed on the parsed --family spec or on
the --format and text of --graph; the file or stdin is read on every call.
Each memo of a Graph is a function of its rows, so a request leaves nothing
in it that a later request could read differently. A handler returns
(inputs, results, exit code); main times it and writes the one report. main
returns the exit code, also for --help and for argparse's usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time

from . import report as rpt
from .constructive import construct_k_ended_tree
from .errors import CapExceededError, CounterexampleError, FormatError, KendedError, PlanError
from .families import GraphFamilySpec, make_family, parse_family_spec
from .formats import _edge_list_header, emit_graph6, parse_edge_list, parse_graph6
from .graphs import Graph, VertexSet
from .invariants import independence_number, set_connectivity_pair
from .treesearch import DEFAULT_TREE_CAP, _check_cap
from .verify import SHARPNESS_NOTE, SweepPlan, parse_sweep_plan, run_sweep, verify_sharpness

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


@functools.lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]]:
    """(the kended parser, per command a table from each option string to its action)."""
    parser = argparse.ArgumentParser(
        prog="kended",
        description="Exact analysis, construction and verification of k-ended covering trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph_in = argparse.ArgumentParser(add_help=False)
    graph_options = [
        graph_in.add_argument("--graph", metavar="FILE", help="graph file, or - for stdin"),
        graph_in.add_argument(
            "--format", choices=("graph6", "edgelist"), default="graph6",
            help="input format for --graph (default graph6)",
        ),
        graph_in.add_argument(
            "--family", metavar="SPEC",
            help="generate the graph instead: 'kmm M K', 'cycle N', 'path N', "
                 "'complete N', 'petersen', 'gnp N P SEED'",
        ),
        graph_in.add_argument(
            "--set", dest="subset", default="all", metavar="SPEC",
            help="vertex subset S: comma list, 'all', 'none', or 'B' (family-provided part)",
        ),
    ]

    common = argparse.ArgumentParser(add_help=False)
    common_options = [
        common.add_argument("--out", default="-", metavar="FILE", help="report destination (default stdout)"),
        common.add_argument("--no-timing", action="store_true", help="null out durations for byte-stable output"),
    ]

    sub.add_parser("analyze", parents=[graph_in, common],
                   help="alpha, kappa and the budget threshold for one instance")

    p_construct = sub.add_parser("construct", parents=[graph_in, common],
                                 help="run the augmentation construction for a leaf budget k")
    construct_options = [p_construct.add_argument("--k", type=int, required=True, help="leaf budget (>= 2)")]

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification sweep from a plan file")
    verify_options = [
        p_verify.add_argument("--plan", metavar="FILE", help="plan file (default: exhaustive n <= 5)"),
        p_verify.add_argument("--seed", type=int, default=None, help="override the plan seed"),
    ]

    p_sharp = sub.add_parser("sharpness", parents=[common],
                             help="exact invariants of the complete-bipartite grid")
    sharp_options = [p_sharp.add_argument("--m-range", default="1..3", metavar="A..B"),
                     p_sharp.add_argument("--k-range", default="1..3", metavar="A..B")]

    graph = graph_options + common_options
    options = {"analyze": graph, "construct": graph + construct_options,
               "verify": common_options + verify_options, "sharpness": common_options + sharp_options}
    return parser, {command: {flag: action for action in actions for flag in action.option_strings}
                    for command, actions in options.items()}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Read a plain argv in one pass over its command's option table: distinct
    exact options, a store option's one value not starting with '-', converted
    and in its choices, and the required options given. Any other argv goes
    whole to the kended parser, so help and usage errors are argparse's."""
    parser, tables = _build_parser()
    table = tables.get(argv[0]) if argv else None
    given: dict = {}
    rest = iter(argv[1:])
    try:
        for token in rest if table else ():
            action = table[token]
            if action.nargs == 0:    # store_true
                value = action.const
            elif (value := next(rest)).startswith("-"):
                break
            else:
                value = action.type(value) if action.type else value
            if action.dest in given or action.choices is not None and value not in action.choices:
                break
            given[action.dest] = value
        else:
            if table and all(action.dest in given for action in table.values() if action.required):
                values = {action.dest: action.type(action.default) if action.type and isinstance(action.default, str)
                          else action.default for action in table.values()}    # argparse converts a str default
                values.update(given)
                return argparse.Namespace(**values, command=argv[0])
    except (KeyError, StopIteration, TypeError, ValueError, argparse.ArgumentTypeError):
        pass
    return parser.parse_args(argv)


# One entry per distinct input: the parsed GraphFamilySpec of --family, or
# (format, text) of --graph. Each entry's Graph keeps its memos for every later
# request on it; at the cap n = 10 they hold at most 2**10 alpha, kappa,
# path-tree and first-path entries, 45 pair flows and at most 22 planes of
# 2**10 bits (0.4 MB after analyze and construct k = 2..5 on all 1,024 subsets
# of K_{3,7}, CPython 3.11).
# Above the cap a family is refused by its spec and an edge list by its header,
# before any graph is built; a short-form graph6 record has at most 62 vertices.
@functools.lru_cache(maxsize=64)
def _read_graph(source: GraphFamilySpec | tuple[str, str]) -> tuple[Graph, VertexSet | None, str]:
    """(graph, family subset, graph6) of an input source; a usage error is raised, never cached."""
    if isinstance(source, GraphFamilySpec):
        _check_cap(source.order, DEFAULT_TREE_CAP)
        graph, family_subset = make_family(source)
    elif source[0] == "graph6":
        records = [line for line in source[1].strip().splitlines() if line.strip()]
        if not records:
            raise FormatError("empty graph input")
        if len(records) > 1:    # analyze and construct take one graph
            raise FormatError(f"graph6 input has {len(records)} records; one graph is expected")
        graph, family_subset = parse_graph6(records[0]), None
        _check_cap(graph.n, DEFAULT_TREE_CAP)
    else:
        _check_cap(_edge_list_header(source[1])[0], DEFAULT_TREE_CAP)
        graph, family_subset = parse_edge_list(source[1]), None
    return graph, family_subset, emit_graph6(graph)


def _load_graph(args) -> tuple[Graph, VertexSet | None, dict]:
    """Read or generate the input graph; returns (graph, family subset, input echo).

    The file or stdin is read on every call, so a changed file gives a new
    graph. The echo is also kept as args.echo, so an internal error can name
    its inputs.
    """
    if args.family and args.graph:
        raise ValueError("--graph and --family are mutually exclusive")
    if args.family:
        source = parse_family_spec(args.family)
        echo = {"family": args.family}
    elif not args.graph:
        raise ValueError("one of --graph or --family is required")
    else:
        if args.graph == "-":
            text = sys.stdin.read()
        else:
            with open(args.graph, "r", encoding="utf-8") as handle:
                text = handle.read()
        source = (args.format, text)
        echo = {"graph": args.graph, "format": args.format}
    graph, family_subset, graph6 = _read_graph(source)
    args.echo = {**echo, "graph6": graph6, "n": graph.n}
    return graph, family_subset, args.echo


def _parse_subset(spec: str, graph: Graph, family_subset: VertexSet | None) -> VertexSet:
    spec = spec.strip()
    if spec == "all":
        return VertexSet.full(graph.n)
    if spec in ("", "none"):
        return VertexSet.empty(graph.n)
    if spec == "B":
        if family_subset is None:
            raise ValueError("--set B needs a family that provides a part (kmm)")
        return family_subset
    try:
        vertices = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad subset spec {spec!r}") from exc
    for v in vertices:
        if not 0 <= v < graph.n:
            raise ValueError(f"subset vertex {v} out of range 0..{graph.n - 1}")
    return VertexSet.from_vertices(graph.n, vertices)


def cmd_analyze(args) -> tuple[dict, dict, int]:
    graph, family_subset, echo = _load_graph(args)
    subset = _parse_subset(args.subset, graph, family_subset)
    echo["set"] = subset.to_list()
    witness = independence_number(graph, subset)
    kappa, pair = set_connectivity_pair(graph, subset)
    graph_kappa, _ = set_connectivity_pair(graph, VertexSet.full(graph.n))
    alpha = witness.size
    if kappa.is_infinite:
        threshold = 2
        largest_failing = None
    else:
        threshold = max(2, alpha - kappa.finite + 1)
        largest_failing = alpha - kappa.finite
    results = {
        "alpha": alpha,
        "alpha_witness": witness.witness.to_list(),
        "kappa": kappa.to_json(),
        "kappa_pair": list(pair) if pair else None,
        "graph_connected": graph.is_connected(),
        "graph_connectivity": graph_kappa.to_json(),
        "threshold_k": threshold,
        "largest_failing_k": largest_failing,
    }
    return echo, results, EXIT_OK


def cmd_construct(args) -> tuple[dict, dict, int]:
    graph, family_subset, echo = _load_graph(args)
    subset = _parse_subset(args.subset, graph, family_subset)
    echo["set"] = subset.to_list()
    echo["k"] = args.k
    outcome = construct_k_ended_tree(graph, subset, args.k)
    results = {
        "outcome": outcome.kind,
        "tree": rpt.tree_to_json(outcome.tree),
        "leaf_count": outcome.tree.leaf_count,
        "branch_count": outcome.tree.branch_count,
        "covers_set": outcome.tree.covers(subset),
        "residual_alpha": outcome.residual_alpha,
        "bound": outcome.bound,
        "trace": {
            "base_path": list(outcome.trace[0]) if outcome.trace else None,
            "attachments": [list(p) for p in outcome.trace[1:]],
        },
    }
    return echo, results, EXIT_OK


def cmd_verify(args) -> tuple[dict, dict, int]:
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as handle:
            plan = parse_sweep_plan(handle.read())
    else:
        plan = SweepPlan()
    if args.seed is not None:
        plan = dataclasses.replace(plan, seed=args.seed)
    inputs = {"plan_file": args.plan, "plan": rpt.plan_to_json(plan)}
    try:
        sweep = run_sweep(plan)
    except CounterexampleError as exc:
        results = {"counterexample": rpt.verdict_to_json(exc.verdict), "zero_counterexamples": False}
        code = EXIT_MISMATCH
    else:
        results = rpt.sweep_report_to_json(sweep, include_timing=not args.no_timing)
        code = EXIT_OK
    return inputs, results, code


def _parse_range(option: str, text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return (int(lo), int(hi)) if sep else (int(text), int(text))
    except ValueError as exc:
        raise ValueError(f"{option} {text!r} is not A..B with integers A and B") from exc


def cmd_sharpness(args) -> tuple[dict, dict, int]:
    m_lo, m_hi = _parse_range("--m-range", args.m_range)
    k_lo, k_hi = _parse_range("--k-range", args.k_range)
    if m_lo < 1 or k_lo < 1 or m_hi < m_lo or k_hi < k_lo:
        raise ValueError("ranges must be A..B with 1 <= A <= B")
    if max(m_hi, k_hi) > DEFAULT_TREE_CAP:
        # skipped_cells lists every cell outside the cap, so the range must be bounded
        raise ValueError(f"range upper end {max(m_hi, k_hi)} is above the cap {DEFAULT_TREE_CAP}")
    inputs = {"m_range": [m_lo, m_hi], "k_range": [k_lo, k_hi], "cap": DEFAULT_TREE_CAP}
    cells = []
    skipped = []
    all_match = True
    for m in range(m_lo, m_hi + 1):
        for k in range(k_lo, k_hi + 1):
            if 2 * m + k > DEFAULT_TREE_CAP:
                skipped.append([m, k])
                continue
            verdict = verify_sharpness(m, k)
            cells.append(rpt.sharpness_to_json(verdict))
            all_match = all_match and verdict.matches_expected
    results = {
        "cells": cells,
        "skipped_cells": skipped,
        "all_match": all_match,
        "note": SHARPNESS_NOTE,
    }
    return inputs, results, EXIT_OK if all_match else EXIT_MISMATCH


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:    # argparse printed the help (0) or a usage error (2)
        return exc.code
    start = time.perf_counter()
    try:
        inputs, results, code = globals()[f"cmd_{args.command}"](args)
        elapsed = None if args.no_timing else time.perf_counter() - start
        text = rpt.render_report(rpt.make_report(args.command, inputs, results, elapsed))
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        return code
    except (FormatError, PlanError, ValueError, CapExceededError, OSError) as exc:
        print(f"kended: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CounterexampleError as exc:
        print(f"kended: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except KendedError as exc:
        echo = getattr(args, "echo", {})
        where = [f"{label}={echo[key]}" for key, label in (("graph6", "graph6"), ("set", "S"), ("k", "k"))
                 if key in echo]
        print(f"kended: internal error: {exc}" + (f" ({', '.join(where)})" if where else ""), file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
