"""Structural rules of src/kended, checked over its source text with re and ast.

Each rule keeps one decision in one place; a change that breaks one fails
here. The line rules match as grep does: one match per source line. Two more
tests read the benchmark's tracer and selftest, which reach kended by name.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "kended"


def sources(*exclude: str):
    return [path for path in sorted(PACKAGE.rglob("*.py")) if path.name not in exclude]


def matching_lines(pattern: str, *exclude: str) -> list[str]:
    return [f"{path.name}:{number}: {line}" for path in sources(*exclude)
            for number, line in enumerate(path.read_text().splitlines(), 1) if re.search(pattern, line)]


def top_level_owners(pattern: str) -> list[str]:
    """file:name of the top-level statement around each line that matches:
    a line that starts with none of ']', ' ', tab, '#', ')' or '}' opens a
    statement, named by its def's or class's name or else its first word, cut
    at '(' or ':'."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        owner = ""
        for line in path.read_text().splitlines():
            if re.match(r"[^\] \t#)}]", line):
                words = line.split()
                owner = re.sub(r"[(:].*", "", words[1] if words[0] in ("def", "class") else words[0])
            if re.search(pattern, line):
                found.add(f"{path.name}:{owner}")
    return sorted(found)


# (pattern, the only files where it may occur): bit m of a plane stands for the
# vertex mask m, and only graphs.py may know it or call the plane kernel _close;
# a Tree's slots are filled only in graphs.py, by its general constructor or
# by a growth whose every step is checked; only Graph.path_tree builds the tree
# of a path, one per path set of a graph, so every other caller shares it;
# only Graph.check_tree checks a tree against its graph, and it keeps no memo:
# a tree is checked where it is built or where it enters a sweep's cache; every
# pair value goes through subset_kappa's flow memo; every Graph memo is a
# function of the rows, filled and read by graphs.py and, for the subset
# invariants, invariants.py, and no caller clears or reads one directly
CONFINED = [
    pytest.param(r"_vertex_planes|_min_leaf_level|_close\(|path_planes\(|\._paths\b|\._min_leaves\b",
                 ("graphs.py",), id="plane"),
    pytest.param(r"_store\(|__new__\(", ("graphs.py",), id="tree internals"),
    pytest.param(r"Tree\.from_path\(", ("graphs.py",), id="path tree"),
    pytest.param(r"validate_in\(", ("graphs.py",), id="tree check"),
    pytest.param(r"local_connectivity\(", ("invariants.py",), id="pair connectivity"),
    pytest.param(r"\._(connected|paths|first_paths|path_trees|min_leaves|alpha|flows|kappa|checked)\b",
                 ("graphs.py", "invariants.py"), id="graph memo"),
]


@pytest.mark.parametrize("pattern, homes", CONFINED)
def test_a_confined_name_occurs_only_in_its_module(pattern, homes):
    assert matching_lines(pattern, *homes) == []


def test_only_the_sweep_context_audits_a_witness():
    # a search's tree is audited within its budget once, where it enters one of
    # GraphContext's caches; every verdict that hands it on only reads
    assert top_level_owners(r"(?<!def )_audit_cover_witness\(") == ["verify.py:GraphContext"]


def test_only_subset_alpha_reads_or_writes_the_alpha_memo():
    # the lattice step fills a mask from two others, so every entry must come
    # from subset_alpha: a value stored anywhere else would spread through it
    assert top_level_owners(r"\._alpha\b") == ["graphs.py:Graph", "invariants.py:subset_alpha"]


def test_one_place_builds_a_theorem_verdict():
    # verify._verdict reads alpha, kappa and the least k of the hypothesis for every claim
    assert len(matching_lines(r"TheoremVerdict\(")) == 1


def test_only_the_sweeps_graph_task_raises_counterexample_error():
    # one instance (verify_instance) and every sweep run through _graph_task,
    # so every counterexample aborts with the same reproduction data
    assert len(matching_lines(r"CounterexampleError\(", "errors.py")) == 1


def test_only_the_sweep_context_resumes_a_construction():
    # reuse of a construction across k lives in GraphContext; every other
    # caller constructs from scratch: no call outside verify.py passes
    # construct_k_ended_tree a start, by keyword, by ** or as its 4th argument
    bad = []
    for path in sources("verify.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "construct_k_ended_tree"
                    and (len(node.args) > 3 or any(kw.arg in ("start", None) for kw in node.keywords))):
                bad.append(f"{path.name}:{node.lineno}: construct_k_ended_tree resumes from a start")
    assert bad == []


def test_only_the_sweeps_graph_task_and_the_clis_main_read_the_clock():
    # time is measured per graph of a sweep and per CLI command, nowhere else
    assert top_level_owners(r"perf_counter") == ["cli.py:main", "verify.py:_graph_task"]


def test_only_cli_parse_args_parses_an_argv():
    # a request is read by _parse_args alone: by its table pass over the
    # command's actions, or whole by the kended parser; a call of the
    # function _parse_args itself is not a match
    assert top_level_owners(r"(^|[^_A-Za-z0-9])parse(_known)?_args\(") == ["cli.py:_parse_args"]


def test_only_the_clis_parser_and_graph_memo_and_the_vertex_planes_are_functools_caches():
    # state kept across calls: the CLI's parser, its memo of one Graph per
    # distinct input and the vertex planes of each n; every other memo lives
    # on a Graph or a sweep's GraphContext and goes with it
    caches = {"lru_cache", "cache", "cached_property"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(sub): node.name for node in ast.walk(tree)
                 for dec in getattr(node, "decorator_list", ()) for sub in ast.walk(dec)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno}: from functools import {a.name}"
                          for a in node.names if a.name in caches]
            elif (isinstance(node, ast.Attribute) and node.attr in caches
                  and getattr(node.value, "id", None) == "functools"):
                found.append(f"{path.name}:{owner.get(id(node), node.lineno)}")
    assert sorted(found) == ["cli.py:_build_parser", "cli.py:_read_graph", "graphs.py:_vertex_planes"]


def test_the_runtime_loads_no_test_dependency():
    # a fresh interpreter, since this one has loaded the test extra
    code = ('import sys, kended; bad = sorted({"networkx", "hypothesis", "jsonschema"} & set(sys.modules)); '
            'sys.exit(f"import kended loaded {bad}" if bad else 0)')
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def test_every_target_of_the_benchmark_tracer_resolves_in_kended():
    # bench/tracer.py wraps each module.qualname of its TARGETS literal when a
    # benchmark run traces; no test runs a trace, so a renamed or removed target
    # would break it unseen. A method must be in its class's own namespace,
    # where the tracer swaps it
    path = ROOT / "bench" / "tracer.py"
    targets = next(ast.literal_eval(node.value) for node in ast.parse(path.read_text(), str(path)).body
                   if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    missing = []
    for short, names in targets.items():
        module = importlib.import_module(f"kended.{short}")
        for qualname in names:
            owner, _, attr = qualname.rpartition(".")
            namespace = getattr(getattr(module, owner, None), "__dict__", {}) if owner else vars(module)
            if not callable(namespace.get(attr)):
                missing.append(f"{short}.{qualname}")
    assert targets and missing == []


def kended_chain(node) -> list[str] | None:
    """["kended", "verify", "GraphContext"] for the expression kended.verify.GraphContext."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def test_every_kended_name_the_benchmark_selftest_reaches_resolves():
    # bench/selftest.py seeds its faults through kended names: attribute chains
    # from the package (kended.verify._verdict_cover) or from a local name bound
    # to one (invariants = kended.invariants), patch targets (owner, "name",
    # value), which it swaps in the owner's own namespace, and reads of the
    # sweep context (ctx._construct). Only a selftest run reaches them, so a
    # renamed or removed name would break it unseen
    import kended
    from kended.graphs import Graph
    from kended.verify import GraphContext

    path = ROOT / "bench" / "selftest.py"
    missing, reached, targets = [], set(), 0

    def resolve(parts, names):
        if parts is None or parts[0] not in names:
            return None
        value = names[parts[0]]
        for depth, attr in enumerate(parts[1:], 2):
            if not hasattr(value, attr):
                missing.append(".".join(parts[:depth]))
                return None
            value = getattr(value, attr)
        reached.add(".".join(parts))
        return value

    for function in ast.parse(path.read_text(), str(path)).body:
        names = {"kended": kended, "ctx": GraphContext(Graph(1, [0]))}
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                (target,), value = node.targets, node.value
                pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                         and isinstance(value, ast.Tuple) else [(target, value)])
                for name, expression in pairs:
                    bound = resolve(kended_chain(expression), names)
                    if isinstance(name, ast.Name) and bound is not None:
                        names[name.id] = bound
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute):
                resolve(kended_chain(node), names)
            elif isinstance(node, ast.Tuple) and len(node.elts) == 3:
                owner, attr = kended_chain(node.elts[0]), node.elts[1]
                if owner and owner[0] in names and isinstance(attr, ast.Constant):
                    targets += 1
                    value = resolve(owner, names)
                    if value is not None and attr.value not in vars(value):
                        missing.append(f"{'.'.join(owner)}.{attr.value}")
    assert missing == []
    assert targets == 2 and {"kended.verify._verdict_cover", "invariants.local_connectivity",
                             "ctx._construct", "ctx.cover_tree"} <= reached
