import argparse
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kended.cli as cli
from kended import invariants
from kended.errors import InternalInvariantError
from kended.families import GraphFamilySpec, make_family, parse_family_spec
from kended.formats import emit_edge_list, emit_graph6
from kended.report import REPORT_SCHEMA

from conftest import time_limit

try:
    import jsonschema
except ImportError:    # the schema check needs the test extra; exit codes and results do not
    jsonschema = None


PETERSEN_K2 = ("construct", "--family", "petersen", "--k", "2", "--no-timing")
PATH11_GRAPH6 = "JhCGGC@?G?_"    # the path on 11 vertices, one above the cap


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    """The parsed report, validated against REPORT_SCHEMA where jsonschema
    imports; where it does not, test_report.py's schema test reports the skip."""
    doc = json.loads(out)
    if jsonschema is not None:
        jsonschema.validate(doc, REPORT_SCHEMA)
    return doc


def test_analyze_family_kmm(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--family", "kmm 3 1", "--set", "B")
    assert code == 0
    doc = report_of(out)
    res = doc["results"]
    assert res["alpha"] == 4
    assert res["kappa"] == 3
    assert res["threshold_k"] == 2
    assert res["graph_connected"] is True
    assert doc["inputs"]["set"] == [3, 4, 5, 6]


def test_analyze_singleton_set_reports_infinity(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--family", "cycle 5", "--set", "2")
    assert code == 0
    res = report_of(out)["results"]
    assert res["kappa"] == "infinity"
    assert res["threshold_k"] == 2


def test_analyze_c5_threshold(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--family", "cycle 5", "--set", "all")
    assert code == 0
    res = report_of(out)["results"]
    assert res["alpha"] == 2 and res["kappa"] == 2
    assert res["threshold_k"] == 2


def test_analyze_graph_file_edgelist(tmp_path, capsys):
    graph, _ = make_family(GraphFamilySpec("cycle", (4,)))
    f = tmp_path / "c4.txt"
    f.write_text(emit_edge_list(graph))
    code, out, _ = run_cli(
        capsys, "analyze", "--graph", str(f), "--format", "edgelist", "--set", "all"
    )
    assert code == 0
    assert report_of(out)["results"]["alpha"] == 2


def test_analyze_runs_each_pair_flow_once_across_s_and_v(capsys, monkeypatch):
    # C6 with S = {0, 3}: V's loop reaches (0, 3) again, below its running minimum
    original = invariants.local_connectivity
    flows = []

    def counted(graph, x, y):
        flows.append((x, y))
        return original(graph, x, y)

    monkeypatch.setattr(invariants, "local_connectivity", counted)
    code, out, _ = run_cli(capsys, "analyze", "--family", "cycle 6", "--set", "0,3", "--no-timing")
    assert code == 0
    res = report_of(out)["results"]
    assert res["kappa"] == res["graph_connectivity"] == 2
    assert flows[0] == (0, 3)
    assert len(flows) == len(set(flows))


def test_internal_error_exits_one_with_reproduction_data(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalInvariantError("boom")

    monkeypatch.setattr(cli, "construct_k_ended_tree", broken)
    graph, _ = make_family(GraphFamilySpec("cycle", (5,)))
    code, out, err = run_cli(capsys, "construct", "--family", "cycle 5", "--set", "0,2", "--k", "3")
    assert code == 1
    assert out == ""
    assert err == f"kended: internal error: boom (graph6={emit_graph6(graph)}, S=[0, 2], k=3)\n"


def test_construct_petersen_hamiltonian_trace(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "petersen", "--set", "all", "--k", "2")
    assert code == 0
    res = report_of(out)["results"]
    assert res["outcome"] == "covering"
    assert res["leaf_count"] <= 2
    assert res["covers_set"] is True
    assert len(res["trace"]["base_path"]) == 10
    assert res["trace"]["attachments"] == []


def test_construct_sharpness_cell_residual(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "kmm 2 2", "--set", "B", "--k", "2")
    assert code == 0
    res = report_of(out)["results"]
    assert res["outcome"] in ("covering", "residual-bound")
    if res["outcome"] == "residual-bound":
        assert res["residual_alpha"] <= res["bound"] == 1


def test_construct_empty_set_trivially_covered(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "cycle 4", "--set", "none", "--k", "2")
    assert code == 0
    res = report_of(out)["results"]
    assert res["outcome"] == "covering"
    assert res["covers_set"] is True


def test_graph6_stdin(capsys, monkeypatch):
    graph, _ = make_family(GraphFamilySpec("cycle", (5,)))
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_graph6(graph) + "\n"))
    code, out, _ = run_cli(capsys, "analyze", "--graph", "-", "--set", "all")
    assert code == 0
    assert report_of(out)["results"]["alpha"] == 2


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", "--family", "nosuch 1")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "analyze", "--family", "cycle 5", "--set", "9")
    assert code == 2
    code, _, err = run_cli(capsys, "analyze")
    assert code == 2
    bad = tmp_path / "bad.g6"
    bad.write_text("~~~\n")
    code, _, err = run_cli(capsys, "analyze", "--graph", str(bad))
    assert code == 2
    code, _, err = run_cli(capsys, "construct", "--family", "kmm 2 1", "--set", "B", "--k", "1")
    assert code == 2
    plan = tmp_path / "bad.plan"
    plan.write_text("mode = nosuch\n")
    code, _, err = run_cli(capsys, "verify", "--plan", str(plan))
    assert code == 2
    # the vertex cap is fixed at 10: no --cap option, and larger inputs are refused
    code, _, err = run_cli(capsys, "construct", "--family", "petersen", "--k", "2", "--cap", "11")
    assert code == 2 and "unrecognized arguments: --cap 11" in err
    big = tmp_path / "path11.g6"
    big.write_text(PATH11_GRAPH6 + "\n")
    code, _, err = run_cli(capsys, "construct", "--graph", str(big), "--k", "2")
    assert code == 2 and "above the cap 10" in err
    code, _, err = run_cli(capsys, "analyze", "--family", "path 11")
    assert code == 2 and "above the cap 10" in err
    plan.write_text(f"mode = graph6\npath = {big}\ns_policy = s=v\n")
    code, _, err = run_cli(capsys, "verify", "--plan", str(plan))
    assert code == 2 and "above the cap 10" in err


def test_unreadable_paths_exit_2(capsys, tmp_path):
    for argv in (("analyze", "--graph", str(tmp_path)),
                 ("verify", "--plan", str(tmp_path)),
                 ("analyze", "--family", "petersen", "--out", str(tmp_path))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("kended: error:"), argv


def test_set_b_requires_family(capsys):
    code, _, err = run_cli(capsys, "analyze", "--family", "cycle 5", "--set", "B")
    assert code == 2


def test_verify_small_plan_exit_zero(tmp_path, capsys):
    plan = tmp_path / "small.plan"
    plan.write_text("mode = exhaustive\nn = 3\n")
    code, out, _ = run_cli(capsys, "verify", "--plan", str(plan))
    assert code == 0
    res = report_of(out)["results"]
    assert res["zero_counterexamples"] is True
    assert res["graphs_evaluated"] == 6


def test_verify_writes_out_file(tmp_path, capsys):
    plan = tmp_path / "small.plan"
    plan.write_text("mode = exhaustive\nn = 2\n")
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--plan", str(plan), "--out", str(target))
    assert code == 0
    assert out == ""
    assert report_of(target.read_text())["results"]["zero_counterexamples"] is True


def test_sharpness_small_grid_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "sharpness", "--m-range", "1..2", "--k-range", "1..2")
    assert code == 0
    res = report_of(out)["results"]
    assert res["all_match"] is True
    assert len(res["cells"]) == 4


def test_sharpness_k3_mismatch_exits_one(capsys):
    # 1 is the proved minimum branch count for k >= 2; the program's own
    # reported expectation is still k - 1, so k >= 3 cells exit 1
    code, out, _ = run_cli(capsys, "sharpness", "--m-range", "1..1", "--k-range", "3..3")
    assert code == 1
    res = report_of(out)["results"]
    assert res["all_match"] is False
    assert res["cells"][0]["min_branch"] == 1
    assert res["cells"][0]["expected"]["min_branch"] == 2


def test_sharpness_skips_cells_above_cap(capsys):
    code, out, _ = run_cli(capsys, "sharpness", "--m-range", "4..4", "--k-range", "1..3")
    res = report_of(out)["results"]
    assert [4, 3] in res["skipped_cells"]


def test_sharpness_refuses_a_range_above_the_cap_at_once(capsys):
    # a range is refused before its skipped cells are listed one by one
    for m_range, k_range in (("1..100000000", "1..1"), ("1..1", "1..100000000"), ("1..11", "1..1")):
        with time_limit(2):
            code, out, err = run_cli(capsys, "sharpness", "--m-range", m_range, "--k-range", k_range)
        assert (code, out) == (2, "")
        assert "above the cap 10" in err


def test_byte_stable_reports_without_timing(capsys, tmp_path):
    # the same argv twice in one process: same exit code and bytes
    for args in (("analyze", "--family", "kmm 2 2", "--set", "B", "--no-timing"), PETERSEN_K2):
        first = run_cli(capsys, *args)
        assert run_cli(capsys, *args) == first
        assert first[0] == 0 and first[2] == ""
        assert json.loads(first[1])["timing"] is None

    plan = tmp_path / "p.plan"
    plan.write_text("mode = random\nn = 5\np = 0.5\ncount = 10\nseed = 3\ns_policy = s=v\n")
    _, first, _ = run_cli(capsys, "verify", "--plan", str(plan), "--no-timing")
    _, second, _ = run_cli(capsys, "verify", "--plan", str(plan), "--no-timing")
    assert first == second


def test_seed_override_changes_random_plan(tmp_path, capsys):
    plan = tmp_path / "p.plan"
    plan.write_text("mode = random\nn = 5\np = 0.5\ncount = 10\nseed = 3\ns_policy = s=v\n")
    _, base, _ = run_cli(capsys, "verify", "--plan", str(plan), "--no-timing")
    _, reseeded, _ = run_cli(capsys, "verify", "--plan", str(plan), "--seed", "4", "--no-timing")
    assert json.loads(base)["inputs"]["plan"]["seed"] == 3
    assert json.loads(reseeded)["inputs"]["plan"]["seed"] == 4


@pytest.mark.parametrize("argv, message", [
    (("sharpness", "--m-range", "1..x"), "--m-range '1..x' is not A..B with integers A and B"),
    (("sharpness", "--k-range", ".."), "--k-range '..' is not A..B with integers A and B"),
    (("analyze", "--family", "kmm 2 x"), "family 'complete-bipartite' parameter 'x' is not an integer"),
    (("analyze", "--family", "gnp 9 p 3"), "family 'random-gnp' parameter 'p' is not a number"),
])
def test_a_malformed_range_or_family_parameter_is_named(capsys, argv, message):
    assert run_cli(capsys, *argv, "--no-timing") == (2, "", f"kended: error: {message}\n")


# a plain request is read in one pass over its command's option table; every
# other argv goes to the kended parser as a whole
PARSE_CORPUS = [
    (), ("--help",), ("-h",), ("bogus",), ("--no-timing", "analyze"), ("analyze", "-h"), ("analyze",),
    ("analyze", "--fam", "petersen"), ("analyze", "--family=petersen", "--no-t"),
    ("analyze", "--family", "kmm 3 1", "--set", "B"), ("analyze", "--family", "cycle 5", "--set", "2"),
    ("analyze", "--graph", "c4.txt", "--format", "edgelist", "--set", "all"),
    ("analyze", "--graph", "-", "--set", "all"), ("analyze", "--graph", "g.g6", "--format", "nope"),
    ("analyze", "--", "--family"), ("analyze", "--family", "petersen", "--out", "r.json"),
    ("analyze", "--family", "petersen", "--graph", "g.g6"),
    PETERSEN_K2, ("construct", "--family", "petersen"), ("construct", "--family", "petersen", "--k", "x"),
    ("construct", "--family", "cycle 5", "--set", "0,2", "--k", "3"),
    ("construct", "--family", "petersen", "--k", "2", "--cap", "11"),
    ("construct", "--family", "petersen", "--k", "2", "--k", "3"),
    ("verify",), ("verify", "--plan", "p.plan", "--seed", "4", "--no-timing"), ("verify", "--seed", "x"),
    ("verify", "--plan", "p.plan", "--out", "r.json"),
    ("sharpness",), ("sharpness", "extra"), ("sharpness", "--m-range", "1..2", "--k-range", "1..2"),
    ("sharpness", "--m-range", "1..x"), ("sharpness", "--family", "petersen"),
    ("analyze", "--family", "petersen", "--no-timing", "--no-timing"), ("analyze", "--graph", "-"),
    ("construct", "--family", "petersen", "--k", "-1"), ("construct", "--family", "petersen", "--k", " 3"),
    ("analyze", "--family", "petersen", "--set", ""), ("construct", "--family", "petersen", "--set", "--k", "2"),
    ("construct", "--graph", "g.txt", "--format", "edgelist", "--k", "2"), ("verify", "--seed", "4"),
    ("sharpness", "--k-range", "2"),
    ("analyze", "--graph", "g.g6", "--format", "graph6", "--family", "petersen", "--set", "B", "--out", "r.json",
     "--no-timing"),
    ("construct", "--no-timing", "--out", "r.json", "--set", "0,2", "--family", "kmm 2 1", "--format", "edgelist",
     "--graph", "g.txt", "--k", "3"),
    ("verify", "--out", "r.json", "--seed", "4", "--no-timing", "--plan", "p.plan"),
    ("sharpness", "--no-timing", "--k-range", "1..2", "--m-range", "2..2", "--out", "r.json"),
]


def parse_outcome(capsys, parse, argv):
    try:
        outcome = vars(parse(list(argv)))
    except SystemExit as exc:
        outcome = exc.code
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "no arguments")
def test_parse_args_matches_the_kended_parser(capsys, argv):
    kended_parser, _ = cli._build_parser()
    assert parse_outcome(capsys, cli._parse_args, argv) == parse_outcome(capsys, kended_parser.parse_args, argv)


# option strings and values at the table pass's edges: values that start with
# '-', are empty, padded, malformed or out of choices, abbreviations and '='
OPTIONS = ["--graph", "--format", "--family", "--set", "--out", "--no-timing", "--k", "--plan", "--seed", "--m-range",
           "--k-range"]
TOKENS = OPTIONS + ["-h", "--fam", "--k=2", "--", "-", "-1", "", " 3", "x", "2", "graph6", "edgelist", "petersen",
                    "1..2", "B", "1_0", "analyze"]


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["analyze", "construct", "verify", "sharpness"]),
       st.lists(st.one_of(st.tuples(st.sampled_from(OPTIONS), st.sampled_from(TOKENS)), st.sampled_from(TOKENS)),
                max_size=6))
def test_parse_args_matches_the_kended_parser_on_drawn_argvs(capsys, command, parts):
    argv = [command] + [token for part in parts for token in (part if isinstance(part, tuple) else (part,))]
    kended_parser, _ = cli._build_parser()
    assert parse_outcome(capsys, cli._parse_args, argv) == parse_outcome(capsys, kended_parser.parse_args, argv)


def test_a_well_formed_request_is_parsed_once(capsys, monkeypatch, tmp_path):
    # a plain request calls no argparse parse method; an irregular one (here
    # an abbreviated option) calls the kended parser's parse_args once
    plan = tmp_path / "p.plan"
    plan.write_text("mode = exhaustive\nn = 2\n")
    calls = []
    for name in ("parse_args", "parse_known_args"):
        original = getattr(argparse.ArgumentParser, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls.append((self.prog, _name))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, name, counted)
    for argv in (PETERSEN_K2, ("analyze", "--family", "kmm 2 1", "--set", "B", "--no-timing"),
                 ("verify", "--plan", str(plan), "--no-timing"),
                 ("sharpness", "--m-range", "1..1", "--k-range", "2", "--no-timing")):
        calls.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert calls == [], argv
    calls.clear()
    assert run_cli(capsys, "analyze", "--fam", "petersen", "--no-timing")[0] == 0
    assert calls[0] == ("kended", "parse_args") and calls.count(("kended", "parse_args")) == 1


def test_every_option_is_a_plain_store_or_store_true(capsys):
    # the table pass reads a store option's one value and a store_true
    # option alone; an option of any other kind must fail here, not be misread
    kended_parser, tables = cli._build_parser()
    commands = next(a for a in kended_parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(commands) == sorted(tables)
    for name, command in commands.items():
        for action in command._actions:
            assert (type(action), action.nargs) in ((argparse._StoreAction, None), (argparse._StoreTrueAction, 0),
                                                    (argparse._HelpAction, 0)), (name, action)
        options = {flag: action for action in command._actions if not isinstance(action, argparse._HelpAction)
                   for flag in action.option_strings}
        assert tables[name] == options, name


# main(argv) is reentrant: one parser per process, and one Graph per distinct
# input whose memos every request on that graph shares; nothing else is kept


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    # the parser is the main one, 2 parents and 4 subparsers; rebuilding it
    # per call would make 21 for three calls
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    for argv in (("analyze", "--family", "cycle 5", "--no-timing"), PETERSEN_K2,
                 ("analyze", "--family", "kmm 2 1", "--set", "B", "--no-timing")):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    assert len(built) <= 7


def test_usage_error_leaves_the_next_request_intact(capsys):
    expected = run_cli(capsys, *PETERSEN_K2)
    assert cli.main(["construct", "--family", "petersen", "--no-timing"]) == 2
    assert "--k" in capsys.readouterr().err
    assert run_cli(capsys, *PETERSEN_K2) == expected
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and out.startswith("usage: kended")
    assert run_cli(capsys, *PETERSEN_K2) == expected


def test_main_runs_a_handler_rebound_after_the_first_call(capsys, monkeypatch):
    argv = ("analyze", "--family", "cycle 5", "--no-timing")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.family) or ({}, {}, 0))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and report_of(out)["results"] == {}
    assert seen == ["cycle 5"]


def test_requests_print_the_same_bytes_cold_warm_and_after_clearing(capsys, monkeypatch, tmp_path):
    petersen, _ = make_family(GraphFamilySpec("petersen"))
    g6 = tmp_path / "petersen.g6"
    g6.write_text(emit_graph6(petersen) + "\n")
    gnp, _ = make_family(parse_family_spec("gnp 9 0.4 3"))
    edges = tmp_path / "gnp.txt"
    edges.write_text(emit_edge_list(gnp))
    stdin_text = emit_graph6(make_family(GraphFamilySpec("cycle", (7,)))[0]) + "\n"
    sources = [("--family", "kmm 2 3", "--set", "B"), ("--graph", str(g6), "--set", "0,2,4,6,8"),
               ("--graph", str(edges), "--format", "edgelist", "--set", "all"), ("--graph", "-", "--set", "1,3,5")]
    requests = [("analyze", *source, "--no-timing") for source in sources]
    requests += [("construct", *source, "--k", str(k), "--no-timing") for source in sources for k in range(2, 6)]

    def outputs(order):
        printed = {}
        for argv in order:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == ""
            printed[argv] = out
        return printed

    cold = outputs(requests)
    assert cli._read_graph.cache_info().currsize == len(sources)
    warm = outputs(requests[::-1])
    assert cli._read_graph.cache_info().misses == len(sources)
    cli._read_graph.cache_clear()
    assert cold == warm == outputs(requests)


def container_sizes(value):
    """The size of every container in value, inner ones included, as fresh
    tuples; any other value as it is."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return len(value), tuple(container_sizes(item) for item in value)
    return value


def test_a_repeated_construct_keeps_every_graph_memo_flat(capsys):
    # K_{2,4} with S = B at k = 3 attaches a path to its base path, so every
    # request builds a new tree; each memo of the cached Graph is a function of
    # its rows, so after the first request none grows, at any depth
    argv = ("construct", "--family", "kmm 2 2", "--set", "B", "--k", "3", "--no-timing")
    sizes = []
    for _ in range(21):
        assert run_cli(capsys, *argv)[0] == 0
        graph = cli._read_graph(parse_family_spec("kmm 2 2"))[0]
        sizes.append({name: container_sizes(getattr(graph, name)) for name in graph.__slots__})
    assert cli._read_graph.cache_info().misses == 1
    assert sizes[0]["_path_trees"][0] > 0 and sizes[0]["_first_paths"][0] > 0
    assert all(size == sizes[0] for size in sizes)


def test_a_rewritten_file_gives_the_new_graph(capsys, tmp_path):
    f = tmp_path / "g.g6"
    for n, alpha in ((5, 2), (7, 3)):
        graph, _ = make_family(GraphFamilySpec("cycle", (n,)))
        f.write_text(emit_graph6(graph) + "\n")
        code, out, _ = run_cli(capsys, "analyze", "--graph", str(f), "--no-timing")
        assert code == 0
        doc = report_of(out)
        assert doc["inputs"]["graph6"] == emit_graph6(graph)
        assert doc["results"]["alpha"] == alpha


def test_a_usage_error_is_raised_on_every_call_and_never_cached(capsys, tmp_path):
    empty = tmp_path / "empty.g6"
    empty.write_text("\n")
    for argv in (("analyze", "--family", "cycle 2"), ("analyze", "--graph", str(empty))):
        for _ in range(2):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("kended: error: ")
    info = cli._read_graph.cache_info()
    assert info.currsize == 0 and info.misses == 4


def test_a_graph6_input_of_two_records_is_refused(capsys, tmp_path):
    # analyze and construct take one graph; the second record was dropped
    f = tmp_path / "two.g6"
    for text in ("Dhc\nC~\n", "Dhc\n\nC~"):
        f.write_text(text)
        for argv in (("analyze", "--graph", str(f)), ("construct", "--graph", str(f), "--k", "2")):
            assert run_cli(capsys, *argv, "--no-timing") == (
                2, "", "kended: error: graph6 input has 2 records; one graph is expected\n"), (text, argv)


def test_a_graph6_record_with_a_trailing_newline_or_blank_lines_is_read(capsys, tmp_path):
    f = tmp_path / "one.g6"
    for text in ("Dhc\n", "\n Dhc \n\n"):
        f.write_text(text)
        code, out, _ = run_cli(capsys, "analyze", "--graph", str(f), "--no-timing")
        assert code == 0 and report_of(out)["inputs"]["graph6"] == "Dhc", text


def test_an_input_above_the_cap_is_refused_before_its_graph_is_built(capsys, tmp_path):
    # a family by its spec and an edge list by its header: building either
    # graph on 200,000 vertices would take seconds and gigabytes
    big = tmp_path / "big.txt"
    big.write_text("n 200000\n")
    for argv in (("analyze", "--family", "cycle 200000"),
                 ("analyze", "--graph", str(big), "--format", "edgelist"),
                 ("construct", "--family", "kmm 100000 1", "--set", "B", "--k", "2")):
        with time_limit(1):
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and "above the cap 10" in err, argv
    assert cli._read_graph.cache_info().currsize == 0
    code, out, _ = run_cli(capsys, "analyze", "--family", "cycle 5", "--no-timing")
    assert code == 0 and report_of(out)["results"]["alpha"] == 2
