import dataclasses
import enum
import json

import pytest

from kended import cli, report
from kended.families import GraphFamilySpec, make_family
from kended.graphs import Tree
from kended.invariants import ConnectivityValue
from kended.report import (
    REPORT_SCHEMA,
    make_report,
    render_report,
    sharpness_to_json,
    tree_to_json,
    verdict_to_json,
)
from kended.verify import SweepPlan, run_sweep, verify_instance, verify_sharpness
from kended.graphs import VertexSet


def test_kappa_encoding():
    assert ConnectivityValue.INFINITE.to_json() == "infinity"
    assert ConnectivityValue(4).to_json() == 4


def test_tree_round_trip():
    tree = Tree(5, (0, 1, 2, 4), [(0, 1), (1, 2), (2, 4)])
    payload = tree_to_json(tree)
    assert payload["edges"] == [[0, 1], [1, 2], [2, 4]]
    assert Tree(**json.loads(json.dumps(payload))) == tree


def test_verdict_serialization_includes_infinity():
    graph, _ = make_family(GraphFamilySpec("complete-bipartite", (2, 1)))
    verdict = verify_instance(graph, VertexSet.from_vertices(5, [2]), 2)[0]
    payload = verdict_to_json(verdict)
    assert payload["kappa"] == "infinity"
    assert payload["claim"] == "kended-cover"
    assert payload["S"] == [2]


def test_sharpness_serialization_contract():
    payload = sharpness_to_json(verify_sharpness(2, 2))
    assert payload["expected"] == {"alpha": 4, "kappa": 2, "min_leaves": 3, "min_branch": 1}
    assert payload["matches_expected"] is True


def test_report_schema_validates_outputs(monkeypatch, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    report = make_report("analyze", {"n": 3}, {"alpha": 1}, 0.5)
    jsonschema.validate(report, REPORT_SCHEMA)
    report = make_report("verify", {}, {}, None)
    jsonschema.validate(report, REPORT_SCHEMA)
    docs, _ = cli_reports(monkeypatch, tmp_path)
    assert len(docs) == 14
    for doc in docs:
        jsonschema.validate(doc, REPORT_SCHEMA)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"schema_version": "1"}, REPORT_SCHEMA)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(
            make_report("nosuch", {}, {}, None), REPORT_SCHEMA
        )


def test_render_report_is_json():
    report = make_report("sharpness", {}, {"all_match": True}, None)
    text = render_report(report)
    assert text.endswith("\n")
    assert json.loads(text) == report


def test_sweep_report_claims_sorted():
    from kended.report import sweep_report_to_json

    payload = sweep_report_to_json(run_sweep(SweepPlan(mode="exhaustive", n=2)), True)
    assert list(payload["claims"]) == sorted(payload["claims"])


# graph6 ids holding a character that is JSON syntax or that json escapes
ESCAPED_GRAPH6 = ["C[", "C\\", "C]", "C{", "C}"]


def cli_reports(monkeypatch, tmp_path):
    """The report documents of all four commands, with timing on and off, as
    main built them, and the texts it wrote for them."""
    docs = []
    make = report.make_report
    monkeypatch.setattr(report, "make_report", lambda *args: docs.append(make(*args)) or docs[-1])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.g6").write_text("".join(g6 + "\n" for g6 in ESCAPED_GRAPH6))
    (tmp_path / "b.g6").write_text("C\\\n")
    (tmp_path / "g.plan").write_text("mode = graph6\npath = g.g6\n")
    (tmp_path / "e.plan").write_text("mode = exhaustive\nn = 3\n")
    runs = [["analyze", "--family", "kmm 2 2", "--set", "B"], ["analyze", "--graph", "b.g6"],
            ["construct", "--family", "petersen", "--k", "2"], ["construct", "--graph", "b.g6", "--k", "2"],
            ["verify", "--plan", "g.plan"], ["verify", "--plan", "e.plan"],
            ["sharpness", "--m-range", "1..2", "--k-range", "1..2"]]
    texts = []
    for argv in runs:
        for timing in ([], ["--no-timing"]):
            assert cli.main(argv + timing + ["--out", "r.json"]) == 0, argv
            texts.append((tmp_path / "r.json").read_text())
    return docs, texts


def test_render_report_equals_json_dumps_on_every_command(monkeypatch, tmp_path):
    docs, texts = cli_reports(monkeypatch, tmp_path)
    assert len(docs) == len(texts) == 14
    assert {doc["command"] for doc in docs} == {"analyze", "construct", "verify", "sharpness"}
    assert sum(type(doc["timing"]["total_seconds"]) is float for doc in docs if doc["timing"]) == 7
    assert {doc["inputs"].get("graph6") for doc in docs} >= {"C\\"}
    assert any(doc["results"].get("worst_case", {}).get("graph_id") in ESCAPED_GRAPH6 for doc in docs)
    for doc, text in zip(docs, texts):
        assert text == render_report(doc) == json.dumps(doc, indent=2) + "\n"


class Level(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("doc", [
    report.plan_to_json(SweepPlan()),
    report.plan_to_json(SweepPlan(mode="graph6", path="in.g6", p=0.25)),
    {"plan": dataclasses.asdict(SweepPlan(mode="random")), "subset": (0, 2), "pairs": ((1, 2), [3, (4,)])},
    {}, [], (), {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
    {"quote\"": "say \"hi\"", "back\\slash": "a\\b\\", "ctl": "\x00\x01\x1f\t\n\r\x7f"},
    {"text": "Bj\u00f6rklund \u2264 \u00e6\u00f8\u00e5 \U0001d11e", "\u00fc": ["\u03b1", "\u03ba"]},
    {"ids": ESCAPED_GRAPH6, "by_id": {g6: [g6] for g6 in ESCAPED_GRAPH6}},
    [1, True, None], [True, False, None, 0, 1], [-1, 0, -(2 ** 64), 2 ** 70, 10 ** 30],
    {"t": [0.5, 1e-7, -0.0, 1e300, float("inf"), float("-inf"), float("nan")]},
    "plain", 7, None, False, 2.5,
])
def test_render_report_equals_json_dumps(doc):
    assert render_report(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {"k": Level.ONE}, [1, Level.ONE], Level.ONE,
    {1: "a"}, {"a": {None: 1}}, {"a": {True: 1}},
    {1, 2}, {"s": {1}}, [frozenset()], b"bytes",
])
def test_render_report_raises_on_a_subclass_a_non_str_key_or_a_set(doc):
    with pytest.raises(TypeError):
        render_report(doc)
