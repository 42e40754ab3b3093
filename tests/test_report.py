import json

import pytest

from kended.families import GraphFamilySpec, make_family
from kended.graphs import Tree
from kended.invariants import ConnectivityValue
from kended.report import (
    REPORT_SCHEMA,
    make_report,
    path_from_json,
    path_to_json,
    render_report,
    sharpness_to_json,
    tree_from_json,
    tree_to_json,
    verdict_to_json,
)
from kended.verify import SweepPlan, run_sweep, verify_kended_cover, verify_sharpness
from kended.graphs import VertexSet

jsonschema = pytest.importorskip("jsonschema")


def test_kappa_encoding():
    assert ConnectivityValue.INFINITE.to_json() == "infinity"
    assert ConnectivityValue(4).to_json() == 4


def test_tree_round_trip():
    tree = Tree(5, (0, 1, 2, 4), [(0, 1), (1, 2), (2, 4)])
    payload = tree_to_json(tree)
    assert payload["edges"] == [[0, 1], [1, 2], [2, 4]]
    assert tree_from_json(json.loads(json.dumps(payload))) == tree


def test_tree_from_json_rejects_invalid():
    with pytest.raises(ValueError):
        tree_from_json({"host_n": 3, "vertices": [0, 1, 2], "edges": [[0, 1]]})


def test_path_round_trip():
    from kended.graphs import Path

    path = Path((3, 1, 0))
    assert path_from_json(path_to_json(path)) == path


def test_verdict_serialization_includes_infinity():
    graph, _ = make_family(GraphFamilySpec("complete-bipartite", (2, 1)))
    verdict = verify_kended_cover(graph, VertexSet.from_vertices(5, [2]), 2)
    payload = verdict_to_json(verdict)
    assert payload["kappa"] == "infinity"
    assert payload["claim"] == "kended-cover"
    assert payload["S"] == [2]


def test_sharpness_serialization_contract():
    payload = sharpness_to_json(verify_sharpness(2, 2))
    assert payload["expected"] == {"alpha": 4, "kappa": 2, "min_leaves": 3, "min_branch": 1}
    assert payload["matches_expected"] is True


def test_report_schema_validates_outputs():
    report = make_report("analyze", {"n": 3}, {"alpha": 1}, 0.5)
    jsonschema.validate(report, REPORT_SCHEMA)
    report = make_report("verify", {}, {}, None)
    jsonschema.validate(report, REPORT_SCHEMA)
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
