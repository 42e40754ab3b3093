"""JSON report documents: schema and encoders.

Every CLI command emits one document with schema_version, command, an echo of
its inputs, a results payload and a timing block. Infinite connectivity is
serialized as the string "infinity", never a number; trees are serialized as
sorted edge lists.

`render_report` writes a document exactly as `json.dumps(report, indent=2)`
does. It is written by hand because json's C encoder runs only without an
indent (CPython 3.10-3.12), so an indented dump runs json's generator-based
Python encoder, about twice the time of this one recursive renderer.
"""

from __future__ import annotations

import dataclasses
import json
from json.encoder import encode_basestring_ascii
from typing import Any

from .graphs import Tree
from .verify import SharpnessVerdict, SweepPlan, SweepReport, TheoremVerdict

SCHEMA_VERSION = "1"

REPORT_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema_version", "command", "inputs", "results", "timing"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": ["analyze", "construct", "verify", "sharpness"]},
        "inputs": {"type": "object"},
        "results": {"type": "object"},
        "timing": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["total_seconds"],
                    "additionalProperties": False,
                    "properties": {"total_seconds": {"type": "number", "minimum": 0}},
                },
            ]
        },
    },
    "definitions": {
        "kappa": {
            "oneOf": [{"type": "integer", "minimum": 0}, {"const": "infinity"}]
        },
        "tree": {
            "type": "object",
            "required": ["host_n", "vertices", "edges"],
            "additionalProperties": False,
            "properties": {
                "host_n": {"type": "integer", "minimum": 0},
                "vertices": {"type": "array", "items": {"type": "integer"}},
                "edges": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "integer"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
        },
        "path": {"type": "array", "items": {"type": "integer"}},
    },
}


def tree_to_json(tree: Tree) -> dict:
    return {
        "host_n": tree.host_n,
        "vertices": list(tree.vertices),
        "edges": [list(edge) for edge in tree.edges],
    }


def verdict_to_json(verdict: TheoremVerdict) -> dict:
    return {
        "claim": verdict.claim,
        "graph_id": verdict.graph_id,
        "S": list(verdict.subset),
        "k": verdict.k,
        "alpha": verdict.alpha,
        "kappa": verdict.kappa.to_json(),
        "hypothesis_holds": verdict.hypothesis_holds,
        "conclusion_holds": verdict.conclusion_holds,
        "witness": None if verdict.witness is None else tree_to_json(verdict.witness),
        "detail": verdict.detail,
    }


def sharpness_to_json(verdict: SharpnessVerdict) -> dict:
    return {
        "m": verdict.m,
        "k": verdict.k,
        "alpha": verdict.alpha,
        "kappa": verdict.kappa,
        "min_leaves": verdict.min_leaves,
        "min_branch": verdict.min_branch,
        "expected": verdict.expected,
        "matches_expected": verdict.matches_expected,
    }


def plan_to_json(plan: SweepPlan) -> dict:
    return dataclasses.asdict(plan)


def sweep_report_to_json(report: SweepReport, include_timing: bool) -> dict:
    claims = {claim: dataclasses.asdict(report.claims[claim]) for claim in sorted(report.claims)}
    out = {
        "plan": plan_to_json(report.plan),
        "graphs_evaluated": report.graphs_evaluated,
        "skipped_disconnected": report.skipped_disconnected,
        "instances": report.total_instances,
        "zero_counterexamples": True,
        "claims": claims,
    }
    if include_timing:
        worst = report.worst
        out["worst_case"] = None if worst is None else {
            "elapsed_seconds": worst.elapsed, "graph_id": worst.graph_id}
    return out


def make_report(command: str, inputs: dict, results: dict, elapsed: float | None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "timing": None if elapsed is None else {"total_seconds": elapsed},
    }


def render_report(report: dict) -> str:
    """The report as `json.dumps(report, indent=2)` writes it, plus a newline."""
    return _render(report, "") + "\n"


def _render(value: Any, pad: str) -> str:
    """One JSON value at indent `pad`. Only exact dict, list, tuple, str, int
    and float values and True, False and None are rendered; any other value,
    a subclass or a non-str key included, raises TypeError rather than risk
    a rendering that differs from json's."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        if all(type(item) is int for item in value):
            items = map(int.__repr__, value)
        else:
            items = [_render(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"report key {key!r} is not a str")
            items.append(encode_basestring_ascii(key) + ": " + _render(item, inner))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is float:
        return json.dumps(value)
    raise TypeError(f"report value of type {kind.__name__} is not rendered")
