"""JSON report documents: schema, encoders and round-trip helpers.

Every CLI command emits one document with schema_version, command, an echo of
its inputs, a results payload and a timing block. Infinite connectivity is
serialized as the string "infinity", never a number; trees are serialized as
sorted edge lists and re-parse into valid Tree values.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from .graphs import Path, Tree
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


def tree_from_json(obj: dict) -> Tree:
    return Tree(obj["host_n"], obj["vertices"], [tuple(e) for e in obj["edges"]])


def path_to_json(path: Path) -> list[int]:
    return list(path.vertices)


def path_from_json(obj: list[int]) -> Path:
    return Path(tuple(obj))


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
    return json.dumps(report, indent=2) + "\n"
