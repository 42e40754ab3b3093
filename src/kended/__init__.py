"""Exact toolkit for k-ended covering trees on small graphs.

A tree with at most k leaves is a k-ended tree; this package computes the
subset independence number alpha_G(S) and subset connectivity kappa_G(S),
decides exactly whether a k-ended tree covering S exists, runs the inductive
path-augmentation construction, and verifies the governing claims
exhaustively on small graphs.
"""

from .constructive import (
    ConstructionOutcome,
    augment,
    base_path,
    construct_k_ended_tree,
    maximal_attachment_path,
)
from .errors import (
    CapExceededError,
    CounterexampleError,
    EdgeListError,
    FormatError,
    Graph6Error,
    InternalInvariantError,
    KendedError,
    PlanError,
)
from .families import (
    GraphFamilySpec,
    enumerate_connected_labeled_graphs,
    make_family,
    parse_family_spec,
    random_gnp,
)
from .formats import emit_edge_list, emit_graph6, parse_edge_list, parse_graph6
from .graphs import Graph, Tree, VertexSet
from .invariants import (
    ConnectivityValue,
    IndependenceWitness,
    independence_number,
    local_connectivity,
    set_connectivity,
    set_connectivity_pair,
)
from .treesearch import (
    covering_tree_with_branch_budget,
    find_k_ended_covering_tree,
    hamiltonian_path_exists,
    min_branch_covering_tree,
    minimum_leaf_covering_tree,
)
from .verify import (
    SharpnessVerdict,
    SweepPlan,
    SweepReport,
    TheoremVerdict,
    parse_sweep_plan,
    run_sweep,
    sweep_verdicts,
    verify_instance,
    verify_sharpness,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ConnectivityValue",
    "ConstructionOutcome",
    "CounterexampleError",
    "EdgeListError",
    "FormatError",
    "Graph",
    "Graph6Error",
    "GraphFamilySpec",
    "IndependenceWitness",
    "InternalInvariantError",
    "KendedError",
    "PlanError",
    "SharpnessVerdict",
    "SweepPlan",
    "SweepReport",
    "TheoremVerdict",
    "Tree",
    "VertexSet",
    "augment",
    "base_path",
    "construct_k_ended_tree",
    "covering_tree_with_branch_budget",
    "emit_edge_list",
    "emit_graph6",
    "enumerate_connected_labeled_graphs",
    "find_k_ended_covering_tree",
    "hamiltonian_path_exists",
    "independence_number",
    "local_connectivity",
    "make_family",
    "maximal_attachment_path",
    "min_branch_covering_tree",
    "minimum_leaf_covering_tree",
    "parse_edge_list",
    "parse_family_spec",
    "parse_graph6",
    "parse_sweep_plan",
    "random_gnp",
    "run_sweep",
    "set_connectivity",
    "set_connectivity_pair",
    "sweep_verdicts",
    "verify_instance",
    "verify_sharpness",
]
