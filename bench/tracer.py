"""Per-layer tracing of kended from outside the package.

The tracer replaces functions and methods of the kended modules with timing
wrappers; nothing under src/ is edited. A function is reached through every
module that imported it (`from .invariants import local_connectivity` makes a
second binding in verify), so each target is swapped in every kended module
namespace that holds it. Methods are swapped on their class.

For each wrapped target the tracer keeps calls, total time and self time
(total minus the time of wrapped callees), and it counts calls per
(caller, callee) pair so that cache hit ratios can be read off as
1 - underlying searches / method calls. Generator functions are timed per
resumption. Counts are deterministic for a fixed input; times are not.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# (module, qualified name) of every wrapped target. Private helpers stay
# unwrapped, so their time is self time of the public function calling them.
TARGETS = {
    "families": ["make_family", "parse_family_spec", "random_gnp", "enumerate_connected_labeled_graphs"],
    "formats": ["emit_graph6", "parse_graph6", "emit_edge_list", "parse_edge_list"],
    "graphs": ["Tree.__init__"],
    "invariants": [
        "alpha_mask", "independence_number", "maximum_independent_masks",
        "local_connectivity", "set_connectivity_pair", "set_connectivity",
    ],
    "treesearch": [
        "find_k_ended_covering_tree", "covering_tree_with_branch_budget",
        "minimum_leaf_covering_tree", "min_branch_covering_tree", "hamiltonian_path_exists",
    ],
    "constructive": ["base_path", "maximal_attachment_path", "augment", "construct_k_ended_tree"],
    "verify": [
        "sweep_verdicts", "verify_sharpness", "GraphContext.alpha", "GraphContext.kappa",
        "GraphContext.cover_tree", "GraphContext.branch_tree", "GraphContext.construct",
    ],
    "report": ["render_report", "make_report", "sharpness_to_json"],
    "cli": ["main", "cmd_analyze", "cmd_construct", "cmd_sharpness"],
}

ROOT = "<benchmark>"


def bindings(original) -> list[tuple[object, str]]:
    """Every (kended module, attribute) pair bound to `original`."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "kended" or name.startswith("kended."))]
    return [(m, attr) for m in modules for attr, value in list(vars(m).items()) if value is original]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.edges: Counter = Counter()       # (caller, callee) -> calls
        self.lc_inputs: set = set()
        self._stack: list[list] = [[ROOT, 0.0]]   # frames of [name, callee time]
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for short, names in TARGETS.items():
            module = sys.modules[f"kended.{short}"]
            for qualname in names:
                label = f"{short}.{qualname}".removesuffix(".__init__")
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    self._swap(owner, attr, self._wrap(label, vars(owner)[attr]))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(label, original)
                for owner, attr in bindings(original):
                    self._swap(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _swap(self, owner: object, attr: str, wrapper: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        edges = self.edges

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                edges[(stack[-1][0], name)] += 1
                stat[0] += 1
                inner = fn(*args, **kwargs)
                while True:
                    parent = stack[-1]
                    frame = [name, 0.0]
                    stack.append(frame)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = perf_counter() - start
                        stack.pop()
                        stat[1] += elapsed
                        stat[2] += elapsed - frame[1]
                        parent[1] += elapsed
                    yield item

            return gen_wrapper

        inputs = self.lc_inputs if name == "invariants.local_connectivity" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            edges[(parent[0], name)] += 1
            if inputs is not None:
                inputs.add((getattr(args[0], "rows", None), args[1], args[2]))
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                parent[1] += elapsed

        return wrapper

    # -- reading the counters ------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def self_s(self, name: str) -> float:
        return self.stats[name][2]

    def total_s(self, name: str) -> float:
        return self.stats[name][1]

    def module_self_s(self, module: str) -> float:
        return sum(s[2] for name, s in self.stats.items() if name.startswith(module + "."))

    def hit_ratio(self, method: str, search: str) -> float:
        """1 - (searches called from the method / method calls); 0 when never called."""
        calls = self.calls(method)
        return 1.0 - self.edges[(method, search)] / calls if calls else 0.0

    def counters(self) -> dict:
        """Every deterministic count, for comparing two traced runs."""
        out = {f"{name}.calls": s[0] for name, s in sorted(self.stats.items())}
        out.update({f"{a}->{b}": c for (a, b), c in sorted(self.edges.items())})
        out["invariants.local_connectivity.distinct"] = len(self.lc_inputs)
        return out

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
        lc = "invariants.local_connectivity"
        lc_calls = self.calls(lc)
        constructions = self.calls("constructive.construct_k_ended_tree")
        attachments = self.edges[("constructive.construct_k_ended_tree",
                                  "constructive.maximal_attachment_path")]
        m = {
            f"{lc}.calls": (lc_calls, "count"),
            f"{lc}.self_s": (self.self_s(lc), "s"),
            f"{lc}.distinct_ratio": (len(self.lc_inputs) / lc_calls if lc_calls else 0.0, "ratio"),
            "invariants.set_connectivity.calls": (self.calls("invariants.set_connectivity"), "count"),
            "invariants.set_connectivity.total_s": (self.total_s("invariants.set_connectivity"), "s"),
            "invariants.alpha_mask.calls": (self.calls("invariants.alpha_mask"), "count"),
            "invariants.alpha_mask.self_s": (self.self_s("invariants.alpha_mask"), "s"),
            "graphs.Tree.calls": (self.calls("graphs.Tree"), "count"),
            "graphs.Tree.self_s": (self.self_s("graphs.Tree"), "s"),
            "verify.self_s": (self.module_self_s("verify"), "s"),
            "verify.GraphContext.kappa.self_s": (self.self_s("verify.GraphContext.kappa"), "s"),
            "verify.GraphContext.cover_tree.hit_ratio": (self.hit_ratio(
                "verify.GraphContext.cover_tree", "treesearch.find_k_ended_covering_tree"), "ratio"),
            "verify.GraphContext.branch_tree.hit_ratio": (self.hit_ratio(
                "verify.GraphContext.branch_tree", "treesearch.covering_tree_with_branch_budget"), "ratio"),
            "verify.GraphContext.construct.hit_ratio": (self.hit_ratio(
                "verify.GraphContext.construct", "constructive.construct_k_ended_tree"), "ratio"),
        }
        for name in ("treesearch.find_k_ended_covering_tree", "treesearch.covering_tree_with_branch_budget",
                     "constructive.base_path", "constructive.construct_k_ended_tree"):
            m[f"{name}.calls"] = (self.calls(name), "count")
            m[f"{name}.self_s"] = (self.self_s(name), "s")
        for name in ("treesearch.hamiltonian_path_exists", "constructive.maximal_attachment_path",
                     "treesearch.minimum_leaf_covering_tree", "treesearch.min_branch_covering_tree",
                     "report.render_report"):
            m[f"{name}.self_s"] = (self.self_s(name), "s")
        m["constructive.attachments_per_construction"] = (
            attachments / constructions if constructions else 0.0, "ratio")
        for module in ("cli", "families", "formats"):
            m[f"{module}.self_s"] = (self.module_self_s(module), "s")
        return m
