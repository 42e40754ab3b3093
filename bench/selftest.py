"""Self-tests of the benchmark: seeded faults must fail, tracing must not change outputs.

    python3 bench/selftest.py

Run from the repository root. Each seeded fault is monkeypatched into every
kended module that binds the faulty function, and a short exhaustive prefix
(n <= 4), one gnp-n8 unit and one cli-mixed unit are run through the
benchmark's own measurement and checks; each fault must make its sample
fail, and no sample may fail without a fault. Then traced and untraced
runs of one unit per workload must give identical outputs, two traced runs
identical counters, and a traced exhaustive-n5 sweep of the seed commit's
source the counts the ROADMAP measured with cProfile (of any other source the
counts are printed only). Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys

import measure
import run
from tracer import Tracer, bindings
from workloads import WORKLOADS, Unit

PREFIX_GRAPHS = 44    # connected labelled graphs on n <= 4: 1 + 1 + 4 + 38


@contextlib.contextmanager
def patched(owner_attr_values: list[tuple[object, str, object]]):
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in owner_attr_values]
    try:
        for owner, attr, value in owner_attr_values:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Every kended module attribute bound to `original`, paired with `replacement`."""
    return [(owner, attr, replacement) for owner, attr in bindings(original)]


def fault_alpha_off_by_one(kended):
    original = kended.invariants.alpha_mask

    def alpha_mask(graph, smask):
        size, witness = original(graph, smask)
        return size + 1, witness

    return rebind(original, alpha_mask)


def fault_kappa_skips_a_pair(kended):
    verify, invariants = kended.verify, kended.invariants
    iter_bits = kended.graphs.iter_bits

    def kappa(self, smask):
        vertices = list(iter_bits(smask))
        pairs = [(x, y) for i, x in enumerate(vertices) for y in vertices[i + 1:]][1:]
        if not pairs:
            return invariants.ConnectivityValue.INFINITE
        return invariants.ConnectivityValue(min(invariants.local_connectivity(self.graph, x, y)
                                                for x, y in pairs))

    original_pair = invariants.set_connectivity_pair

    def set_connectivity_pair(graph, subset):
        vertices = list(iter_bits(subset.mask))
        pairs = [(x, y) for i, x in enumerate(vertices) for y in vertices[i + 1:]][1:]
        if not pairs:
            return original_pair(graph, subset)
        value, pair = min((invariants.local_connectivity(graph, x, y), (x, y)) for x, y in pairs)
        return invariants.ConnectivityValue(value), pair

    return [(verify.GraphContext, "kappa", kappa)] + rebind(original_pair, set_connectivity_pair)


def fault_witness_k_plus_1(kended):
    """A leaf search that accepts k + 1 leaves for k >= 3, with kended's own witness audit off.

    k = 2 is left alone so that kended's Hamiltonian cross-check does not
    abort the sweep first: the benchmark's own witness check must catch it.
    """
    original = kended.treesearch.find_k_ended_covering_tree

    def find_k_ended_covering_tree(graph, subset, k, cap=kended.treesearch.DEFAULT_TREE_CAP):
        return original(graph, subset, k + 1 if k >= 3 else k, cap=cap)

    return rebind(original, find_k_ended_covering_tree) + [
        (kended.verify, "_audit_cover_witness", lambda *args: None)]


def fault_cover_witness_from_construction(kended):
    """A kended-cover witness swapped for the non-covering construction tree of k - 1.

    Every verdict field stays as the reference has it; only the witness fails
    to cover S. The swap is made only where the residual-bound verdict for
    k - 1 has already shown the same tree, so the benchmark's witness cache
    must not vouch for it.
    """
    original = kended.verify._verdict_cover
    covering = kended.constructive.COVERING

    def _verdict_cover(ctx, smask, k):
        verdict = original(ctx, smask, k)
        previous = ctx._construct.get((smask, k - 1))
        if (verdict.witness is not None and previous is not None and previous.kind != covering
                and ctx.cover_tree(smask, k - 1) is None):
            return dataclasses.replace(verdict, witness=previous.tree)
        return verdict

    return rebind(original, _verdict_cover)


# fault -> (patches, the sample on which it must fail, text one of its problems
# must show, or None). Trees on n <= 4 have at most 3 leaves, so the k + 1 leaf
# fault needs larger graphs to show.
FAULTS = {
    "alpha_mask off by one": (fault_alpha_off_by_one, "exhaustive n<=4", None),
    "kappa skips a pair": (fault_kappa_skips_a_pair, "exhaustive n<=4", None),
    "witness with k + 1 leaves": (fault_witness_k_plus_1, "gnp-n8", "leaves, budget"),
    "cover witness from the construction": (fault_cover_witness_from_construction, "gnp-n8",
                                            "does not cover S"),
}


def sample_runs(kended) -> dict[str, list]:
    """(units, reference) per sample: exhaustive n <= 4, one gnp-n8 unit, one cli-mixed unit."""
    exhaustive = measure.load_reference("exhaustive-n5")["units"]["n<=5"]
    prefix = Unit("n<=4", kended.SweepPlan(mode="exhaustive", n=4, k_min=2, k_max=4, workers=1))
    return {
        "exhaustive n<=4": (prefix, {"units": {"n<=4": {"graphs": exhaustive["graphs"][:PREFIX_GRAPHS],
                                                          "full": ""}}}),
        "gnp-n8": (WORKLOADS["gnp-n8"](kended, 0)[0], measure.load_reference("gnp-n8")),
        "bipartite-n10": (WORKLOADS["bipartite-n10"](kended, 0)[0], measure.load_reference("bipartite-n10")),
        "cli-mixed": (Unit("pass0[:40]", requests=WORKLOADS["cli-mixed"](kended, 0)[0].requests[:40]),
                      measure.load_reference("cli-mixed")),
    }


def run_sample(kended, name: str, unit, reference) -> measure.UnitResult:
    workload = "cli-mixed" if name == "cli-mixed" else "sweep"
    return measure.measure(kended, workload, [unit], reference, unit_count=1)[0]


class Report:
    def __init__(self) -> None:
        self.failures = 0

    def line(self, ok: bool, text: str) -> None:
        self.failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {text}")


def main() -> int:
    kended = measure.import_kended()
    samples = sample_runs(kended)
    report = Report()
    for name, (unit, reference) in samples.items():
        result = run_sample(kended, name, unit, reference)
        report.line(result.failed == 0, f"no fault, {name}: {result.failed} of {result.ops} failed")
    for fault, (make, required, problem) in FAULTS.items():
        for name in ("exhaustive n<=4", "gnp-n8", "cli-mixed"):
            unit, reference = samples[name]
            with patched(make(kended)):
                result = run_sample(kended, name, unit, reference)
            if name == required:
                caught = result.failed > 0 and (problem is None or any(problem in p for p in result.problems))
                report.line(caught, f"fault '{fault}', {name}: failed_ratio "
                            f"{result.failed}/{result.ops}; first: {result.problems[:1]}")
            else:
                print(f"info fault '{fault}', {name}: failed_ratio {result.failed}/{result.ops}")
    for name, (unit, reference) in samples.items():
        plain = run_sample(kended, name, unit, reference)
        counters = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_sample(kended, name, unit, reference)
            finally:
                tracer.uninstall()
            counters.append(tracer.counters())
            report.line(traced.full == plain.full and traced.failed == 0,
                        f"traced output equals untraced output, {name}")
        report.line(counters[0] == counters[1], f"two traced runs give identical counters, {name}")
    tracer = Tracer()
    tracer.install()
    try:
        (unit,) = WORKLOADS["exhaustive-n5"](kended, 0)
        result = measure.measure(kended, "exhaustive-n5", [unit], measure.load_reference("exhaustive-n5"),
                                 unit_count=1)[0]
    finally:
        tracer.uninstall()
    counts = dict(tracer.counters(), verdicts=result.verdicts)
    seed_source = run.source_sha256() == run.SEED_SOURCE_SHA256
    for name, expected in run.ROADMAP_COUNTS.items():
        text = f"exhaustive-n5 {name} = {counts.get(name)}, ROADMAP cProfile count {expected}"
        if seed_source or name == "verdicts":
            report.line(counts.get(name) == expected, text)
        else:
            print(f"info {text} (the source is not the seed commit's)")
    report.line(result.failed == 0 and result.full_match, "traced exhaustive-n5 matches the reference")
    print(f"{report.failures} failed checks")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
