"""kended benchmark: sweep throughput, per-graph tail and CLI latency.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; kended is imported from ./src. Workloads are
described in bench/workloads.py. With --trace 0 the run sets up SETUP_REPS
times (fresh import of kended, input generation, input files), then runs
units of the workload while the next one fits in --seconds, checks every
output and prints the end-to-end metrics. With --trace 1 it runs a fixed
number of units twice, each in a fresh process: once plain and once with
every kended layer wrapped by bench/tracer.py, and prints the per-layer
metrics and the tracing overhead. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. If kended fails to
import, or a traced child crashes or times out, that object reports a failed
run and the exit code is 1; without ./src/kended the run exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import measure
from tracer import Tracer
from workloads import TRACE_UNITS, WORKLOADS

SETUP_REPS = 9
CHILD_TIMEOUT_S = 85

# Counts of one exhaustive-n5 sweep at the seed commit, measured with cProfile,
# and that commit's source_sha256(); later sources may lower the counts.
SEED_SOURCE_SHA256 = "7805846d5b5e19c4"
ROADMAP_COUNTS = {
    "invariants.local_connectivity.calls": 244_229,
    "graphs.Tree.calls": 117_729,
    "verdicts": 209_302,
}


def source_sha256() -> str:
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "kended", "*.py"))):
        with open(path, "rb") as handle:
            source.update(handle.read())
    return source.hexdigest()[:16]


def run_record(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "implementation": platform.python_implementation(), "platform": platform.platform(),
        "commit": commit, "source_sha256": source_sha256(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(args) -> dict:
    setup_times, raw_setup_times = [], []
    before = measure.calibration_loop()
    for _ in range(SETUP_REPS):
        start = perf_counter()
        kended = measure.import_kended()
        units = WORKLOADS[args.workload](kended, args.seed)
        raw_setup_times.append(perf_counter() - start)
        after = measure.calibration_loop()
        setup_times.append(raw_setup_times[-1] * measure.CALIBRATION_NOMINAL_S / ((before + after) / 2))
        before = after
    reference = measure.load_reference(args.workload)
    results = measure.measure(kended, args.workload, units, reference, seconds=args.seconds)
    rss = peak_rss_mb()
    summary = measure.summarize(args.workload, results)
    sweep = args.workload != "cli-mixed"
    op = "graph" if sweep else "request"
    rate = "verdicts_per_s" if sweep else "requests_per_s"
    if args.workload == "exhaustive-n5":
        print("seed: unused, the exhaustive enumeration has no random input")
    print(f"{rate}: {summary['throughput_per_s']:.1f} 1/s")
    print(f"{op}_p50_ms: {summary['op_p50_ms']:.4f} ms")
    print(f"{op}_tail_ms: {summary['op_tail_ms']:.4f} ms (p{summary['tail_percentile']:.2f} of each unit "
          f"of {summary['unit_samples']:g} {op}s, median of {summary['units']} units)")
    print(f"setup_s: {statistics.median(setup_times):.4f} s (median of {SETUP_REPS})")
    print(f"peak_rss_mb: {rss:.1f} MB")
    print(f"failed_ratio: {summary['failed'] / max(1, summary['ops']):.6f} "
          f"({summary['failed']} of {summary['ops']} {op}s)")
    print(f"full output digest matches the seed commit on {summary['full_matches']} of "
          f"{summary['units']} units")
    if not sweep:
        print(f"known sharpness failure kept visible: {summary['exit_1']} sharpness requests with k >= 3 "
              "exited 1 with min_branch = 1, as the reference expects")
    raw = summary["raw"]
    print(f"raw wall-clock, not speed-normalized: {rate} {raw['throughput_per_s']:.1f}, "
          f"{op}_p50_ms {raw['op_p50_ms']:.4f}, {op}_tail_ms {raw['op_tail_ms']:.4f}, "
          f"setup_s {statistics.median(raw_setup_times):.4f}")
    for problem in summary["problems"][:10]:
        print(f"problem: {problem}")
    record = run_record(args)
    record.update(units=[r.unit for r in results], raw=raw, setup_samples_s=setup_times,
                  raw_setup_samples_s=raw_setup_times,
                  op_samples_ms=[round(s, 4) for r in results for s in r.clock.samples_ms],
                  raw_op_samples_ms=[round(s, 4) for r in results for s in r.clock.raw_samples_ms])
    print(json.dumps({"record": record}))
    metrics = {
        "throughput_per_s": (summary["throughput_per_s"], "1/s"),
        "op_p50_ms": (summary["op_p50_ms"], "ms"),
        "op_tail_ms": (summary["op_tail_ms"], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["ops"],
        "failed": summary["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def child(args) -> dict:
    """One fixed-size run in this process, traced or not; used by traced()."""
    kended = measure.import_kended()
    tracer = Tracer() if args.child == "traced" else None
    if tracer:
        tracer.install()
    units = WORKLOADS[args.workload](kended, args.seed)
    reference = measure.load_reference(args.workload)
    results = measure.measure(kended, args.workload, units, reference,
                              unit_count=TRACE_UNITS[args.workload])
    if tracer:
        tracer.uninstall()
    summary = measure.summarize(args.workload, results)
    out = {key: summary[key] for key in ("busy_s", "ops", "failed", "verdicts", "problems")}
    out["full"] = [r.full for r in results]
    if tracer:
        out["per_layer"] = tracer.per_layer()
        out["counters"] = tracer.counters()
        out["layers"] = {name: dict(zip(("calls", "total_s", "self_s"), stat))
                         for name, stat in sorted(tracer.stats.items())}
    return out


def run_child(args, mode: str) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1", "--child", mode]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced(args) -> dict:
    plain = run_child(args, "plain")
    traced_run = run_child(args, "traced")
    same = plain["full"] == traced_run["full"]
    ratio = traced_run["busy_s"] / plain["busy_s"]
    print(f"traced run: {TRACE_UNITS[args.workload]} units, {traced_run['ops']} operations, "
          f"{traced_run['verdicts']} verdicts; --seconds does not apply")
    print(f"traced output identical to the untraced run: {same}")
    print(f"trace_overhead_ratio: {ratio:.4f}")
    counters = dict(traced_run["counters"], verdicts=traced_run["verdicts"])
    if args.workload == "exhaustive-n5":
        for name, expected in ROADMAP_COUNTS.items():
            print(f"count {name}: {counters.get(name)} (ROADMAP cProfile count {expected})")
    for problem in (plain["problems"] + traced_run["problems"])[:10]:
        print(f"problem: {problem}")
    record = run_record(args)
    record.update(counters=counters, layers=traced_run["layers"])
    print(json.dumps({"record": record}))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in traced_run["per_layer"].items()}
    metrics["trace_overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    failed = plain["failed"] + traced_run["failed"]
    return {
        "correct": failed == 0 and same,
        "attempted": plain["ops"] + traced_run["ops"],
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("plain", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(args)))
        return 0
    if not os.path.isfile(os.path.join("src", "kended", "__init__.py")):
        print("bench: cannot run the benchmark here: no src/kended; run it from the repository root",
              file=sys.stderr)
        return 2
    try:
        result = traced(args) if args.trace else untraced(args)
    except OSError as exc:
        print(f"bench: cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:    # kended failed to import, or a child crashed or timed out
        print(f"bench: kended failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
