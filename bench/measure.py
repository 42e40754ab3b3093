"""Running workload units through kended's public entry points, timed and checked.

Timing covers only kended's own work: for a sweep, each `next()` on
`sweep_verdicts`; for a CLI request, the `kended.cli.main` call. The
benchmark's checks run between those calls and are not timed. A graph's time
is the kended time between the arrival of its last verdict and that of the
graph before it; the Hamiltonian-path verdict closes each graph.

Times are speed-normalized. The machine this was built on is shared, and its
speed for the same Python code drifts by 20 to 40 percent over seconds to
minutes, so raw times of identical runs spread more than any useful bound.
After about CALIBRATE_EVERY_S of kended time the benchmark times fixed
pure-Python loops (calibration_loop), and each kended interval is scaled by
CALIBRATION_NOMINAL_S over the median calibration around it: the reported
seconds are those of a machine on which the calibration takes
CALIBRATION_NOMINAL_S.
A faster kended still reads faster; a busier machine does not. Raw times are
kept alongside and printed in the run record.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import check

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")


def import_kended():
    """Import kended afresh from ./src, with its cli and report modules."""
    for name in [n for n in sys.modules if n == "kended" or n.startswith("kended.")]:
        del sys.modules[name]
    src = os.path.abspath("src")
    if src not in sys.path:
        sys.path.insert(0, src)
    kended = importlib.import_module("kended")
    importlib.import_module("kended.cli")
    importlib.import_module("kended.report")
    if not os.path.abspath(kended.__file__).startswith(src + os.sep):
        raise ImportError(f"kended was imported from {kended.__file__}, not from {src}")
    return kended


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as handle:
        return json.load(handle)


CALIBRATE_EVERY_S = 0.05
CALIBRATION_NOMINAL_S = 0.0025    # the calibration's time on this machine when it is quiet
CALIBRATION_WINDOW = 6            # calibrations around a chunk (3 before, 3 after)


def _integer_loop() -> float:
    start = perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    return perf_counter() - start


def _allocating_loop() -> float:
    start = perf_counter()
    total = 0
    parts = []
    for i in range(7500):
        mask = (i * 2654435761) & 0x3FF
        total += (mask & -mask).bit_length() + mask.bit_count()
        entry = {"v": i, "m": mask}
        parts.append(str(entry["m"]))
    total += len("".join(parts))
    return perf_counter() - start


def calibration_loop() -> float:
    """Geometric mean of the times of two fixed loops, one pure integer work, one allocating.

    Contention on the shared machine slows allocation-heavy code more than
    integer code. Scaling by either loop alone over- or under-corrects one of
    the workloads; the mean of the two kept every workload within a few
    percent in trials where raw times spread by 10 to 20 percent.
    """
    return (_integer_loop() * _allocating_loop()) ** 0.5


class Clock:
    """Accumulates kended intervals and per-operation samples, normalized for machine speed.

    Kended time is cut into chunks of about CALIBRATE_EVERY_S, with a
    calibration timed between chunks. A chunk is scaled by the median of the
    CALIBRATION_WINDOW calibrations around it, which follows the machine's
    drift without letting one noisy calibration move a sample.
    """

    def __init__(self) -> None:
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        self.samples_ms: list[float] = []
        self.raw_samples_ms: list[float] = []
        self._loops = [calibration_loop()]
        self._chunks: list[tuple[float, list[float]]] = []
        self._pending_s = 0.0
        self._pending_ms: list[float] = []

    def add(self, seconds: float) -> None:
        self._pending_s += seconds

    def sample(self, seconds: float) -> None:
        """Record one operation's time; calibrate between operations once enough has passed."""
        self._pending_ms.append(seconds * 1000.0)
        if self._pending_s >= CALIBRATE_EVERY_S:
            self._close_chunk()

    def _close_chunk(self) -> None:
        self._chunks.append((self._pending_s, self._pending_ms))
        self._loops.append(calibration_loop())
        self._pending_s = 0.0
        self._pending_ms = []

    def finish(self) -> None:
        """Close the last chunk and compute the normalized totals."""
        if self._pending_s or self._pending_ms:
            self._close_chunk()
        half = CALIBRATION_WINDOW // 2
        for index, (seconds, samples) in enumerate(self._chunks):
            # chunk `index` ran between calibrations `index` and `index + 1`
            window = self._loops[max(0, index + 1 - half):index + 1 + half]
            scale = CALIBRATION_NOMINAL_S / statistics.median(window)
            self.busy_s += seconds * scale
            self.raw_busy_s += seconds
            self.samples_ms += [ms * scale for ms in samples]
            self.raw_samples_ms += samples


@dataclass
class UnitResult:
    unit: str
    ops: int = 0                 # graphs (sweeps) or requests attempted
    failed: int = 0
    verdicts: int = 0
    clock: Clock = field(default_factory=Clock)
    full: str = ""               # digest of the whole output, witnesses included
    full_match: bool = False
    exit_1: int = 0              # CLI requests that exited 1 (the known sharpness failure)
    problems: list = field(default_factory=list)


def run_sweep_unit(kended, unit, expected: dict) -> UnitResult:
    result = UnitResult(unit.id)
    checker = check.StreamChecker(expected["graphs"])
    to_json = kended.report.verdict_to_json
    clock = result.clock
    stream = kended.sweep_verdicts(unit.plan)
    graph_s = 0.0
    error = None
    while True:
        start = perf_counter()
        try:
            verdict = next(stream)
        except StopIteration:
            clock.add(perf_counter() - start)
            break
        except Exception as exc:    # an aborted sweep fails every graph it did not deliver
            clock.add(perf_counter() - start)
            error = f"{type(exc).__name__}: {exc}"
            break
        elapsed = perf_counter() - start
        clock.add(elapsed)
        graph_s += elapsed
        result.verdicts += 1
        if checker.add(to_json(verdict)):
            clock.sample(graph_s)
            graph_s = 0.0
    clock.finish()
    checker.finish(error)
    result.ops = max(len(expected["graphs"]), checker.graphs)
    result.failed = checker.failed
    result.problems = checker.problems
    result.full = checker.full.hexdigest()[:12]
    result.full_match = error is None and result.full == expected["full"]
    return result


def run_cli_unit(kended, unit, requests: dict, sources: dict) -> UnitResult:
    result = UnitResult(unit.id)
    main = kended.cli.main
    full = hashlib.sha256()
    matches = 0
    for request_id, argv in unit.requests:
        ref = requests[request_id]
        if ref["argv"] != argv:
            raise RuntimeError(f"request {request_id} differs from the reference pool: {argv}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:    # a crashed request is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        result.clock.add(elapsed)
        result.clock.sample(elapsed)
        result.ops += 1
        result.exit_1 += code == 1
        text = out.getvalue()
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            document = None
        digest = check.short_digest(text)
        full.update(digest.encode())
        matches += digest == ref["full"]
        problem = check.check_request(ref, code, document, sources)
        if problem:
            result.failed += 1
            result.problems.append(f"request {request_id} {' '.join(argv)}: {problem}")
    result.clock.finish()
    result.full = full.hexdigest()[:12]
    result.full_match = matches == len(unit.requests)
    return result


def measure(kended, workload: str, units: list, reference: dict, seconds: float | None = None,
            unit_count: int | None = None) -> list[UnitResult]:
    """Run units in order (cycling) for `unit_count` units, or while the next one fits in `seconds`."""
    results: list[UnitResult] = []
    sources: dict = {}
    start = perf_counter()
    while True:
        unit = units[len(results) % len(units)]
        if workload == "cli-mixed":
            results.append(run_cli_unit(kended, unit, reference["requests"], sources))
        else:
            results.append(run_sweep_unit(kended, unit, reference["units"][unit.id]))
        if unit_count is not None:
            if len(results) >= unit_count:
                return results
        elif (perf_counter() - start) * (len(results) + 1) / len(results) > seconds:
            return results


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(samples)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def summarize(workload: str, results: list[UnitResult]) -> dict:
    """Throughput and p50 over the whole run; the tail as the median of per-unit tails.

    Units have a fixed size, so a per-unit tail sits at a fixed percentile: a
    faster kended that fits more units into the run does not push the tail
    further out, as the tail of the pooled samples would.
    """
    samples = [s for r in results for s in r.clock.samples_ms] or [0.0]
    raw_samples = [s for r in results for s in r.clock.raw_samples_ms] or [0.0]
    tails = [tail(r.clock.samples_ms) for r in results if r.clock.samples_ms] or [(0.0, 0.0)]
    raw_tails = [tail(r.clock.raw_samples_ms)[0] for r in results if r.clock.raw_samples_ms] or [0.0]
    busy = sum(r.clock.busy_s for r in results)
    raw_busy = sum(r.clock.raw_busy_s for r in results)
    ops = sum(r.ops for r in results)
    work = ops if workload == "cli-mixed" else sum(r.verdicts for r in results)
    return {
        "units": len(results),
        "ops": ops,
        "failed": sum(r.failed for r in results),
        "verdicts": sum(r.verdicts for r in results),
        "busy_s": busy,
        "throughput_per_s": work / busy if busy else 0.0,
        "op_p50_ms": statistics.median(samples),
        "op_tail_ms": statistics.median(t[0] for t in tails),
        "tail_percentile": statistics.median(t[1] for t in tails),
        "unit_samples": statistics.median(len(r.clock.samples_ms) for r in results),
        "raw": {"busy_s": raw_busy, "throughput_per_s": work / raw_busy if raw_busy else 0.0,
                "op_p50_ms": statistics.median(raw_samples), "op_tail_ms": statistics.median(raw_tails)},
        "full_matches": sum(r.full_match for r in results),
        "exit_1": sum(r.exit_1 for r in results),
        "problems": [p for r in results for p in r.problems],
    }
