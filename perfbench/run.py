"""geoquant benchmark: seeded verification workloads, closed loop, one client.

    python3 perfbench/run.py --workload {phase-grid,bks-pairing,matrix-models}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every run first starts several fresh
interpreters, each of which imports ``geoquant.cli``, builds task 0's inputs
and runs task 0 (set-up and first-task times).  Then one process runs
tasks back to back for ``--seconds`` seconds after an untimed warm-up task.

Times are reported in reference seconds: a fixed calibration kernel
(``calibrate.py``) runs between consecutive tasks and cold launches, and each
raw time is scaled by ``REFERENCE_S`` over the mean of the two kernel times
that bracket it.  This takes out the drift of a shared machine's speed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each task
once untraced and once traced (alternating which goes first), checks that
both give identical verification values, and reports per-layer metrics as
means per traced task, the cold task 0 included.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine, settings, failures, raw and scaled task times, spans) is written
under ``.perfbench_out/``.  See ``perfbench/NOTES.md`` for the workloads and
the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import checkout
import stats
from tracer import Instrumented, Tracer, layer_counters, layer_names

WORKLOAD_NAMES = ("phase-grid", "bks-pairing", "matrix-models")
#: seed used while the benchmark and a change are developed
DEV_SEED = 1
#: held-out seed: a claimed gain must also hold here
HELD_OUT_SEED = 7919

COLD_LAUNCHES = 5
COLD_LAUNCHES_TRACED = 3
COLD_TIMEOUT_S = 60
#: timed tasks run even past ``--seconds`` so that a tail percentile exists
MIN_TIMED_TASKS = stats.TAIL_BEYOND + 1
MIN_TRACED_PAIRS = 3
#: margin_digits is taken over tasks 0..MARGIN_TASKS-1, a fixed set per seed
MARGIN_TASKS = 8

END_TO_END_UNITS = {
    "task_s_p50": "s",
    "task_s_tail": "s",
    "tasks_per_s": "1/s",
    "setup_s": "s",
    "first_task_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "fraction",
    "margin_digits": "decades",
}

_COUNTER_UNITS = {"points": "count", "errors": "count", "dense_bytes": "B",
                  "kernel_elems": "count", "dim3": "count"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in layer_names():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.total_s"] = "s"
    for name in layer_counters():
        units[name] = _COUNTER_UNITS[name.rpartition(".")[2]]
    units.update({"setup.import_s": "s", "setup.inputs_s": "s",
                  "trace.overhead_ratio": "ratio"})
    return units


@dataclass
class TaskResult:
    index: int
    seconds: float    # raw wall time of the task's run
    verifications: list = field(default_factory=list)
    error: str = ""   # traceback of an exception other than GeoquantError
    busy: float = 0.0   # raw wall time of input generation plus the run
    factor: float = 1.0  # raw seconds -> reference seconds

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.factor


@dataclass
class Gate:
    """Correctness verdict with the reasons it failed."""

    problems: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def execute(wl, seed: int, index: int) -> TaskResult:
    """Build task ``index``'s inputs and run it; ``seconds`` times the run."""
    begin = time.perf_counter()
    inputs = wl.make_inputs(seed, index)
    start = time.perf_counter()
    try:
        verifications = wl.run(inputs)
        error = ""
    except Exception:  # the loop must go on; the failure is reported
        verifications, error = [], traceback.format_exc()
    end = time.perf_counter()
    return TaskResult(index, end - start, verifications, error, busy=end - begin)


def cold_launches(workload: str, seed: int, count: int, calibrator) -> list[dict]:
    """Fresh interpreters, each bracketed by calibration kernels."""
    import calibrate

    records = []
    before, launch_before = calibrator.sample(), calibrate.launch_sample()
    for _ in range(count):
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(checkout.HERE / "coldstart.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=checkout.ROOT, capture_output=True, text=True, timeout=COLD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"cold launch failed:\n{proc.stderr}")
        after, launch_after = calibrator.sample(), calibrate.launch_sample()
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["import_s"] = rec["imported"] - launched
        rec["inputs_s"] = rec["ready"] - rec["imported"]
        rec["setup_s"] = rec["ready"] - launched
        rec["kernel_factor"] = calibrator.factor(before, after)
        rec["factor"] = calibrate.launch_factor(launch_before, launch_after)
        records.append(rec)
        before, launch_before = after, launch_after
    return records


def cold_median(cold: list[dict], key: str) -> float:
    """Median over the cold launches of ``key``, in reference seconds."""
    return statistics.median([c[key] * c["factor"] for c in cold])


def check_failures(workload: str, results: list[TaskResult], cold: list[dict],
                   gate: Gate) -> list[dict]:
    """List every failed verification; unexpected ones go to the gate."""
    from workloads import KNOWN_FAILURES

    listed = []
    for r in results:
        if r.error:
            gate.problems.append(f"{workload} task {r.index} raised:\n{r.error}")
        for v in r.verifications:
            if v.passed:
                continue
            known = (v.step, v.check) in KNOWN_FAILURES
            listed.append({"workload": workload, "task": r.index, "step": v.step,
                           "check": v.check, "value": v.value, "tol": v.tol,
                           "error": v.error, "known": known})
            if not known:
                gate.problems.append(
                    f"{workload} task {r.index} {v.step}: {v.check} failed "
                    f"(value {v.value:.3e}, tol {v.tol:.1e}) {v.error}".rstrip())
    for launch in cold:
        for step, check in launch["failures"]:
            if (step, check) not in KNOWN_FAILURES:
                gate.problems.append(f"{workload} cold task 0 {step}: {check} failed")
    return listed


def outcome_of(results: list[TaskResult], gate: Gate) -> stats.Outcome:
    verifications = [v for r in results for v in r.verifications]
    fixed = [v for r in results if r.index < MARGIN_TASKS for v in r.verifications]
    result = stats.outcome(verifications, fixed)
    if math.isinf(result.margin_digits):
        gate.problems.append("no passing verification with a non-zero value")
    return result


def _timed(results: list[TaskResult]) -> list[float]:
    return [r.ref_seconds for r in results if r.index > 0]


def measure_untraced(wl, seed: int, seconds: float, calibrator) -> list[TaskResult]:
    """Warm-up task 0, then timed tasks for ``seconds``, kernels in between."""
    results = [execute(wl, seed, 0)]  # warm-up: fills caches, not timed
    before = calibrator.sample()
    start = time.perf_counter()
    index = 1
    while index <= MIN_TIMED_TASKS or time.perf_counter() - start < seconds:
        result = execute(wl, seed, index)
        after = calibrator.sample()
        result.factor = calibrator.factor(before, after)
        results.append(result)
        before = after
        index += 1
    return results


def measure_traced(wl, seed: int, seconds: float, calibrator, gate: Gate):
    """Traced cold task 0, then untraced/traced pairs of each task."""
    tracer = Tracer()

    def traced_run(index: int) -> TaskResult:
        tracer.task = index
        with Instrumented(tracer):
            return execute(wl, seed, index)

    before = calibrator.sample()
    traced = [traced_run(0)]  # cold in this process: cache misses show
    after = calibrator.sample()
    traced[0].factor = calibrator.factor(before, after)
    untraced = []
    start = time.perf_counter()
    index = 1
    while index <= MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        before = after
        if index % 2:
            a = execute(wl, seed, index)
            b = traced_run(index)
        else:
            b = traced_run(index)
            a = execute(wl, seed, index)
        after = calibrator.sample()
        a.factor = b.factor = calibrator.factor(before, after)
        untraced.append(a)
        traced.append(b)
        if [v.key() for v in a.verifications] != [v.key() for v in b.verifications]:
            gate.problems.append(f"task {index}: traced and untraced verification "
                                 "values differ")
        index += 1
    return tracer, traced, untraced


def end_to_end(results, cold, outcome) -> tuple[dict, stats.Tail]:
    timed = _timed(results)
    tail = stats.tail(timed)
    busy = sum(r.busy * r.factor for r in results if r.index > 0)
    values = {
        "task_s_p50": statistics.median(timed),
        "task_s_tail": tail.value,
        "tasks_per_s": len(timed) / busy,
        "setup_s": cold_median(cold, "setup_s"),
        "first_task_s": cold_median(cold, "first_task_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": outcome.pass_ratio,
        # no passing non-zero value leaves no margin; the gate already failed
        "margin_digits": outcome.margin_digits if math.isfinite(outcome.margin_digits)
        else 0.0,
    }
    return values, tail


def per_layer(tracer, traced, untraced, cold) -> dict:
    """Per-layer values per traced task, times in reference seconds."""
    factor = {r.index: r.factor for r in traced}
    summary = tracer.summary(lambda span: factor[span.task])
    values = {}
    for layer in layer_names():
        for key in ("calls", "self_s", "total_s"):
            values[f"{layer}.{key}"] = summary.get(layer, {}).get(key, 0.0)
    for name in layer_counters():
        values[name] = tracer.counters.get(name, 0.0)
    values = {name: value / len(traced) for name, value in values.items()}
    values["setup.import_s"] = cold_median(cold, "import_s")
    values["setup.inputs_s"] = cold_median(cold, "inputs_s")
    values["trace.overhead_ratio"] = (statistics.median(_timed(traced))
                                      / statistics.median(_timed(untraced)) - 1.0)
    return values


def _write(name: str, payload) -> None:
    checkout.OUT.mkdir(exist_ok=True)
    with open(checkout.OUT / name, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=DEV_SEED,
                        help=f"input seed (held-out seed for claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout.pin_blas_threads()
    checkout.use_checkout_sources()
    import calibrate
    import machine
    import workloads

    calibrator = calibrate.Calibrator()
    cold = cold_launches(args.workload, args.seed,
                         COLD_LAUNCHES_TRACED if args.trace else COLD_LAUNCHES,
                         calibrator)
    wl = workloads.WORKLOADS[args.workload]
    gate = Gate()
    record = {"workload": args.workload, "why": wl.why, "seed": args.seed,
              "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
              "trace": args.trace, "blas_threads": checkout.BLAS_THREADS,
              "machine": machine.machine_record(checkout.ROOT),
              "calibration_reference_s": calibrate.REFERENCE_S, "cold_launches": cold}
    if args.trace:
        tracer, traced, untraced = measure_traced(wl, args.seed, args.seconds,
                                                  calibrator, gate)
        results = traced + untraced
        failures = check_failures(args.workload, results, cold, gate)
        values = per_layer(tracer, traced, untraced, cold)
        units = per_layer_units()
        lines = [f"{len(traced)} traced tasks (task 0 cold), {len(untraced)} untraced; "
                 "per-layer values are per traced task"]
        _write(f"spans-{args.workload}-seed{args.seed}.json",
               [vars(s) for s in tracer.spans])
    else:
        results = measure_untraced(wl, args.seed, args.seconds, calibrator)
        failures = check_failures(args.workload, results, cold, gate)
        outcome = outcome_of(results, gate)
        values, tail = end_to_end(results, cold, outcome)
        units = END_TO_END_UNITS
        raw = [r.seconds for r in results if r.index > 0]
        lines = [f"task_s_tail is p{tail.percentile:.1f} of {tail.samples} timed tasks "
                 f"({tail.beyond} beyond it)",
                 f"fail_ratio {outcome.fail_ratio:.6g} "
                 f"({outcome.failed} of {outcome.attempted} verifications)",
                 f"raw wall time: task p50 {statistics.median(raw):.4g} s, setup "
                 f"{statistics.median([c['setup_s'] for c in cold]):.4g} s"]
        record["tail"] = vars(tail)
    record["tasks"] = [{"index": r.index, "seconds": r.seconds, "busy": r.busy,
                        "factor": r.factor} for r in results]
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record["failures"] = failures
    record["problems"] = gate.problems
    _write(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", record)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} (closed loop, 1 client, "
          f"BLAS threads {checkout.BLAS_THREADS}; times in reference seconds)")
    for name, value in values.items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    for line in lines:
        print(f"  {line}")
    grouped: dict = {}
    for f in failures:
        grouped.setdefault((f["step"], f["check"]), []).append(f["task"])
    for (step, check), tasks in grouped.items():
        print(f"  FAIL {args.workload} {step}: {check} in {len(tasks)} tasks "
              f"(tasks {tasks[:5]}{' ...' if len(tasks) > 5 else ''})")
    for problem in gate.problems:
        print(f"  PROBLEM {problem}")
    unexpected = {r.index for r in results if r.error}
    unexpected |= {f["task"] for f in failures if not f["known"]}
    print(json.dumps({"correct": gate.correct, "attempted": len(results),
                      "failed": len(unexpected), "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
