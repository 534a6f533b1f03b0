"""Measurement loop, metrics and the result line of one benchmark run.

A run drives one workload in this process as a closed loop with a single
client: the next round starts when the previous one has returned. Rounds
cycle through the workload's pool of entries (instances, or the one
training call).

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), runs one unmeasured warm-up round, then runs rounds until the
next one would end after ``--seconds``, and reports the end-to-end
metrics.

``--trace 1`` sets up once with tracing on, runs one untraced warm-up
round, then the workload's fixed number of rounds twice each, untraced
then traced, so that work counts repeat exactly for a seed. It reports
the per-layer metrics, the output quality and the tracing overhead, and
writes its spans to ``.work/spans-<workload>.jsonl`` next to this file.

The metric names and units are those listed in BENCHMARK.json. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

import tracer as tracing
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# setup runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS have passed
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 200
SETUP_MIN_SECONDS = 2.0


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics listed in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# per-layer metrics taken from the rounds' outcomes rather than from spans
RUN_METRICS = ("quality.mean_gap_pct", "quality.train_loss", "trace.overhead_pct")


def attempt(workload, index: int) -> Outcome:
    """One round; a round that raises counts all its items as failed."""
    started = time.perf_counter()
    try:
        return workload.run(index)
    except Exception as exc:  # the run goes on and reports the failure
        return Outcome(workload.items_per_round, time.perf_counter() - started, [], error=f"{type(exc).__name__}: {exc}")


def measure(workload, seconds: float) -> list[Outcome]:
    """Rounds until the next one, at the mean round time so far, would end after ``seconds``."""
    outcomes: list[Outcome] = []
    started = time.perf_counter()
    while True:
        outcomes.append(attempt(workload, len(outcomes)))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(outcomes) > seconds:
            return outcomes


def quality(outcomes: list[Outcome]) -> dict[str, float]:
    """Mean gap over the pool entries that passed, and the last training loss (0 if none)."""
    gaps = {o.key: o.gap for o in outcomes if not o.failed and o.gap is not None}
    losses = [o.loss for o in outcomes if not o.failed and o.loss is not None]
    return {
        "quality.mean_gap_pct": float(np.mean(list(gaps.values()))) if gaps else math.nan,
        "quality.train_loss": losses[-1] if losses else 0.0,
    }


def end_to_end_metrics(setup_times: list[float], outcomes: list[Outcome]) -> dict[str, float]:
    passed = [o for o in outcomes if not o.failed]
    latencies_ms = [1000.0 * s for o in passed for s in o.latencies]
    p50, p90 = np.percentile(latencies_ms, [50, 90]) if latencies_ms else (math.nan, math.nan)
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": sum(o.items for o in passed) / sum(o.seconds for o in outcomes),
        "item_ms_p50": float(p50),
        "item_ms_p90": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_value(tracer: tracing.Tracer, metric: str) -> float:
    """A per-layer metric from the tracer's aggregates; 0 for a layer the workload bypasses."""
    function, kind = metric.rsplit(".", 1)
    calls = tracer.calls.get(function, 0)
    if kind == "calls":
        return calls
    if kind == "s":
        return tracer.inclusive.get(function, 0.0)
    if kind == "self_s":
        return tracer.self_time.get(function, 0.0)
    if kind == "forward_s":
        return tracer.inclusive.get(function, 0.0) - tracer.child_time(function, "autograd.Tensor.backward")
    if kind == "improved_ratio":
        return tracer.counts.get(f"{function}.improved", 0.0) / calls if calls else 0.0
    return tracer.counts.get(metric, 0.0)


def timed_setups(workload, seed: int, workdir: Path):
    """Set the workload up repeatedly; returns each setup's wall time and the last one's problems."""
    setup_times: list[float] = []
    problems: list[str] = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
        sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        started = time.perf_counter()
        problems = workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - started)
    return setup_times, problems


def run_untraced(workload, seed: int, seconds: float, workdir: Path):
    setup_times, problems = timed_setups(workload, seed, workdir)
    warm_up = attempt(workload, 0)  # the first round of a process pays for fresh memory
    outcomes = measure(workload, seconds)
    metrics = end_to_end_metrics(setup_times, outcomes)
    samples = sum(len(o.latencies) for o in outcomes if not o.failed)
    unit = "optimizer steps" if workload.items_per_round > 1 else "items"
    notes = [f"{len(outcomes)} rounds after one warm-up round, {samples} latency samples ({unit}), {len(setup_times)} setups"]
    notes += [f"{key} {value!r}" for key, value in quality(outcomes).items()]
    return metrics, [warm_up] + outcomes, problems, notes


def run_traced(workload, seed: int, workdir: Path, rounds: int, spans: Path):
    tracer = tracing.Tracer()
    tracer.item = "setup"
    with tracing.installed(tracer):
        problems = workload.setup(seed, workdir)
    warm_up = attempt(workload, 0)  # the first round of a process pays for fresh memory
    plain, traced = [], []
    for index in range(rounds):
        plain.append(attempt(workload, index))
        tracer.item = index
        with tracing.installed(tracer):
            traced.append(attempt(workload, index))
    metrics = {name: layer_value(tracer, name) for name in metric_units("per_layer") if name not in RUN_METRICS}
    metrics.update(quality(traced))
    # each pair ran back to back, so their ratio cancels the machine's speed state
    ratios = [t.seconds / p.seconds for p, t in zip(plain, traced) if not (p.failed or t.failed)]
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0) if ratios else math.nan
    tracer.write(spans)
    notes = [
        f"items_per_s untraced {end_to_end_metrics([0.0], plain)['items_per_s']!r}, "
        f"traced {end_to_end_metrics([0.0], traced)['items_per_s']!r}; trace.overhead_pct is the median "
        f"traced/untraced time ratio over {len(ratios)} back-to-back round pairs",
        f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT) if spans.is_relative_to(ROOT) else spans}",
    ]
    return metrics, [warm_up] + plain + traced, problems, notes


def git_revision() -> str | None:
    """The checked-out commit; None outside a git repository or without git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.26 prints instead of returning
        return "unknown"


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "blas_threads": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_revision": git_revision(),
    }


def execute(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run one workload; returns (result dict, human-readable lines)."""
    workload = WORKLOADS[name]()
    with tempfile.TemporaryDirectory(dir=workdir) as inputs:
        if trace:
            spans = workdir / f"spans-{name}.jsonl"
            metrics, outcomes, problems, notes = run_traced(workload, seed, Path(inputs), workload.traced_rounds, spans)
            units = metric_units("per_layer")
        else:
            metrics, outcomes, problems, notes = run_untraced(workload, seed, seconds, Path(inputs))
            units = metric_units("end_to_end")
    attempted = sum(o.items for o in outcomes)
    failed = sum(o.items for o in outcomes if o.failed)
    errors = [o.error for o in outcomes if o.failed]
    lines = [f"{workload.name}: item = {workload.item}"]
    lines += [f"{key} {metrics[key]!r} {unit}" for key, unit in units.items()]
    lines += notes
    lines.append(f"error_rate {failed / attempted!r} ({failed} of {attempted} items failed)")
    lines += [f"setup check failed: {p}" for p in problems]
    lines += [f"item check failed: {e}" for e in errors[:5]]
    values_ok = all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": not problems and not errors and values_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one flowshop benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    print("record " + json.dumps(run_record(args.workload, args.seed, args.seconds, args.trace)), flush=True)
    result, lines = execute(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0
