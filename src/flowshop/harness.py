"""Experiment orchestration: solver runs, sweeps, reports, and exports.

A report row aggregates one method over a dataset: per-seed per-instance
makespans are kept in full, instance makespans are averaged over seeds,
gaps are computed per instance against the expert and then macro-averaged.
The expert's own row therefore carries an exact 0.0 gap. Solver timing is
the wall-clock sum over instances (averaged across seeds); with
--parallel enabled timings lose comparability and are flagged as such.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import io
import json
import subprocess
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import Instance, gap_percent
from .errors import DataError, ValidationError
from .heuristics import HeuristicBudget, IgParams, iterated_greedy, iterated_local_search, neh, random_search
from .instances import DatasetSpec, generate
from .stats import wilcoxon_signed_rank

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "Report",
    "HEURISTIC_METHODS",
    "solve_dataset",
    "evaluate_policy_rows",
    "sweep_sigma",
    "sweep_machines",
    "export_report",
    "report_to_json",
    "report_from_json",
]

# Default desk-scale budgets. Calibrated so the classic quality ordering
# NEH <= IG <= ILS <= RS emerges on generated Gamma data at n=20, m=5:
# the insertion descent is strong enough that untruncated ILS/IG overtake
# NEH, so their inner descents are budget-capped by default. This table is
# the only source of defaults: ``_run_method`` reads its keys without
# fallbacks, and every caller passes parameters merged from it.
DEFAULT_METHOD_PARAMS: dict[str, dict] = {
    "rs": {"iterations": 100},
    "ils": {"iterations": 3, "inner_iterations": 10, "perturbation_strength": 2},
    "ig": {"iterations": 5, "inner_iterations": 10, "d_jobs": 4, "init": "random"},
    "neh": {},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: methods, trial seeds, expert, per-method overrides."""

    methods: tuple[str, ...]
    seeds: int = 3
    seed: int = 0
    expert: str = "neh"
    method_params: dict = field(default_factory=dict)
    parallel: bool = False

    def __post_init__(self):
        if not self.methods:
            raise ValidationError("need at least one method")
        if self.seeds < 1:
            raise ValidationError("seeds must be >= 1")


@dataclass
class ReportRow:
    method: str
    n: int
    m: int
    mean_makespan: float
    mean_gap_pct: float
    time_s: float
    per_instance_makespan: list[float]
    per_instance_gap_pct: list[float]
    per_seed: list[dict]
    extra: dict = field(default_factory=dict)


@dataclass
class Report:
    rows: list[ReportRow]
    metadata: dict = field(default_factory=dict)


def _git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(asdict(config), sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def _trial_seed(base: int, trial: int, index: int) -> int:
    return int(np.random.SeedSequence((base, trial, index)).generate_state(1, np.uint64)[0])


def _budget(params: dict, seed: int) -> HeuristicBudget:
    return HeuristicBudget(
        max_iterations=params.get("iterations"), max_time=params.get("max_time"), rng_seed=seed
    )


def _run_method(inst: Instance, method: str, seed: int, params: dict) -> float:
    if method == "neh":
        return neh(inst)[1]
    if method == "rs":
        return random_search(inst, _budget(params, seed))[1]
    if method == "ils":
        budget = _budget(params, seed)
        return iterated_local_search(
            inst,
            budget,
            params["perturbation_strength"],
            inner_iterations=params.get("inner_iterations"),
        )[1]
    if method == "ig":
        ig = IgParams(
            d_jobs=params["d_jobs"],
            acceptance_temperature=params.get("acceptance_temperature"),
            budget=_budget(params, seed),
            init=params["init"],
            inner_iterations=params.get("inner_iterations"),
        )
        return iterated_greedy(inst, ig)[1]
    raise ValidationError(f"unknown method {method!r}")


HEURISTIC_METHODS = ("rs", "ils", "ig", "neh")


def _parallel_task(args):
    times, method, seed, params = args
    return _run_method(Instance(times), method, seed, params)


def _method_makespans(
    instances: list[Instance],
    method: str,
    seed: int,
    trial: int,
    params: dict,
    parallel: bool,
) -> tuple[np.ndarray, float]:
    started = time.perf_counter()
    if parallel:
        tasks = [
            (inst.times, method, _trial_seed(seed, trial, idx), params)
            for idx, inst in enumerate(instances)
        ]
        with concurrent.futures.ProcessPoolExecutor() as pool:
            values = list(pool.map(_parallel_task, tasks, chunksize=8))
        result = np.array(values)
    else:
        result = np.array(
            [
                _run_method(inst, method, _trial_seed(seed, trial, idx), params)
                for idx, inst in enumerate(instances)
            ]
        )
    return result, time.perf_counter() - started


def _build_row(
    method: str,
    instances: list[Instance],
    per_seed: list[dict],
    expert_means: np.ndarray,
    extra: dict | None = None,
) -> ReportRow:
    stacked = np.array([rec["makespans"] for rec in per_seed])  # (seeds, instances)
    inst_means = stacked.mean(axis=0)
    gaps = np.array([gap_percent(v, e) for v, e in zip(inst_means, expert_means)])
    row = ReportRow(
        method=method,
        n=instances[0].n,
        m=instances[0].m,
        mean_makespan=float(inst_means.mean()),
        mean_gap_pct=float(gaps.mean()),
        time_s=float(np.mean([rec["time_s"] for rec in per_seed])),
        per_instance_makespan=[float(v) for v in inst_means],
        per_instance_gap_pct=[float(v) for v in gaps],
        per_seed=per_seed,
        extra=dict(extra or {}),
    )
    try:
        test = wilcoxon_signed_rank(inst_means, expert_means)
        row.extra.setdefault("wilcoxon_p_vs_expert", test.p_value)
        row.extra.setdefault("wilcoxon_significant", test.significant)
    except ValidationError:
        row.extra.setdefault("wilcoxon_p_vs_expert", None)
        row.extra.setdefault("wilcoxon_significant", None)
    return row


def solve_dataset(instances: list[Instance], config: ExperimentConfig) -> Report:
    """Run every configured method over the dataset, seeds averaged.

    The expert (NEH unless configured otherwise) is run first so every
    row's gaps refer to the same per-instance expert makespans.
    """
    if not instances:
        raise DataError("empty dataset")
    if config.expert not in HEURISTIC_METHODS:
        raise ValidationError(f"unknown expert method {config.expert!r}")
    for name in config.methods:
        if name not in HEURISTIC_METHODS:
            raise ValidationError(f"unknown method {name!r}")

    def params_for(name: str) -> dict:
        merged = dict(DEFAULT_METHOD_PARAMS.get(name, {}))
        merged.update(config.method_params.get(name, {}))
        return merged

    expert_values, expert_time = _method_makespans(
        instances, config.expert, config.seed, 0, params_for(config.expert), config.parallel
    )

    rows = []
    for name in config.methods:
        if name == config.expert:
            per_seed = [
                {"seed": config.seed, "makespans": [float(v) for v in expert_values], "time_s": expert_time}
            ]
        else:
            per_seed = []
            for trial in range(config.seeds):
                values, elapsed = _method_makespans(
                    instances, name, config.seed, trial, params_for(name), config.parallel
                )
                per_seed.append(
                    {"seed": config.seed, "trial": trial, "makespans": [float(v) for v in values], "time_s": elapsed}
                )
        rows.append(_build_row(name, instances, per_seed, expert_values))

    metadata = {
        "git_revision": _git_revision(),
        "config_hash": _config_hash(config),
        "expert": config.expert,
        "seeds": config.seeds,
        "parallel": config.parallel,
        "timing_comparable": not config.parallel,
        "instances": len(instances),
    }
    return Report(rows=rows, metadata=metadata)


def evaluate_policy_rows(
    checkpoint_path: str,
    instances: list[Instance],
    config: ExperimentConfig | None = None,
    method_name: str = "policy",
) -> Report:
    """Roll out a trained checkpoint and report it in the solver schema."""
    from .training import evaluate, load_checkpoint  # deferred: keeps harness light

    if not instances:
        raise DataError("empty dataset")
    params, manifest = load_checkpoint(checkpoint_path)
    expert_values = np.array([neh(inst)[1] for inst in instances])
    result = evaluate(params, instances, expert_values)
    per_seed = [{"seed": 0, "makespans": [float(v) for v in result["makespans"]], "time_s": result["time_s"]}]
    row = _build_row(method_name, instances, per_seed, expert_values, extra={"checkpoint_epoch": manifest.get("epoch")})
    metadata = {
        "git_revision": _git_revision(),
        "checkpoint": str(checkpoint_path),
        "expert": "neh",
        "instances": len(instances),
    }
    return Report(rows=[row], metadata=metadata)


def _sweep_method_values(method: str, instances: list[Instance], seed: int) -> np.ndarray:
    """Per-instance makespans for a sweep arm: heuristic name or policy:<ckpt>."""
    if method.startswith("policy:"):
        from .training import evaluate, load_checkpoint

        params, _ = load_checkpoint(method.split(":", 1)[1])
        return evaluate(params, instances)["makespans"]
    if method not in HEURISTIC_METHODS:
        raise ValidationError(f"unknown sweep method {method!r}")
    return np.array(
        [
            _run_method(inst, method, _trial_seed(seed, 0, idx), DEFAULT_METHOD_PARAMS.get(method, {}))
            for idx, inst in enumerate(instances)
        ]
    )


def sweep_sigma(
    sigmas: list[float],
    method_a: str,
    method_b: str,
    count: int = 50,
    jobs: int = 20,
    machines: int = 5,
    mu: float = 6.0,
    seed: int = 0,
) -> Report:
    """Job-difference sweep: per-sigma test sets, both methods' gaps vs NEH.

    At sigma=0 every job is identical, all permutations tie, and both
    methods' gaps are exactly zero.
    """
    rows = []
    for sigma in sigmas:
        spec = DatasetSpec(
            count=count, jobs=jobs, machines=machines, dist="normal", mu=mu, sigma=float(sigma), seed=seed
        )
        instances = generate(spec)
        expert_values = np.array([neh(inst)[1] for inst in instances])
        for method in (method_a, method_b):
            started = time.perf_counter()
            values = _sweep_method_values(method, instances, seed)
            elapsed = time.perf_counter() - started
            per_seed = [{"seed": seed, "makespans": [float(v) for v in values], "time_s": elapsed}]
            rows.append(
                _build_row(method, instances, per_seed, expert_values, extra={"sigma": float(sigma)})
            )
    return Report(rows=rows, metadata={"sweep": "sigma", "sigmas": [float(s) for s in sigmas], "mu": mu})


def sweep_machines(
    machine_counts: list[int],
    method_a: str,
    method_b: str,
    count: int = 50,
    jobs: int = 20,
    seed: int = 0,
) -> Report:
    """Machine-count sweep over Gamma datasets (policies need matching m)."""
    rows = []
    for m in machine_counts:
        spec = DatasetSpec(count=count, jobs=jobs, machines=int(m), dist="gamma", seed=seed)
        instances = generate(spec)
        expert_values = np.array([neh(inst)[1] for inst in instances])
        for method in (method_a, method_b):
            started = time.perf_counter()
            values = _sweep_method_values(method, instances, seed)
            elapsed = time.perf_counter() - started
            per_seed = [{"seed": seed, "makespans": [float(v) for v in values], "time_s": elapsed}]
            rows.append(_build_row(method, instances, per_seed, expert_values, extra={"machines": int(m)}))
    return Report(rows=rows, metadata={"sweep": "machines", "machine_counts": [int(m) for m in machine_counts]})


# --- serialization -----------------------------------------------------------

CSV_COLUMNS = ("method", "n", "m", "makespan", "gap_pct", "time_s")


def report_to_json(report: Report) -> str:
    payload = {
        "rows": [asdict(row) for row in report.rows],
        "metadata": report.metadata,
    }
    return json.dumps(payload, indent=2)


def report_from_json(text: str) -> Report:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid report JSON: {exc}") from exc
    rows = [ReportRow(**row) for row in payload.get("rows", [])]
    return Report(rows=rows, metadata=payload.get("metadata", {}))


def export_report(report: Report, fmt: str) -> str:
    """Render the report as csv (fixed leading columns) or json."""
    if fmt == "json":
        return report_to_json(report)
    if fmt != "csv":
        raise ValidationError(f"unknown export format {fmt!r}")
    extra_keys = sorted({k for row in report.rows for k in row.extra})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(CSV_COLUMNS) + extra_keys)
    for row in report.rows:
        record = [row.method, row.n, row.m, row.mean_makespan, row.mean_gap_pct, row.time_s]
        record += [row.extra.get(k, "") for k in extra_keys]
        writer.writerow(record)
    return buf.getvalue()
