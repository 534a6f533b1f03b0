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
import contextlib
import csv
import functools
import hashlib
import io
import json
import numbers
import subprocess
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import Instance, gap_percent, makespan
from .errors import DataError, ValidationError
from .heuristics import (
    HeuristicBudget,
    _is_number,
    iterated_greedy,
    iterated_local_search,
    neh,
    random_search,
)
from .instances import DatasetSpec, generate
from .policy import _check_machines, rollout_greedy
from .stats import wilcoxon_signed_rank
from .training import load_checkpoint

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
# the only source of defaults and names every key a method reads: a
# max_time of None sets no time limit, and an IG acceptance temperature of
# None resolves per instance in iterated_greedy. The solver adapters read
# its keys without fallbacks, and every caller passes parameters merged
# from it.
DEFAULT_METHOD_PARAMS: dict[str, dict] = {
    "rs": {"iterations": 100, "max_time": None},
    "ils": {"iterations": 3, "max_time": None, "inner_iterations": 10, "perturbation_strength": 2},
    "ig": {"iterations": 5, "max_time": None, "inner_iterations": 10, "d_jobs": 4, "init": "random",
           "acceptance_temperature": None},
    "neh": {},
}
HEURISTIC_METHODS = tuple(DEFAULT_METHOD_PARAMS)


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


@functools.cache
def _git_revision() -> str | None:
    """The package checkout's short commit, asked of git once per process."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
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
        max_iterations=params["iterations"], max_time=params["max_time"], rng_seed=seed
    )


# The solver table maps a name to solver(inst, seed, params) -> (perm, value).
# Its adapters look each solver up by name at call time, so a rebound module
# attribute (a tracer wrapping ``neh``, say) is what runs.


def _neh(inst: Instance, seed: int, params: dict):
    return neh(inst)


def _rs(inst: Instance, seed: int, params: dict):
    return random_search(inst, _budget(params, seed))


def _ils(inst: Instance, seed: int, params: dict):
    budget = _budget(params, seed)
    return iterated_local_search(inst, budget, params["perturbation_strength"], params["inner_iterations"])


def _ig(inst: Instance, seed: int, params: dict):
    budget = _budget(params, seed)
    return iterated_greedy(
        inst, budget, params["d_jobs"], params["acceptance_temperature"], params["init"], params["inner_iterations"]
    )


def _policy(inst: Instance, seed: int, params: dict):
    perm = rollout_greedy(params["model"], inst)
    return perm, makespan(inst, perm)


_SOLVERS = {"rs": _rs, "ils": _ils, "ig": _ig, "neh": _neh, "policy": _policy}


def _method_makespans(
    instances: list[Instance],
    method: str,
    params: dict,
    seed: int,
    trial: int | None = None,
    pool: concurrent.futures.Executor | None = None,
) -> dict:
    """One ``per_seed`` record: ``method``'s makespan on every instance and their summed wall time.

    Instance ``idx`` runs with seed ``_trial_seed(seed, trial, idx)``; a
    ``trial`` of None runs trial 0 and leaves the trial out of the record.
    Given an executor ``pool``, the instances run in its workers.
    """
    solver = _SOLVERS[method]
    started = time.perf_counter()
    seeds = [_trial_seed(seed, trial or 0, idx) for idx in range(len(instances))]
    if pool is None:
        results = [solver(inst, s, params) for inst, s in zip(instances, seeds)]
    else:
        results = list(pool.map(solver, instances, seeds, [params] * len(instances), chunksize=8))
    elapsed = time.perf_counter() - started
    record = {"seed": seed} if trial is None else {"seed": seed, "trial": trial}
    record.update(makespans=[float(value) for _, value in results], time_s=elapsed)
    return record


def _build_row(method: str, instances: list[Instance], per_seed: list[dict], expert: dict, extra: dict) -> ReportRow:
    """One method's row from its ``per_seed`` records, gaps against the ``expert`` record."""
    expert_means = np.array(expert["makespans"])
    inst_means = np.array([rec["makespans"] for rec in per_seed]).mean(axis=0)  # over seeds
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
        extra=dict(extra),
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
    if not isinstance(config.method_params, dict):
        raise ValidationError(f"method_params must map method names to objects, not {config.method_params!r}")
    for name, params in config.method_params.items():
        if name not in HEURISTIC_METHODS:
            raise ValidationError(f"method_params names unknown method {name!r}")
        if not isinstance(params, dict):
            raise ValidationError(f"method_params for {name!r} must be an object, not {params!r}")
        readable = DEFAULT_METHOD_PARAMS[name]
        unknown = sorted(params.keys() - readable.keys())
        if unknown:
            raise ValidationError(f"method_params for {name!r}: unknown keys {unknown}; it reads {sorted(readable)}")

    def run(name: str, trial: int | None = None) -> dict:
        params = {**DEFAULT_METHOD_PARAMS[name], **config.method_params.get(name, {})}
        return _method_makespans(instances, name, params, config.seed, trial, pool)

    # one worker pool for the whole report: starting one costs more than a small method's run
    with concurrent.futures.ProcessPoolExecutor() if config.parallel else contextlib.nullcontext() as pool:
        expert = run(config.expert)
        rows = []
        for name in config.methods:
            per_seed = [expert] if name == config.expert else [run(name, trial) for trial in range(config.seeds)]
            rows.append(_build_row(name, instances, per_seed, expert, {}))

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


def evaluate_policy_rows(checkpoint_path: str, instances: list[Instance]) -> Report:
    """Roll out a trained checkpoint and report it in the solver schema."""
    if not instances:
        raise DataError("empty dataset")
    model, manifest = load_checkpoint(checkpoint_path)
    for inst in instances:  # before NEH runs on the whole dataset
        _check_machines(model.config, inst.m, f"instance {inst.name!r}")
    expert = _method_makespans(instances, "neh", {}, 0)
    per_seed = [_method_makespans(instances, "policy", {"model": model}, 0)]
    row = _build_row("policy", instances, per_seed, expert, {"checkpoint_epoch": manifest.get("epoch")})
    metadata = {
        "git_revision": _git_revision(),
        "checkpoint": str(checkpoint_path),
        "expert": "neh",
        "instances": len(instances),
    }
    return Report(rows=[row], metadata=metadata)


def _sweep(axis: str, specs: list[DatasetSpec], method_a: str, method_b: str, seed: int) -> list[ReportRow]:
    """Both methods' rows on each spec's dataset, gaps vs NEH, tagged with the spec's ``axis`` value.

    A method is a heuristic name or ``policy:<ckpt>``; the checkpoint is
    loaded once for the whole sweep and checked against every spec's
    machine count before any solver runs.
    """
    arms = []
    for method in (method_a, method_b):
        if method.startswith("policy:"):
            model = load_checkpoint(method.split(":", 1)[1])[0]
            for spec in specs:
                _check_machines(model.config, spec.machines, f"the {axis}={getattr(spec, axis)} dataset")
            arms.append((method, "policy", {"model": model}))
        elif method in HEURISTIC_METHODS:
            arms.append((method, method, DEFAULT_METHOD_PARAMS[method]))
        else:
            raise ValidationError(f"unknown sweep method {method!r}")
    rows = []
    for spec in specs:
        instances = generate(spec)
        expert = _method_makespans(instances, "neh", {}, seed)
        for method, name, params in arms:
            per_seed = expert if name == "neh" else _method_makespans(instances, name, params, seed)
            rows.append(_build_row(method, instances, [per_seed], expert, {axis: getattr(spec, axis)}))
    return rows


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
    specs = [
        DatasetSpec(count=count, jobs=jobs, machines=machines, dist="normal", mu=mu, sigma=float(s), seed=seed)
        for s in sigmas
    ]
    rows = _sweep("sigma", specs, method_a, method_b, seed)
    return Report(rows=rows, metadata={"sweep": "sigma", "sigmas": [float(s) for s in sigmas], "mu": mu})


def sweep_machines(
    machine_counts: list[int],
    method_a: str,
    method_b: str,
    count: int = 50,
    jobs: int = 20,
    seed: int = 0,
) -> Report:
    """Machine-count sweep over Gamma datasets (policies need matching m).

    A count must be a whole number (``3`` or ``3.0``); ``3.7`` is a
    ``ValidationError``, not a sweep over 3 machines.
    """
    if not all(_is_number(m, numbers.Real) and float(m).is_integer() for m in machine_counts):
        raise ValidationError(f"machine counts must be whole numbers, got {list(machine_counts)}")
    counts = [int(m) for m in machine_counts]
    specs = [DatasetSpec(count=count, jobs=jobs, machines=m, dist="gamma", seed=seed) for m in counts]
    rows = _sweep("machines", specs, method_a, method_b, seed)
    return Report(rows=rows, metadata={"sweep": "machines", "machine_counts": counts})


# --- serialization -----------------------------------------------------------

CSV_COLUMNS = ("method", "n", "m", "makespan", "gap_pct", "time_s")


def report_to_json(report: Report) -> str:
    payload = {
        "rows": [asdict(row) for row in report.rows],
        "metadata": report.metadata,
    }
    return json.dumps(payload, indent=2)


def _real_list(value) -> bool:
    return isinstance(value, list) and all(_is_number(v, numbers.Real) for v in value)


# the JSON type each ReportRow field must have; true and false are not numbers
_ROW_FIELD_TYPES = {
    "method": lambda v: isinstance(v, str),
    "n": lambda v: _is_number(v, numbers.Integral),
    "m": lambda v: _is_number(v, numbers.Integral),
    "mean_makespan": lambda v: _is_number(v, numbers.Real),
    "mean_gap_pct": lambda v: _is_number(v, numbers.Real),
    "time_s": lambda v: _is_number(v, numbers.Real),
    "per_instance_makespan": _real_list,
    "per_instance_gap_pct": _real_list,
    "per_seed": lambda v: isinstance(v, list) and all(isinstance(rec, dict) for rec in v),
    "extra": lambda v: isinstance(v, dict),
}


def report_from_json(text: str | bytes) -> Report:
    """Inverse of :func:`report_to_json`; ``bytes`` must be UTF-8.

    A payload that is not a JSON object, or whose ``rows`` is not a list of
    objects with exactly the :class:`ReportRow` fields, each of its JSON
    type (``_ROW_FIELD_TYPES``), is a ``DataError``.
    """
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"invalid report JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError("report must be a JSON object")
    rows = payload.get("rows", [])
    names = {f.name for f in fields(ReportRow)}
    if not isinstance(rows, list) or not all(isinstance(row, dict) and row.keys() == names for row in rows):
        raise DataError(f"report rows must be a list of objects with exactly the fields {sorted(names)}")
    for row in rows:
        wrong = [name for name, is_valid in _ROW_FIELD_TYPES.items() if not is_valid(row[name])]
        if wrong:
            raise DataError(f"report row fields {wrong} have the wrong JSON type")
    return Report(rows=[ReportRow(**row) for row in rows], metadata=payload.get("metadata", {}))


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
