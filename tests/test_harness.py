"""Experiment harness: reports, gaps, sweeps, export formats."""

import concurrent.futures
import json
import subprocess
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from flowshop import harness
from flowshop.core import Instance, gap_percent
from flowshop.errors import DataError, ValidationError
from flowshop.harness import (
    DEFAULT_METHOD_PARAMS,
    ExperimentConfig,
    Report,
    ReportRow,
    evaluate_policy_rows,
    export_report,
    report_from_json,
    report_to_json,
    solve_dataset,
    _SOLVERS,
    _git_revision,
    sweep_machines,
    sweep_sigma,
)
from flowshop.instances import DatasetSpec, generate
from flowshop.policy import PolicyConfig, PolicyParams
from flowshop.training import save_checkpoint

from conftest import FIXTURES


GOLDEN_REPORTS = FIXTURES / "golden_reports.json"
TINY_POLICY = PolicyConfig(machines=3, hidden_dim=8, layers=1, heads=2)


def small_dataset(count=10, jobs=8, machines=3, seed=7):
    return generate(DatasetSpec(count=count, jobs=jobs, machines=machines, seed=seed))


# method_params that solve_dataset rejects with a ValidationError, for methods ig, ils and rs
METHOD_PARAMS_CORRUPTIONS = {
    "not-an-object": [1],
    "method-value-not-an-object": {"rs": 5},
    "unknown-method": {"nope": {}},
    "key-no-adapter-reads": {"rs": {"iters": 5}},
    "fractional-iterations": {"rs": {"iterations": 2.5}},
    "string-iterations": {"rs": {"iterations": "x"}},
    "string-max-time": {"rs": {"iterations": None, "max_time": "x"}},
    "string-d-jobs": {"ig": {"d_jobs": "x"}},
    "string-temperature": {"ig": {"acceptance_temperature": "x"}},
    "fractional-perturbation": {"ils": {"perturbation_strength": 1.5}},
}

_ROW = asdict(ReportRow("neh", 2, 2, 1.0, 0.0, 0.0, [1.0], [0.0], []))
# report files that report_from_json rejects with a DataError
REPORT_CORRUPTIONS = {
    "not-utf8": b'{"rows": [], "metadata": {"note": "\xff"}}',
    "not-an-object": b"[1]",
    "rows-not-a-list": b'{"rows": 5}',
    "row-not-an-object": b'{"rows": [1]}',
    "row-missing-field": json.dumps({"rows": [{k: v for k, v in _ROW.items() if k != "n"}]}).encode(),
    "row-extra-field": json.dumps({"rows": [{**_ROW, "bogus": 1}]}).encode(),
    "extra-not-an-object": json.dumps({"rows": [{**_ROW, "extra": [1]}]}).encode(),
    "string-makespan": json.dumps({"rows": [{**_ROW, "mean_makespan": "x"}]}).encode(),
    "per-seed-not-a-list": json.dumps({"rows": [{**_ROW, "per_seed": 5}]}).encode(),
    "per-seed-record-not-an-object": json.dumps({"rows": [{**_ROW, "per_seed": [1]}]}).encode(),
    "fractional-job-count": json.dumps({"rows": [{**_ROW, "n": 2.5}]}).encode(),
    "boolean-time": json.dumps({"rows": [{**_ROW, "time_s": True}]}).encode(),
    "method-not-a-string": json.dumps({"rows": [{**_ROW, "method": 5}]}).encode(),
    "string-gap-entry": json.dumps({"rows": [{**_ROW, "per_instance_gap_pct": ["x"]}]}).encode(),
}


class TestExperimentConfig:
    def test_needs_methods(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(methods=())

    def test_needs_seeds(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(methods=("neh",), seeds=0)


class TestSolveDataset:
    def test_expert_self_gap_exactly_zero(self):
        report = solve_dataset(small_dataset(), ExperimentConfig(methods=("neh",), seeds=2))
        row = report.rows[0]
        assert row.mean_gap_pct == 0.0
        assert all(g == 0.0 for g in row.per_instance_gap_pct)

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            solve_dataset(small_dataset(), ExperimentConfig(methods=("simulated-annealing",)))

    def test_empty_dataset(self):
        with pytest.raises(DataError):
            solve_dataset([], ExperimentConfig(methods=("neh",)))

    def test_gaps_recompute_from_makespans(self):
        report = solve_dataset(
            small_dataset(), ExperimentConfig(methods=("neh", "rs"), seeds=2, seed=3)
        )
        expert = report.rows[0]
        rs = report.rows[1]
        for v, e, g in zip(rs.per_instance_makespan, expert.per_instance_makespan, rs.per_instance_gap_pct):
            assert g == gap_percent(v, e)
        assert rs.mean_gap_pct == pytest.approx(np.mean(rs.per_instance_gap_pct))

    def test_deterministic_apart_from_timing(self):
        config = ExperimentConfig(methods=("rs", "ils"), seeds=2, seed=5)
        a = solve_dataset(small_dataset(), config)
        b = solve_dataset(small_dataset(), config)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.per_instance_makespan == rb.per_instance_makespan
            assert ra.mean_gap_pct == rb.mean_gap_pct

    def test_seed_averaging_shape(self):
        report = solve_dataset(small_dataset(count=4), ExperimentConfig(methods=("rs",), seeds=3))
        row = report.rows[0]
        assert len(row.per_seed) == 3
        assert all(len(rec["makespans"]) == 4 for rec in row.per_seed)
        stacked = np.array([rec["makespans"] for rec in row.per_seed])
        assert row.per_instance_makespan == pytest.approx(stacked.mean(axis=0))

    def test_time_budgeted_rs_total_time(self):
        # per-instance budget large enough that fixed overhead stays inside
        # the 20% band the budget contract promises
        insts = small_dataset(count=4, jobs=12)
        per_instance = 0.2
        config = ExperimentConfig(
            methods=("rs",),
            seeds=1,
            method_params={"rs": {"max_time": per_instance, "iterations": None}},
        )
        report = solve_dataset(insts, config)
        expected = per_instance * len(insts)
        assert report.rows[0].time_s == pytest.approx(expected, rel=0.2)

    @pytest.mark.parametrize("method", ["rs", "ils", "ig"])
    def test_budget_without_any_limit_rejected(self, method):
        config = ExperimentConfig(
            methods=(method,), seeds=1, method_params={method: {"iterations": None}}
        )
        with pytest.raises(ValidationError, match="max_iterations or max_time"):
            solve_dataset(small_dataset(count=2), config)

    def test_metadata_fields(self):
        report = solve_dataset(small_dataset(count=3), ExperimentConfig(methods=("neh",)))
        assert report.metadata["expert"] == "neh"
        assert report.metadata["timing_comparable"] is True
        assert len(report.metadata["config_hash"]) == 12

    def test_wilcoxon_attached_for_distinct_methods(self):
        report = solve_dataset(
            small_dataset(count=12, jobs=10),
            ExperimentConfig(methods=("neh", "rs"), seeds=1, seed=1,
                             method_params={"rs": {"iterations": 5}}),
        )
        rs_row = report.rows[1]
        assert rs_row.extra["wilcoxon_p_vs_expert"] is not None
        neh_row = report.rows[0]
        assert neh_row.extra["wilcoxon_p_vs_expert"] is None  # no nonzero pairs

    def test_parallel_matches_serial(self):
        insts = small_dataset(count=6)
        serial = solve_dataset(insts, ExperimentConfig(methods=("rs",), seeds=1, seed=2))
        parallel = solve_dataset(
            insts, ExperimentConfig(methods=("rs",), seeds=1, seed=2, parallel=True)
        )
        assert serial.rows[0].per_instance_makespan == parallel.rows[0].per_instance_makespan
        assert parallel.metadata["timing_comparable"] is False

    def test_parallel_opens_one_pool_per_report(self, monkeypatch):
        opened = []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(max_workers=2)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        config = ExperimentConfig(methods=("neh", "rs", "ils"), seeds=2, parallel=True)
        solve_dataset(small_dataset(count=3), config)
        assert len(opened) == 1

    @pytest.mark.parametrize(
        "method_params", METHOD_PARAMS_CORRUPTIONS.values(), ids=METHOD_PARAMS_CORRUPTIONS.keys()
    )
    def test_malformed_method_params_rejected(self, method_params):
        config = ExperimentConfig(methods=("ig", "ils", "rs"), seeds=1, method_params=method_params)
        with pytest.raises(ValidationError):
            solve_dataset(small_dataset(count=2), config)


@pytest.fixture
def solver_calls(monkeypatch):
    """Every ``_method_makespans`` call: a machine-count mismatch must leave this empty."""
    calls = []
    run = harness._method_makespans
    monkeypatch.setattr(harness, "_method_makespans", lambda *args: calls.append(args[1]) or run(*args))
    return calls


@pytest.fixture
def m3_checkpoint(tmp_path):
    path = tmp_path / "m3.fsc"
    save_checkpoint(path, PolicyParams.init(TINY_POLICY))
    return str(path)


class TestEvaluatePolicyRows:
    def test_machine_mismatch_rejected_for_one_job(self, m3_checkpoint):
        with pytest.raises(ValidationError, match="machines"):
            evaluate_policy_rows(m3_checkpoint, [Instance(np.ones((5, 1)))])

    def test_machine_mismatch_rejected_before_any_solver(self, m3_checkpoint, solver_calls):
        with pytest.raises(ValidationError, match="has 4 machines, model expects 3"):
            evaluate_policy_rows(m3_checkpoint, small_dataset(count=3, machines=3) + small_dataset(count=1, machines=4))
        assert solver_calls == []


class _ReadLog(dict):
    """A params dict that records every key read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class TestDefaultMethodParams:
    @pytest.mark.parametrize("method", ["ils", "ig"])
    def test_every_key_read_has_a_default(self, method):
        # a None max_time (no time limit) and a None IG acceptance temperature
        # (resolved per instance in iterated_greedy) are defaults like any other
        params = _ReadLog(DEFAULT_METHOD_PARAMS[method])
        _SOLVERS[method](small_dataset(count=1)[0], 0, params)
        assert params.read <= set(DEFAULT_METHOD_PARAMS[method])

    @pytest.mark.parametrize("method", ["rs", "ils", "ig", "neh"])
    def test_readable_keys_are_the_keys_read(self, method):
        # solve_dataset accepts exactly these keys in a method's params
        params = _ReadLog(DEFAULT_METHOD_PARAMS[method])
        _SOLVERS[method](small_dataset(count=1)[0], 0, params)
        assert params.read == set(DEFAULT_METHOD_PARAMS[method])


class TestGitRevision:
    def test_same_from_any_directory_and_asked_once(self, monkeypatch, tmp_path):
        _git_revision.cache_clear()
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        from_root = _git_revision()
        _git_revision.cache_clear()
        monkeypatch.chdir(tmp_path)
        assert _git_revision() == from_root

        def no_process(*args, **kwargs):
            raise AssertionError("a second call started a process")

        monkeypatch.setattr(subprocess, "run", no_process)
        assert _git_revision() == from_root


class TestSweepSigma:
    def test_sigma_zero_exact_tie(self):
        report = sweep_sigma([0.0], "rs", "neh", count=4, jobs=6, machines=3, seed=2)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.mean_gap_pct == 0.0
            assert row.extra["sigma"] == 0.0

    def test_row_grouping(self):
        report = sweep_sigma([0.0, 2.0, 4.0, 6.0], "rs", "neh", count=3, jobs=6, machines=3)
        assert len(report.rows) == 8  # 4 sigmas x 2 methods
        sigmas = sorted({row.extra["sigma"] for row in report.rows})
        assert sigmas == [0.0, 2.0, 4.0, 6.0]

    def test_policy_machine_mismatch_rejected_before_any_solver(self, m3_checkpoint, solver_calls):
        with pytest.raises(ValidationError, match="machines"):
            sweep_sigma([0.0, 2.0], f"policy:{m3_checkpoint}", "neh", count=2, jobs=5, machines=4)
        assert solver_calls == []

    def test_expert_vs_expert_all_zero(self):
        report = sweep_sigma([0.0, 3.0], "neh", "neh", count=3, jobs=6, machines=3)
        assert all(row.mean_gap_pct == 0.0 for row in report.rows)


class TestSweepMachines:
    def test_whole_float_count_runs_as_int(self):
        report = sweep_machines([2.0], "rs", "neh", count=2, jobs=5, seed=1)
        assert report.metadata["machine_counts"] == [2]
        assert all(row.m == 2 for row in report.rows)

    @pytest.mark.parametrize("arms", [("policy", "ig"), ("ig", "policy")])
    def test_policy_machine_mismatch_rejected_before_any_solver(self, m3_checkpoint, solver_calls, arms):
        method_a, method_b = (f"policy:{m3_checkpoint}" if arm == "policy" else arm for arm in arms)
        with pytest.raises(ValidationError, match="machines=4 dataset has 4 machines, model expects 3"):
            sweep_machines([3, 4], method_a, method_b, count=2, jobs=5, seed=1)
        assert solver_calls == []

    @pytest.mark.parametrize("counts", [[2, 3.7], [2.5], [True], ["3"], [float("nan")]])
    def test_non_integer_count_rejected(self, counts):
        with pytest.raises(ValidationError, match="machine counts"):
            sweep_machines(counts, "rs", "neh", count=2, jobs=5, seed=1)


class TestExport:
    def test_empty_report_header_only(self):
        text = export_report(Report(rows=[]), "csv")
        assert text == "method,n,m,makespan,gap_pct,time_s\n"

    def test_csv_columns_and_extras(self):
        row = ReportRow(
            method="neh", n=6, m=3, mean_makespan=20.0, mean_gap_pct=0.0, time_s=0.1,
            per_instance_makespan=[20.0], per_instance_gap_pct=[0.0],
            per_seed=[], extra={"sigma": 2.0},
        )
        text = export_report(Report(rows=[row]), "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "method,n,m,makespan,gap_pct,time_s,sigma"
        assert lines[1].startswith("neh,6,3,20.0,0.0,")

    def test_json_round_trip(self):
        report = solve_dataset(small_dataset(count=3), ExperimentConfig(methods=("neh",)))
        back = report_from_json(report_to_json(report))
        assert back.metadata == report.metadata
        assert back.rows[0].per_instance_makespan == report.rows[0].per_instance_makespan

    def test_unknown_format(self):
        with pytest.raises(ValidationError):
            export_report(Report(rows=[]), "xml")

    def test_bad_json(self):
        with pytest.raises(DataError):
            report_from_json("{not json")

    @pytest.mark.parametrize("blob", REPORT_CORRUPTIONS.values(), ids=REPORT_CORRUPTIONS.keys())
    def test_malformed_report_is_data_error(self, blob):
        with pytest.raises(DataError, match="report"):
            report_from_json(blob)


def _masked(report, checkpoint):
    """A report's JSON payload with wall times, the git revision and the checkpoint path masked."""
    payload = json.loads(report_to_json(report).replace(str(checkpoint), "<ckpt>"))
    for row in payload["rows"]:
        row["time_s"] = "<masked>"
        for rec in row["per_seed"]:
            rec["time_s"] = "<masked>"
    if "git_revision" in payload["metadata"]:
        payload["metadata"]["git_revision"] = "<masked>"
    return payload


def golden_reports(workdir):
    """Every harness report path on small seeded inputs, masked for comparison."""
    checkpoint = workdir / "untrained.fsc"
    save_checkpoint(checkpoint, PolicyParams.init(TINY_POLICY, seed=4), epoch=0)
    insts = small_dataset(count=6, jobs=6, machines=3, seed=11)
    reports = {
        "solve_expert_neh": solve_dataset(
            insts, ExperimentConfig(methods=("neh", "ig", "ils", "rs"), seeds=2, seed=3)
        ),
        "solve_expert_rs": solve_dataset(
            insts, ExperimentConfig(methods=("neh", "rs", "ig"), seeds=2, seed=5, expert="rs")
        ),
        "sweep_sigma": sweep_sigma([0.0, 2.0, 5.0], "rs", "neh", count=6, jobs=6, machines=3, seed=1),
        "sweep_machines": sweep_machines([2, 3], "ig", "ils", count=3, jobs=6, seed=1),
        "evaluate_policy_rows": evaluate_policy_rows(str(checkpoint), insts),
        "sweep_sigma_policy": sweep_sigma(
            [0.0, 3.0], f"policy:{checkpoint}", "ils", count=3, jobs=7, machines=3, seed=2
        ),
    }
    return {name: _masked(report, checkpoint) for name, report in reports.items()}


class TestGoldenReports:
    """Masked reports of every harness path against a stored capture.

    Re-capture only on purpose, after a change meant to alter reports:
    ``python tests/test_harness.py``.
    """

    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        return golden_reports(tmp_path_factory.mktemp("golden"))

    @pytest.mark.parametrize(
        "name",
        ["solve_expert_neh", "solve_expert_rs", "sweep_sigma", "sweep_machines",
         "evaluate_policy_rows", "sweep_sigma_policy"],
    )
    def test_matches_golden(self, reports, name):
        # compared as text so that key order, part of the JSON schema, is checked too
        golden = json.loads(GOLDEN_REPORTS.read_text())[name]
        assert json.dumps(reports[name]) == json.dumps(golden)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN_REPORTS.write_text(json.dumps(golden_reports(Path(tmp)), indent=1) + "\n")
