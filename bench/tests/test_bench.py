"""Tests of the benchmark's own code: oracle, span arithmetic, metric names, smoke runs.

    python -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import runner  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from flowshop import env, harness, heuristics, instances, policy, training  # noqa: E402
from flowshop.autograd import Tensor  # noqa: E402

# machine i (row) x job j (column); completion tables below are worked by hand
TIMES_3X4 = [
    [3, 2, 4, 1],
    [2, 5, 1, 3],
    [4, 1, 2, 2],
]
HAND_TABLES = {
    (0, 1, 2, 3): [[3, 5, 9, 10], [5, 10, 11, 14], [9, 11, 13, 16]],
    (3, 2, 1, 0): [[1, 5, 7, 10], [4, 6, 12, 14], [6, 8, 13, 18]],
    (1, 0, 3, 2): [[2, 5, 6, 10], [7, 9, 12, 13], [8, 13, 15, 17]],
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("perm", sorted(HAND_TABLES))
def test_oracle_matches_hand_computed_3x4(perm):
    assert oracle.completion_table(TIMES_3X4, perm) == HAND_TABLES[perm]
    assert oracle.makespan(TIMES_3X4, perm) == HAND_TABLES[perm][-1][-1]
    assert oracle.makespan(np.array(TIMES_3X4, dtype=float), np.array(perm)) == HAND_TABLES[perm][-1][-1]


def test_oracle_lower_bound_3x4():
    # machine loads 10, 11, 9; job totals 9, 8, 7, 6
    assert oracle.lower_bound(TIMES_3X4) == 11
    assert all(oracle.at_least(table[-1][-1], 11) for table in HAND_TABLES.values())


@pytest.mark.parametrize(
    "perm, n, valid",
    [
        ([2, 0, 1], 3, True),
        (np.array([1, 0]), 2, True),
        ([0, 0, 2], 3, False),
        ([0, 1], 3, False),
        ([0, 1, 3], 3, False),
        ([0.5, 1, 2], 3, False),
        ([-1, 0, 1], 3, False),
    ],
)
def test_oracle_permutation_validator(perm, n, valid):
    assert oracle.is_permutation(perm, n) is valid


def test_oracle_close_allows_only_rounding():
    assert oracle.close(1.0, 1.0 + 1e-12)
    assert not oracle.close(1.0, 1.0 + 1e-6)
    assert oracle.at_least(1.0 - 1e-12, 1.0)
    assert not oracle.at_least(0.999, 1.0)


class ScriptedClock:
    def __init__(self, readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and a second B [5, 9]
    tr = tracing.Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tr.item = 7
    tr.begin("A")
    tr.begin("B")
    tr.begin("C")
    tr.end()
    tr.end()
    tr.begin("B")
    tr.end()
    tr.end()
    assert dict(tr.calls) == {"A": 1, "B": 2, "C": 1}
    assert dict(tr.inclusive) == {"A": 10, "B": 7, "C": 1}
    assert dict(tr.self_time) == {"A": 3, "B": 6, "C": 1}
    assert tr.child_time("A", "B") == 7
    assert tr.child_time("B", "C") == 1
    assert tr.child_time("A", "C") == 0  # C is a grandchild of A
    by_name = {}
    for span_id, name, start, stop, parent, item in tr.spans:
        by_name.setdefault(name, []).append((span_id, start, stop, parent, item))
    a_id = by_name["A"][0][0]
    first_b_id = by_name["B"][0][0]
    assert by_name["C"][0][3] == first_b_id
    assert [b[3] for b in by_name["B"]] == [a_id, a_id]
    assert by_name["A"][0][3] is None
    assert {span[5] for span in tr.spans} == {7}
    assert len({span[0] for span in tr.spans}) == 4


def test_span_closes_when_the_call_raises():
    tr = tracing.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tr.wrap("x.boom", boom)()
    assert tr.calls["x.boom"] == 1 and not tr._stack


def test_installed_patches_every_binding_and_restores_them():
    import flowshop

    original = heuristics.neh
    holders = [m for m in (flowshop, heuristics, harness, training, env) if getattr(m, "neh", None) is original]
    assert len(holders) == 5
    backward = Tensor.__dict__["backward"]
    tr = tracing.Tracer()
    inst = instances.generate(instances.DatasetSpec(count=1, jobs=6, machines=3, seed=3))[0]
    with tracing.installed(tr):
        wrapped = heuristics.neh
        assert wrapped is not original
        assert all(m.neh is wrapped for m in holders)
        harness.solve_dataset([inst], harness.ExperimentConfig(methods=("neh", "ils"), seeds=1))
        env.record_expert_traces([inst], expert=heuristics.neh)
        batch = policy.TraceBatch.from_traces(env.record_expert_traces([inst], expert=heuristics.neh), policy.PolicyConfig(machines=3, hidden_dim=8, heads=2, layers=1))
    assert batch.size == 1
    assert all(m.neh is original for m in holders)
    assert Tensor.__dict__["backward"] is backward
    assert tr.calls["heuristics.neh"] == 3  # once through harness, twice through the explicit expert
    assert tr.calls["harness.solve_dataset"] == 1
    assert tr.calls["policy.TraceBatch.from_traces"] == 1
    assert tr.calls["heuristics.local_search_insert"] >= 1
    descent = tr.counts.get("heuristics.local_search_insert.improved", 0)
    assert 0 <= descent <= tr.calls["heuristics.local_search_insert"]
    assert tr.counts["heuristics.insertion_makespans.positions"] > 0


def test_metric_names_are_valid_and_traced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    per_layer = runner.metric_units("per_layer")
    for name in [*runner.metric_units("end_to_end"), *per_layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name
    layer_functions = {name.rsplit(".", 1)[0] for name in per_layer if name not in runner.RUN_METRICS}
    traced = {name for name, _, _ in tracing.targets()}
    assert layer_functions <= traced


def test_end_to_end_metrics_and_quality():
    outcomes = [
        workloads.Outcome(1, 0.30, [0.30], key=0, gap=5.0),
        workloads.Outcome(1, 0.10, [0.10], key=1, gap=7.0),
        workloads.Outcome(1, 0.20, [0.20], key=0, gap=5.0),
        workloads.Outcome(1, 0.40, [0.40], key=2, gap=1.0, error="wrong answer"),
    ]
    metrics = runner.end_to_end_metrics([1.0, 3.0, 2.0], outcomes)
    assert metrics["setup_s"] == 2.0
    assert metrics["items_per_s"] == pytest.approx(3 / 1.0)  # a failed item costs time and completes nothing
    assert metrics["item_ms_p50"] == pytest.approx(200.0)
    assert metrics["item_ms_p90"] == pytest.approx(280.0)
    assert runner.quality(outcomes) == {"quality.mean_gap_pct": 6.0, "quality.train_loss": 0.0}
    rounds = [workloads.Outcome(256, 4.0, [1.5, 2.0], loss=2.5), workloads.Outcome(256, 3.8, [1.8, 1.6], loss=2.4)]
    assert runner.end_to_end_metrics([0.5], rounds)["items_per_s"] == pytest.approx(512 / 7.8)
    assert runner.quality(rounds)["quality.train_loss"] == 2.4


class Broken:
    """A workload whose rounds raise or fail their check, to test the accounting."""

    name = "broken"
    items_per_round = 4

    def run(self, index):
        if index == 0:
            raise RuntimeError("library raised")
        return workloads.Outcome(4, 0.1, [0.1], error="wrong answer")


def test_failed_rounds_count_every_item():
    outcomes = runner.measure(Broken(), seconds=0) + [runner.attempt(Broken(), 1)]
    assert [o.failed for o in outcomes] == [True, True]
    assert outcomes[0].items == 4 and "library raised" in outcomes[0].error


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_smoke_run(name, tmp_path):
    result, lines = runner.execute(name, seed=1, seconds=0.01, trace=False, workdir=tmp_path)
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] == 2 * workloads.WORKLOADS[name].items_per_round  # warm-up and one measured round
    assert set(result["metrics"]) == set(runner.metric_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values()), lines


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_traced_run(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.WORKLOADS[name], "traced_rounds", 1)
    result, lines = runner.execute(name, seed=1, seconds=0.01, trace=True, workdir=tmp_path)
    assert result["correct"], lines
    assert set(result["metrics"]) == set(runner.metric_units("per_layer"))
    spans = (tmp_path / f"spans-{name}.jsonl").read_text().splitlines()
    assert spans and set(json.loads(spans[0])) == {"id", "name", "start", "end", "parent", "item"}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "exact-8x5":
        assert metrics["exact.brute_force.calls"] == 1
        assert metrics["core.makespan_batch.perms"] == 40320
        assert metrics["core.makespan_batch.cells"] == 40320 * 8 * 5
        assert 0 < metrics["exact.brute_force.self_s"] < metrics["exact.brute_force.s"]
    elif name == "train-bc-20x5":
        assert metrics["policy.bc_loss.calls"] == metrics["autograd.Tensor.backward.calls"] == 4
        assert metrics["training.Adam.step.calls"] == 4 and metrics["training.evaluate.calls"] == 2
        assert metrics["policy.rollout_greedy.calls"] == 2 * workloads.Train.validation
        assert 0 < metrics["policy.bc_loss.forward_s"] and metrics["autograd.Tensor.backward.s"] > 0
        assert metrics["quality.train_loss"] > 0 and metrics["env.record_expert_traces.calls"] == 1
    else:
        assert metrics["harness.solve_dataset.calls"] == 1
        assert metrics["heuristics.neh.calls"] == 2  # the Taillard canary and the NEH row
        assert 0 <= metrics["heuristics.local_search_insert.improved_ratio"] <= 1


def test_command_line_prints_result_last():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "exact-8x5", "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "exact-8x5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
