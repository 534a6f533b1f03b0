"""Trainer behavior, checkpoint container, and policy evaluation."""

import json

import numpy as np
import pytest

from flowshop.core import makespan
from flowshop.env import record_expert_traces
from flowshop.errors import DataError, ValidationError
from flowshop.heuristics import neh
from flowshop.instances import DatasetSpec, generate
from flowshop.policy import PolicyConfig, PolicyParams, rollout_greedy
from flowshop.training import Adam, TrainConfig, evaluate, load_checkpoint, save_checkpoint, train

TINY_POLICY = PolicyConfig(machines=3, hidden_dim=8, layers=1, heads=2)


# in-place changes to a checkpoint manifest, each a corruption the loader must reject
MANIFEST_CORRUPTIONS = {
    "unknown_policy_key": lambda m: m["policy"].update(bogus=1),
    "missing_policy": lambda m: m.pop("policy"),
    "shape_not_matching_bytes": lambda m: m["tensors"][0].update(shape=[1]),
    "negative_offset": lambda m: m["tensors"][0].update(offset=-4),
    "missing_tensor": lambda m: m["tensors"].pop(),
}


def rewrite_checkpoint_manifest(path, change):
    """Rewrite a checkpoint's JSON manifest line after ``change(manifest)``."""
    head, body = path.read_bytes().split(b"\n", 1)
    manifest = json.loads(head)
    change(manifest)
    path.write_bytes(json.dumps(manifest).encode() + b"\n" + body)


def tiny_train_config(**overrides) -> TrainConfig:
    base = dict(policy=TINY_POLICY, epochs=2, batch_size=4, learning_rate=1e-3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def make_traces(count=8, jobs=6, machines=3, seed=50):
    insts = generate(DatasetSpec(count=count, jobs=jobs, machines=machines, seed=seed))
    return record_expert_traces(insts)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            tiny_train_config(epochs=0)
        with pytest.raises(ValidationError):
            tiny_train_config(lr_decay=0.0)
        with pytest.raises(ValidationError):
            tiny_train_config(batch_size=0)


class TestAdam:
    def test_minimizes_quadratic(self):
        from flowshop.autograd import Tensor

        t = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam({"x": t})
        for _ in range(500):
            grad = 2.0 * t.data
            opt.step({"x": grad}, lr=0.05)
        assert np.abs(t.data).max() < 1e-3


class TestTrain:
    def test_empty_traces_rejected(self):
        with pytest.raises(ValidationError):
            train(tiny_train_config(), [])

    def test_machine_mismatch_rejected(self):
        traces = make_traces(machines=2)
        with pytest.raises(ValidationError, match="machines"):
            train(tiny_train_config(), traces)

    def test_loss_decreases_on_single_batch(self):
        traces = make_traces(count=4)
        config = tiny_train_config(epochs=3, batch_size=4, learning_rate=1e-2)
        _, history = train(config, traces)
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    def test_deterministic_given_seed(self):
        traces = make_traces()
        p1, h1 = train(tiny_train_config(), traces)
        p2, h2 = train(tiny_train_config(), traces)
        assert h1[-1]["train_loss"] == h2[-1]["train_loss"]
        for name in p1.tensors:
            assert np.array_equal(p1.tensors[name].data, p2.tensors[name].data)

    def test_writes_log_and_checkpoints(self, tmp_path):
        traces = make_traces()
        val = generate(DatasetSpec(count=4, jobs=6, machines=3, seed=51))
        config = tiny_train_config(
            epochs=4,
            checkpoint_path=str(tmp_path / "model.fsc"),
            checkpoint_every=2,
            log_path=str(tmp_path / "train.jsonl"),
        )
        _, history = train(config, traces, val)
        lines = (tmp_path / "train.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4
        rec = json.loads(lines[-1])
        assert set(rec) == {"epoch", "train_loss", "val_gap", "elapsed_s"}
        assert rec["val_gap"] is not None
        assert (tmp_path / "model.fsc").exists()
        assert (tmp_path / "model.fsc.epoch2").exists()

    def test_val_gap_of_expert_replay_is_zero(self):
        # evaluating NEH's own makespans as the expert reference gives gap 0
        insts = generate(DatasetSpec(count=3, jobs=5, machines=3, seed=52))
        expert = np.array([neh(i)[1] for i in insts])
        params = PolicyParams.init(TINY_POLICY, seed=0)
        result = evaluate(params, insts, expert)
        recomputed = [makespan(i, rollout_greedy(params, i)) for i in insts]
        assert np.allclose(result["makespans"], recomputed)


class TestEvaluate:
    def test_machine_mismatch(self):
        params = PolicyParams.init(TINY_POLICY)
        insts = generate(DatasetSpec(count=2, jobs=5, machines=4, seed=1))
        with pytest.raises(ValidationError):
            evaluate(params, insts)

    def test_gap_zero_against_own_makespans(self):
        params = PolicyParams.init(TINY_POLICY, seed=4)
        insts = generate(DatasetSpec(count=3, jobs=6, machines=3, seed=2))
        own = np.array([makespan(i, rollout_greedy(params, i)) for i in insts])
        result = evaluate(params, insts, own)
        assert result["mean_gap_pct"] == 0.0

    def test_repeatable(self):
        params = PolicyParams.init(TINY_POLICY, seed=4)
        insts = generate(DatasetSpec(count=4, jobs=6, machines=3, seed=3))
        a = evaluate(params, insts)
        b = evaluate(params, insts)
        assert np.array_equal(a["makespans"], b["makespans"])
        assert a["mean_gap_pct"] == b["mean_gap_pct"]


class TestCheckpoint:
    def test_round_trip_float32(self, tmp_path):
        params = PolicyParams.init(TINY_POLICY, seed=6)
        path = tmp_path / "model.fsc"
        save_checkpoint(path, params, epoch=7, metrics={"train_loss": 1.5})
        loaded, manifest = load_checkpoint(path)
        assert manifest["epoch"] == 7
        assert manifest["policy"]["hidden_dim"] == 8
        assert set(loaded.tensors) == set(params.tensors)
        assert set(loaded.buffers) == set(params.buffers)
        for name, t in params.tensors.items():
            np.testing.assert_allclose(
                loaded.tensors[name].data, t.data.astype(np.float32), rtol=0, atol=0
            )

    def test_rollout_consistent_after_reload(self, tmp_path):
        # float32 rounding must not break determinism of the reloaded model
        params = PolicyParams.init(TINY_POLICY, seed=8)
        path = tmp_path / "model.fsc"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        inst = generate(DatasetSpec(count=1, jobs=8, machines=3, seed=9))[0]
        a = rollout_greedy(loaded, inst)
        b = rollout_greedy(loaded, inst)
        assert list(a) == list(b)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.fsc"
        path.write_bytes(b'{"format": "other", "version": 1, "tensors": []}\n')
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt", MANIFEST_CORRUPTIONS.values(), ids=MANIFEST_CORRUPTIONS.keys())
    def test_corrupt_manifest_is_data_error(self, tmp_path, corrupt):
        path = tmp_path / "model.fsc"
        save_checkpoint(path, PolicyParams.init(TINY_POLICY))
        rewrite_checkpoint_manifest(path, corrupt)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_architecture_larger_than_body_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "model.fsc"
        save_checkpoint(path, PolicyParams.init(TINY_POLICY))
        rewrite_checkpoint_manifest(path, lambda m: m["policy"].update(hidden_dim=2**20))
        with pytest.raises(DataError, match="architecture"):
            load_checkpoint(path)

    def test_truncated_blob_rejected(self, tmp_path):
        params = PolicyParams.init(TINY_POLICY)
        path = tmp_path / "model.fsc"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(DataError, match="shorter"):
            load_checkpoint(path)
