"""Behavior-cloning trainer, checkpoint container, and policy evaluation.

Training is plain supervised learning on expert traces: shuffled
instance batches, one Adam step per batch, learning rate decayed by a
constant factor each epoch. The trained parameters, their gradients and
Adam's moments are float32, so the step moves half the bytes of the
float64 path that the gradient checks use. After every epoch the greedy
policy is rolled out on a validation set and its mean makespan gap
against the expert is logged (newline-delimited JSON records).

Checkpoints are a single file: one JSON manifest line (format version,
architecture, epoch, metrics, per-tensor offsets) followed by packed
little-endian float32 tensors, parameters and batch-norm buffers alike.
A checkpoint loads as the float32 it stores, so validation during
training and every decode of a saved model run in one dtype.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .autograd import Tensor
from .core import Instance, gap_percent, makespan
from .env import ExpertTrace
from .errors import DataError, ValidationError
from .heuristics import neh
from .instances import _header_size, _read_container, _write_container
from .policy import PolicyConfig, PolicyParams, TraceBatch, _check_machines, bc_loss, rollout_greedy

__all__ = [
    "TrainConfig",
    "Adam",
    "train",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
]

_FORMAT = "flowshop-checkpoint"
_VERSION = 1
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass(frozen=True)
class TrainConfig:
    """Optimization schedule plus the architecture to train.

    train() consumes already-loaded traces; the only paths here are the
    outputs it writes (checkpoints and the JSONL log).
    """

    policy: PolicyConfig
    epochs: int
    batch_size: int = 128
    learning_rate: float = 1e-4
    lr_decay: float = 0.96
    seed: int = 0
    checkpoint_path: str | None = None
    checkpoint_every: int = 0  # epochs between intermediate checkpoints, 0 = final only
    log_path: str | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValidationError("learning_rate must be positive and finite")
        if not 0 < self.lr_decay <= 1:
            raise ValidationError("lr_decay must be in (0, 1]")
        if self.checkpoint_every < 0:
            raise ValidationError("checkpoint_every must be >= 0")


class Adam:
    """Adaptive-moment optimizer with the standard constants (beta1 0.9, beta2 0.999, eps 1e-8)."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = tensors
        self.steps = 0
        self._m = {k: np.zeros_like(t.data) for k, t in tensors.items()}
        self._v = {k: np.zeros_like(t.data) for k, t in tensors.items()}

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        self.steps += 1
        b1, b2 = _BETA1, _BETA2
        correction1 = 1.0 - b1**self.steps
        correction2 = 1.0 - b2**self.steps
        for name, g in grads.items():
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            update = (m / correction1) / (np.sqrt(v / correction2) + _EPS)
            self.tensors[name].data -= lr * update


def train(
    config: TrainConfig,
    traces: list[ExpertTrace],
    val_instances: list[Instance] | None = None,
    expert_makespans: np.ndarray | None = None,
) -> tuple[PolicyParams, list[dict]]:
    """Clone the expert from traces; returns trained params and epoch history.

    Every trace and validation instance must have the model's machine
    count, and every trace the first trace's job count; a mismatch is a
    ``ValidationError`` before the first step. Deterministic for a fixed seed:
    initialization and batch shuffling draw from one PCG64 stream. When a
    validation set is given (optionally with precomputed expert makespans),
    each epoch records the greedy rollout gap; history rows mirror the
    JSONL training log.
    """
    if not traces:
        raise ValidationError("cannot train on an empty trace set")
    # graphs never change, so the whole corpus is assembled once
    corpus = TraceBatch.from_traces(traces, config.policy)
    if val_instances:
        expert_makespans = _expert_reference(config.policy, val_instances, expert_makespans)

    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = PolicyParams.init(config.policy, seed=config.seed)
    for tensor in params.tensors.values():  # train in float32: the same draws, rounded
        tensor.data = tensor.data.astype(np.float32)
    optimizer = Adam(params.tensors)

    log_fh = open(config.log_path, "w", encoding="utf-8") if config.log_path else None
    history: list[dict] = []
    started = time.perf_counter()
    try:
        for epoch in range(config.epochs):
            lr = config.learning_rate * config.lr_decay**epoch
            order = rng.permutation(corpus.size)
            total, seen = 0.0, 0
            for lo in range(0, len(order), config.batch_size):
                rows = order[lo : lo + config.batch_size]
                batch = TraceBatch(
                    features=corpus.features[rows],
                    neighbors=corpus.neighbors[rows],
                    distances=corpus.distances[rows],
                    actions=corpus.actions[rows],
                )
                loss, grads = bc_loss(params, batch)
                optimizer.step(grads, lr)
                total += loss * batch.size
                seen += batch.size
            record = {
                "epoch": epoch,
                "train_loss": total / seen,
                "val_gap": None,
                "elapsed_s": time.perf_counter() - started,
            }
            if val_instances:
                result = evaluate(params, val_instances, expert_makespans)
                record["val_gap"] = result["mean_gap_pct"]
            history.append(record)
            if log_fh:
                log_fh.write(json.dumps(record) + "\n")
                log_fh.flush()
            if (
                config.checkpoint_path
                and config.checkpoint_every
                and (epoch + 1) % config.checkpoint_every == 0
                and epoch + 1 < config.epochs
            ):
                save_checkpoint(f"{config.checkpoint_path}.epoch{epoch + 1}", params, epoch + 1, record)
        if config.checkpoint_path:
            save_checkpoint(config.checkpoint_path, params, config.epochs, history[-1])
    finally:
        if log_fh:
            log_fh.close()
    return params, history


def evaluate(
    params: PolicyParams,
    instances: list[Instance],
    expert_makespans: np.ndarray | None = None,
) -> dict:
    """Greedy-rollout report: per-instance makespans and gaps vs the expert."""
    expert_makespans = _expert_reference(params.config, instances, expert_makespans)
    started = time.perf_counter()
    makespans = np.empty(len(instances))
    for idx, inst in enumerate(instances):
        perm = rollout_greedy(params, inst)
        makespans[idx] = makespan(inst, perm)
    elapsed = time.perf_counter() - started
    gaps = np.array([gap_percent(v, e) for v, e in zip(makespans, expert_makespans)])
    return {
        "makespans": makespans,
        "gaps": gaps,
        "mean_makespan": float(makespans.mean()),
        "mean_gap_pct": float(gaps.mean()),
        "time_s": elapsed,
    }


def _expert_reference(config: PolicyConfig, instances: list[Instance], expert_makespans) -> np.ndarray:
    """The expert makespan of each instance, NEH's unless given, after checking that
    every instance has the model's machine count and that given makespans align."""
    for inst in instances:
        _check_machines(config, inst.m, f"instance {inst.name!r}")
    if expert_makespans is None:
        return np.array([neh(inst)[1] for inst in instances])
    expert_makespans = np.asarray(expert_makespans, dtype=np.float64)
    if expert_makespans.shape != (len(instances),):
        raise ValidationError("expert_makespans must align with the instance list")
    return expert_makespans


def save_checkpoint(path, params: PolicyParams, epoch: int | None = None, metrics: dict | None = None) -> None:
    """One JSON manifest line plus packed float32 tensors (params then buffers)."""
    entries = []
    blobs = []
    offset = 0
    for kind, table in (("param", params.tensors), ("buffer", params.buffers)):
        for name, value in table.items():
            data = value.data if kind == "param" else value
            raw = np.ascontiguousarray(data, dtype="<f4").tobytes()
            entries.append({"name": name, "kind": kind, "shape": list(data.shape), "offset": offset, "nbytes": len(raw)})
            blobs.append(raw)
            offset += len(raw)
    manifest = {
        "format": _FORMAT,
        "version": _VERSION,
        "policy": asdict(params.config),
        "epoch": epoch,
        "metrics": metrics,
        "tensors": entries,
    }
    _write_container(path, manifest, blobs)


def load_checkpoint(path) -> tuple[PolicyParams, dict]:
    """Inverse of :func:`save_checkpoint`; returns float32 params and the manifest.

    A corrupt file raises ``DataError``: an unreadable manifest, a wrong
    format or version, a ``policy`` entry that is not a valid
    :class:`PolicyConfig`, or a tensor table that does not list exactly
    the tensors of ``PolicyParams.init(config)``, each once, with its
    kind and shape and a byte range inside the body.
    """
    manifest, body = _read_container(path, _FORMAT, _VERSION, "checkpoint manifest")
    config = _checkpoint_config(manifest.get("policy"), len(body))
    reference = PolicyParams.init(config)
    expected = {name: ("param", t.data.shape) for name, t in reference.tensors.items()}
    expected.update((name, ("buffer", b.shape)) for name, b in reference.buffers.items())
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise DataError("checkpoint manifest 'tensors' must be a list")
    tensors: dict[str, Tensor] = {}
    buffers: dict[str, np.ndarray] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise DataError("checkpoint tensor entries must be JSON objects")
        name = entry.get("name")
        if not isinstance(name, str) or name not in expected:
            raise DataError(f"checkpoint holds unknown tensor {name!r}")
        if name in tensors or name in buffers:
            raise DataError(f"checkpoint lists tensor {name!r} twice")
        kind, shape = expected[name]
        if entry.get("kind") != kind or entry.get("shape") != list(shape):
            raise DataError(
                f"checkpoint tensor {name!r} is {entry.get('kind')!r} {entry.get('shape')!r},"
                f" expected {kind!r} {list(shape)!r}"
            )
        lo = _header_size(entry.get("offset"), f"checkpoint tensor {name!r} offset")
        nbytes = _header_size(entry.get("nbytes"), f"checkpoint tensor {name!r} nbytes")
        if nbytes != 4 * math.prod(shape):
            raise DataError(f"checkpoint tensor {name!r} has {nbytes} bytes for shape {list(shape)}")
        if lo + nbytes > len(body):
            raise DataError("checkpoint body is shorter than the manifest claims")
        data = np.frombuffer(body[lo : lo + nbytes], dtype="<f4").astype(np.float32).reshape(shape)
        if kind == "param":
            tensors[name] = Tensor(data, requires_grad=True)
        else:
            buffers[name] = data
    missing = sorted(set(expected).difference(tensors, buffers))
    if missing:
        raise DataError(f"checkpoint lacks tensors {missing}")
    return PolicyParams(config, tensors, buffers), manifest


def _checkpoint_config(policy, body_bytes: int) -> PolicyConfig:
    """The manifest's architecture, checked before any tensor is allocated.

    Every architecture stores w_h (d, m), mha_wq (d, 3d) and five (d, d)
    weights per layer, so a body too short for them is rejected before
    ``PolicyParams.init`` would allocate a corrupt header's sizes. Older
    checkpoints record ``"scale_features": false``, which is dropped; a
    true value is rejected, since features are no longer scaled.
    """
    if not isinstance(policy, dict):
        raise DataError("checkpoint manifest 'policy' must be a JSON object")
    policy = dict(policy)
    if policy.pop("scale_features", False) is not False:
        raise DataError("checkpoint policy scales its features, which this version does not support")
    try:
        config = PolicyConfig(**policy)
    except (TypeError, ValidationError) as exc:
        raise DataError(f"invalid checkpoint policy: {exc}") from exc
    d, m, layers = config.hidden_dim, config.machines, config.layers
    if any(type(v) is not int for v in (d, m, layers, config.heads)):
        raise DataError("checkpoint policy machines, hidden_dim, layers and heads must be integers")
    if 4 * d * (m + 3 * d + 5 * d * layers) > body_bytes:
        raise DataError("checkpoint body is shorter than its architecture needs")
    return config
