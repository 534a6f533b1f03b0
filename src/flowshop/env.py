"""Sequential job-selection MDP and expert-trace recording.

An episode schedules the n jobs one at a time: the state is the ordered
list of already scheduled jobs, an action picks an unscheduled job, and
masking forbids re-selection. There is no reward signal; makespans are
computed after the fact by the core module. Expert traces store only the
action sequence (states are reconstructed by replay), so a large trace
corpus stays small on disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Instance, validate_permutation
from .errors import DataError, ValidationError
from .heuristics import neh
from .instances import _header_size, _read_container, _write_container

__all__ = [
    "ScheduleState",
    "ExpertTrace",
    "reset",
    "step",
    "mask",
    "record_expert_traces",
    "save_traces",
    "load_traces",
]

_FORMAT = "flowshop-traces"
_VERSION = 1


@dataclass(frozen=True)
class ScheduleState:
    """Immutable snapshot: the scheduled prefix; everything else derives from it."""

    instance: Instance
    scheduled: tuple[int, ...] = ()

    @property
    def t(self) -> int:
        return len(self.scheduled)

    @property
    def done(self) -> bool:
        return self.t == self.instance.n

    @property
    def unscheduled(self) -> frozenset[int]:
        return frozenset(range(self.instance.n)).difference(self.scheduled)


def reset(inst: Instance) -> ScheduleState:
    """Initial state: nothing scheduled, every job available."""
    return ScheduleState(inst)


def step(state: ScheduleState, action: int) -> ScheduleState:
    """Schedule ``action`` next; raises on masked (already scheduled) actions."""
    action = int(action)
    if action < 0 or action >= state.instance.n:
        raise ValidationError(f"action {action} out of range [0, {state.instance.n})")
    if action in state.scheduled:
        raise ValidationError(f"masked-action violation: job {action} is already scheduled")
    return ScheduleState(state.instance, state.scheduled + (action,))


def mask(state: ScheduleState) -> np.ndarray:
    """Boolean availability vector: true exactly on the unscheduled jobs."""
    out = np.ones(state.instance.n, dtype=bool)
    out[list(state.scheduled)] = False
    return out


@dataclass(frozen=True)
class ExpertTrace:
    """One expert episode: the instance plus the action at every step.

    State snapshots are not stored; replaying the actions through
    :func:`step` reconstructs them.
    """

    instance: Instance
    actions: tuple[int, ...]

    def __post_init__(self):
        validate_permutation(np.array(self.actions), self.instance.n)


def record_expert_traces(
    instances: list[Instance],
    expert: Callable[[Instance], tuple[np.ndarray, float]] = neh,
) -> list[ExpertTrace]:
    """Run the expert on every instance and keep its action sequences.

    The expert returns (permutation, makespan); the permutation is
    validated before it becomes a trace, so a broken expert fails loudly
    instead of poisoning the dataset.
    """
    traces = []
    for inst in instances:
        perm, _ = expert(inst)
        order = validate_permutation(perm, inst.n)
        traces.append(ExpertTrace(inst, tuple(int(a) for a in order)))
    return traces


def save_traces(path, traces: list[ExpertTrace]) -> None:
    """JSON header (version, per-trace instance names and lengths) + uint32 actions."""
    header = {
        "format": _FORMAT,
        "version": _VERSION,
        "count": len(traces),
        "instances": [t.instance.name for t in traces],
        "lengths": [len(t.actions) for t in traces],
    }
    _write_container(path, header, (np.asarray(t.actions, dtype="<u4").tobytes() for t in traces))


def load_traces(path, instances: list[Instance]) -> list[ExpertTrace]:
    """Rebind stored action sequences to their instances (given in save order).

    The header must be a JSON object with the format tag and version, a
    ``count``, and ``instances`` and ``lengths`` lists of that size whose
    lengths are non-negative integers; anything else raises ``DataError``.
    """
    header, body = _read_container(path, _FORMAT, _VERSION, "trace header")
    count = _header_size(header.get("count"), "trace header count")
    names, lengths = header.get("instances"), header.get("lengths")
    if not isinstance(names, list) or not isinstance(lengths, list):
        raise DataError("trace header 'instances' and 'lengths' must be lists")
    if not count == len(names) == len(lengths):
        raise DataError("trace header count disagrees with the instance and length lists")
    lengths = [_header_size(v, f"trace header length {k}") for k, v in enumerate(lengths)]
    if len(instances) != count:
        raise DataError(f"trace file holds {count} traces, got {len(instances)} instances")
    expected = sum(lengths) * 4
    if len(body) != expected:
        raise DataError(f"trace body has {len(body)} bytes, expected {expected}")
    actions = np.frombuffer(body, dtype="<u4")
    out = []
    offset = 0
    for inst, name, length in zip(instances, names, lengths):
        if inst.name and name and inst.name != name:
            raise DataError(f"trace/instance name mismatch: {name!r} vs {inst.name!r}")
        out.append(ExpertTrace(inst, tuple(int(a) for a in actions[offset : offset + length])))
        offset += length
    return out
