"""Sequential job-selection MDP and expert-trace recording.

An episode schedules the n jobs one at a time: the state is the ordered
list of already scheduled jobs plus the set of still unscheduled ones,
an action picks an unscheduled job, and masking forbids re-selection.
There is no reward signal; makespans are computed after the fact by the
core module. Expert traces store only the action sequence (states are
reconstructed by replay), so a large trace corpus stays small on disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .core import Instance, validate_permutation
from .errors import DataError, ValidationError
from .heuristics import neh
from .instances import _header_size

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
    """Immutable snapshot: scheduled prefix, unscheduled set, step counter."""

    instance: Instance
    scheduled: tuple[int, ...] = ()
    unscheduled: frozenset[int] = field(default_factory=frozenset)

    @property
    def t(self) -> int:
        return len(self.scheduled)

    @property
    def done(self) -> bool:
        return not self.unscheduled


def reset(inst: Instance) -> ScheduleState:
    """Initial state: nothing scheduled, every job available."""
    return ScheduleState(inst, (), frozenset(range(inst.n)))


def step(state: ScheduleState, action: int) -> ScheduleState:
    """Schedule ``action`` next; raises on masked (already scheduled) actions."""
    action = int(action)
    if action < 0 or action >= state.instance.n:
        raise ValidationError(f"action {action} out of range [0, {state.instance.n})")
    if action not in state.unscheduled:
        raise ValidationError(f"masked-action violation: job {action} is already scheduled")
    return ScheduleState(
        state.instance,
        state.scheduled + (action,),
        state.unscheduled - {action},
    )


def mask(state: ScheduleState) -> np.ndarray:
    """Boolean availability vector: true exactly on the unscheduled jobs."""
    out = np.zeros(state.instance.n, dtype=bool)
    for j in state.unscheduled:
        out[j] = True
    return out


@dataclass(frozen=True)
class ExpertTrace:
    """One expert episode: the instance plus the action at every step.

    State snapshots are not stored; :meth:`pairs` replays the actions to
    materialize the (state, action) sequence on demand.
    """

    instance: Instance
    actions: tuple[int, ...]

    def __post_init__(self):
        validate_permutation(np.array(self.actions), self.instance.n)

    def pairs(self) -> Iterator[tuple[ScheduleState, int]]:
        state = reset(self.instance)
        for action in self.actions:
            yield state, action
            state = step(state, action)

    def final_state(self) -> ScheduleState:
        state = reset(self.instance)
        for action in self.actions:
            state = step(state, action)
        return state


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
        result = expert(inst)
        perm = result[0] if isinstance(result, tuple) else result
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
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for t in traces:
            fh.write(np.asarray(t.actions, dtype="<u4").tobytes())


def load_traces(path, instances: list[Instance]) -> list[ExpertTrace]:
    """Rebind stored action sequences to their instances (given in save order).

    The header must be a JSON object with the format tag and version, a
    ``count``, and ``instances`` and ``lengths`` lists of that size whose
    lengths are non-negative integers; anything else raises ``DataError``.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        body = fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"unreadable trace header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError("trace header must be a JSON object")
    if header.get("format") != _FORMAT:
        raise DataError(f"not a {_FORMAT} file")
    if header.get("version") != _VERSION:
        raise DataError(f"unsupported trace version {header.get('version')!r}")
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
