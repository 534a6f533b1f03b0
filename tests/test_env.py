"""MDP state transitions, masking, and expert-trace recording/persistence."""

import numpy as np
import pytest

from flowshop.core import Instance
from flowshop.env import (
    ExpertTrace,
    ScheduleState,
    load_traces,
    mask,
    record_expert_traces,
    reset,
    save_traces,
    step,
)
from flowshop.errors import DataError, ValidationError
from flowshop.heuristics import neh
from flowshop.instances import DatasetSpec, generate

from conftest import random_instance
from test_instances import rewrite_dataset_header


def _string_length(header):
    header["lengths"][0] = "4"
    return header


def _drop_instances(header):
    del header["instances"]
    return header


# Trace-file header corruptions that once escaped as AttributeError,
# TypeError and KeyError; each must be a DataError (CLI exit code 2).
TRACE_HEADER_CORRUPTIONS = {
    "header_is_list": lambda header: [header],
    "string_length": _string_length,
    "without_instances": _drop_instances,
}


class TestResetStepMask:
    def test_reset(self, rng):
        inst = random_instance(rng, n=4, m=2)
        state = reset(inst)
        assert state.t == 0
        assert state.scheduled == ()
        assert state.unscheduled == frozenset(range(4))
        assert mask(state).all()

    def test_default_state_is_initial(self, rng):
        inst = random_instance(rng, n=4, m=2)
        state = ScheduleState(inst)
        assert state == reset(inst)
        assert not state.done
        assert mask(state).all()

    def test_reset_single_job(self):
        inst = Instance(np.array([[1.0]]))
        assert reset(inst).unscheduled == {0}

    def test_step_sequence_matches_figure_ordering(self, rng):
        # scheduling 4 jobs via actions 3,0,1,2 yields that permutation
        inst = random_instance(rng, n=4, m=3)
        state = reset(inst)
        for action in (3, 0, 1, 2):
            state = step(state, action)
        assert state.scheduled == (3, 0, 1, 2)
        assert state.unscheduled == frozenset()
        assert state.done

    def test_step_rejects_scheduled_job(self, rng):
        inst = random_instance(rng, n=3, m=2)
        state = step(reset(inst), 1)
        with pytest.raises(ValidationError, match="masked-action"):
            step(state, 1)

    def test_step_rejects_out_of_range(self, rng):
        inst = random_instance(rng, n=3, m=2)
        with pytest.raises(ValidationError):
            step(reset(inst), 3)

    def test_single_job_terminal(self):
        inst = Instance(np.array([[2.0]]))
        state = step(reset(inst), 0)
        assert state.done and state.t == 1
        assert not mask(state).any()

    def test_mask_matches_unscheduled(self, rng):
        inst = random_instance(rng, n=4, m=2)
        state = step(step(reset(inst), 1), 3)
        assert list(mask(state)) == [True, False, True, False]


class TestExpertTrace:
    def test_validates_actions(self, rng):
        inst = random_instance(rng, n=3, m=2)
        with pytest.raises(ValidationError):
            ExpertTrace(inst, (0, 0, 1))

    def test_record_identical_jobs_gives_identity(self):
        inst = Instance(np.tile(np.array([[2.0], [1.0]]), (1, 5)))
        trace = record_expert_traces([inst])[0]
        assert trace.actions == (0, 1, 2, 3, 4)

    def test_record_single_job(self):
        inst = Instance(np.array([[3.0]]))
        trace = record_expert_traces([inst])[0]
        assert trace.actions == (0,)

    def test_record_matches_expert(self, rng):
        insts = [random_instance(rng, n=6, m=3) for _ in range(4)]
        traces = record_expert_traces(insts)
        for inst, trace in zip(insts, traces):
            assert tuple(int(v) for v in neh(inst)[0]) == trace.actions

    def test_record_rejects_broken_expert(self, rng):
        inst = random_instance(rng, n=4, m=2)

        def broken(instance):
            return np.array([0, 0, 1, 2]), 0.0

        with pytest.raises(ValidationError):
            record_expert_traces([inst], expert=broken)

    def test_record_rejects_fractional_expert(self, rng):
        # checked before the actions become ints, which would read 1.5 as a valid 1
        inst = random_instance(rng, n=4, m=2)
        with pytest.raises(ValidationError, match="integers"):
            record_expert_traces([inst], expert=lambda instance: (np.array([0.0, 1.5, 2.0, 3.0]), 0.0))

    def test_corpus_shape(self):
        insts = generate(DatasetSpec(count=16, jobs=20, machines=5, seed=8))
        traces = record_expert_traces(insts)
        assert len(traces) == 16
        assert all(len(t.actions) == 20 for t in traces)


class TestTraceIO:
    def test_round_trip(self, tmp_path, rng):
        insts = generate(DatasetSpec(count=6, jobs=7, machines=3, seed=12))
        traces = record_expert_traces(insts)
        path = tmp_path / "traces.fst"
        save_traces(path, traces)
        back = load_traces(path, insts)
        for a, b in zip(traces, back):
            assert a.actions == b.actions
            assert a.instance is b.instance

    def test_instance_count_mismatch(self, tmp_path):
        insts = generate(DatasetSpec(count=3, jobs=5, machines=2, seed=1))
        save_traces(tmp_path / "t.fst", record_expert_traces(insts))
        with pytest.raises(DataError):
            load_traces(tmp_path / "t.fst", insts[:2])

    def test_name_mismatch(self, tmp_path):
        insts = generate(DatasetSpec(count=2, jobs=4, machines=2, seed=2))
        save_traces(tmp_path / "t.fst", record_expert_traces(insts))
        other = generate(DatasetSpec(count=2, jobs=4, machines=2, seed=3))
        with pytest.raises(DataError, match="name mismatch"):
            load_traces(tmp_path / "t.fst", other)

    @pytest.mark.parametrize("corrupt", TRACE_HEADER_CORRUPTIONS.values(), ids=TRACE_HEADER_CORRUPTIONS.keys())
    def test_malformed_header_is_data_error(self, tmp_path, corrupt):
        insts = generate(DatasetSpec(count=2, jobs=4, machines=2, seed=2))
        path = tmp_path / "t.fst"
        save_traces(path, record_expert_traces(insts))
        rewrite_dataset_header(path, corrupt)
        with pytest.raises(DataError, match="trace header"):
            load_traces(path, insts)

    def test_truncated_body(self, tmp_path):
        insts = generate(DatasetSpec(count=2, jobs=4, machines=2, seed=2))
        path = tmp_path / "t.fst"
        save_traces(path, record_expert_traces(insts))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError, match="body"):
            load_traces(path, insts)
