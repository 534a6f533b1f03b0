"""Makespan semantics: recurrence, batched evaluation, gaps, and their invariants."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowshop.core import (
    Instance,
    completion_times,
    gap_percent,
    makespan,
    makespan_batch,
    validate_permutation,
)
from flowshop.errors import ValidationError

from conftest import FROZEN_3X4, oracle_completion, oracle_makespan, random_instance


class TestInstance:
    def test_rejects_negative_times(self):
        with pytest.raises(ValidationError):
            Instance([[1.0, -0.5]])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            Instance(np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            Instance(np.zeros(4))

    def test_zeros_allowed(self):
        inst = Instance(np.zeros((2, 3)))
        assert inst.m == 2 and inst.n == 3

    def test_times_are_read_only(self):
        inst = Instance([[1.0, 2.0]])
        with pytest.raises(ValueError):
            inst.times[0, 0] = 5.0


class TestValidatePermutation:
    def test_valid(self):
        out = validate_permutation([2, 0, 1], 3)
        assert list(out) == [2, 0, 1]

    @pytest.mark.parametrize("perm", [[0, 1], [0, 1, 1], [0, 1, 3], [-1, 0, 1]])
    def test_invalid(self, perm):
        with pytest.raises(ValidationError):
            validate_permutation(perm, 3)


class TestCompletionTimes:
    def test_single_machine_sums(self):
        inst = Instance([[2.0, 3.0, 4.0]])
        c = completion_times(inst, [2, 0, 1])
        assert np.array_equal(c, [[4.0, 6.0, 9.0]])
        assert makespan(inst, [2, 0, 1]) == 9.0

    def test_single_job_chain(self):
        inst = Instance([[1.0], [2.0], [3.0]])
        c = completion_times(inst, [0])
        assert np.array_equal(c.ravel(), [1.0, 3.0, 6.0])
        assert makespan(inst, [0]) == 6.0

    def test_frozen_3x4_against_oracle(self, frozen_3x4):
        # expected matrix computed by the cell-by-cell oracle and frozen
        expected = np.array(
            [
                [4.77, 9.58, 10.14, 14.81],
                [7.59, 9.75, 16.39, 19.30],
                [7.73, 9.91, 18.57, 21.39],
            ]
        )
        perm = [2, 0, 3, 1]
        c = completion_times(frozen_3x4, perm)
        assert np.allclose(c, expected, atol=1e-12)
        assert np.array_equal(c, oracle_completion(FROZEN_3X4, perm))

    def test_bit_identical_to_oracle_on_gamma_floats(self, rng):
        # one max and one float64 add per cell, in the oracle's order
        for _ in range(50):
            inst = random_instance(rng, n=int(rng.integers(1, 12)), m=int(rng.integers(1, 7)))
            perm = rng.permutation(inst.n)
            assert np.array_equal(completion_times(inst, perm), oracle_completion(inst.times, perm))

    def test_invalid_permutation_rejected(self, frozen_3x4):
        with pytest.raises(ValidationError):
            completion_times(frozen_3x4, [0, 1, 2])
        with pytest.raises(ValidationError):
            completion_times(frozen_3x4, [0, 1, 2, 2])

    def test_row_and_column_monotonicity(self, rng):
        for _ in range(50):
            inst = random_instance(rng, n=int(rng.integers(2, 9)), m=int(rng.integers(2, 6)))
            c = completion_times(inst, rng.permutation(inst.n))
            assert (np.diff(c, axis=0) >= 0).all()
            assert (np.diff(c, axis=1) >= 0).all()


class TestMakespan:
    def test_zero_matrix(self):
        inst = Instance(np.zeros((3, 5)))
        assert makespan(inst, np.arange(5)) == 0.0

    def test_single_machine_order_independent(self, rng):
        inst = Instance(rng.gamma(1, 2, (1, 6)))
        total = inst.times.sum()
        for _ in range(5):
            assert np.isclose(makespan(inst, rng.permutation(6)), total)

    def test_all_permutations_match_oracle_4x3(self, rng):
        inst = random_instance(rng, n=4, m=3)
        for perm in itertools.permutations(range(4)):
            assert makespan(inst, perm) == oracle_makespan(inst.times, perm)

    def test_equals_completion_corner(self, frozen_3x4):
        perm = [3, 1, 0, 2]
        assert makespan(frozen_3x4, perm) == completion_times(frozen_3x4, perm)[-1, -1]

    def test_identical_jobs_permutation_invariant(self, rng):
        col = rng.gamma(1, 2, 4)
        inst = Instance(np.tile(col[:, None], (1, 5)))
        values = {makespan(inst, rng.permutation(5)) for _ in range(10)}
        assert len(values) == 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_any_entry(self, seed):
        r = np.random.Generator(np.random.PCG64(seed))
        n, m = int(r.integers(2, 7)), int(r.integers(2, 5))
        times = r.gamma(1, 2, (m, n))
        perm = r.permutation(n)
        base = makespan(Instance(times), perm)
        bumped = times.copy()
        i, j = int(r.integers(0, m)), int(r.integers(0, n))
        bumped[i, j] += r.uniform(0.1, 3.0)
        assert makespan(Instance(bumped), perm) >= base - 1e-12


class TestMakespanBatch:
    def test_matches_scalar(self, rng):
        inst = random_instance(rng, n=6, m=4)
        perms = np.array([rng.permutation(6) for _ in range(40)])
        batch = makespan_batch(inst, perms)
        scalar = [makespan(inst, p) for p in perms]
        assert np.array_equal(batch, scalar)

    def test_bit_identical_to_oracle_on_gamma_floats(self, rng):
        for _ in range(20):
            inst = random_instance(rng, n=int(rng.integers(1, 10)), m=int(rng.integers(1, 7)))
            perms = np.array([rng.permutation(inst.n) for _ in range(16)])
            expected = [oracle_makespan(inst.times, p) for p in perms]
            assert np.array_equal(makespan_batch(inst, perms), expected)

    def test_shape_mismatch(self, rng):
        inst = random_instance(rng, n=6, m=4)
        with pytest.raises(ValidationError):
            makespan_batch(inst, np.zeros((3, 5), dtype=np.int64))

    def test_float_rows_rejected(self, rng):
        inst = random_instance(rng, n=4, m=2)
        with pytest.raises(ValidationError, match="integer"):
            makespan_batch(inst, np.array([[0.0, 1.0, 2.0, 3.0]]))

    def test_out_of_range_index_raises_index_error(self, rng):
        # rows are not validated; numpy's bounds check still applies
        inst = random_instance(rng, n=4, m=2)
        with pytest.raises(IndexError):
            makespan_batch(inst, np.array([[0, 1, 2, 4]]))


class TestGapPercent:
    def test_expert_zero_gap(self):
        assert gap_percent(170.1, 170.1) == 0.0

    def test_reported_row_value(self):
        # 172.9 vs 170.1 corresponds to ~1.65% for this pair
        assert gap_percent(172.9, 170.1) == pytest.approx(1.6461, abs=1e-3)

    def test_negative_when_beating_expert(self):
        assert gap_percent(100.0, 200.0) == -50.0

    def test_zero_expert_undefined(self):
        with pytest.raises(ValidationError):
            gap_percent(1.0, 0.0)
