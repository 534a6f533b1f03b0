"""Makespan semantics: recurrence, batched evaluation, gaps, and their invariants."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowshop.core import (
    _BLOCK_ROWS,
    Instance,
    completion_times,
    gap_percent,
    makespan,
    makespan_batch,
    validate_permutation,
)
from flowshop.errors import ValidationError
from flowshop.exact import _lex_permutations

from conftest import FROZEN_3X4, REL_TOL, oracle_completion, oracle_makespan, random_instance


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

    @pytest.mark.parametrize(
        "perm, message",
        [
            ([0, 5, 1, 1], "job index 5 out of range [0, 4)"),
            ([0, 1, 1, 5], "duplicate job index 1 in permutation"),
            ([2, -1, 2, 0], "job index -1 out of range [0, 4)"),
            (np.array([3, 3, -2, 0]), "duplicate job index 3 in permutation"),
        ],
    )
    def test_first_offender_names_the_error(self, perm, message):
        # the vectorised check decides, the element loop words the first offender
        with pytest.raises(ValidationError) as err:
            validate_permutation(perm, 4)
        assert str(err.value) == message

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64, np.float64])
    def test_valid_any_numeric_dtype_returns_owned_int64(self, dtype):
        perm = np.array([3, 0, 2, 1], dtype=dtype)
        out = validate_permutation(perm, 4)
        assert out.dtype == np.int64 and list(out) == [3, 0, 2, 1]
        assert not np.shares_memory(out, perm)


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
        assert np.allclose(c, oracle_completion(FROZEN_3X4, perm), rtol=REL_TOL, atol=0)
        # in hundredths every sum is an integer, so the scan matches to the bit
        cents = np.round(FROZEN_3X4 * 100)
        assert np.array_equal(completion_times(Instance(cents), perm), oracle_completion(cents, perm))

    def test_bit_identical_to_oracle_on_gamma_floats(self, rng):
        # the scan re-associates float sums: Gamma times agree within REL_TOL,
        # the same draws scaled by 10 and floored to integers agree to the bit
        for _ in range(50):
            inst = random_instance(rng, n=int(rng.integers(1, 12)), m=int(rng.integers(1, 7)))
            perm = rng.permutation(inst.n)
            expected = oracle_completion(inst.times, perm)
            assert np.allclose(completion_times(inst, perm), expected, rtol=REL_TOL, atol=0)
            whole = np.floor(inst.times * 10)
            got = completion_times(Instance(whole), perm)
            assert np.array_equal(got, oracle_completion(whole, perm))

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
        whole = Instance(np.floor(inst.times * 10))
        for perm in itertools.permutations(range(4)):
            assert makespan(inst, perm) == pytest.approx(oracle_makespan(inst.times, perm), rel=REL_TOL)
            assert makespan(whole, perm) == oracle_makespan(whole.times, perm)

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
        # the batch runs the recurrence cell by cell, the scalar path the scan:
        # equal within REL_TOL on float times, to the bit on integer times
        inst = random_instance(rng, n=6, m=4)
        perms = np.array([rng.permutation(6) for _ in range(40)])
        batch = makespan_batch(inst, perms)
        scalar = [makespan(inst, p) for p in perms]
        assert np.allclose(batch, scalar, rtol=REL_TOL, atol=0)
        whole = Instance(np.floor(inst.times * 10))
        assert np.array_equal(makespan_batch(whole, perms), [makespan(whole, p) for p in perms])

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

    @pytest.mark.parametrize("shape", [(3,), (2, 1, 3), ()])
    def test_not_a_matrix_rejected(self, rng, shape):
        # a single permutation or a 3-D block is a ValidationError, not an unpacking error
        inst = random_instance(rng, n=3, m=2)
        with pytest.raises(ValidationError, match="matrix"):
            makespan_batch(inst, np.zeros(shape, dtype=np.int64))

    def test_float_rows_rejected(self, rng):
        inst = random_instance(rng, n=4, m=2)
        with pytest.raises(ValidationError, match="integer"):
            makespan_batch(inst, np.array([[0.0, 1.0, 2.0, 3.0]]))

    def test_out_of_range_index_raises_index_error(self, rng):
        # rows are not validated as permutations, but every index is bounds-checked
        inst = random_instance(rng, n=4, m=2)
        with pytest.raises(IndexError):
            makespan_batch(inst, np.array([[0, 1, 2, 4]]))

    def test_negative_index_raises_index_error(self, rng):
        # a negative index must not wrap around to the last job
        inst = random_instance(rng, n=3, m=2)
        with pytest.raises(IndexError):
            makespan_batch(inst, np.array([[0, 1, -1]]))

    @pytest.mark.parametrize("dtype, m", [(np.uint8, 3), (np.int32, 3), (np.int64, 1)])
    def test_row_dtypes_and_single_machine_match_oracle(self, rng, dtype, m):
        inst = random_instance(rng, n=7, m=m)
        perms = np.array([rng.permutation(7) for _ in range(30)], dtype=dtype)
        expected = [oracle_makespan(inst.times, p) for p in perms]
        assert np.array_equal(makespan_batch(inst, perms), expected)

    def test_no_rows(self, rng):
        inst = random_instance(rng, n=5, m=3)
        out = makespan_batch(inst, np.empty((0, 5), dtype=np.int64))
        assert out.shape == (0,)

    def test_tie_heavy_integer_times_match_oracle(self, rng):
        for _ in range(10):
            inst = Instance(rng.integers(0, 3, (int(rng.integers(1, 6)), 6)).astype(float))
            perms = np.array(list(itertools.permutations(range(6))))
            expected = [oracle_makespan(inst.times, p) for p in perms]
            assert np.array_equal(makespan_batch(inst, perms), expected)

    @pytest.mark.parametrize("rows", [2 * _BLOCK_ROWS + 37, _BLOCK_ROWS, 1, 0])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("times", ["gamma", "ties"])
    def test_blocks_match_oracle_row_by_row(self, rng, rows, dtype, times):
        # ragged last block, exactly one block, one row, no rows: each row bit-identical
        m, n = 3, 4
        x = rng.gamma(1.0, 2.0, (m, n)) if times == "gamma" else rng.integers(0, 3, (m, n))
        inst = Instance(x.astype(float))
        perms = np.array([rng.permutation(n) for _ in range(rows)], dtype=dtype).reshape(rows, n)
        got = makespan_batch(inst, perms)
        assert got.shape == (rows,)
        cache = {p: oracle_makespan(inst.times, p) for p in itertools.permutations(range(n))}
        assert np.array_equal(got, [cache[tuple(p)] for p in perms.tolist()])

    def test_peak_memory_below_one_full_front(self, rng):
        # blocks keep the working set small: one 8!-row call at m=5 peaks below
        # the 1.6 MB a single (m, P) float64 front over all rows would take
        inst = random_instance(rng, n=8, m=5)
        perms = _lex_permutations(8)
        tracemalloc.start()
        try:
            makespan_batch(inst, perms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * len(perms) * 8


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
