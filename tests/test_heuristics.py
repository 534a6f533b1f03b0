"""Baseline solvers: NEH, random search, insertion descent, ILS, IG."""

import numpy as np
import pytest

from flowshop.core import Instance, makespan
from flowshop.errors import ValidationError
from flowshop.exact import brute_force
from flowshop.heuristics import (
    HeuristicBudget,
    insertion_makespans,
    iterated_greedy,
    iterated_local_search,
    local_search_insert,
    neh,
    random_search,
)
from flowshop.instances import DatasetSpec, generate

from conftest import REL_TOL, oracle_makespan, random_instance


# NEH on Gamma(1, 2) 10x50 instances drawn from PCG64(seed), captured under
# the written tie rule: insertion makespans within REL_TOL relative of the
# minimum tie and NEH keeps the latest tying position. Rounding in the last
# bits therefore no longer picks the sequence, and a change that only
# re-rounds the recurrence keeps it; re-capture only with a deliberate
# change of the tie rule or of NEH itself. Values are pinned within REL_TOL.
NEH_GOLDEN_50X10 = [
    (
        1000,
        [40, 41, 42, 16, 25, 22, 15, 1, 13, 30, 6, 31, 8, 2, 20, 4, 28, 23, 27, 0, 9, 37, 38, 14, 3, 33, 44, 21, 7, 12, 39, 24, 43, 5, 35, 32, 48, 11, 17, 26, 49, 34, 46, 36, 47, 18, 29, 45, 19, 10],
        125.85205928633954,
    ),
    (
        1001,
        [1, 4, 49, 43, 10, 11, 2, 37, 23, 17, 12, 48, 47, 14, 5, 19, 46, 16, 6, 45, 29, 35, 44, 31, 25, 21, 13, 34, 7, 8, 32, 3, 28, 18, 9, 41, 36, 26, 20, 22, 15, 24, 40, 27, 39, 33, 0, 42, 30, 38],
        136.44959667346583,
    ),
    (
        1002,
        [11, 49, 0, 45, 18, 23, 38, 2, 16, 47, 15, 24, 25, 41, 46, 44, 35, 37, 22, 19, 20, 39, 28, 13, 8, 43, 30, 9, 10, 48, 31, 3, 32, 17, 12, 42, 27, 1, 14, 7, 5, 4, 6, 34, 21, 40, 33, 29, 36, 26],
        131.50879251341843,
    ),
    (
        1003,
        [1, 18, 26, 37, 16, 11, 7, 6, 34, 33, 36, 42, 5, 20, 39, 3, 40, 8, 10, 27, 0, 21, 2, 44, 22, 12, 17, 25, 13, 14, 45, 19, 43, 41, 9, 48, 4, 28, 49, 31, 47, 29, 15, 46, 35, 30, 38, 23, 24, 32],
        145.81447322524076,
    ),
    (
        1004,
        [8, 34, 14, 22, 36, 49, 2, 26, 44, 40, 15, 24, 47, 10, 41, 37, 35, 3, 16, 27, 39, 19, 31, 0, 29, 11, 4, 33, 30, 6, 48, 5, 12, 9, 25, 43, 13, 21, 45, 46, 17, 38, 28, 23, 32, 18, 20, 42, 1, 7],
        127.57887509680937,
    ),
]


def identical_jobs_instance(n=5, m=3):
    col = np.array([2.0, 1.0, 3.0])[:m]
    return Instance(np.tile(col[:, None], (1, n)))


class TestBudget:
    def test_needs_some_limit(self):
        with pytest.raises(ValidationError):
            HeuristicBudget()

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            HeuristicBudget(max_iterations=-1)
        with pytest.raises(ValidationError):
            HeuristicBudget(max_time=0.0)

    @pytest.mark.parametrize("value", [2.5, 2.0, "x", True])
    def test_non_integer_iterations_rejected(self, value):
        with pytest.raises(ValidationError, match="max_iterations must be an integer"):
            HeuristicBudget(max_iterations=value)

    @pytest.mark.parametrize("value", ["x", True, float("nan"), float("inf")])
    def test_non_numeric_time_rejected(self, value):
        with pytest.raises(ValidationError, match="max_time must be a positive number"):
            HeuristicBudget(max_time=value)


class TestInsertionMakespans:
    def test_matches_naive_scan(self, rng):
        # front/tail acceleration equals full re-evaluation at every position
        for _ in range(30):
            inst = random_instance(rng, n=int(rng.integers(2, 9)), m=int(rng.integers(1, 6)))
            seq = list(rng.permutation(inst.n))
            job = seq.pop(int(rng.integers(0, inst.n)))
            fast = insertion_makespans(inst.times, seq, job)
            naive = [
                oracle_makespan(inst.times, seq[:pos] + [job] + seq[pos:])
                for pos in range(len(seq) + 1)
            ]
            assert np.allclose(fast, naive, atol=1e-9)

    def test_empty_sequence(self):
        inst = Instance(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(insertion_makespans(inst.times, [], 1), [6.0])

    def test_integer_times_equal_oracle_exactly(self, rng):
        # integer-valued sums are exact, so every position must match to the bit
        for _ in range(30):
            n, m = int(rng.integers(1, 10)), int(rng.integers(1, 6))
            times = rng.integers(0, 100, (m, n)).astype(np.float64)
            seq = list(rng.permutation(n))
            job = seq.pop(int(rng.integers(0, n)))
            expected = [
                oracle_makespan(times, seq[:pos] + [job] + seq[pos:]) for pos in range(len(seq) + 1)
            ]
            assert np.array_equal(insertion_makespans(times, seq, job), expected)


class TestNeh:
    def test_identical_jobs_identity_order(self):
        perm, value = neh(identical_jobs_instance())
        assert list(perm) == [0, 1, 2, 3, 4]
        assert value == makespan(identical_jobs_instance(), perm)

    def test_single_machine_returns_phase1_order(self, rng):
        inst = Instance(rng.gamma(1, 2, (1, 5)))
        perm, value = neh(inst)
        totals = inst.times.sum(axis=0)
        assert list(perm) == sorted(range(5), key=lambda j: (-totals[j], j))
        assert value == pytest.approx(inst.times.sum())

    def test_single_job(self):
        inst = Instance(np.array([[2.0], [3.0]]))
        perm, value = neh(inst)
        assert list(perm) == [0] and value == 5.0

    def test_value_matches_makespan(self, rng):
        for _ in range(20):
            inst = random_instance(rng, n=int(rng.integers(2, 12)), m=int(rng.integers(1, 6)))
            perm, value = neh(inst)
            assert value == pytest.approx(makespan(inst, perm), abs=1e-9)

    def test_near_optimal_on_small_suite(self):
        # n <= 8: NEH never beats the optimum and stays within 5% on average
        suite = generate(DatasetSpec(count=40, jobs=8, machines=5, dist="gamma", seed=61))
        suite += generate(DatasetSpec(count=10, jobs=6, machines=3, dist="gamma", seed=62))
        gaps = []
        for inst in suite:
            _, opt = brute_force(inst)
            _, nv = neh(inst)
            assert nv >= opt - 1e-9
            gaps.append(100.0 * (nv - opt) / opt)
        assert np.mean(gaps) <= 5.0

    def test_insertion_chooses_best_position_each_step(self, rng):
        # replay phase 2 with an exhaustive per-step scan
        inst = random_instance(rng, n=9, m=4)
        totals = inst.times.sum(axis=0)
        order = np.lexsort((np.arange(inst.n), -totals))
        seq = [int(order[0])]
        for job in order[1:]:
            best = min(
                oracle_makespan(inst.times, seq[:pos] + [int(job)] + seq[pos:])
                for pos in range(len(seq) + 1)
            )
            ms = insertion_makespans(inst.times, seq, int(job))
            # the written tie rule: the latest position within REL_TOL of the minimum
            pos = max(k for k, v in enumerate(ms) if v <= min(ms) * (1 + REL_TOL))
            assert ms[pos] == pytest.approx(best, abs=1e-9)
            seq.insert(pos, int(job))
        perm, value = neh(inst)
        assert list(perm) == seq and value == pytest.approx(makespan(inst, seq))

    @pytest.mark.parametrize("seed, perm, value", NEH_GOLDEN_50X10)
    def test_golden_permutations_gamma_50x10(self, seed, perm, value):
        inst = Instance(np.random.Generator(np.random.PCG64(seed)).gamma(1.0, 2.0, (10, 50)))
        got, got_value = neh(inst)
        assert got.tolist() == perm
        assert got_value == pytest.approx(value, rel=REL_TOL)


class TestRandomSearch:
    def test_single_job(self):
        inst = Instance(np.array([[2.0], [3.0]]))
        perm, value = random_search(inst, HeuristicBudget(max_iterations=10, rng_seed=0))
        assert list(perm) == [0] and value == 5.0

    def test_identical_jobs(self):
        inst = identical_jobs_instance()
        _, value = random_search(inst, HeuristicBudget(max_iterations=5, rng_seed=1))
        assert value == pytest.approx(makespan(inst, np.arange(inst.n)))

    def test_deterministic_given_seed(self, rng):
        inst = random_instance(rng, n=8, m=4)
        a = random_search(inst, HeuristicBudget(max_iterations=300, rng_seed=9))
        b = random_search(inst, HeuristicBudget(max_iterations=300, rng_seed=9))
        assert list(a[0]) == list(b[0]) and a[1] == b[1]

    def test_zero_iterations_rejected(self, rng):
        inst = random_instance(rng, n=4, m=2)
        with pytest.raises(ValidationError):
            random_search(inst, HeuristicBudget(max_iterations=0))

    def test_close_to_optimum_with_generous_budget(self):
        # 10000 samples on n=6 lands within 2% of optimum on >= 95% of seeds
        suite = generate(DatasetSpec(count=10, jobs=6, machines=4, dist="gamma", seed=77))
        hits = total = 0
        for inst in suite:
            _, opt = brute_force(inst)
            for seed in range(5):
                _, value = random_search(inst, HeuristicBudget(max_iterations=10000, rng_seed=seed))
                total += 1
                hits += value <= opt * 1.02 + 1e-12
        assert hits / total >= 0.95

    def test_respects_time_budget(self, rng):
        import time

        inst = random_instance(rng, n=30, m=5)
        budget = HeuristicBudget(max_time=0.2, rng_seed=3)
        start = time.perf_counter()
        random_search(inst, budget)
        assert time.perf_counter() - start < 0.2 * 1.5 + 0.1


class TestLocalSearchInsert:
    def test_fixed_point_unchanged(self, rng):
        inst = random_instance(rng, n=7, m=4)
        perm, value = local_search_insert(inst, rng.permutation(7))
        again, value2 = local_search_insert(inst, perm)
        assert list(again) == list(perm) and value2 == pytest.approx(value, rel=REL_TOL)

    def test_single_machine_unchanged(self, rng):
        inst = Instance(rng.gamma(1, 2, (1, 6)))
        start = rng.permutation(6)
        perm, _ = local_search_insert(inst, start)
        assert list(perm) == list(start)

    def test_never_worse_and_locally_optimal(self, rng):
        for _ in range(10):
            inst = random_instance(rng, n=7, m=3)
            start = rng.permutation(7)
            perm, value = local_search_insert(inst, start)
            assert value <= makespan(inst, start) + 1e-12
            # exhaustive neighborhood scan: no single reinsertion improves
            seq = list(perm)
            for idx in range(7):
                rest = seq[:idx] + seq[idx + 1 :]
                for pos in range(7):
                    cand = rest[:pos] + [seq[idx]] + rest[pos:]
                    assert oracle_makespan(inst.times, cand) >= value - 1e-9

    def test_budget_truncation(self, rng):
        inst = random_instance(rng, n=10, m=4)
        start = rng.permutation(10)
        perm, value = local_search_insert(inst, start, HeuristicBudget(max_iterations=1))
        assert value <= makespan(inst, start) + 1e-12


class TestIteratedLocalSearch:
    def test_zero_outer_iterations_is_one_descent(self, rng):
        inst = random_instance(rng, n=8, m=3)
        budget = HeuristicBudget(max_iterations=0, rng_seed=5)
        perm, value = iterated_local_search(inst, budget)
        start = np.random.Generator(np.random.PCG64(5)).permutation(8)
        ref_perm, ref_value = local_search_insert(inst, start)
        assert list(perm) == list(ref_perm) and value == ref_value

    def test_identical_jobs(self):
        inst = identical_jobs_instance()
        _, value = iterated_local_search(inst, HeuristicBudget(max_iterations=3, rng_seed=0))
        assert value == pytest.approx(makespan(inst, np.arange(inst.n)))

    def test_beats_random_search_generously_budgeted(self):
        suite = generate(DatasetSpec(count=8, jobs=8, machines=5, dist="gamma", seed=88))
        ils_mean = np.mean(
            [iterated_local_search(i, HeuristicBudget(max_iterations=50, rng_seed=3))[1] for i in suite]
        )
        rs_mean = np.mean(
            [random_search(i, HeuristicBudget(max_iterations=1000, rng_seed=3))[1] for i in suite]
        )
        assert ils_mean <= rs_mean + 1e-9

    def test_deterministic(self, rng):
        inst = random_instance(rng, n=9, m=4)
        budget = HeuristicBudget(max_iterations=10, rng_seed=21)
        a = iterated_local_search(inst, budget)
        b = iterated_local_search(inst, budget)
        assert list(a[0]) == list(b[0]) and a[1] == b[1]


class TestIteratedGreedy:
    def test_neh_fixed_point_with_zero_temperature(self):
        # single machine: nothing improves, temperature 0 rejects all worsening
        inst = Instance(np.array([[3.0, 1.0, 2.0, 5.0]]))
        neh_perm, neh_value = neh(inst)
        budget = HeuristicBudget(max_iterations=1, rng_seed=0)
        perm, value = iterated_greedy(inst, budget, d_jobs=2, acceptance_temperature=0.0, init="neh")
        assert value == neh_value

    def test_single_machine_equals_neh_value(self, rng):
        inst = Instance(rng.gamma(1, 2, (1, 6)))
        _, value = iterated_greedy(inst, HeuristicBudget(max_iterations=3, rng_seed=1), d_jobs=2)
        assert value == pytest.approx(neh(inst)[1])

    def test_destruction_size_guard(self, rng):
        inst = random_instance(rng, n=4, m=2)
        with pytest.raises(ValidationError):
            iterated_greedy(inst, HeuristicBudget(max_iterations=1), d_jobs=4)

    def test_neh_init_never_worse_than_neh(self, rng):
        for seed in range(5):
            inst = random_instance(rng, n=10, m=4)
            _, value = iterated_greedy(inst, HeuristicBudget(max_iterations=10, rng_seed=seed), d_jobs=3, init="neh")
            assert value <= neh(inst)[1] + 1e-9

    def test_mean_not_worse_than_ils_small_suite(self):
        # paired run at n=8 with the harness-default style budgets
        suite = generate(DatasetSpec(count=25, jobs=8, machines=5, dist="gamma", seed=99))
        ig_vals, ils_vals = [], []
        for k, inst in enumerate(suite):
            ig_vals.append(
                iterated_greedy(inst, HeuristicBudget(max_iterations=5, rng_seed=k), d_jobs=4, inner_iterations=10)[1]
            )
            ils_vals.append(
                iterated_local_search(
                    inst,
                    HeuristicBudget(max_iterations=3, rng_seed=k),
                    inner_iterations=10,
                )[1]
            )
        assert np.mean(ig_vals) <= np.mean(ils_vals) + 1e-9

    def test_deterministic(self, rng):
        inst = random_instance(rng, n=9, m=3)
        budget = HeuristicBudget(max_iterations=8, rng_seed=4)
        a = iterated_greedy(inst, budget, d_jobs=3)
        b = iterated_greedy(inst, budget, d_jobs=3)
        assert list(a[0]) == list(b[0]) and a[1] == b[1]


class TestAnytimeProperty:
    def test_more_budget_never_hurts(self, rng):
        inst = random_instance(rng, n=10, m=4)
        values = [
            random_search(inst, HeuristicBudget(max_iterations=it, rng_seed=11))[1]
            for it in (10, 100, 1000)
        ]
        assert values[0] >= values[1] >= values[2]
        ils = [
            iterated_local_search(inst, HeuristicBudget(max_iterations=it, rng_seed=11))[1]
            for it in (0, 5, 20)
        ]
        assert ils[0] >= ils[1] >= ils[2]
        ig = [
            iterated_greedy(inst, HeuristicBudget(max_iterations=it, rng_seed=11), d_jobs=3)[1]
            for it in (1, 5, 20)
        ]
        assert ig[0] >= ig[1] >= ig[2]
