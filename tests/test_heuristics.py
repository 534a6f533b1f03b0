"""Baseline solvers: NEH, random search, insertion descent, ILS, IG."""

import numpy as np
import pytest

from flowshop.core import Instance, makespan
from flowshop.errors import ValidationError
from flowshop.exact import brute_force
from flowshop.heuristics import (
    HeuristicBudget,
    IgParams,
    insertion_makespans,
    iterated_greedy,
    iterated_local_search,
    local_search_insert,
    neh,
    random_search,
)
from flowshop.instances import DatasetSpec, generate

from conftest import oracle_makespan, random_instance


# NEH on Gamma(1, 2) 10x50 instances drawn from PCG64(seed). Insertion ties
# are decided by last-bit rounding, so any reordering of the recurrence's
# arithmetic changes these sequences; re-capture them only with a deliberate
# change of the tie rule.
NEH_GOLDEN_50X10 = [
    (
        1000,
        [37, 16, 40, 0, 46, 25, 28, 22, 23, 15, 45, 20, 13, 30, 6, 29, 43, 2, 4, 31, 27, 9, 38, 14, 3, 21, 33, 8, 44, 11, 17, 36, 32, 39, 24, 5, 7, 12, 41, 26, 35, 49, 48, 1, 47, 10, 42, 18, 19, 34],
        122.51924995101957,
    ),
    (
        1001,
        [23, 49, 1, 43, 17, 12, 5, 11, 10, 14, 19, 20, 16, 2, 4, 6, 48, 37, 45, 29, 35, 44, 31, 25, 13, 21, 7, 46, 34, 47, 3, 8, 27, 32, 33, 18, 9, 36, 41, 0, 26, 22, 15, 28, 24, 40, 39, 42, 38, 30],
        136.31242865119316,
    ),
    (
        1002,
        [49, 28, 36, 19, 11, 33, 45, 18, 22, 38, 2, 23, 15, 24, 8, 25, 41, 44, 20, 35, 39, 13, 37, 43, 30, 10, 17, 48, 42, 0, 3, 32, 16, 9, 34, 12, 1, 27, 47, 7, 14, 4, 21, 46, 31, 40, 5, 29, 26, 6],
        129.30842835253168,
    ),
    (
        1003,
        [21, 0, 16, 46, 7, 8, 34, 37, 18, 11, 14, 26, 33, 1, 6, 42, 36, 43, 20, 40, 5, 39, 3, 27, 19, 48, 31, 35, 2, 44, 12, 45, 15, 30, 38, 9, 22, 17, 29, 13, 25, 28, 49, 41, 4, 10, 47, 23, 24, 32],
        146.13567547322762,
    ),
    (
        1004,
        [34, 22, 45, 39, 36, 49, 2, 26, 44, 15, 24, 14, 0, 47, 48, 10, 41, 8, 35, 3, 13, 37, 16, 31, 29, 1, 4, 33, 30, 6, 5, 12, 9, 25, 17, 43, 21, 18, 46, 27, 19, 38, 28, 23, 32, 11, 40, 20, 42, 7],
        125.85845559739795,
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
            pos = len(ms) - 1 - int(np.argmin(ms[::-1]))  # same tie rule as neh()
            assert ms[pos] == pytest.approx(best, abs=1e-9)
            seq.insert(pos, int(job))
        perm, value = neh(inst)
        assert list(perm) == seq and value == pytest.approx(makespan(inst, seq))

    @pytest.mark.parametrize("seed, perm, value", NEH_GOLDEN_50X10)
    def test_golden_permutations_gamma_50x10(self, seed, perm, value):
        inst = Instance(np.random.Generator(np.random.PCG64(seed)).gamma(1.0, 2.0, (10, 50)))
        got, got_value = neh(inst)
        assert got.tolist() == perm
        assert got_value == value


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
        assert list(again) == list(perm) and value2 == value

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
        params = IgParams(
            d_jobs=2,
            acceptance_temperature=0.0,
            budget=HeuristicBudget(max_iterations=1, rng_seed=0),
            init="neh",
        )
        perm, value = iterated_greedy(inst, params)
        assert value == neh_value

    def test_single_machine_equals_neh_value(self, rng):
        inst = Instance(rng.gamma(1, 2, (1, 6)))
        params = IgParams(d_jobs=2, budget=HeuristicBudget(max_iterations=3, rng_seed=1))
        _, value = iterated_greedy(inst, params)
        assert value == pytest.approx(neh(inst)[1])

    def test_destruction_size_guard(self, rng):
        inst = random_instance(rng, n=4, m=2)
        with pytest.raises(ValidationError):
            iterated_greedy(inst, IgParams(d_jobs=4, budget=HeuristicBudget(max_iterations=1)))

    def test_neh_init_never_worse_than_neh(self, rng):
        for seed in range(5):
            inst = random_instance(rng, n=10, m=4)
            params = IgParams(
                d_jobs=3, budget=HeuristicBudget(max_iterations=10, rng_seed=seed), init="neh"
            )
            _, value = iterated_greedy(inst, params)
            assert value <= neh(inst)[1] + 1e-9

    def test_mean_not_worse_than_ils_small_suite(self):
        # paired run at n=8 with the harness-default style budgets
        suite = generate(DatasetSpec(count=25, jobs=8, machines=5, dist="gamma", seed=99))
        ig_vals, ils_vals = [], []
        for k, inst in enumerate(suite):
            ig_vals.append(
                iterated_greedy(
                    inst,
                    IgParams(
                        d_jobs=4,
                        budget=HeuristicBudget(max_iterations=5, rng_seed=k),
                        inner_iterations=10,
                    ),
                )[1]
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
        params = IgParams(d_jobs=3, budget=HeuristicBudget(max_iterations=8, rng_seed=4))
        a = iterated_greedy(inst, params)
        b = iterated_greedy(inst, params)
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
            iterated_greedy(
                inst, IgParams(d_jobs=3, budget=HeuristicBudget(max_iterations=it, rng_seed=11))
            )[1]
            for it in (1, 5, 20)
        ]
        assert ig[0] >= ig[1] >= ig[2]
