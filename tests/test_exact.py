"""Enumeration oracle, MIP structure/emission, and embedding feasibility."""

import itertools

import numpy as np
import pytest

from flowshop.core import Instance, makespan, makespan_batch
from flowshop.errors import ValidationError
from flowshop.exact import (
    _lex_permutations,
    big_m_constants,
    brute_force,
    build_mip,
    check_mip_solution,
    emit_mip,
    permutation_embedding,
)
from flowshop.heuristics import HeuristicBudget, neh, random_search
from flowshop.instances import DatasetSpec, generate

from conftest import oracle_makespan, random_instance


class TestLexPermutations:
    @pytest.mark.parametrize("r", range(1, 9))
    def test_equals_itertools_order(self, r):
        table = _lex_permutations(r)
        assert np.array_equal(table, np.array(list(itertools.permutations(range(r)))))

    def test_cached_read_only(self):
        table = _lex_permutations(8)
        assert table is _lex_permutations(8)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


class TestBruteForce:
    def test_multi_block_ties_match_lexicographic_enumeration(self):
        # n=9 spans nine 8!-row blocks; small integer times on two machines
        # tie massively, so the first optimum in itertools order must win
        # across block boundaries
        rng = np.random.default_rng(91)
        perms = np.array(list(itertools.permutations(range(9))))
        for _ in range(2):
            inst = Instance(rng.integers(1, 4, (2, 9)).astype(float))
            values = makespan_batch(inst, perms)
            k = int(np.argmin(values))
            assert np.count_nonzero(values == values[k]) > 1
            perm, value = brute_force(inst)
            assert value == values[k]
            assert np.array_equal(perm, perms[k])

    def test_identical_jobs_identity_across_blocks(self):
        inst = Instance(np.tile(np.array([[2.0], [1.0]]), (1, 9)))
        perm, _ = brute_force(inst)
        assert list(perm) == list(range(9))

    def test_identical_jobs_identity(self):
        inst = Instance(np.tile(np.array([[2.0], [1.0]]), (1, 4)))
        perm, _ = brute_force(inst)
        assert list(perm) == [0, 1, 2, 3]

    def test_two_jobs_complete_check(self):
        # job 0 dominates job 1 on every machine; both orders enumerated
        inst = Instance(np.array([[5.0, 1.0], [5.0, 1.0]]))
        perm, value = brute_force(inst)
        both = {
            (0, 1): makespan(inst, [0, 1]),
            (1, 0): makespan(inst, [1, 0]),
        }
        assert value == min(both.values())
        assert tuple(perm) == min(k for k, v in both.items() if v == value)

    def test_matches_scalar_enumeration(self, rng):
        inst = random_instance(rng, n=6, m=3)
        perm, value = brute_force(inst)
        best = min(oracle_makespan(inst.times, p) for p in itertools.permutations(range(6)))
        assert value == pytest.approx(best, abs=1e-12)
        assert makespan(inst, perm) == pytest.approx(value, abs=1e-12)

    def test_scale_guard(self):
        with pytest.raises(ValidationError):
            brute_force(Instance(np.ones((2, 11))))

    def test_optimum_below_heuristics(self, rng):
        for _ in range(5):
            inst = random_instance(rng, n=7, m=4)
            _, opt = brute_force(inst)
            assert opt <= neh(inst)[1] + 1e-9
            assert opt <= random_search(inst, HeuristicBudget(max_iterations=50, rng_seed=1))[1] + 1e-9

    def test_gap_vs_neh_on_gamma_suite(self):
        # the expert stays near-exact at n=8; our NEH lands well under the
        # paper-anchored ~5.4% + 3pp ceiling (and below the anchor itself)
        suite = generate(DatasetSpec(count=30, jobs=8, machines=5, dist="gamma", seed=23))
        opts = np.array([brute_force(i)[1] for i in suite])
        nehs = np.array([neh(i)[1] for i in suite])
        assert opts.mean() < nehs.mean()
        mean_gap = 100.0 * float(np.mean((nehs - opts) / opts))
        assert mean_gap <= 5.36 + 3.0


class TestBigM:
    def test_cumulative_row_sums(self):
        inst = Instance(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose(big_m_constants(inst), [3.0, 10.0])

    def test_strictly_increasing_for_positive_times(self, rng):
        inst = Instance(rng.uniform(0.5, 2.0, (4, 5)))
        a = big_m_constants(inst)
        assert (np.diff(a) > 0).all()


class TestModelStructure:
    def test_counts_n2_m1(self):
        inst = Instance(np.array([[3.0, 4.0]]))
        model = build_mip(inst)
        assert len(model.z_vars) == 6  # (n+1)^2 - (n+1) over the extended set
        assert len(model.y_vars) == 2
        by_tag = {}
        for con in model.constraints:
            by_tag[con.tag] = by_tag.get(con.tag, 0) + 1
        assert by_tag["eq4"] == 2
        assert by_tag["eq5"] == 2
        assert by_tag.get("eq6", 0) == 0
        assert by_tag["eq2"] == 3 and by_tag["eq3"] == 3

    def test_counts_general(self, rng):
        inst = random_instance(rng, n=4, m=3)
        model = build_mip(inst)
        tags = [c.tag for c in model.constraints]
        assert tags.count("eq4") == inst.m * inst.n * (inst.n - 1)
        assert tags.count("eq5") == inst.n
        assert tags.count("eq6") == (inst.m - 1) * inst.n
        assert len(model.z_vars) == (inst.n + 1) * inst.n

    def test_n1_forced_chain(self):
        inst = Instance(np.array([[2.0], [3.0]]))
        y, z, cmax = permutation_embedding(inst, [0])
        assert z[0, 1] == 1.0 and z[1, 0] == 1.0
        assert cmax == pytest.approx(5.0)
        assert check_mip_solution(inst, y, z, cmax)


def _parse_lp(text: str):
    """Tiny LP-text reader used as an independent check of emit_mip."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    constraints = []
    binaries = []
    section = None
    for ln in lines:
        if ln.startswith("\\"):
            continue
        word = ln.strip().lower()
        if word in ("minimize", "subject to", "binaries", "end", "bounds"):
            section = word
            continue
        if section == "subject to" and ln.strip():
            name, body = ln.split(":", 1)
            if "<=" in body:
                lhs, rhs = body.split("<=")
                sense = "<="
            else:
                lhs, rhs = body.split("=")
                sense = "="
            terms = []
            toks = lhs.split()
            i = 0
            while i < len(toks):
                sign = 1.0 if toks[i] == "+" else -1.0
                coef = float(toks[i + 1])
                var = toks[i + 2]
                terms.append((sign * coef, var))
                i += 3
            constraints.append((name.strip(), terms, sense, float(rhs)))
        elif section == "binaries" and ln.strip():
            binaries.extend(ln.split())
    return constraints, binaries


class TestEmitMip:
    def test_lp_text_shape(self, rng):
        inst = random_instance(rng, n=3, m=2)
        text = emit_mip(inst)
        assert text.startswith("\\")
        assert "Minimize" in text and "Subject To" in text and "Binaries" in text
        assert text.endswith("End\n")
        assert "\r" not in text

    def test_emitted_model_accepts_optimal_embedding(self, rng):
        # parse the LP text back and evaluate it on the canonical embedding:
        # every constraint holds and the objective equals the brute-force value
        inst = random_instance(rng, n=4, m=3)
        perm, opt = brute_force(inst)
        y, z, cmax = permutation_embedding(inst, perm)
        values = {"Cmax": cmax}
        for i in range(inst.m):
            for j in range(inst.n):
                values[f"y_{i + 1}_{j + 1}"] = y[i, j]
        for a in range(inst.n + 1):
            for b in range(inst.n + 1):
                if a != b:
                    values[f"z_{a}_{b}"] = z[a, b]
        constraints, binaries = _parse_lp(emit_mip(inst))
        assert len(binaries) == (inst.n + 1) * inst.n
        assert set(binaries) <= set(values)
        assert len(constraints) == len(build_mip(inst).constraints)
        for name, terms, sense, rhs in constraints:
            lhs = sum(c * values[v] for c, v in terms)
            if sense == "=":
                assert lhs == pytest.approx(rhs, abs=1e-9), name
            else:
                assert lhs <= rhs + 1e-9, name
        assert cmax == pytest.approx(opt, abs=1e-12)


class TestCheckMipSolution:
    def test_embedding_of_optimum_feasible(self, rng):
        for _ in range(5):
            inst = random_instance(rng, n=5, m=3)
            perm, opt = brute_force(inst)
            y, z, cmax = permutation_embedding(inst, perm)
            assert check_mip_solution(inst, y, z, cmax)
            assert cmax == pytest.approx(opt, abs=1e-12)

    def test_every_permutation_embedding_feasible(self, rng):
        inst = random_instance(rng, n=4, m=3)
        for perm in itertools.permutations(range(4)):
            y, z, cmax = permutation_embedding(inst, perm)
            assert check_mip_solution(inst, y, z, cmax)
            assert cmax == pytest.approx(makespan(inst, perm), abs=1e-12)

    def test_double_successor_rejected(self, rng):
        inst = random_instance(rng, n=4, m=2)
        perm, _ = brute_force(inst)
        y, z, cmax = permutation_embedding(inst, perm)
        z = z.copy()
        z[int(perm[0]) + 1, int(perm[2]) + 1] = 1.0  # job with two successors
        assert not check_mip_solution(inst, y, z, cmax)

    def test_downward_y_perturbation_rejected(self, rng):
        # any start time pushed below its binding constraint must fail
        tol = 1e-6
        inst = random_instance(rng, n=4, m=3)
        perm, _ = brute_force(inst)
        y, z, cmax = permutation_embedding(inst, perm)
        for i in range(inst.m):
            for j in range(inst.n):
                bad = y.copy()
                bad[i, j] -= 10 * tol
                assert not check_mip_solution(inst, bad, z, cmax, tol=tol), (i, j)

    def test_cmax_undercut_rejected(self, rng):
        tol = 1e-6
        inst = random_instance(rng, n=4, m=2)
        perm, _ = brute_force(inst)
        y, z, cmax = permutation_embedding(inst, perm)
        assert not check_mip_solution(inst, y, z, cmax - 10 * tol, tol=tol)

    def test_shape_mismatch(self, rng):
        inst = random_instance(rng, n=3, m=2)
        with pytest.raises(ValidationError):
            check_mip_solution(inst, np.zeros((2, 2)), np.zeros((4, 4)), 0.0)
        with pytest.raises(ValidationError):
            check_mip_solution(inst, np.zeros((2, 3)), np.zeros((3, 3)), 0.0)

    def test_big_m_slack_bound(self, rng):
        # for feasible embeddings the big-M never becomes the binding excuse
        inst = random_instance(rng, n=4, m=3)
        a = big_m_constants(inst)
        y, z, cmax = permutation_embedding(inst, rng.permutation(4))
        for i in range(inst.m):
            for j in range(inst.n):
                for k in range(inst.n):
                    if j == k:
                        continue
                    lhs = y[i, j] + inst.times[i, j] - y[i, k] - a[i] * (1 - z[j + 1, k + 1])
                    assert lhs <= 1e-9
                    slack = -lhs
                    if z[j + 1, k + 1] == 1.0:
                        assert slack <= a[i] + 1e-9
