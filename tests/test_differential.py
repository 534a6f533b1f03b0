"""Differential tests: every kernel against the independent oracle in conftest.

Hypothesis draws the shape (m 1-7, n 1-12), the kind of processing times
and a seed for them. The equality each kernel owes the oracle:

- ``makespan_batch`` and ``brute_force`` run the recurrence cell by cell,
  so they match it to the bit on every kind of data;
- ``completion_times``, ``makespan``, ``insertion_makespans`` and NEH's
  value go through the max-plus scan, which re-associates sums: to the bit
  on integer-valued times, within ``REL_TOL`` relative on float times;
- NEH's permutation equals a replay that evaluates every insertion with
  the oracle and applies the written tie rule, on every kind of data.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowshop.core import Instance, completion_times, makespan, makespan_batch
from flowshop.exact import brute_force
from flowshop.heuristics import insertion_makespans, neh

from conftest import REL_TOL, oracle_completion, oracle_makespan

INTEGER_KINDS = ("integer", "ties")


def draw_times(kind: str, m: int, n: int, seed: int) -> np.ndarray:
    r = np.random.Generator(np.random.PCG64(seed))
    if kind == "integer":
        return r.integers(0, 100, (m, n)).astype(np.float64)
    if kind == "ties":  # small integers: many equal makespans and equal totals
        return r.integers(0, 3, (m, n)).astype(np.float64)
    if kind == "decimal2":
        return np.round(r.gamma(1.0, 2.0, (m, n)), 2)
    return r.gamma(1.0, 2.0, (m, n))


@st.composite
def instances(draw, max_jobs=12):
    kind = draw(st.sampled_from(("integer", "ties", "decimal2", "gamma")))
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, max_jobs))
    seed = draw(st.integers(0, 2**32 - 1))
    return kind, Instance(draw_times(kind, m, n, seed))


def assert_matches(got, expected, kind: str):
    """To the bit on integer kinds, within REL_TOL on float kinds."""
    got, expected = np.asarray(got), np.asarray(expected)
    if kind in INTEGER_KINDS:
        assert np.array_equal(got, expected)
    else:
        assert got.shape == expected.shape
        assert np.allclose(got, expected, rtol=REL_TOL, atol=0)


def oracle_neh(times: np.ndarray) -> list[int]:
    """NEH replayed with oracle makespans and the written tie rule.

    Phase 1: nonincreasing machine-order totals, equal totals by lower
    index. Phase 2: the oracle evaluates every position of the next job
    in full; positions within REL_TOL relative of the minimum tie and the
    latest of them wins.
    """
    m, n = times.shape
    totals = [sum(float(times[i, j]) for i in range(m)) for j in range(n)]
    order = sorted(range(n), key=lambda j: (-totals[j], j))
    seq = [order[0]]
    for job in order[1:]:
        values = [oracle_makespan(times, seq[:pos] + [job] + seq[pos:]) for pos in range(len(seq) + 1)]
        limit = min(values) * (1 + REL_TOL)
        seq.insert(max(pos for pos, v in enumerate(values) if v <= limit), job)
    return seq


@given(instances(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_completion_times_and_makespan(drawn, perm_seed):
    kind, inst = drawn
    perm = np.random.Generator(np.random.PCG64(perm_seed)).permutation(inst.n)
    expected = oracle_completion(inst.times, perm)
    assert_matches(completion_times(inst, perm), expected, kind)
    assert_matches(makespan(inst, perm), expected[-1, -1], kind)


@given(instances(), st.integers(0, 2**32 - 1), st.sampled_from((np.uint8, np.int32, np.int64)))
@settings(max_examples=100, deadline=None)
def test_makespan_batch_bit_identical(drawn, perm_seed, dtype):
    _, inst = drawn
    r = np.random.Generator(np.random.PCG64(perm_seed))
    perms = np.array([r.permutation(inst.n) for _ in range(8)], dtype=dtype)
    expected = [oracle_makespan(inst.times, p) for p in perms]
    assert np.array_equal(makespan_batch(inst, perms), expected)


@given(instances(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_insertion_makespans(drawn, perm_seed):
    kind, inst = drawn
    r = np.random.Generator(np.random.PCG64(perm_seed))
    seq = r.permutation(inst.n).tolist()
    job = seq.pop(int(r.integers(0, inst.n)))
    expected = [oracle_makespan(inst.times, seq[:pos] + [job] + seq[pos:]) for pos in range(len(seq) + 1)]
    assert_matches(insertion_makespans(inst.times, seq, job), expected, kind)


@given(instances())
@settings(max_examples=100, deadline=None)
def test_neh_against_oracle_replay(drawn):
    kind, inst = drawn
    perm, value = neh(inst)
    assert perm.tolist() == oracle_neh(inst.times)
    assert_matches(value, oracle_makespan(inst.times, perm), kind)


@given(instances(max_jobs=6))
@settings(max_examples=60, deadline=None)
def test_brute_force_bit_identical(drawn):
    # the lexicographically smallest optimum of the oracle's enumeration
    _, inst = drawn
    perms = list(itertools.permutations(range(inst.n)))
    values = [oracle_makespan(inst.times, p) for p in perms]
    perm, value = brute_force(inst)
    assert value == min(values)
    assert tuple(perm) == perms[values.index(value)]


@pytest.mark.parametrize("kind", ["integer", "ties", "decimal2", "gamma"])
def test_neh_tie_rule_at_desk_size(kind):
    # 20x5: long enough for many near-equal insertion makespans
    inst = Instance(draw_times(kind, 5, 20, 2024))
    perm, value = neh(inst)
    assert perm.tolist() == oracle_neh(inst.times)
    assert_matches(value, oracle_makespan(inst.times, perm), kind)
