"""Baseline solvers: random search, insertion local search, ILS, IG, and NEH.

NEH is the expert everything else is measured against. All stochastic
solvers draw from an explicit seed; identical (instance, params, seed)
triples produce identical permutations. Wall-clock budgets are honored
but obviously not reproducible across machines.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import Instance, _advance, _completion, makespan, makespan_batch, validate_permutation
from .errors import ValidationError

__all__ = [
    "HeuristicBudget",
    "IgParams",
    "random_search",
    "local_search_insert",
    "iterated_local_search",
    "iterated_greedy",
    "neh",
    "insertion_makespans",
]

_EPS = 1e-9


@dataclass(frozen=True)
class HeuristicBudget:
    """Iteration and/or wall-clock limits plus the RNG seed for a run."""

    max_iterations: int | None = None
    max_time: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_iterations is None and self.max_time is None:
            raise ValidationError("budget needs max_iterations or max_time")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValidationError("max_iterations must be >= 0")
        if self.max_time is not None and self.max_time <= 0:
            raise ValidationError("max_time must be positive")


@dataclass(frozen=True)
class IgParams:
    """Iterated-greedy knobs: destruction size, SA temperature, budget.

    ``acceptance_temperature=None`` resolves to mean(x)/10 for the
    instance at hand. ``init`` selects the starting permutation: "random"
    (default, reproduces the expected quality ordering against NEH) or
    "neh" for the NEH-seeded variant. ``inner_iterations`` truncates the
    per-iteration descent (None = run it to a local optimum).
    """

    d_jobs: int = 4
    acceptance_temperature: float | None = None
    budget: HeuristicBudget = HeuristicBudget(max_iterations=30)
    init: str = "random"
    inner_iterations: int | None = None

    def __post_init__(self):
        if self.d_jobs < 1:
            raise ValidationError("d_jobs must be >= 1")
        if self.acceptance_temperature is not None and self.acceptance_temperature < 0:
            raise ValidationError("acceptance_temperature must be non-negative")
        if self.init not in ("random", "neh"):
            raise ValidationError(f"unknown init {self.init!r}")
        if self.inner_iterations is not None and self.inner_iterations < 1:
            raise ValidationError("inner_iterations must be >= 1")


def insertion_makespans(times: np.ndarray, seq, job: int) -> np.ndarray:
    """Makespans of inserting ``job`` at every position of ``seq``.

    Front/tail acceleration: prefix completion fronts e, suffix tails q,
    and the inserted job's fronts f give makespan(pos) = max_i f[i,pos] +
    q[i,pos] in O(m * len(seq)) total, instead of re-evaluating each of
    the len(seq)+1 candidate sequences from scratch.
    """
    p = times[:, np.asarray(seq, dtype=np.int64)]
    m, length = p.shape
    e = np.zeros((m, length + 1))  # e[:, t] = front after the first t jobs
    e[:, 1:] = _completion(p)
    q = np.zeros((m, length + 1))  # q[i, t] = tail of seq[t:] started on machine i
    q[:, :-1] = _completion(p[::-1, ::-1])[::-1, ::-1]
    f = _advance(e, times[:, [job]])  # f[:, pos] = front of job inserted at pos
    return (f + q).max(axis=0)


def neh(inst: Instance) -> tuple[np.ndarray, float]:
    """NEH: sort jobs by nonincreasing total time, insert each at the best position.

    Ties are broken deterministically: equal totals prefer the smaller
    job index; equal insertion makespans keep the latest tying position,
    so degenerate instances (identical jobs, single machine) come out in
    the phase-1 order rather than reversed.
    """
    totals = inst.times.sum(axis=0)
    order = np.lexsort((np.arange(inst.n), -totals))
    seq: list[int] = [int(order[0])]
    best = float(inst.times[:, order[0]].sum())
    for job in order[1:]:
        ms = insertion_makespans(inst.times, seq, int(job))
        pos = len(ms) - 1 - int(np.argmin(ms[::-1]))
        seq.insert(pos, int(job))
        best = float(ms[pos])
    return np.array(seq, dtype=np.int64), best


def random_search(inst: Instance, budget: HeuristicBudget) -> tuple[np.ndarray, float]:
    """Best of uniformly sampled permutations within the budget."""
    if budget.max_iterations is not None and budget.max_iterations < 1:
        raise ValidationError("random search needs at least one sample")
    rng = np.random.Generator(np.random.PCG64(budget.rng_seed))
    deadline = None if budget.max_time is None else time.perf_counter() + budget.max_time
    remaining = budget.max_iterations if budget.max_iterations is not None else None

    best_perm: np.ndarray | None = None
    best = math.inf
    while True:
        block = 1024 if remaining is None else min(1024, remaining)
        perms = np.argsort(rng.random((block, inst.n)), axis=1)
        values = makespan_batch(inst, perms)
        k = int(np.argmin(values))
        if values[k] < best:
            best = float(values[k])
            best_perm = perms[k].copy()
        if remaining is not None:
            remaining -= block
            if remaining <= 0:
                break
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return best_perm, best


def local_search_insert(
    inst: Instance,
    start,
    budget: HeuristicBudget | None = None,
) -> tuple[np.ndarray, float]:
    """First-improvement insertion descent: pop one job, reinsert at its best slot.

    Jobs are scanned by position; any strict improvement is applied
    immediately and the scan continues. Stops at a local optimum (a full
    pass without improvement) or when the budget runs out. The result
    never exceeds the start's makespan.
    """
    seq = list(validate_permutation(start, inst.n))
    cur = makespan(inst, seq)
    if inst.n < 2:
        return np.array(seq, dtype=np.int64), cur

    deadline = None
    steps_left = None
    if budget is not None:
        deadline = None if budget.max_time is None else time.perf_counter() + budget.max_time
        steps_left = budget.max_iterations

    improved = True
    while improved:
        improved = False
        for idx in range(inst.n):
            if steps_left is not None:
                if steps_left <= 0:
                    return np.array(seq, dtype=np.int64), cur
                steps_left -= 1
            job = seq[idx]
            rest = seq[:idx] + seq[idx + 1 :]
            ms = insertion_makespans(inst.times, rest, job)
            pos = int(np.argmin(ms))
            if ms[pos] < cur - _EPS:
                seq = rest[:pos] + [job] + rest[pos:]
                cur = float(ms[pos])
                improved = True
            if deadline is not None and time.perf_counter() >= deadline:
                return np.array(seq, dtype=np.int64), cur
    return np.array(seq, dtype=np.int64), cur


def iterated_local_search(
    inst: Instance,
    budget: HeuristicBudget,
    perturbation_strength: int = 2,
    inner_iterations: int | None = None,
) -> tuple[np.ndarray, float]:
    """Perturb-and-descend loop around :func:`local_search_insert`.

    Starts from a seed-random permutation, applies ``perturbation_strength``
    random pairwise swaps to the best-so-far, descends, and keeps the
    candidate only if it improves. ``max_iterations=0`` degenerates to a
    single local search of the random start. ``inner_iterations``
    truncates each descent (None = full descent to a local optimum).
    """
    if perturbation_strength < 1:
        raise ValidationError("perturbation_strength must be >= 1")
    rng = np.random.Generator(np.random.PCG64(budget.rng_seed))
    deadline = None if budget.max_time is None else time.perf_counter() + budget.max_time
    inner = None if inner_iterations is None else HeuristicBudget(max_iterations=inner_iterations)

    start = rng.permutation(inst.n)
    best_perm, best = local_search_insert(inst, start, inner)
    iterations = budget.max_iterations
    it = 0
    while iterations is None or it < iterations:
        it += 1
        cand = best_perm.copy()
        for _ in range(perturbation_strength):
            a, b = rng.integers(0, inst.n, size=2)
            cand[a], cand[b] = cand[b], cand[a]
        cand_perm, cand_val = local_search_insert(inst, cand, inner)
        if cand_val < best - _EPS:
            best_perm, best = cand_perm, cand_val
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return best_perm, best


def iterated_greedy(inst: Instance, params: IgParams) -> tuple[np.ndarray, float]:
    """Destruction/construction loop with SA-style constant-temperature acceptance.

    Each iteration removes ``d_jobs`` random jobs from the incumbent,
    greedily reinserts them one by one at their best positions, runs the
    insertion descent, then accepts improvements always and worsenings
    with probability exp(-delta/T). Returns the best visited solution.
    """
    if params.d_jobs >= inst.n:
        raise ValidationError(f"d_jobs={params.d_jobs} must be < n={inst.n}")
    budget = params.budget
    rng = np.random.Generator(np.random.PCG64(budget.rng_seed))
    deadline = None if budget.max_time is None else time.perf_counter() + budget.max_time
    inner = (
        None
        if params.inner_iterations is None
        else HeuristicBudget(max_iterations=params.inner_iterations)
    )
    temperature = params.acceptance_temperature
    if temperature is None:
        temperature = float(inst.times.mean()) / 10.0

    if params.init == "neh":
        cur_perm, cur = neh(inst)
        cur_perm = list(cur_perm)
    else:
        cur_perm = list(rng.permutation(inst.n))
        cur = makespan(inst, cur_perm)
    best_perm, best = np.array(cur_perm, dtype=np.int64), cur

    iterations = budget.max_iterations
    it = 0
    while iterations is None or it < iterations:
        it += 1
        removed_idx = rng.choice(inst.n, size=params.d_jobs, replace=False)
        removed_jobs = [cur_perm[i] for i in sorted(removed_idx)]
        removed = set(removed_idx)
        partial = [j for i, j in enumerate(cur_perm) if i not in removed]
        for job in removed_jobs:
            ms = insertion_makespans(inst.times, partial, job)
            pos = int(np.argmin(ms))
            partial.insert(pos, job)
        cand_perm, cand_val = local_search_insert(inst, partial, inner)
        if cand_val < cur - _EPS:
            cur_perm, cur = list(cand_perm), cand_val
        elif temperature > 0 and rng.random() < math.exp(-(cand_val - cur) / temperature):
            cur_perm, cur = list(cand_perm), cand_val
        if cur < best - _EPS:
            best_perm, best = np.array(cur_perm, dtype=np.int64), cur
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return best_perm, best
