"""Baseline solvers: random search, insertion local search, ILS, IG, and NEH.

NEH is the expert everything else is measured against. All stochastic
solvers draw from an explicit seed; identical (instance, params, seed)
triples produce identical permutations. Wall-clock budgets are honored
but obviously not reproducible across machines.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .core import Instance, _completion, makespan, makespan_batch, validate_permutation
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
_TIE_RTOL = 1e-9  # insertion makespans this close to the minimum tie


def _is_number(value, kind: type) -> bool:
    """``value`` is a ``kind`` (``numbers.Integral`` or ``numbers.Real``); JSON's true and false are not."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class HeuristicBudget:
    """Iteration and/or wall-clock limits plus the RNG seed for a run."""

    max_iterations: int | None = None
    max_time: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_iterations is None and self.max_time is None:
            raise ValidationError("budget needs max_iterations or max_time")
        iterations, seconds = self.max_iterations, self.max_time
        if iterations is not None and not (_is_number(iterations, numbers.Integral) and iterations >= 0):
            raise ValidationError(f"max_iterations must be an integer >= 0, not {iterations!r}")
        if seconds is not None and not (_is_number(seconds, numbers.Real) and 0 < seconds < math.inf):
            raise ValidationError(f"max_time must be a positive number and finite, not {seconds!r}")


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
        if not (_is_number(self.d_jobs, numbers.Integral) and self.d_jobs >= 1):
            raise ValidationError(f"d_jobs must be an integer >= 1, not {self.d_jobs!r}")
        temperature = self.acceptance_temperature
        if temperature is not None and not (_is_number(temperature, numbers.Real) and temperature >= 0):
            raise ValidationError(f"acceptance_temperature must be a non-negative number, not {temperature!r}")
        if self.init not in ("random", "neh"):
            raise ValidationError(f"unknown init {self.init!r}")
        inner = self.inner_iterations
        if inner is not None and not (_is_number(inner, numbers.Integral) and inner >= 1):
            raise ValidationError(f"inner_iterations must be an integer >= 1, not {inner!r}")


def insertion_makespans(times: np.ndarray, seq, job: int) -> np.ndarray:
    """Makespans of inserting ``job`` at every position of ``seq``.

    Front/tail acceleration (Taillard 1990): with e[:, t] the front
    after the first t jobs of ``seq``, q[:, t] the tail of ``seq[t:]``
    and f[:, t] the front of ``job`` placed after e[:, t],
    makespan(t) = max_i f[i, t] + q[i, t], in O(m * len(seq)) instead
    of re-evaluating each of the len(seq)+1 candidates. One gather
    builds an (m, 2, len(seq)+1) block: the jobs of ``seq`` in order
    and, machine-reversed, in reverse order, each behind a zero-time
    sentinel job, so e[:, 0] and q[:, -1] come out as zeros. One
    :func:`~flowshop.core._completion` scan yields both e and q, and a
    machine-axis ``maximum.accumulate`` yields f. Integer-valued times
    give bit-identical makespans; float times agree with a full
    re-evaluation within 1e-9 relative.
    """
    x = times.take([0, *seq, 0, *seq[::-1]], axis=1).reshape(len(times), 2, -1)
    x[:, 1] = x[::-1, 1]
    x[..., 0] = 0.0
    c = _completion(x)
    p = times[:, job]
    through = np.add.accumulate(p)  # through[i]: job alone, done on machine i
    f = c[:, 0] - (through - p)[:, None]
    np.maximum.accumulate(f, axis=0, out=f)
    f += through[:, None]  # f[i] = max(f[i-1], e[i]) + p[i]
    f += c[::-1, 1, ::-1]
    return np.maximum.reduce(f, axis=0)


def _best_position(ms: np.ndarray, latest: bool) -> int:
    """The written insertion tie rule: first or last position within ``_TIE_RTOL`` of the best.

    Makespans within ``_TIE_RTOL`` relative of the minimum tie, so
    rounding in the last bits never decides between positions. NEH
    takes the latest tying position, the descents the earliest.
    """
    tied = ms <= float(ms.min()) * (1.0 + _TIE_RTOL)
    if latest:
        return len(ms) - 1 - int(tied[::-1].argmax())
    return int(tied.argmax())


def _insert_best(times: np.ndarray, seq: list[int], job: int, latest: bool) -> float:
    """Insert ``job`` into ``seq`` in place at its best position; returns the scan's makespan."""
    ms = insertion_makespans(times, seq, job)
    pos = _best_position(ms, latest)
    seq.insert(pos, job)
    return float(ms[pos])


def _limits(budget: HeuristicBudget | None) -> tuple[float, float]:
    """(iterations, deadline) of ``budget``, started now; ``math.inf`` where it sets no limit."""
    if budget is None:
        return math.inf, math.inf
    iterations = math.inf if budget.max_iterations is None else budget.max_iterations
    deadline = math.inf if budget.max_time is None else time.perf_counter() + budget.max_time
    return iterations, deadline


def neh(inst: Instance) -> tuple[np.ndarray, float]:
    """NEH: sort jobs by nonincreasing total time, insert each at the best position.

    Ties are broken by written rules: equal totals prefer the smaller job
    index; insertion makespans within ``_TIE_RTOL`` relative of the
    minimum tie, and the latest tying position wins (:func:`_best_position`),
    so degenerate instances (identical jobs, single machine) come out in
    the phase-1 order rather than reversed, and last-bit rounding of the
    scan never picks the sequence. The permutation is a function of the
    exact makespans; the returned value is the scan's, equal to the
    recurrence to the bit on integer-valued times and within 1e-9
    relative on float times.
    """
    totals = inst.times.sum(axis=0)
    order = np.lexsort((np.arange(inst.n), -totals))
    seq: list[int] = [int(order[0])]
    best = float(inst.times[:, order[0]].sum())
    for job in order[1:]:
        best = _insert_best(inst.times, seq, int(job), latest=True)
    return np.array(seq, dtype=np.int64), best


def random_search(inst: Instance, budget: HeuristicBudget) -> tuple[np.ndarray, float]:
    """Best of uniformly sampled permutations within the budget."""
    remaining, deadline = _limits(budget)
    if remaining < 1:
        raise ValidationError("random search needs at least one sample")
    rng = np.random.Generator(np.random.PCG64(budget.rng_seed))

    best_perm: np.ndarray | None = None
    best = math.inf
    while True:
        block = int(min(1024, remaining))
        perms = np.argsort(rng.random((block, inst.n)), axis=1)
        values = makespan_batch(inst, perms)
        k = int(np.argmin(values))
        if values[k] < best:
            best = float(values[k])
            best_perm = perms[k].copy()
        remaining -= block
        if remaining <= 0 or time.perf_counter() >= deadline:
            break
    return best_perm, best


def local_search_insert(
    inst: Instance,
    start,
    budget: HeuristicBudget | None = None,
) -> tuple[np.ndarray, float]:
    """First-improvement insertion descent: pop one job, reinsert at its best slot.

    Jobs are scanned by position; any strict improvement is applied
    immediately, at the earliest tying position (:func:`_best_position`),
    and the scan continues. Stops at a local optimum (a full
    pass without improvement) or when the budget runs out. The result
    never exceeds the start's makespan.
    """
    seq = validate_permutation(start, inst.n).tolist()
    cur = makespan(inst, seq)
    steps_left, deadline = _limits(budget)
    improved = inst.n >= 2
    while improved:
        improved = False
        for idx in range(inst.n):
            if steps_left <= 0:
                break
            steps_left -= 1
            job = seq[idx]
            rest = seq[:idx] + seq[idx + 1 :]
            value = _insert_best(inst.times, rest, job, latest=False)
            if value < cur - _EPS:
                seq, cur, improved = rest, value, True
            if time.perf_counter() >= deadline:
                steps_left = 0  # out of time ends the descent like out of steps
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
    if not (_is_number(perturbation_strength, numbers.Integral) and perturbation_strength >= 1):
        raise ValidationError(f"perturbation_strength must be an integer >= 1, not {perturbation_strength!r}")
    rng = np.random.Generator(np.random.PCG64(budget.rng_seed))
    iterations, deadline = _limits(budget)
    inner = None if inner_iterations is None else HeuristicBudget(max_iterations=inner_iterations)

    start = rng.permutation(inst.n)
    best_perm, best = local_search_insert(inst, start, inner)
    it = 0
    while it < iterations:
        it += 1
        cand = best_perm.copy()
        for _ in range(perturbation_strength):
            a, b = rng.integers(0, inst.n, size=2)
            cand[a], cand[b] = cand[b], cand[a]
        cand_perm, cand_val = local_search_insert(inst, cand, inner)
        if cand_val < best - _EPS:
            best_perm, best = cand_perm, cand_val
        if time.perf_counter() >= deadline:
            break
    return best_perm, best


def iterated_greedy(inst: Instance, params: IgParams) -> tuple[np.ndarray, float]:
    """Destruction/construction loop with SA-style constant-temperature acceptance.

    Each iteration removes ``d_jobs`` random jobs from the incumbent,
    greedily reinserts them one by one at their best positions (earliest
    tying position, :func:`_best_position`), runs the
    insertion descent, then accepts improvements always and worsenings
    with probability exp(-delta/T). Returns the best visited solution.
    """
    if params.d_jobs >= inst.n:
        raise ValidationError(f"d_jobs={params.d_jobs} must be < n={inst.n}")
    budget = params.budget
    rng = np.random.Generator(np.random.PCG64(budget.rng_seed))
    iterations, deadline = _limits(budget)
    inner = None if params.inner_iterations is None else HeuristicBudget(max_iterations=params.inner_iterations)
    temperature = params.acceptance_temperature
    if temperature is None:
        temperature = float(inst.times.mean()) / 10.0

    if params.init == "neh":
        cur_perm, cur = neh(inst)
        cur_perm = cur_perm.tolist()
    else:
        cur_perm = rng.permutation(inst.n).tolist()
        cur = makespan(inst, cur_perm)
    best_perm, best = np.array(cur_perm, dtype=np.int64), cur

    it = 0
    while it < iterations:
        it += 1
        removed_idx = rng.choice(inst.n, size=params.d_jobs, replace=False)
        removed_jobs = [cur_perm[i] for i in sorted(removed_idx)]
        removed = set(removed_idx)
        partial = [j for i, j in enumerate(cur_perm) if i not in removed]
        for job in removed_jobs:
            _insert_best(inst.times, partial, job, latest=False)
        cand_perm, cand_val = local_search_insert(inst, partial, inner)
        if cand_val < cur - _EPS or (temperature > 0 and rng.random() < math.exp(-(cand_val - cur) / temperature)):
            cur_perm, cur = cand_perm.tolist(), cand_val
        if cur < best - _EPS:
            best_perm, best = np.array(cur_perm, dtype=np.int64), cur
        if time.perf_counter() >= deadline:
            break
    return best_perm, best
