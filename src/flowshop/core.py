"""Instance/permutation data model and exact makespan semantics.

A flow-shop instance is an m x n matrix of processing times: entry (i, j)
is the time job j spends on machine i. A solution is a permutation of the
job indices; all machines process jobs in that single order. Completion
times follow the classic non-preemptive recurrence

    C[i][t] = max(C[i-1][t], C[i][t-1]) + x[i][perm[t]]

with out-of-range terms treated as zero, and the makespan is C[m-1][n-1].
Everything downstream (heuristics, the exact model, the learned policy)
treats these functions as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "Instance",
    "validate_permutation",
    "completion_times",
    "makespan",
    "makespan_batch",
    "gap_percent",
]


@dataclass(frozen=True)
class Instance:
    """An m-machine, n-job instance with non-negative processing times.

    ``times`` has shape (m, n): row = machine, column = job. Zeros are
    allowed (jobs may skip machines). ``name`` and ``meta`` are free-form
    provenance carried through generation/parsing.
    """

    times: np.ndarray
    name: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        if times.ndim != 2 or times.shape[0] < 1 or times.shape[1] < 1:
            raise ValidationError(f"processing times must be a 2-D matrix, got shape {times.shape}")
        if not np.isfinite(times).all():
            raise ValidationError("processing times must be finite")
        if (times < 0).any():
            raise ValidationError("processing times must be non-negative")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @property
    def m(self) -> int:
        """Number of machines (rows)."""
        return self.times.shape[0]

    @property
    def n(self) -> int:
        """Number of jobs (columns)."""
        return self.times.shape[1]

    def job(self, j: int) -> np.ndarray:
        """Processing-time column of job ``j`` (length m)."""
        return self.times[:, j]


def validate_permutation(perm, n: int) -> np.ndarray:
    """Check that ``perm`` is a bijection on [0, n) and return it as an int array."""
    arr = np.asarray(perm)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValidationError(f"permutation must have length {n}, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.issubdtype(arr.dtype, np.number) or not (arr == np.floor(arr)).all():
            raise ValidationError("permutation entries must be integers")
        arr = arr.astype(np.int64)
    seen = np.zeros(n, dtype=bool)
    for v in arr:
        if v < 0 or v >= n:
            raise ValidationError(f"job index {v} out of range [0, {n})")
        if seen[v]:
            raise ValidationError(f"duplicate job index {v} in permutation")
        seen[v] = True
    return arr.astype(np.int64)


def _completion(x: np.ndarray) -> np.ndarray:
    """Completion matrix of the columns of ``x`` in order, from an empty shop.

    The one scalar sweep of the recurrence, machine-major over Python
    floats: they round exactly as float64 does and the max is exact, so
    every cell is bit-identical to a cell-by-cell float64 evaluation.
    """
    prev = [0.0] * x.shape[1]
    rows = []
    for row in x.tolist():
        acc = 0.0
        cur = []
        for up, p in zip(prev, row):
            acc = (acc if acc > up else up) + p
            cur.append(acc)
        rows.append(cur)
        prev = cur
    return np.array(rows)


def _advance(front: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Fronts (m, B) after one more job per column; ``cols`` is (m, B) or (m, 1).

    The one batched step of the recurrence, vectorized over the B columns.
    """
    out = np.empty_like(front)
    acc = np.zeros(front.shape[1])
    for i in range(front.shape[0]):
        acc = np.maximum(acc, front[i]) + cols[i]
        out[i] = acc
    return out


def completion_times(inst: Instance, perm) -> np.ndarray:
    """Full m x n completion-time matrix of ``perm``, column t = t-th scheduled job.

    The returned matrix is nondecreasing along rows and columns and its
    bottom-right entry is the makespan.
    """
    return _completion(inst.times[:, validate_permutation(perm, inst.n)])


def makespan(inst: Instance, perm) -> float:
    """Makespan of ``perm``: the bottom-right entry of :func:`completion_times`."""
    return float(_completion(inst.times[:, validate_permutation(perm, inst.n)])[-1, -1])


def makespan_batch(inst: Instance, perms: np.ndarray) -> np.ndarray:
    """Makespans of many permutations at once.

    ``perms`` has shape (P, n), one permutation per row, with an integer
    dtype. Only the dtype and the column count are checked; rows are not
    validated (callers generate them), and an out-of-range index raises
    numpy's ``IndexError``. Vectorized over P so enumeration and random
    search stay cheap: each step gathers its (m, P) processing times into
    one buffer reused across steps.
    """
    perms = np.asarray(perms)
    if not np.issubdtype(perms.dtype, np.integer):
        raise ValidationError(f"permutations must have an integer dtype, got {perms.dtype}")
    p, n = perms.shape
    if n != inst.n:
        raise ValidationError(f"permutations have {n} columns, instance has {inst.n} jobs")
    front = np.zeros((inst.m, p))
    cols = np.empty((inst.m, p))
    for t in range(n):
        np.take(inst.times, perms[:, t], axis=1, out=cols)
        front = _advance(front, cols)
    return front[-1]


def gap_percent(value: float, expert_value: float) -> float:
    """Percentage excess of ``value`` over ``expert_value``.

    Negative when the method beats the expert. Undefined for a zero
    expert makespan.
    """
    if expert_value <= 0:
        raise ValidationError("gap is undefined for a non-positive expert makespan")
    return 100.0 * (value - expert_value) / expert_value
