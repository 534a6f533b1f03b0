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

# makespan_batch rows per block: fastest of 2048/4096/8192 at m=5, and large
# enough that the per-call buffer is not returned to the OS and faulted in again
_BLOCK_ROWS = 8192


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


def validate_permutation(perm, n: int) -> np.ndarray:
    """Check that ``perm`` is a bijection on [0, n) and return it as an int array."""
    arr = np.asarray(perm)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValidationError(f"permutation must have length {n}, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.issubdtype(arr.dtype, np.number) or not (arr == np.floor(arr)).all():
            raise ValidationError("permutation entries must be integers")
    arr = arr.astype(np.int64)
    if n and (arr.min() < 0 or arr.max() >= n or np.bincount(arr, minlength=n).max() > 1):
        seen = np.zeros(n, dtype=bool)  # word the error by the first offender
        for v in arr:
            if v < 0 or v >= n:
                raise ValidationError(f"job index {v} out of range [0, {n})")
            if seen[v]:
                raise ValidationError(f"duplicate job index {v} in permutation")
            seen[v] = True
    return arr


def _completion(x: np.ndarray) -> np.ndarray:
    """Completion times of the jobs of ``x`` in order, from an empty shop.

    ``x`` has shape (m, ..., L): machines first, jobs last, and any
    number of independent sequences in between. The one scan of the
    recurrence (Taillard 1990, EJOR 47:65-74): with ``cs[i]`` the
    running sum of row i, unrolling ``C[i] = max(C[i-1], C[i, :-1]) +
    x[i]`` gives the max-plus prefix scan ``C[i] = cs[i] +
    maximum.accumulate(C[i-1] - cs_excl[i])``, where ``cs_excl[i] =
    cs[i] - x[i]``. It is kept as ``g[i] = C[i] - cs[i]``, so each
    machine costs one add and one accumulate over all jobs and
    sequences: ``g[i] = maximum.accumulate(g[i-1] + cs[i-1] -
    cs_excl[i])``.

    Equality contract: on integer-valued times every sum is exact, so
    every cell is bit-identical to a cell-by-cell evaluation. Float
    times re-associate the sums; cells then agree with it within 1e-9
    relative (in practice a few ulps).
    """
    cs = np.add.accumulate(x, axis=-1)
    g = cs[:-1] - cs[1:]
    g += x[1:]  # g[i-1] = cs[i-1] - cs_excl[i]
    prev = 0.0  # g[0] = C[0] - cs[0] = 0
    for row in g:
        row += prev
        np.maximum.accumulate(row, axis=-1, out=row)
        prev = row
    cs[1:] += g
    return cs


def _advance(front, cols) -> None:
    """Advance fronts (m, B) in place by one more job per column.

    ``front`` holds the m front rows and ``cols`` the job's m time rows,
    each (B,) or (1,); either may be an (m, ...) array or a list of its
    row views, which a caller stepping many times builds once. The one
    batched step of the recurrence, vectorized over the B columns:
    ``front[i] = max(front[i], front[i-1]) + cols[i]``, with no temporary.
    """
    prev = front[0]
    prev += cols[0]
    for i in range(1, len(front)):
        row = front[i]
        np.maximum(row, prev, out=row)
        row += cols[i]
        prev = row


def completion_times(inst: Instance, perm) -> np.ndarray:
    """Full m x n completion-time matrix of ``perm``, column t = t-th scheduled job.

    Computed by the :func:`_completion` scan: bit-identical to the
    cell-by-cell recurrence on integer-valued times, within 1e-9 relative
    on float times. Each row is nondecreasing; down a column, float times
    with zeros can dip by a rounding step. The bottom-right entry is the
    makespan.
    """
    return _completion(inst.times[:, validate_permutation(perm, inst.n)])


def makespan(inst: Instance, perm) -> float:
    """Makespan of ``perm``: the bottom-right entry of :func:`completion_times`."""
    return float(_completion(inst.times[:, validate_permutation(perm, inst.n)])[-1, -1])


def makespan_batch(inst: Instance, perms: np.ndarray) -> np.ndarray:
    """Makespans of many permutations at once.

    ``perms`` has shape (P, n), one permutation per row, with any integer
    dtype (uint8 included). The dtype, the shape and the column count are
    checked (``ValidationError``), and every entry is bounds-checked once
    per call: an index outside [0, n), negative ones included, raises
    ``IndexError``. Rows are not validated as permutations (callers
    generate them). Vectorized over the rows so enumeration and random
    search stay cheap: rows go in blocks of up to ``_BLOCK_ROWS``, and at
    each job a block gathers its processing times into an (m, block)
    buffer and advances an (m, block) front in place. Both are allocated
    once per call and reused by every block. It runs the recurrence
    cell by cell, so every makespan is bit-identical to a cell-by-cell
    evaluation on any times.
    """
    perms = np.asarray(perms)
    if not np.issubdtype(perms.dtype, np.integer):
        raise ValidationError(f"permutations must have an integer dtype, got {perms.dtype}")
    if perms.ndim != 2:
        raise ValidationError(f"permutations must be a (P, n) matrix, got shape {perms.shape}")
    p, n = perms.shape
    if n != inst.n:
        raise ValidationError(f"permutations have {n} columns, instance has {inst.n} jobs")
    if p and (perms.min() < 0 or perms.max() >= n):
        raise IndexError(f"job index out of range [0, {n})")
    out = np.empty(p)
    buf = np.empty((2, inst.m * min(p, _BLOCK_ROWS)))
    for lo in range(0, p, _BLOCK_ROWS):
        rows = perms[lo : lo + _BLOCK_ROWS]
        # contiguous views even for a short last block, so take() writes in place
        front, cols = buf[:, : inst.m * len(rows)].reshape(2, inst.m, len(rows))
        front.fill(0.0)
        front_rows, col_rows = list(front), list(cols)
        for t in range(n):
            np.take(inst.times, rows[:, t], axis=1, out=cols, mode="clip")
            _advance(front_rows, col_rows)
        out[lo : lo + len(rows)] = front[-1]
    return out


def gap_percent(value: float, expert_value: float) -> float:
    """Percentage excess of ``value`` over ``expert_value``.

    Negative when the method beats the expert. Undefined for a zero
    expert makespan.
    """
    if expert_value <= 0:
        raise ValidationError("gap is undefined for a non-positive expert makespan")
    return 100.0 * (value - expert_value) / expert_value
