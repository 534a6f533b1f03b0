"""Output checks that do not use the library: makespan, permutation, lower bound.

The benchmark judges every item with these functions, so they are written
from the textbook definitions and share no code with ``flowshop`` or with
the oracles of its test suite.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9


def is_permutation(perm, n: int) -> bool:
    """True iff ``perm`` holds each integer of [0, n) exactly once."""
    values = list(perm)
    if len(values) != n:
        return False
    if any(int(v) != v for v in values):
        return False
    return sorted(int(v) for v in values) == list(range(n))


def completion_table(times, perm) -> list[list[float]]:
    """Completion time of the t-th scheduled job on machine i, cell by cell.

    C[i][t] = max(C[i-1][t], C[i][t-1]) + p[i][perm[t]], where a term
    outside the table counts as zero.
    """
    machines = len(times)
    table = [[0.0] * len(perm) for _ in range(machines)]
    for t, job in enumerate(perm):
        for i in range(machines):
            ready_machine = table[i][t - 1] if t > 0 else 0.0
            ready_job = table[i - 1][t] if i > 0 else 0.0
            table[i][t] = max(ready_machine, ready_job) + float(times[i][int(job)])
    return table


def makespan(times, perm) -> float:
    """Completion time of the last job on the last machine."""
    return completion_table(times, perm)[-1][-1]


def lower_bound(times) -> float:
    """max(largest machine load, largest job total): no schedule finishes earlier."""
    machine_loads = [sum(float(v) for v in row) for row in times]
    job_totals = [sum(float(row[j]) for row in times) for j in range(len(times[0]))]
    return max(max(machine_loads), max(job_totals))


def close(a: float, b: float) -> bool:
    """Equal up to the rounding of a different summation order."""
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def at_least(value: float, bound: float) -> bool:
    """``value >= bound`` with the same rounding allowance as :func:`close`."""
    return value >= bound - REL_TOL * abs(bound)
