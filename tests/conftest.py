"""Shared fixtures: frozen instances and the independent recurrence oracle."""

from pathlib import Path

import numpy as np
import pytest

from flowshop.core import Instance

FIXTURES = Path(__file__).parent / "fixtures"

# Drawn once from Gamma(1, 2) rounded to 2 decimals, then frozen.
FROZEN_3X4 = np.array(
    [
        [4.81, 4.67, 4.77, 0.56],
        [0.17, 2.91, 2.82, 6.25],
        [0.16, 2.09, 0.14, 2.18],
    ]
)

# Float agreement between the library and the oracle. The library's scan
# re-associates float sums, so on float times the two agree only within
# this relative tolerance; on integer-valued times every sum is exact and
# they must agree to the bit.
REL_TOL = 1e-9


def oracle_completion(times: np.ndarray, perm) -> np.ndarray:
    """Spreadsheet-style cell-by-cell recurrence, independent of the library.

    C[i][t] = max(C[i-1][t], C[i][t-1]) + x[i][perm[t]] with out-of-range
    terms treated as zero. Accepts partial sequences.
    """
    m = times.shape[0]
    c = np.zeros((m, len(perm)))
    for t, job in enumerate(perm):
        for i in range(m):
            up = c[i - 1, t] if i > 0 else 0.0
            left = c[i, t - 1] if t > 0 else 0.0
            c[i, t] = max(up, left) + times[i, job]
    return c


def oracle_makespan(times: np.ndarray, perm) -> float:
    return float(oracle_completion(times, perm)[-1, -1])


def random_instance(rng: np.random.Generator, n: int, m: int) -> Instance:
    return Instance(rng.gamma(1.0, 2.0, (m, n)))


@pytest.fixture
def frozen_3x4() -> Instance:
    return Instance(FROZEN_3X4, name="frozen-3x4")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(20240817))
