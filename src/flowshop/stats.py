"""Paired significance testing for solver comparisons."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["WilcoxonResult", "wilcoxon_signed_rank"]

MIN_NONZERO_PAIRS = 6


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float  # rank sum of positive differences (W+)
    z: float
    p_value: float
    n_nonzero: int
    significant: bool  # two-sided at the 5% level


def wilcoxon_signed_rank(a, b, alpha: float = 0.05) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test via the normal approximation.

    Zero differences are dropped; at least six nonzero pairs are
    required. Tied |difference| groups share average ranks and shrink
    the variance by the usual sum(t^3 - t)/48 correction.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError("paired samples must be 1-D and of equal length")
    diff = a - b
    diff = diff[diff != 0.0]
    n = len(diff)
    if n < MIN_NONZERO_PAIRS:
        raise ValidationError(
            f"need at least {MIN_NONZERO_PAIRS} nonzero pairs, got {n}"
        )
    # one tie group per distinct |difference|: its members share the mean of
    # the ranks they span, and its size t enters the variance correction
    _, group, counts = np.unique(np.abs(diff), return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[group]
    w_plus = float(ranks[diff > 0].sum())

    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    variance -= float(((counts**3 - counts).sum())) / 48.0
    z = (w_plus - mean) / math.sqrt(variance)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return WilcoxonResult(
        statistic=w_plus,
        z=z,
        p_value=p,
        n_nonzero=n,
        significant=p < alpha,
    )
