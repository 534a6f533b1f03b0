"""Ground truth at tiny scale: exhaustive enumeration and the MIP artifact.

The mixed-integer model uses precedence binaries z[j][k] over the job set
extended with a dummy job 0 (z[0][j] marks the first job, z[j][0] the
last), continuous start times y[i][j], and per-machine big-M constants
A_i. There is no built-in branch-and-bound: the model is emitted in LP
text form for external solvers, and feasibility/optimality is verified
in-process against the enumerator.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Instance, completion_times, makespan_batch, validate_permutation
from .errors import ValidationError

__all__ = [
    "BRUTE_FORCE_MAX_JOBS",
    "MipModel",
    "brute_force",
    "build_mip",
    "emit_mip",
    "check_mip_solution",
    "permutation_embedding",
    "big_m_constants",
]

BRUTE_FORCE_MAX_JOBS = 10
_TABLE_JOBS = 8


@functools.lru_cache(maxsize=None)
def _lex_permutations(r: int) -> np.ndarray:
    """All r! permutations of ``range(r)`` in lexicographic order, one per row.

    Row block f is the (r-1)-table with f prepended and every entry >= f
    shifted up by one. Cached read-only as uint8 (8! rows take 0.3 MB).
    """
    if r == 0:
        table = np.zeros((1, 0), dtype=np.uint8)
    else:
        sub = _lex_permutations(r - 1)
        table = np.empty((math.factorial(r), r), dtype=np.uint8)
        for f, rows in enumerate(np.split(table, r)):
            rows[:, 0] = f
            rows[:, 1:] = sub + (sub >= f)
    table.setflags(write=False)
    return table


def brute_force(inst: Instance) -> tuple[np.ndarray, float]:
    """Exact optimum by enumerating all n! permutations (n <= 10 guard).

    The enumeration runs in blocks of up to 8! rows, one
    ``makespan_batch`` call each. A block fixes a head, the first n - 8
    jobs (an empty head when n <= 8), and lists the remaining jobs in
    every order of a cached lexicographic table; heads come in
    lexicographic order too, so the blocks follow the global
    lexicographic order. Ties therefore return the lexicographically
    smallest optimal permutation, which is what strict improvement over
    that stream yields for free.
    """
    if inst.n > BRUTE_FORCE_MAX_JOBS:
        raise ValidationError(
            f"brute force is guarded at n <= {BRUTE_FORCE_MAX_JOBS}, got n={inst.n}"
        )
    n = inst.n
    table = _lex_permutations(min(n, _TABLE_JOBS))
    head_len = n - table.shape[1]
    block = np.empty((table.shape[0], n), dtype=np.int64)
    best_perm: np.ndarray | None = None
    best = np.inf
    for head in itertools.permutations(range(n), head_len):
        rest = np.array(sorted(set(range(n)).difference(head)), dtype=np.int64)
        block[:, :head_len] = head
        block[:, head_len:] = rest[table]
        values = makespan_batch(inst, block)
        k = int(np.argmin(values))
        if values[k] < best:
            best = float(values[k])
            best_perm = block[k].copy()
    return best_perm, best


def big_m_constants(inst: Instance) -> np.ndarray:
    """Per-machine upper bounds A_i on finishing times (cumulative row sums)."""
    return np.cumsum(inst.times.sum(axis=1))


@dataclass(frozen=True)
class MipConstraint:
    """One linear row: sum(coef * var) sense rhs, tagged by source equation."""

    name: str
    tag: str  # eq2..eq6
    terms: tuple[tuple[float, str], ...]
    sense: str  # "=" or "<="
    rhs: float


@dataclass(frozen=True)
class MipModel:
    """Structured model: variables, big-M constants, tagged constraint rows."""

    m: int
    n: int
    big_m: np.ndarray
    y_vars: tuple[str, ...]
    z_vars: tuple[str, ...]
    constraints: tuple[MipConstraint, ...]


def _yname(i: int, j: int) -> str:
    # 1-based machine/job indices at the I/O boundary
    return f"y_{i + 1}_{j + 1}"


def _zname(a: int, b: int) -> str:
    # indices over the extended job set: 0 = dummy, job j -> j+1
    return f"z_{a}_{b}"


def build_mip(inst: Instance) -> MipModel:
    """Assemble the assignment/precedence/chain constraint rows for ``inst``."""
    m, n = inst.m, inst.n
    x = inst.times
    big_m = big_m_constants(inst)
    ext = range(n + 1)  # extended job set, 0 is the dummy

    cons: list[MipConstraint] = []
    for k in ext:
        terms = tuple((1.0, _zname(j, k)) for j in ext if j != k)
        cons.append(MipConstraint(f"pred_{k}", "eq2", terms, "=", 1.0))
    for j in ext:
        terms = tuple((1.0, _zname(j, k)) for k in ext if k != j)
        cons.append(MipConstraint(f"succ_{j}", "eq3", terms, "=", 1.0))
    for i in range(m):
        a_i = float(big_m[i])
        for j in range(n):
            for k in range(n):
                if j == k:
                    continue
                # y_ij + x_ij <= y_ik + A_i (1 - z_jk)
                terms = (
                    (1.0, _yname(i, j)),
                    (-1.0, _yname(i, k)),
                    (a_i, _zname(j + 1, k + 1)),
                )
                cons.append(
                    MipConstraint(
                        f"prec_{i + 1}_{j + 1}_{k + 1}", "eq4", terms, "<=", a_i - float(x[i, j])
                    )
                )
    for j in range(n):
        terms = ((1.0, _yname(m - 1, j)), (-1.0, "Cmax"))
        cons.append(MipConstraint(f"span_{j + 1}", "eq5", terms, "<=", -float(x[m - 1, j])))
    for i in range(m - 1):
        for j in range(n):
            terms = ((1.0, _yname(i, j)), (-1.0, _yname(i + 1, j)))
            cons.append(MipConstraint(f"chain_{i + 1}_{j + 1}", "eq6", terms, "<=", -float(x[i, j])))

    y_vars = tuple(_yname(i, j) for i in range(m) for j in range(n))
    z_vars = tuple(_zname(a, b) for a in ext for b in ext if a != b)
    return MipModel(m=m, n=n, big_m=big_m, y_vars=y_vars, z_vars=z_vars, constraints=tuple(cons))


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def emit_mip(inst: Instance) -> str:
    """Render the model as LP-format text (minimize Cmax, binaries for z).

    Default LP bounds already give y >= 0 and Cmax >= 0, so no explicit
    Bounds section is needed. UTF-8, LF line endings, human-diffable.
    """
    model = build_mip(inst)
    lines = [
        f"\\ permutation flow-shop model: {inst.name or 'instance'}",
        f"\\ machines={model.m} jobs={model.n} (z indices: 0 = dummy job)",
        "Minimize",
        " obj: Cmax",
        "Subject To",
    ]
    for con in model.constraints:
        parts = []
        for coef, var in con.terms:
            if coef >= 0:
                parts.append(f"+ {_fmt(coef)} {var}")
            else:
                parts.append(f"- {_fmt(-coef)} {var}")
        body = " ".join(parts)
        sense = "=" if con.sense == "=" else "<="
        lines.append(f" {con.name}: {body} {sense} {_fmt(con.rhs)}")
    lines.append("Binaries")
    row: list[str] = []
    for name in model.z_vars:
        row.append(name)
        if len(row) == 10:
            lines.append(" " + " ".join(row))
            row = []
    if row:
        lines.append(" " + " ".join(row))
    lines.append("End")
    return "\n".join(lines) + "\n"


def permutation_embedding(inst: Instance, perm) -> tuple[np.ndarray, np.ndarray, float]:
    """Canonical (y, z, cmax) embedding of a permutation.

    Start times come from the completion matrix minus processing times;
    z is the adjacency of the job chain through the dummy job.
    """
    order = validate_permutation(perm, inst.n)
    c = completion_times(inst, order)
    y = np.zeros((inst.m, inst.n))
    for pos, job in enumerate(order):
        y[:, job] = c[:, pos] - inst.times[:, job]
    z = np.zeros((inst.n + 1, inst.n + 1))
    z[0, order[0] + 1] = 1.0
    for t in range(inst.n - 1):
        z[order[t] + 1, order[t + 1] + 1] = 1.0
    z[order[-1] + 1, 0] = 1.0
    return y, z, float(c[-1, -1])


def check_mip_solution(inst: Instance, y, z, cmax: float, tol: float = 1e-6) -> bool:
    """True iff (y, z, cmax) satisfies every model constraint within ``tol``."""
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if y.shape != (inst.m, inst.n):
        raise ValidationError(f"y must have shape {(inst.m, inst.n)}, got {y.shape}")
    if z.shape != (inst.n + 1, inst.n + 1):
        raise ValidationError(f"z must have shape {(inst.n + 1, inst.n + 1)}, got {z.shape}")

    # domains: eq7 binaries (diagonal unused, must stay 0), eq8 nonnegative starts
    if np.abs(z - np.round(z)).max() > tol or z.min() < -tol or z.max() > 1 + tol:
        return False
    if np.abs(np.diag(z)).max() > tol:
        return False
    if y.min() < -tol or cmax < -tol:
        return False

    values = {"Cmax": float(cmax)}
    for i in range(inst.m):
        for j in range(inst.n):
            values[_yname(i, j)] = float(y[i, j])
    for a in range(inst.n + 1):
        for b in range(inst.n + 1):
            if a != b:
                values[_zname(a, b)] = float(z[a, b])

    for con in build_mip(inst).constraints:
        lhs = sum(coef * values[var] for coef, var in con.terms)
        if con.sense == "=":
            if abs(lhs - con.rhs) > tol:
                return False
        elif lhs > con.rhs + tol:
            return False
    return True
