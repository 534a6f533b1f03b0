"""Instance generation, benchmark file parsing, and dataset persistence.

Generated data follows the two evaluation distributions (Gamma(k=1,
theta=2) and Normal(mu=6, sigma=6) with negatives clamped to zero) and is
a pure function of (spec, seed): instance i draws from a PCG64 stream
seeded by SeedSequence((seed, i)), so generation parallelizes per index.

Datasets persist as a one-line JSON header (format, version, generator,
per-instance shapes) followed by raw little-endian float64 matrices, so
save/load round-trips are bit-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import Instance
from .errors import DataError, ValidationError

__all__ = [
    "DatasetSpec",
    "generate",
    "parse_taillard",
    "parse_vrf",
    "save_dataset",
    "load_dataset",
    "taillard_instance",
    "TAILLARD_20_5_TIME_SEEDS",
]

_FORMAT = "flowshop-dataset"
_VERSION = 1
_GENERATOR = "pcg64"


@dataclass(frozen=True)
class DatasetSpec:
    """How to generate a dataset: size, shape, distribution, seed."""

    count: int
    jobs: int
    machines: int
    dist: str = "gamma"  # "gamma" or "normal"
    k: float = 1.0
    theta: float = 2.0
    mu: float = 6.0
    sigma: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError("count must be >= 1")
        if self.jobs < 1 or self.machines < 1:
            raise ValidationError("jobs and machines must be >= 1")
        if self.dist not in ("gamma", "normal"):
            raise ValidationError(f"unknown distribution {self.dist!r}")
        if self.dist == "gamma" and not (0 < self.k < math.inf and 0 < self.theta < math.inf):
            raise ValidationError("gamma parameters must be positive and finite")
        if self.dist == "normal" and not (math.isfinite(self.mu) and 0 <= self.sigma < math.inf):
            raise ValidationError("normal mu and sigma must be finite, sigma >= 0")


def _instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def generate(spec: DatasetSpec) -> list[Instance]:
    """Draw ``spec.count`` i.i.d. instances; Normal entries are clamped at zero."""
    out = []
    for idx in range(spec.count):
        rng = _instance_rng(spec.seed, idx)
        shape = (spec.machines, spec.jobs)
        if spec.dist == "gamma":
            times = rng.gamma(shape=spec.k, scale=spec.theta, size=shape)
        else:
            times = np.maximum(rng.normal(spec.mu, spec.sigma, size=shape), 0.0)
        name = f"{spec.dist}-n{spec.jobs}-m{spec.machines}-s{spec.seed}-{idx:05d}"
        out.append(Instance(times, name=name, meta={"spec_index": idx}))
    return out


# --- benchmark text formats ------------------------------------------------


def _numbers(line: str) -> list[float] | None:
    try:
        return [float(tok) for tok in line.split()]
    except ValueError:
        return None


def _header(lines: list[str], pos: int) -> list[int]:
    """The whole-number fields of the "jobs machines ..." header at ``lines[pos]``; jobs and machines >= 1."""
    fields = _numbers(lines[pos])
    if fields is None or len(fields) < 2 or not all(v.is_integer() for v in fields):
        raise DataError(f"line {pos + 1}: malformed header {lines[pos]!r}")
    fields = [int(v) for v in fields]
    if fields[0] < 1 or fields[1] < 1:
        raise DataError(f"line {pos + 1}: non-positive job/machine count")
    return fields


def parse_taillard(text: str) -> list[Instance]:
    """Parse concatenated instances in the classic machine-major layout.

    Each block: an optional description line, a numbers line starting
    with the job and machine counts (extra fields such as the generator
    seed and bounds are kept in ``meta``), an optional "processing times"
    line, then m rows of n processing times.
    """
    lines = text.splitlines()
    pos = 0
    out: list[Instance] = []

    def skip_blank(p: int) -> int:
        while p < len(lines) and not lines[p].strip():
            p += 1
        return p

    while True:
        pos = skip_blank(pos)
        if pos >= len(lines):
            break
        if _numbers(lines[pos]) is None:  # description line
            pos = skip_blank(pos + 1)
        if pos >= len(lines):
            raise DataError(f"line {len(lines)}: expected a 'jobs machines' header, got end of file")
        header = _header(lines, pos)
        n, m = header[:2]
        meta = {}
        if len(header) >= 3:
            meta["time_seed"] = header[2]
        if len(header) >= 5:
            meta["upper_bound"], meta["lower_bound"] = header[3:5]
        pos = skip_blank(pos + 1)
        if pos < len(lines) and _numbers(lines[pos]) is None:  # "processing times :" line
            pos = skip_blank(pos + 1)
        times = np.zeros((m, n))
        for i in range(m):
            if pos >= len(lines):
                raise DataError(f"line {len(lines)}: missing machine row {i + 1} of {m}")
            row = _numbers(lines[pos])
            if row is None or len(row) != n:
                got = 0 if row is None else len(row)
                raise DataError(f"line {pos + 1}: machine row {i + 1} has {got} entries, expected {n}")
            times[i] = row
            pos = skip_blank(pos + 1)
        out.append(Instance(times, name=f"taillard-{len(out) + 1}", meta=meta))
    return out


def parse_vrf(text: str) -> list[Instance]:
    """Parse the per-job (machine-index, time) pair layout."""
    lines = text.splitlines()
    pos = 0
    while pos < len(lines) and not lines[pos].strip():
        pos += 1
    if pos >= len(lines):
        raise DataError("empty file")
    n, m = _header(lines, pos)[:2]
    times = np.zeros((m, n))
    row = 0
    pos += 1
    while row < n:
        if pos >= len(lines):
            raise DataError(f"line {len(lines)}: missing job row {row + 1} of {n}")
        if not lines[pos].strip():
            pos += 1
            continue
        toks = _numbers(lines[pos])
        if toks is None or len(toks) != 2 * m:
            got = 0 if toks is None else len(toks)
            raise DataError(f"line {pos + 1}: job row {row + 1} has {got} fields, expected {2 * m}")
        for q in range(m):
            if toks[2 * q] != q:
                raise DataError(f"line {pos + 1}: machine index {toks[2 * q]:g} at pair {q}, expected {q}")
            times[q, row] = toks[2 * q + 1]
        row += 1
        pos += 1
    return [Instance(times, name="vrf-1")]


# --- authentic benchmark regeneration --------------------------------------

# Published per-instance time seeds for the 20-job 5-machine group.
TAILLARD_20_5_TIME_SEEDS = (
    873654221, 379008056, 1866992158, 216771124, 495070989,
    402959317, 1369363414, 2021925980, 573109518, 88325120,
)


def _lcg_unif(seed: int, low: int, high: int) -> tuple[int, int]:
    # Portable Bratley-Fox-Schrage generator used by the benchmark suite.
    a, b, c, mod = 16807, 127773, 2836, 2**31 - 1
    k = seed // b
    seed = a * (seed - k * b) - k * c
    if seed < 0:
        seed += mod
    return low + int(seed / mod * (high - low + 1)), seed


def taillard_instance(n: int, m: int, time_seed: int, name: str = "") -> Instance:
    """Regenerate a benchmark instance from its published time seed.

    Times are uniform integers in [1, 99], drawn machine-major, exactly
    as the distributed files were produced; parsing a published file and
    regenerating from its header seed must agree entry for entry.
    """
    seed = time_seed
    times = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            v, seed = _lcg_unif(seed, 1, 99)
            times[i, j] = v
    return Instance(times, name=name or f"tai-{n}x{m}-{time_seed}", meta={"time_seed": time_seed})


# --- dataset container ------------------------------------------------------


def save_dataset(path, instances: list[Instance], spec: DatasetSpec | None = None) -> None:
    """Write the one-line JSON header plus packed float64 bodies."""
    header = {
        "format": _FORMAT,
        "version": _VERSION,
        "generator": _GENERATOR,
        "count": len(instances),
        "spec": asdict(spec) if spec is not None else None,
        "instances": [{"name": inst.name, "m": inst.m, "n": inst.n} for inst in instances],
    }
    _write_container(path, header, (np.ascontiguousarray(inst.times, dtype="<f8").tobytes() for inst in instances))


def load_dataset(path) -> list[Instance]:
    """Inverse of :func:`save_dataset`; exact to the bit.

    A malformed header raises ``DataError``: a wrong format tag or version,
    a header or instance entry that is not an object, or a ``count`` or an
    entry's ``m`` or ``n`` that is not a non-negative integer.
    """
    header, body = _read_container(path, _FORMAT, _VERSION, "dataset header")
    count = _header_size(header.get("count"), "dataset header count")
    entries = header.get("instances", [])
    if not isinstance(entries, list):
        raise DataError("dataset header 'instances' must be a list")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"dataset header instance {k} must be a JSON object")
        _header_size(entry.get("m"), f"dataset header instance {k} 'm'")
        _header_size(entry.get("n"), f"dataset header instance {k} 'n'")
    if len(entries) != count:
        raise DataError("dataset header count disagrees with the instance list")
    expected = sum(e["m"] * e["n"] for e in entries) * 8
    if len(body) != expected:
        raise DataError(f"dataset body has {len(body)} bytes, expected {expected}")
    out = []
    offset = 0
    for e in entries:
        size = e["m"] * e["n"] * 8
        times = np.frombuffer(body[offset : offset + size], dtype="<f8").reshape(e["m"], e["n"])
        offset += size
        out.append(Instance(times, name=e.get("name", "")))
    return out


def _write_container(path, header: dict, blobs) -> None:
    """Write a container file: ``header`` as one JSON line, then each bytes blob in order."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for blob in blobs:
            fh.write(blob)


def _read_container(path, fmt: str, version: int, what: str) -> tuple[dict, bytes]:
    """A container file's JSON header line and the body after it.

    The header must decode to an object carrying ``fmt`` and ``version``;
    anything else raises ``DataError`` naming ``what``. The callers check
    their own keys.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        body = fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"unreadable {what}: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{what} must be a JSON object")
    if header.get("format") != fmt:
        raise DataError(f"not a {fmt} file")
    if header.get("version") != version:
        raise DataError(f"unsupported {what} version {header.get('version')!r}, expected {version}")
    return header, body


def _header_size(value, what: str) -> int:
    """``value`` if it is a non-negative integer, else ``DataError`` naming ``what``."""
    # bool is an int subclass, but true/false is no size
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise DataError(f"{what} must be a non-negative integer, got {value!r}")
    return value

