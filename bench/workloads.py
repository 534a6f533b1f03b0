"""The benchmark workloads: inputs, one unit of work, and its checks.

Each workload turns the benchmark seed into Gamma(1, 2) instances, writes
them with ``instances.save_dataset`` and reads them back, and prepares what
its timed phase needs (:meth:`setup`). :meth:`run` then performs round
``index`` of the timed phase through the library's public entry points,
times the library calls, and checks their outputs with :mod:`oracle`.
Round ``index`` uses entry ``index % pool_size`` of a fixed pool, so the
traced run, which makes a fixed number of rounds, repeats exactly for a
seed.

Library functions are always looked up as module attributes at call time
(``heuristics.neh``, never a name imported once), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass

import numpy as np

import oracle
from flowshop import env, exact, harness, heuristics, instances, policy, training

TAILLARD_SEED = 873654221  # ta001, 20 jobs x 5 machines
TAILLARD_NEH = 1299.0


@dataclass
class Outcome:
    """One round of a workload."""

    items: int  # items attempted
    seconds: float  # wall time spent inside library calls
    latencies: list[float]  # wall time of each item, or of each optimizer step in training
    key: int = 0  # pool index the quality sample belongs to
    gap: float | None = None  # quality sample, percent
    loss: float | None = None  # final-epoch training loss
    error: str | None = None  # first failed check

    @property
    def failed(self) -> bool:
        return self.error is not None


def _gamma_dataset(workdir, tag: str, count: int, jobs: int, machines: int, seed: int):
    """Generate, save and load back one dataset; the loaded copy is what runs."""
    spec = instances.DatasetSpec(count=count, jobs=jobs, machines=machines, dist="gamma", k=1.0, theta=2.0, seed=seed)
    path = workdir / f"{tag}.fsd"
    instances.save_dataset(path, instances.generate(spec), spec)
    return instances.load_dataset(path)


def _sub_seed(seed: int, stream: int) -> int:
    """A seed for a second data stream that does not overlap the first."""
    return int(np.random.SeedSequence((seed, stream)).generate_state(1)[0])


class Solve:
    """``harness.solve_dataset`` on one 50x10 instance with the CLI defaults."""

    name = "solve-50x10"
    item = "one instance solved by neh, ig, ils and rs"
    items_per_round = 1
    pool_size = 256  # about as many items as a run reaches
    traced_rounds = 12
    config = harness.ExperimentConfig(methods=("neh", "ig", "ils", "rs"), seeds=3, seed=0, parallel=False)

    def setup(self, seed: int, workdir) -> list[str]:
        self.pool = _gamma_dataset(workdir, "solve", self.pool_size, 50, 10, seed)
        canary = instances.taillard_instance(20, 5, TAILLARD_SEED)
        perm, value = heuristics.neh(canary)
        if value != TAILLARD_NEH or oracle.makespan(canary.times, perm) != TAILLARD_NEH:
            return [f"NEH on Taillard 20x5 seed {TAILLARD_SEED} gave {value}, expected {TAILLARD_NEH}"]
        return []

    def run(self, index: int) -> Outcome:
        key = index % len(self.pool)
        inst = self.pool[key]
        started = time.perf_counter()
        report = harness.solve_dataset([inst], self.config)
        elapsed = time.perf_counter() - started
        out = Outcome(1, elapsed, [elapsed], key)
        rows = {row.method: row for row in report.rows}
        bound = oracle.lower_bound(inst.times)
        if sorted(rows) != sorted(self.config.methods):
            out.error = f"report rows {sorted(rows)} do not match the methods"
            return out
        out.gap = float(np.mean([rows[m].per_instance_gap_pct[0] for m in ("ig", "ils", "rs")]))
        if rows["neh"].per_instance_gap_pct != [0.0] or rows["neh"].mean_gap_pct != 0.0:
            out.error = f"NEH row gap is {rows['neh'].mean_gap_pct}, expected exactly 0"
        for row in rows.values():
            value = row.per_instance_makespan[0]
            if not (math.isfinite(value) and oracle.at_least(value, bound)):
                out.error = f"{row.method} makespan {value} is not a finite value above the lower bound {bound}"
        return out


class Train:
    """``training.train`` on NEH traces of 20x5 instances, desk-scale architecture.

    A round keeps the mix of the test suite's desk-scale training (2000
    traces, 20 epochs of 16 B=128 steps, greedy validation on 200
    instances per epoch): 25 validation instances per epoch of two steps
    give the same 12.5 greedy rollouts per optimizer step.
    """

    name = "train-bc-20x5"
    item = "one trace consumed by one optimizer step"
    traces = 256  # two B=128 steps per epoch
    epochs = 2
    validation = 25
    items_per_round = traces * epochs
    traced_rounds = 2

    def setup(self, seed: int, workdir) -> list[str]:
        train_set = _gamma_dataset(workdir, "train", self.traces, 20, 5, seed)
        self.val = _gamma_dataset(workdir, "val", self.validation, 20, 5, _sub_seed(seed, 1))
        # record_expert_traces binds neh as a default argument, so pass it explicitly
        self.trace_set = env.record_expert_traces(train_set, expert=heuristics.neh)
        self.val_reference = np.array([heuristics.neh(inst)[1] for inst in self.val])
        self.checkpoint = workdir / "train.fsc"
        self.config = training.TrainConfig(
            policy=policy.PolicyConfig(machines=5, hidden_dim=128, layers=3),
            epochs=self.epochs,
            batch_size=128,
            learning_rate=1e-4,
            lr_decay=0.96,
            seed=0,  # fixed initialisation: the benchmark seed changes only the data
            checkpoint_path=str(self.checkpoint),
        )
        return []

    def run(self, index: int) -> Outcome:
        steps: list[float] = []
        with _step_timer(steps):
            started = time.perf_counter()
            params, history = training.train(self.config, self.trace_set, self.val, self.val_reference)
            elapsed = time.perf_counter() - started
        last = history[-1]
        out = Outcome(self.items_per_round, elapsed, steps, 0, last["val_gap"], last["train_loss"])
        if len(history) != self.epochs or not all(math.isfinite(rec["train_loss"]) for rec in history):
            out.error = f"training history is not {self.epochs} finite epochs: {history}"
        elif last["val_gap"] is None or not math.isfinite(last["val_gap"]):
            out.error = f"validation gap is {last['val_gap']}"
        else:
            loaded, manifest = training.load_checkpoint(self.checkpoint)
            if manifest.get("epoch") != self.epochs or loaded.config != params.config:
                out.error = "checkpoint manifest does not match the trained model"
            elif sorted(loaded.tensors) != sorted(params.tensors) or not all(
                np.array_equal(loaded.tensors[k].data, params.tensors[k].data.astype(np.float32))
                for k in params.tensors
            ):
                out.error = "checkpoint tensors do not round-trip"
        return out


@contextlib.contextmanager
def _step_timer(latencies: list[float]):
    """Append the wall time of each optimizer step, from ``bc_loss`` call to ``Adam.step`` return."""
    loss_fn = training.bc_loss
    step_fn = training.Adam.__dict__["step"]
    started: list[float] = []

    def timed_loss(*args, **kwargs):
        started.append(time.perf_counter())
        return loss_fn(*args, **kwargs)

    def timed_step(self, *args, **kwargs):
        result = step_fn(self, *args, **kwargs)
        latencies.append(time.perf_counter() - started.pop())
        return result

    training.bc_loss, training.Adam.step = timed_loss, timed_step
    try:
        yield
    finally:
        training.bc_loss, training.Adam.step = loss_fn, step_fn


class Exact:
    """``exact.brute_force`` plus ``heuristics.neh`` on 8x5 instances."""

    name = "exact-8x5"
    item = "one instance enumerated and solved by NEH"
    items_per_round = 1
    pool_size = 64
    traced_rounds = pool_size

    def setup(self, seed: int, workdir) -> list[str]:
        self.pool = _gamma_dataset(workdir, "exact", self.pool_size, 8, 5, seed)
        return []

    def run(self, index: int) -> Outcome:
        key = index % len(self.pool)
        inst = self.pool[key]
        started = time.perf_counter()
        perm, optimum = exact.brute_force(inst)
        neh_perm, neh_value = heuristics.neh(inst)
        elapsed = time.perf_counter() - started
        out = Outcome(1, elapsed, [elapsed], key, 100.0 * (neh_value - optimum) / optimum)
        if not (oracle.is_permutation(perm, inst.n) and oracle.is_permutation(neh_perm, inst.n)):
            out.error = "an invalid permutation was returned"
        elif not oracle.close(optimum, oracle.makespan(inst.times, perm)):
            out.error = f"optimum {optimum} differs from the recurrence on its permutation"
        elif not oracle.close(neh_value, oracle.makespan(inst.times, neh_perm)):
            out.error = f"NEH makespan {neh_value} differs from the recurrence on its permutation"
        elif not (oracle.at_least(neh_value, optimum) and oracle.at_least(optimum, oracle.lower_bound(inst.times))):
            out.error = f"optimum {optimum} is not between the lower bound and NEH {neh_value}"
        return out


WORKLOADS = {w.name: w for w in (Solve, Train, Exact)}
