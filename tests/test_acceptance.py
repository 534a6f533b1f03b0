"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The behavior-cloning criteria (6-8) share one training run via
a session fixture; the whole module is sized for a laptop CPU, and marked
``slow`` so that ``pytest -m "not slow"`` leaves it out of a quick run.
"""

import hashlib
import time

import numpy as np
import pytest

from flowshop.core import Instance, gap_percent, makespan, makespan_batch, validate_permutation
from flowshop.env import record_expert_traces, reset, step
from flowshop.exact import brute_force, check_mip_solution, permutation_embedding
from flowshop.harness import ExperimentConfig, solve_dataset
from flowshop.heuristics import (
    HeuristicBudget,
    IgParams,
    iterated_greedy,
    iterated_local_search,
    neh,
    random_search,
)
from flowshop.instances import DatasetSpec, generate, parse_taillard, parse_vrf
from flowshop.policy import PolicyConfig, PolicyParams, TraceBatch, bc_loss, build_graph, decode_step, encode
from flowshop.training import TrainConfig, load_checkpoint, train

from conftest import FIXTURES
from test_instances import (
    TAILLARD_FIXTURE_SHA,
    TAILLARD_MATRIX_SHA,
    VRF_FIXTURE_SHA,
    VRF_MATRIX_SHA,
    _matrix_sha,
)

pytestmark = pytest.mark.slow


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def oracle_makespans_all(times: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Direct-recurrence oracle over the full completion matrix, one row per perm."""
    p, n = perms.shape
    m = times.shape[0]
    c = np.zeros((p, m, n))
    for t in range(n):
        cols = times[:, perms[:, t]]
        for i in range(m):
            up = c[:, i - 1, t] if i > 0 else 0.0
            left = c[:, i, t - 1] if t > 0 else 0.0
            c[:, i, t] = np.maximum(up, left) + cols[i]
    return c[:, -1, -1]


def all_permutations(n: int) -> np.ndarray:
    import itertools

    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def test_criterion_1_makespan_oracle_equivalence():
    started = time.perf_counter()
    r = np.random.Generator(np.random.PCG64(1001))
    checked_perms = 0
    for idx in range(200):
        n = int(r.integers(2, 9))
        m = int(r.choice([2, 5]))
        inst = Instance(r.gamma(1.0, 2.0, (m, n)))
        perms = all_permutations(n)
        fast = makespan_batch(inst, perms)
        oracle = oracle_makespans_all(inst.times, perms)
        assert (fast == oracle).all()  # exact equality, same recurrence semantics
        checked_perms += len(perms)

        _, opt = brute_force(inst)
        heuristics = [
            neh(inst)[1],
            random_search(inst, HeuristicBudget(max_iterations=50, rng_seed=idx))[1],
            iterated_local_search(inst, HeuristicBudget(max_iterations=3, rng_seed=idx))[1],
        ]
        if n >= 3:
            heuristics.append(
                iterated_greedy(
                    inst, IgParams(d_jobs=2, budget=HeuristicBudget(max_iterations=3, rng_seed=idx))
                )[1]
            )
        assert all(opt <= h + 1e-9 for h in heuristics)
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _report(1, f"{checked_perms} permutations across 200 instances, exact match, {elapsed:.1f}s")


def test_criterion_2_neh_near_optimality():
    started = time.perf_counter()
    suite = generate(DatasetSpec(count=100, jobs=8, machines=5, dist="gamma", seed=2002))
    gaps = []
    for inst in suite:
        _, opt = brute_force(inst)
        _, value = neh(inst)
        assert value >= opt - 1e-9
        gaps.append(gap_percent(value, opt))
    mean_gap = float(np.mean(gaps))
    elapsed = time.perf_counter() - started
    assert mean_gap <= 8.0
    assert elapsed < 300
    _report(2, f"mean NEH gap to optimum {mean_gap:.2f}% (<= 8%), {elapsed:.1f}s")


def test_criterion_3_heuristic_ordering():
    started = time.perf_counter()
    instances = generate(DatasetSpec(count=100, jobs=20, machines=5, dist="gamma", seed=3003))
    config = ExperimentConfig(methods=("neh", "ig", "ils", "rs"), seeds=3, seed=0)
    report = solve_dataset(instances, config)
    by_method = {row.method: row for row in report.rows}
    means = {name: by_method[name].mean_makespan for name in ("neh", "ig", "ils", "rs")}
    assert means["neh"] <= means["ig"] <= means["ils"] <= means["rs"]
    rs_row = by_method["rs"]
    assert rs_row.extra["wilcoxon_p_vs_expert"] < 0.05
    assert rs_row.extra["wilcoxon_significant"]
    elapsed = time.perf_counter() - started
    assert elapsed < 900
    _report(
        3,
        "mean makespans NEH {neh:.2f} <= IG {ig:.2f} <= ILS {ils:.2f} <= RS {rs:.2f}, "
        "NEH<RS p={p:.1e}, {t:.0f}s".format(**means, p=rs_row.extra["wilcoxon_p_vs_expert"], t=elapsed),
    )


def test_criterion_4_gradient_check():
    started = time.perf_counter()
    r = np.random.Generator(np.random.PCG64(4004))
    results = []
    for norm in ("batch", "layer"):
        config = PolicyConfig(machines=2, hidden_dim=4, layers=1, heads=2, normalization=norm)
        params = PolicyParams.init(config, seed=44)
        instances = [Instance(r.gamma(1.0, 2.0, (2, 3))) for _ in range(2)]
        batch = TraceBatch.from_traces(record_expert_traces(instances), config)
        _, grads = bc_loss(params, batch)
        eps = 1e-5
        worst = 0.0
        for name, tensor in params.tensors.items():
            flat = tensor.data.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _ = bc_loss(params, batch)
                flat[idx] = orig - eps
                down, _ = bc_loss(params, batch)
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                analytic = grads[name].reshape(-1)[idx]
                rel = abs(analytic - numeric) / max(abs(numeric), 1e-6)
                worst = max(worst, rel)
                assert rel < 1e-4, f"{norm}/{name}[{idx}]: analytic {analytic} vs fd {numeric}"
        results.append(f"{norm}: max rel err {worst:.2e}")
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _report(4, "; ".join(results) + f", {elapsed:.1f}s")


def test_criterion_5_masking_probability_invariants():
    started = time.perf_counter()
    r = np.random.Generator(np.random.PCG64(5005))
    config = PolicyConfig(machines=3, hidden_dim=8, layers=1, heads=2)
    params = PolicyParams.init(config, seed=55)
    steps_checked = 0
    while steps_checked < 100_000:
        n = int(r.integers(2, 17))
        inst = Instance(r.gamma(1.0, 2.0, (3, n)))
        acts = encode(params, build_graph(inst))
        state = reset(inst)
        per_instance = min(100_000 - steps_checked, 600)
        for _ in range(per_instance):
            t = int(r.integers(0, n))  # revisit random depths by replaying
            if state.t > t or state.done:
                state = reset(inst)
            while state.t < t and not state.done:
                state = step(state, int(r.choice(sorted(state.unscheduled))))
            if state.done:
                state = reset(inst)
            probs = decode_step(params, acts, state)
            scheduled = list(state.scheduled)
            assert (probs[scheduled] == 0.0).all()
            assert abs(probs.sum() - 1.0) <= 1e-12
            finite = acts.logits[np.isfinite(acts.logits)]
            assert finite.size == len(state.unscheduled)
            assert (finite >= -10.0).all() and (finite <= 10.0).all()
            steps_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _report(5, f"{steps_checked} decode steps, masked mass 0, sums within 1e-12, {elapsed:.1f}s")


@pytest.fixture(scope="session")
def desk_scale_run(tmp_path_factory):
    """Criterion-6 training run, shared by criteria 6-8."""
    tmp = tmp_path_factory.mktemp("bc")
    train_instances = generate(DatasetSpec(count=2000, jobs=20, machines=5, dist="gamma", seed=100))
    traces = record_expert_traces(train_instances)
    held_out = generate(DatasetSpec(count=200, jobs=20, machines=5, dist="gamma", seed=999))
    config = TrainConfig(
        policy=PolicyConfig(machines=5),
        epochs=20,
        batch_size=128,
        learning_rate=1e-4,
        lr_decay=0.96,
        seed=0,
        checkpoint_path=str(tmp / "policy.fsc"),
        log_path=str(tmp / "train.jsonl"),
    )
    started = time.perf_counter()
    params, history = train(config, traces, held_out)
    elapsed = time.perf_counter() - started
    return {
        "params": params,
        "history": history,
        "checkpoint": str(tmp / "policy.fsc"),
        "elapsed": elapsed,
        "held_out": held_out,
    }


def test_criterion_6_desk_scale_behavior_cloning(desk_scale_run):
    history = desk_scale_run["history"]
    final_gap = history[-1]["val_gap"]
    assert final_gap is not None
    assert final_gap <= 8.0
    assert desk_scale_run["elapsed"] < 45 * 60
    losses = [rec["train_loss"] for rec in history]
    smooth = np.convolve(losses, np.ones(5) / 5, mode="valid")
    assert (np.diff(smooth) <= 1e-6).all()  # 5-epoch moving average nonincreasing
    _report(
        6,
        f"20 epochs on 2000 traces: val gap {final_gap:.2f}% (<= 8%), "
        f"{desk_scale_run['elapsed'] / 60:.1f} min",
    )


def test_criterion_7_size_generalization(desk_scale_run):
    started = time.perf_counter()
    params, _ = load_checkpoint(desk_scale_run["checkpoint"])
    instances = generate(DatasetSpec(count=50, jobs=100, machines=5, dist="gamma", seed=7007))
    expert = np.array([neh(inst)[1] for inst in instances])

    from flowshop.policy import rollout_greedy

    policy_gaps = []
    for inst, ref in zip(instances, expert):
        perm = rollout_greedy(params, inst)
        validate_permutation(perm, inst.n)
        policy_gaps.append(gap_percent(makespan(inst, perm), ref))
    rs_gaps = [
        gap_percent(
            random_search(inst, HeuristicBudget(max_iterations=10_000, rng_seed=k))[1], ref
        )
        for k, (inst, ref) in enumerate(zip(instances, expert))
    ]
    policy_mean = float(np.mean(policy_gaps))
    rs_mean = float(np.mean(rs_gaps))
    elapsed = time.perf_counter() - started
    assert policy_mean < rs_mean
    assert elapsed < 900
    _report(
        7,
        f"n=100 without retraining: policy gap {policy_mean:.2f}% < random-search gap "
        f"{rs_mean:.2f}%, {elapsed:.0f}s",
    )


def test_criterion_8_sigma_zero_exact_tie(desk_scale_run):
    from flowshop.harness import sweep_sigma

    report = sweep_sigma(
        [0.0],
        f"policy:{desk_scale_run['checkpoint']}",
        "neh",
        count=20,
        jobs=20,
        machines=5,
        seed=8008,
    )
    for row in report.rows:
        assert row.mean_gap_pct == 0.0  # identical jobs: every permutation ties
        assert all(g == 0.0 for g in row.per_instance_gap_pct)
    _report(8, "sigma=0: learned policy gap exactly 0.0 == expert replay gap")


def test_criterion_9_mip_embedding_soundness():
    started = time.perf_counter()
    r = np.random.Generator(np.random.PCG64(9009))
    tol = 1e-6
    perturbations = 0
    for _ in range(50):
        n = int(r.integers(2, 7))
        m = int(r.integers(2, 5))
        inst = Instance(r.gamma(1.0, 2.0, (m, n)))
        perm, opt = brute_force(inst)
        y, z, cmax = permutation_embedding(inst, perm)
        assert check_mip_solution(inst, y, z, cmax, tol=tol)
        assert cmax == pytest.approx(opt, abs=1e-12)

        for i in range(m):  # every start pushed below its binding constraint
            for j in range(n):
                bad = y.copy()
                bad[i, j] -= 10 * tol
                assert not check_mip_solution(inst, bad, z, cmax, tol=tol)
                perturbations += 1
        bad_z = z.copy()
        free = [(a, b) for a in range(n + 1) for b in range(n + 1) if a != b and z[a, b] == 0.0]
        a, b = free[int(r.integers(0, len(free)))]
        bad_z[a, b] = 1.0  # breaks an assignment row/column sum
        assert not check_mip_solution(inst, y, bad_z, cmax, tol=tol)
        assert not check_mip_solution(inst, y, z, cmax - 10 * tol, tol=tol)
        perturbations += 2
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _report(9, f"50 optima embedded feasibly; {perturbations} perturbations all rejected, {elapsed:.1f}s")


def test_criterion_10_benchmark_ingestion():
    taillard_raw = (FIXTURES / "tai20_5_1.txt").read_bytes()
    vrf_raw = (FIXTURES / "vrf10_5_1.txt").read_bytes()
    assert hashlib.sha256(taillard_raw).hexdigest() == TAILLARD_FIXTURE_SHA
    assert hashlib.sha256(vrf_raw).hexdigest() == VRF_FIXTURE_SHA

    taillard = parse_taillard(taillard_raw.decode())[0]
    vrf = parse_vrf(vrf_raw.decode())[0]
    assert (taillard.m, taillard.n) == (5, 20)
    assert (vrf.m, vrf.n) == (5, 10)
    assert _matrix_sha(taillard.times) == TAILLARD_MATRIX_SHA
    assert _matrix_sha(vrf.times) == VRF_MATRIX_SHA

    details = []
    for name, inst in (("taillard-20x5", taillard), ("vrf-10x5", vrf)):
        report = solve_dataset([inst], ExperimentConfig(methods=("neh",), seeds=1))
        row = report.rows[0]
        assert row.mean_gap_pct == 0.0
        details.append(f"{name}: NEH makespan {row.mean_makespan:.0f}, gap 0.0%")
    _report(10, "; ".join(details))
