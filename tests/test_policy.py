"""Policy network: graph, encoder, decoder, rollouts, and the BC loss."""

import functools
import hashlib
import math
import platform
import tracemalloc

import numpy as np
import pytest

from flowshop.core import Instance, validate_permutation
from flowshop.env import ExpertTrace, load_traces, record_expert_traces, reset, save_traces, step
from flowshop.errors import NumericError, ValidationError
from flowshop.heuristics import HeuristicBudget, random_search
from flowshop.instances import DatasetSpec, generate
from flowshop import autograd as ag
from flowshop import policy
from flowshop.autograd import Tensor
from flowshop.policy import (
    PolicyConfig,
    PolicyParams,
    TraceBatch,
    bc_loss,
    build_graph,
    decode_step,
    encode,
    rollout_greedy,
)

from conftest import random_instance
from test_autograd import composed_edge_preactivation, composed_node_preactivation, composed_residual_normalize

TINY = dict(hidden_dim=4, layers=1, heads=2, machines=2)


def tiny_params(norm="none", seed=0, **overrides):
    cfg = PolicyConfig(normalization=norm, **{**TINY, **overrides})
    return PolicyParams.init(cfg, seed=seed)


class TestPolicyConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValidationError):
            PolicyConfig(machines=2, hidden_dim=6, heads=4)

    def test_bad_fraction(self):
        with pytest.raises(ValidationError):
            PolicyConfig(machines=2, neighbor_fraction=0.0)

    def test_bad_aggregation(self):
        with pytest.raises(ValidationError):
            PolicyConfig(machines=2, aggregation="median")

    @pytest.mark.parametrize("clip", [float("nan"), float("inf"), 0.0])
    def test_logit_clip_positive_and_finite(self, clip):
        with pytest.raises(ValidationError, match="logit_clip"):
            PolicyConfig(machines=2, logit_clip=clip)


class TestBuildGraph:
    def test_needs_two_jobs(self):
        with pytest.raises(ValidationError):
            build_graph(Instance(np.array([[1.0], [2.0]])))

    def test_neighbor_count_formula(self, rng):
        inst = random_instance(rng, n=20, m=5)
        g = build_graph(inst, rho=0.2)
        assert g.k == 4
        assert g.neighbors.shape == (20, 4)
        g2 = build_graph(random_instance(rng, n=2, m=5), rho=0.2)
        assert g2.k == 1  # floor(0.4) = 0, floored up to 1
        g3 = build_graph(random_instance(rng, n=5, m=5), rho=1.0)
        assert g3.k == 4  # capped at n - 1

    def test_no_self_loops(self, rng):
        inst = random_instance(rng, n=10, m=3)
        g = build_graph(inst, rho=0.5)
        for j in range(10):
            assert j not in g.neighbors[j]

    def test_identical_jobs_tie_rule(self):
        inst = Instance(np.tile(np.array([[2.0], [3.0]]), (1, 6)))
        g = build_graph(inst, rho=0.5)
        assert g.k == 3
        for j in range(6):
            expected = [i for i in range(6) if i != j][:3]  # lowest indices
            assert list(g.neighbors[j]) == expected
            assert np.all(g.distances[j] == 0.0)

    @pytest.mark.parametrize("n, m, rho", [(30, 3, 0.5), (17, 1, 0.2), (12, 2, 1.0)])
    def test_lexsort_rule_on_tie_heavy_integer_features(self, rng, n, m, rho):
        # small integer times: many exactly equal distances, broken by lower index
        times = rng.integers(0, 3, (m, n)).astype(float)
        g = build_graph(Instance(times), rho=rho)
        sq = ((times.T[:, None, :] - times.T[None, :, :]) ** 2).sum(axis=-1)
        np.fill_diagonal(sq, np.inf)
        for j in range(n):
            expected = np.lexsort((np.arange(n), sq[j]))[: g.k]
            assert g.neighbors[j].tolist() == expected.tolist()
            assert np.array_equal(g.distances[j], np.sqrt(sq[j, expected]))
        assert g.neighbors.dtype == np.int64

    def test_matches_exhaustive_distance_sort(self, rng):
        inst = random_instance(rng, n=5, m=4)
        g = build_graph(inst, rho=0.4)
        feats = inst.times.T
        for j in range(5):
            dists = [
                (float(np.linalg.norm(feats[j] - feats[o])), o) for o in range(5) if o != j
            ]
            expected = [o for _, o in sorted(dists)][: g.k]
            assert list(g.neighbors[j]) == expected
            assert np.allclose(
                g.distances[j], sorted(d for d, _ in dists)[: g.k], atol=1e-12
            )


def oracle_encode_none_norm(params, graph):
    """Scalar re-evaluation of the gated-graph layer stack (Nm = identity)."""
    t = {k: v.data for k, v in params.tensors.items()}
    cfg = params.config
    n, k = graph.n, graph.k
    h = np.array([t["w_h"] @ graph.features[j] for j in range(n)])
    e = np.zeros((n, k, cfg.hidden_dim))
    for j in range(n):
        for q in range(k):
            e[j, q] = t["w_e"] * graph.distances[j, q]
    layers_h = [h.copy()]
    for layer in range(cfg.layers):
        B, C = t[f"enc{layer}_B"], t[f"enc{layer}_C"]
        new_h = h.copy()
        for j in range(n):
            msgs = []
            for q, nbr in enumerate(graph.neighbors[j]):
                gate = 1.0 / (1.0 + np.exp(-e[j, q]))
                msgs.append(gate * (C @ h[nbr]))
            if cfg.aggregation == "mean":
                agg = np.mean(msgs, axis=0)
            elif cfg.aggregation == "sum":
                agg = np.sum(msgs, axis=0)
            else:
                agg = np.max(msgs, axis=0)
            new_h[j] = h[j] + np.maximum(B @ h[j] + agg, 0.0)
        new_e = e.copy()
        if layer + 1 < cfg.layers:  # the last layer has no edge update
            D, E, F = t[f"enc{layer}_D"], t[f"enc{layer}_E"], t[f"enc{layer}_F"]
            for j in range(n):
                for q, nbr in enumerate(graph.neighbors[j]):
                    pre = D @ e[j, q] + E @ h[j] + F @ h[nbr]
                    new_e[j, q] = e[j, q] + np.maximum(pre, 0.0)
        h, e = new_h, new_e
        layers_h.append(h.copy())
    return layers_h, h.mean(axis=0)


def oracle_decode(params, acts, state):
    """Scalar re-evaluation of context refinement and clipped masked logits."""
    t = {k: v.data for k, v in params.tensors.items()}
    cfg = params.config
    h = acts.node_layers[-1]
    n, d = h.shape
    heads, dh = cfg.heads, cfg.hidden_dim // cfg.heads
    if state.t == 0:
        ctx = np.concatenate([acts.graph_embedding, t["v1"], t["v2"]])
    else:
        ctx = np.concatenate(
            [acts.graph_embedding, h[state.scheduled[0]], h[state.scheduled[-1]]]
        )
    q_full = t["mha_wq"] @ ctx
    k_full = h @ t["mha_wk"].T
    v_full = h @ t["mha_wv"].T
    mixed = np.zeros(d)
    for head in range(heads):
        sl = slice(head * dh, (head + 1) * dh)
        scores = k_full[:, sl] @ q_full[sl] / math.sqrt(dh)
        attn = np.exp(scores - scores.max())
        attn /= attn.sum()
        mixed[sl] = attn @ v_full[:, sl]
    h_c = t["mha_wo"] @ mixed
    query = t["out_wq"] @ h_c
    logits = np.full(n, -np.inf)
    for j in state.unscheduled:
        logits[j] = cfg.logit_clip * math.tanh(query @ (t["out_wk"] @ h[j]) / math.sqrt(d))
    finite = logits[np.isfinite(logits)]
    e = np.exp(logits - finite.max())
    probs = e / e.sum()
    return h_c, logits, probs


class TestEncode:
    def test_identical_jobs_equal_embeddings(self):
        inst = Instance(np.tile(np.array([[2.0], [1.0]]), (1, 5)))
        params = tiny_params(norm="none")
        acts = encode(params, build_graph(inst))
        for h in acts.node_layers:
            assert np.allclose(h, h[0], atol=1e-12)

    def test_zero_weights_pure_residual(self, rng):
        # two layers: the edge update of layer 0 runs between the node updates
        inst = random_instance(rng, n=4, m=2)
        params = tiny_params(norm="none", layers=2)
        for name, tensor in params.tensors.items():
            if name.startswith("enc"):  # without normalization, the layer weights
                tensor.data[:] = 0.0
        acts = encode(params, build_graph(inst))
        assert len(acts.node_layers) == 3
        for h in acts.node_layers[1:]:
            assert np.allclose(h, acts.node_layers[0], atol=1e-15)

    @pytest.mark.parametrize("aggregation", ["mean", "sum", "max"])
    def test_matches_scalar_oracle(self, rng, aggregation):
        inst = random_instance(rng, n=3, m=2)
        params = tiny_params(norm="none", seed=11, aggregation=aggregation, layers=2)
        graph = build_graph(inst, rho=0.5)
        acts = encode(params, graph)
        oh, og = oracle_encode_none_norm(params, graph)
        # encode keeps no edge embedding: h^(l+1) checks e^l, which gates layer l's messages
        assert len(acts.node_layers) == len(oh) == 3
        for got, want in zip(acts.node_layers, oh):
            np.testing.assert_allclose(got, want, atol=1e-10)
        np.testing.assert_allclose(acts.graph_embedding, og, atol=1e-10)

    def test_machine_mismatch(self, rng):
        inst = random_instance(rng, n=4, m=3)
        params = tiny_params()
        with pytest.raises(ValidationError):
            encode(params, build_graph(inst))

    def test_nonfinite_names_layer(self, rng):
        inst = random_instance(rng, n=4, m=2)
        params = tiny_params(layers=2)
        params.tensors["w_h"].data[:] = np.inf
        with np.errstate(invalid="ignore"):  # inf * 0 inside matmul is the point
            with pytest.raises(NumericError, match="layer 0"):
                encode(params, build_graph(inst))

    def test_nonfinite_initial_edges_single_layer(self, rng):
        # an infinite e^0 saturates the gate's sigmoid, so h stays finite and only e^0 shows it
        inst = random_instance(rng, n=4, m=2)
        params = tiny_params(layers=1)
        params.tensors["w_e"].data[:] = np.inf
        with pytest.raises(NumericError, match="layer 0"):
            encode(params, build_graph(inst))


class TestInferenceMemory:
    """At the paper's 1000 jobs a greedy rollout's memory is the encoder's (n, k, d)
    edge tensors and ``build_graph``'s (n, n, m) float64 difference cube."""

    def test_encode_peak_within_three_and_a_half_edge_arrays(self):
        # Each e^l is read only inside layer l, so the eval encoder holds one
        # edge tensor and that layer's transients: the gathered message and
        # sigmoid(e) in the node update, the pre-activation and its gather
        # temporary in the edge update. At k=40 a node array is 1/40 of an edge
        # array; ~3.24 were measured. Keeping every e^l read 5.24.
        cfg = PolicyConfig(machines=5, hidden_dim=16, heads=2)
        _, encode_peak, graph = _inference_peaks(cfg, n=200)
        assert graph.k == 40
        assert encode_peak <= 3.5 * graph.n * graph.k * cfg.hidden_dim * 4

    def test_build_graph_peak_within_one_cube(self):
        # the (n, n, m) difference is squared in place; the rest is (n, n):
        # distances, their sums, the sort's order. ~1.53 cubes were measured,
        # and 2.21 when the square was a second cube.
        n, m = 200, 5
        graph_peak, _, _ = _inference_peaks(PolicyConfig(machines=m, hidden_dim=8, heads=1, layers=1), n=n)
        assert graph_peak <= n * n * m * 8 + 4 * n * n * 8


class TestDecodeStep:
    def test_one_job_left_one_hot(self, rng):
        inst = random_instance(rng, n=3, m=2)
        params = tiny_params()
        acts = encode(params, build_graph(inst))
        state = step(step(reset(inst), 1), 0)
        p = decode_step(params, acts, state)
        assert p[2] == pytest.approx(1.0, abs=1e-15)
        assert p[0] == 0.0 and p[1] == 0.0

    def test_logits_clipped_and_masked(self, rng):
        params = tiny_params()
        for _ in range(20):
            inst = random_instance(rng, n=6, m=2)
            acts = encode(params, build_graph(inst))
            state = reset(inst)
            for action in rng.permutation(6)[: int(rng.integers(0, 5))]:
                state = step(state, int(action))
            decode_step(params, acts, state)
            finite = acts.logits[np.isfinite(acts.logits)]
            assert (np.abs(finite) <= params.config.logit_clip).all()
            scheduled = list(state.scheduled)
            assert (acts.probs[scheduled] == 0.0).all()
            assert acts.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_scalar_oracle(self, rng):
        inst = random_instance(rng, n=5, m=2)
        params = tiny_params(seed=21)
        acts = encode(params, build_graph(inst))
        for actions in ((), (3,), (3, 0), (3, 0, 4)):
            state = reset(inst)
            for a in actions:
                state = step(state, a)
            p = decode_step(params, acts, state)
            h_c, logits, probs = oracle_decode(params, acts, state)
            np.testing.assert_allclose(acts.refined, h_c, atol=1e-10)
            np.testing.assert_allclose(acts.logits, logits, atol=1e-10)
            np.testing.assert_allclose(p, probs, atol=1e-10)

    def test_builds_at_most_24_tensors(self, rng, monkeypatch):
        # criterion 5's model at n=12: at d=8 a step's Python dispatch, mostly
        # Tensor objects, is most of its time. The fixed part of the context query
        # is projected once per encoding, so a step gathers and adds two rows.
        params = PolicyParams.init(PolicyConfig(machines=3, hidden_dim=8, layers=1, heads=2), seed=55)
        inst = random_instance(rng, n=12, m=3)
        acts = encode(params, build_graph(inst))
        built, init = [], Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        for state in (reset(inst), step(step(reset(inst), 4), 7)):
            built.clear()
            decode_step(params, acts, state)
            assert len(built) <= 24

    def test_terminal_state_rejected(self, rng):
        inst = random_instance(rng, n=2, m=2)
        params = tiny_params()
        acts = encode(params, build_graph(inst))
        state = step(step(reset(inst), 0), 1)
        with pytest.raises(ValidationError):
            decode_step(params, acts, state)


class TestTeacherForcingAgreement:
    """Training's batched teacher forcing and the per-step decoder share one
    ``_decode``. Fed greedy permutations in eval mode, teacher forcing must pick
    the greedy action at every step and give it decode_step's log-probability."""

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_greedy_decoding(self, monkeypatch, dtype, tol):
        cfg = PolicyConfig(machines=5, hidden_dim=32, layers=3, heads=4)
        params = PolicyParams.init(cfg, seed=0)
        if dtype == np.float32:
            params = _float32_params(params)
        insts = generate(DatasetSpec(count=16, jobs=20, machines=5, seed=17))
        perms = np.stack([rollout_greedy(params, inst) for inst in insts])
        step_logprobs = []
        for inst, perm in zip(insts, perms):
            acts, state = encode(params, build_graph(inst)), reset(inst)
            for a in perm:
                step_logprobs.append(np.log(decode_step(params, acts, state)[a]))
                state = step(state, int(a))

        decode, logits = policy._decode, []

        def recording_decode(*args):
            refined, step_logits = decode(*args)
            logits.append(step_logits.data)
            return refined, step_logits

        monkeypatch.setattr(policy, "_decode", recording_decode)
        batch = TraceBatch.from_traces([ExpertTrace(inst, tuple(perm)) for inst, perm in zip(insts, perms)], cfg)
        with ag.no_grad():
            lp = policy._teacher_forced_logprobs(params, batch, "eval").data
        assert lp.dtype == dtype
        (forced,) = logits
        np.testing.assert_array_equal(forced.argmax(axis=-1), perms)
        np.testing.assert_allclose(lp, np.reshape(step_logprobs, lp.shape), rtol=0.0, atol=tol)


class TestEquivariance:
    def test_relabeling_permutes_probabilities(self, rng):
        inst = random_instance(rng, n=7, m=2)
        params = tiny_params(seed=5)
        sigma = rng.permutation(7)  # relabeled job j' holds original job sigma[j']
        inv = np.argsort(sigma)
        relabeled = Instance(inst.times[:, sigma])

        acts1 = encode(params, build_graph(inst))
        acts2 = encode(params, build_graph(relabeled))

        orig_actions = [3, 5]
        state1 = reset(inst)
        state2 = reset(relabeled)
        for a in orig_actions:
            state1 = step(state1, a)
            state2 = step(state2, int(inv[a]))
        p1 = decode_step(params, acts1, state1)
        p2 = decode_step(params, acts2, state2)
        np.testing.assert_allclose(p2[inv], p1, atol=1e-9)


class TestRolloutGreedy:
    def test_single_job(self):
        inst = Instance(np.array([[2.0], [1.0]]))
        params = tiny_params()
        assert list(rollout_greedy(params, inst)) == [0]

    def test_always_valid_permutation(self, rng):
        params = tiny_params(seed=3)
        for n in (2, 3, 9, 17):
            inst = random_instance(rng, n=n, m=2)
            perm = rollout_greedy(params, inst)
            validate_permutation(perm, n)

    def test_machine_mismatch(self, rng):
        params = tiny_params()
        with pytest.raises(ValidationError):
            rollout_greedy(params, random_instance(rng, n=4, m=3))

    def test_machine_mismatch_single_job(self):
        # the one-job shortcut must not skip the check: training.evaluate rejects the same input
        inst = Instance(np.ones((5, 1)))
        with pytest.raises(ValidationError, match="machines"):
            rollout_greedy(tiny_params(), inst)

    def test_untrained_quality_near_single_random_sample(self):
        # an untrained net is an arbitrary fixed priority rule, so its mean can
        # drift ~10% either side of the uniform-sample mean; assert the regime:
        # within a generous two-sided band of budget-1 random search, and never
        # as good as best-of-100 sampling
        from flowshop.core import makespan

        cfg = PolicyConfig(machines=5, hidden_dim=16, layers=1, heads=2)
        params = PolicyParams.init(cfg, seed=9)
        insts = generate(DatasetSpec(count=100, jobs=10, machines=5, seed=31))
        pol = np.mean([makespan(i, rollout_greedy(params, i)) for i in insts])
        rs1 = np.mean(
            [random_search(i, HeuristicBudget(max_iterations=1, rng_seed=k))[1] for k, i in enumerate(insts)]
        )
        rs100 = np.mean(
            [random_search(i, HeuristicBudget(max_iterations=100, rng_seed=k))[1] for k, i in enumerate(insts)]
        )
        assert abs(pol - rs1) <= 0.20 * rs1
        assert pol >= rs100


class TestSizeGeneralization:
    def test_one_model_many_job_counts(self, rng):
        params = tiny_params(seed=13)
        for n in (2, 5, 12, 30):
            inst = random_instance(rng, n=n, m=2)
            perm = rollout_greedy(params, inst)
            validate_permutation(perm, n)


def closed_form_count(cfg: PolicyConfig) -> int:
    d, m = cfg.hidden_dim, cfg.machines
    fixed = d * m + d + 2 * d + 3 * d * d + 3 * d * d + 2 * d * d
    per_stream = 2 * d if cfg.normalization != "none" else 0  # gamma and beta
    per_layer = 5 * d * d + 2 * per_stream
    last_layer = 2 * d * d + per_stream  # node update only: no later layer reads an edge update
    return fixed + (cfg.layers - 1) * per_layer + last_layer


class TestParameterCount:
    def test_matches_closed_form_default(self):
        cfg = PolicyConfig(machines=5)  # d=128, L=3, M=8
        params = PolicyParams.init(cfg)
        assert params.num_parameters == closed_form_count(cfg) == 329_984
        # ballpark consistency with the ~365k reference figure
        assert abs(params.num_parameters / 365_000 - 1.0) < 0.10

    @pytest.mark.parametrize("norm", ["batch", "layer", "none"])
    def test_matches_closed_form_tiny(self, norm):
        cfg = PolicyConfig(normalization=norm, **TINY)
        assert PolicyParams.init(cfg).num_parameters == closed_form_count(cfg)


class TestBcLoss:
    def _traces(self, rng, count=3, n=4, m=2):
        insts = [random_instance(rng, n=n, m=m) for _ in range(count)]
        return record_expert_traces(insts)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("aggregation", policy.AGGREGATIONS)
    @pytest.mark.parametrize("norm", policy.NORMALIZATIONS)
    def test_every_tensor_gets_a_gradient(self, rng, norm, aggregation, layers):
        # init makes only tensors that the forward reads
        params = tiny_params(norm=norm, aggregation=aggregation, layers=layers)
        bc_loss(params, TraceBatch.from_traces(self._traces(rng, n=5), params.config))
        assert [name for name, t in params.tensors.items() if t.grad is None] == []

    def test_uniform_policy_cross_entropy(self, rng):
        # zeroed final query makes every unmasked logit 0: uniform over n-t jobs
        params = tiny_params(seed=1)
        params.tensors["out_wq"].data[:] = 0.0
        traces = self._traces(rng, count=3, n=4)
        batch = TraceBatch.from_traces(traces, params.config)
        loss, _ = bc_loss(params, batch)
        expected = np.mean([math.log(4 - t) for t in range(4)])
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_single_job_forced_zero_loss(self):
        inst = Instance(np.array([[1.0, 2.0], [2.0, 1.0]]))
        params = tiny_params()
        trace = ExpertTrace(inst, (1, 0))
        batch = TraceBatch.from_traces([trace], params.config)
        loss, _ = bc_loss(params, batch)
        # final step is forced (one unmasked job): its contribution is exactly 0
        lp_forced = -math.log(1.0)
        assert loss >= lp_forced
        params.tensors["out_wq"].data[:] = 0.0
        loss_uniform, _ = bc_loss(params, batch)
        assert loss_uniform == pytest.approx((math.log(2) + 0.0) / 2, abs=1e-12)

    def test_corrupt_targets_rejected(self, rng, tmp_path):
        # a trace holds a permutation from its construction on, recorded or loaded,
        # so TraceBatch.from_traces does not check it again
        inst = random_instance(rng, n=3, m=2)
        with pytest.raises(ValidationError, match="duplicate"):
            ExpertTrace(inst, (2, 2, 1))
        path = tmp_path / "t.fst"
        save_traces(path, [ExpertTrace(inst, (2, 0, 1))])
        path.write_bytes(path.read_bytes()[:-12] + np.array([2, 2, 1], dtype="<u4").tobytes())
        with pytest.raises(ValidationError, match="duplicate"):
            load_traces(path, [inst])

    def test_machine_mismatch(self, rng):
        params = tiny_params()
        inst = random_instance(rng, n=3, m=4)
        with pytest.raises(ValidationError):
            TraceBatch.from_traces([ExpertTrace(inst, (0, 1, 2))], params.config)

    @pytest.mark.parametrize("norm", ["batch", "layer"])
    def test_gradients_match_finite_differences(self, rng, norm):
        # tiny configuration, every parameter tensor, central differences
        params = tiny_params(norm=norm, seed=7)
        traces = self._traces(rng, count=2, n=3)
        batch = TraceBatch.from_traces(traces, params.config)
        loss, grads = bc_loss(params, batch)
        eps = 1e-5
        for name, tensor in params.tensors.items():
            flat = tensor.data.reshape(-1)
            numeric = np.zeros_like(flat)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _ = bc_loss(params, batch)
                flat[idx] = orig - eps
                down, _ = bc_loss(params, batch)
                flat[idx] = orig
                numeric[idx] = (up - down) / (2 * eps)
            np.testing.assert_allclose(
                grads[name].reshape(-1), numeric, rtol=1e-4, atol=1e-7, err_msg=name
            )

    def test_loss_decreases_after_adam_step(self, rng):
        from flowshop.training import Adam

        params = tiny_params(norm="batch", seed=2)
        traces = self._traces(rng, count=4, n=5)
        batch = TraceBatch.from_traces(traces, params.config)
        loss0, grads = bc_loss(params, batch)
        Adam(params.tensors).step(grads, 1e-2)
        loss1, _ = bc_loss(params, batch)
        assert loss1 < loss0


def _outer_product_matmul(a: Tensor, w: Tensor, transposed: bool = False) -> Tensor:
    """(..., q) @ (q, r), or @ w.T, whose weight gradient sums a batch of outer products."""
    wm = w.data.T if transposed else w.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ wm.T)
        if w.requires_grad:
            outer = np.swapaxes(a.data, -1, -2) @ g
            gw = outer.sum(axis=tuple(range(outer.ndim - 2)))
            w._accumulate(gw.T if transposed else gw)

    return Tensor._make(a.data @ wm, (a, w), backward)


def _add_at_gather_rows(t: Tensor, idx: np.ndarray) -> Tensor:
    """gather_rows whose backward scatters with np.add.at."""
    grid = np.arange(t.data.shape[0])[:, None]

    def backward(g):
        gt = np.zeros_like(t.data)
        np.add.at(gt, (grid, idx), g)
        t._accumulate(gt)

    return Tensor._make(t.data[grid, idx], (t,), backward)


class TestBcLossBackward:
    """The training step's backward: same gradients, graph freed as it goes."""

    @staticmethod
    def _batch(config, count, n):
        insts = generate(DatasetSpec(count=count, jobs=n, machines=config.machines, seed=3))
        return TraceBatch.from_traces(record_expert_traces(insts), config)

    def test_gradients_match_reference_formulas_full_batch(self, monkeypatch):
        # B=128 at n=20; d=32 keeps the reference's (B, n, k, d, d) products small.
        # The folded GEMMs, the one-hot scatter and the fused layer ops sum the
        # same products in another order, hence the 1e-12 tolerances. The
        # reference runs the layer as composed plain ops, so none of them is
        # the code under test.
        cfg = PolicyConfig(machines=5, hidden_dim=32)
        batch = self._batch(cfg, count=128, n=20)
        loss, grads = bc_loss(PolicyParams.init(cfg, seed=0), batch)
        monkeypatch.setattr(Tensor, "_matmul_2d_weight", _outer_product_matmul)
        monkeypatch.setattr(ag, "gather_rows", _add_at_gather_rows)
        monkeypatch.setattr(
            ag, "node_preactivation", functools.partial(composed_node_preactivation, gather=_add_at_gather_rows)
        )
        monkeypatch.setattr(
            ag, "edge_preactivation", functools.partial(composed_edge_preactivation, gather=_add_at_gather_rows)
        )
        monkeypatch.setattr(ag, "residual_normalize", composed_residual_normalize)
        ref_loss, ref_grads = bc_loss(PolicyParams.init(cfg, seed=0), batch)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=0.0, atol=1e-12, err_msg=name)

    def test_backward_frees_the_graph_as_it_sweeps(self):
        cfg = PolicyConfig(machines=3, hidden_dim=16)
        batch = self._batch(cfg, count=8, n=10)
        params = PolicyParams.init(cfg, seed=0)
        bc_loss(params, batch)  # first call pays for lazy set-up
        params.zero_grad()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = -policy._teacher_forced_logprobs(params, batch, "train").mean()
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            loss.backward()
            current, peak = tracemalloc.get_traced_memory()
            del loss
            bc_loss(params, batch)
            after_bc_loss = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert peak - base <= 1.25 * held
        assert current - base < 0.1 * held  # only the leaves' grads remain
        assert after_bc_loss < 0.1 * held

    @staticmethod
    def _edge_and_node_bytes(cfg, batch) -> tuple[int, int]:
        """Bytes of one float32 edge array (B, n, k, d) and one node array (B, n, d)."""
        node = batch.neighbors.shape[0] * batch.neighbors.shape[1] * cfg.hidden_dim * 4
        return node * batch.neighbors.shape[2], node

    def test_forward_tape_holds_two_edge_arrays_per_edge_layer(self):
        # At k = n - 1 an edge array (B, n, k, d) is k = 23 node arrays (B, n, d),
        # so edge arrays dominate the tape. Each layer that updates edges keeps
        # two, the residual node's xhat and output: the edge pre-activation is
        # freed once the residual node absorbs its producer, and the node
        # pre-activation recomputes sigmoid(e) in its backward. e^0 is one more:
        # 2 (L - 1) + 1. The rest is node-sized: 3 arrays a layer in the node
        # stream (h C^T in the node pre-activation, xhat, the residual) and about
        # 24 in the decoder, whose (B, n, n) attention and logits are 3/8 of a
        # node array at n=24, d=64; ~33.5 node arrays were measured. The slack of
        # 40 covers them, but not one extra edge array (23 more). Holding
        # sigmoid(e) kept three edge arrays per updating layer, the separate
        # normalize and relu nodes six, and the composed chain 11.
        cfg = PolicyConfig(machines=3, hidden_dim=64, heads=1, neighbor_fraction=1.0)
        batch = self._batch(cfg, count=2, n=24)
        held, _ = _tape_and_backward_peak(_float32_params(PolicyParams.init(cfg, seed=0)), batch)
        edge, node = self._edge_and_node_bytes(cfg, batch)
        assert held < (2 * (cfg.layers - 1) + 1) * edge + 40 * node

    def test_backward_peak_within_two_edge_arrays_of_the_tape(self):
        # The sweep frees each layer's tape as it passes, so at its peak it holds
        # the tape left, the edge gradient and one layer's temporaries: dpre and a
        # scratch array in a residual backward, or sigmoid(e) and the gated
        # product in the node pre-activation's. B=8 keeps the parameter
        # gradients, whose size does not grow with the batch, a small share.
        cfg = PolicyConfig(machines=3, hidden_dim=64, heads=1, neighbor_fraction=1.0)
        batch = self._batch(cfg, count=8, n=24)
        held, peak = _tape_and_backward_peak(_float32_params(PolicyParams.init(cfg, seed=0)), batch)
        edge, _ = self._edge_and_node_bytes(cfg, batch)
        assert peak < held + 2 * edge


def _tape_and_backward_peak(params: PolicyParams, batch: TraceBatch) -> tuple[int, int]:
    """Bytes one ``bc_loss`` forward leaves on the tape, and the peak above the
    same base during its ``backward()``, by tracemalloc."""
    bc_loss(params, batch)  # first call pays for lazy set-up
    params.zero_grad()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = -policy._teacher_forced_logprobs(params, batch, "train").mean()
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert loss.data.dtype == params.tensors["w_h"].data.dtype
    return held, peak


def _bc_memory_mib() -> str:
    """The float32 tape and backward peak of one B=128 training step at n=20, d=128,
    the figures memory changes quote."""
    cfg = PolicyConfig(machines=5)
    held, peak = _tape_and_backward_peak(
        _float32_params(PolicyParams.init(cfg, seed=0)), TestBcLossBackward._batch(cfg, count=128, n=20)
    )
    return f"float32 B=128 bc_loss: tape {held / 2**20:.1f} MiB, backward peak {peak / 2**20:.1f} MiB"


def _traced_peak(fn) -> int:
    """Peak bytes above the starting level that tracemalloc sees while ``fn()`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _inference_peaks(cfg: PolicyConfig, n: int) -> tuple[int, int, policy.JobGraph]:
    """tracemalloc peaks of ``build_graph`` and of a float32 ``encode`` on one seeded
    n-job instance, and the graph."""
    (inst,) = generate(DatasetSpec(count=1, jobs=n, machines=cfg.machines, seed=0))
    params = _float32_params(PolicyParams.init(cfg, seed=0))
    graph = build_graph(inst, cfg.neighbor_fraction)
    encode(params, graph)  # first call pays for lazy set-up
    graph_peak = _traced_peak(lambda: build_graph(inst, cfg.neighbor_fraction))
    return graph_peak, _traced_peak(lambda: encode(params, graph)), graph


def _rollout_memory_mib() -> str:
    """The float32 ``encode`` and ``build_graph`` peaks at n=500, m=20, d=128, the
    figures inference-memory changes quote."""
    graph_peak, encode_peak, _ = _inference_peaks(PolicyConfig(machines=20), n=500)
    return (
        f"n=500 m=20 d=128: float32 encode peak {encode_peak / 2**20:.1f} MiB,"
        f" build_graph peak {graph_peak / 2**20:.1f} MiB"
    )


def _float32_params(params: PolicyParams) -> PolicyParams:
    """The same parameters rounded to float32, as ``training.train`` holds them."""
    tensors = {k: Tensor(t.data.astype(np.float32), requires_grad=True) for k, t in params.tensors.items()}
    return PolicyParams(params.config, tensors, {k: b.copy() for k, b in params.buffers.items()})


class TestFloat32BcLoss:
    """Contract: on a fixed batch the float32 step is within 1e-6 relative on the
    loss and 1e-4 relative per-tensor gradient norm of the float64 step; the gap
    is float32 rounding (eps 6e-8) accumulated through the stack."""

    def test_within_tolerance_of_float64(self):
        # the training batch: B=128 at n=20 with the default architecture
        cfg = PolicyConfig(machines=5)
        batch = TestBcLossBackward._batch(cfg, count=128, n=20)
        params = PolicyParams.init(cfg, seed=0)
        params32 = _float32_params(params)
        loss64, grads64 = bc_loss(params, batch)
        loss32, grads32 = bc_loss(params32, batch)
        assert loss32 == pytest.approx(loss64, rel=1e-6, abs=0.0)
        assert grads32.keys() == grads64.keys()
        for name, ref in grads64.items():
            got = grads32[name]
            assert got.dtype == np.float32, name
            assert np.linalg.norm(got - ref) <= 1e-4 * np.linalg.norm(ref), name
        for name, buffer in params32.buffers.items():
            np.testing.assert_allclose(buffer, params.buffers[name], rtol=1e-5, atol=1e-6, err_msg=name)


def _numpy_build() -> tuple:
    """numpy version, machine and AVX-512 support: what fixes float64 rounding here."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return (np.__version__, platform.machine(), bool(__cpu_features__.get("AVX512_SKX")))


class TestFloat64Pinned:
    """The float64 path against values captured before float32 training landed.

    The loss, every gradient and the batch-norm buffers the model reads are
    pinned bit for bit on the build that captured them. Another numpy build or
    SIMD path may round exp, tanh and the GEMMs differently in the last bit,
    so there the loss is held to 1e-12. Each gradient norm is held to 1e-9 on
    every build: the gradient hash was re-captured each time a change
    reordered the sums of the backward (the fused normalization; the fused
    node pre-activation with the decoder's per-encoding query tables), and
    the norms, captured before both, keep it anchored. Greedy permutations
    are checked exactly everywhere.
    """

    PINNED_BUILD = ("2.4.6", "x86_64", True)
    LOSS = float.fromhex("0x1.5fb553836287ap+0")
    GRADS_SHA256 = "4a12c006d16a0655f9d790435e932e177ada28b630500e320061757349d79492"
    BUFFERS_SHA256 = "4b06aa9f88b6fa0631a319be46902442c3ab37b51e270c61c59b6373458360ab"
    GRAD_NORMS = {
        "enc0_B": 1.0497223434315497,
        "enc0_C": 0.3715215975025867,
        "enc0_D": 0.03669314668151121,
        "enc0_E": 0.09090765866494938,
        "enc0_F": 0.045431350683269804,
        "enc0_edge_beta": 0.021717273134456278,
        "enc0_edge_gamma": 0.013237082753805958,
        "enc0_node_beta": 0.36911801645263576,
        "enc0_node_gamma": 0.32307701018629575,
        "enc1_B": 0.781128742462415,
        "enc1_C": 0.3488978789173794,
        "enc1_node_beta": 0.4354982628930927,
        "enc1_node_gamma": 0.3917074030664779,
        "mha_wk": 0.6541537041997574,
        "mha_wo": 2.6977844107594304,
        "mha_wq": 0.5933039310211654,
        "mha_wv": 4.181370285337817,
        "out_wk": 2.0608874311133176,
        "out_wq": 2.3901148629005875,
        "v1": 0.026185134232941037,
        "v2": 0.01945176766109871,
        "w_e": 0.0798755022157641,
        "w_h": 2.584711328305193,
    }
    PERMUTATIONS = [[2, 0, 6, 5, 4, 3, 1], [0, 4, 1, 3, 6, 2, 5], [2, 4, 0, 1, 3, 5, 6]]

    @staticmethod
    def _digest(arrays: dict) -> str:
        h = hashlib.sha256()
        for name in sorted(arrays):
            h.update(name.encode())
            h.update(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())
        return h.hexdigest()

    def test_loss_gradients_and_buffers(self):
        cfg = PolicyConfig(machines=3, hidden_dim=8, layers=2, heads=2)
        insts = generate(DatasetSpec(count=4, jobs=6, machines=3, seed=21))
        batch = TraceBatch.from_traces(record_expert_traces(insts), cfg)
        params = PolicyParams.init(cfg, seed=5)
        loss, grads = bc_loss(params, batch)
        assert grads.keys() == self.GRAD_NORMS.keys()
        if _numpy_build() == self.PINNED_BUILD:
            assert loss == self.LOSS
            assert self._digest(grads) == self.GRADS_SHA256
            assert self._digest(params.buffers) == self.BUFFERS_SHA256
        else:
            assert loss == pytest.approx(self.LOSS, rel=1e-12)
        for name, norm in self.GRAD_NORMS.items():
            assert np.linalg.norm(grads[name]) == pytest.approx(norm, rel=1e-9, abs=0.0), name

    def test_greedy_permutations(self):
        params = PolicyParams.init(PolicyConfig(machines=3, hidden_dim=8, layers=2, heads=2), seed=5)
        insts = generate(DatasetSpec(count=3, jobs=7, machines=3, seed=22))
        assert [rollout_greedy(params, inst).tolist() for inst in insts] == self.PERMUTATIONS
