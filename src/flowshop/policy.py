"""Graph-encoder/attention-decoder policy over scheduling states.

Jobs are nodes of a sparse k-NN graph (k = max(1, floor(rho*n)) nearest
by Euclidean distance between processing-time columns). A gated graph
convolution stack embeds nodes and edges with residual updates

    h' = h + ReLU(Nm(B h_j + Ag_k(sigmoid(e_jk) * C h_k)))
    e' = e + ReLU(Nm(D e_jk + E h_j + F h_k))

Each stream's pre-activation inside Nm(...) is one autograd node
(``node_preactivation``, ``edge_preactivation``), and so is its residual
update x + ReLU(Nm(...)) (``residual_normalize``), which takes over the
node that made its pre-activation: the training tape keeps the normalized
pre-activation and the output of each stream and layer, and C h. Every
x W.T is one node too (``linear``). Each e^l is read only inside layer l,
so inference holds one edge tensor at a time. The decoder refines a 3d context
[graph embedding, first job, last job] with one multi-head attention
block, then scores each unscheduled job with clip * tanh(query . key /
sqrt(d)) logits; scheduled jobs are masked to -inf so their probability
is exactly zero. ``_keys`` projects what no step changes once per
encoding: the node keys and values, and each job's and placeholder's
term of the context query.

All weight shapes depend only on the machine count and hidden width, so
one trained model rolls out on any job count. One ``_decode`` builds the
context and the logits for teacher forcing over all steps (training, with
gradients) and for a single greedy step (``decode_step``, under no_grad).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .core import Instance
from .env import ScheduleState, mask as state_mask, reset, step
from .errors import NumericError, ValidationError

__all__ = [
    "PolicyConfig",
    "PolicyParams",
    "JobGraph",
    "Activations",
    "TraceBatch",
    "build_graph",
    "encode",
    "decode_step",
    "rollout_greedy",
    "bc_loss",
]

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1

AGGREGATIONS = ("mean", "sum", "max")
NORMALIZATIONS = ("batch", "layer", "none")


@dataclass(frozen=True)
class PolicyConfig:
    """Architecture hyperparameters; the machine count is baked in."""

    machines: int
    hidden_dim: int = 128
    layers: int = 3
    heads: int = 8
    logit_clip: float = 10.0
    neighbor_fraction: float = 0.2
    aggregation: str = "mean"
    normalization: str = "batch"

    def __post_init__(self):
        if self.machines < 1:
            raise ValidationError("machines must be >= 1")
        if self.layers < 1:
            raise ValidationError("layers must be >= 1")
        if self.hidden_dim < 1 or self.heads < 1:
            raise ValidationError("hidden_dim and heads must be >= 1")
        if self.hidden_dim % self.heads != 0:
            raise ValidationError(
                f"hidden_dim {self.hidden_dim} must be divisible by heads {self.heads}"
            )
        if not 0 < self.neighbor_fraction <= 1:
            raise ValidationError("neighbor_fraction must be in (0, 1]")
        if not 0 < self.logit_clip < math.inf:  # a manifest's JSON can carry NaN
            raise ValidationError("logit_clip must be positive and finite")
        if self.aggregation not in AGGREGATIONS:
            raise ValidationError(f"aggregation must be one of {AGGREGATIONS}")
        if self.normalization not in NORMALIZATIONS:
            raise ValidationError(f"normalization must be one of {NORMALIZATIONS}")


def _check_machines(config: PolicyConfig, machines: int, what: str) -> None:
    """The one machine-count check: ``what`` has ``machines`` machines, which must be the model's."""
    if machines != config.machines:
        raise ValidationError(f"{what} has {machines} machines, model expects {config.machines}")


class PolicyParams:
    """Learnable tensors plus batch-norm running statistics.

    Weight matrices are stored in their mathematical orientation
    (output rows, input columns) and applied as x @ W.T. Everything is
    initialized uniform in [-1/sqrt(d), 1/sqrt(d)], in the float64 of the
    gradient checks; the forward and backward passes compute in the
    tensors' dtype. ``training.train`` rounds them to float32, and a
    checkpoint loads as the float32 it stores.
    """

    def __init__(self, config: PolicyConfig, tensors: dict[str, Tensor], buffers: dict[str, np.ndarray]):
        self.config = config
        self.tensors = tensors
        self.buffers = buffers

    @classmethod
    def init(cls, config: PolicyConfig, seed: int = 0) -> "PolicyParams":
        rng = np.random.Generator(np.random.PCG64(seed))
        d, m = config.hidden_dim, config.machines
        bound = 1.0 / math.sqrt(d)

        def weight(*shape):
            return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

        tensors: dict[str, Tensor] = {
            "w_h": weight(d, m),
            "w_e": weight(d),
            "v1": weight(d),
            "v2": weight(d),
            "mha_wq": weight(d, 3 * d),
            "mha_wk": weight(d, d),
            "mha_wv": weight(d, d),
            "mha_wo": weight(d, d),
            "out_wq": weight(d, d),
            "out_wk": weight(d, d),
        }
        buffers: dict[str, np.ndarray] = {}
        for layer in range(config.layers):
            edges = layer + 1 < config.layers  # the last layer has no edge update: no later layer reads it
            for name in ("B", "C", "D", "E", "F") if edges else ("B", "C"):
                tensors[f"enc{layer}_{name}"] = weight(d, d)
            streams = ("node", "edge") if edges else ("node",)
            if config.normalization != "none":
                for stream in streams:
                    tensors[f"enc{layer}_{stream}_gamma"] = Tensor(np.ones(d), requires_grad=True)
                    tensors[f"enc{layer}_{stream}_beta"] = Tensor(np.zeros(d), requires_grad=True)
            if config.normalization == "batch":
                for stream in streams:
                    buffers[f"enc{layer}_{stream}_mean"] = np.zeros(d)
                    buffers[f"enc{layer}_{stream}_var"] = np.ones(d)
        return cls(config, tensors, buffers)

    @property
    def num_parameters(self) -> int:
        return sum(t.data.size for t in self.tensors.values())

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def grads(self) -> dict[str, np.ndarray]:
        return {k: t.grad.copy() for k, t in self.tensors.items()}


@dataclass(frozen=True)
class JobGraph:
    """Sparse directed k-NN job graph with edge distances."""

    features: np.ndarray  # (n, m) job columns
    neighbors: np.ndarray  # (n, k) nearest others, ascending distance
    distances: np.ndarray  # (n, k) Euclidean feature distances

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def k(self) -> int:
        return self.neighbors.shape[1]


def build_graph(inst: Instance, rho: float = 0.2) -> JobGraph:
    """k-NN graph on job feature columns, ties broken by lower job index."""
    if inst.n < 2:
        raise ValidationError("graphs need at least 2 jobs")
    if not 0 < rho <= 1:
        raise ValidationError("rho must be in (0, 1]")
    feats = inst.times.T.astype(np.float64, order="C")
    n = feats.shape[0]
    k = min(max(1, int(math.floor(rho * n))), n - 1)
    diff = feats[:, None, :] - feats[None, :, :]
    dist = np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    # a stable sort keeps equal distances in index order: ties go to the lower index
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]
    distances = np.take_along_axis(dist, neighbors, axis=1)
    return JobGraph(features=feats, neighbors=neighbors, distances=distances)


@dataclass
class Activations:
    """Forward-pass record: per-layer node embeddings, the decoder's node
    keys, and decoder scratch. No edge embedding: each e^l is read only
    inside layer l, so the encoder keeps none past its layer.
    """

    graph: JobGraph
    node_layers: list[np.ndarray]  # h^0 .. h^L, each (n, d)
    graph_embedding: np.ndarray  # (d,)
    keys: tuple[Tensor, ...]  # ``_keys`` of h^L, batch of one
    refined: np.ndarray | None = None  # last MHA output h_(c)
    logits: np.ndarray | None = None  # last masked logits (n,)
    probs: np.ndarray | None = None  # last probabilities (n,)


# --- shared tensor-level forward pieces -------------------------------------


def _residual(params: PolicyParams, res: Tensor, pre: Tensor, layer: int, stream: str, mode: str) -> Tensor:
    """``res + ReLU(Nm(pre))`` as one node. Nm is layer norm over the feature axis, or
    batch norm over the others: from the batch in train mode (folded into the running
    buffers), from those buffers in eval mode."""
    kind = params.config.normalization
    name = f"enc{layer}_{stream}"
    gamma, beta = params.tensors.get(f"{name}_gamma"), params.tensors.get(f"{name}_beta")  # None for "none"
    running = (params.buffers[f"{name}_mean"], params.buffers[f"{name}_var"]) if kind == "batch" else None
    axes = tuple(range(pre.data.ndim - 1)) if kind == "batch" else (-1,)
    fit = kind == "batch" and mode == "train"
    out, mu, var = ag.residual_normalize(res, pre, gamma, beta, axes, _BN_EPS, stats=None if fit else running)
    if fit:
        for buffer, stat in zip(running, (mu, var)):
            buffer *= 1.0 - _BN_MOMENTUM
            buffer += _BN_MOMENTUM * stat.reshape(-1)
    return out


def _encode_core(
    params: PolicyParams,
    x: np.ndarray,
    nbr: np.ndarray,
    dist: np.ndarray,
    mode: str,
) -> tuple[list[Tensor], Tensor]:
    """Run the gated graph stack on a batch; returns the node embeddings
    h^0 .. h^L, each (B, n, d), and the graph embedding (B, d).

    x: (B, n, m) features, nbr: (B, n, k) neighbor indices, dist: (B, n, k).
    The stack computes in the parameters' dtype. The last layer has no edge
    update, since no later layer would read it.
    """
    cfg = params.config
    t = params.tensors
    dtype = t["w_h"].data.dtype
    h = ag.linear(Tensor(x.astype(dtype, copy=False)), t["w_h"])
    e = Tensor(dist[..., None].astype(dtype, copy=False)) * t["w_e"]
    node_layers = [h]
    edges_finite = np.isfinite(e.data).all()  # e^0; later, only an updated e is checked again
    for layer in range(cfg.layers):
        weights = (t[f"enc{layer}_{name}"] for name in ("B", "C"))
        h = _residual(params, h, ag.node_preactivation(h, e, *weights, nbr, cfg.aggregation), layer, "node", mode)
        if layer + 1 < cfg.layers:
            weights = (t[f"enc{layer}_{name}"] for name in ("D", "E", "F"))
            e = _residual(params, e, ag.edge_preactivation(e, node_layers[layer], *weights, nbr), layer, "edge", mode)
            edges_finite = np.isfinite(e.data).all()

        if not (edges_finite and np.isfinite(h.data).all()):
            raise NumericError(f"non-finite activations at encoder layer {layer}")
        node_layers.append(h)
    return node_layers, h.mean(axis=1)


def _keys(params: PolicyParams, h_nodes: Tensor, h_graph: Tensor) -> tuple[Tensor, ...]:
    """What no decoding step changes, projected once from h_nodes (B, n, d) and h_graph (B, d).

    The context query [g, f, p] Wq^T is g Wq_g^T + f Wq_f^T + p Wq_p^T over Wq's column
    blocks (Kool et al. 2019, section 3.2). Returns the first and previous job's query tables
    (B, n + 1, d), row 0 the placeholder's (v1, v2) term, row j + 1 job j's, the first with
    g Wq_g^T added; attention keys (B, heads, dh, n) and output keys (B, d, n), scaled by
    1/sqrt(dh) and 1/sqrt(d); values (B, heads, n, dh).
    """
    t = params.tensors
    batch, n, d = h_nodes.data.shape
    dh = d // params.config.heads
    split = (batch, n, params.config.heads, dh)
    wq = t["mha_wq"]
    tables = [ag.linear(h_graph, wq[:, :d]).reshape(batch, 1, d)]
    for block, placeholder in ((1, t["v1"]), (2, t["v2"])):
        rows = ag.concat([placeholder.reshape(1, 1, d).broadcast_to((batch, 1, d)), h_nodes], axis=1)
        tables.append(ag.linear(rows, wq[:, block * d : (block + 1) * d]))
    kx = ag.linear(h_nodes, t["mha_wk"]).reshape(split).transpose(0, 2, 3, 1) * (1.0 / math.sqrt(dh))
    vx = ag.linear(h_nodes, t["mha_wv"]).reshape(split).transpose(0, 2, 1, 3)
    kf = ag.linear(h_nodes, t["out_wk"]).transpose(0, 2, 1) * (1.0 / math.sqrt(d))
    return tables[1] + tables[0], tables[2], kx, vx, kf


def _decode(params: PolicyParams, keys, first, prev, avail) -> tuple[Tensor, Tensor]:
    """Context query of the first and previous job, its MHA refinement, then clipped masked logits.

    keys from ``_keys``; first, prev: (B, T) job indices, -1 for the placeholder; avail: (B, T, n)
    boolean. Returns (refined context (B, T, d), logits (B, T, n)).
    """
    cfg = params.config
    t = params.tensors
    first_rows, prev_rows, kx, vx, kf = keys
    batch, steps = first.shape
    d = cfg.hidden_dim
    q = ag.gather_rows(first_rows, first + 1) + ag.gather_rows(prev_rows, prev + 1)
    q = q.reshape(batch, steps, cfg.heads, d // cfg.heads).transpose(0, 2, 1, 3)
    attn = (q @ kx).softmax(axis=-1)
    mixed = (attn @ vx).transpose(0, 2, 1, 3).reshape(batch, steps, d)
    refined = ag.linear(mixed, t["mha_wo"])
    scores = ag.linear(refined, t["out_wq"]) @ kf
    logits = ag.where(avail, scores.tanh() * cfg.logit_clip, -np.inf)
    return refined, logits


# --- public single-instance operations ---------------------------------------


def encode(params: PolicyParams, graph: JobGraph) -> Activations:
    """Embed one job graph in eval mode; per-layer node embeddings are kept for inspection."""
    _check_machines(params.config, graph.features.shape[1], "graph")
    with ag.no_grad():
        node_layers, h_graph = _encode_core(
            params, graph.features[None], graph.neighbors[None], graph.distances[None], "eval"
        )
        keys = _keys(params, node_layers[-1], h_graph)
    return Activations(
        graph=graph,
        node_layers=[t.data[0] for t in node_layers],
        graph_embedding=h_graph.data[0],
        keys=keys,
    )


def decode_step(params: PolicyParams, acts: Activations, state: ScheduleState) -> np.ndarray:
    """Probability vector over jobs for the next action; scheduled jobs get 0.

    At t=0 the context's job slots are the learned placeholders; afterwards
    they hold the first and most recently scheduled jobs' embeddings.
    """
    if state.done:
        raise ValidationError("cannot decode from a terminal state (all jobs scheduled)")
    if state.instance.n != acts.graph.n:
        raise ValidationError("state and activations disagree on the job count")
    jobs = [state.scheduled[0], state.scheduled[-1]] if state.t else [-1, -1]  # -1: the placeholders
    first, prev = np.array(jobs).reshape(2, 1, 1)
    with ag.no_grad():
        refined, logits = _decode(params, acts.keys, first, prev, state_mask(state)[None, None, :])
        probs = logits.softmax(axis=-1)
    acts.refined = refined.data[0, 0]
    acts.logits = logits.data[0, 0]
    acts.probs = probs.data[0, 0]
    return acts.probs


def rollout_greedy(params: PolicyParams, inst: Instance) -> np.ndarray:
    """Greedy argmax decode of a full permutation (ties pick the lowest index)."""
    _check_machines(params.config, inst.m, f"instance {inst.name!r}")
    if inst.n == 1:
        return np.zeros(1, dtype=np.int64)
    acts = encode(params, build_graph(inst, params.config.neighbor_fraction))
    state = reset(inst)
    while not state.done:
        state = step(state, int(np.argmax(decode_step(params, acts, state))))
    return np.array(state.scheduled, dtype=np.int64)


# --- behavior cloning ---------------------------------------------------------


@dataclass(frozen=True)
class TraceBatch:
    """Stacked expert episodes with one graph per instance (equal n)."""

    features: np.ndarray  # (B, n, m)
    neighbors: np.ndarray  # (B, n, k)
    distances: np.ndarray  # (B, n, k)
    actions: np.ndarray  # (B, n) expert permutations

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @classmethod
    def from_traces(cls, traces, config: PolicyConfig) -> "TraceBatch":
        if not traces:
            raise ValidationError("empty trace batch")
        n = traces[0].instance.n
        feats, nbrs, dists, actions = [], [], [], []
        for tr in traces:
            inst = tr.instance
            _check_machines(config, inst.m, f"trace instance {inst.name!r}")
            if inst.n != n:
                raise ValidationError(
                    f"trace instance {inst.name!r} has {inst.n} jobs, the first has {n}:"
                    " all traces in a batch must share the job count"
                )
            graph = build_graph(inst, config.neighbor_fraction)
            feats.append(graph.features)
            nbrs.append(graph.neighbors)
            dists.append(graph.distances)
            actions.append(tr.actions)
        return cls(
            features=np.stack(feats),
            neighbors=np.stack(nbrs),
            distances=np.stack(dists),
            actions=np.asarray(actions, dtype=np.int64),
        )


def _teacher_forced_logprobs(params: PolicyParams, batch: TraceBatch, mode: str) -> Tensor:
    """Log-probabilities of the expert actions at every step: (B, n)."""
    b, n, _ = batch.features.shape
    tau = batch.actions
    node_layers, h_graph = _encode_core(params, batch.features, batch.neighbors, batch.distances, mode)
    # step t's job slots: the placeholders at t=0, then tau[0] and tau[t-1]
    first = np.repeat(tau[:, :1], n, axis=1)
    first[:, 0] = -1
    prev = np.concatenate([np.full((b, 1), -1), tau[:, :-1]], axis=1)
    # job j is available at step t iff its scheduled position is >= t
    pos = np.argsort(tau, axis=1)
    avail = pos[:, None, :] >= np.arange(n)[None, :, None]

    _, logits = _decode(params, _keys(params, node_layers[-1], h_graph), first, prev, avail)
    log_probs = logits.log_softmax(axis=-1)
    return ag.gather_rows(log_probs.reshape(b * n, n, 1), tau.reshape(-1, 1)).reshape(b, n)


def bc_loss(params: PolicyParams, batch: TraceBatch) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy of expert actions, with gradients for every tensor.

    Returns the scalar loss and a name -> gradient dict produced by one
    reverse sweep through the full encoder/decoder graph, with batch norm
    in train mode.
    """
    params.zero_grad()
    lp = _teacher_forced_logprobs(params, batch, "train")
    loss = -lp.mean()
    loss.backward()
    return float(loss.data), params.grads()
