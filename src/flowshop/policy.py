"""Graph-encoder/attention-decoder policy over scheduling states.

Jobs are nodes of a sparse k-NN graph (k = max(1, floor(rho*n)) nearest
by Euclidean distance between processing-time columns). A gated graph
convolution stack embeds nodes and edges with residual updates

    h' = h + ReLU(Nm(B h_j + Ag_k(sigmoid(e_jk) * C h_k)))
    e' = e + ReLU(Nm(D e_jk + E h_j + F h_k))

and the decoder refines a 3d context [graph embedding, first job, last
job] with one multi-head attention block, then scores each unscheduled
job with clip * tanh(query . key / sqrt(d)) logits; scheduled jobs are
masked to -inf so their probability is exactly zero.

All weight shapes depend only on the machine count and hidden width, so
one trained model rolls out on any job count. The same tensor code path
serves training (with gradients) and inference (under no_grad).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .core import Instance, validate_permutation
from .env import ScheduleState, mask as state_mask, reset, step
from .errors import DataError, NumericError, ValidationError

__all__ = [
    "PolicyConfig",
    "PolicyParams",
    "JobGraph",
    "Activations",
    "TraceBatch",
    "build_graph",
    "encode",
    "context",
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
    scale_features: bool = False

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
        if self.logit_clip <= 0:
            raise ValidationError("logit_clip must be positive")
        if self.aggregation not in AGGREGATIONS:
            raise ValidationError(f"aggregation must be one of {AGGREGATIONS}")
        if self.normalization not in NORMALIZATIONS:
            raise ValidationError(f"normalization must be one of {NORMALIZATIONS}")


class PolicyParams:
    """Learnable tensors plus batch-norm running statistics.

    Weight matrices are stored in their mathematical orientation
    (output rows, input columns) and applied as x @ W.T. Everything is
    initialized uniform in [-1/sqrt(d), 1/sqrt(d)].
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
            for name in ("B", "C", "D", "E", "F"):
                tensors[f"enc{layer}_{name}"] = weight(d, d)
            if config.normalization != "none":
                for stream in ("node", "edge"):
                    tensors[f"enc{layer}_{stream}_gamma"] = Tensor(np.ones(d), requires_grad=True)
                    tensors[f"enc{layer}_{stream}_beta"] = Tensor(np.zeros(d), requires_grad=True)
            if config.normalization == "batch":
                for stream in ("node", "edge"):
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
        # tensors outside the loss path (e.g. the last layer's edge update,
        # whose output feeds nothing) carry an exact zero gradient
        return {
            k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
            for k, t in self.tensors.items()
        }


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


def build_graph(inst: Instance, rho: float = 0.2, scale: bool = False) -> JobGraph:
    """k-NN graph on job feature columns, ties broken by lower job index."""
    if inst.n < 2:
        raise ValidationError("graphs need at least 2 jobs")
    if not 0 < rho <= 1:
        raise ValidationError("rho must be in (0, 1]")
    feats = inst.times.T.astype(np.float64).copy()
    if scale:
        peak = feats.max()
        if peak > 0:
            feats /= peak
    n = feats.shape[0]
    k = min(max(1, int(math.floor(rho * n))), n - 1)
    diff = feats[:, None, :] - feats[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    # a stable sort keeps equal distances in index order: ties go to the lower index
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]
    distances = np.take_along_axis(dist, neighbors, axis=1)
    return JobGraph(features=feats, neighbors=neighbors, distances=distances)


@dataclass
class Activations:
    """Forward-pass record: per-layer embeddings plus decoder scratch."""

    graph: JobGraph
    mode: str
    node_layers: list[np.ndarray]  # h^0 .. h^L, each (n, d)
    edge_layers: list[np.ndarray]  # e^0 .. e^L, each (n, k, d)
    graph_embedding: np.ndarray  # (d,)
    placeholder_v1: np.ndarray | None = None  # first-decode placeholders
    placeholder_v2: np.ndarray | None = None
    context: np.ndarray | None = None  # last built 3d context
    refined: np.ndarray | None = None  # last MHA output h_(c)
    logits: np.ndarray | None = None  # last masked logits (n,)
    probs: np.ndarray | None = None  # last probabilities (n,)


# --- shared tensor-level forward pieces -------------------------------------


def _normalize(params: PolicyParams, x: Tensor, layer: int, stream: str, mode: str) -> Tensor:
    kind = params.config.normalization
    if kind == "none":
        return x
    gamma = params.tensors[f"enc{layer}_{stream}_gamma"]
    beta = params.tensors[f"enc{layer}_{stream}_beta"]
    if kind == "layer":
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) * (x - mu)).mean(axis=-1, keepdims=True)
        xhat = (x - mu) / (var + _BN_EPS).sqrt()
        return xhat * gamma + beta
    axes = tuple(range(x.data.ndim - 1))
    if mode == "train":
        mu = x.mean(axis=axes, keepdims=True)
        var = ((x - mu) * (x - mu)).mean(axis=axes, keepdims=True)
        running_mean = params.buffers[f"enc{layer}_{stream}_mean"]
        running_var = params.buffers[f"enc{layer}_{stream}_var"]
        running_mean *= 1.0 - _BN_MOMENTUM
        running_mean += _BN_MOMENTUM * mu.data.reshape(-1)
        running_var *= 1.0 - _BN_MOMENTUM
        running_var += _BN_MOMENTUM * var.data.reshape(-1)
    else:
        mu = Tensor(params.buffers[f"enc{layer}_{stream}_mean"])
        var = Tensor(params.buffers[f"enc{layer}_{stream}_var"])
    xhat = (x - mu) / (var + _BN_EPS).sqrt()
    return xhat * gamma + beta


def _aggregate(msg: Tensor, kind: str) -> Tensor:
    if kind == "mean":
        return msg.mean(axis=2)
    if kind == "sum":
        return msg.sum(axis=2)
    return msg.max(axis=2)


def _encode_core(
    params: PolicyParams,
    x: np.ndarray,
    nbr: np.ndarray,
    dist: np.ndarray,
    mode: str,
) -> tuple[list[Tensor], list[Tensor], Tensor, Tensor]:
    """Run the gated graph stack on a batch; returns per-layer tensors.

    x: (B, n, m) features, nbr: (B, n, k) neighbor indices, dist: (B, n, k).
    """
    cfg = params.config
    batch, n, _ = x.shape
    k = nbr.shape[2]
    nbr_flat = nbr.reshape(batch, n * k)

    h = Tensor(x) @ params.tensors["w_h"].transpose(1, 0)
    e = Tensor(dist[..., None]) * params.tensors["w_e"]
    node_layers = [h]
    edge_layers = [e]
    for layer in range(cfg.layers):
        t = params.tensors
        bh = h @ t[f"enc{layer}_B"].transpose(1, 0)
        ch = h @ t[f"enc{layer}_C"].transpose(1, 0)
        ch_nbr = ag.gather_rows(ch, nbr_flat).reshape(batch, n, k, -1)
        msg = e.sigmoid() * ch_nbr
        node_pre = bh + _aggregate(msg, cfg.aggregation)
        h = h + _normalize(params, node_pre, layer, "node", mode).relu()

        de = e @ t[f"enc{layer}_D"].transpose(1, 0)
        eh = (node_layers[layer] @ t[f"enc{layer}_E"].transpose(1, 0)).reshape(batch, n, 1, -1)
        fh = ag.gather_rows(node_layers[layer] @ t[f"enc{layer}_F"].transpose(1, 0), nbr_flat)
        edge_pre = de + eh + fh.reshape(batch, n, k, -1)
        e = e + _normalize(params, edge_pre, layer, "edge", mode).relu()

        if not np.isfinite(h.data).all() or not np.isfinite(e.data).all():
            raise NumericError(f"non-finite activations at encoder layer {layer}")
        node_layers.append(h)
        edge_layers.append(e)
    h_graph = h.mean(axis=1)
    return node_layers, edge_layers, h, h_graph


def _refine_and_logits(
    params: PolicyParams,
    h_nodes: Tensor,
    ctx: Tensor,
    avail: np.ndarray,
) -> tuple[Tensor, Tensor]:
    """MHA refinement of the context, then clipped masked logits.

    h_nodes: (B, n, d), ctx: (B, T, 3d), avail: (B, T, n) boolean.
    Returns (refined context (B, T, d), logits (B, T, n)).
    """
    cfg = params.config
    t = params.tensors
    batch, n, d = h_nodes.data.shape
    steps = ctx.data.shape[1]
    heads = cfg.heads
    dh = d // heads

    q = (ctx @ t["mha_wq"].transpose(1, 0)).reshape(batch, steps, heads, dh).transpose(0, 2, 1, 3)
    kx = (h_nodes @ t["mha_wk"].transpose(1, 0)).reshape(batch, n, heads, dh).transpose(0, 2, 3, 1)
    vx = (h_nodes @ t["mha_wv"].transpose(1, 0)).reshape(batch, n, heads, dh).transpose(0, 2, 1, 3)
    attn = ((q @ kx) * (1.0 / math.sqrt(dh))).softmax(axis=-1)
    mixed = (attn @ vx).transpose(0, 2, 1, 3).reshape(batch, steps, d)
    refined = mixed @ t["mha_wo"].transpose(1, 0)

    qf = refined @ t["out_wq"].transpose(1, 0)
    kf = h_nodes @ t["out_wk"].transpose(1, 0)
    scores = (qf @ kf.transpose(0, 2, 1)) * (1.0 / math.sqrt(d))
    clipped = scores.tanh() * cfg.logit_clip
    logits = ag.where(avail, clipped, Tensor(-np.inf))
    return refined, logits


# --- public single-instance operations ---------------------------------------


def _instance_graph(inst: Instance, config: PolicyConfig) -> JobGraph:
    return build_graph(inst, rho=config.neighbor_fraction, scale=config.scale_features)


def encode(params: PolicyParams, graph: JobGraph, mode: str = "eval") -> Activations:
    """Embed one job graph; per-layer activations are kept for inspection."""
    if mode not in ("train", "eval"):
        raise ValidationError(f"mode must be 'train' or 'eval', got {mode!r}")
    if graph.features.shape[1] != params.config.machines:
        raise ValidationError(
            f"graph has {graph.features.shape[1]} machines, model expects {params.config.machines}"
        )
    with ag.no_grad():
        node_layers, edge_layers, _, h_graph = _encode_core(
            params,
            graph.features[None],
            graph.neighbors[None],
            graph.distances[None],
            mode,
        )
    return Activations(
        graph=graph,
        mode=mode,
        node_layers=[t.data[0] for t in node_layers],
        edge_layers=[t.data[0] for t in edge_layers],
        graph_embedding=h_graph.data[0],
        placeholder_v1=params.tensors["v1"].data,
        placeholder_v2=params.tensors["v2"].data,
    )


def context(acts: Activations, state: ScheduleState) -> np.ndarray:
    """3d decoding context: graph embedding plus first/previous job slots.

    At t=0 both job slots are the learned placeholders; afterwards they
    hold the first and most recently scheduled jobs' embeddings.
    """
    h = acts.node_layers[-1]
    if state.t == 0:
        first = acts.placeholder_v1
        prev = acts.placeholder_v2
    else:
        first = h[state.scheduled[0]]
        prev = h[state.scheduled[-1]]
    out = np.concatenate([acts.graph_embedding, first, prev])
    acts.context = out
    return out


def decode_step(params: PolicyParams, acts: Activations, state: ScheduleState) -> np.ndarray:
    """Probability vector over jobs for the next action; scheduled jobs get 0."""
    if state.done:
        raise ValidationError("cannot decode from a terminal state (all jobs scheduled)")
    if state.instance.n != acts.graph.n:
        raise ValidationError("state and activations disagree on the job count")
    ctx = context(acts, state)
    avail = state_mask(state)[None, None, :]
    with ag.no_grad():
        refined, logits = _refine_and_logits(
            params,
            Tensor(acts.node_layers[-1][None]),
            Tensor(ctx[None, None, :]),
            avail,
        )
        probs = logits.softmax(axis=-1)
    acts.refined = refined.data[0, 0]
    acts.logits = logits.data[0, 0]
    acts.probs = probs.data[0, 0]
    return acts.probs


def rollout_greedy(params: PolicyParams, inst: Instance) -> np.ndarray:
    """Greedy argmax decode of a full permutation (ties pick the lowest index)."""
    if inst.n == 1:
        return np.zeros(1, dtype=np.int64)
    if inst.m != params.config.machines:
        raise ValidationError(f"instance has {inst.m} machines, model expects {params.config.machines}")
    graph = _instance_graph(inst, params.config)
    acts = encode(params, graph, mode="eval")
    state = reset(inst)
    order = []
    for _ in range(inst.n):
        probs = decode_step(params, acts, state)
        action = int(np.argmax(probs))
        order.append(action)
        state = step(state, action)
    return np.array(order, dtype=np.int64)


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
            if inst.m != config.machines:
                raise ValidationError(
                    f"trace instance has {inst.m} machines, model expects {config.machines}"
                )
            if inst.n != n:
                raise ValidationError("all traces in a batch must share the job count")
            try:
                validate_permutation(np.array(tr.actions), n)
            except ValidationError as exc:
                raise DataError(f"corrupt trace for {inst.name!r}: {exc}") from exc
            graph = _instance_graph(inst, config)
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
    cfg = params.config
    b, n, _ = batch.features.shape
    tau = batch.actions
    _, _, h_nodes, h_graph = _encode_core(params, batch.features, batch.neighbors, batch.distances, mode)
    d = cfg.hidden_dim

    # context slots per step: graph embedding, first job, previous job
    hg = h_graph.reshape(b, 1, d).broadcast_to((b, n, d))
    first_idx = np.repeat(tau[:, :1], n, axis=1)
    prev_idx = np.concatenate([tau[:, :1], tau[:, :-1]], axis=1)
    firsts = ag.gather_rows(h_nodes, first_idx)
    prevs = ag.gather_rows(h_nodes, prev_idx)
    t0 = np.zeros((1, n, 1), dtype=bool)
    t0[0, 0, 0] = True
    slot2 = ag.where(t0, params.tensors["v1"], firsts)
    slot3 = ag.where(t0, params.tensors["v2"], prevs)
    ctx = ag.concat([hg, slot2, slot3], axis=-1)

    # job j is available at step t iff its scheduled position is >= t
    pos = np.argsort(tau, axis=1)
    avail = pos[:, None, :] >= np.arange(n)[None, :, None]

    _, logits = _refine_and_logits(params, h_nodes, ctx, avail)
    log_probs = logits.log_softmax(axis=-1)
    return log_probs.gather(tau[:, :, None], axis=2).reshape(b, n)


def bc_loss(params: PolicyParams, batch: TraceBatch, mode: str = "train") -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy of expert actions, with gradients for every tensor.

    Returns the scalar loss and a name -> gradient dict produced by one
    reverse sweep through the full encoder/decoder graph.
    """
    params.zero_grad()
    lp = _teacher_forced_logprobs(params, batch, mode)
    loss = -lp.mean()
    loss.backward()
    return float(loss.data), params.grads()
