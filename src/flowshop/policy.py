"""Graph-encoder/attention-decoder policy over scheduling states.

Jobs are nodes of a sparse k-NN graph (k = max(1, floor(rho*n)) nearest
by Euclidean distance between processing-time columns). A gated graph
convolution stack embeds nodes and edges with residual updates

    h' = h + ReLU(Nm(B h_j + Ag_k(sigmoid(e_jk) * C h_k)))
    e' = e + ReLU(Nm(D e_jk + E h_j + F h_k))

The message Ag_k(...) and the edge pre-activation inside Nm(...) are one
autograd node each (``gated_message``, ``edge_preactivation``). The
decoder refines a 3d context [graph embedding, first job, last
job] with one multi-head attention block, then scores each unscheduled
job with clip * tanh(query . key / sqrt(d)) logits; scheduled jobs are
masked to -inf so their probability is exactly zero. The node keys and
values of the decoder do not change between steps, so ``_keys`` projects
them once per encoding.

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
    initialized uniform in [-1/sqrt(d), 1/sqrt(d)], in float64; the
    forward and backward passes compute in the tensors' dtype, which
    ``training.train`` rounds to float32.
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
        # tensors outside the loss path (the last layer's edge update, which
        # _encode_core skips) carry an exact zero gradient
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
    dist = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    # a stable sort keeps equal distances in index order: ties go to the lower index
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]
    distances = np.take_along_axis(dist, neighbors, axis=1)
    return JobGraph(features=feats, neighbors=neighbors, distances=distances)


@dataclass
class Activations:
    """Forward-pass record: per-layer embeddings, the decoder's node keys,
    and decoder scratch.

    ``edge_layers`` stops at e^(L-1): the last layer's edge update would
    feed nothing, so the encoder skips it.
    """

    graph: JobGraph
    node_layers: list[np.ndarray]  # h^0 .. h^L, each (n, d)
    edge_layers: list[np.ndarray]  # e^0 .. e^(L-1), each (n, k, d)
    graph_embedding: np.ndarray  # (d,)
    keys: tuple[Tensor, Tensor, Tensor]  # ``_keys`` of h^L, batch of one
    refined: np.ndarray | None = None  # last MHA output h_(c)
    logits: np.ndarray | None = None  # last masked logits (n,)
    probs: np.ndarray | None = None  # last probabilities (n,)


# --- shared tensor-level forward pieces -------------------------------------


def _normalize(params: PolicyParams, x: Tensor, layer: int, stream: str, mode: str) -> Tensor:
    """Layer norm over the feature axis, or batch norm over the others: from the
    batch in train mode (folded into the running buffers), from those buffers in eval mode."""
    kind = params.config.normalization
    if kind == "none":
        return x
    name = f"enc{layer}_{stream}"
    gamma, beta = params.tensors[f"{name}_gamma"], params.tensors[f"{name}_beta"]
    if kind == "layer":
        return ag.normalize(x, gamma, beta, (-1,), _BN_EPS)[0]
    running = (params.buffers[f"{name}_mean"], params.buffers[f"{name}_var"])
    axes = tuple(range(x.data.ndim - 1))
    if mode != "train":
        return ag.normalize(x, gamma, beta, axes, _BN_EPS, stats=running)[0]
    y, mu, var = ag.normalize(x, gamma, beta, axes, _BN_EPS)
    for buffer, stat in zip(running, (mu, var)):
        buffer *= 1.0 - _BN_MOMENTUM
        buffer += _BN_MOMENTUM * stat.reshape(-1)
    return y


def _encode_core(
    params: PolicyParams,
    x: np.ndarray,
    nbr: np.ndarray,
    dist: np.ndarray,
    mode: str,
) -> tuple[list[Tensor], list[Tensor], Tensor, Tensor]:
    """Run the gated graph stack on a batch; returns per-layer tensors.

    x: (B, n, m) features, nbr: (B, n, k) neighbor indices, dist: (B, n, k).
    The stack computes in the parameters' dtype. The last layer's edge
    update is skipped, since no later layer reads it: its weights get exact
    zero gradients and its edge batch-norm statistics stay at their
    initial values.
    """
    cfg = params.config
    t = params.tensors
    dtype = t["w_h"].data.dtype
    h = Tensor(x.astype(dtype, copy=False)) @ t["w_h"].transpose(1, 0)
    e = Tensor(dist[..., None].astype(dtype, copy=False)) * t["w_e"]
    node_layers = [h]
    edge_layers = [e]
    edges_finite = np.isfinite(e.data).all()  # e^0; later, only an updated e is checked again
    for layer in range(cfg.layers):
        bh = h @ t[f"enc{layer}_B"].transpose(1, 0)
        ch = h @ t[f"enc{layer}_C"].transpose(1, 0)
        node_pre = bh + ag.gated_message(e, ch, nbr, cfg.aggregation)
        h = h + _normalize(params, node_pre, layer, "node", mode).relu()

        if layer + 1 < cfg.layers:
            weights = (t[f"enc{layer}_{name}"] for name in ("D", "E", "F"))
            edge_pre = ag.edge_preactivation(e, node_layers[layer], *weights, nbr)
            e = e + _normalize(params, edge_pre, layer, "edge", mode).relu()
            edges_finite = np.isfinite(e.data).all()
            edge_layers.append(e)

        if not (edges_finite and np.isfinite(h.data).all()):
            raise NumericError(f"non-finite activations at encoder layer {layer}")
        node_layers.append(h)
    h_graph = h.mean(axis=1)
    return node_layers, edge_layers, h, h_graph


def _keys(params: PolicyParams, h_nodes: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """The decoder's node projections, which no decoding step changes: from h_nodes
    (B, n, d), attention keys (B, heads, dh, n), values (B, heads, n, dh), output keys (B, d, n)."""
    t = params.tensors
    batch, n, d = h_nodes.data.shape
    split = (batch, n, params.config.heads, d // params.config.heads)
    kx = (h_nodes @ t["mha_wk"].transpose(1, 0)).reshape(split).transpose(0, 2, 3, 1)
    vx = (h_nodes @ t["mha_wv"].transpose(1, 0)).reshape(split).transpose(0, 2, 1, 3)
    kf = (h_nodes @ t["out_wk"].transpose(1, 0)).transpose(0, 2, 1)
    return kx, vx, kf


def _decode(params: PolicyParams, h_nodes: Tensor, h_graph: Tensor, keys, first, prev, avail) -> tuple[Tensor, Tensor]:
    """Context [graph embedding, first job, previous job], its MHA refinement,
    then clipped masked logits.

    h_nodes: (B, n, d), h_graph: (B, d), keys from ``_keys``; first, prev:
    (B, T) job indices, where -1 selects the learned placeholder v1 or v2;
    avail: (B, T, n) boolean. Returns (refined context (B, T, d), logits (B, T, n)).
    """
    cfg = params.config
    t = params.tensors
    kx, vx, kf = keys
    batch, _, d = h_nodes.data.shape
    steps = first.shape[1]
    heads = cfg.heads
    dh = d // heads

    slots = [h_graph.reshape(batch, 1, d).broadcast_to((batch, steps, d))]
    for jobs, placeholder in ((first, t["v1"]), (prev, t["v2"])):
        rows = ag.gather_rows(h_nodes, np.maximum(jobs, 0))
        slots.append(ag.where(jobs[..., None] < 0, placeholder, rows))
    ctx = ag.concat(slots, axis=-1)

    q = (ctx @ t["mha_wq"].transpose(1, 0)).reshape(batch, steps, heads, dh).transpose(0, 2, 1, 3)
    attn = ((q @ kx) * (1.0 / math.sqrt(dh))).softmax(axis=-1)
    mixed = (attn @ vx).transpose(0, 2, 1, 3).reshape(batch, steps, d)
    refined = mixed @ t["mha_wo"].transpose(1, 0)

    qf = refined @ t["out_wq"].transpose(1, 0)
    scores = (qf @ kf) * (1.0 / math.sqrt(d))
    clipped = scores.tanh() * cfg.logit_clip
    logits = ag.where(avail, clipped, -np.inf)
    return refined, logits


# --- public single-instance operations ---------------------------------------


def encode(params: PolicyParams, graph: JobGraph) -> Activations:
    """Embed one job graph in eval mode; per-layer activations are kept for inspection."""
    if graph.features.shape[1] != params.config.machines:
        raise ValidationError(
            f"graph has {graph.features.shape[1]} machines, model expects {params.config.machines}"
        )
    with ag.no_grad():
        node_layers, edge_layers, h_nodes, h_graph = _encode_core(
            params, graph.features[None], graph.neighbors[None], graph.distances[None], "eval"
        )
        keys = _keys(params, h_nodes)
    return Activations(
        graph=graph,
        node_layers=[t.data[0] for t in node_layers],
        edge_layers=[t.data[0] for t in edge_layers],
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
    h_nodes, h_graph = Tensor(acts.node_layers[-1][None]), Tensor(acts.graph_embedding[None])
    with ag.no_grad():
        refined, logits = _decode(params, h_nodes, h_graph, acts.keys, first, prev, state_mask(state)[None, None, :])
        probs = logits.softmax(axis=-1)
    acts.refined = refined.data[0, 0]
    acts.logits = logits.data[0, 0]
    acts.probs = probs.data[0, 0]
    return acts.probs


def rollout_greedy(params: PolicyParams, inst: Instance) -> np.ndarray:
    """Greedy argmax decode of a full permutation (ties pick the lowest index)."""
    if inst.m != params.config.machines:
        raise ValidationError(f"instance {inst.name!r} has {inst.m} machines, model expects {params.config.machines}")
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
            if inst.m != config.machines:
                raise ValidationError(
                    f"trace instance {inst.name!r} has {inst.m} machines, model expects {config.machines}"
                )
            if inst.n != n:
                raise ValidationError(
                    f"trace instance {inst.name!r} has {inst.n} jobs, the first has {n}:"
                    " all traces in a batch must share the job count"
                )
            try:
                validate_permutation(np.array(tr.actions), n)
            except ValidationError as exc:
                raise DataError(f"corrupt trace for {inst.name!r}: {exc}") from exc
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
    _, _, h_nodes, h_graph = _encode_core(params, batch.features, batch.neighbors, batch.distances, mode)
    # step t's job slots: the placeholders at t=0, then tau[0] and tau[t-1]
    first = np.repeat(tau[:, :1], n, axis=1)
    first[:, 0] = -1
    prev = np.concatenate([np.full((b, 1), -1), tau[:, :-1]], axis=1)
    # job j is available at step t iff its scheduled position is >= t
    pos = np.argsort(tau, axis=1)
    avail = pos[:, None, :] >= np.arange(n)[None, :, None]

    _, logits = _decode(params, h_nodes, h_graph, _keys(params, h_nodes), first, prev, avail)
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
