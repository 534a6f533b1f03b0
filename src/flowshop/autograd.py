"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float32 or float64 ndarray: float32 data stays
float32 and anything else becomes float64. Python constants mixed into an
op take the dtype of the tensor operand, so a float32 graph computes in
float32 throughout and its gradients are float32; float32 sums over
several axes run one axis at a time to bound their rounding. Operations
build a backward graph only when some input has ``requires_grad``, so
inference on frozen parameters runs with no tape at all. Gradients are
accumulated by walking the graph in reverse topological order from a
scalar loss; a gradient an op has just allocated for one input, or a node's
own incoming gradient handed to one input alone (``add``'s first operand,
the input of ``reshape`` and ``transpose``, each ``concat`` slice, the
residual of ``residual_normalize``), becomes its ``grad`` uncopied.

The op set is deliberately small: elementwise + * and unary -, matmul with
numpy broadcasting (``linear`` for ``x @ w.T`` as one node), tanh, sum/mean
reductions, stable (log-)softmax that tolerates -inf masking, a row gather
(``gather_rows``), basic indexing, concat, reshape/transpose/broadcast_to,
where, and three fused nodes of the gated graph layer: the
``node_preactivation`` and the ``edge_preactivation`` of the two streams,
and ``residual_normalize``, which is ``res + relu(Nm(pre))`` for batch,
layer or no normalization. The policy network needs all of them; the
tests build their reference chains from further ops on ``Tensor._make``.

``backward()`` releases the graph as it sweeps: each interior node's
gradient, closure and parent links are dropped before its backward runs,
so activations and intermediate gradients are freed during the sweep and
only leaf tensors keep their ``grad``. Each graph therefore allows one
backward; a second call on a released graph raises ``ValueError``. The
forward tape is kept small too: ``residual_normalize`` absorbs the node
that made its pre-activation, so that array is freed as soon as the
caller drops it, and the fused nodes keep only the arrays their backward
reads and recompute the cheap rest, such as ``sigmoid(e)`` (Chen et al.
2016).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor", "concat", "where", "linear", "residual_normalize",
    "gather_rows", "node_preactivation", "edge_preactivation", "no_grad",
]

_GRAD_ENABLED = True


class no_grad:
    """Context manager that suspends graph construction (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _sum(x: np.ndarray, axis, keepdims: bool = False) -> np.ndarray:
    """``x.sum(axis)``, with a float32 sum over several axes taken one axis at a time.

    numpy adds the rows of a multi-axis reduction one after another, so a
    float32 sum over the B*n*k rows of an edge tensor would carry a rounding
    error of up to B*n*k times eps. Axis by axis, each run of additions is
    one axis long. Float64 keeps numpy's order.
    """
    if x.dtype != np.float32 or not isinstance(axis, tuple):
        return x.sum(axis=axis, keepdims=keepdims)
    axes = sorted((ax % x.ndim for ax in axis), reverse=True)
    for ax in axes:
        x = x.sum(axis=ax, keepdims=True)
    return x if keepdims else x.squeeze(tuple(axes))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = _sum(grad, tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = _sum(grad, axes, keepdims=True)
    return grad.reshape(shape)


def _scatter_rows(g: np.ndarray, idx: np.ndarray, rows: int) -> np.ndarray:
    """Inverse of ``t[b, idx[b, j]]``: sum the rows of g (B, J, D) into a fresh (B, rows, D).

    Duplicate indices add, through a one-hot (B, rows, J) @ (B, J, D)
    batched matmul. At the n=20 encoder and context gathers this is about
    8x faster than np.add.at, at n=100 with k=20 about 2x; the one-hot is
    no larger than ``g`` while rows <= D.
    """
    batch, cols = idx.shape
    onehot = np.zeros((batch, rows, cols), dtype=g.dtype)
    onehot[np.arange(batch)[:, None], idx, np.arange(cols)] = 1.0
    return onehot @ g


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` in one fresh array, without temporaries."""
    out = np.negative(x)
    np.exp(out, out=out)
    out += 1
    return np.divide(1, out, out=out)


def _released(grad: np.ndarray) -> None:
    """Backward of a node whose graph an earlier backward() already swept."""
    raise ValueError("graph already released: backward() runs once per graph")


def _as_tensor(value, like=None) -> "Tensor":
    """``value`` as a Tensor; a constant takes the dtype of the tensor ``like``."""
    if isinstance(value, Tensor):
        return value
    dtype = like.data.dtype if isinstance(like, Tensor) else np.float64
    return Tensor(np.asarray(value, dtype=dtype))


class Tensor:
    """Array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ------------------------------------------------

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into this node's gradient.

        ``owned`` says no other input receives ``grad``, so a first write
        keeps it as is; any other first write is copied, because ``grad``
        may be a view that another input also receives.
        """
        if self.grad is None:
            self.grad = grad if owned else np.array(grad, order="C")
        else:
            self.grad += grad

    def backward(self) -> None:
        """Backpropagate from a scalar; fills ``grad`` on requires_grad leaves.

        Interior nodes are released as the sweep passes them (see the module
        docstring), so a second call on the same graph raises ``ValueError``.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            backward, grad = node._backward, node.grad
            if backward is None:
                continue  # a leaf keeps its accumulated grad
            node.grad, node._backward, node._parents = None, _released, ()
            del node  # no consumer holds it now, so its data is freed unless the caller keeps it
            backward(grad)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other, self)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape), owned=True)
            if b.requires_grad:
                gb = _unbroadcast(g, b.data.shape)  # owned when summed into a fresh array
                b._accumulate(gb, owned=not np.may_share_memory(gb, g))

        return Tensor._make(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def backward(g):
            a._accumulate(-g, owned=True)

        return Tensor._make(-a.data, (a,), backward)

    def __mul__(self, other):
        other = _as_tensor(other, self)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.data.shape), owned=True)
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.data.shape), owned=True)

        return Tensor._make(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = _as_tensor(other, self)
        a, b = self, other
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")
        if b.data.ndim == 2 and a.data.ndim > 2:
            return a._matmul_2d_weight(b)

        def backward(g):
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                a._accumulate(_unbroadcast(ga, a.data.shape), owned=True)
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                b._accumulate(_unbroadcast(gb, b.data.shape), owned=True)

        return Tensor._make(a.data @ b.data, (a, b), backward)

    def _matmul_2d_weight(self, w: "Tensor", transposed: bool = False) -> "Tensor":
        """(..., q) @ (q, r), or (..., q) @ w.T for a (r, q) ``w`` when ``transposed``,
        with a's leading axes folded into GEMM rows.

        The forward and both gradients are single 2-D GEMMs, so the weight
        gradient never materialises a batch of (q, r) outer products. A
        transposed weight enters the GEMMs as a transposed view, with no copy
        and no node of its own.
        """
        a = self
        wm = w.data.T if transposed else w.data
        q, r = wm.shape

        def backward(g):
            g2 = g.reshape(-1, r)
            if a.requires_grad:
                a._accumulate((g2 @ wm.T).reshape(a.data.shape), owned=True)
            if w.requires_grad:
                gw = a.data.reshape(-1, q).T @ g2
                w._accumulate(gw.T if transposed else gw, owned=True)

        out = a.data.reshape(-1, q) @ wm
        return Tensor._make(out.reshape(*a.data.shape[:-1], r), (a, w), backward)

    # -- nonlinearities ----------------------------------------------------

    def tanh(self):
        a = self
        out_data = np.tanh(a.data)

        def backward(g):
            a._accumulate(g * (1.0 - out_data * out_data), owned=True)

        return Tensor._make(out_data, (a,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self

        def backward(g):
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.data.shape))
                return
            gg = g
            if not keepdims:
                gg = np.expand_dims(gg, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape))

        return Tensor._make(_sum(a.data, axis, keepdims), (a,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            scale = 1.0 / self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            scale = 1.0 / math.prod(self.data.shape[ax] for ax in axes)
        return self.sum(axis=axis, keepdims=keepdims) * scale

    # -- softmax family ------------------------------------------------------

    def softmax(self, axis: int = -1):
        """Stable softmax; -inf entries come out as exact zeros."""
        a = self
        shift = np.max(a.data, axis=axis, keepdims=True)
        shift = np.where(np.isfinite(shift), shift, 0.0)
        e = np.exp(a.data - shift)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def backward(g):
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (g - inner), owned=True)

        return Tensor._make(out_data, (a,), backward)

    def log_softmax(self, axis: int = -1):
        """Stable log-softmax; masked (-inf) entries stay -inf."""
        a = self
        shift = np.max(a.data, axis=axis, keepdims=True)
        shift = np.where(np.isfinite(shift), shift, 0.0)
        e = np.exp(a.data - shift)
        denom = e.sum(axis=axis, keepdims=True)
        out_data = a.data - shift - np.log(denom)
        p = e / denom

        def backward(g):
            a._accumulate(g - p * g.sum(axis=axis, keepdims=True), owned=True)

        return Tensor._make(out_data, (a,), backward)

    # -- shape / indexing ------------------------------------------------------

    def reshape(self, *shape):
        a = self
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(g):
            a._accumulate(g.reshape(a.data.shape), owned=True)

        return Tensor._make(a.data.reshape(shape), (a,), backward)

    def transpose(self, *axes):
        a = self
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])

        def backward(g):
            a._accumulate(g.transpose(np.argsort(axes)), owned=True)

        return Tensor._make(a.data.transpose(axes), (a,), backward)

    def __getitem__(self, index):
        """Basic indexing (ints and slices), so no element is picked twice."""
        a = self

        def backward(g):
            ga = np.zeros_like(a.data)
            ga[index] = g
            a._accumulate(ga, owned=True)

        return Tensor._make(a.data[index], (a,), backward)

    def broadcast_to(self, shape):
        a = self

        def backward(g):
            ga = _unbroadcast(g, a.data.shape)
            a._accumulate(ga, owned=not np.may_share_memory(ga, g))

        return Tensor._make(np.broadcast_to(a.data, shape).copy(), (a,), backward)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along an axis; backward splits the gradient."""
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(g[tuple(index)], owned=True)  # a disjoint slice

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def where(cond: np.ndarray, a, b) -> Tensor:
    """Select from two tensors with a constant boolean mask."""
    cond = np.asarray(cond, dtype=bool)
    a = _as_tensor(a, b)
    b = _as_tensor(b, a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(np.where(cond, g, 0.0), a.data.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.where(cond, 0.0, g), b.data.shape), owned=True)

    return Tensor._make(np.where(cond, a.data, b.data), (a, b), backward)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """``x @ w.T`` for a weight stored as (out, in), as one node."""
    return x._matmul_2d_weight(w, transposed=True)


def residual_normalize(res: Tensor, pre: Tensor, gamma, beta, axes: tuple[int, ...], eps: float, stats=None):
    """``res + relu((pre - mu) / sqrt(var + eps) * gamma + beta)`` as one node;
    returns ``(out, mu, var)``.

    ``res`` has the shape of ``pre``. The mean and biased variance are taken
    over ``axes`` (kept as size-1 axes), unless ``stats = (mu, var)`` fixes
    them. With ``gamma`` and ``beta`` None the normalization is the identity,
    and ``mu`` and ``var`` are None. The forward runs the ops of the composed
    chain in its order, so it is bit-identical to it.

    The node keeps only ``xhat`` and ``sd`` (Ioffe & Szegedy 2015). Its
    backward recomputes the relu mask as ``xhat * gamma + beta > 0``, the
    forward's bits, hands ``g`` itself to ``res`` and, with ``dxhat = g *
    mask * gamma``, forms ``dpre = (dxhat - mean(dxhat) - xhat * mean(dxhat
    * xhat)) / sd``, or ``dxhat / sd`` with fixed statistics. The node also
    absorbs the node that made ``pre``: it takes over that node's parents
    and calls its backward with ``dpre``. The backwards of ``+`` and
    ``edge_preactivation`` read only their inputs, so once the caller drops
    ``pre`` nothing holds its data: the tape keeps what the backward reads
    and recomputes the cheap rest (Chen et al. 2016). Under ``no_grad`` the
    result is written into ``pre``'s data, so ``pre`` must then be a fresh
    array that nothing else reads.
    """
    data, pre_grad = pre.data, pre.requires_grad
    if pre._backward is not None:  # absorb the node that made pre; the closure must not hold pre
        pre_parents, pre_backward = pre._parents, pre._backward
    else:  # a leaf or a constant stays a parent
        pre_parents, pre_backward = (pre,), lambda dpre: pre._accumulate(dpre, owned=True)
    parents = (res, *pre_parents, *(() if gamma is None else (gamma, beta)))
    into = None if _GRAD_ENABLED else data
    mu = var = None
    if gamma is None:
        xhat = data
        out = np.maximum(data, 0, out=into)  # -0.0 comes out +0.0; NaN propagates
    else:
        if stats is None:
            scale = 1.0 / math.prod(data.shape[ax] for ax in axes)
            mu = _sum(data, axes, keepdims=True) * scale
            xhat = np.subtract(data, mu, out=into)
            var = _sum(xhat * xhat, axes, keepdims=True) * scale
        else:
            mu, var = (np.asarray(s, dtype=data.dtype) for s in stats)
            xhat = np.subtract(data, mu, out=into)
        sd = np.sqrt(var + eps)
        xhat /= sd
        out = np.multiply(xhat, gamma.data, out=into)
        out += beta.data
        np.maximum(out, 0, out=out)
    out += res.data

    def backward(g):
        if gamma is None:
            dy = np.greater(xhat, 0, out=np.empty_like(xhat))
        else:
            dy = xhat * gamma.data
            dy += beta.data
            np.greater(dy, 0, out=dy)  # the relu mask as 1.0 and 0.0, in place
        dy *= g
        if res.requires_grad:  # after dy: an absorbed backward may add into res.grad, which is g
            res._accumulate(g, owned=True)
        if gamma is not None:
            t = dy * xhat
            if gamma.requires_grad:  # not owned: t and dy are reused below
                gamma._accumulate(_unbroadcast(t, gamma.data.shape))
            if beta.requires_grad:
                beta._accumulate(_unbroadcast(dy, beta.data.shape))
            if pre_grad:  # dpre is formed in dy, with t as scratch
                dy *= gamma.data
                if stats is None:
                    mean_dx_xhat = _sum(np.multiply(dy, xhat, out=t), axes, keepdims=True) * scale
                    dy -= _sum(dy, axes, keepdims=True) * scale
                    dy -= np.multiply(xhat, mean_dx_xhat, out=t)
                dy /= sd
            del t  # before the absorbed backward allocates its own
        if pre_grad:
            pre_backward(dy)

    return Tensor._make(out, parents, backward), mu, var


def gather_rows(t: Tensor, idx: np.ndarray) -> Tensor:
    """Pick rows of a (B, N, D) tensor: out[b, j] = t[b, idx[b, j]].

    The backward pass scatter-adds the gradient rows (see ``_scatter_rows``);
    duplicate indices sum there.
    """
    idx = np.asarray(idx, dtype=np.int64)
    batch, rows = t.data.shape[:2]

    def backward(g):
        t._accumulate(_scatter_rows(g, idx, rows), owned=True)

    return Tensor._make(t.data[np.arange(batch)[:, None], idx], (t,), backward)


def node_preactivation(h: Tensor, e: Tensor, wb: Tensor, wc: Tensor, nbr: np.ndarray, aggregation: str) -> Tensor:
    """``h @ wb.T + agg_k(sigmoid(e) * (h @ wc.T)[nbr])`` as one node: (B, n, d).

    ``h`` is (B, n, d_h), ``e`` (B, n, k, d) and ``nbr`` (B, n, k) indexes
    rows of ``h``; ``aggregation`` is "mean", "sum" or "max" over k, and max
    routes the gradient to the first argmax, as ``Tensor.max`` does. The
    forward runs the ops of the composed chain in its order, so it is
    bit-identical to it. The node keeps only ``ch = h @ wc.T`` (and the
    argmax); the backward recomputes ``s = sigmoid(e)`` from ``e``, which
    the tape holds anyway. With ``dm`` the gradient of the message, ``dch``
    scatters ``dm * s`` through ``nbr``, and ``de = dm * ch[nbr] * s * (1 -
    s)`` gathers ``ch[nbr]`` again.
    """
    batch, n, k = nbr.shape
    idx = np.asarray(nbr, dtype=np.int64).reshape(batch, n * k)
    grid = np.arange(batch)[:, None]
    d_out, d_h = wb.data.shape
    h2 = h.data.reshape(-1, d_h)
    ch = (h2 @ wc.data.T).reshape(batch, n, d_out)
    msg = ch[grid, idx].reshape(e.data.shape)
    msg *= _sigmoid(e.data)
    if aggregation == "max":
        am = np.argmax(msg, axis=2)[:, :, None]
        out = np.take_along_axis(msg, am, axis=2)[:, :, 0]
    else:
        out = msg.sum(axis=2)
        if aggregation == "mean":
            scale = out.dtype.type(1.0 / k)
            out *= scale
    out += (h2 @ wb.data.T).reshape(out.shape)

    def backward(g):
        s = _sigmoid(e.data)
        if aggregation == "max":
            dm = np.zeros_like(s)
            np.put_along_axis(dm, am, g[:, :, None], axis=2)
        else:
            dm = (g * scale if aggregation == "mean" else g)[:, :, None]
        dch = _scatter_rows((dm * s).reshape(batch, n * k, d_out), idx, n)
        for w, gw in ((wb, g), (wc, dch)):
            gw2 = gw.reshape(-1, d_out)
            if h.requires_grad:
                h._accumulate((gw2 @ w.data).reshape(h.data.shape), owned=True)
            if w.requires_grad:
                w._accumulate((h2.T @ gw2).T, owned=True)
        if e.requires_grad:  # de = dm * ch[nbr] * s * (1 - s), in place: s - 1 is -(1 - s) exactly
            de = ch[grid, idx].reshape(s.shape)
            de *= dm
            de *= s
            s -= 1
            de *= s
            e._accumulate(np.negative(de, out=de), owned=True)

    # e before h: the sweep then reaches the update that made e before the previous layer's
    # node update, so e's gradient is handed on before that node update makes a second one
    return Tensor._make(out, (e, h, wb, wc), backward)


def edge_preactivation(e: Tensor, h: Tensor, wd: Tensor, we: Tensor, wf: Tensor, nbr: np.ndarray) -> Tensor:
    """``e @ wd.T + (h @ we.T)[:, :, None] + (h @ wf.T)[nbr]`` as one node: (B, n, k, d).

    ``e`` is (B, n, k, d), ``h`` (B, n, d) and ``nbr`` (B, n, k) indexes rows
    of ``h``. The forward adds the three terms into the first in place, in
    the composed chain's order, so it is bit-identical to it. The backward
    works from ``g``, ``e``, ``h`` and the weights alone and never forms the
    broadcast sums: the ``we`` term takes ``g`` summed over k, and the
    ``wf`` term ``g`` scattered through ``nbr``.
    """
    batch, n, k = nbr.shape
    idx = np.asarray(nbr, dtype=np.int64).reshape(batch, n * k)
    (d_out, d_e), d_h = wd.data.shape, we.data.shape[1]
    h2 = h.data.reshape(-1, d_h)
    out = (e.data.reshape(-1, d_e) @ wd.data.T).reshape(batch, n, k, d_out)
    out += (h2 @ we.data.T).reshape(batch, n, 1, d_out)
    out += (h2 @ wf.data.T).reshape(batch, n, d_out)[np.arange(batch)[:, None], idx].reshape(out.shape)

    def backward(g):
        g2 = g.reshape(-1, d_out)
        if e.requires_grad:
            e._accumulate((g2 @ wd.data).reshape(e.data.shape), owned=True)
        if wd.requires_grad:
            wd._accumulate((e.data.reshape(-1, d_e).T @ g2).T, owned=True)
        for w, gw in ((we, g.sum(axis=2)), (wf, _scatter_rows(g.reshape(batch, n * k, d_out), idx, n))):
            gw2 = gw.reshape(-1, d_out)
            if h.requires_grad:
                h._accumulate((gw2 @ w.data).reshape(h.data.shape), owned=True)
            if w.requires_grad:
                w._accumulate((h.data.reshape(-1, d_h).T @ gw2).T, owned=True)

    return Tensor._make(out, (e, h, wd, we, wf), backward)
