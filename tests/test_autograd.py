"""Gradient-core checks: every op against central finite differences, plus dtype and gradient ownership."""

import numpy as np
import pytest

from flowshop import autograd as ag
from flowshop.autograd import Tensor

from reference_ops import amax, div, relu, sigmoid, sqrt, sub


def numeric_grad(fn, values: list[np.ndarray], eps: float = 1e-6) -> list[np.ndarray]:
    """Central finite differences of a scalar fn over a list of arrays."""
    grads = []
    for target in values:
        g = np.zeros_like(target)
        flat = target.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = fn(values)
            flat[idx] = orig - eps
            down = fn(values)
            flat[idx] = orig
            gflat[idx] = (up - down) / (2 * eps)
        grads.append(g)
    return grads


def check_op(build, shapes, seed=0, rtol=1e-6, atol=1e-8):
    """Compare analytic and numeric gradients of scalar-valued `build`."""
    rng = np.random.Generator(np.random.PCG64(seed))
    values = [rng.normal(0.0, 1.0, size=shape) for shape in shapes]

    tensors = [Tensor(v.copy(), requires_grad=True) for v in values]
    out = build(tensors)
    out.backward()

    def fn(vals):
        return float(build([Tensor(v) for v in vals]).data)

    numeric = numeric_grad(fn, [v.copy() for v in values])
    for t, num in zip(tensors, numeric):
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, num, rtol=rtol, atol=atol)


def _square(t: Tensor) -> Tensor:
    """``t * t``: a loss term whose gradient depends on every entry of t."""
    return t * t


class TestElementwise:
    def test_add_broadcast(self):
        check_op(lambda ts: ((ts[0] + ts[1]) * (ts[0] + ts[1])).sum(), [(3, 4), (4,)])

    def test_sub_and_neg(self):
        check_op(lambda ts: (sub(ts[0], ts[1]) * ts[0]).sum(), [(2, 3), (2, 3)])

    def test_mul_broadcast(self):
        check_op(lambda ts: (ts[0] * ts[1]).sum(), [(2, 3, 4), (4,)])

    def test_div(self):
        def build(ts):
            denom = ts[1] * ts[1] + 1.0  # keep away from zero
            return div(ts[0], denom).sum()

        check_op(build, [(3, 3), (3, 3)])

    def test_sqrt(self):
        def build(ts):
            sq = ts[0] * ts[0] + 0.5
            return sqrt(sq).sum()

        check_op(build, [(4,)])

    def test_nonlinearities(self):
        check_op(lambda ts: (ts[0].tanh() + sigmoid(ts[0]) + relu(ts[0])).sum(), [(5, 2)], seed=3)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_relu_pins_zeros_and_nan(self, dtype):
        # the relu inside residual_normalize, with no normalization, taped and in place
        pre = np.array([-0.0, -1.0, 0.0, 2.0, np.nan], dtype=dtype)
        res = Tensor(np.zeros(5, dtype=dtype), requires_grad=True)
        x = Tensor(pre.copy(), requires_grad=True)
        with ag.no_grad():
            in_place = ag.residual_normalize(res, Tensor(pre.copy()), None, None, (), 0.0)[0]
        out = ag.residual_normalize(res, x, None, None, (), 0.0)[0]
        for y in (out, in_place):
            assert y.data.dtype == dtype
            np.testing.assert_array_equal(y.data, [0.0, 0.0, 0.0, 2.0, np.nan])
            assert not np.signbit(y.data[:3]).any()  # -0.0 comes out +0.0
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(res.grad, np.ones(5))


class TestMatmul:
    def test_plain(self):
        check_op(lambda ts: (ts[0] @ ts[1]).sum(), [(3, 4), (4, 2)])

    def test_batched_with_broadcast_rhs(self):
        check_op(lambda ts: (ts[0] @ ts[1]).sum(), [(2, 3, 4), (4, 5)])

    @pytest.mark.parametrize(
        "build, shapes",
        [
            # the edge-layer shape: (B, n, k, d) @ (d, d')
            (lambda ts: ((ts[0] @ ts[1]) * (ts[0] @ ts[1])).sum(), [(2, 3, 2, 4), (4, 5)]),
            # x @ W.T with W stored as (out, in), through a transpose node
            (lambda ts: _square(ts[0] @ ts[1].transpose(1, 0)).sum(), [(2, 3, 4), (5, 4)]),
            # a non-contiguous left operand
            (lambda ts: _square(ts[0].transpose(0, 2, 1) @ ts[1]).sum(), [(2, 4, 3), (4, 5)]),
            # the policy's form: the same x @ W.T as one node
            (lambda ts: _square(ag.linear(ts[0], ts[1])).sum(), [(2, 3, 4), (5, 4)]),
        ],
        ids=["edge-4d", "transposed-weight", "noncontiguous-lhs", "linear"],
    )
    def test_folded_2d_weight(self, build, shapes):
        check_op(build, shapes)

    def test_linear_is_the_transposed_weight_bit_for_bit(self):
        # one node with the same GEMM operands as x @ w.transpose(1, 0)
        rng = np.random.Generator(np.random.PCG64(2))
        arrays = rng.normal(size=(2, 3, 4)), rng.normal(size=(5, 4))
        results = []
        for op in (ag.linear, lambda x, w: x @ w.transpose(1, 0)):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = op(*leaves)
            _square(out).sum().backward()
            results.append([out.data, *(t.grad for t in leaves)])
        for got, ref in zip(*results):
            np.testing.assert_array_equal(got, ref)

    def test_batched_both(self):
        check_op(lambda ts: (ts[0] @ ts[1]).sum(), [(2, 3, 4), (2, 4, 2)])

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


class TestReductions:
    def test_sum_axis_keepdims(self):
        check_op(lambda ts: (ts[0].sum(axis=1, keepdims=True) * ts[0]).sum(), [(3, 4)])

    def test_mean_axes_tuple(self):
        check_op(lambda ts: (ts[0].mean(axis=(0, 1)) * ts[0].mean(axis=(0, 1))).sum(), [(2, 3, 4)])

    def test_max_routes_to_argmax(self):
        check_op(lambda ts: (amax(ts[0], axis=1) * amax(ts[0], axis=1)).sum(), [(4, 5)], seed=7)

    def test_max_keepdims(self):
        check_op(lambda ts: _square(sub(ts[0], amax(ts[0], axis=-1, keepdims=True))).sum(), [(3, 4)], seed=8)


class TestSoftmaxFamily:
    def test_softmax_grad(self):
        check_op(lambda ts: (ts[0].softmax(axis=-1) * ts[1]).sum(), [(3, 5), (3, 5)])

    def test_log_softmax_grad(self):
        check_op(lambda ts: (ts[0].log_softmax(axis=-1) * ts[1]).sum(), [(3, 5), (3, 5)])

    def test_masked_minus_inf_exact_zero(self):
        x = np.array([[1.0, -np.inf, 2.0, -np.inf]])
        p = Tensor(x).softmax(axis=-1)
        assert p.data[0, 1] == 0.0 and p.data[0, 3] == 0.0
        assert p.data.sum() == pytest.approx(1.0, abs=1e-15)

    def test_masked_grad_stays_finite(self):
        mask = np.array([[True, False, True]])
        t = Tensor(np.array([[0.3, 9.9, -0.2]]), requires_grad=True)
        logits = ag.where(mask, t, Tensor(-np.inf))
        lp = logits.log_softmax(axis=-1)
        loss = -ag.gather_rows(lp.reshape(1, 3, 1), np.array([[0]])).sum()
        loss.backward()
        assert np.isfinite(t.grad).all()
        assert t.grad[0, 1] == 0.0  # masked entry receives no gradient

    def test_softmax_matches_explicit_formula(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 6))
        p = Tensor(x).softmax(axis=-1).data
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(p, e / e.sum(axis=-1, keepdims=True), rtol=1e-12)


class TestShapeOps:
    def test_reshape_transpose(self):
        def build(ts):
            y = ts[0].reshape(2, 6).transpose(1, 0)
            return (y * y).sum()

        check_op(build, [(2, 3, 2)])

    def test_concat(self):
        check_op(lambda ts: _square(ag.concat([ts[0], ts[1]], axis=1)).sum(), [(2, 3), (2, 2)])

    def test_where(self):
        cond = np.array([[True, False], [False, True]])
        check_op(lambda ts: _square(ag.where(cond, ts[0], ts[1]) * 2.0).sum(), [(2, 2), (2, 2)])

    def test_broadcast_to(self):
        check_op(lambda ts: (ts[0].broadcast_to((4, 3)) * ts[1]).sum(), [(1, 3), (4, 3)])

    def test_gather_rows_with_duplicates(self):
        idx = np.array([[0, 0, 3], [2, 2, 1]])  # fewer picks than rows
        check_op(lambda ts: _square(ag.gather_rows(ts[0], idx)).sum(), [(2, 4, 3)])

    def test_gather_rows_more_picks_than_rows(self):
        idx = np.array([[1, 0, 1, 2, 1], [2, 2, 0, 2, 1]])
        check_op(lambda ts: _square(ag.gather_rows(ts[0], idx)).sum(), [(2, 3, 2)])


def composed_normalize(x, gamma, beta, axes, eps, stats=None):
    """The normalization chain of plain ops inside ``ag.residual_normalize``."""
    if stats is None:
        mu = x.mean(axis=axes, keepdims=True)
        var = (sub(x, mu) * sub(x, mu)).mean(axis=axes, keepdims=True)
    else:
        mu, var = (Tensor(s) for s in stats)
    xhat = div(sub(x, mu), sqrt(var + eps))
    return xhat * gamma + beta, mu.data, var.data


def composed_residual_normalize(res, pre, gamma, beta, axes, eps, stats=None):
    """The residual chain of plain ops that ``ag.residual_normalize`` fuses."""
    if gamma is None:
        return res + relu(pre), None, None
    y, mu, var = composed_normalize(pre, gamma, beta, axes, eps, stats)
    return res + relu(y), mu, var


# (axes, whether the statistics are fixed, whether there is a normalization):
# batch statistics of an edge-shaped tensor, the same with fixed running
# statistics, layer statistics, and no normalization at all
NORMALIZE_CASES = {
    "batch": ((0, 1, 2), False, True),
    "fixed-stats": ((0, 1, 2), True, True),
    "layer": ((-1,), False, True),
    "none": ((), False, False),
}


class TestNormalize:
    """The fused residual normalization of a leaf against the composed chain it replaces."""

    SHAPE = (3, 4, 2, 5)

    @staticmethod
    def _inputs(dtype, fixed, affine):
        rng = np.random.Generator(np.random.PCG64(11))
        res, x = rng.normal(size=TestNormalize.SHAPE), rng.normal(0.5, 2.0, size=TestNormalize.SHAPE)
        gamma, beta = rng.normal(1.0, 0.3, size=5), rng.normal(0.0, 0.3, size=5)
        weights = rng.normal(size=TestNormalize.SHAPE).astype(dtype)
        stats = (rng.normal(0.5, 1.0, size=5), rng.uniform(0.5, 4.0, size=5)) if fixed else None
        if stats is not None:
            stats = tuple(s.astype(dtype) for s in stats)
        arrays = (res, x, gamma, beta) if affine else (res, x)
        return [a.astype(dtype) for a in arrays], weights, stats

    @staticmethod
    def _call(op, leaves, axes, stats):
        res, x, *affine = leaves
        return op(res, x, *(affine or (None, None)), axes, 1e-5, stats=stats)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("axes, fixed, affine", NORMALIZE_CASES.values(), ids=NORMALIZE_CASES.keys())
    def test_matches_composed(self, axes, fixed, affine, dtype):
        arrays, weights, stats = self._inputs(dtype, fixed, affine)
        results = []
        for op in (ag.residual_normalize, composed_residual_normalize):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            y, mu, var = self._call(op, leaves, axes, stats)
            (y * weights).sum().backward()
            results.append(([y.data, mu, var], [t.grad for t in leaves]))
        (forward, grads), (ref_forward, ref_grads) = results
        for got, ref in zip(forward, ref_forward):  # the same numpy ops in the same order
            if affine:
                assert got.dtype == dtype
            np.testing.assert_array_equal(got, ref)
        for got, ref in zip(grads, ref_grads):  # the backward sums in another order
            assert got.dtype == dtype
            if dtype == np.float64:
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
            else:
                np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("axes, fixed, affine", NORMALIZE_CASES.values(), ids=NORMALIZE_CASES.keys())
    def test_numeric_gradient(self, axes, fixed, affine):
        arrays, weights, stats = self._inputs(np.float64, fixed, affine)
        check_op(
            lambda ts: (self._call(ag.residual_normalize, ts, axes, stats)[0] * weights).sum(),
            [a.shape for a in arrays],
        )

    @pytest.mark.parametrize("axes, fixed, affine", NORMALIZE_CASES.values(), ids=NORMALIZE_CASES.keys())
    def test_no_grad_writes_the_taped_result_into_pre(self, axes, fixed, affine):
        arrays, _, stats = self._inputs(np.float64, fixed, affine)
        taped = self._call(ag.residual_normalize, [Tensor(a, requires_grad=True) for a in arrays], axes, stats)
        leaves = [Tensor(a.copy()) for a in arrays]
        with ag.no_grad():
            untaped = self._call(ag.residual_normalize, leaves, axes, stats)
        assert np.shares_memory(untaped[0].data, leaves[1].data)
        np.testing.assert_array_equal(untaped[0].data, taped[0].data)
        for got, ref in zip(untaped[1:], taped[1:]):  # mu and var, or None without a normalization
            assert (got is None) == (ref is None) == (not affine)
            if affine:
                np.testing.assert_array_equal(got, ref)

    def test_pre_read_elsewhere_keeps_its_gradient(self):
        # the absorbed node that made pre still runs its own backward for pre's other reader
        def build(ts):
            pre = ts[1] * ts[2]
            return _square(ag.residual_normalize(ts[0], pre, None, None, (), 0.0)[0] + pre).sum()

        check_op(build, [(3, 4), (3, 4), (3, 4)])


@pytest.mark.parametrize("rows, dim", [(3, 5), (5, 5), (8, 5)], ids=["N<D", "N=D", "N>D"])
def test_scatter_rows_matches_add_at(rows, dim):
    # the one-hot is the only path at every N; small integers sum exactly in any order
    rng = np.random.Generator(np.random.PCG64(4))
    idx = rng.integers(0, rows, size=(2, 11))
    idx[:, :3] = idx[:, 3:4]  # duplicates in every batch row
    g = rng.integers(-5, 6, size=(2, 11, dim)).astype(np.float64)
    ref = np.zeros((2, rows, dim))
    np.add.at(ref, (np.arange(2)[:, None], idx), g)
    got = ag._scatter_rows(g, idx, rows)
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got, ref)


def composed_gated_message(e, ch, nbr, aggregation, gather=ag.gather_rows):
    """The gated message chain of plain ops that ``ag.gated_message`` fuses."""
    batch, n, k = nbr.shape
    msg = sigmoid(e) * gather(ch, nbr.reshape(batch, n * k)).reshape(batch, n, k, -1)
    if aggregation == "max":
        return amax(msg, axis=2)
    return msg.mean(axis=2) if aggregation == "mean" else msg.sum(axis=2)


def composed_edge_preactivation(e, h, wd, we, wf, nbr, gather=ag.gather_rows):
    """The edge pre-activation chain of plain ops that ``ag.edge_preactivation`` fuses."""
    batch, n, k = nbr.shape
    eh = (h @ we.transpose(1, 0)).reshape(batch, n, 1, -1)
    fh = gather(h @ wf.transpose(1, 0), nbr.reshape(batch, n * k)).reshape(batch, n, k, -1)
    return e @ wd.transpose(1, 0) + eh + fh


# B=2, n=4, k=3 with repeated neighbours; e and h of different widths, output width 3
LAYER_NBR = np.array([[[1, 2, 3], [0, 0, 2], [3, 1, 0], [2, 2, 2]], [[3, 2, 1], [0, 3, 2], [1, 1, 0], [0, 2, 1]]])
LAYER_OPS = {
    **{
        f"gated-message-{agg}": (
            lambda ts, agg=agg: ag.gated_message(ts[0], ts[1], LAYER_NBR, agg),
            lambda ts, agg=agg: composed_gated_message(ts[0], ts[1], LAYER_NBR, agg),
            [(2, 4, 3, 5), (2, 4, 5)],
        )
        for agg in ("mean", "sum", "max")
    },
    "gated-message-ch-rows-beyond-n": (  # ch has 6 rows, two of them never gathered
        lambda ts: ag.gated_message(ts[0], ts[1], LAYER_NBR, "mean"),
        lambda ts: composed_gated_message(ts[0], ts[1], LAYER_NBR, "mean"),
        [(2, 4, 3, 5), (2, 6, 5)],
    ),
    "edge-preactivation": (
        lambda ts: ag.edge_preactivation(*ts, LAYER_NBR),
        lambda ts: composed_edge_preactivation(*ts, LAYER_NBR),
        [(2, 4, 3, 4), (2, 4, 5), (3, 4), (3, 5), (3, 5)],
    ),
}


def _edge_residual(ts, kind, fused):
    """e + relu(Nm(edge pre-activation of e and h)) of width 3; ts: e, h, wd, we, wf[, gamma, beta]."""
    e, h, wd, we, wf, *affine = ts
    pre = (ag.edge_preactivation if fused else composed_edge_preactivation)(e, h, wd, we, wf, LAYER_NBR)
    return _residual(e, pre, affine, kind, fused)


def _node_residual(ts, kind, fused):
    """h + relu(Nm(h B.T + mean-message of e and h C.T)) of width 3; ts: h, e, wb, wc[, gamma, beta]."""
    h, e, wb, wc, *affine = ts
    if fused:
        pre = ag.linear(h, wb) + ag.gated_message(e, ag.linear(h, wc), LAYER_NBR, "mean")
    else:
        pre = h @ wb.transpose(1, 0) + composed_gated_message(e, h @ wc.transpose(1, 0), LAYER_NBR, "mean")
    return _residual(h, pre, affine, kind, fused)


RESIDUAL_STATS = (np.array([0.3, -0.2, 0.5]), np.array([0.8, 1.5, 2.5]))  # fixed (mu, var) of width 3


def _residual(res, pre, affine, kind, fused):
    """The policy's four normalizations: batch (from the batch, or fixed running stats), layer, none."""
    axes = tuple(range(pre.data.ndim - 1)) if kind in ("batch", "fixed-stats") else (-1,)
    stats = tuple(s.astype(pre.data.dtype) for s in RESIDUAL_STATS) if kind == "fixed-stats" else None
    op = ag.residual_normalize if fused else composed_residual_normalize
    return op(res, pre, *(affine or (None, None)), axes, 1e-5, stats=stats)[0]


for _kind, (_, _, _affine) in NORMALIZE_CASES.items():
    _affine_shapes = [(3,), (3,)] if _affine else []
    LAYER_OPS[f"residual-edge-{_kind}"] = (
        lambda ts, kind=_kind: _edge_residual(ts, kind, fused=True),
        lambda ts, kind=_kind: _edge_residual(ts, kind, fused=False),
        [(2, 4, 3, 3), (2, 4, 5), (3, 3), (3, 5), (3, 5), *_affine_shapes],
    )
    LAYER_OPS[f"residual-node-{_kind}"] = (
        lambda ts, kind=_kind: _node_residual(ts, kind, fused=True),
        lambda ts, kind=_kind: _node_residual(ts, kind, fused=False),
        [(2, 4, 3), (2, 4, 3, 3), (3, 3), (3, 3), *_affine_shapes],
    )


class TestLayerOps:
    """The fused gated-graph layer ops against the composed chains they replace."""

    @staticmethod
    def _weights(shape):
        return np.random.Generator(np.random.PCG64(12)).normal(size=shape)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("fused, composed, shapes", LAYER_OPS.values(), ids=LAYER_OPS.keys())
    def test_matches_composed(self, fused, composed, shapes, dtype):
        rng = np.random.Generator(np.random.PCG64(11))
        arrays = [rng.normal(0.0, 1.5, size=shape).astype(dtype) for shape in shapes]
        results = []
        for op in (fused, composed):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = op(leaves)
            (out * self._weights(out.data.shape).astype(dtype)).sum().backward()
            results.append((out.data, [t.grad for t in leaves]))
        (forward, grads), (ref_forward, ref_grads) = results
        assert forward.dtype == dtype
        np.testing.assert_array_equal(forward, ref_forward)  # the same numpy ops in the same order
        for got, ref in zip(grads, ref_grads):  # the backward may sum in another order
            assert got.dtype == dtype
            if dtype == np.float64:
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
            else:
                np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("fused, composed, shapes", LAYER_OPS.values(), ids=LAYER_OPS.keys())
    def test_numeric_gradient(self, fused, composed, shapes):
        out_shape = fused([Tensor(np.ones(shape)) for shape in shapes]).data.shape
        weights = self._weights(out_shape)
        check_op(lambda ts: (fused(ts) * weights).sum(), shapes)


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2.0).backward()

    def test_grad_accumulates_over_reuse(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        y = (t * t + t).sum()  # dy/dt = 2t + 1 = 7
        y.backward()
        assert t.grad[0] == pytest.approx(7.0)

    def test_no_grad_suppresses_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with ag.no_grad():
            out = (t * 2.0).sum()
        assert not out.requires_grad
        assert out._backward is None

    def test_constants_build_no_graph(self):
        out = (Tensor(np.ones(3)) * 2.0).sum()
        assert not out.requires_grad

    def test_second_backward_raises(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        y = (t * t).sum()
        y.backward()
        assert t.grad[0] == pytest.approx(6.0)
        with pytest.raises(ValueError, match="graph already released"):
            y.backward()
        assert t.grad[0] == pytest.approx(6.0)

    def test_diamond_topology(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        a = t * 3.0
        b = t * 5.0
        y = (a * b).sum()  # y = 15 t^2, dy/dt = 30 t = 60
        y.backward()
        assert t.grad[0] == pytest.approx(60.0)


# Each op fed float32 inputs: (build over the input tensors, input shapes).
# Inputs are drawn in [0.5, 2] so sqrt stays defined.
FLOAT32_OPS = {
    "add-scalar": (lambda ts: ts[0] + 1.5, [(3, 4)]),
    "add-broadcast": (lambda ts: ts[0] + ts[1], [(3, 4), (4,)]),
    "radd": (lambda ts: 1.5 + ts[0], [(3,)]),
    "sub": (lambda ts: sub(ts[0], ts[1]), [(3, 4), (3, 4)]),
    "rsub": (lambda ts: sub(2.0, ts[0]), [(3,)]),
    "neg": (lambda ts: -ts[0], [(3,)]),
    "mul-scalar": (lambda ts: ts[0] * 0.1, [(3, 4)]),
    "mul-broadcast": (lambda ts: ts[0] * ts[1], [(2, 3, 4), (4,)]),
    "div": (lambda ts: div(ts[0], ts[1]), [(3, 4), (3, 4)]),
    "matmul": (lambda ts: ts[0] @ ts[1], [(2, 3, 4), (2, 4, 2)]),
    "matmul-2d-weight": (lambda ts: ts[0] @ ts[1].transpose(1, 0), [(2, 3, 4), (5, 4)]),
    "linear": (lambda ts: ag.linear(ts[0], ts[1]), [(2, 3, 4), (5, 4)]),
    "sqrt": (lambda ts: sqrt(ts[0]), [(4,)]),
    "relu": (lambda ts: relu(sub(ts[0], 1.0)), [(5,)]),
    "sigmoid": (lambda ts: sigmoid(ts[0]), [(5,)]),
    "tanh": (lambda ts: ts[0].tanh(), [(5,)]),
    "sum": (lambda ts: ts[0].sum(axis=(0, 1), keepdims=True), [(2, 3, 4)]),
    "mean": (lambda ts: ts[0].mean(axis=(0, 1)), [(2, 3, 4)]),
    "max": (lambda ts: amax(ts[0], axis=1), [(3, 4)]),
    "softmax": (lambda ts: ts[0].softmax(axis=-1) * ts[1], [(3, 5), (3, 5)]),
    "log-softmax": (lambda ts: ts[0].log_softmax(axis=-1) * ts[1], [(3, 5), (3, 5)]),
    "reshape": (lambda ts: ts[0].reshape(6, 2), [(2, 3, 2)]),
    "transpose": (lambda ts: ts[0].transpose(1, 0), [(3, 4)]),
    "broadcast-to": (lambda ts: ts[0].broadcast_to((4, 3)), [(1, 3)]),
    "concat": (lambda ts: ag.concat([ts[0], ts[1]], axis=1), [(2, 3), (2, 2)]),
    "where-constant": (lambda ts: ag.where(np.array([True, False, True]), ts[0], -np.inf), [(3,)]),
    "where": (lambda ts: ag.where(np.array([True, False]), ts[0], ts[1]), [(2,), (2,)]),
    "gather-rows": (lambda ts: ag.gather_rows(ts[0], np.array([[0, 0, 3], [2, 2, 1]])), [(2, 4, 3)]),
    "normalize": (
        lambda ts: ag.residual_normalize(ts[0], ts[1], ts[2], ts[3], (0, 1), 1e-5)[0],
        [(2, 3, 4), (2, 3, 4), (4,), (4,)],
    ),
    **{name: (fused, shapes) for name, (fused, _, shapes) in LAYER_OPS.items()},
}


class TestFloat32:
    """A float32 graph stays float32: constants take the tensor operand's dtype."""

    @pytest.mark.parametrize("build, shapes", FLOAT32_OPS.values(), ids=FLOAT32_OPS.keys())
    def test_op_keeps_float32(self, build, shapes):
        rng = np.random.Generator(np.random.PCG64(0))
        tensors = [Tensor(rng.uniform(0.5, 2.0, size=s).astype(np.float32), requires_grad=True) for s in shapes]
        out = build(tensors)
        assert out.data.dtype == np.float32
        ag.where(np.isfinite(out.data), out, 0.0).sum().backward()  # drop the -inf fill
        for t in tensors:
            assert t.grad.dtype == np.float32

    def test_other_data_becomes_float64(self):
        for data in (np.arange(3), np.ones(2, dtype=np.float16), [1, 2], 3.0, np.ones(2, dtype=bool)):
            assert Tensor(data).data.dtype == np.float64
        assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32


# f(u, v, y) where u and v are two uses of one input x and y is a second input
SHARED_NBR = np.array([[[2], [0], [0]]])
SHARED_INPUT_CASES = {
    "x + x": lambda u, v, y: (u + v) + y,  # the outer add hands one gradient to two inputs
    "a * a": lambda u, v, y: u * v + y,
    "concat([t, t])": lambda u, v, y: ag.concat([u, v, y], axis=0),
    "broadcast sum": lambda u, v, y: u.sum(axis=0) * v + y,
    "reshape": lambda u, v, y: u.reshape(4, 3) + (v + y).reshape(4, 3),
    "transpose": lambda u, v, y: u.transpose(1, 0) @ (v * y),
    "normalize(x) + x": lambda u, v, y: ag.residual_normalize(v, u, y, y, (0,), 1e-5)[0],
    # e and ch, and e and h, from one input: (B, n, k, d) = (1, 3, 1, 4)
    "gated_message(x, x)": lambda u, v, y: ag.gated_message(
        u.reshape(1, 3, 1, 4), v.reshape(1, 3, 4), SHARED_NBR, "mean"
    ).reshape(3, 4) + y,
    "edge_preactivation(x, x)": lambda u, v, y: ag.edge_preactivation(
        u.reshape(1, 3, 1, 4), v.reshape(1, 3, 4), y, y, y, SHARED_NBR
    ).reshape(3, 3),
}


class TestGradientOwnership:
    """A first-write gradient is kept without a copy only when no other input can see it."""

    @staticmethod
    def _loss(out: Tensor) -> Tensor:
        rng = np.random.Generator(np.random.PCG64(1))
        weights = rng.normal(size=out.data.shape).astype(out.data.dtype)
        return (out * weights).sum()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("f", SHARED_INPUT_CASES.values(), ids=SHARED_INPUT_CASES.keys())
    def test_shared_input_matches_fresh_copies(self, f, dtype):
        rng = np.random.Generator(np.random.PCG64(0))
        x_data, y_data = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        # reference: float64, each use of x a fresh leaf, its gradient the sum over the uses
        x1, x2, y_ref = (Tensor(v.copy(), requires_grad=True) for v in (x_data, x_data, y_data))
        self._loss(f(x1, x2, y_ref)).backward()

        x = Tensor(x_data.astype(dtype), requires_grad=True)
        y = Tensor(y_data.astype(dtype), requires_grad=True)
        self._loss(f(x, x, y)).backward()
        assert not np.shares_memory(x.grad, y.grad)
        if dtype == np.float64:
            np.testing.assert_array_equal(x.grad, x1.grad + x2.grad)
            np.testing.assert_array_equal(y.grad, y_ref.grad)
        else:
            np.testing.assert_allclose(x.grad, x1.grad + x2.grad, rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(y.grad, y_ref.grad, rtol=1e-5, atol=1e-6)
