"""Autograd ops that only the tests use, built on ``Tensor._make``.

The library needs none of binary ``-``, ``/``, ``sqrt``, ``relu``,
``sigmoid`` and ``max``: its fused nodes compute them inside one node. The
tests compose them into the reference chains that the fused nodes replace,
so each op here is checked against finite differences and in float32 like
the library's own.
"""

import numpy as np

from flowshop.autograd import Tensor, _as_tensor, _sigmoid, _unbroadcast


def sub(a, b) -> Tensor:
    """``a - b``; either operand may be a constant, which takes the other's dtype."""
    return _as_tensor(a, b) + (-_as_tensor(b, a))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape), owned=True)

    return Tensor._make(a.data / b.data, (a, b), backward)


def sqrt(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(g * 0.5 / np.sqrt(a.data), owned=True)

    return Tensor._make(np.sqrt(a.data), (a,), backward)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)  # -0.0 comes out +0.0; NaN propagates

    def backward(g):
        a._accumulate(g * (out_data > 0), owned=True)

    return Tensor._make(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    out_data = _sigmoid(a.data)

    def backward(g):
        r = g * out_data
        r *= 1 - out_data
        a._accumulate(r, owned=True)

    return Tensor._make(out_data, (a,), backward)


def amax(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Maximum along one axis; the gradient flows to the first argmax."""
    am = np.argmax(a.data, axis=axis)
    out_data = np.take_along_axis(a.data, np.expand_dims(am, axis), axis=axis)
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def backward(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, np.expand_dims(am, axis), gg, axis=axis)
        a._accumulate(ga, owned=True)

    return Tensor._make(out_data, (a,), backward)
