"""Elementwise tape ops that only tests compose: the reference forms of the
fused distances, the composite finite-difference check and the tape tests.
They build on the same ``autodiff`` helpers as the ops in ``src/``."""

import numpy as np

from privkg.autodiff import Tensor, _both, _unary, _unbroadcast, tensor


def maximum(a, b) -> Tensor:
    """Elementwise max; on ties the gradient goes to the first operand."""
    a, b = _both(a, b)
    out = Tensor(np.maximum(a.data, b.data), (a, b))

    def back(g):
        take_a = a.data >= b.data
        a._accumulate(_unbroadcast(g * take_a, a.shape))
        b._accumulate(_unbroadcast(g * ~take_a, b.shape))

    out._backward = back
    return out


def minimum(a, b) -> Tensor:
    a, b = _both(a, b)
    out = Tensor(np.minimum(a.data, b.data), (a, b))

    def back(g):
        take_a = a.data <= b.data
        a._accumulate(_unbroadcast(g * take_a, a.shape))
        b._accumulate(_unbroadcast(g * ~take_a, b.shape))

    out._backward = back
    return out


def exp(a) -> Tensor:
    a = tensor(a)
    e = np.exp(a.data)
    return _unary(a, e, lambda: e)


def sqrt(a) -> Tensor:
    a = tensor(a)
    r = np.sqrt(a.data)
    return _unary(a, r, lambda: np.where(r > 0, 0.5 / np.where(r > 0, r, 1.0), 0.0))


def absolute(a) -> Tensor:
    a = tensor(a)
    return _unary(a, np.abs(a.data), lambda: np.sign(a.data))
