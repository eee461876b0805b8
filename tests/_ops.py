"""Tape ops that only tests compose: the reference forms of the fused
distances and of ``segment_log_softmax``, the composite finite-difference
check and the tape tests. They build on the same ``autodiff`` helpers as the
ops in ``src/``."""

import numpy as np

from privkg.autodiff import AutodiffError, Tensor, _both, _unary, _unbroadcast, tensor


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


def segment_max(a, index, counts) -> Tensor:
    """Row i is the elementwise max of the ``counts[i]`` rows of ``a`` (R, n) listed
    next in ``index``, each row listed at most once. One-row segments are copied;
    only longer ones take a max, ties going to the first maximal row as in
    ``reduce_max``. Backward assigns each gradient to its one source row."""
    a, index, counts = tensor(a), np.asarray(index, dtype=np.intp), np.asarray(counts)
    if counts.min(initial=1) < 1 or counts.sum() != index.size:
        raise AutodiffError("segment_max needs segments of >= 1 row covering the index")
    starts = np.cumsum(counts) - counts
    first, multi, cols = index[starts], np.flatnonzero(counts > 1), np.arange(a.shape[1])
    # pad each longer segment to the longest by repeating its last row (the max is
    # unchanged); ``source`` (m, n) is the row each of their maxima came from
    pad = index[starts[multi, None] + np.minimum(np.arange(counts.max()), counts[multi, None] - 1)]
    source = np.take_along_axis(pad, a.data[pad].argmax(axis=1), axis=1)
    data = a.data[first]
    data[multi] = a.data[source, cols]
    out = Tensor(data, (a,))

    def back(g):
        grad = np.zeros_like(a.data)
        grad[first] = g
        grad[first[multi]] = 0.0
        grad[source, cols] = g[multi]
        a._accumulate(grad)

    out._backward = back
    return out


def log_softmax(a, axis=-1) -> Tensor:
    a = tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = Tensor(y, (a,))

    def back(g):
        # refers to y, not to out: a closure holding its own node is a cycle
        a._accumulate(g - np.exp(y) * g.sum(axis=axis, keepdims=True))

    out._backward = back
    return out
