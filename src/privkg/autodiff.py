"""Dense float64 arrays with reverse-mode differentiation on a dynamic tape.

Every operation builds a fresh node; calling ``backward`` on a scalar loss
walks the recorded graph once. No graph reuse across steps.

Encoders score against the whole entity table through two fused ops, each one
tape node that keeps no (B, n, d) array: ``distances`` (Euclidean; GQE and
Q2P) and ``box_distances`` (Query2Box's clipped L1; Q2B); a third,
``segment_log_softmax``, takes their scores to picked log-probabilities.
Backward computes no gradient for an operand that does not require one, and
stores a copy of a tensor's first gradient.
"""

from __future__ import annotations

import numpy as np


class AutodiffError(Exception):
    pass


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Node on the tape: a float64 ndarray plus backward closure."""

    __slots__ = ("data", "grad", "parents", "_backward", "requires_grad", "__weakref__")

    def __init__(self, data, parents=(), requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self._backward = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    # -- graph walk ------------------------------------------------------

    def backward(self) -> None:
        if self.data.shape != ():
            raise AutodiffError("backward requires a scalar loss, got shape %r" % (self.shape,))
        # iterative post-order, marking a node when it is expanded; unlike a
        # recursive closure it leaves no cycle, so reference counts free the tape
        topo, seen, todo = [], set(), [(self, False)]
        while todo:
            node, expanded = todo.pop()
            if expanded:
                topo.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                todo.append((node, True))
                todo.extend((p, False) for p in reversed(node.parents))
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(topo):
            if node._backward is None or not node.requires_grad:
                continue
            node._backward(node.grad)

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)  # a copy: grad may be upstream's
        else:
            self.grad += grad

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return multiply(self, other)

    def __neg__(self):
        return multiply(self, -1.0)


def tensor(data) -> Tensor:
    if isinstance(data, Tensor):
        return data
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise AutodiffError("non-finite input")
    return Tensor(arr)


def _both(a, b):
    return tensor(a), tensor(b)


# -- arithmetic -----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _both(a, b)
    out = Tensor(a.data + b.data, (a, b))

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    out._backward = back
    return out


def subtract(a, b) -> Tensor:
    return add(a, multiply(b, -1.0))


def multiply(a, b) -> Tensor:
    a, b = _both(a, b)
    out = Tensor(a.data * b.data, (a, b))

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    out._backward = back
    return out


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = _both(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise AutodiffError("matmul operands need at least 2 axes")
    out = Tensor(a.data @ b.data, (a, b))

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    out._backward = back
    return out


def concat(parts, axis=0) -> Tensor:
    parts = [tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis), tuple(parts))
    sizes = [p.data.shape[axis] for p in parts]

    def back(g):
        offset = 0
        for p, size in zip(parts, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            p._accumulate(g[tuple(index)])
            offset += size

    out._backward = back
    return out


def stack(parts, axis=0) -> Tensor:
    parts = [tensor(p) for p in parts]
    out = Tensor(np.stack([p.data for p in parts], axis=axis), tuple(parts))

    def back(g):
        for i, p in enumerate(parts):
            p._accumulate(np.take(g, i, axis=axis))

    out._backward = back
    return out


def rows(table, index) -> Tensor:
    """Gather rows of a 2-d table, refusing an id outside it; backward scatter-adds."""
    table = tensor(table)
    index = np.asarray(index, dtype=np.intp)
    n = table.shape[0]
    if index.size and index.view(np.uintp).max() >= n:  # unsigned, -1 is out of range
        raise AutodiffError("row id %d outside a table of %d rows"
                            % (index[(index < 0) | (index >= n)][0], n))
    out = Tensor(table.data[index], (table,))

    def back(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, index, g)

    out._backward = back
    return out


def reshape(a, shape) -> Tensor:
    a = tensor(a)
    out = Tensor(a.data.reshape(shape), (a,))

    def back(g):
        a._accumulate(g.reshape(a.shape))

    out._backward = back
    return out


# -- reductions -----------------------------------------------------------


def reduce_sum(a, axis=None) -> Tensor:
    a = tensor(a)
    out = Tensor(a.data.sum(axis=axis), (a,))

    def back(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    out._backward = back
    return out


def reduce_mean(a, axis=None) -> Tensor:
    a = tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return multiply(reduce_sum(a, axis=axis), 1.0 / count)


def _reduce_extreme(a, axis, redfn):
    a = tensor(a)
    out_data = redfn(a.data, axis=axis)
    out = Tensor(out_data, (a,))

    def back(g):
        # subgradient to the first entry equal to the extreme or NaN, argmin/argmax's
        # pick, found by counting misses (they loop column by column on a middle axis)
        hit = np.moveaxis((a.data == np.expand_dims(out_data, axis)) | np.isnan(a.data), axis, 0)
        miss, idx = np.ones(out_data.shape, dtype=bool), np.zeros(out_data.shape, dtype=np.intp)
        for k in range(len(hit) - 1):
            miss &= ~hit[k]
            idx += miss
        grad = np.zeros_like(a.data)
        np.put_along_axis(grad, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
        a._accumulate(grad)

    out._backward = back
    return out


def reduce_min(a, axis=0) -> Tensor:
    return _reduce_extreme(a, axis, np.min)


def reduce_max(a, axis=0) -> Tensor:
    return _reduce_extreme(a, axis, np.max)


# -- elementwise nonlinearities -------------------------------------------


def _unary(a, value, local_grad):
    """``local_grad()`` runs in backward only, so forward-only scoring skips it."""
    a = tensor(a)
    out = Tensor(value, (a,))

    def back(g):
        a._accumulate(g * local_grad())

    out._backward = back
    return out


def relu(a) -> Tensor:
    a = tensor(a)
    return _unary(a, np.maximum(a.data, 0.0), lambda: (a.data > 0).astype(np.float64))


def sigmoid(a) -> Tensor:
    a = tensor(a)
    # exp of -|x| cannot overflow; x < 0 takes the form e / (1 + e)
    e = np.exp(-np.abs(a.data))
    s = np.where(a.data >= 0, 1.0, e) / (1.0 + e)
    return _unary(a, s, lambda: s * (1.0 - s))


def tanh(a) -> Tensor:
    a = tensor(a)
    t = np.tanh(a.data)
    return _unary(a, t, lambda: 1.0 - t * t)


# -- fused distances, softmax, attention ---------------------------------


# below this share of ‖q‖² + ‖e‖², cancellation in the expansion is comparable
# to the squared distance itself, so those pairs take the difference form
_NEAR = 1e-4


def distances(rows, table) -> Tensor:
    """Euclidean distance from every row of ``rows`` (B, d) to every row of
    ``table`` (n, d), shape (B, n), as one tape node.

    The squared distance is expanded as ‖q‖² + ‖e‖² − 2 q·e, one matmul and no
    (B, n, d) array. Near pairs, below ``_NEAR`` of ‖q‖² + ‖e‖², are recomputed
    in difference form in forward and backward, so a perfect match is exactly
    0 and its gradient exactly 0 (sqrt's subgradient at 0)."""
    rows, table = _both(rows, table)
    q, e = rows.data, table.data
    if q.ndim != 2 or e.ndim != 2 or q.shape[1] != e.shape[1]:
        raise AutodiffError("distances needs (B, d) and (n, d) operands, got %r and %r"
                            % (q.shape, e.shape))
    norms = (q * q).sum(axis=1)[:, None] + (e * e).sum(axis=1)
    sq = q @ e.T  # in place from here: a step holds few (B, n) temporaries at once
    sq *= -2.0
    sq += norms
    # flatnonzero plus divmod gives np.nonzero's (i, j) order without its 2-d slow path
    i, j = np.divmod(np.flatnonzero(sq < np.multiply(norms, _NEAR, out=norms)), e.shape[0])
    near = q[i] - e[j]
    sq[i, j] = (near * near).sum(axis=1)
    dist = np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)
    out = Tensor(dist, (rows, table))

    def back(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            w = g / dist
        w[~(dist > 0)] = 0.0  # a zero or NaN distance passes no gradient
        pair = w[i, j][:, None] * near
        w[i, j] = 0.0
        if rows.requires_grad:
            grad = q * w.sum(axis=1)[:, None] - w @ e
            np.add.at(grad, i, pair)
            rows._accumulate(grad)
        if table.requires_grad:
            grad = e * w.sum(axis=0)[:, None] - w.T @ q
            np.add.at(grad, j, -pair)
            table._accumulate(grad)

    out._backward = back
    return out


def box_distances(center, offset, table, alpha) -> Tensor:
    """Query2Box distance from every box (``center``, ``offset``: (B, d)) to
    every row of ``table`` (n, d), shape (B, n), as one tape node.

    With x = |e − c|, the distance is Σ max(x − o, 0) + alpha·Σ min(x, o),
    computed as alpha·Σ x + (1 − alpha)·Σ max(x − o, 0): two non-negative
    sums, one row at a time over one (n, d) temporary. Backward recomputes x,
    so the tape keeps no (B, n, d) array. Subgradients are those of the
    clipped-L1 composition: on the surface (x == o) the gradient goes to the
    offset, and a point box (o == 0) passes none to its offset's inside term."""
    center, offset, table = tensor(center), tensor(offset), tensor(table)
    c, o, e = center.data, offset.data, table.data
    if c.ndim != 2 or e.ndim != 2 or o.shape != c.shape or c.shape[1] != e.shape[1]:
        raise AutodiffError("box_distances needs (B, d) center and offset and an (n, d) table,"
                            " got %r, %r and %r" % (c.shape, o.shape, e.shape))
    if (o < 0).any():
        raise AutodiffError("box_distances needs non-negative offsets")
    ones = np.ones(e.shape[1])  # x @ ones sums the short last axis faster than x.sum(1)
    dist = np.empty((c.shape[0], e.shape[0]))
    x = np.empty_like(e)
    for b in range(c.shape[0]):
        np.abs(np.subtract(e, c[b], out=x), out=x)
        inner = x @ ones
        x -= o[b]
        np.maximum(x, 0.0, out=x)
        dist[b] = alpha * inner + (1.0 - alpha) * (x @ ones)
    out = Tensor(dist, (center, offset, table))

    def back(g):
        grad_c, grad_o = np.empty_like(c), np.empty_like(o)
        grad_e = np.zeros_like(e) if table.requires_grad else None
        for b in range(c.shape[0]):
            y = e - c[b]
            sign = np.sign(y)
            x = np.abs(y, out=y)
            inside, outside = x < o[b], x > o[b]
            # ∂/∂x: 1 outside, alpha strictly inside, 0 on the surface
            dx = inside * alpha
            dx[outside] = 1.0
            dx *= sign
            grad_c[b] = -(g[b] @ dx)
            # ∂/∂o: −1 outside, plus alpha on or outside the surface when o > 0
            grad_o[b] = (alpha * (o[b] > 0) * (g[b].sum() - g[b] @ inside)
                         - g[b] @ outside)
            if grad_e is not None:
                grad_e += g[b][:, None] * dx
        center._accumulate(grad_c)
        offset._accumulate(grad_o)
        if grad_e is not None:
            table._accumulate(grad_e)

    out._backward = back
    return out


def softmax(a, axis=-1) -> Tensor:
    """Stable softmax (max-subtracted)."""
    a = tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, (a,))

    def back(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        a._accumulate(y * (g - dot))

    out._backward = back
    return out


def segment_log_softmax(a, index, counts, owner, picks, mask=None) -> Tensor:
    """Picked log-probabilities of segment maxima, as one tape node: row i of the
    (Q, n) block is the elementwise max of the ``counts[i]`` rows of ``a`` listed
    next in ``index`` (each once; ties go to the first), plus ``mask[i]`` if given,
    log-softmax normalised; output k is row ``owner[k]`` at column ``picks[k]``.
    Values and gradients equal segment max, add, log-softmax and ``rows`` bit for bit."""
    a, index, counts = tensor(a), np.asarray(index, dtype=np.intp), np.asarray(counts)
    owner, picks, n = np.asarray(owner, dtype=np.intp), np.asarray(picks, dtype=np.intp), a.shape[1]
    if counts.min(initial=1) < 1 or counts.sum() != index.size or owner.shape != picks.shape \
            or ((picks < 0) | (picks >= n) | (owner < 0) | (owner >= counts.size)).any():
        raise AutodiffError("segment_log_softmax needs segments of >= 1 row covering the index"
                            " and one owner row per pick, both in range")
    starts = np.cumsum(counts) - counts
    first, multi, cols = index[starts], np.flatnonzero(counts > 1), np.arange(n)
    # longer segments padded by their last row; ``source``: argmax's pick, without its slow loop
    pad = index[starts[multi, None] + np.minimum(np.arange(counts.max()), counts[multi, None] - 1)]
    vals = a.data[pad]
    hit = (vals == vals.max(axis=1, keepdims=True)) | np.isnan(vals)
    source = np.empty((multi.size, n), dtype=np.intp)
    for k in range(pad.shape[1] - 1, -1, -1):
        np.copyto(source, pad[:, k, None], where=hit[:, k])
    s = a.data[first]
    s[multi] = a.data[source, cols]
    if mask is not None:
        s += mask
    shifted = s - s.max(axis=1, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    flat = owner * n + picks
    out = Tensor(y.reshape(-1)[flat], (a,))

    def back(g):
        dense = np.zeros_like(y)
        np.add.at(dense.reshape(-1), flat, g)
        e = np.exp(y)
        e *= dense.sum(axis=1, keepdims=True)
        dense -= e
        grad = np.zeros_like(a.data)
        grad[first] = dense
        grad[first[multi]] = 0.0
        grad[source, cols] = dense[multi]
        a._accumulate(grad)

    out._backward = back
    return out


def attention(q, k, v) -> Tensor:
    """Scaled dot-product attention over the last two axes (rows = items)."""
    q, k, v = tensor(q), tensor(k), tensor(v)
    d = q.shape[-1]
    weights = softmax(multiply(matmul(q, transpose(k)), 1.0 / np.sqrt(d)), axis=-1)
    return matmul(weights, v)


def transpose(a) -> Tensor:
    a = tensor(a)
    out = Tensor(np.swapaxes(a.data, -1, -2), (a,))

    def back(g):
        a._accumulate(np.swapaxes(g, -1, -2))

    out._backward = back
    return out


# -- parameters and optimization ------------------------------------------


CHECKPOINT_TAG = "# privkg-params v1"
SAVE_CHUNK = 4096  # values formatted by one % operation when saving
LOAD_PIECE = 32768  # characters read at a time when loading


def read_checkpoint_header(f) -> str:
    """The text after the format tag on the first line of an open checkpoint file."""
    line = f.readline()
    if not line.startswith(CHECKPOINT_TAG):
        raise AutodiffError("unrecognized checkpoint header: %r" % line)
    return line[len(CHECKPOINT_TAG):].strip()


class ParameterStore:
    """Named parameters, their gradient buffers, and optimizer state."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.params:
            raise AutodiffError("duplicate parameter %r" % name)
        p = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        self.params[name] = p
        return p

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_dict(self) -> dict:
        return {name: p.data.copy() for name, p in self.params.items()}

    # -- checkpoint text format: header line, then name\tshape\tvalues ----

    def save(self, path, header_extra: str = "") -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("%s %s\n" % (CHECKPOINT_TAG, header_extra))
            for name in sorted(self.params):
                data = self.params[name].data
                f.write("%s\t%s\t" % (name, "x".join(str(s) for s in data.shape) or "scalar"))
                for i in range(0, data.size, SAVE_CHUNK):
                    chunk = tuple(data.flat[i:i + SAVE_CHUNK].tolist())
                    f.write(("," if i else "") + ",".join(["%.17g"] * len(chunk)) % chunk)
                f.write("\n")

    def load(self, path) -> None:
        """Replace all parameters from a file of exactly these names, shapes, finite values.

        Each line is read and parsed LOAD_PIECE characters at a time; none is held whole."""
        loaded = {}
        with open(path, encoding="utf-8") as f:
            read_checkpoint_header(f)
            while piece := f.readline(LOAD_PIECE):
                line, tabs = piece, piece.count("\t")  # read on until name and shape are whole
                while tabs < 2 and piece and piece[-1] != "\n":
                    piece = f.readline(LOAD_PIECE)
                    line += piece
                    tabs += piece.count("\t")
                name, _, rest = line.rstrip("\n").partition("\t")
                if name not in self.params or name in loaded:
                    raise AutodiffError("unexpected or repeated parameter %r in checkpoint" % name)
                shape, _, values = rest.partition("\t")
                want = self.params[name].data.shape
                if shape != ("x".join(str(s) for s in want) or "scalar"):
                    raise AutodiffError("parameter %r has shape %s in checkpoint, expected %r"
                                        % (name, shape, want))
                flat, n, finite = np.empty(self.params[name].data.size), 0, True
                while True:
                    ended = not piece or piece[-1] == "\n"
                    tokens = values.split(",")
                    carry = "" if ended else tokens.pop()  # a value the next piece completes
                    m = n + len(tokens)
                    try:
                        if m > flat.size or ended and m < flat.size:
                            raise ValueError("too many or too few values")
                        flat[n:m] = list(map(float, tokens))
                    except ValueError:
                        raise AutodiffError("malformed values of parameter %r" % name) from None
                    finite = finite and bool(np.isfinite(flat[n:m]).all())
                    n = m
                    if ended:
                        break
                    piece = f.readline(LOAD_PIECE)
                    values = carry + piece.rstrip("\n")
                if not finite:
                    raise AutodiffError("non-finite values in parameter %r" % name)
                loaded[name] = flat.reshape(want)
        missing = sorted(set(self.params) - set(loaded))
        if missing:
            raise AutodiffError("checkpoint lacks parameter %r" % missing[0])
        for name, arr in loaded.items():
            self.params[name].data = arr


class SGD:
    def __init__(self, store: ParameterStore, lr: float):
        self.store = store
        self.lr = lr

    def step(self) -> None:
        for name, p in self.store.params.items():
            if p.grad is None:
                continue
            if not np.all(np.isfinite(p.grad)):
                raise AutodiffError("non-finite gradient in %r" % name)
            p.data -= self.lr * p.grad
        self.store.zero_grad()


class Adam:
    def __init__(self, store: ParameterStore, lr: float):
        self.store = store
        self.lr = lr
        self.m = {n: np.zeros_like(p.data) for n, p in store.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in store.params.items()}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8  # the usual Adam constants
        for name, p in self.store.params.items():
            if p.grad is None:
                continue
            if not np.all(np.isfinite(p.grad)):
                raise AutodiffError("non-finite gradient in %r" % name)
            m = self.m[name] = b1 * self.m[name] + (1 - b1) * p.grad
            v = self.v[name] = b2 * self.v[name] + (1 - b2) * p.grad ** 2
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + eps)
        self.store.zero_grad()


def make_optimizer(store: ParameterStore, kind: str, lr: float):
    if kind == "adam":
        return Adam(store, lr)
    if kind == "sgd":
        return SGD(store, lr)
    raise AutodiffError("unknown optimizer %r" % kind)
