import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from privkg import autodiff as ad
from . import _ops as ops


def rand(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


# -- forward ops against straightforward scalar loops ------------------------


def test_add_sub_mul_match_loops():
    a, b = rand(3, 4, seed=1), rand(3, 4, seed=2)
    for op, pyop in ((ad.add, lambda x, y: x + y),
                     (ad.subtract, lambda x, y: x - y),
                     (ad.multiply, lambda x, y: x * y)):
        got = op(a, b).data
        want = np.array([[pyop(a[i, j], b[i, j]) for j in range(4)] for i in range(3)])
        assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_matches_loop():
    a, b = rand(3, 4, seed=3), rand(4, 2, seed=4)
    got = ad.matmul(a, b).data
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(got - want)) < 1e-12


def test_reductions_and_norms_match_loops():
    a = rand(3, 4, seed=5)
    assert np.max(np.abs(ad.reduce_min(a, axis=0).data -
                         [min(a[i, j] for i in range(3)) for j in range(4)])) < 1e-12
    assert np.max(np.abs(ad.reduce_mean(a, axis=1).data -
                         [sum(a[i]) / 4 for i in range(3)])) < 1e-12


@pytest.mark.parametrize("axis", [0, 1, 2, -1])
@pytest.mark.parametrize("fn, argfn", [(ad.reduce_min, np.argmin), (ad.reduce_max, np.argmax)])
def test_reduce_extreme_routes_the_gradient_as_argmin_argmax_do(fn, argfn, axis):
    # a 1/2 grid gives exact ties (0.0 against -0.0 too) along every axis; a NaN
    # is the extreme of its line, and the first NaN takes the gradient
    data = np.round(rand(4, 5, 6, seed=31) * 2) / 2
    data[1, 2, :] = data[2, :, 3] = data[:, 4, 1] = np.nan
    data[0, 0, 0] = data[3, 1, 5] = np.nan
    weights = rand(*np.delete(data.shape, axis), seed=32)
    a = ad.Tensor(data, requires_grad=True)
    out = fn(a, axis=axis)
    ad.reduce_sum(ad.multiply(out, weights)).backward()
    want = np.zeros_like(data)
    idx = np.expand_dims(argfn(data, axis=axis), axis)
    np.put_along_axis(want, idx, np.expand_dims(weights, axis), axis)
    assert np.array_equal(a.grad, want)
    assert np.array_equal(out.data, np.take_along_axis(data, idx, axis).squeeze(axis),
                          equal_nan=True)


def test_pointwise_nonlinearities_match_loops():
    a = rand(3, 4, seed=6)
    checks = {
        ad.sigmoid: lambda v: 1 / (1 + math.exp(-v)),
        ad.tanh: math.tanh,
        ad.relu: lambda v: max(v, 0.0),
    }
    for op, scalar in checks.items():
        got = op(a).data
        want = np.array([[scalar(a[i, j]) for j in range(4)] for i in range(3)])
        assert np.max(np.abs(got - want)) < 1e-12


def test_sigmoid_saturates_without_overflow():
    # the old 1 / (1 + exp(-x)) overflowed in exp at x = -1e3; RuntimeWarnings
    # fail the suite, so reaching the asserts means none was raised
    x = ad.Tensor(np.array([-1e3, -745.0, -40.0, 0.0, 40.0, 1e3]), requires_grad=True)
    s = ad.sigmoid(x)
    ad.reduce_sum(s).backward()
    assert np.all(np.isfinite(s.data)) and np.all(np.isfinite(x.grad))
    assert s.data[0] == 0.0 and s.data[-1] == 1.0 and s.data[3] == 0.5
    assert x.grad[0] == 0.0 and x.grad[-1] == 0.0 and x.grad[3] == 0.25
    assert np.all(np.diff(s.data) >= 0)


def test_sigmoid_matches_plain_formula():
    x = np.linspace(-30.0, 30.0, 6001)
    s = ad.sigmoid(x).data
    want = 1.0 / (1.0 + np.exp(-x))
    assert np.max(np.abs(s - want) / want) < 1e-15
    assert np.array_equal(s[x >= 0], want[x >= 0])


def test_softmax_matches_loop_and_sums_to_one():
    a = rand(3, 4, seed=7)
    got = ad.softmax(a, axis=1).data
    for i in range(3):
        exps = [math.exp(v - max(a[i])) for v in a[i]]
        want = [e / sum(exps) for e in exps]
        assert np.max(np.abs(got[i] - want)) < 1e-12
    assert np.max(np.abs(got.sum(axis=1) - 1.0)) < 1e-12
    assert (got >= 0).all()


def test_softmax_equal_scores_uniform():
    got = ad.softmax(np.zeros(7) + 3.25, axis=0).data
    assert np.max(np.abs(got - 1.0 / 7)) < 1e-15


def test_attention_matches_loop():
    q, k, v = rand(3, 4, seed=8), rand(5, 4, seed=9), rand(5, 4, seed=10)
    got = ad.attention(q, k, v).data
    scale = 1 / math.sqrt(4)
    for i in range(3):
        logits = [scale * sum(q[i, d] * k[j, d] for d in range(4)) for j in range(5)]
        exps = [math.exp(l - max(logits)) for l in logits]
        weights = [e / sum(exps) for e in exps]
        want = [sum(weights[j] * v[j, d] for j in range(5)) for d in range(4)]
        assert np.max(np.abs(got[i] - want)) < 1e-12


def test_attention_single_key_returns_value():
    q, k, v = rand(3, 4, seed=11), rand(1, 4, seed=12), rand(1, 4, seed=13)
    got = ad.attention(q, k, v).data
    assert np.max(np.abs(got - np.repeat(v, 3, axis=0))) < 1e-12


def test_nonfinite_input_rejected():
    with pytest.raises(ad.AutodiffError):
        ad.tensor([1.0, float("nan")])


@pytest.mark.parametrize("index, bad", [([-1], -1), ([3], 3), ([0, -4, 2], -4),
                                        ([[0, 1], [2, 3]], 3)])
def test_rows_refuses_an_id_outside_the_table(index, bad):
    # a negative id must not wrap around to a row from the end
    table = ad.Tensor(rand(3, 2), requires_grad=True)
    with pytest.raises(ad.AutodiffError, match="row id %d outside a table of 3 rows" % bad):
        ad.rows(table, index)
    assert ad.rows(table, []).shape == (0, 2)
    assert np.array_equal(ad.rows(table, [2, 0, 2]).data, table.data[[2, 0, 2]])


# -- backward ------------------------------------------------------------------


def test_grad_of_sum_is_ones():
    x = ad.Tensor(rand(3, 4, seed=14), requires_grad=True)
    ad.reduce_sum(x).backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_grad_of_squared_norm_is_2x():
    data = rand(5, seed=15)
    x = ad.Tensor(data, requires_grad=True)
    ad.reduce_sum(ad.multiply(x, x)).backward()
    assert np.max(np.abs(x.grad - 2 * data)) < 1e-12


def test_backward_requires_scalar():
    x = ad.Tensor(rand(3, seed=16), requires_grad=True)
    with pytest.raises(ad.AutodiffError):
        (x + x).backward()


def finite_diff(fn, x, step=1e-5):
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        hi, lo = x.copy(), x.copy()
        hi[idx] += step
        lo[idx] -= step
        grad[idx] = (fn(hi) - fn(lo)) / (2 * step)
    return grad


@pytest.mark.parametrize("seed", range(6))
def test_composite_expressions_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    x0 = rng.normal(size=(3, 4))
    w0 = rng.normal(size=(4, 4))

    def loss_value(x_data, w_data):
        x = ad.Tensor(x_data, requires_grad=True)
        w = ad.Tensor(w_data, requires_grad=True)
        h = ad.tanh(ad.matmul(x, w))
        s = ad.softmax(ad.sigmoid(h) + ad.relu(x), axis=1)
        a = ad.attention(h, s, x)
        out = ad.reduce_sum(ops.sqrt(ad.reduce_sum(a * a, axis=1))) + ad.reduce_sum(ad.reduce_min(h, axis=0))
        return out, x, w

    out, x, w = loss_value(x0, w0)
    out.backward()
    fx = finite_diff(lambda v: loss_value(v, w0)[0].item(), x0)
    fw = finite_diff(lambda v: loss_value(x0, v)[0].item(), w0)
    assert np.max(np.abs(x.grad - fx)) / max(np.max(np.abs(fx)), 1) < 1e-4
    assert np.max(np.abs(w.grad - fw)) / max(np.max(np.abs(fw)), 1) < 1e-4


# -- parameters and optimizers ----------------------------------------------------


def test_zero_gradient_is_fixed_point():
    store = ad.ParameterStore()
    p = store.add("p", rand(3, seed=17))
    before = p.data.copy()
    p.grad = np.zeros(3)
    ad.Adam(store, lr=0.1).step()
    # Adam's first step with exactly zero moments stays put
    assert np.array_equal(p.data, before)


def test_sgd_step_definition():
    store = ad.ParameterStore()
    p = store.add("p", np.array([1.0, 2.0]))
    p.grad = np.array([0.5, -1.0])
    ad.SGD(store, lr=0.1).step()
    assert np.max(np.abs(p.data - [0.95, 2.1])) < 1e-15
    assert p.grad is None  # gradients zeroed after the step


def test_adam_reaches_quadratic_minimum():
    # f(p) = sum((p - target)^2), minimizer = target
    target = rand(6, seed=18)
    store = ad.ParameterStore()
    p = store.add("p", np.zeros(6))
    opt = ad.Adam(store, lr=0.05)
    for _ in range(200):
        diff = ad.subtract(p, target)
        loss = ad.reduce_sum(diff * diff)
        store.zero_grad()
        loss.backward()
        opt.step()
    assert np.max(np.abs(p.data - target)) < 1e-3


def test_nonfinite_gradient_aborts():
    store = ad.ParameterStore()
    p = store.add("p", np.zeros(2))
    p.grad = np.array([1.0, float("inf")])
    with pytest.raises(ad.AutodiffError):
        ad.Adam(store, lr=0.1).step()


def test_checkpoint_roundtrip(tmp_path):
    store = ad.ParameterStore()
    store.add("a", rand(3, 4, seed=19))
    store.add("b", rand(7, seed=20))
    path = tmp_path / "params.ckpt"
    store.save(path, header_extra="extra")
    other = ad.ParameterStore()
    other.add("a", np.zeros((3, 4)))
    other.add("b", np.zeros(7))
    other.load(path)
    with open(path, encoding="utf-8") as f:
        assert ad.read_checkpoint_header(f) == "extra"
    for name in ("a", "b"):
        assert np.array_equal(store[name].data, other[name].data)


def _two_param_store():
    store = ad.ParameterStore()
    store.add("a", rand(3, 4, seed=19))
    store.add("b", rand(7, seed=20))
    return store


def _zeros_like(store):
    target = ad.ParameterStore()
    for name, p in store.params.items():
        target.add(name, np.zeros_like(p.data))
    return target


def _reference_save(store, path):
    """The whole-line writer the chunked one replaced: one string per value."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("%s %s\n" % (ad.CHECKPOINT_TAG, ""))
        for name in sorted(store.params):
            p = store.params[name]
            shape = "x".join(str(s) for s in p.data.shape) or "scalar"
            values = ",".join("%.17g" % v for v in p.data.ravel())
            f.write("%s\t%s\t%s\n" % (name, shape, values))


def _reference_load(store, path):
    """The whole-line parser the streaming one replaced: one float per value."""
    loaded = {}
    with open(path, encoding="utf-8") as f:
        ad.read_checkpoint_header(f)
        for line in f:
            name, _, rest = line.rstrip("\n").partition("\t")
            if name not in store.params or name in loaded:
                raise ad.AutodiffError("unexpected or repeated parameter %r in checkpoint" % name)
            shape, _, values = rest.partition("\t")
            want = store.params[name].data.shape
            if shape != ("x".join(str(s) for s in want) or "scalar"):
                raise ad.AutodiffError("parameter %r has shape %s in checkpoint, expected %r"
                                       % (name, shape, want))
            try:
                arr = np.array([float(v) for v in values.split(",")]).reshape(want)
            except ValueError:
                raise ad.AutodiffError("malformed values of parameter %r" % name) from None
            if not np.all(np.isfinite(arr)):
                raise ad.AutodiffError("non-finite values in parameter %r" % name)
            loaded[name] = arr
    missing = sorted(set(store.params) - set(loaded))
    if missing:
        raise ad.AutodiffError("checkpoint lacks parameter %r" % missing[0])
    for name, arr in loaded.items():
        store.params[name].data = arr


def _chunk_sizes(monkeypatch):
    """The values saved per chunk, first at 4 values per chunk and 16 characters
    per piece read, which put boundaries inside every line and value, then at
    the real sizes."""
    with monkeypatch.context() as patch:
        patch.setattr(ad, "SAVE_CHUNK", 4)
        patch.setattr(ad, "LOAD_PIECE", 16)
        yield ad.SAVE_CHUNK
    yield ad.SAVE_CHUNK


def test_checkpoint_bytes_and_values_match_the_whole_line_reference(tmp_path, monkeypatch):
    for chunk in _chunk_sizes(monkeypatch):
        store = ad.ParameterStore()
        store.add("chunks", rand(2 * chunk + 3, seed=22))
        store.add("scalar", np.array(-0.0))
        store.add("special", np.array([-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3,
                                       1.7976931348623157e308, -1.7976931348623157e308]))
        store.add("table", rand(3, chunk + 1, seed=23))
        path, reference = tmp_path / "params.ckpt", tmp_path / "reference.ckpt"
        store.save(path)
        _reference_save(store, reference)
        assert path.read_bytes() == reference.read_bytes()
        # a last line without its newline still loads
        unterminated = tmp_path / "unterminated.ckpt"
        unterminated.write_bytes(path.read_bytes()[:-1])
        for load in (ad.ParameterStore.load, _reference_load):
            for source in (path, unterminated):
                target = _zeros_like(store)
                load(target, source)
                for name, p in store.params.items():
                    got = target[name].data
                    assert got.shape == p.data.shape and np.array_equal(got, p.data)
                    assert np.array_equal(np.signbit(got), np.signbit(p.data))


def _values_of_b(edit):
    """An edit of the value fields of b's line, the last one."""
    return lambda lines: lines[:2] + ["b\t7\t" + ",".join(edit(lines[2].split("\t")[2].split(",")))]


MALFORMED_B = "malformed values of parameter 'b'"


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:2], "lacks parameter 'b'"),
    (lambda lines: lines + ["c\t2\t1,2"], "unexpected or repeated parameter 'c'"),
    (lambda lines: lines[:2] + ["b\t6\t1,2,3,4,5,6"], "parameter 'b' has shape 6"),
    (lambda lines: lines[:2] + ["b\t7\t" + ",".join(["nan"] * 7)], "non-finite .* 'b'"),
    (_values_of_b(lambda v: v[:6] + ["1e999"]), "non-finite .* 'b'"),
    (_values_of_b(lambda v: v[:5] + ["abc"] + v[6:]), MALFORMED_B),
    (_values_of_b(lambda v: v[:6] + ["abc"]), MALFORMED_B),
    (_values_of_b(lambda v: v[:5] + [""] + v[6:]), MALFORMED_B),
    (_values_of_b(lambda v: v + [""]), MALFORMED_B),
    (_values_of_b(lambda v: v[:6]), MALFORMED_B),
    (_values_of_b(lambda v: v + v[:1]), MALFORMED_B),
    (_values_of_b(lambda v: ["nan"] + v[1:6] + ["abc"]), MALFORMED_B),
    (lambda lines: lines[:2] + ["b\t7"], MALFORMED_B),
    (lambda lines: lines[:2] + ["b"], "parameter 'b' has shape  in"),
    (lambda lines: lines + ["x" * (ad.LOAD_PIECE + 1)], "unexpected or repeated parameter 'xxx"),
    (lambda lines: lines[:2] + ["b" * (ad.LOAD_PIECE + 1) + "\t7\t1"],
     "unexpected or repeated parameter 'bbb"),
], ids=["truncated", "extra-name", "wrong-shape", "nan", "inf-last", "abc", "abc-last",
        "empty-field", "trailing-comma", "one-too-few", "one-too-many", "nan-then-abc",
        "no-values", "no-tab-name", "no-tab", "long-name"])
def test_checkpoint_load_is_strict(tmp_path, monkeypatch, edit, message):
    for _ in _chunk_sizes(monkeypatch):
        path = tmp_path / "params.ckpt"
        _two_param_store().save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        target = _zeros_like(_two_param_store())
        with pytest.raises(ad.AutodiffError, match=message) as got:
            target.load(path)
        # the whole-line parser refuses the same file with the same message
        with pytest.raises(ad.AutodiffError) as want:
            _reference_load(_zeros_like(target), path)
        assert str(got.value) == str(want.value)
        # nothing was half loaded
        assert not target["a"].data.any() and not target["b"].data.any()


def test_checkpoint_memory_is_bounded(tmp_path):
    """Saving holds one chunk of values at a time, loading one piece plus the
    table it fills. The whole-line code peaked at 5.9 MB saving this table and
    10.4 MB loading it: one string and one float per value."""
    store = ad.ParameterStore()
    table = store.add("table", rand(2000, 32, seed=24)).data
    path = tmp_path / "params.ckpt"
    tracemalloc.start()
    try:
        store.save(path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        store.load(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert save_peak <= 2 ** 20
    assert load_peak <= table.nbytes + 2 ** 20
    assert np.array_equal(store["table"].data, table)


def test_tape_freed_by_reference_counting():
    x = ad.Tensor(rand(5, 3, seed=21), requires_grad=True)
    gc.disable()
    try:
        hidden = ops.log_softmax(ad.multiply(x, x), axis=1)
        probe = weakref.ref(hidden)
        loss = ad.reduce_sum(ops.exp(hidden) + hidden)
        del hidden
        loss.backward()
        assert probe() is not None
        del loss
        assert probe() is None
    finally:
        gc.enable()
    assert x.grad is not None


def test_node_on_two_paths_gets_both_gradients():
    # a is a direct parent of the output and also reached through b; its own
    # backward must wait for both, whichever path the walk meets first
    x = ad.Tensor(np.array([0.3, -1.2]), requires_grad=True)
    a = ad.multiply(x, 2.0)
    b = ad.multiply(a, a)
    loss = ad.reduce_sum(ad.add(ad.multiply(b, a), a))
    loss.backward()
    # loss = sum(2x + 8x^3): d/dx = 2 + 24x^2
    assert np.max(np.abs(x.grad - (2 + 24 * x.data ** 2))) < 1e-12


def test_constant_operand_gets_no_gradient(monkeypatch):
    # add, subtract, multiply and matmul compute no gradient for a constant:
    # it is never even handed one to discard
    handed = []
    accumulate = ad.Tensor._accumulate
    monkeypatch.setattr(ad.Tensor, "_accumulate",
                        lambda self, grad: handed.append(self) or accumulate(self, grad))
    x = ad.Tensor(rand(3, 4, seed=22), requires_grad=True)
    consts = [ad.tensor(rand(3, 4, seed=23)), ad.tensor(rand(4, 2, seed=24))]
    out = ad.matmul(ad.multiply(ad.subtract(ad.add(x, consts[0]), consts[0]), consts[0]),
                    consts[1])
    ad.reduce_sum(-out).backward()
    assert all(c.grad is None for c in consts)
    assert not any(t is c for t in handed for c in consts) and any(t is x for t in handed)
    want = -np.ones((3, 2)) @ consts[1].data.T * consts[0].data
    assert np.max(np.abs(x.grad - want)) < 1e-12


def test_tensor_read_twice_gets_summed_gradient_that_aliases_no_upstream():
    x = ad.Tensor(rand(3, 4, seed=25), requires_grad=True)
    y = ad.add(x, 0.0)
    hidden = ad.add(y, y)  # add hands the same upstream array to both operands
    loss = ad.reduce_sum(ad.multiply(hidden, rand(3, 4, seed=26)))
    loss.backward()
    w = rand(3, 4, seed=26)
    assert np.array_equal(y.grad, 2 * w) and np.array_equal(x.grad, 2 * w)
    assert not np.shares_memory(y.grad, hidden.grad)
    assert not np.shares_memory(x.grad, y.grad)


# -- max over disjunct rows --------------------------------------------------------


def _padded_max(a, index, counts):
    """The reference composition: pad every segment to the longest by
    repeating its last row, gather, then ``reduce_max`` over the pad axis."""
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    slots = starts[:, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)
    return ad.reduce_max(ad.rows(a, index[slots]), axis=1)


@pytest.mark.parametrize("counts", [[1, 1, 1], [2, 1, 4, 1, 2], [4, 4], [1]])
@pytest.mark.parametrize("ties", [False, True])
def test_segment_max_matches_padded_reduce_max(counts, ties):
    index = np.random.default_rng(len(counts)).permutation(sum(counts))  # rows in any order
    data = rand(sum(counts), 7, seed=27)
    if ties:  # exact ties in every segment: the first maximal row must win
        data = np.round(data).clip(-1, 1)
    weights = rand(len(counts), 7, seed=28)
    results = []
    for fn in (ops.segment_max, _padded_max):
        a = ad.Tensor(data, requires_grad=True)
        out = fn(a, index, counts)
        ad.reduce_sum(out * weights).backward()
        results.append((out.data, a.grad))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


def test_segment_max_matches_finite_differences():
    counts = [1, 2, 4, 1, 2]
    index = np.random.default_rng(3).permutation(sum(counts))
    x0 = rand(10, 5, seed=29)
    weights = rand(5, 5, seed=30)

    def loss_value(x_data):
        x = ad.Tensor(x_data, requires_grad=True)
        return ad.reduce_sum(ops.segment_max(ad.tanh(x), index, counts) * weights), x

    out, x = loss_value(x0)
    out.backward()
    fd = finite_diff(lambda v: loss_value(v)[0].item(), x0)
    assert np.max(np.abs(x.grad - fd)) / max(np.max(np.abs(fd)), 1) < 1e-6


def test_segment_max_rejects_bad_segments():
    a = np.zeros((3, 2))
    for counts in ([1, 1], [1, 0, 2], [2, 2]):
        with pytest.raises(ad.AutodiffError, match="segment_max"):
            ops.segment_max(a, np.arange(3), counts)


# -- from disjunct scores to picked log-probabilities -------------------------------


def _composed_log_softmax(a, index, counts, owner, picks, mask=None):
    """The chain ``segment_log_softmax`` fuses: segment max, mask, log-softmax,
    reshape, rows."""
    s = ops.segment_max(a, index, counts)
    if mask is not None:
        s = s + ad.Tensor(mask)
    flat = np.asarray(owner) * a.shape[1] + np.asarray(picks)
    return ad.rows(ad.reshape(ops.log_softmax(s, axis=1), (-1,)), flat)


def _segment_case(counts, seed, ties=False, masked=False, n=9):
    """Rows in any order, several picks per query (one of them twice), and a
    candidate mask of -inf outside each masked query's picks and two more columns."""
    rng = np.random.default_rng(seed)
    index = rng.permutation(sum(counts))
    data = rand(sum(counts), n, seed=seed)
    if ties:  # exact ties in every segment: the first maximal row must win
        data = np.round(data).clip(-1, 1)
    owner = np.repeat(np.arange(len(counts)), 3)
    picks = rng.integers(0, n, size=owner.size)
    picks[1] = picks[0]  # a pair picked twice sums both gradients
    mask = None
    if masked:
        mask = np.zeros((len(counts), n))
        mask[::2] = -np.inf  # every other query is sampled, the rest keep the full softmax
        mask[owner, picks] = 0.0
        mask[np.arange(0, len(counts), 2)[:, None], rng.integers(0, n, size=(1, 2))] = 0.0
    return index, data, owner, picks, mask


@pytest.mark.parametrize("counts", [[1, 1, 1], [2, 1, 4, 1, 2], [4, 4], [1]])
@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("masked", [False, True])
def test_segment_log_softmax_matches_composition_bit_for_bit(counts, ties, masked):
    index, data, owner, picks, mask = _segment_case(counts, len(counts), ties, masked)
    weights = rand(owner.size, seed=31)
    results = []
    for fn in (ad.segment_log_softmax, _composed_log_softmax):
        x = ad.Tensor(data, requires_grad=True)
        a = ad.multiply(x, 1.0)  # a non-leaf operand, as scores are
        out = fn(a, index, counts, owner, picks, mask)
        ad.reduce_sum(out * weights).backward()
        results.append((out.data, x.grad))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])
    assert np.isfinite(results[0][0]).all()


def test_segment_log_softmax_is_one_tape_node():
    index, data, owner, picks, mask = _segment_case([2, 1, 4], 5, masked=True)
    a = ad.Tensor(data, requires_grad=True)
    out = ad.segment_log_softmax(a, index, [2, 1, 4], owner, picks, mask)
    assert out.parents == (a,)


@pytest.mark.parametrize("masked", [False, True])
def test_segment_log_softmax_matches_finite_differences(masked):
    counts = [1, 2, 4, 1, 2]
    index, x0, owner, picks, mask = _segment_case(counts, 6, masked=masked, n=5)
    weights = rand(owner.size, seed=32)

    def loss_value(x_data):
        x = ad.Tensor(x_data, requires_grad=True)
        out = ad.segment_log_softmax(ad.tanh(x), index, counts, owner, picks, mask)
        return ad.reduce_sum(out * weights), x

    out, x = loss_value(x0)
    out.backward()
    fd = finite_diff(lambda v: loss_value(v)[0].item(), x0)
    assert np.max(np.abs(x.grad - fd)) / max(np.max(np.abs(fd)), 1) < 1e-6


def test_segment_log_softmax_rejects_bad_segments_and_picks():
    a = np.zeros((3, 2))
    for counts in ([1, 1], [1, 0, 2], [2, 2]):
        with pytest.raises(ad.AutodiffError, match="segment_log_softmax"):
            ad.segment_log_softmax(a, np.arange(3), counts, [0], [0])
    for owner, picks in (([0], [-1]), ([0], [2]), ([-1], [0]), ([3], [0]), ([0, 1], [0])):
        with pytest.raises(ad.AutodiffError, match="segment_log_softmax"):
            ad.segment_log_softmax(a, np.arange(3), [1, 1, 1], owner, picks)


# -- fused distances ----------------------------------------------------------------


def difference_form_distances(q, e):
    """The composition GQE scored with before ``ad.distances``: (B, n, d) on the tape."""
    diff = ad.subtract(e, ad.reshape(q, (-1, 1, q.shape[1])))
    return ops.sqrt(ad.reduce_sum(diff * diff, axis=2))


def _distance_loss(fn, q_data, e_data, weights):
    q = ad.Tensor(q_data, requires_grad=True)
    e = ad.Tensor(e_data, requires_grad=True)
    dist = fn(q, e)
    loss = ad.reduce_sum(ad.Tensor(weights) * ops.log_softmax(-dist, axis=1))
    loss.backward()
    return dist.data, q.grad, e.grad


@pytest.mark.parametrize("rows", [1, 280])
@pytest.mark.parametrize("scale", [1e-3, 0.18, 3.0, 1e3])
def test_distances_match_difference_form(rows, scale):
    rng = np.random.default_rng(rows)
    e = rng.normal(size=(302, 32)) * scale
    q = rng.normal(size=(rows, 32)) * scale
    q[0] = e[5]  # exact duplicate: distance exactly 0
    if rows > 2:
        q[1] = e[7] + 1e-9 * scale  # near duplicate: the expansion cancels
        q[2] = e[5]
    weights = rng.normal(size=(rows, 302))
    got = _distance_loss(ad.distances, q, e, weights)
    want = _distance_loss(difference_form_distances, q, e, weights)
    assert got[0][0, 5] == 0.0
    assert np.max(np.abs(got[0] - want[0])) <= 1e-12 * np.max(want[0])
    largest = max(np.max(np.abs(want[1])), np.max(np.abs(want[2])))
    for g, w in zip(got[1:], want[1:]):
        assert np.max(np.abs(g - w)) <= 1e-12 * largest


def test_distances_of_exact_duplicate_has_zero_gradient():
    rng = np.random.default_rng(3)
    e_data = rng.normal(size=(6, 4))
    q = ad.Tensor(e_data[[2, 4]].copy(), requires_grad=True)
    e = ad.Tensor(e_data, requires_grad=True)
    pick = np.zeros((2, 6))
    pick[0, 2] = pick[1, 4] = 1.0
    dist = ad.distances(q, e)
    assert dist.data[0, 2] == 0.0 and dist.data[1, 4] == 0.0
    ad.reduce_sum(dist * pick).backward()
    assert not q.grad.any() and not e.grad.any()


def test_distances_near_pairs_over_many_rows_and_columns():
    # exact matches spread over rows and columns, with duplicate rows on both
    # sides, plus one near pair that is not a match
    rng = np.random.default_rng(7)
    e = rng.normal(size=(40, 6))
    e[7] = e[3]
    q = rng.normal(size=(12, 6))
    q[0] = q[5] = e[3]
    q[2], q[9], q[11] = e[10], e[39], e[0]
    q[4] = e[20] + 1e-9
    matches = [(0, 3), (0, 7), (5, 3), (5, 7), (2, 10), (9, 39), (11, 0)]
    rows, cols = zip(*matches)
    pick = np.zeros((12, 40))
    pick[rows, cols] = 1.0
    qt, et = ad.Tensor(q, requires_grad=True), ad.Tensor(e, requires_grad=True)
    dist = ad.distances(qt, et)
    assert (dist.data[rows, cols] == 0.0).all()
    ad.reduce_sum(dist * pick).backward()
    assert not qt.grad.any() and not et.grad.any()
    weights = rng.normal(size=(12, 40))
    got = _distance_loss(ad.distances, q, e, weights)
    want = _distance_loss(difference_form_distances, q, e, weights)
    assert 0.0 < got[0][4, 20] < 1e-8
    assert np.max(np.abs(got[0] - want[0])) <= 1e-12 * np.max(want[0])
    largest = max(np.max(np.abs(want[1])), np.max(np.abs(want[2])))
    for g, w in zip(got[1:], want[1:]):
        assert np.max(np.abs(g - w)) <= 1e-12 * largest


@pytest.mark.parametrize("seed", range(4))
def test_distances_match_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    q0 = rng.normal(size=(3, 5))
    e0 = rng.normal(size=(4, 5))
    w0 = rng.normal(size=(3, 4))

    def loss_value(q_data, e_data):
        q = ad.Tensor(q_data, requires_grad=True)
        e = ad.Tensor(e_data, requires_grad=True)
        return ad.reduce_sum(ad.Tensor(w0) * ad.distances(q, e)), q, e

    out, q, e = loss_value(q0, e0)
    out.backward()
    fq = finite_diff(lambda v: loss_value(v, e0)[0].item(), q0)
    fe = finite_diff(lambda v: loss_value(q0, v)[0].item(), e0)
    assert np.max(np.abs(q.grad - fq)) / max(np.max(np.abs(fq)), 1) < 1e-6
    assert np.max(np.abs(e.grad - fe)) / max(np.max(np.abs(fe)), 1) < 1e-6


def test_distances_rejects_mismatched_operands():
    with pytest.raises(ad.AutodiffError):
        ad.distances(np.zeros((2, 3)), np.zeros((4, 2)))
    with pytest.raises(ad.AutodiffError):
        ad.distances(np.zeros((2, 1, 3)), np.zeros((4, 3)))


# -- fused box distances --------------------------------------------------------------


def test_box_distances_subgradients_on_the_surface():
    # one dimension per case; values are exact in binary, so every tie is exact
    c = ad.Tensor(np.full((1, 5), 0.5), requires_grad=True)
    o = ad.Tensor(np.array([[0.25, 0.25, 0.25, 0.0, 0.0]]), requires_grad=True)
    e = ad.Tensor(np.array([[0.75, 0.25, 1.0, 0.5, 1.5]]), requires_grad=True)
    dist = ad.box_distances(c, o, e, 0.125)
    # surface, surface, outside (0.25 + 0.125 * 0.25), point box at c, point box outside
    assert dist.data[0, 0] == 0.125 * (0.25 + 0.25 + 0.25) + 0.25 + 1.0
    ad.reduce_sum(dist).backward()
    # on the surface the gradient goes to the offset (alpha), not to x; a point
    # box at its own vertex passes nothing; outside a point box the offset gets -1
    assert c.grad.tolist() == [[0.0, 0.0, -1.0, 0.0, -1.0]]
    assert e.grad.tolist() == [[0.0, 0.0, 1.0, 0.0, 1.0]]
    assert o.grad.tolist() == [[0.125, 0.125, 0.125 - 1.0, 0.0, -1.0]]


@pytest.mark.parametrize("seed", range(4))
def test_box_distances_match_finite_differences(seed):
    rng = np.random.default_rng(300 + seed)
    c0 = rng.normal(size=(3, 5))
    o0 = np.abs(rng.normal(size=(3, 5)))
    e0 = rng.normal(size=(4, 5))
    w0 = rng.normal(size=(3, 4))

    def loss_value(c_data, o_data, e_data):
        c, o, e = (ad.Tensor(v, requires_grad=True) for v in (c_data, o_data, e_data))
        return ad.reduce_sum(ad.Tensor(w0) * ad.box_distances(c, o, e, 0.3)), c, o, e

    out, c, o, e = loss_value(c0, o0, e0)
    out.backward()
    for got, fd in ((c.grad, finite_diff(lambda v: loss_value(v, o0, e0)[0].item(), c0)),
                    (o.grad, finite_diff(lambda v: loss_value(c0, v, e0)[0].item(), o0)),
                    (e.grad, finite_diff(lambda v: loss_value(c0, o0, v)[0].item(), e0))):
        assert np.max(np.abs(got - fd)) / max(np.max(np.abs(fd)), 1) < 1e-6


def test_box_distances_rejects_bad_operands():
    ok = np.zeros((2, 3))
    with pytest.raises(ad.AutodiffError):
        ad.box_distances(ok, ok, np.zeros((4, 2)), 0.02)
    with pytest.raises(ad.AutodiffError):
        ad.box_distances(ok, np.zeros((1, 3)), np.zeros((4, 3)), 0.02)
    with pytest.raises(ad.AutodiffError):
        ad.box_distances(np.zeros((2, 1, 3)), np.zeros((2, 1, 3)), np.zeros((4, 3)), 0.02)
    with pytest.raises(ad.AutodiffError, match="non-negative"):
        ad.box_distances(ok, np.array([[0.1, -1e-12, 0.0], [0.0, 0.0, 0.0]]),
                         np.zeros((4, 3)), 0.02)
