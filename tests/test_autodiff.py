import gc
import math
import weakref

import numpy as np
import pytest

from privkg import autodiff as ad


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
        out = ad.reduce_sum(ad.sqrt(ad.reduce_sum(a * a, axis=1))) + ad.reduce_sum(ad.reduce_min(h, axis=0))
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
    extra = other.load(path)
    assert extra == "extra"
    for name in ("a", "b"):
        assert np.array_equal(store[name].data, other[name].data)


def _two_param_store():
    store = ad.ParameterStore()
    store.add("a", rand(3, 4, seed=19))
    store.add("b", rand(7, seed=20))
    return store


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:2], "lacks parameter 'b'"),
    (lambda lines: lines + ["c\t2\t1,2"], "unexpected or repeated parameter 'c'"),
    (lambda lines: lines[:2] + ["b\t6\t1,2,3,4,5,6"], "parameter 'b' has shape 6"),
    (lambda lines: lines[:2] + ["b\t7\t" + ",".join(["nan"] * 7)], "non-finite .* 'b'"),
], ids=["truncated", "extra-name", "wrong-shape", "nan"])
def test_checkpoint_load_is_strict(tmp_path, edit, message):
    path = tmp_path / "params.ckpt"
    _two_param_store().save(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    target = ad.ParameterStore()
    target.add("a", np.zeros((3, 4)))
    target.add("b", np.zeros(7))
    with pytest.raises(ad.AutodiffError, match=message):
        target.load(path)
    # nothing was half loaded
    assert not target["a"].data.any() and not target["b"].data.any()


def test_tape_freed_by_reference_counting():
    x = ad.Tensor(rand(5, 3, seed=21), requires_grad=True)
    gc.disable()
    try:
        hidden = ad.log_softmax(ad.multiply(x, x), axis=1)
        probe = weakref.ref(hidden)
        loss = ad.reduce_sum(ad.exp(hidden) + hidden)
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


# -- fused distances ----------------------------------------------------------------


def difference_form_distances(q, e):
    """The composition GQE scored with before ``ad.distances``: (B, n, d) on the tape."""
    diff = ad.subtract(e, ad.reshape(q, (-1, 1, q.shape[1])))
    return ad.sqrt(ad.reduce_sum(diff * diff, axis=2))


def _distance_loss(fn, q_data, e_data, weights):
    q = ad.Tensor(q_data, requires_grad=True)
    e = ad.Tensor(e_data, requires_grad=True)
    dist = fn(q, e)
    loss = ad.reduce_sum(ad.Tensor(weights) * ad.log_softmax(-dist, axis=1))
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
