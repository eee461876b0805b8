import math
import random

import numpy as np
import pytest

from privkg import autodiff as ad
from privkg.encoders import (BoxEmbedding, EncoderError, ParticleEmbedding,
                             VectorEmbedding, load_encoder, make_encoder)
from privkg.graph import from_named_triples
from privkg.queries import Anchor, Intersection, Projection, parse_query
from privkg.training import total_loss
from .conftest import random_graph, random_query

KINDS = ("gqe", "q2b", "q2p")


@pytest.fixture
def models(toy_graph):
    return {kind: make_encoder(kind, toy_graph, dim=6, seed=3, n_particles=2)
            for kind in KINDS}


# -- projection ----------------------------------------------------------------


def test_gqe_zero_relation_is_identity(models):
    m = models["gqe"]
    m.rel.data[:] = 0.0
    q = m.anchor([0, 4])
    out = m.project(q, [0, 1], ["forward", "backward"])
    assert np.array_equal(out.vec.data, q.vec.data)


def test_q2b_zero_relation_is_identity(models):
    m = models["q2b"]
    m.rel_c.data[:] = 0.0
    m.rel_o.data[:] = 0.0
    q = m.project(m.anchor([1, 2]), [0, 2], ["forward", "forward"])
    out = m.project(q, [1, 0], ["backward", "forward"])
    assert np.array_equal(out.center.data, q.center.data)
    assert np.array_equal(out.offset.data, q.offset.data)


def test_q2p_projection_matches_scalar_loop(toy_graph):
    m = make_encoder("q2p", toy_graph, dim=2, seed=7, n_particles=1)
    emb = m.anchor([2, 0])
    out = m.project(emb, [1, 0], ["forward", "backward"]).particles.data
    s = m.store
    d = 2

    def affine(w, u, b, vec, e):
        return [sum(e[i] * s[w].data[i, j] for i in range(d)) +
                sum(vec[i] * s[u].data[i, j] for i in range(d)) + s[b].data[j]
                for j in range(d)]

    sig = lambda v: 1 / (1 + math.exp(-v))
    for row, (rel, direction) in enumerate([(1, "forward"), (0, "backward")]):
        p = emb.particles.data[row, 0]
        e = m.rel.data[m._rel_row(rel, direction)]
        z = [sig(v) for v in affine("proj.w_z", "proj.u_z", "proj.b_z", p, e)]
        r = [sig(v) for v in affine("proj.w_r", "proj.u_r", "proj.b_r", p, e)]
        rp = [r[i] * p[i] for i in range(d)]
        t = [math.tanh(v) for v in affine("proj.w_h", "proj.u_h", "proj.b_h", rp, e)]
        a = [(1 - z[i]) * p[i] + z[i] * t[i] for i in range(d)]
        # single particle: attention weight is 1, output is A @ W_v
        want = [sum(a[i] * s["proj.att_v"].data[i, j] for i in range(d)) for j in range(d)]
        assert np.max(np.abs(out[row, 0] - want)) < 1e-12


# -- intersection -----------------------------------------------------------------


def _random_boxes(rng, n_rows, k, d):
    return [BoxEmbedding(ad.Tensor(rng.normal(size=(n_rows, d))),
                         ad.Tensor(np.abs(rng.normal(size=(n_rows, d)))))
            for _ in range(k)]


def test_q2b_intersection_shrinks_offsets(models):
    m = models["q2b"]
    rng = np.random.default_rng(0)
    for _ in range(100):
        boxes = _random_boxes(rng, 10, rng.integers(2, 5), 6)
        out = m.intersect(boxes)
        min_offset = np.min([b.offset.data for b in boxes], axis=0)
        assert (out.offset.data <= min_offset + 1e-15).all()
        assert (out.offset.data >= 0).all()


def test_gqe_intersection_of_identical_inputs(models):
    m = models["gqe"]
    q = m.anchor([2, 5])
    out = m.intersect([q, q, q]).vec.data
    single = ad.matmul(ad.relu(ad.matmul(q.vec, m.ffn_w) + m.ffn_b), m.post_w).data
    assert np.max(np.abs(out - single)) < 1e-12


def test_q2b_attention_weights_and_hull(toy_graph):
    m = make_encoder("q2b", toy_graph, dim=2, seed=9)
    rng = np.random.default_rng(4)
    for _ in range(5):
        boxes = _random_boxes(rng, 10, 3, 2)
        out = m.intersect(boxes)
        centers = np.array([b.center.data for b in boxes])
        # per-dimension convex combination: inside the per-dim interval hull
        assert (out.center.data <= centers.max(axis=0) + 1e-12).all()
        assert (out.center.data >= centers.min(axis=0) - 1e-12).all()


@pytest.mark.parametrize("kind", KINDS)
def test_batched_rows_match_single_rows(models, kind):
    # a row of a batch sees only its own inputs
    m = models[kind]
    a, b = m.anchor([0, 3, 5]), m.anchor([1, 1, 2])
    batch = m.intersect([m.project(a, [0, 1, 2], ["forward", "backward", "forward"]), b])
    for row, (va, vb, rel, direction) in enumerate(
            [(0, 1, 0, "forward"), (3, 1, 1, "backward"), (5, 2, 2, "forward")]):
        one = m.intersect([m.project(m.anchor([va]), [rel], [direction]), m.anchor([vb])])
        for got, want in zip(batch, one):
            assert np.max(np.abs(got.data[row] - want.data[0])) < 1e-12


def test_intersection_arity_error(models):
    from privkg.queries import Intersection, Anchor
    for m in models.values():
        with pytest.raises(EncoderError):
            m.encode(Intersection((Anchor(0),)))


# -- encoding -------------------------------------------------------------------


def test_encode_1p_is_projected_anchor(models, toy_graph):
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    h = toy_graph.vertex_id("Hinton")
    r = toy_graph.relation_id("LiveIn")
    m = models["gqe"]
    [emb] = m.encode(q)
    want = m.project(m.anchor([h]), [r], ["forward"])
    assert np.array_equal(emb.vec.data, want.vec.data)


def test_encode_2u_gives_two_1p_disjuncts(models, toy_graph):
    q = parse_query("(u (p LiveIn (a Hinton)) (p LiveIn (a LeCun)))", toy_graph)
    for kind, m in models.items():
        [emb] = m.encode(q)  # same shape: one batch of two rows
        assert emb[0].shape[0] == 2


def test_encoding_deterministic(toy_graph):
    q = parse_query("(p LiveIn (i (p WinAward (a Hinton)) (p WinAward (a LeCun))))",
                    toy_graph)
    for kind in KINDS:
        a = make_encoder(kind, toy_graph, dim=6, seed=5, n_particles=2)
        b = make_encoder(kind, toy_graph, dim=6, seed=5, n_particles=2)
        sa = a.scores_all(a.encode(q)).data
        sb = b.scores_all(b.encode(q)).data
        assert np.array_equal(sa, sb)


# -- scoring ---------------------------------------------------------------------


def test_gqe_perfect_match_scores_zero(models):
    m = models["gqe"]
    emb = VectorEmbedding(ad.Tensor(m.ent.data[[3, 1]].copy()))
    scores = m.scores(emb).data
    assert abs(scores[0, 3]) < 1e-12 and abs(scores[1, 1]) < 1e-12
    assert scores.max() <= 1e-12  # 0 is the maximum possible


def test_q2b_center_point_has_zero_outside_distance(models):
    m = models["q2b"]
    emb = BoxEmbedding(ad.Tensor(m.ent.data[[2]].copy()), ad.Tensor(np.abs(m.ent.data[[4]])))
    scores = m.scores(emb).data[0]
    # dist_outside = 0 at the center, so only alpha * dist_inside remains
    center_inside = np.abs(m.ent.data[2] - m.ent.data[2]).sum()
    assert abs(scores[2] - (-m.alpha * center_inside)) < 1e-12
    assert abs(scores[2]) < 1e-12


def test_gqe_ranking_matches_scalar_loop(models, toy_graph):
    m = models["gqe"]
    q = parse_query("(p WinAward (a Hinton))", toy_graph)
    [emb] = m.encode(q)
    scores = m.scores_all([emb]).data
    want = []
    for v in range(toy_graph.num_vertices()):
        want.append(-math.sqrt(sum((emb.vec.data[0, i] - m.ent.data[v, i]) ** 2
                                   for i in range(m.dim))))
    assert np.max(np.abs(scores - want)) < 1e-12
    assert list(np.argsort(-scores)) == list(np.argsort(-np.array(want)))


def test_q2p_scores_are_max_over_particles(models):
    m = models["q2p"]
    emb = m.anchor([1, 4])
    scores = m.scores(emb).data
    for row in range(2):
        for v in range(m.graph.num_vertices()):
            dists = [np.linalg.norm(p - m.ent.data[v]) for p in emb.particles.data[row]]
            assert abs(scores[row, v] - max(-d for d in dists)) < 1e-12


def test_dnf_scores_are_max_over_disjuncts(models, toy_graph):
    # differently shaped branches: two embeddings, rows still in DNF order
    q = parse_query("(u (p LiveIn (a Hinton)) (p LiveIn (i (a LeCun) (a Bengio))) "
                    "(p BornIn (a Bengio)))", toy_graph)
    for m in models.values():
        embs = m.encode(q)
        assert len(embs) == 3
        combined = m.scores_all(embs).data
        individual = np.concatenate([m.scores(e).data for e in embs])
        assert np.array_equal(combined, individual.max(axis=0))


def difference_form_scores(m, emb):
    """GQE and Q2P scores as composed before ``ad.distances``: (B, nv, d) on the tape."""
    if m.kind == "gqe":
        diff = ad.subtract(m.ent, ad.reshape(emb.vec, (-1, 1, m.dim)))
        return -ad.sqrt(ad.reduce_sum(diff * diff, axis=2))
    p = emb.particles
    diff = ad.subtract(ad.reshape(m.ent, (-1, 1, m.dim)),
                       ad.reshape(p, (p.shape[0], 1) + p.shape[1:]))
    return -ad.reduce_min(ad.sqrt(ad.reduce_sum(diff * diff, axis=3)), axis=2)


@pytest.mark.parametrize("kind", ["gqe", "q2p"])
def test_scores_match_difference_form(kind, monkeypatch):
    g = random_graph(4, n_vertices=40, n_triples=150)
    m = make_encoder(kind, g, dim=8, seed=6, n_particles=3)
    rng = random.Random(4)
    queries = [random_query(g, rng, max_depth=3) for _ in range(12)]
    queries += [parse_query("(a %s)" % g.vertex_names[v], g) for v in (0, 3, 3)]
    targets = [[rng.randrange(40) for _ in range(2)] for _ in queries]
    weights = np.random.default_rng(4).normal(size=2 * len(queries))

    def run():
        m.store.zero_grad()
        logp = m.log_probabilities(queries, targets)
        ad.reduce_sum(logp * weights).backward()
        return logp.data, {n: p.grad.copy() for n, p in m.store.params.items()}

    got = run()
    monkeypatch.setattr(m, "scores", lambda emb: difference_form_scores(m, emb))
    want = run()
    assert np.max(np.abs(got[0] - want[0])) <= 1e-12 * np.max(np.abs(want[0]))
    largest = max(np.max(np.abs(w)) for w in want[1].values())
    for name, w in want[1].items():
        assert np.max(np.abs(got[1][name] - w)) <= 1e-12 * largest, name


def _tape_arrays(loss):
    """Every array the tape holds: node values and the arrays backward closures keep."""
    seen, todo = set(), [loss]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node.data
        todo.extend(node.parents)
        closure = node._backward.__closure__ if node._backward else None
        for cell in closure or ():
            value = cell.cell_contents
            for item in value if isinstance(value, (tuple, list)) else (value,):
                if isinstance(item, np.ndarray):
                    yield item


def test_gqe_loss_keeps_no_rows_by_vertices_by_dim_array():
    g = random_graph(2, n_vertices=40, n_triples=150)
    m = make_encoder("gqe", g, dim=8, seed=1)
    rng = random.Random(2)
    batch = []
    while len(batch) < 120:
        h, r, t = rng.choice(sorted(g.triples))
        batch.append((parse_query("(p %s (a %s))" % (g.relations[r].name, g.vertex_names[h]), g),
                      {t}))
    loss, _, _ = total_loss(m, batch, sorted(g.triples)[:110], 0.5, "both")
    nv, d = g.num_vertices(), m.dim
    largest = max(a.size for a in _tape_arrays(loss))
    assert largest < 100 * nv * d  # every scoring call has at least 100 rows


def test_q2b_loss_keeps_no_rows_by_vertices_by_dim_array():
    g = random_graph(2, n_vertices=40, n_triples=150)
    m = make_encoder("q2b", g, dim=8, seed=1)
    rng = random.Random(2)
    batch = []
    while len(batch) < 120:
        h, r, t = rng.choice(sorted(g.triples))
        batch.append((parse_query("(p %s (a %s))" % (g.relations[r].name, g.vertex_names[h]), g),
                      {t}))
    loss, _, _ = total_loss(m, batch, sorted(g.triples)[:110], 0.5, "both")
    nv, d = g.num_vertices(), m.dim
    largest = max(a.size for a in _tape_arrays(loss))
    assert largest < 100 * nv * d  # every scoring call has at least 100 rows


def clipped_l1_scores(m, emb):
    """Q2B scores as composed before ``ad.box_distances``: (B, nv, d) on the tape."""
    center, offset = (ad.reshape(t, (-1, 1, m.dim)) for t in emb)
    q_max = center + offset
    q_min = center - offset
    outside = ad.reduce_sum(ad.relu(ad.subtract(m.ent, q_max)) +
                            ad.relu(ad.subtract(q_min, m.ent)), axis=2)
    clipped = ad.minimum(q_max, ad.maximum(q_min, m.ent))
    inside = ad.reduce_sum(ad.absolute(ad.subtract(center, clipped)), axis=2)
    return -(outside + m.alpha * inside)


@pytest.mark.parametrize("rows", [1, 280])
@pytest.mark.parametrize("grid", [False, True])
def test_box_distances_match_composition(rows, grid, monkeypatch):
    g = random_graph(5, n_vertices=60, n_triples=200)
    m = make_encoder("q2b", g, dim=8, seed=2)
    if grid:  # values on a 1/8 grid put many entities exactly on a box surface
        for p in (m.ent, m.rel_c, m.rel_o):
            p.data[:] = np.round(p.data * 8) / 8
    m.rel_o.data[0] = 2.0  # relation 0 forward: every entity inside the box
    m.rel_o.data[1] = 1e-3  # relation 0 backward: every entity outside
    m.rel_o.data[2, :4] = 0.0  # relation 1 forward: a point in half the dimensions
    nv, n_rel_rows = g.num_vertices(), 2 * len(g.relations)
    rng = random.Random(rows)

    def one_hop(row):
        return Projection(row // 2, "backward" if row % 2 else "forward",
                          Anchor(rng.randrange(nv)))

    if rows == 1:  # one query per shape: every scoring call has one row
        hops = [one_hop(2)]
        queries = hops + [Anchor(7), Projection(0, "forward", one_hop(1)),
                          Intersection((one_hop(0), one_hop(3)))]
    else:
        hops = [one_hop(i % n_rel_rows) for i in range(rows)]
        queries = hops + [Anchor(v) for v in range(0, nv, 2)]
        queries += [random_query(g, rng, max_depth=3) for _ in range(10)]
    # an anchor box is a point: its own vertex is at distance 0 with zero gradient
    targets = [[q.vertex] if isinstance(q, Anchor) else [rng.randrange(nv) for _ in range(2)]
               for q in queries]
    weights = np.random.default_rng(rows).normal(size=sum(map(len, targets)))
    emb = m._encode_group(hops)
    assert emb.center.shape[0] == rows
    if grid:
        x = np.abs(m.ent.data - emb.center.data[:, None])
        assert (x == emb.offset.data[:, None]).any()

    def run():
        m.store.zero_grad()
        logp = m.log_probabilities(queries, targets)
        ad.reduce_sum(logp * weights).backward()
        return (m.scores(emb).data, logp.data,
                {n: p.grad.copy() for n, p in m.store.params.items() if p.grad is not None})

    got = run()
    monkeypatch.setattr(m, "scores", lambda emb: clipped_l1_scores(m, emb))
    want = run()
    for g_values, w_values in zip(got[:2], want[:2]):
        assert np.max(np.abs(g_values - w_values)) <= 1e-12 * np.max(np.abs(w_values))
    assert got[2].keys() == want[2].keys()
    largest = max(np.max(np.abs(w)) for w in want[2].values())
    for name, w in want[2].items():
        assert np.max(np.abs(got[2][name] - w)) <= 1e-12 * largest, name


# -- probabilities ------------------------------------------------------------------


class _FixedSample:
    """Stands in for random.Random: every candidate draw returns ``ids``."""

    def __init__(self, ids):
        self.ids = ids

    def sample(self, population, k):
        return self.ids


def test_probability_single_candidate(models):
    q = parse_query("(p LiveIn (a Hinton))", models["gqe"].graph)
    for m in models.values():
        # the only candidate is the target itself
        logp = m.log_probabilities([q], [[2]], _FixedSample([2]), candidate_sample=1)
        assert abs(np.exp(logp.data[0]) - 1.0) < 1e-15


def test_probability_uniform_when_scores_equal(toy_graph):
    m = make_encoder("gqe", toy_graph, dim=4, seed=1)
    m.ent.data[:] = m.ent.data[0]  # identical entities -> identical scores
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    n = toy_graph.num_vertices()
    assert abs(np.exp(m.log_probabilities([q], [[3]]).data[0]) - 1.0 / n) < 1e-12
    # over a sampled candidate set of 3, each candidate gets 1/3
    logp = m.log_probabilities([q], [[3]], _FixedSample([0, 5]), candidate_sample=2)
    assert abs(np.exp(logp.data[0]) - 1.0 / 3) < 1e-12


def test_probabilities_sum_to_one(models, toy_graph):
    q = parse_query("(i (p WinAward (a Hinton)) (p WinAward (a LeCun)))", toy_graph)
    u = parse_query("(u (p LiveIn (a Hinton)) (p BornIn (a LeCun)))", toy_graph)
    everyone = list(range(toy_graph.num_vertices()))
    for m in models.values():
        logp = m.log_probabilities([q, u], [everyone, everyone]).data
        assert abs(np.exp(logp[:len(everyone)]).sum() - 1.0) < 1e-12
        assert abs(np.exp(logp[len(everyone):]).sum() - 1.0) < 1e-12


def test_log_probabilities_match_scores_all(models, toy_graph):
    # one batched pass equals each query's own max over disjuncts and softmax
    texts = ["(u (p LiveIn (a Hinton)) (p LiveIn (i (a LeCun) (a Bengio))))",
             "(p BornIn (a Bengio))",
             "(u (i (p WinAward (a LeCun)) (a Bengio)) (p LiveIn (a LeCun)))"]
    queries = [parse_query(t, toy_graph) for t in texts]
    everyone = list(range(toy_graph.num_vertices()))
    for m in models.values():
        got = m.log_probabilities(queries, [everyone] * len(queries)).data
        want = [ad.log_softmax(m.scores_all(m.encode(q)), axis=0).data for q in queries]
        assert np.max(np.abs(got - np.concatenate(want))) < 1e-12


def test_score_shift_invariance(models, toy_graph):
    # adding a constant to all scores leaves ranking and probabilities unchanged
    m = models["gqe"]
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    scores = m.scores_all(m.encode(q)).data
    logp = m.log_probabilities([q], [list(range(toy_graph.num_vertices()))])
    shifted = ad.log_softmax(ad.Tensor(scores + 42.0), axis=0)
    assert np.max(np.abs(np.exp(logp.data) - np.exp(shifted.data))) < 1e-12
    assert list(np.argsort(-scores)) == list(np.argsort(-(scores + 42.0)))


def test_probability_errors(models):
    m = models["gqe"]
    q = parse_query("(p LiveIn (a Hinton))", m.graph)
    with pytest.raises(EncoderError):
        m.log_probabilities([], [])
    with pytest.raises(EncoderError):
        m.log_probabilities([q], [[1], [2]])
    for bad in (-1, m.graph.num_vertices()):
        with pytest.raises(EncoderError):
            m.log_probabilities([q], [[bad]])


@pytest.mark.parametrize("kind", KINDS)
def test_batched_perturb_matches_single_rows(models, kind):
    m = models[kind]
    many = m.project(m.anchor([0, 2, 4]), [1, 0, 1], ["backward", "forward", "forward"])
    got = m.perturb(many, np.random.default_rng(5), 0.3)
    rng = np.random.default_rng(5)
    for row in range(3):
        one = type(many)(*(ad.Tensor(t.data[row:row + 1]) for t in many))
        want = m.perturb(one, rng, 0.3)
        for g, w in zip(got, want):
            assert np.array_equal(g.data[row], w.data[0])


# -- gradients, finiteness, checkpointing -------------------------------------------


def sampled_gradcheck(model, make_loss, seed, coords_per_param=4,
                      step=1e-5, rtol=1e-4):
    rng = random.Random(seed)
    loss = make_loss()
    model.store.zero_grad()
    loss.backward()
    for name, p in model.store.params.items():
        if p.grad is None:
            continue
        flat = p.data.reshape(-1)
        for _ in range(min(coords_per_param, flat.size)):
            i = rng.randrange(flat.size)
            keep = flat[i]
            flat[i] = keep + step
            hi = make_loss().item()
            flat[i] = keep - step
            lo = make_loss().item()
            flat[i] = keep
            fd = (hi - lo) / (2 * step)
            got = p.grad.reshape(-1)[i]
            assert abs(got - fd) <= rtol * max(abs(fd), 1.0), \
                "%s[%d]: autodiff %g vs fd %g" % (name, i, got, fd)


@pytest.mark.parametrize("kind", KINDS)
def test_end_to_end_gradcheck(toy_graph, kind):
    m = make_encoder(kind, toy_graph, dim=5, seed=11, n_particles=2)
    q = parse_query("(p LiveIn (i (p WinAward (a Hinton)) (rp Collaborate (a Hinton))))",
                    toy_graph)
    target = toy_graph.vertex_id("Toronto")

    def make_loss():
        return -ad.reduce_sum(m.log_probabilities([q], [[target]]))

    sampled_gradcheck(m, make_loss, seed=13)


def test_outputs_finite_and_q2b_offsets_nonnegative(toy_graph):
    rng = random.Random(0)
    from .conftest import random_query
    for kind in KINDS:
        m = make_encoder(kind, toy_graph, dim=6, seed=2, n_particles=2)
        for _ in range(20):
            q = random_query(toy_graph, rng, max_depth=4)
            for emb in m.encode(q):
                if isinstance(emb, BoxEmbedding):
                    assert (emb.offset.data >= 0).all()
                scores = m.scores(emb).data
                assert np.isfinite(scores).all()


def test_checkpoint_roundtrip(tmp_path, toy_graph):
    for kind in KINDS:
        m = make_encoder(kind, toy_graph, dim=6, seed=8, n_particles=2)
        path = tmp_path / ("%s.ckpt" % kind)
        m.save(path)
        back = load_encoder(path, toy_graph)
        assert back.kind == kind
        for name, p in m.store.params.items():
            assert np.array_equal(p.data, back.store[name].data)


def test_checkpoint_vocabulary_mismatch(tmp_path, toy_graph):
    m = make_encoder("gqe", toy_graph, dim=4, seed=0)
    path = tmp_path / "m.ckpt"
    m.save(path)
    other = random_graph(0, n_vertices=10, n_triples=20)
    with pytest.raises(EncoderError, match="vocabulary"):
        load_encoder(path, other)


def test_checkpoint_vocabulary_names_mismatch(tmp_path):
    def graph(names, relation="r"):
        return from_named_triples([(names[0], relation, names[1]), (names[1], relation, names[2])],
                                  {relation: "rel"})
    m = make_encoder("gqe", graph("xyz"), dim=4, seed=0)
    path = tmp_path / "m.ckpt"
    m.save(path)
    assert load_encoder(path, graph("xyz")).kind == "gqe"
    for other in (graph("pqr"), graph("xyz", relation="s")):
        with pytest.raises(EncoderError, match="vocabulary"):
            load_encoder(path, other)
