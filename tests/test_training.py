import functools
import math
import random

import numpy as np
import pytest

from privkg import autodiff as ad
from privkg.benchmark import (BenchmarkQuery, sample_private_edges,
                              sample_queries, split_edges)
from privkg.encoders import make_encoder
from privkg.evaluation import evaluate_model
from privkg.queries import (BACKWARD, FORWARD, QUERY_TYPES, Anchor, Intersection,
                            Projection, Union, classify_type, parse_query)
from privkg.symbolic import TaggedAnswerSet
from privkg.training import (BOTH, REVERSE_ONLY, NoiseConfig, TrainConfig,
                             TrainError, noisy_scores_all, privacy_loss,
                             public_loss, total_loss, train)


def _uniform_model(graph, dim=4, seed=0):
    # identical entity rows force identical scores, hence uniform softmax
    m = make_encoder("gqe", graph, dim=dim, seed=seed)
    m.ent.data[:] = m.ent.data[0]
    return m


def _bench(query, qtype, train_answers, test_public=(), test_private=()):
    test = TaggedAnswerSet(frozenset(test_public), frozenset(test_private))
    return BenchmarkQuery(query, qtype, frozenset(train_answers),
                          frozenset(train_answers) | frozenset(test_public), test)


# -- public retrieval loss ---------------------------------------------------------


def test_public_loss_zero_when_probability_one(toy_graph):
    m = make_encoder("gqe", toy_graph, dim=4, seed=1)
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    v = toy_graph.vertex_id("Toronto")
    # a huge relation offset places the query point far from every entity;
    # pinning the target onto it makes its probability numerically 1
    m.rel.data[m._rel_row(toy_graph.relation_id("LiveIn"), "forward")] = 1e6
    [emb] = m.encode(q)
    m.ent.data[v] = emb.vec.data[0]
    loss = public_loss(m, [(q, [v])])
    assert loss.item() < 1e-12


def test_public_loss_uniform_is_log_n(toy_graph):
    m = _uniform_model(toy_graph)
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    loss = public_loss(m, [(q, [0])])
    assert abs(loss.item() - math.log(toy_graph.num_vertices())) < 1e-12


def test_public_loss_batch_is_pair_mean(toy_graph):
    m = make_encoder("gqe", toy_graph, dim=4, seed=3)
    q1 = parse_query("(p LiveIn (a Hinton))", toy_graph)
    q2 = parse_query("(rp WinAward (a Turing))", toy_graph)
    batch = [(q1, [0, 3]), (q2, [1])]
    combined = public_loss(m, batch).item()
    singles = []
    for q, ans in batch:
        for v in ans:
            singles.append(public_loss(m, [(q, [v])]).item())
    assert abs(combined - np.mean(singles)) < 1e-12


def test_public_loss_rejects_empty(toy_graph):
    m = make_encoder("gqe", toy_graph, dim=4, seed=0)
    with pytest.raises(TrainError):
        public_loss(m, [])
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    with pytest.raises(TrainError):
        public_loss(m, [(q, [])])


def test_candidate_sampling_keeps_answers(toy_graph):
    m = make_encoder("gqe", toy_graph, dim=4, seed=2)
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    rng = random.Random(0)
    # candidate set always contains the answer, so the loss stays finite
    for _ in range(10):
        loss = public_loss(m, [(q, [5])], rng=rng, candidate_sample=3)
        assert np.isfinite(loss.item())


# -- privacy loss ---------------------------------------------------------------


def test_privacy_loss_empty_is_zero(toy_graph):
    m = make_encoder("gqe", toy_graph, dim=4, seed=0)
    assert privacy_loss(m, []).item() == 0.0


def test_privacy_loss_uniform_is_negative_log_n(toy_graph):
    m = _uniform_model(toy_graph)
    loss = privacy_loss(m, sorted(toy_graph.private))
    assert abs(loss.item() - (-math.log(toy_graph.num_vertices()))) < 1e-12


def test_privacy_loss_both_direction_adds_forward_term(toy_graph):
    m = make_encoder("gqe", toy_graph, dim=4, seed=4)
    (triple,) = toy_graph.private
    h, r, t = triple
    rev = privacy_loss(m, [triple], REVERSE_ONLY).item()
    fwd = m.log_probabilities([Projection(r, FORWARD, Anchor(h))], [[t]]).data[0]
    both = privacy_loss(m, [triple], BOTH).item()
    assert abs(both - (rev + fwd) / 2) < 1e-12


def test_privacy_gradient_opposes_leak(toy_graph):
    # a private triple's probability must drop after one step on beta * L_p
    m = make_encoder("gqe", toy_graph, dim=8, seed=5)
    (triple,) = toy_graph.private
    h, r, t = triple

    def leak_prob():
        return math.exp(m.log_probabilities([Projection(r, BACKWARD, Anchor(t))], [[h]]).data[0])

    before = leak_prob()
    opt = ad.make_optimizer(m.store, "sgd", 0.05)
    loss = privacy_loss(m, [triple])
    m.store.zero_grad()
    loss.backward()
    opt.step()
    assert leak_prob() < before


# -- combined loss ---------------------------------------------------------------


def test_total_loss_beta_zero_equals_public(toy_graph):
    m = make_encoder("gqe", toy_graph, dim=4, seed=6)
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    batch = [(q, [2, 5])]
    total, lu, lp = total_loss(m, batch, sorted(toy_graph.private), beta=0.0)
    assert total.item() == lu.item() == public_loss(m, batch).item()


@pytest.mark.parametrize("beta", [0.01, 0.05, 0.1, 0.5, 1.0])
def test_total_loss_linear_in_beta(toy_graph, beta):
    m = make_encoder("gqe", toy_graph, dim=4, seed=7)
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    batch = [(q, [2])]
    priv = sorted(toy_graph.private)
    total, lu, lp = total_loss(m, batch, priv, beta=beta)
    assert abs(total.item() - (lu.item() + beta * lp.item())) < 1e-12


@pytest.fixture(scope="module")
def mixed_batch():
    """All eight templates plus a union of two differently shaped branches."""
    from .conftest import random_graph
    g = random_graph(10, n_vertices=40, n_relations=4, n_attributes=2, n_triples=170)
    private = sample_private_edges(g, 6, 3)
    split = split_edges(g, private, 3)
    batch = []
    for qtype in QUERY_TYPES:
        batch += [(bq.query, bq.train_answers) for bq in sample_queries(split, qtype, 4, 5)
                  if bq.train_answers][:2]
    mixed = Union((Projection(0, FORWARD, Anchor(1)),
                   Intersection((Projection(1, FORWARD, Anchor(2)),
                                 Projection(2, BACKWARD, Projection(0, FORWARD, Anchor(3)))))))
    batch.append((mixed, frozenset({0, 5})))
    assert {classify_type(q) for q, _ in batch} == set(QUERY_TYPES) | {"other"}
    return split.test, batch, sorted(private)


@pytest.mark.parametrize("kind", ["gqe", "q2b", "q2p"])
@pytest.mark.parametrize("candidate_sample", [0, 5])
def test_total_loss_matches_query_by_query(mixed_batch, kind, candidate_sample):
    # the batched path against the same losses composed one query at a time
    g, batch, private = mixed_batch
    m = make_encoder(kind, g, dim=5, seed=2, n_particles=2)

    def grads(loss):
        m.store.zero_grad()
        loss.backward()
        return {n: p.grad.copy() for n, p in m.store.params.items() if p.grad is not None}

    total, _, _ = total_loss(m, batch, private, 0.5, BOTH, random.Random(1), candidate_sample)
    got = grads(total)
    rng = random.Random(1)
    n_pairs = sum(len(a) for _, a in batch)
    parts = [ad.multiply(len(a) / n_pairs, public_loss(m, [(q, a)], rng, candidate_sample))
             for q, a in batch]
    parts += [ad.multiply(0.5 / len(private), privacy_loss(m, [t], BOTH)) for t in private]
    composed = functools.reduce(ad.add, parts)
    assert abs(total.item() - composed.item()) <= 1e-12 * abs(composed.item())
    want = grads(composed)
    assert got.keys() == want.keys()
    for name in want:
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12, name


def test_config_validation():
    with pytest.raises(TrainError):
        TrainConfig(beta=-0.1)
    with pytest.raises(TrainError):
        TrainConfig(epochs=0)
    with pytest.raises(TrainError):
        TrainConfig(privacy_direction="sideways")
    with pytest.raises(TrainError):
        NoiseConfig(sigma=-1.0)


# -- the training loop --------------------------------------------------------------


def _toy_benchmark(g, n_private=6, seed=0):
    private = sample_private_edges(g, n_private, seed)
    split = split_edges(g, private, seed)
    queries = []
    for qtype in ("1p", "2p", "2i"):
        queries.extend(sample_queries(split, qtype, 12, seed))
    return split, queries, private


@pytest.fixture(scope="module")
def trained_pair():
    from .conftest import random_graph
    g = random_graph(21, n_vertices=40, n_relations=4, n_attributes=2, n_triples=170)
    split, queries, private = _toy_benchmark(g, n_private=8, seed=1)
    runs = {}
    for beta in (0.0, 0.5):
        m = make_encoder("gqe", split.test, dim=16, seed=9)
        cfg = TrainConfig(beta=beta, lr=0.02, epochs=12, seed=4,
                          privacy_direction=BOTH, private_batch=8)
        trace = train(m, queries, private, cfg)
        runs[beta] = (m, trace)
    return split, queries, private, runs


def test_train_is_deterministic(toy_graph):
    from .conftest import random_graph
    g = random_graph(3, n_vertices=30, n_triples=100)
    split, queries, private = _toy_benchmark(g, n_private=4, seed=2)
    traces = []
    models = []
    for _ in range(2):
        m = make_encoder("q2b", split.test, dim=8, seed=1)
        traces.append(train(m, queries, private,
                            TrainConfig(beta=0.1, lr=0.01, epochs=3, seed=7)))
        models.append(m)
    assert traces[0].epochs == traces[1].epochs
    for name in models[0].store.params:
        assert np.array_equal(models[0].store[name].data, models[1].store[name].data)


def test_training_reduces_public_loss(trained_pair):
    split, queries, private, runs = trained_pair
    _, trace = runs[0.0]
    assert trace.epochs[-1][1] < trace.epochs[0][1]


def test_beta_suppresses_private_probability(trained_pair):
    split, queries, private, runs = trained_pair
    m0, _ = runs[0.0]
    m5, _ = runs[0.5]

    def mean_leak(m):
        triples = sorted(private)
        logp = m.log_probabilities([Projection(r, BACKWARD, Anchor(t)) for h, r, t in triples],
                                   [[h] for h, r, t in triples])
        return np.mean(np.exp(logp.data))

    assert mean_leak(m5) < mean_leak(m0)


def test_trace_csv_format(trained_pair, tmp_path):
    _, _, _, runs = trained_pair
    _, trace = runs[0.5]
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,L_u,L_p,L"
    assert len(lines) == 1 + len(trace.epochs)
    epoch, lu, lp, total = lines[1].split(",")
    assert int(epoch) == 1
    assert abs(float(lu) + 0.5 * float(lp) - float(total)) < 1e-6


def test_train_requires_trainable_queries(toy_graph):
    m = make_encoder("gqe", toy_graph, dim=4, seed=0)
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    empty = [_bench(q, "1p", [])]
    with pytest.raises(TrainError):
        train(m, empty, [], TrainConfig(epochs=1))


# -- noise baseline -----------------------------------------------------------------


def test_noise_sigma_zero_is_identity(toy_graph):
    m = make_encoder("q2p", toy_graph, dim=6, seed=3, n_particles=2)
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    clean = m.scores_all(m.encode(q)).data
    noisy = noisy_scores_all(m, q, NoiseConfig(sigma=0.0, seed=1))
    assert np.array_equal(clean, noisy)


def test_noise_seed_reproducible(toy_graph):
    m = make_encoder("gqe", toy_graph, dim=6, seed=3)
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    a = noisy_scores_all(m, q, NoiseConfig(sigma=0.5, seed=11))
    b = noisy_scores_all(m, q, NoiseConfig(sigma=0.5, seed=11))
    c = noisy_scores_all(m, q, NoiseConfig(sigma=0.5, seed=12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_large_noise_shuffles_ranking(toy_graph):
    m = make_encoder("gqe", toy_graph, dim=6, seed=3)
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    clean_top = int(np.argmax(m.scores_all(m.encode(q)).data))
    rng = np.random.default_rng(0)
    tops = set()
    for _ in range(40):
        tops.add(int(np.argmax(noisy_scores_all(m, q, NoiseConfig(sigma=100.0), rng))))
    assert len(tops) > 1  # huge noise cannot preserve the argmax every draw
    assert tops != {clean_top}
