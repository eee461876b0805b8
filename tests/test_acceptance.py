"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

The adversarial-training criteria share a single sweep of GQE runs over the
privacy coefficient on a seeded synthetic benchmark (module-scoped fixture),
so the whole module stays within its runtime budget.
"""

import math
import random
import time

import numpy as np
import pytest

from privkg import autodiff as ad
from privkg.benchmark import (sample_private_edges, sample_queries,
                              split_edges, write_benchmark)
from privkg.encoders import make_encoder
from privkg.evaluation import calibrate_noise_sigma, evaluate_model, rank
from privkg.graph import Triple, write_triples
from privkg.queries import (QUERY_TYPES, Anchor, Intersection, Projection,
                            Union, parse_query)
from privkg.symbolic import RELAXED, STRICT, evaluate, evaluate_tagged
from privkg.synthetic import make_synthetic_kg
from privkg.training import BOTH, TrainConfig, total_loss, train
from ._named_triples import from_named_triples
from ._oracle import brute_force_oracle
from .conftest import TOY_SCHEMA, TOY_TRIPLES, random_graph

BETAS = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)


@pytest.fixture
def announce(capsys):
    def _say(line):
        with capsys.disabled():
            print("\n" + line)
    return _say


# -- shared query-shape sampler for the symbolic criteria -------------------------


def _rand_proj(g, rng, child):
    return Projection(rng.randrange(len(g.relations)),
                      rng.choice(["forward", "backward"]), child)


def _template_query(g, qtype, rng):
    a = lambda: Anchor(rng.randrange(g.num_vertices()))
    p = lambda c: _rand_proj(g, rng, c)
    shapes = {
        "1p": lambda: p(a()),
        "2p": lambda: p(p(a())),
        "2i": lambda: Intersection((p(a()), p(a()))),
        "3i": lambda: Intersection((p(a()), p(a()), p(a()))),
        "pi": lambda: Intersection((p(p(a())), p(a()))),
        "ip": lambda: p(Intersection((p(a()), p(a())))),
        "2u": lambda: Union((p(a()), p(a()))),
        "up": lambda: p(Union((p(a()), p(a())))),
    }
    return shapes[qtype]()


def _symbolic_corpus():
    """50 graphs (<= 60 vertices, <= 8 relations), 500 queries over all types."""
    rng = random.Random(2024)
    cases = []
    for gi in range(50):
        g = random_graph(seed=1000 + gi,
                         n_vertices=rng.randrange(20, 61),
                         n_relations=rng.randrange(2, 7),
                         n_attributes=rng.randrange(1, 3),
                         n_triples=rng.randrange(60, 200))
        attrs = sorted(g.attribute_triples())
        private = rng.sample(attrs, min(len(attrs), rng.randrange(1, 8)))
        g = g.mark_private(private)
        for qi in range(10):
            qtype = QUERY_TYPES[(gi * 10 + qi) % len(QUERY_TYPES)]
            cases.append((g, _template_query(g, qtype, rng)))
    return cases


def test_criterion_1_symbolic_oracle_equivalence(announce):
    t0 = time.time()
    cases = _symbolic_corpus()
    assert len(cases) == 500
    for g, q in cases:
        assert evaluate(g, q) == brute_force_oracle(g, q)
    elapsed = time.time() - t0
    announce("criterion 1 (symbolic oracle equivalence, 500 queries): PASS in %.1fs" % elapsed)
    assert elapsed < 60


def test_criterion_2_privacy_tagging_algebra(announce):
    for g, q in _symbolic_corpus():
        full = evaluate(g, q)
        pub_view = evaluate(g.public_view(), q)
        for mode in (RELAXED, STRICT):
            tagged = evaluate_tagged(g, q, mode)
            assert tagged.public_members.isdisjoint(tagged.private_members)
            assert tagged.public_members | tagged.private_members == full
            if mode == RELAXED:
                assert tagged.public_members == pub_view
    # the toy-graph 1p query over the private residence edge
    toy = from_named_triples(TOY_TRIPLES, TOY_SCHEMA)
    toy = toy.mark_private({Triple(toy.vertex_id("Hinton"), toy.relation_id("LiveIn"),
                                   toy.vertex_id("Toronto"))})
    q = parse_query("(p LiveIn (a Hinton))", toy)
    for mode in (RELAXED, STRICT):
        tagged = evaluate_tagged(toy, q, mode)
        assert tagged.private_members == {toy.vertex_id("Toronto")}
    announce("criterion 2 (privacy-tagging algebra + toy-graph tag): PASS")


def _finite_diff_check(model, make_loss, rng, coords_per_param=3,
                       step=1e-5, rtol=1e-4):
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
            if abs(got - fd) > rtol * max(abs(fd), 1.0):
                return "%s[%d]: autodiff %g vs finite diff %g" % (name, i, got, fd)
    return None


def test_criterion_3_gradient_correctness(announce):
    t0 = time.time()
    g = from_named_triples(TOY_TRIPLES, TOY_SCHEMA)
    g = g.mark_private({Triple(g.vertex_id("Hinton"), g.relation_id("LiveIn"),
                               g.vertex_id("Toronto"))})
    q1 = parse_query("(p LiveIn (i (p WinAward (a Hinton)) (rp Collaborate (a Hinton))))", g)
    q2 = parse_query("(p BornIn (u (a LeCun) (a Bengio)))", g)
    batch = [(q1, [g.vertex_id("Toronto")]), (q2, [g.vertex_id("London")])]
    private = sorted(g.private)
    failures = []
    for kind in ("gqe", "q2b", "q2p"):
        for seed in range(20):
            m = make_encoder(kind, g, dim=5, seed=seed, n_particles=2)

            def make_loss():
                total, lu, lp = total_loss(m, batch, private, beta=0.5, direction=BOTH)
                return total

            err = _finite_diff_check(m, make_loss, random.Random(seed))
            if err:
                failures.append("%s seed %d: %s" % (kind, seed, err))
    elapsed = time.time() - t0
    verdict = "PASS" if not failures else "FAIL (%s)" % failures[0]
    announce("criterion 3 (gradient correctness, 3 encoders x 20 seeds): %s in %.1fs"
             % (verdict, elapsed))
    assert not failures
    assert elapsed < 120


# -- shared adversarial sweep -----------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    g = make_synthetic_kg(n_entities=230, n_communities=6, n_relations=6,
                          n_attributes=3, values_per_pool=4,
                          edges_per_relation=1, seed=7)
    private = sample_private_edges(g, 100, 1)
    split = split_edges(g, private, 1)
    queries = []
    for qtype in QUERY_TYPES:
        queries.extend(sample_queries(split, qtype, 200, 11))
    runs = {}
    for beta in BETAS:
        t0 = time.time()
        model = make_encoder("gqe", split.test, dim=32, seed=3)
        config = TrainConfig(beta=beta, lr=0.02, epochs=20, batch_size=64,
                             seed=5, privacy_direction=BOTH, private_batch=100)
        train(model, queries, private, config)
        report = evaluate_model(model, queries)
        runs[beta] = {
            "model": model,
            "public": report.overall("public").mrr,
            "private": report.overall("private").mrr,
            "seconds": time.time() - t0,
        }
    return {"graph": g, "split": split, "queries": queries, "runs": runs}


def test_criterion_4_adversarial_protection(sweep, announce):
    base, prot = sweep["runs"][0.0], sweep["runs"][0.5]
    priv_ratio = prot["private"] / base["private"]
    pub_ratio = prot["public"] / base["public"]
    elapsed = base["seconds"] + prot["seconds"]
    ok = priv_ratio <= 0.5 and pub_ratio >= 0.6 and elapsed < 600
    announce("criterion 4 (adversarial protection): %s "
             "(private MRR retained %.1f%% <= 50%%, public MRR retained %.1f%% >= 60%%, %.0fs)"
             % ("PASS" if ok else "FAIL", 100 * priv_ratio, 100 * pub_ratio, elapsed))
    assert priv_ratio <= 0.5
    assert pub_ratio >= 0.6
    assert elapsed < 600


def _spearman(xs, ys):
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        r = [0.0] * len(vals)
        for pos, i in enumerate(order):
            r[i] = pos + 1.0
        return r
    rx, ry = ranks(xs), ranks(ys)
    mx, my = np.mean(rx), np.mean(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


def test_criterion_5_beta_monotonicity(sweep, announce):
    betas = [0.01, 0.05, 0.1, 0.5, 1.0]
    privates = [sweep["runs"][b]["private"] for b in betas]
    rho = _spearman(betas, privates)
    retention = sweep["runs"][0.01]["public"] / sweep["runs"][0.0]["public"]
    ok = rho <= -0.8 and retention >= 0.9
    announce("criterion 5 (beta monotonicity): %s (Spearman %.2f <= -0.8, "
             "public retention at beta=0.01 %.1f%% >= 90%%)"
             % ("PASS" if ok else "FAIL", rho, 100 * retention))
    assert rho <= -0.8
    assert retention >= 0.9


def test_criterion_6_noise_baseline(sweep, announce):
    target = sweep["runs"][0.5]["public"]
    sigma, noise_report = calibrate_noise_sigma(sweep["runs"][0.0]["model"],
                                                sweep["queries"], target, seed=9)
    noisy_pub = noise_report.overall("public").mrr
    noisy_priv = noise_report.overall("private").mrr
    protected_priv = sweep["runs"][0.5]["private"]
    matched = abs(noisy_pub - target) <= 0.05 * target
    dominates = protected_priv < noisy_priv
    ok = matched and dominates
    announce("criterion 6 (noise baseline at matched utility): %s "
             "(sigma %.2f, noisy public MRR %.4f vs target %.4f, "
             "adversarial private MRR %.4f < noisy private MRR %.4f)"
             % ("PASS" if ok else "FAIL", sigma, noisy_pub, target,
                protected_priv, noisy_priv))
    assert matched
    assert dominates


def test_criterion_7_metric_oracle(announce):
    rng = np.random.default_rng(99)
    pyrng = random.Random(99)
    got_ranks, oracle_ranks = [], []
    for _ in range(10000):
        n = pyrng.randrange(3, 40)
        scores = np.round(rng.normal(size=n), 1)  # coarse values force ties
        target = pyrng.randrange(n)
        filt = frozenset(pyrng.sample(range(n), pyrng.randrange(n - 1))) - {target}
        got_ranks.append(rank(scores, target, filt))
        # independent recomputation: sort the unfiltered pool descending and
        # count the slice scoring >= the target (pessimistic tie handling)
        pool = sorted((scores[v] for v in range(n) if v != target and v not in filt),
                      reverse=True)
        k = 0
        while k < len(pool) and pool[k] >= scores[target]:
            k += 1
        oracle_ranks.append(1 + k)
    assert got_ranks == oracle_ranks
    from privkg.evaluation import metrics
    m = metrics(got_ranks)
    n = len(oracle_ranks)
    assert m.hr1 == sum(1 for r in oracle_ranks if r <= 1) / n
    assert m.hr3 == sum(1 for r in oracle_ranks if r <= 3) / n
    assert m.hr10 == sum(1 for r in oracle_ranks if r <= 10) / n
    assert abs(m.mrr - math.fsum(1.0 / r for r in oracle_ranks) / n) < 1e-15
    announce("criterion 7 (metric oracle on 10,000 score tables): PASS")


def test_criterion_8_benchmark_conservation_determinism(tmp_path, announce):
    g = make_synthetic_kg(n_entities=120, n_communities=4, n_relations=4,
                          n_attributes=2, seed=17)
    private = sample_private_edges(g, 20, 2)
    split = split_edges(g, private, 2)
    n = len(g.triples) - len(private)
    assert abs(len(split.train.triples) - round(0.8 * n)) <= 1
    assert abs(len(split.valid.triples) - len(split.train.triples) - round(0.1 * n)) <= 1
    assert len(split.test.triples) == n + len(private)
    assert not (split.train.triples & private)
    assert not (split.valid.triples & private)
    assert private <= split.test.triples
    assert split.test.private == private

    blobs = []
    for trial in range(2):
        split2 = split_edges(g, private, 2)
        parts = []
        for name, kg in (("train", split2.train), ("valid", split2.valid),
                         ("test", split2.test)):
            path = tmp_path / ("%s-%d.tsv" % (name, trial))
            write_triples(path, g, kg.triples)
            parts.append(path.read_bytes())
        for qtype in QUERY_TYPES:
            path = tmp_path / ("q-%s-%d.tsv" % (qtype, trial))
            write_benchmark(path, sample_queries(split2, qtype, 15, 4), g)
            parts.append(path.read_bytes())
        blobs.append(b"".join(parts))
    assert blobs[0] == blobs[1]
    announce("criterion 8 (benchmark conservation and determinism): PASS")
