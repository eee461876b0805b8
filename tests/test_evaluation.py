import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privkg.benchmark import BenchmarkQuery
from privkg.cli import main
from privkg.encoders import make_encoder
from privkg.evaluation import (EvalError, EvalReport, calibrate_noise_sigma,
                               evaluate_model, metrics, query_targets, rank)
from privkg.queries import OTHER, parse_query
from privkg.symbolic import TaggedAnswerSet
from privkg.training import NoiseConfig


def _bench(query, qtype, train=(), valid=(), public=(), private=()):
    return BenchmarkQuery(query, qtype, frozenset(train),
                          frozenset(train) | frozenset(valid) | frozenset(),
                          TaggedAnswerSet(frozenset(public), frozenset(private)))


# -- rank -----------------------------------------------------------------------


def test_rank_examples():
    scores = np.array([0.1, 0.9, 0.5, 0.5, -1.0])
    assert rank(scores, 1) == 1
    assert rank(scores, 0) == 4
    assert rank(scores, 4) == 5
    # pessimistic: the tie at index 3 counts against index 2
    assert rank(scores, 2) == 3
    # filtering the tied competitor and the top entry promotes it to rank 1
    assert rank(scores, 2, frozenset({1, 3})) == 1


def test_rank_errors():
    with pytest.raises(EvalError):
        rank(np.zeros(3), 5)
    with pytest.raises(EvalError):
        rank(np.zeros(3), 1, frozenset({1}))


@pytest.mark.parametrize("bad", [-1, 3, -4])
def test_rank_refuses_a_filter_id_out_of_range(bad):
    # -1 would index vertex 2 and filter it without a word; 3 is past the end
    scores = np.array([0.1, 0.5, 0.9])
    assert rank(scores, 0, {1, 2}) == 1
    with pytest.raises(EvalError, match="filter id %d not scored" % bad):
        rank(scores, 0, {bad})
    with pytest.raises(EvalError, match="filter id %d not scored" % bad):
        rank(scores, 0, {1, bad, 2})


def test_rank_rejects_non_finite_scores():
    with pytest.raises(EvalError, match="non-finite"):
        rank(np.array([0.1, np.nan, 0.3]), 1)  # a NaN target
    with pytest.raises(EvalError, match="non-finite"):
        rank(np.array([0.1, np.nan, 0.3]), 2)  # a NaN in the pool
    with pytest.raises(EvalError, match="non-finite"):
        rank(np.full(3, np.nan), 0)
    with pytest.raises(EvalError, match="non-finite"):
        rank(np.array([0.1, np.inf, 0.3]), 0, frozenset({2}))


def test_rank_matches_sort_oracle():
    rng = np.random.default_rng(7)
    pyrng = random.Random(7)
    for _ in range(300):
        n = pyrng.randrange(2, 30)
        scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
        target = pyrng.randrange(n)
        others = pyrng.sample(range(n), pyrng.randrange(0, n - 1))
        filt = frozenset(others) - {target}
        got = rank(scores, target, filt)
        want = 1 + sum(1 for v in range(n)
                       if v != target and v not in filt
                       and scores[v] >= scores[target])
        assert got == want


def test_rank_monotone_in_filter():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=20)
    target = 5
    r = rank(scores, target)
    filt = set()
    for v in (0, 1, 2, 3, 4, 6, 7):
        filt.add(v)
        r2 = rank(scores, target, frozenset(filt))
        assert r2 <= r
        r = r2


# -- metrics --------------------------------------------------------------------


def test_metrics_examples():
    m = metrics([1, 2, 4])
    assert m.hr1 == pytest.approx(1 / 3)
    assert m.hr3 == pytest.approx(2 / 3)
    assert m.hr10 == 1.0
    assert m.mrr == pytest.approx((1 + 1 / 2 + 1 / 4) / 3)
    assert m.count == 3

    m = metrics([1, 5, 2])
    assert m.hr3 == pytest.approx(2 / 3)

    m = metrics([1, 1, 1])
    assert (m.hr1, m.hr3, m.hr10, m.mrr) == (1.0, 1.0, 1.0, 1.0)

    m = metrics([100])
    assert (m.hr1, m.hr3, m.hr10) == (0.0, 0.0, 0.0)
    assert m.mrr == pytest.approx(0.01)

    with pytest.raises(EvalError):
        metrics([])


# -- target classes ----------------------------------------------------------------


def test_query_targets_classes(toy_graph):
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    bq = _bench(q, "1p", train={1}, valid={2}, public={2, 3, 4}, private={9})
    public, private, known = query_targets(bq)
    # answers already in the validation graph are memorization, not generalization
    assert public == {3, 4}
    assert private == {9}
    assert known == {1, 2, 3, 4, 9}


def test_query_targets_disjoint_on_real_benchmark():
    from .conftest import random_graph
    from privkg.benchmark import sample_private_edges, sample_queries, split_edges
    g = random_graph(5, n_vertices=35, n_triples=150)
    private = sample_private_edges(g, 6, 0)
    split = split_edges(g, private, 0)
    for qtype in ("1p", "2i", "ip"):
        for bq in sample_queries(split, qtype, 10, 0):
            public, priv, known = query_targets(bq)
            assert public.isdisjoint(priv)
            assert public <= known and priv <= known


# -- evaluate_model ---------------------------------------------------------------


@pytest.fixture
def eval_setup(toy_graph):
    m = make_encoder("gqe", toy_graph, dim=6, seed=2)
    q1 = parse_query("(p WinAward (a Hinton))", toy_graph)
    q2 = parse_query("(rp Collaborate (a Hinton))", toy_graph)
    queries = [
        _bench(q1, "1p", public={2}, private={5}),
        _bench(q2, "1p", train={1}, public={4}),
    ]
    return m, queries


def test_evaluate_model_matches_manual_ranking(eval_setup):
    m, queries = eval_setup
    report = evaluate_model(m, queries)
    want = {}
    for bq in queries:
        scores = m.scores_all(m.encode(bq.query)).data
        public, private, known = query_targets(bq)
        for cls, targets in (("public", public), ("private", private)):
            for t in sorted(targets):
                want.setdefault((bq.qtype, cls), []).append(
                    rank(scores, t, frozenset(known) - {t}))
    assert report.ranks == want
    rows = report.to_tsv().splitlines()
    for key, rs in want.items():
        m = metrics(rs)
        assert "%s\t%s\t%.4f\t%.4f\t%.4f\t%.4f\t%d" % (*key, m.hr1, m.hr3, m.hr10, m.mrr,
                                                        m.count) in rows


def test_evaluate_model_rejects_nan_model(eval_setup):
    m, queries = eval_setup
    m.ent.data[3] = np.nan
    with pytest.raises(EvalError, match="non-finite"):
        evaluate_model(m, queries)


def test_evaluate_model_skips_queries_without_targets(toy_graph):
    m = make_encoder("gqe", toy_graph, dim=4, seed=0)
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    report = evaluate_model(m, [_bench(q, "1p", train={1}, valid={2}, public={2})])
    assert report.ranks == {}
    assert report.overall("public") is None


def test_untrained_model_mrr_near_uniform_floor():
    from .conftest import random_graph
    from privkg.benchmark import sample_private_edges, sample_queries, split_edges
    g = random_graph(11, n_vertices=60, n_relations=4, n_attributes=2, n_triples=260)
    private = sample_private_edges(g, 8, 3)
    split = split_edges(g, private, 3)
    queries = sample_queries(split, "1p", 30, 3)
    m = make_encoder("gqe", split.test, dim=8, seed=1)
    report = evaluate_model(m, queries)
    pub = report.overall("public")
    if pub is not None:
        # random embeddings cannot beat chance by much on 60 vertices
        assert pub.mrr < 0.5
        assert pub.mrr > 0.0


def test_report_tsv_format(eval_setup):
    m, queries = eval_setup
    report = evaluate_model(m, queries)
    text = report.to_tsv()
    lines = text.splitlines()
    assert lines[0] == "type\tclass\tHR@1\tHR@3\tHR@10\tMRR\tcount"
    assert lines[-1].startswith("All\t")
    for line in lines[1:]:
        fields = line.split("\t")
        assert len(fields) == 7
        assert 0.0 <= float(fields[5]) <= 1.0


def test_report_tsv_lists_a_query_of_no_template_last():
    # read_benchmark types such a query OTHER; its ranks count in the "All"
    # rows, so they need a row of their own
    report = EvalReport(ranks={("other", "public"): [2], ("1p", "public"): [1],
                               ("other", "private"): [1, 4], ("2p", "private"): [3]})
    rows = [line.split("\t") for line in report.to_tsv().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["1p", "public"], [OTHER, "public"], ["2p", "private"],
                                         [OTHER, "private"], ["All", "public"], ["All", "private"]]
    for cls in ("public", "private"):
        counts = [int(row[6]) for row in rows if row[1] == cls]
        assert sum(counts[:-1]) == counts[-1]


def test_report_tsv_baseline_column(eval_setup, tmp_path):
    m, queries = eval_setup
    path = tmp_path / "report.tsv"
    path.write_text(evaluate_model(m, queries).to_tsv())
    assert main(["report", "--eval-report", str(path), "--baseline", str(path),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "report-merged.tsv").read_text().splitlines()
    assert lines[0].endswith("\tMRR_vs_baseline")
    # a report compared with itself retains 100% of baseline MRR everywhere,
    # its pooled "All" rows included
    assert [line.rsplit("\t", 1)[0] for line in lines] == path.read_text().splitlines()
    for line in lines[1:]:
        assert line.endswith("\t100.0%")


def test_private_floor_all_misses():
    report = EvalReport()
    report.ranks[("1p", "private")] = [50, 60, 70]
    m = report.overall("private")
    assert m.hr10 == 0.0 and m.mrr < 0.05


# -- noise calibration ---------------------------------------------------------------


def test_noisy_evaluation_deterministic(eval_setup):
    m, queries = eval_setup
    a = evaluate_model(m, queries, NoiseConfig(sigma=0.7, seed=5))
    b = evaluate_model(m, queries, NoiseConfig(sigma=0.7, seed=5))
    assert a.ranks == b.ranks


def test_calibrate_noise_hits_target():
    # anchor queries whose target is the anchored entity rank it first by
    # construction (distance zero), so the clean public MRR is exactly 1 and
    # noise degrades it smoothly
    from .conftest import random_graph
    from privkg.queries import Anchor
    g = random_graph(13, n_vertices=60, n_triples=180)
    m = make_encoder("gqe", g, dim=16, seed=4)
    queries = [_bench(Anchor(v), "1p", public={v}) for v in range(40)]
    clean = evaluate_model(m, queries).overall("public")
    assert clean.mrr == 1.0
    target = 0.6
    sigma, rep = calibrate_noise_sigma(m, queries, target, seed=2)
    got = rep.overall("public").mrr
    assert sigma > 0
    # bisection stops within tolerance or returns the closest probe
    assert abs(got - target) <= 0.25 * target


def _sort_rank(scores, target, filt):
    """Position of the target in the unfiltered vertices sorted by score, ties first."""
    pool = [v for v in range(len(scores)) if v not in filt]
    pool.sort(key=lambda v: (-scores[v], v == target))
    return pool.index(target) + 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=40), st.data())
def test_rank_matches_sort_property(values, data):
    scores = np.array(values, dtype=np.float64) / 2  # few distinct values: many ties
    target = data.draw(st.integers(0, len(values) - 1))
    filt = data.draw(st.frozensets(st.integers(0, len(values) - 1))) - {target}
    assert rank(scores, target, filt) == _sort_rank(scores, target, filt)
    assert rank(scores, target, list(filt) * 2) == _sort_rank(scores, target, filt)
