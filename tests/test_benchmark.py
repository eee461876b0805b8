import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from privkg import benchmark
from privkg.benchmark import (BenchmarkError, BenchmarkQuery, _names, _sample_shape, format_stats,
                              query_line, read_benchmark, sample_private_edges, sample_queries,
                              split_edges, training_subset, validation_subset, write_benchmark)
from privkg.graph import FORWARD, EdgeSet, GraphError, load_triples, write_triples
from privkg.queries import (OTHER, QUERY_TYPES, Anchor, Projection, QueryError, classify_type,
                            shape, to_dnf)
from privkg.symbolic import TaggedAnswerSet, evaluate, evaluate_tagged
from privkg.synthetic import make_synthetic_kg
from . import _sampler_reference
from ._named_triples import from_named_triples
from .conftest import random_graph


@pytest.fixture(scope="module")
def kg():
    return make_synthetic_kg(n_entities=80, n_communities=4, n_relations=4,
                             n_attributes=2, seed=5)


@pytest.fixture(scope="module")
def split(kg):
    return split_edges(kg, sample_private_edges(kg, 20, seed=5), seed=5)


def test_sample_private_edges_seeded(kg):
    a = sample_private_edges(kg, 15, seed=1)
    b = sample_private_edges(kg, 15, seed=1)
    c = sample_private_edges(kg, 15, seed=2)
    assert isinstance(a, EdgeSet) and a.space == kg.triples.space
    assert a == b
    assert a != c
    assert len(a) == 15
    assert all(kg.relations[t.rel].kind == "attr" for t in a)


def test_sample_private_edges_empty_and_too_many(kg):
    assert len(sample_private_edges(kg, 0, seed=1)) == 0
    with pytest.raises(BenchmarkError):
        sample_private_edges(kg, len(kg.attribute_triples()) + 1, seed=1)


def test_sample_private_edges_rejects_a_negative_count(kg):
    with pytest.raises(BenchmarkError, match="-1"):
        sample_private_edges(kg, -1, seed=1)


def test_split_ratio_and_conservation():
    g = random_graph(9, n_vertices=40, n_triples=110, n_attributes=3)
    private = sample_private_edges(g, 10, seed=9)
    split = split_edges(g, private, seed=9)
    n = len(g.triples) - 10  # 100 non-private edges
    n_train = len(split.train.triples)
    n_valid = len(split.valid.triples) - n_train
    n_test = len(split.test.triples) - n_train - n_valid - 10
    assert abs(n_train - 0.8 * n) <= 1
    assert abs(n_valid - 0.1 * n) <= 1
    assert n_train + n_valid + n_test + len(private) == len(g.triples)


@pytest.mark.parametrize("seed", range(5))
def test_split_cumulative_containment(seed):
    g = random_graph(seed, n_vertices=35, n_triples=100, n_attributes=3)
    split = split_edges(g, sample_private_edges(g, 8, seed=seed), seed=seed)
    assert split.train.triples <= split.valid.triples <= split.test.triples
    assert split.test.private <= split.test.triples
    assert not split.test.private & split.train.triples
    assert not split.test.private & split.valid.triples
    # the split stays hashable (its graphs hash by identity); an edge set is not
    assert hash(split) == hash(split)
    with pytest.raises(TypeError, match="unhashable"):
        hash(split.test.private)


def test_split_rejects_non_attribute_private():
    g = random_graph(2, n_vertices=30, n_triples=80)
    rel_triples = sorted(g.triples - g.attribute_triples())
    with pytest.raises(BenchmarkError):
        split_edges(g, frozenset(rel_triples[:1]), seed=0)


def test_sample_queries_empty(split):
    assert sample_queries(split, "1p", 0, seed=0) == []


def test_sample_queries_rejects_a_negative_n(split):
    with pytest.raises(BenchmarkError, match="-1"):
        sample_queries(split, "1p", -1, seed=0)


def test_sample_queries_unknown_type(split):
    with pytest.raises(BenchmarkError):
        sample_queries(split, "9p", 1, seed=0)


def test_sample_queries_unknown_mode_is_refused_before_any_draw(split, monkeypatch):
    def no_draw(*args):
        raise AssertionError("sampled a query before the mode was checked")

    monkeypatch.setattr(benchmark, "_sample_template", no_draw)
    for n in (0, 2):
        with pytest.raises(BenchmarkError, match="mode must be relaxed or strict, got 'bogus'"):
            sample_queries(split, "1p", n, seed=0, mode="bogus")


@pytest.mark.parametrize("qtype", QUERY_TYPES)
def test_sampled_queries_revalidate(split, qtype):
    queries = sample_queries(split, qtype, 20, seed=3)
    assert len(queries) == 20
    for bq in queries:
        assert classify_type(bq.query) == qtype
        # nonempty on the source (test) graph
        full = bq.test_answers.public_members | bq.test_answers.private_members
        assert full
        assert bq.train_answers <= bq.valid_answers <= full
        assert evaluate(split.train, bq.query) == bq.train_answers
        assert evaluate(split.valid, bq.query) == bq.valid_answers
        tagged = evaluate_tagged(split.test, bq.query)
        assert tagged == bq.test_answers


@pytest.mark.parametrize("seed", range(3))
def test_sampled_queries_have_single_shape_dnfs(split, seed):
    # encoders batch a query's disjuncts by shape: every template is one batch
    for qtype in QUERY_TYPES:
        for bq in sample_queries(split, qtype, 20, seed=seed):
            dnf = to_dnf(bq.query)
            assert len({shape(d) for d in dnf}) == 1
            assert len(dnf) == (2 if qtype in ("2u", "up") else 1)


def test_sample_queries_deterministic(split):
    a = sample_queries(split, "2i", 10, seed=4)
    b = sample_queries(split, "2i", 10, seed=4)
    assert [bq.query for bq in a] == [bq.query for bq in b]


# (graph, private edges, seed of both samples): this module's ``split``, the
# acceptance-sweep graph, then sparse graphs where walks reach vertices without
# enough edges and a template's retry budget can run out
SAMPLER_SPLITS = [((80, 4, 4, 2, 4, 1, 5), 20, 5), ((230, 6, 6, 3, 4, 1, 7), 100, 1),
                  ((30, 6, 2, 1, 2, 1, 4), 8, 1), ((20, 4, 1, 1, 1, 1, 9), 5, 1)]
SAMPLER_SPLIT_IDS = ["%d_entities" % args[0] for args, _, _ in SAMPLER_SPLITS]


def _sample_or_error(split, qtype, n, seed):
    try:
        return sample_queries(split, qtype, n, seed)
    except BenchmarkError as exc:
        return str(exc)


@pytest.mark.parametrize("args, n_private, split_seed", SAMPLER_SPLITS, ids=SAMPLER_SPLIT_IDS)
def test_sampler_draws_what_the_per_family_reference_draws(args, n_private, split_seed,
                                                           monkeypatch):
    g = make_synthetic_kg(*args)
    split = split_edges(g, sample_private_edges(g, n_private, split_seed), split_seed)
    vertices = split.test.incident_vertices()
    sparse, too_many = args[0] <= 30, 2 * len(split.test.triples) + 1
    failed = 0
    for qtype in QUERY_TYPES:
        for seed in range(3):
            # attempt by attempt: the same query or None, and the same generator state
            new, old = random.Random(seed), random.Random(seed)
            for _ in range(60):
                q = benchmark._sample_template(split.test, qtype, new, vertices)
                assert q == _sampler_reference._sample_template(split.test, qtype, old, vertices)
                assert new.getstate() == old.getstate()
                failed += q is None
            # whole samples; on a sparse graph also more queries than it holds
            # 1p queries (at most two per edge), so at least 1p's retry budget runs out
            for n in (15, too_many) if sparse else (40,):
                shipped = _sample_or_error(split, qtype, n, seed)
                with monkeypatch.context() as m:
                    m.setattr(benchmark, "_sample_template", _sampler_reference._sample_template)
                    assert _sample_or_error(split, qtype, n, seed) == shipped
                if qtype == "1p" and n == too_many:
                    assert "exhausted retry budget" in shipped
    assert failed or not sparse  # the sparse graphs reach the walks' dead ends


def _shapes(depth):
    """Query shapes of at most ``depth`` operator levels; i and u take 2 or 3 children."""
    if depth == 0:
        return st.just("a")
    sub = _shapes(depth - 1)
    return st.one_of(st.just("a"), st.tuples(st.just("p"), sub),
                     st.builds(lambda op, kids: (op, *kids), st.sampled_from("iu"),
                               st.lists(sub, min_size=2, max_size=3)))


WALK_GRAPH = make_synthetic_kg(30, 6, 2, 1, 2, 1, 4)


def _one_hop_children_distinct(q) -> bool:
    if isinstance(q, Anchor):
        return True
    if isinstance(q, Projection):
        return _one_hop_children_distinct(q.child)
    one_hop = [c for c in q.children if shape(c) == ("p", "a")]
    return len(set(one_hop)) == len(one_hop) and all(map(_one_hop_children_distinct, q.children))


@settings(max_examples=300, deadline=None)
@given(_shapes(3), st.integers(0, 2 ** 32), st.data())
def test_walk_answers_its_vertex_with_any_shape(want, seed, data):
    v = data.draw(st.sampled_from(WALK_GRAPH.incident_vertices()))
    q = _sample_shape(WALK_GRAPH, want, v, random.Random(seed))
    if q is not None:
        assert shape(q) == want
        assert v in evaluate(WALK_GRAPH, q)
        assert _one_hop_children_distinct(q)


def test_validation_subset_filter(split):
    queries = sample_queries(split, "1p", 30, seed=6)
    for bq in validation_subset(queries):
        assert bq.valid_answers - bq.train_answers
    for bq in training_subset(queries):
        assert bq.train_answers


def _stats_table(queries) -> dict:
    """The rows of ``format_stats(queries)`` by label, each a count per column."""
    header, *rows = [line.split("\t") for line in format_stats(queries).splitlines()]
    assert header == ["Answers"] + list(QUERY_TYPES) + ["All"]
    return {row[0]: dict(zip(header[1:], map(int, row[1:]))) for row in rows}


def test_stats_recount(split):
    queries = []
    for qtype in ("1p", "2i"):
        queries.extend(sample_queries(split, qtype, 10, seed=7))
    table = _stats_table(queries)
    assert list(table) == ["Queries", "Public", "Private"]
    assert table["Queries"]["1p"] == 10 and table["Queries"]["All"] == 20
    assert table["Public"]["2i"] == sum(len(bq.test_answers.public_members)
                                        for bq in queries if bq.qtype == "2i")
    assert table["Private"]["1p"] == sum(len(bq.test_answers.private_members)
                                         for bq in queries if bq.qtype == "1p")


def test_stats_empty():
    assert all(list(row.values()) == [0] * 9 for row in _stats_table([]).values())


def test_stats_count_a_query_of_no_template_in_a_last_column(toy_graph, tmp_path):
    # read_benchmark types a 3p query OTHER; the "All" column counts it, so it
    # needs a column of its own
    path = tmp_path / "queries.tsv"
    path.write_text("(p LiveIn (a Hinton))\t\t\t\tToronto\n"
                    "(p LiveIn (rp WinAward (p WinAward (a Hinton))))\t\t\tNYC,Montreal\tToronto\n",
                    encoding="utf-8")
    queries = read_benchmark(str(path), toy_graph)
    assert [bq.qtype for bq in queries] == ["1p", OTHER]
    header, *rows = [line.split("\t") for line in format_stats(queries).splitlines()]
    zeros = ["0"] * (len(QUERY_TYPES) - 1)
    assert header == ["Answers", *QUERY_TYPES, OTHER, "All"]
    assert rows == [["Queries", "1", *zeros, "1", "2"], ["Public", "0", *zeros, "2", "2"],
                    ["Private", "1", *zeros, "1", "2"]]


def test_answer_names_refuse_what_the_reader_would_split():
    g = from_named_triples([("a,c", "LiveIn", "B"), ("", "LiveIn", "B"), ("New York", "LiveIn", "B")],
                           {"LiveIn": "attr"})
    assert _names(g, {g.vertex_id("New York"), g.vertex_id("B")}) == "B,New York"
    for name in ("a,c", ""):
        with pytest.raises(BenchmarkError, match=repr(name)):
            _names(g, {g.vertex_id(name), g.vertex_id("B")})


def test_benchmark_file_roundtrip(tmp_path, split, kg):
    queries = sample_queries(split, "pi", 8, seed=8)
    path = tmp_path / "queries-pi.tsv"
    write_benchmark(path, queries, kg)
    back = read_benchmark(path, kg)
    assert back == queries


def test_benchmark_files_byte_identical(tmp_path, split, kg):
    paths = []
    for i in (1, 2):
        queries = sample_queries(split, "up", 10, seed=11)
        path = tmp_path / ("b%d.tsv" % i)
        write_benchmark(path, queries, kg)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_query_line_format(tmp_path, split, kg):
    bq = sample_queries(split, "1p", 1, seed=12)[0]
    line = query_line(bq, kg)
    assert len(line.split("\t")) == 5
    write_benchmark(tmp_path / "q.tsv", [bq], kg)
    assert (tmp_path / "q.tsv").read_text(encoding="utf-8") == line + "\n"
    assert read_benchmark(tmp_path / "q.tsv", kg) == [bq]


def test_benchmark_files_read_like_graph_files(tmp_path, split, kg):
    queries = sample_queries(split, "2i", 3, seed=13)
    lines = [query_line(bq, kg) for bq in queries]
    text = "# a comment\r\n\r\n" + "".join(line + "\r\n" for line in lines)
    (tmp_path / "q.tsv").write_bytes(text.encode())
    assert read_benchmark(tmp_path / "q.tsv", kg) == queries
    # a whitespace-only line is a malformed data line, with its line number
    (tmp_path / "q.tsv").write_text(lines[0] + "\n \n", encoding="utf-8")
    with pytest.raises(GraphError, match="benchmark: malformed line 2"):
        read_benchmark(tmp_path / "q.tsv", kg)


@pytest.mark.parametrize("field", range(5))
def test_read_benchmark_names_file_and_line_of_an_unknown_name(tmp_path, split, kg, field):
    lines = [query_line(bq, kg) for bq in sample_queries(split, "1p", 2, seed=12)]
    fields = lines[1].split("\t")
    # an unknown answer in an answer field; an unknown relation in the query
    fields[field] = "(p NoSuchRelation (a zz))" if field == 0 else "zz"
    path = tmp_path / "q.tsv"
    path.write_text("# header\n" + lines[0] + "\n" + "\t".join(fields) + "\n", encoding="utf-8")
    with pytest.raises(BenchmarkError, match=r"q\.tsv line 3: unknown (relation 'NoSuchRelation'|"
                                             r"vertex 'zz')"):
        read_benchmark(path, kg)


def test_malformed_benchmark_line_names_role_file_and_line(tmp_path, kg):
    path = tmp_path / "queries-1p.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    with pytest.raises(GraphError) as err:
        read_benchmark(path, kg)
    assert str(err.value).startswith("benchmark: malformed line 1 of %s (expected 5 " % path)


# names from an alphabet of every character a reader treats specially
NAMES = st.text(alphabet="ab\t\n\r#, (", max_size=3)


def _breaks(name) -> bool:
    return any(c in name for c in "\t\n\r")


@settings(max_examples=300, deadline=None)
@given(st.lists(NAMES, min_size=1, max_size=5, unique=True), NAMES, st.data())
def test_names_round_trip_or_are_refused_at_write(tmp_path_factory, names, rel, data):
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                               min_size=1, max_size=6))
    named = {(h, rel, t) for h, t in pairs}
    g = from_named_triples(sorted(named), {rel: "attr"})
    d = tmp_path_factory.mktemp("names")
    # a graph file: refused exactly when a name breaks a field or a head starts a comment
    refused = any(_breaks(h) or _breaks(r) or _breaks(t) or h[:1] == "#" for h, r, t in named)
    try:
        write_triples(d / "g.tsv", g, g.triples)
    except GraphError as exc:
        assert refused and not (d / "g.tsv").exists()
        assert any(repr(name) in str(exc) for name in (rel, *names))
    else:
        assert not refused
        back = load_triples(d / "g.tsv", {rel: "attr"})
        assert {tuple(back.vertex_name(v) for v in (h, t)) for h, _, t in back.triples} == \
            {(h, t) for h, _, t in named}
    # a benchmark file: the query is refused by ``serialize``, an answer by ``_names``
    anchor = data.draw(st.sampled_from(sorted(named)))[0]
    members = [frozenset(data.draw(st.sets(st.sampled_from(range(g.num_vertices())))))
               for _ in range(4)]
    bq = BenchmarkQuery(Projection(0, FORWARD, Anchor(g.vertex_id(anchor))), "1p", members[0],
                        members[1], TaggedAnswerSet(members[2], members[3]))
    answers = {g.vertex_name(v) for m in members for v in m}
    refused = any(not n or _breaks(n) or " " in n or "(" in n for n in (anchor, rel)) or \
        any(not n or _breaks(n) or "," in n for n in answers)
    try:
        write_benchmark(d / "q.tsv", [bq], g)
    except (QueryError, BenchmarkError):
        assert refused and not (d / "q.tsv").exists()
    else:
        assert not refused
        assert read_benchmark(d / "q.tsv", g) == [bq]


# sha256 pins of generated data: a change to the generator, the split or the
# sampler that moves any random draw changes them


def _triples_text(triples) -> str:
    return "".join("%d,%d,%d;" % t for t in sorted(triples))


@pytest.mark.parametrize("args, digest", [
    ((80, 4, 4, 2, 4, 1, 5), "deb5ae0209821953f5f7151d13ab374788a47c2808ac6a36e4c553d310474edd"),
    ((230, 6, 6, 3, 4, 1, 7), "e9a7672f907f3d02d7b4621314d9b6b00cab27e5c457af8cd4324be33912801c"),
])
def test_synthetic_graph_digest(args, digest):
    g = make_synthetic_kg(*args)
    text = "\n".join(g.vertex_names) + "".join("|%s:%s" % (r.name, r.kind) for r in g.relations)
    assert hashlib.sha256((text + _triples_text(g.triples)).encode()).hexdigest() == digest


def test_split_and_sample_digest(split):
    parts = [_triples_text(kg.triples) + "|" + _triples_text(kg.private) + "#"
             for kg in (split.train, split.valid, split.test)]
    for qtype in QUERY_TYPES:
        parts.extend(query_line(bq, split.test) + "\n"
                     for bq in sample_queries(split, qtype, 5, seed=5))
    assert hashlib.sha256("".join(parts).encode()).hexdigest() == \
        "694f6834788429a7ddd76c152389d8744d997b1a2fa63fa8d5626ffe090a833e"
