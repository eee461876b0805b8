import gc
import operator
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privkg.benchmark import sample_private_edges, split_edges
from privkg.graph import (ATTR, REL, EdgeSet, GraphError, KnowledgeGraph, Relation, Triple,
                          load_schema, load_triples, load_triple_set, vocabulary_digests,
                          write_triples)
from privkg.queries import Anchor, Projection, serialize
from privkg.synthetic import make_synthetic_kg
from ._named_triples import from_named_triples
from .conftest import random_graph


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_triples_counts(tmp_path):
    p = write(tmp_path / "g.tsv", "A\tr\tB\nB\tr\tC\nA\ta\tX\n")
    g = load_triples(p, {"r": REL, "a": ATTR})
    assert g.num_vertices() == 4
    assert len(g.relations) == 2
    assert len(g.triples) == 3
    assert not g.private


def test_load_empty_file(tmp_path):
    g = load_triples(write(tmp_path / "g.tsv", ""), {"r": REL})
    assert g.num_vertices() == 0
    assert len(g.triples) == 0


def test_duplicate_lines_deduplicated(tmp_path):
    lines = ["A\tr\tB", "A\tr\tB", "B\tr\tC"]
    g = load_triples(write(tmp_path / "g.tsv", "\n".join(lines) + "\n"), {"r": REL})
    # set-semantics oracle over the parsed multiset
    multiset = Counter(tuple(l.split("\t")) for l in lines)
    assert len(g.triples) == len(set(multiset))
    assert len(g.triples) == 2


def test_malformed_line_reports_lineno(tmp_path):
    p = write(tmp_path / "g.tsv", "A\tr\tB\nbroken line\n")
    with pytest.raises(GraphError, match="line 2"):
        load_triples(p, {"r": REL})


def test_relation_missing_from_schema(tmp_path):
    p = write(tmp_path / "g.tsv", "A\tmystery\tB\n")
    with pytest.raises(GraphError, match="mystery"):
        load_triples(p, {"r": REL})


def test_deterministic_id_assignment(tmp_path):
    text = "B\tr\tA\nC\ta\tB\nA\tr\tC\n"
    p1 = write(tmp_path / "g1.tsv", text)
    p2 = write(tmp_path / "g2.tsv", text)
    schema = {"r": REL, "a": ATTR}
    g1, g2 = load_triples(p1, schema), load_triples(p2, schema)
    assert g1.vertex_names == g2.vertex_names
    assert g1.relations == g2.relations
    assert g1.triples == g2.triples


def test_schema_file_roundtrip(tmp_path):
    p = write(tmp_path / "s.tsv", "# comment\nr\trel\na\tattr\n")
    assert load_schema(p) == {"r": REL, "a": ATTR}
    with pytest.raises(GraphError, match="kind"):
        load_schema(write(tmp_path / "bad.tsv", "r\tblah\n"))
    with pytest.raises(GraphError, match="schema line 4: kind"):
        load_schema(write(tmp_path / "bad.tsv", "r\trel\n# comment\n\na\tatr\n"))


def test_schema_refuses_a_relation_listed_twice(tmp_path):
    # the last row used to win, deciding silently which edges may be private
    p = write(tmp_path / "s.tsv", "LiveIn\trel\n# comment\nr\trel\nLiveIn\tattr\n")
    with pytest.raises(GraphError, match="schema lines 1 and 4: relation 'LiveIn' listed twice"):
        load_schema(p)


def test_mark_private_fig2(toy_graph):
    t = Triple(toy_graph.vertex_id("Hinton"), toy_graph.relation_id("LiveIn"),
               toy_graph.vertex_id("Toronto"))
    assert frozenset(toy_graph.private) == {t}


def test_mark_private_empty_is_identity(toy_graph):
    g2 = toy_graph.mark_private(())
    assert g2.triples == toy_graph.triples
    assert len(g2.private) == 0


def test_mark_private_rejects_entity_relation(toy_graph):
    t = Triple(toy_graph.vertex_id("LeCun"), toy_graph.relation_id("Collaborate"),
               toy_graph.vertex_id("Hinton"))
    with pytest.raises(GraphError, match="attribute"):
        toy_graph.mark_private({t})


def test_mark_private_rejects_absent_triple(toy_graph):
    t = Triple(toy_graph.vertex_id("LeCun"), toy_graph.relation_id("LiveIn"),
               toy_graph.vertex_id("Toronto"))
    with pytest.raises(GraphError, match="absent"):
        toy_graph.mark_private({t})


def test_public_view_identity_without_private():
    g = from_named_triples([("A", "r", "B")], {"r": REL})
    assert g.public_view() is g
    assert g.public_view().triples == g.triples


def test_public_view_drops_exactly_the_private_edge(toy_graph):
    pub = toy_graph.public_view()
    assert toy_graph.triples - pub.triples == toy_graph.private
    assert pub.vertex_names == toy_graph.vertex_names  # vertices may isolate
    assert pub is toy_graph.public_view() and pub.public_view() is pub  # built once
    # every derived graph shares its graph's vocabulary; none interns a name again
    for derived in (pub, toy_graph.mark_private(()), toy_graph.with_triples(toy_graph.triples)):
        assert derived._vid is toy_graph._vid and derived._rid is toy_graph._rid
        assert derived._is_attr is toy_graph._is_attr
        assert derived._lookups is not toy_graph._lookups  # but looks up its own edges


def test_public_view_count_on_random_graph():
    g = random_graph(7, n_vertices=50, n_triples=200, n_attributes=3)
    attrs = sorted(g.attribute_triples())
    marked = g.mark_private(random.Random(1).sample(attrs, 10))
    assert len(marked.public_view().triples) == len(g.triples) - 10


def test_neighbors_fig2(toy_graph):
    h = toy_graph.vertex_id("Hinton")
    live = toy_graph.relation_id("LiveIn")
    toronto = toy_graph.vertex_id("Toronto")
    assert toy_graph.neighbors(h, live, "forward") == {toronto}
    # the private edge Hinton -> Toronto is absent from the public view, both ways
    pub = toy_graph.public_view()
    assert pub.neighbors(h, live, "forward") == frozenset()
    assert pub.neighbors(toronto, live, "backward") == frozenset()
    assert toy_graph.neighbors(toronto, live, "backward") == {h}


def test_an_id_outside_its_table_has_no_name(toy_graph):
    # a negative id must not wrap around to the last name, or serialize writes a
    # query of ids that no table holds
    nv, nr = toy_graph.num_vertices(), len(toy_graph.relations)
    for vid in (-1, -nv, nv):
        with pytest.raises(GraphError, match="unknown vertex id %d" % vid):
            toy_graph.vertex_name(vid)
        with pytest.raises(GraphError, match="unknown vertex id %d" % vid):
            serialize(Anchor(vid), toy_graph)
    for rid in (-1, -nr, nr):
        with pytest.raises(GraphError, match="unknown relation id %d" % rid):
            toy_graph.relation_name(rid)
        with pytest.raises(GraphError, match="unknown relation id %d" % rid):
            serialize(Projection(rid, "forward", Anchor(0)), toy_graph)
    assert toy_graph.vertex_name(nv - 1) == toy_graph.vertex_names[-1]
    assert toy_graph.relation_name(nr - 1) == toy_graph.relations[-1].name


def test_neighbors_no_incident_triples(toy_graph):
    turing = toy_graph.vertex_id("Turing")
    live = toy_graph.relation_id("LiveIn")
    assert toy_graph.neighbors(turing, live, "forward") == frozenset()
    # a graph without relations has no index keys, and no incident vertex
    assert KnowledgeGraph(["v0"], [], ()).incident_vertices() == []


def test_neighbors_match_linear_scan():
    g = random_graph(11, n_vertices=60, n_triples=180)
    triples = sorted(g.triples)
    for v in range(g.num_vertices()):
        for r in range(len(g.relations)):
            fwd = frozenset(t.tail for t in triples if t.head == v and t.rel == r)
            bwd = frozenset(t.head for t in triples if t.tail == v and t.rel == r)
            assert g.neighbors(v, r, "forward") == fwd
            assert g.neighbors(v, r, "backward") == bwd


def test_neighbors_public_equals_full_on_public_view():
    # public lookups are full lookups on the public view: a scan of triples - private
    g = random_graph(13, n_vertices=50, n_triples=160, n_attributes=3)
    attrs = sorted(g.attribute_triples())
    g = g.mark_private(random.Random(3).sample(attrs, min(12, len(attrs))))
    pub = g.public_view()
    visible = sorted(g.triples - g.private)
    assert len(visible) == len(g.triples) - 12
    for v in range(g.num_vertices()):
        for r in range(len(g.relations)):
            fwd = frozenset(t.tail for t in visible if t.head == v and t.rel == r)
            bwd = frozenset(t.head for t in visible if t.tail == v and t.rel == r)
            assert pub.neighbors(v, r, "forward") == fwd
            assert pub.neighbors(v, r, "backward") == bwd


def test_index_round_trip():
    g = random_graph(17, n_vertices=40, n_triples=150)
    vertices, rels = range(g.num_vertices()), range(len(g.relations))
    from_fwd = {Triple(h, r, t) for h in vertices for r in rels
                for t in g.neighbors(h, r, "forward")}
    from_bwd = {Triple(h, r, t) for t in vertices for r in rels
                for h in g.neighbors(t, r, "backward")}
    assert g.edge_set(from_fwd) == g.triples
    assert g.edge_set(from_bwd) == g.triples


@st.composite
def graphs_with_private(draw):
    n_vertices = draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from([REL, ATTR]), min_size=1, max_size=4))
    triples = draw(st.frozensets(st.builds(Triple, st.integers(0, n_vertices - 1),
                                           st.integers(0, len(kinds) - 1),
                                           st.integers(0, n_vertices - 1)), max_size=30))
    g = KnowledgeGraph(["v%d" % i for i in range(n_vertices)],
                       [Relation("r%d" % i, kind) for i, kind in enumerate(kinds)], triples)
    attrs = sorted(g.attribute_triples())
    return g.mark_private(draw(st.sets(st.sampled_from(attrs))) if attrs else ())


@settings(max_examples=150, deadline=None)
@given(graphs_with_private(), st.booleans())
def test_neighbors_match_linear_scan_property(g, public_first):
    pairs = [(g, g.triples), (g.public_view(), g.triples - g.private)]
    for view, visible in pairs[::-1] if public_first else pairs:
        for v in range(g.num_vertices()):
            for r in range(len(g.relations)):
                fwd = frozenset(t.tail for t in visible if t.head == v and t.rel == r)
                bwd = frozenset(t.head for t in visible if t.tail == v and t.rel == r)
                assert view.neighbors(v, r, "forward") == fwd
                assert view.neighbors(v, r, "backward") == bwd
    for view in (g, g.public_view()):
        assert view.incident_vertices() == sorted({v for t in view.triples for v in t[::2]})
    assert g.public_view().triples == g.triples - g.private


@pytest.mark.parametrize("triples, private, match", [
    ([Triple(0, 0, 2)], (), "endpoint outside vertex table"),
    ([Triple(-1, 0, 1)], (), "endpoint outside vertex table"),
    ([Triple(0, 2, 1)], (), "relation outside relation table"),
    ([Triple(0, 1, 1)], [Triple(1, 1, 0)], "private triple not in graph"),
    ([Triple(0, 0, 1)], [Triple(0, 0, 1)], "non-attribute"),
])
def test_constructor_rejects_inconsistent_tables(triples, private, match):
    relations = [Relation("r", REL), Relation("a", ATTR)]
    with pytest.raises(GraphError, match=match):
        KnowledgeGraph(["x", "y"], relations, triples, private)


def test_constructor_refuses_an_unknown_relation_kind():
    # an unknown kind used to count as rel: no attribute triple, nothing private
    with pytest.raises(GraphError, match="relation 'LiveIn': kind must be rel or attr, got 'Attr'"):
        KnowledgeGraph(["x", "y"], [Relation("LiveIn", "Attr")], [(0, 0, 1)])


def test_neighbors_unknown_ids(toy_graph):
    with pytest.raises(GraphError):
        toy_graph.neighbors(999, 0)
    with pytest.raises(GraphError):
        toy_graph.neighbors(0, 999)


def test_triple_file_roundtrip(tmp_path, toy_graph):
    path = tmp_path / "private.tsv"
    write_triples(path, toy_graph, toy_graph.private)
    assert load_triple_set(path, toy_graph) == toy_graph.private


@pytest.mark.parametrize("triples, name", [
    ([("#x", "LiveIn", "B"), ("y", "LiveIn", "B")], "#x"),  # read back as a comment
    ([("a\tb", "LiveIn", "B")], "a\tb"),
    ([("y", "LiveIn", "B\r")], "B\r"),
    ([("y", "Live\nIn", "B")], "Live\nIn"),
])
def test_write_triples_refuses_a_name_that_would_not_read_back(tmp_path, triples, name):
    schema = {"LiveIn": ATTR, **{r: ATTR for _, r, _ in triples}}
    g = from_named_triples(triples, schema)
    with pytest.raises(GraphError, match=re.escape(repr(name))):
        write_triples(tmp_path / "g.tsv", g, g.triples)
    assert not (tmp_path / "g.tsv").exists()
    # names that are not written, and a '#' that does not start a line, are fine
    write_triples(tmp_path / "g.tsv", g, ())
    ok = from_named_triples([("x#", "LiveIn", "#y")] + triples, schema)
    write_triples(tmp_path / "g.tsv", ok, [(0, 0, 1)])
    assert (tmp_path / "g.tsv").read_text(encoding="utf-8") == "x#\tLiveIn\t#y\n"


def test_malformed_line_number_counts_comments_and_blank_lines(tmp_path):
    p = write(tmp_path / "g.tsv", "# header\n\nA\tr\tB\nA\tr\tB\tC\n")
    with pytest.raises(GraphError, match="line 4"):
        load_triples(p, {"r": REL})


def test_first_missing_relation_is_reported(tmp_path):
    p = write(tmp_path / "g.tsv", "A\tr\tB\nA\tzeta\tB\nA\talpha\tB\n")
    with pytest.raises(GraphError, match="'zeta'"):
        load_triples(p, {"r": REL})


# -- EdgeSet against a frozenset-of-tuples reference ---------------------------


@st.composite
def graphs_with_rows(draw):
    """A graph built from a row list that may repeat rows, plus a second row
    list over the same tables; either may be empty, and so may the graph."""
    n_vertices = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from([REL, ATTR]), min_size=1, max_size=3))
    row = st.tuples(st.integers(0, n_vertices - 1), st.integers(0, len(kinds) - 1),
                    st.integers(0, n_vertices - 1))
    rows, other = ([], []) if n_vertices == 0 else \
        (draw(st.lists(row, max_size=25)), draw(st.lists(row, max_size=25)))
    rows += draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
    g = KnowledgeGraph(["n%d é" % i for i in range(n_vertices)],
                       [Relation("r%d" % i, kind) for i, kind in enumerate(kinds)], rows)
    return g, rows, other


@settings(max_examples=200, deadline=None)
@given(graphs_with_rows())
def test_edge_set_matches_frozenset_reference(case):
    g, rows, other_rows = case
    a, ref_a = g.triples, frozenset(rows)
    b, ref_b = g.edge_set(other_rows), frozenset(other_rows)
    assert len(a) == len(ref_a)
    assert list(a) == sorted(ref_a) and all(type(t) is Triple for t in a)
    for x, ref_x in ((a, ref_a), (b, ref_b)):
        for y, ref_y in ((a, ref_a), (b, ref_b)):
            assert isinstance(x & y, EdgeSet) and frozenset(x & y) == ref_x & ref_y
            assert isinstance(x - y, EdgeSet) and frozenset(x - y) == ref_x - ref_y
            assert (x <= y) == (ref_x <= ref_y)
            assert (x == y) == (ref_x == ref_y)
    assert frozenset(g.attribute_triples()) == {t for t in ref_a
                                                if g.relations[t[1]].kind == ATTR}


def vocabulary(g):
    return "vocabulary %(vertex_digest).12s/%(relation_digest).12s" % vocabulary_digests(
        g.relations, g.vertex_names)


def test_edge_set_operators_take_only_an_edge_set_of_the_same_key_space(toy_graph):
    a = toy_graph.triples
    other_graph = from_named_triples([("A", "r", "B")], {"r": REL})
    for other in (frozenset(a), set(a), list(a), None, other_graph.triples):
        theirs = vocabulary(other_graph) if other is other_graph.triples else type(other).__name__
        for op in (operator.and_, operator.sub, operator.le, operator.eq, operator.ne):
            with pytest.raises(TypeError, match=re.escape("EdgeSet of %s against %s: "
                                                          % (vocabulary(toy_graph), theirs))):
                op(a, other)
            with pytest.raises(TypeError):  # the reversed operand order refuses too
                op(other, a)
    with pytest.raises(TypeError):  # no union
        a | a
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_edge_set_and_mark_private_refuse_another_graphs_edge_set(tmp_path, toy_graph):
    other = from_named_triples([("A", "LiveIn", "B")], {"LiveIn": ATTR})
    other = other.mark_private(other.triples)
    message = re.escape("edge set of %s is not of this graph's %s"
                        % (vocabulary(other), vocabulary(toy_graph)))
    for refused in (lambda: toy_graph.edge_set(other.triples),
                    lambda: toy_graph.mark_private(other.private),
                    lambda: toy_graph.with_triples(other.triples),
                    lambda: write_triples(tmp_path / "t.tsv", toy_graph, other.triples)):
        with pytest.raises(GraphError, match=message):
            refused()
    assert not (tmp_path / "t.tsv").exists()
    # the same triples as rows are ids in this graph's tables, not a re-keying
    assert toy_graph.edge_set(other.triples.rows()).rows().tolist() == [[0, 0, 1]]


def test_graphs_of_equal_sizes_keep_their_edge_sets_apart(tmp_path):
    # both key spaces are one relation and two vertices; only the names differ
    a = from_named_triples([("x", "LiveIn", "y")], {"LiveIn": ATTR})
    b = from_named_triples([("p", "LiveIn", "q")], {"LiveIn": ATTR})
    for op in (operator.and_, operator.sub, operator.le, operator.eq):
        with pytest.raises(TypeError, match=re.escape("EdgeSet of %s against %s: "
                                                      % (vocabulary(a), vocabulary(b)))):
            op(a.triples, b.triples)
    for refused in (lambda: a.edge_set(b.triples), lambda: a.mark_private(b.triples),
                    lambda: a.with_triples(b.triples),
                    lambda: write_triples(tmp_path / "t.tsv", a, b.triples)):
        with pytest.raises(GraphError, match=re.escape("edge set of %s is not of this graph's %s"
                                                       % (vocabulary(b), vocabulary(a)))):
            refused()
    assert not (tmp_path / "t.tsv").exists()
    # equal tables are one vocabulary, whether shared by views or loaded twice
    again = from_named_triples([("x", "LiveIn", "y")], {"LiveIn": ATTR})
    assert a.triples == again.triples and a.mark_private(again.triples).private == a.triples


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=3), st.sampled_from([REL, ATTR])), max_size=6,
                unique_by=lambda r: r[0]))
def test_a_relation_id_is_its_position(pairs):
    g = KnowledgeGraph(["x"], [Relation(name, kind) for name, kind in pairs], ())
    for i, (name, kind) in enumerate(pairs):
        assert g.relation_id(g.relation_name(i)) == i and g.relation_id(name) == i
        assert g.relations[i] == Relation(name, kind)


@settings(max_examples=60, deadline=None)
@given(graphs_with_rows(), st.randoms(use_true_random=False))
def test_write_load_write_keeps_ids_and_bytes(tmp_path_factory, case, rnd):
    g, rows, _ = case
    d = tmp_path_factory.mktemp("roundtrip")
    write_triples(d / "a.tsv", g, g.triples)
    text = (d / "a.tsv").read_bytes()
    name_rows = ["%s\t%s\t%s" % (g.vertex_name(h), g.relation_name(r), g.vertex_name(t))
                 for h, r, t in sorted(set(rows))]
    assert text == "".join(line + "\n" for line in name_rows).encode()
    # resolved against the graph, the file gives back its ids and its bytes
    assert load_triple_set(d / "a.tsv", g) == g.triples
    write_triples(d / "c.tsv", g, load_triple_set(d / "a.tsv", g))
    assert (d / "c.tsv").read_bytes() == text
    # the same file with CRLF line ends, comments and blank lines loads alike
    lines = list(name_rows)
    for _ in range(rnd.randrange(4)):
        lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(["", "# note\tx", "#"]))
    (d / "b.tsv").write_bytes("".join(line + "\r\n" for line in lines).encode())
    schema = {r.name: r.kind for r in g.relations}
    g1, g2 = load_triples(d / "a.tsv", schema), load_triples(d / "b.tsv", schema)
    assert g2.vertex_names == g1.vertex_names and g2.relations == g1.relations
    assert g2.triples == g1.triples
    # ids follow first appearance, heads before tails
    assert list(g1.vertex_names) == list(dict.fromkeys(
        name for line in name_rows for name in line.split("\t")[::2]))
    assert sorted("%s\t%s\t%s" % (g1.vertex_name(h), g1.relation_name(r), g1.vertex_name(t))
                  for h, r, t in g1.triples) == sorted(name_rows)
    write_triples(d / "c.tsv", g1, g1.triples)
    write_triples(d / "d.tsv", g2, g2.triples)
    assert (d / "c.tsv").read_bytes() == (d / "d.tsv").read_bytes()


def test_write_triples_accepts_sets_arrays_and_iterables(tmp_path, toy_graph):
    rows = sorted(toy_graph.triples)
    outputs = []
    for triples in (toy_graph.triples, frozenset(rows), np.array(rows[::-1]),
                    iter(rows + rows)):
        write_triples(tmp_path / "t.tsv", toy_graph, triples)
        outputs.append((tmp_path / "t.tsv").read_bytes())
    assert outputs[1:] == outputs[:1] * 3


# -- garbage-collector footprint ------------------------------------------------


def _tracked_objects_added(n_entities, n_communities):
    gc.collect()
    before = len(gc.get_objects())
    g = make_synthetic_kg(n_entities, n_communities, 6, 3, 4, seed=7)
    split = split_edges(g, sample_private_edges(g, n_entities // 2, 1), 1)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert split.test.triples == g.triples
    return added, len(g.triples)


def test_graph_and_split_gc_footprint_does_not_grow_with_edges():
    # the edge store is arrays, which the collector does not track; one
    # Python object per edge would put every edge on every full collection
    _tracked_objects_added(400, 10)
    small, small_edges = _tracked_objects_added(400, 10)
    large, large_edges = _tracked_objects_added(4000, 104)
    assert large_edges == 10 * small_edges
    assert large <= small + 20 and small < 100
