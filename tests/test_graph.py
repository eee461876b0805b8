import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from privkg.graph import (ATTR, REL, GraphError, KnowledgeGraph, Relation, Triple,
                          from_named_triples, load_schema, load_triples, load_triple_set,
                          write_triples)
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


def test_mark_private_fig2(toy_graph):
    t = Triple(toy_graph.vertex_id("Hinton"), toy_graph.relation_id("LiveIn"),
               toy_graph.vertex_id("Toronto"))
    assert toy_graph.private == {t}


def test_mark_private_empty_is_identity(toy_graph):
    g2 = toy_graph.mark_private(())
    assert g2.triples == toy_graph.triples
    assert g2.private == frozenset()


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
    assert g.public_view().triples == g.triples


def test_public_view_drops_exactly_the_private_edge(toy_graph):
    pub = toy_graph.public_view()
    assert toy_graph.triples - pub.triples == toy_graph.private
    assert pub.vertex_names == toy_graph.vertex_names  # vertices may isolate


def test_public_view_count_on_random_graph():
    g = random_graph(7, n_vertices=50, n_triples=200, n_attributes=3)
    attrs = sorted(g.attribute_triples())
    marked = g.mark_private(random.Random(1).sample(attrs, 10))
    assert len(marked.public_view().triples) == len(g.triples) - 10


def test_neighbors_fig2(toy_graph):
    h = toy_graph.vertex_id("Hinton")
    live = toy_graph.relation_id("LiveIn")
    toronto = toy_graph.vertex_id("Toronto")
    assert toy_graph.neighbors(h, live, "forward", "full") == {toronto}
    assert toy_graph.neighbors(h, live, "forward", "public") == frozenset()


def test_neighbors_no_incident_triples(toy_graph):
    turing = toy_graph.vertex_id("Turing")
    live = toy_graph.relation_id("LiveIn")
    assert toy_graph.neighbors(turing, live, "forward") == frozenset()


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
    g = random_graph(13, n_vertices=50, n_triples=160, n_attributes=3)
    attrs = sorted(g.attribute_triples())
    g = g.mark_private(random.Random(3).sample(attrs, min(12, len(attrs))))
    pub = g.public_view()
    for v in range(g.num_vertices()):
        for r in range(len(g.relations)):
            for direction in ("forward", "backward"):
                assert g.neighbors(v, r, direction, "public") == \
                    pub.neighbors(v, r, direction, "full")


def test_index_round_trip():
    g = random_graph(17, n_vertices=40, n_triples=150)
    vertices, rels = range(g.num_vertices()), range(len(g.relations))
    from_fwd = {Triple(h, r, t) for h in vertices for r in rels
                for t in g.neighbors(h, r, "forward")}
    from_bwd = {Triple(h, r, t) for t in vertices for r in rels
                for h in g.neighbors(t, r, "backward")}
    assert from_fwd == g.triples
    assert from_bwd == g.triples


@st.composite
def graphs_with_private(draw):
    n_vertices = draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from([REL, ATTR]), min_size=1, max_size=4))
    triples = draw(st.frozensets(st.builds(Triple, st.integers(0, n_vertices - 1),
                                           st.integers(0, len(kinds) - 1),
                                           st.integers(0, n_vertices - 1)), max_size=30))
    g = KnowledgeGraph(["v%d" % i for i in range(n_vertices)],
                       [Relation(i, "r%d" % i, kind) for i, kind in enumerate(kinds)], triples)
    attrs = sorted(g.attribute_triples())
    return g.mark_private(draw(st.sets(st.sampled_from(attrs))) if attrs else ())


@settings(max_examples=150, deadline=None)
@given(graphs_with_private(), st.booleans())
def test_neighbors_match_linear_scan_property(g, public_first):
    views = ("public", "full") if public_first else ("full", "public")
    for view in views:
        visible = g.triples - g.private if view == "public" else g.triples
        for v in range(g.num_vertices()):
            for r in range(len(g.relations)):
                fwd = frozenset(t.tail for t in visible if t.head == v and t.rel == r)
                bwd = frozenset(t.head for t in visible if t.tail == v and t.rel == r)
                assert g.neighbors(v, r, "forward", view) == fwd
                assert g.neighbors(v, r, "backward", view) == bwd
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
    relations = [Relation(0, "r", REL), Relation(1, "a", ATTR)]
    with pytest.raises(GraphError, match=match):
        KnowledgeGraph(["x", "y"], relations, triples, private)


def test_neighbors_unknown_ids(toy_graph):
    with pytest.raises(GraphError):
        toy_graph.neighbors(999, 0)
    with pytest.raises(GraphError):
        toy_graph.neighbors(0, 999)


def test_triple_file_roundtrip(tmp_path, toy_graph):
    path = tmp_path / "private.tsv"
    write_triples(path, toy_graph, toy_graph.private)
    assert load_triple_set(path, toy_graph) == toy_graph.private
