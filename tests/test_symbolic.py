import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from privkg.graph import (FORWARD, REL, ATTR, DIRECTIONS, GraphError, KnowledgeGraph, Relation,
                          Triple)
from privkg.queries import Anchor, Intersection, Projection, Union, parse_query
from privkg.symbolic import MODES, EvalError, evaluate, evaluate_tagged
from ._named_triples import from_named_triples
from ._oracle import brute_force_oracle
from ._tagging_reference import reference_tagged
from .conftest import mark_random_private, random_graph, random_query


def test_fig2_1p_query(toy_graph):
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    toronto = toy_graph.vertex_id("Toronto")
    assert evaluate(toy_graph, q) == {toronto}
    assert evaluate(toy_graph.public_view(), q) == frozenset()


@pytest.mark.parametrize("q, vid", [(Anchor(-1), -1), (Anchor(99), 99),
                                     (Intersection((Anchor(99), Anchor(99))), 99)],
                         ids=["anchor-1", "anchor99", "intersection"])
def test_an_anchor_outside_the_vertex_table_is_refused(toy_graph, q, vid):
    # a projection's ids reach the check in neighbors; an anchor is checked itself
    readers = [lambda: evaluate(toy_graph, q)]
    readers += [lambda mode=mode: evaluate_tagged(toy_graph, q, mode) for mode in MODES]
    for read in readers:
        with pytest.raises(GraphError, match="^unknown vertex id %d$" % vid):
            read()


def test_intersection_idempotence(toy_graph):
    one = parse_query("(rp WinAward (a Turing))", toy_graph)
    both = parse_query("(i (rp WinAward (a Turing)) (rp WinAward (a Turing)))", toy_graph)
    assert evaluate(toy_graph, both) == evaluate(toy_graph, one)


@pytest.mark.parametrize("seed", range(20))
def test_evaluate_matches_oracle_on_random_queries(seed):
    g = mark_random_private(random_graph(seed, n_vertices=30, n_triples=100), 8, seed)
    rng = random.Random(seed)
    for _ in range(8):
        q = random_query(g, rng, max_depth=4)
        assert evaluate(g, q) == brute_force_oracle(g, q)


def test_oracle_simple_cases(toy_graph):
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    assert brute_force_oracle(toy_graph, q) == {toy_graph.vertex_id("Toronto")}
    q = parse_query("(p Collaborate (a Hinton))", toy_graph)  # no outgoing edge
    assert brute_force_oracle(toy_graph, q) == frozenset()


def test_oracle_guard():
    g = from_named_triples([("v%d" % i, "r", "v%d" % (i + 1)) for i in range(1100)],
                           {"r": REL})
    with pytest.raises(EvalError, match="guard"):
        brute_force_oracle(g, parse_query("(p r (a v0))", g))


def test_fig2_tagging_both_modes(toy_graph):
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    toronto = toy_graph.vertex_id("Toronto")
    for mode in ("relaxed", "strict"):
        tagged = evaluate_tagged(toy_graph, q, mode)
        assert toronto in tagged.private_members


def test_no_private_triples_means_no_private_answers(toy_graph):
    g = toy_graph.mark_private(())
    for text in ("(p LiveIn (a Hinton))",
                 "(p LiveIn (i (p WinAward (a Hinton)) (p WinAward (a LeCun))))"):
        tagged = evaluate_tagged(g, parse_query(text, g))
        assert tagged.private_members == frozenset()


def test_private_free_graph_makes_no_public_lookup(toy_graph, monkeypatch):
    receivers = []
    neighbors = KnowledgeGraph.neighbors

    def spy(self, v, r, direction=FORWARD):
        receivers.append(self)
        return neighbors(self, v, r, direction)

    monkeypatch.setattr(KnowledgeGraph, "neighbors", spy)
    text = "(p LiveIn (u (a Hinton) (i (rp WinAward (a Turing)) (a LeCun))))"
    public = toy_graph.public_view()
    assert public.public_view() is public  # a private-free graph is its own public view
    q = parse_query(text, public)
    assert evaluate(public, q) == brute_force_oracle(public, q)
    for mode in ("relaxed", "strict"):
        assert evaluate_tagged(public, q, mode).private_members == frozenset()
    assert receivers and all(g is public for g in receivers)
    # where there are private edges to leave out, the walk also reads the public view
    receivers.clear()
    assert evaluate_tagged(toy_graph, q).all_members() == brute_force_oracle(toy_graph, q)
    assert {id(g) for g in receivers} == {id(toy_graph), id(public)}
    receivers.clear()
    assert evaluate(toy_graph, q) == brute_force_oracle(toy_graph, q)
    assert receivers and all(g is toy_graph for g in receivers)


def test_intersection_tags_dually_present_member_private():
    # a vertex in both children's full sets but only one child's public set
    triples = [("A", "a", "X"), ("B", "a", "X"), ("B", "a", "Y")]
    g = from_named_triples(triples, {"a": ATTR})
    g = g.mark_private({Triple(g.vertex_id("A"), g.relation_id("a"), g.vertex_id("X"))})
    q = parse_query("(i (p a (a A)) (p a (a B)))", g)
    tagged = evaluate_tagged(g, q)
    assert tagged.private_members == {g.vertex_id("X")}
    assert tagged.public_members == frozenset()


def test_strict_mode_forces_private_input_image():
    # X reachable from A both privately (via P) and publicly (direct)
    triples = [("A", "a", "P"), ("A", "b", "X"), ("P", "b", "X")]
    g = from_named_triples(triples, {"a": ATTR, "b": ATTR})
    g = g.mark_private({Triple(g.vertex_id("A"), g.relation_id("a"), g.vertex_id("P"))})
    q = parse_query("(p b (u (a A) (p a (a A))))", g)
    x = g.vertex_id("X")
    relaxed = evaluate_tagged(g, q, "relaxed")
    strict = evaluate_tagged(g, q, "strict")
    assert x in relaxed.public_members  # publicly derivable via the direct edge
    assert x in strict.private_members  # image of a private input


@pytest.mark.parametrize("seed", range(15))
def test_tagging_algebra_on_random_instances(seed):
    g = mark_random_private(random_graph(seed, n_vertices=30, n_triples=110,
                                         n_attributes=3), 10, seed)
    pub_view = g.public_view()
    rng = random.Random(200 + seed)
    for _ in range(8):
        q = random_query(g, rng, max_depth=4)
        full = evaluate(g, q)
        for mode in ("relaxed", "strict"):
            tagged = evaluate_tagged(g, q, mode)
            assert tagged.public_members & tagged.private_members == frozenset()
            assert tagged.public_members | tagged.private_members == full
        relaxed = evaluate_tagged(g, q, "relaxed")
        strict = evaluate_tagged(g, q, "strict")
        assert relaxed.public_members == evaluate(pub_view, q)
        assert strict.private_members >= relaxed.private_members


@pytest.mark.parametrize("seed", range(8))
def test_relaxed_public_monotone_in_public_triples(seed):
    g = mark_random_private(random_graph(seed, n_vertices=25, n_triples=80,
                                         n_attributes=3), 8, seed)
    rng = random.Random(300 + seed)
    q = random_query(g, rng, max_depth=3)
    before = evaluate_tagged(g, q, "relaxed").public_members
    # add a public triple
    extra = Triple(rng.randrange(g.num_vertices()), rng.randrange(len(g.relations)),
                   rng.randrange(g.num_vertices()))
    bigger = g.with_triples([*g.triples, extra], private=g.private)
    after = evaluate_tagged(bigger, q, "relaxed").public_members
    assert after >= before


@pytest.mark.parametrize("seed", range(8))
def test_operator_tagging_formulas_hold_literally(seed):
    # recompute intersection/union tags from the children's tagged sets
    g = mark_random_private(random_graph(seed, n_vertices=25, n_triples=90,
                                         n_attributes=3), 8, seed)
    rng = random.Random(400 + seed)
    for _ in range(6):
        children = [random_query(g, rng, max_depth=3) for _ in range(2)]
        tagged = [evaluate_tagged(g, c) for c in children]
        fulls = [t.public_members | t.private_members for t in tagged]
        from privkg.queries import Intersection, Union
        inter = evaluate_tagged(g, Intersection(tuple(children)))
        expected_private = frozenset.intersection(*fulls) - \
            frozenset.intersection(*[t.public_members for t in tagged])
        assert inter.private_members == expected_private
        union = evaluate_tagged(g, Union(tuple(children)))
        expected_private = frozenset().union(*fulls) - \
            frozenset().union(*[t.public_members for t in tagged])
        assert union.private_members == expected_private


def test_evaluation_leaves_no_reference_cycles():
    g = mark_random_private(random_graph(5, n_vertices=30, n_triples=100), 8, 5)
    q = random_query(g, random.Random(5), max_depth=4)
    evaluate(g, q)
    evaluate_tagged(g, q)  # fill the lookup memos, CSR indices and public view first
    gc.collect()
    gc.disable()
    try:
        evaluate(g, q)
        evaluate_tagged(g, q, "strict")
        assert gc.collect() == 0
        # the memoised public view refers to none of its graph, so both go on del
        graph, pub = weakref.ref(g), weakref.ref(g.public_view())
        assert pub() is not g
        del g
        assert graph() is None and pub() is None
    finally:
        gc.enable()


def test_structurally_equal_subtrees_evaluate_without_hashing(toy_graph, monkeypatch):
    # two equal but distinct branches; the walk keeps no dict of nodes, so none is hashed
    text = "(p LiveIn (i (p WinAward (a Hinton)) (p WinAward (a LeCun))))"
    q = parse_query("(i %s %s)" % (text, text), toy_graph)
    assert q.children[0] == q.children[1] and q.children[0] is not q.children[1]
    single = parse_query(text, toy_graph)
    full, tagged = evaluate(toy_graph, single), evaluate_tagged(toy_graph, single, "strict")
    for cls in (Anchor, Projection, Intersection):
        monkeypatch.setattr(cls, "__hash__", _unhashable)
    assert evaluate(toy_graph, q) == full
    public = toy_graph.public_view()
    assert evaluate(public, q) == evaluate(public, single)
    assert evaluate_tagged(toy_graph, q, "strict") == tagged
    assert full == brute_force_oracle(toy_graph, single)


def _unhashable(node):
    raise AssertionError("query node hashed during evaluation")


def _queries(n_vertices, n_relations, depth):
    """Query trees of depth <= ``depth`` over ids in range; i/u take 2-3 children."""
    anchor = st.builds(Anchor, st.integers(0, n_vertices - 1))
    if depth == 1:
        return anchor
    sub = _queries(n_vertices, n_relations, depth - 1)
    children = st.lists(sub, min_size=2, max_size=3).map(tuple)
    projection = st.builds(Projection, st.integers(0, n_relations - 1),
                           st.sampled_from(DIRECTIONS), sub)
    return st.one_of(projection, projection, st.builds(Intersection, children),
                     st.builds(Union, children), anchor)


@st.composite
def _tagging_cases(draw, max_private=8):
    """A random graph of 1-5 vertices and 1-3 relations, each possible triple
    drawn in or out, with 0 to ``max_private`` private attribute edges; and a
    random query of depth <= 4 over it."""
    n_vertices = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from([ATTR, REL]), min_size=1, max_size=3))
    cells = [(h, r, t) for h in range(n_vertices) for r in range(len(kinds))
             for t in range(n_vertices)]
    kept = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    g = KnowledgeGraph(["v%d" % i for i in range(n_vertices)],
                       [Relation("r%d" % i, kind) for i, kind in enumerate(kinds)],
                       [c for c, keep in zip(cells, kept) if keep])
    attrs = sorted(g.attribute_triples())
    marked = draw(st.lists(st.booleans(), min_size=len(attrs), max_size=len(attrs)))
    private = [t for t, mark in zip(attrs, marked) if mark][:max_private]
    return g.mark_private(private), draw(_queries(n_vertices, len(kinds), 4))


@settings(max_examples=300, deadline=None)
@given(_tagging_cases())
def test_tagging_matches_the_reference_in_both_modes(case):
    # the walk over a graph and its public view gives the (full, private) formulas' tags
    g, q = case
    for mode in MODES:
        full, private = reference_tagged(g, q, mode)
        tagged = evaluate_tagged(g, q, mode)
        assert tagged.private_members == private
        assert tagged.public_members == full - private
    assert evaluate(g, q) == full
