import gc
import random

import pytest

from privkg.graph import FORWARD, REL, ATTR, GraphError, KnowledgeGraph, Triple
from privkg.queries import Anchor, Intersection, Projection, parse_query
from privkg.symbolic import MODES, EvalError, evaluate, evaluate_tagged
from ._named_triples import from_named_triples
from ._oracle import brute_force_oracle
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
    views = []
    neighbors = KnowledgeGraph.neighbors

    def spy(self, v, r, direction=FORWARD, view="full"):
        views.append(view)
        return neighbors(self, v, r, direction, view)

    monkeypatch.setattr(KnowledgeGraph, "neighbors", spy)
    text = "(p LiveIn (u (a Hinton) (i (rp WinAward (a Turing)) (a LeCun))))"
    public = toy_graph.public_view()
    q = parse_query(text, public)
    assert evaluate(public, q) == brute_force_oracle(public, q)
    for mode in ("relaxed", "strict"):
        assert evaluate_tagged(public, q, mode).private_members == frozenset()
    assert views and set(views) == {"full"}
    # the spy sees the public view where there are private edges to leave out
    assert evaluate(toy_graph, q) == brute_force_oracle(toy_graph, q)
    assert "public" in views


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
    evaluate_tagged(g, q)  # fill the graph's lookup memo and CSR indices first
    gc.collect()
    gc.disable()
    try:
        evaluate(g, q)
        evaluate_tagged(g, q, "strict")
        assert gc.collect() == 0
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
