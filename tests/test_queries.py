import random

import pytest

from privkg.queries import (Anchor, Intersection, Projection, QueryError, Union,
                            classify_type, depth, parse_query, serialize, to_dnf)
from privkg.symbolic import evaluate
from .conftest import random_graph, random_query


def test_parse_1p(toy_graph):
    q = parse_query("(p LiveIn (a Hinton))", toy_graph)
    assert q == Projection(toy_graph.relation_id("LiveIn"), "forward",
                           Anchor(toy_graph.vertex_id("Hinton")))
    assert classify_type(q) == "1p"


def test_parse_arity_error(toy_graph):
    with pytest.raises(QueryError, match="arity"):
        parse_query("(i (a Hinton))", toy_graph)


def test_parse_reports_position(toy_graph):
    with pytest.raises(QueryError, match="position"):
        parse_query("(p LiveIn (a Nobody))", toy_graph)


def test_parse_unknown_relation(toy_graph):
    with pytest.raises(QueryError, match="Eats"):
        parse_query("(p Eats (a Hinton))", toy_graph)


def test_negation_rejected(toy_graph):
    with pytest.raises(QueryError, match="negation"):
        parse_query("(n (a Hinton))", toy_graph)


def test_2p_roundtrip(toy_graph):
    text = "(p WinAward (p Collaborate (a LeCun)))"
    q = parse_query(text, toy_graph)
    assert classify_type(q) == "2p"
    assert parse_query(serialize(q, toy_graph), toy_graph) == q


@pytest.mark.parametrize("seed", range(30))
def test_serialize_parse_identity_on_random_trees(seed):
    g = random_graph(seed)
    rng = random.Random(seed)
    q = random_query(g, rng, max_depth=4)
    assert parse_query(serialize(q, g), g) == q


def test_dnf_union_free_is_identity(toy_graph):
    q = parse_query("(i (p WinAward (a Hinton)) (p WinAward (a LeCun)))", toy_graph)
    assert to_dnf(q).disjuncts == (q,)


def test_dnf_returns_union_free_templates_as_is(toy_graph):
    templates = ["(p LiveIn (a Hinton))",
                 "(p WinAward (p Collaborate (a LeCun)))",
                 "(i (p WinAward (a Hinton)) (p WinAward (a LeCun)))",
                 "(i (p WinAward (a Hinton)) (p WinAward (a LeCun)) (p WinAward (a Bengio)))",
                 "(i (p WinAward (p Collaborate (a LeCun))) (p WinAward (a Bengio)))",
                 "(p LiveIn (i (p Collaborate (a LeCun)) (rp Collaborate (a Hinton))))"]
    for text in templates:
        q = parse_query(text, toy_graph)
        assert classify_type(q) in ("1p", "2p", "2i", "3i", "pi", "ip")
        [d] = to_dnf(q).disjuncts
        assert d is q


def _rebuilding_dnf(q):
    """``to_dnf`` as it was before it returned union-free subtrees as they are."""
    if isinstance(q, Anchor):
        return [q]
    if isinstance(q, Projection):
        return [Projection(q.rel, q.direction, d) for d in _rebuilding_dnf(q.child)]
    if isinstance(q, Union):
        return [d for c in q.children for d in _rebuilding_dnf(c)]
    combos = [()]
    for c in q.children:
        combos = [prefix + (d,) for prefix in combos for d in _rebuilding_dnf(c)]
    return [Intersection(combo) for combo in combos]


@pytest.mark.parametrize("seed", range(20))
def test_dnf_matches_rebuilding_reference(seed):
    g = random_graph(seed, n_vertices=25, n_triples=80)
    rng = random.Random(2000 + seed)
    for _ in range(10):
        q = random_query(g, rng, max_depth=4)
        assert to_dnf(q).disjuncts == tuple(_rebuilding_dnf(q))


def test_dnf_distributes_projection_over_union(toy_graph):
    q = parse_query("(p LiveIn (u (a Hinton) (a LeCun)))", toy_graph)
    got = [serialize(d, toy_graph) for d in to_dnf(q).disjuncts]
    assert got == ["(p LiveIn (a Hinton))", "(p LiveIn (a LeCun))"]


@pytest.mark.parametrize("seed", range(40))
def test_dnf_preserves_semantics_and_depth(seed):
    # 5 random queries per graph, 40 graphs: 200 trials
    g = random_graph(seed, n_vertices=25, n_triples=80)
    rng = random.Random(1000 + seed)
    for _ in range(5):
        q = random_query(g, rng, max_depth=4)
        dnf = to_dnf(q)
        assert not any(_has_union(d) for d in dnf.disjuncts)
        union = frozenset().union(*[evaluate(g, d) for d in dnf.disjuncts])
        assert union == evaluate(g, q)
        assert all(depth(d) <= depth(q) for d in dnf.disjuncts)


def _has_union(node):
    if isinstance(node, Union):
        return True
    if isinstance(node, Projection):
        return _has_union(node.child)
    if isinstance(node, Intersection):
        return any(_has_union(c) for c in node.children)
    return False


def test_classify_all_eight(toy_graph):
    g = toy_graph
    cases = {
        "(p LiveIn (a Hinton))": "1p",
        "(p LiveIn (p Collaborate (a LeCun)))": "2p",
        "(i (p WinAward (a Hinton)) (rp Collaborate (a Hinton)))": "2i",
        "(i (p WinAward (a Hinton)) (p WinAward (a LeCun)) (p WinAward (a Bengio)))": "3i",
        "(i (p LiveIn (p Collaborate (a LeCun))) (p LiveIn (a Hinton)))": "pi",
        "(p LiveIn (i (p WinAward (a Hinton)) (p WinAward (a LeCun))))": "ip",
        "(u (p LiveIn (a Hinton)) (p LiveIn (a LeCun)))": "2u",
        "(p LiveIn (u (rp WinAward (a Turing)) (p Collaborate (a LeCun))))": "up",
    }
    for text, expected in cases.items():
        assert classify_type(parse_query(text, g)) == expected, text


def test_classify_long_chain_is_other(toy_graph):
    q = parse_query("(p LiveIn (p LiveIn (p LiveIn (p LiveIn (a Hinton)))))", toy_graph)
    assert classify_type(q) == "other"


def test_classify_invariant_under_child_reordering(toy_graph):
    q = parse_query("(i (p LiveIn (p Collaborate (a LeCun))) (p LiveIn (a Hinton)))", toy_graph)
    flipped = Intersection(tuple(reversed(q.children)))
    assert classify_type(q) == classify_type(flipped) == "pi"
    u = parse_query("(u (p LiveIn (a Hinton)) (p LiveIn (a LeCun)))", toy_graph)
    assert classify_type(Union(tuple(reversed(u.children)))) == "2u"
