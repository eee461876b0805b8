import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from privkg.encoders import ENCODERS, make_encoder
from privkg.queries import (_TOKEN, BACKWARD, FORWARD, OTHER, QUERY_TYPES, TEMPLATES, Anchor,
                            Intersection, Projection, QueryError, Union, classify_type,
                            parse_query, serialize, shape, to_dnf)
from privkg.symbolic import MODES, evaluate, evaluate_tagged
from ._named_triples import from_named_triples
from .conftest import (TOY_SCHEMA, TOY_TRIPLES, make_toy_graph, mark_random_private, random_graph,
                       random_query)


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


@pytest.mark.parametrize("text, message", [
    ("", "unexpected end of input at position 0"),
    ("   ", "unexpected end of input at position 3"),
    ("p LiveIn (a Hinton)", "expected '(' at position 0"),
    ("((a Hinton))", "expected a name at position 1"),
    ("(p (a Hinton))", "expected a name at position 3"),
    ("(p LiveIn (a Nobody))", "unknown vertex 'Nobody' at position 13"),
    ("(p Eats (a Hinton))", "unknown relation 'Eats' at position 3"),
    ("(n (a Hinton))", "unknown operator 'n' (negation is not supported) at position 1"),
    ("(i (a Hinton))", "'i' requires arity >= 2 at position 1"),
    ("(u (a Hinton) )", "'u' requires arity >= 2 at position 1"),
    ("(i (a Hinton) (a", "unexpected end of input at position 16"),
    ("(i (a Hinton) (a LeCun)", "expected ')' at position 23"),
    ("(i (a Hinton)", "expected ')' at position 13"),  # before the arity check
    ("(a Hinton LeCun)", "expected ')' at position 10"),
    ("(a Hinton) (a LeCun)", "trailing input at position 11"),
    ("(a Hinton))", "trailing input at position 10"),
])
def test_parse_error_messages_and_positions(toy_graph, text, message):
    with pytest.raises(QueryError) as e:
        parse_query(text, toy_graph)
    assert str(e.value) == message


_PIECES = ["(", ")", "a", "p", "rp", "i", "u", "n", "Hinton", "LeCun", "LiveIn", "x,y", ",",
           " ", "\t", "\n"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet="()aipruHLeCn ,\t\n"),
                 st.lists(st.sampled_from(_PIECES), max_size=20).map("".join)))
def test_parse_returns_a_query_or_raises_query_error(text):
    g = from_named_triples(TOY_TRIPLES, TOY_SCHEMA)
    try:
        q = parse_query(text, g)
    except QueryError:
        return
    assert parse_query(serialize(q, g), g) == q


def test_tokens_split_exactly_at_whitespace():
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    tokens = _TOKEN.findall(text)
    assert "(" in tokens and ")" in tokens
    assert set(text) - set("".join(tokens)) == {c for c in text if c.isspace()}


def test_serialize_refuses_names_that_would_not_read_back():
    g = from_named_triples([("New York", "LiveIn", "a,c"), ("x", "in (1)", "a,c")],
                           {"LiveIn": "attr", "in (1)": "attr"})
    assert serialize(Anchor(g.vertex_id("a,c")), g) == "(a a,c)"
    with pytest.raises(QueryError, match="'New York'"):
        serialize(Anchor(g.vertex_id("New York")), g)
    with pytest.raises(QueryError, match=r"'in \(1\)'"):
        serialize(Projection(g.relation_id("in (1)"), FORWARD, Anchor(g.vertex_id("x"))), g)
    empty = from_named_triples([("", "LiveIn", "B")], {"LiveIn": "attr"})
    with pytest.raises(QueryError, match="''"):
        serialize(Anchor(empty.vertex_id("")), empty)


@pytest.mark.parametrize("reader", ["gqe", "q2b", "q2p", "serialize", "evaluate"])
@pytest.mark.parametrize("direction", ["bogus", "Forward", "", None])
def test_no_reader_sees_a_projection_of_an_unknown_direction(toy_graph, reader, direction):
    # the readers trust the direction: the encoders read any but "backward" as
    # forward and serialize writes any but "forward" as rp
    if reader in ("serialize", "evaluate"):
        read = {"serialize": lambda q: serialize(q, toy_graph),
                "evaluate": lambda q: evaluate(toy_graph, q)}[reader]
    else:
        read = make_encoder(reader, toy_graph, dim=4, n_particles=2).encode
    with pytest.raises(QueryError, match="direction must be forward or backward, got %r"
                                         % (direction,)):
        read(Projection(0, direction, Anchor(0)))


# the toy graph and a random graph with private edges, each with its three encoders
_READ_GRAPHS = [(g, [make_encoder(kind, g, dim=4, n_particles=2) for kind in ENCODERS])
                for g in (make_toy_graph(),
                          mark_random_private(random_graph(5, n_vertices=20, n_triples=60), 6, 5))]


def _tree_specs(g, depth):
    """Trees as nested tuples over ``g``'s ids: ("a", v), (op, rel, child) for
    p/rp, or (op, children) for i/u with 0-3 children; at most ``depth`` deep."""
    leaf = st.tuples(st.just("a"), st.integers(0, g.num_vertices() - 1))
    if depth == 1:
        return leaf
    sub = _tree_specs(g, depth - 1)
    return st.one_of(leaf,
                     st.tuples(st.sampled_from(["p", "rp"]),
                               st.integers(0, len(g.relations) - 1), sub),
                     st.tuples(st.sampled_from(["i", "u"]), st.lists(sub, max_size=3)))


def _build(spec):
    if spec[0] == "a":
        return Anchor(spec[1])
    if spec[0] in ("p", "rp"):
        return Projection(spec[1], FORWARD if spec[0] == "p" else BACKWARD, _build(spec[2]))
    return (Intersection if spec[0] == "i" else Union)(tuple(map(_build, spec[1])))


def _under_two(spec):
    """Whether some i/u node of ``spec`` has fewer than two children."""
    if spec[0] == "a":
        return False
    if spec[0] in ("p", "rp"):
        return _under_two(spec[2])
    return len(spec[1]) < 2 or any(map(_under_two, spec[1]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_query_that_builds_reads_back_and_every_reader_takes_it(data):
    g, encoders = data.draw(st.sampled_from(_READ_GRAPHS))
    spec = data.draw(_tree_specs(g, 4))
    if _under_two(spec):
        with pytest.raises(QueryError, match="requires arity >= 2"):
            _build(spec)
        return
    q = _build(spec)
    back = parse_query(serialize(q, g), g)
    assert back == q and classify_type(back) == classify_type(q)
    full = evaluate(g, q)
    for mode in MODES:
        assert evaluate_tagged(g, q, mode).all_members() == full
    for model in encoders:
        assert len(model.encode(q)) >= 1


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
    assert to_dnf(q) == (q,)


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
        [d] = to_dnf(q)
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
        assert to_dnf(q) == tuple(_rebuilding_dnf(q))


@pytest.mark.parametrize("seed", range(5))
def test_disjuncts_and_signature_are_kept_and_leave_eq_hash_repr_alone(seed):
    g = random_graph(seed, n_vertices=25, n_triples=80)
    rng = random.Random(3000 + seed)
    for _ in range(10):
        q = random_query(g, rng, max_depth=4)
        before = (hash(q), repr(q))
        assert q.disjuncts == to_dnf(q) and q.signature == shape(q)
        if q.disjuncts != (q,):
            assert q.disjuncts is q.disjuncts  # rebuilt disjuncts are built once
        fresh = parse_query(serialize(q, g), g)  # equal, nothing read from it yet
        assert (hash(q), repr(q)) == before == (hash(fresh), repr(fresh)) and q == fresh


def test_dnf_distributes_projection_over_union(toy_graph):
    q = parse_query("(p LiveIn (u (a Hinton) (a LeCun)))", toy_graph)
    got = [serialize(d, toy_graph) for d in to_dnf(q)]
    assert got == ["(p LiveIn (a Hinton))", "(p LiveIn (a LeCun))"]


@pytest.mark.parametrize("seed", range(40))
def test_dnf_preserves_semantics_and_depth(seed):
    # 5 random queries per graph, 40 graphs: 200 trials
    g = random_graph(seed, n_vertices=25, n_triples=80)
    rng = random.Random(1000 + seed)
    for _ in range(5):
        q = random_query(g, rng, max_depth=4)
        dnf = to_dnf(q)
        assert not any(_has_union(d) for d in dnf)
        union = frozenset().union(*[evaluate(g, d) for d in dnf])
        assert union == evaluate(g, q)
        assert all(depth(d) <= depth(q) for d in dnf)


def depth(q) -> int:
    if isinstance(q, Anchor):
        return 1
    if isinstance(q, Projection):
        return 1 + depth(q.child)
    return 1 + max(depth(c) for c in q.children)


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
    assert classify_type(q) == OTHER == "other"


def test_classify_invariant_under_child_reordering(toy_graph):
    q = parse_query("(i (p LiveIn (p Collaborate (a LeCun))) (p LiveIn (a Hinton)))", toy_graph)
    flipped = Intersection(tuple(reversed(q.children)))
    assert classify_type(q) == classify_type(flipped) == "pi"
    u = parse_query("(u (p LiveIn (a Hinton)) (p LiveIn (a LeCun)))", toy_graph)
    assert classify_type(Union(tuple(reversed(u.children)))) == "2u"


def test_shape_drops_vertices_relations_and_directions(toy_graph):
    a = parse_query("(p LiveIn (u (rp WinAward (a Turing)) (p Collaborate (a LeCun))))", toy_graph)
    b = parse_query("(rp BornIn (u (p LiveIn (a Hinton)) (rp WinAward (a NYC))))", toy_graph)
    assert shape(a) == shape(b) == ("p", ("u", ("p", "a"), ("p", "a")))
    with pytest.raises(QueryError):
        shape("(a Hinton)")


def test_query_types_are_the_eight_templates_in_order():
    assert QUERY_TYPES == ("1p", "2p", "2i", "3i", "pi", "ip", "2u", "up")
    assert set(TEMPLATES.values()) == set(QUERY_TYPES)


def _is_1p(q) -> bool:
    return isinstance(q, Projection) and isinstance(q.child, Anchor)


def _is_2p(q) -> bool:
    return isinstance(q, Projection) and _is_1p(q.child)


def _ladder_classify_type(q) -> str:
    """``classify_type`` as a ladder of predicates, before it read a shape table."""
    if _is_1p(q):
        return "1p"
    if _is_2p(q):
        return "2p"
    if isinstance(q, Intersection):
        kids = q.children
        if len(kids) == 2 and all(_is_1p(c) for c in kids):
            return "2i"
        if len(kids) == 3 and all(_is_1p(c) for c in kids):
            return "3i"
        if len(kids) == 2 and sum(_is_2p(c) for c in kids) == 1 and sum(_is_1p(c) for c in kids) == 1:
            return "pi"
        return "other"
    if isinstance(q, Union):
        if len(q.children) == 2 and all(_is_1p(c) for c in q.children):
            return "2u"
        return "other"
    if isinstance(q, Projection):
        inner = q.child
        if isinstance(inner, Intersection) and len(inner.children) == 2 \
                and all(_is_1p(c) for c in inner.children):
            return "ip"
        if isinstance(inner, Union) and len(inner.children) == 2 \
                and all(_is_1p(c) for c in inner.children):
            return "up"
        return "other"
    return "other"


def _trees(g, rng):
    """A random_query tree of depth 1-4, the same under one more projection,
    that projection intersected with the tree, and a 5-hop chain."""
    q = random_query(g, rng, max_depth=rng.randint(1, 4))
    hop = Projection(rng.randrange(len(g.relations)), FORWARD, q)
    chain = Anchor(rng.randrange(g.num_vertices()))
    for _ in range(5):
        chain = Projection(rng.randrange(len(g.relations)), FORWARD, chain)
    return [q, hop, Intersection((hop, q)), chain]


def test_classify_matches_predicate_ladder():
    seen = set()
    for seed in range(20):  # 16,000 trees
        g = random_graph(seed, n_vertices=25, n_triples=80)
        rng = random.Random(3000 + seed)
        for _ in range(200):
            for q in _trees(g, rng):
                want = _ladder_classify_type(q)
                assert classify_type(q) == want, q
                seen.add(want)
    assert seen == set(QUERY_TYPES) | {"other"}
