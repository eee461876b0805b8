import random

import pytest

from privkg.graph import ATTR, REL, Triple
from privkg.queries import Anchor, Intersection, Projection, Union
from ._named_triples import from_named_triples

TOY_SCHEMA = {"Collaborate": "rel", "WinAward": "rel", "LiveIn": "attr", "BornIn": "attr"}
TOY_TRIPLES = [
    ("Hinton", "LiveIn", "Toronto"),
    ("Hinton", "BornIn", "London"),
    ("Hinton", "WinAward", "Turing"),
    ("LeCun", "WinAward", "Turing"),
    ("LeCun", "Collaborate", "Hinton"),
    ("LeCun", "LiveIn", "NYC"),
    ("Bengio", "WinAward", "Turing"),
    ("Bengio", "LiveIn", "Montreal"),
]


def make_toy_graph():
    """Small researcher graph; Hinton's LiveIn edge is the private one."""
    g = from_named_triples(TOY_TRIPLES, TOY_SCHEMA)
    private = Triple(g.vertex_id("Hinton"), g.relation_id("LiveIn"), g.vertex_id("Toronto"))
    return g.mark_private({private})


@pytest.fixture
def toy_graph():
    return make_toy_graph()


def random_graph(seed, n_vertices=40, n_relations=4, n_attributes=2, n_triples=120):
    """Unstructured random graph for oracle-style testing."""
    rng = random.Random(seed)
    names = ["n%d" % i for i in range(n_vertices)]
    schema = {}
    rel_names = []
    for r in range(n_relations):
        schema["r%d" % r] = REL
        rel_names.append("r%d" % r)
    for a in range(n_attributes):
        schema["a%d" % a] = ATTR
        rel_names.append("a%d" % a)
    triples = set()
    while len(triples) < n_triples:
        triples.add((rng.choice(names), rng.choice(rel_names), rng.choice(names)))
    return from_named_triples(sorted(triples), schema)


def random_query(g, rng, max_depth=3):
    """Arbitrary well-formed query tree over g's vocabulary."""
    def build(depth):
        options = ["anchor"]
        if depth > 1:
            options += ["proj", "proj", "inter", "union"]
        kind = rng.choice(options)
        if kind == "anchor":
            return Anchor(rng.randrange(g.num_vertices()))
        if kind == "proj":
            return Projection(rng.randrange(len(g.relations)),
                              rng.choice(["forward", "backward"]),
                              build(depth - 1))
        children = tuple(build(depth - 1) for _ in range(rng.choice([2, 2, 3])))
        return (Intersection if kind == "inter" else Union)(children)

    return build(max_depth)


def mark_random_private(g, n, seed):
    attrs = sorted(g.attribute_triples())
    rng = random.Random(seed)
    return g.mark_private(rng.sample(attrs, min(n, len(attrs))))
