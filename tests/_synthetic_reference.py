"""The synthetic generator as it was written with name lists: one pool list
per (relation, entity), one name tuple per edge, ids interned by
``from_named_triples``. ``make_synthetic_kg`` must give the same graphs bit
for bit; ``test_synthetic.py`` compares the two."""

import random

from privkg.graph import ATTR, REL, KnowledgeGraph

from ._named_triples import from_named_triples


def make_synthetic_kg(n_entities: int = 240, n_communities: int = 6,
                      n_relations: int = 6, n_attributes: int = 3,
                      values_per_pool: int = 4, edges_per_relation: int = 1,
                      seed: int = 0) -> KnowledgeGraph:
    rng = random.Random(seed)
    entities = ["e%03d" % i for i in range(n_entities)]
    community = {e: i % n_communities for i, e in enumerate(entities)}
    members = [entities[c::n_communities] for c in range(n_communities)]
    schema = {}
    triples = []

    # entity relations follow per-relation community permutations
    for r in range(n_relations):
        name = "rel%d" % r
        schema[name] = REL
        perm = list(range(n_communities))
        rng.shuffle(perm)
        for e in entities:
            target_comm = perm[community[e]]
            pool = [x for x in members[target_comm] if x != e]
            for x in rng.sample(pool, min(edges_per_relation, len(pool))):
                triples.append((e, name, x))

    # attribute values are pooled per (attribute, community)
    for a in range(n_attributes):
        name = "attr%d" % a
        schema[name] = ATTR
        for e in entities:
            pool = ["v%d_%d_%d" % (a, community[e], j) for j in range(values_per_pool)]
            triples.append((e, name, rng.choice(pool)))

    return from_named_triples(triples, schema)

