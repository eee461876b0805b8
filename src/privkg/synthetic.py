"""Seeded synthetic knowledge graphs with learnable structure, used by the
demo pipeline and the acceptance suite.

Entities live in communities; each entity relation maps a community to a fixed
partner community, and each attribute maps a community to a small pool of
value vertices, so embeddings can generalize beyond observed edges.

Draws: per relation one ``shuffle`` of the community permutation, then one draw
per (relation, entity) over the positions of its pool (the partner community
without the entity itself; none for an empty pool), and one per (attribute,
entity) over the value positions: the same RNG consumption as drawing from the
pools as name lists. Vertex and relation ids follow first appearance: relation
triples before attribute triples, a head before its tail.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .graph import ATTR, REL, KnowledgeGraph, Relation


def make_synthetic_kg(n_entities: int = 240, n_communities: int = 6,
                      n_relations: int = 6, n_attributes: int = 3,
                      values_per_pool: int = 4, edges_per_relation: int = 1,
                      seed: int = 0) -> KnowledgeGraph:
    for name, value, least in (("n_entities", n_entities, 1), ("n_communities", n_communities, 1),
                               ("n_relations", n_relations, 0), ("n_attributes", n_attributes, 0),
                               ("values_per_pool", values_per_pool, 1),
                               ("edges_per_relation", edges_per_relation, 0)):
        if value < least:
            raise ValueError("%s must be at least %d, got %r" % (name, least, value))
    rng = random.Random(seed)
    n, c, k = n_entities, n_communities, edges_per_relation
    entity = np.arange(n)
    community = entity % c
    members = np.bincount(community, minlength=c)
    # vertex codes: entity e is e, value j of (attribute a, community t) is
    # n + (a * c + t) * values_per_pool + j; relation codes: r, then n_relations + a
    heads, rels, tails = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
    for r in range(n_relations):
        perm = list(range(c))
        rng.shuffle(perm)
        target = np.array(perm)[community]
        own = target == community  # the pool leaves the entity itself out
        size = members[target] - own
        head = entity[size > 0]
        sizes = size[head].tolist()
        if k == 1:
            pos = np.fromiter(map(rng.choice, map(range, sizes)), np.int64)
        else:
            pools = {m: list(range(m)) for m in set(sizes)}  # sample reads lists faster than ranges
            picks = list(map(rng.sample, map(pools.__getitem__, sizes), [min(m, k) for m in sizes]))
            head = np.repeat(head, list(map(len, picks)))
            pos = np.fromiter(itertools.chain.from_iterable(picks), np.int64)
        heads.append(head)
        rels.append(np.full(len(head), r))
        tails.append(target[head] + (pos + (own[head] & (pos >= head // c))) * c)
    for a in range(n_attributes):
        value = np.fromiter(map(rng.choice, itertools.repeat(range(values_per_pool), n)), np.int64)
        heads.append(entity)
        rels.append(np.full(n, n_relations + a))
        tails.append(n + (a * c + community) * values_per_pool + value)

    rel = np.concatenate(rels)
    codes, first, inverse = np.unique(np.stack((np.concatenate(heads), np.concatenate(tails)),
                                               axis=1), return_index=True, return_inverse=True)
    order = np.argsort(first)
    names = ["e%03d" % x if x < n else "v%d_%d_%d" % (*divmod((x - n) // values_per_pool, c),
                                                      (x - n) % values_per_pool)
             for x in codes[order].tolist()]
    present = np.unique(rel).tolist()
    relations = [Relation("rel%d" % x if x < n_relations else "attr%d" % (x - n_relations),
                          REL if x < n_relations else ATTR) for x in present]
    ends = np.argsort(order)[inverse.reshape(-1)].reshape(-1, 2)
    return KnowledgeGraph(names, relations,
                          np.stack((ends[:, 0], np.searchsorted(present, rel), ends[:, 1]), axis=1))
