"""Graphs built from in-memory name triples, for tests: the program reads
graphs only from files (``load_triples``) or generates them with ids directly
(``make_synthetic_kg``)."""

import itertools

import numpy as np

from privkg.graph import GraphError, KnowledgeGraph, Relation


def from_named_triples(named_triples, schema: dict[str, str]) -> KnowledgeGraph:
    """Build a graph from (head, relation, tail) name triples. Ids are assigned
    in first-appearance order, heads before tails within a triple, as
    ``load_triples`` assigns them to the lines of a file."""
    fields = [x for h, r, t in named_triples for x in (h, r, t)]
    rels = fields[1::3]
    rid = dict(zip(dict.fromkeys(rels), itertools.count()))
    missing = [name for name in rid if name not in schema]
    if missing:
        raise GraphError("relation %r missing from schema" % missing[0])
    ends = fields[0::3] + fields[2::3]
    ends[0::2], ends[1::2] = fields[0::3], fields[2::3]
    vid = dict(zip(dict.fromkeys(ends), itertools.count()))
    ids = np.fromiter(map(vid.__getitem__, ends), dtype=np.int64, count=len(ends))
    r = np.fromiter(map(rid.__getitem__, rels), dtype=np.int64, count=len(rels))
    relations = [Relation(i, name, schema[name]) for name, i in rid.items()]
    return KnowledgeGraph(list(vid), relations, np.stack((ids[0::2], r, ids[1::2]), axis=1))
