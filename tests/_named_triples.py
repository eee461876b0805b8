"""Graphs built from in-memory name triples, for tests: the program reads
graphs only from files (``load_triples``) or generates them with ids directly
(``make_synthetic_kg``)."""

from privkg.graph import KnowledgeGraph, graph_from_fields


def from_named_triples(named_triples, schema: dict[str, str]) -> KnowledgeGraph:
    """Build a graph from (head, relation, tail) name triples, with the ids
    ``load_triples`` would give the lines of a file."""
    return graph_from_fields([x for triple in named_triples for x in triple], schema)
