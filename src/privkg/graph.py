"""In-memory knowledge graph: interned vertices/relations, indexed triples,
and a per-triple private flag on attribute edges.

Graphs are immutable after construction; ``mark_private`` and ``public_view``
return new views sharing the vertex and relation tables.

Each graph keeps its triples once as an ``(E, 3)`` int64 array. Neighbour
lookups go through CSR indices (``indptr``/``targets`` over the key
``src * R + rel``), built lazily per direction and view; each lookup's
frozenset is memoised on the graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

REL = "rel"
ATTR = "attr"


class GraphError(Exception):
    pass


@dataclass(frozen=True)
class Relation:
    id: int
    name: str
    kind: str  # REL or ATTR


class Triple(NamedTuple):
    head: int
    rel: int
    tail: int


def _edge_array(triples) -> np.ndarray:
    return np.fromiter(itertools.chain.from_iterable(triples), dtype=np.int64,
                       count=3 * len(triples)).reshape(-1, 3)


class KnowledgeGraph:
    def __init__(self, vertex_names, relations, triples, private=frozenset(), *, _edges=None):
        """``_edges`` is the edge array of a graph with the same triples and
        tables, already checked; views pass it to skip rebuilding."""
        self.vertex_names: tuple[str, ...] = tuple(vertex_names)
        self.relations: tuple[Relation, ...] = tuple(relations)
        self.triples: frozenset[Triple] = frozenset(triples)
        self.private: frozenset[Triple] = frozenset(private)
        self._vid = {name: i for i, name in enumerate(self.vertex_names)}
        self._rid = {r.name: r.id for r in self.relations}
        if len(self._vid) != len(self.vertex_names):
            raise GraphError("duplicate vertex name")
        if len(self._rid) != len(self.relations):
            raise GraphError("duplicate relation name")
        if _edges is None:
            _edges = _edge_array(self.triples)
            ends = _edges[:, ::2]
            bad = ((ends < 0) | (ends >= len(self.vertex_names))).any(axis=1)
            if bad.any():
                raise GraphError("triple endpoint outside vertex table: %r"
                                 % (Triple(*_edges[bad.argmax()].tolist()),))
            # the index keys ``src * R + rel`` collide for a relation id outside [0, R)
            bad = (_edges[:, 1] < 0) | (_edges[:, 1] >= len(self.relations))
            if bad.any():
                raise GraphError("triple relation outside relation table: %r"
                                 % (Triple(*_edges[bad.argmax()].tolist()),))
        self._edges = _edges  # one row (head, rel, tail) per triple
        if not self.private <= self.triples:
            raise GraphError("private triple not in graph: %r" % (min(self.private - self.triples),))
        for t in self.private:
            if self.relations[t.rel].kind != ATTR:
                raise GraphError("private flag on non-attribute triple: %r" % (t,))
        self._csr: dict[tuple[str, bool], tuple[np.ndarray, np.ndarray]] = {}
        self._lookups: dict[tuple, frozenset[int]] = {}

    # -- lookups -----------------------------------------------------------

    def num_vertices(self) -> int:
        return len(self.vertex_names)

    def vertex_id(self, name: str) -> int:
        try:
            return self._vid[name]
        except KeyError:
            raise GraphError("unknown vertex %r" % name) from None

    def relation_id(self, name: str) -> int:
        try:
            return self._rid[name]
        except KeyError:
            raise GraphError("unknown relation %r" % name) from None

    def vertex_name(self, vid: int) -> str:
        return self.vertex_names[vid]

    def relation_name(self, rid: int) -> str:
        return self.relations[rid].name

    def neighbors(self, v: int, r: int, direction: str = "forward", view: str = "full") -> frozenset[int]:
        """Forward: tails of (v, r, *). Backward: heads of (*, r, v).

        ``view="public"`` excludes private triples.
        """
        public = view == "public" and bool(self.private)
        key = (v, r, direction, public)
        result = self._lookups.get(key)
        if result is not None:
            return result
        if not 0 <= v < len(self.vertex_names):
            raise GraphError("unknown vertex id %d" % v)
        if not 0 <= r < len(self.relations):
            raise GraphError("unknown relation id %d" % r)
        if direction not in ("forward", "backward"):
            raise GraphError("direction must be forward or backward, got %r" % direction)
        indptr, targets = self._index(direction, public)
        k = v * len(self.relations) + r
        result = self._lookups[key] = frozenset(targets[indptr[k]:indptr[k + 1]].tolist())
        return result

    def _public_mask(self) -> np.ndarray:
        """Rows of the edge array that are not private."""
        def encode(edges):
            return (edges[:, 0] * len(self.relations) + edges[:, 1]) * len(self.vertex_names) \
                + edges[:, 2]
        return ~np.isin(encode(self._edges), encode(_edge_array(self.private)))

    def _index(self, direction: str, public: bool) -> tuple[np.ndarray, np.ndarray]:
        """CSR over key ``src * R + rel``: the targets of key k are
        ``targets[indptr[k]:indptr[k + 1]]``."""
        csr = self._csr.get((direction, public))
        if csr is None:
            edges = self._edges[self._public_mask()] if public else self._edges
            src, dst = (edges[:, 0], edges[:, 2]) if direction == "forward" \
                else (edges[:, 2], edges[:, 0])
            n_keys = len(self.vertex_names) * len(self.relations)
            keys = src * len(self.relations) + edges[:, 1]
            indptr = np.zeros(n_keys + 1, dtype=np.int64)
            np.cumsum(np.bincount(keys, minlength=n_keys), out=indptr[1:])
            csr = self._csr[direction, public] = (indptr, dst[np.argsort(keys, kind="stable")])
        return csr

    def incident_vertices(self) -> list[int]:
        """Sorted ids of the vertices that have at least one triple."""
        return np.unique(self._edges[:, ::2]).tolist()

    def attribute_triples(self) -> frozenset[Triple]:
        return frozenset(t for t in self.triples if self.relations[t.rel].kind == ATTR)

    # -- derived views -----------------------------------------------------

    def mark_private(self, triples: Iterable[Triple]) -> "KnowledgeGraph":
        marked = frozenset(triples)
        if not marked <= self.triples:
            raise GraphError("cannot mark absent triple private: %r" % (min(marked - self.triples),))
        for t in marked:
            if self.relations[t.rel].kind != ATTR:
                raise GraphError("privacy applies only to attribute triples: %r" % (t,))
        return KnowledgeGraph(self.vertex_names, self.relations, self.triples, marked,
                              _edges=self._edges)

    def public_view(self) -> "KnowledgeGraph":
        """Drop private triples; vertex table unchanged (vertices may isolate)."""
        return KnowledgeGraph(self.vertex_names, self.relations, self.triples - self.private,
                              _edges=self._edges[self._public_mask()])

    def with_triples(self, triples: Iterable[Triple], private=frozenset()) -> "KnowledgeGraph":
        """New graph over the same vertex/relation tables with another edge set."""
        return KnowledgeGraph(self.vertex_names, self.relations, triples, private)


@dataclass(frozen=True)
class GraphSplit:
    """Cumulative train/valid/test graphs plus the held-out private edges.

    The test graph carries the private edges, flagged private."""
    train: KnowledgeGraph
    valid: KnowledgeGraph
    test: KnowledgeGraph
    private: frozenset[Triple]


# -- flat-file ingestion ----------------------------------------------------


def _read_tsv(path, n_fields, what):
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise GraphError("%s: malformed line %d (expected %d tab-separated fields): %r"
                                 % (what, lineno, n_fields, line))
            out.append((lineno, fields))
    return out


def load_schema(path) -> dict[str, str]:
    """Schema file: ``relation<TAB>{rel|attr}`` per line."""
    schema = {}
    for lineno, (name, kind) in _read_tsv(path, 2, "schema"):
        if kind not in (REL, ATTR):
            raise GraphError("schema line %d: kind must be rel or attr, got %r" % (lineno, kind))
        schema[name] = kind
    return schema


def from_named_triples(named_triples, schema: dict[str, str]) -> KnowledgeGraph:
    """Build a graph from (head, relation, tail) name triples.

    Ids are assigned in first-appearance order, so loading is deterministic."""
    vid: dict[str, int] = {}
    rid: dict[str, int] = {}
    triples = set()
    for h, r, t in named_triples:
        if r not in rid:
            if r not in schema:
                raise GraphError("relation %r missing from schema" % r)
            rid[r] = len(rid)
        triples.add(Triple(vid.setdefault(h, len(vid)), rid[r], vid.setdefault(t, len(vid))))
    relations = [Relation(i, name, schema[name]) for name, i in rid.items()]
    return KnowledgeGraph(list(vid), relations, triples)


def load_triples(path, schema: dict[str, str]) -> KnowledgeGraph:
    """Load a TSV triple file (``head<TAB>relation<TAB>tail``, '#' comments).

    Duplicate lines collapse to one triple (set semantics)."""
    rows = _read_tsv(path, 3, "triples")
    return from_named_triples([tuple(fields) for _, fields in rows], schema)


def load_triple_set(path, g: KnowledgeGraph) -> frozenset[Triple]:
    """Read a TSV triple file and resolve against an existing graph."""
    out = set()
    for lineno, (h, r, t) in _read_tsv(path, 3, "triples"):
        out.add(Triple(g.vertex_id(h), g.relation_id(r), g.vertex_id(t)))
    return frozenset(out)


def write_triples(path, g: KnowledgeGraph, triples: Iterable[Triple]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for h, r, t in sorted(triples):
            f.write("%s\t%s\t%s\n" % (g.vertex_name(h), g.relation_name(r), g.vertex_name(t)))
