"""In-memory knowledge graph: interned vertices/relations, one array edge
store, and a per-triple private flag on attribute edges.

An id is a position in ``vertex_names`` or ``relations``. Graphs are immutable;
``mark_private``, ``with_triples`` and the memoised ``public_view`` share those
tables, name→id maps and kind mask. The tables are the key space of ``EdgeSet``s
(``triples``, ``private``, ``attribute_triples()``): set operations take only
``EdgeSet``s of equal tables, and a refusal names both by ``vocabulary_digests``.
Neighbour lookups go through CSR indices (``indptr``/``targets`` over
``src * R + rel``), built lazily per direction; each lookup is memoised.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

REL = "rel"
ATTR = "attr"
FORWARD = "forward"
BACKWARD = "backward"
KINDS = (REL, ATTR)  # each closed set once, read by every check
DIRECTIONS = (FORWARD, BACKWARD)


class GraphError(Exception):
    pass


@dataclass(frozen=True)
class Relation:
    name: str
    kind: str  # one of KINDS


class Triple(NamedTuple):
    head: int
    rel: int
    tail: int


def _unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values; several times faster than ``np.unique`` on int64."""
    keys = np.sort(keys, axis=None)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys


def vocabulary_digests(relations, vertex_names) -> dict:
    """sha256 of the vertex names and of the relation (name, kind) pairs, in id order."""
    def digest(items):
        return hashlib.sha256(json.dumps(items).encode("utf-8")).hexdigest()
    return {"vertex_digest": digest(list(vertex_names)),
            "relation_digest": digest([[r.name, r.kind] for r in relations])}


def _vocabulary(space) -> str:
    return "vocabulary %(vertex_digest).12s/%(relation_digest).12s" % vocabulary_digests(*space)


def _on_keys(array_op):
    """``array_op`` between two edge sets of one vocabulary; any other operand is a
    ``TypeError``, not a comparison of raw keys or of Python sets."""
    def op(self, other):
        if isinstance(other, EdgeSet) and other.space == self.space:
            return array_op(self, other)
        theirs = _vocabulary(other.space) if isinstance(other, EdgeSet) else type(other).__name__
        raise TypeError("EdgeSet of %s against %s: both operands must be EdgeSets of one "
                        "vocabulary" % (_vocabulary(self.space), theirs))
    return op


class EdgeSet:
    """Read-only set of ``Triple``s stored as the sorted, distinct int64 keys
    ``(head * R + rel) * V + tail`` of the key space ``space``, its graph's
    ``(relations, vertex_names)`` (R and V their lengths). Iteration decodes the
    keys in ``(head, rel, tail)`` order; ``&``, ``-``, ``<=`` and ``==`` take
    only an ``EdgeSet`` of equal tables (shared by every graph derived from one)."""

    __slots__ = ("keys", "space")

    def __init__(self, keys: np.ndarray, space: tuple[tuple, tuple]):
        keys.flags.writeable = False
        self.keys, self.space = keys, space

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        return map(Triple._make, self.rows().tolist())

    def rows(self) -> np.ndarray:
        """The ``(E, 3)`` int64 rows ``(head, rel, tail)``, in key order."""
        n_rel, n_vert = map(len, self.space)
        head, rest = np.divmod(self.keys, max(n_rel * n_vert, 1))
        return np.stack((head, *np.divmod(rest, max(n_vert, 1))), axis=1)

    __and__ = _on_keys(lambda a, b: EdgeSet(a.keys[np.isin(a.keys, b.keys, assume_unique=True)],
                                            a.space))
    __sub__ = _on_keys(lambda a, b: EdgeSet(a.keys[np.isin(a.keys, b.keys, assume_unique=True,
                                                           invert=True)], a.space))
    __le__ = _on_keys(lambda a, b: bool(np.isin(a.keys, b.keys, assume_unique=True).all()))
    __eq__ = _on_keys(lambda a, b: np.array_equal(a.keys, b.keys))


class KnowledgeGraph:
    def __init__(self, vertex_names, relations, triples, private=()):
        """``triples`` and ``private``: anything ``edge_set`` takes."""
        self.vertex_names: tuple[str, ...] = tuple(vertex_names)
        self.relations: tuple[Relation, ...] = tuple(relations)
        self._vid = {name: i for i, name in enumerate(self.vertex_names)}
        self._rid = {r.name: i for i, r in enumerate(self.relations)}
        if len(self._vid) != len(self.vertex_names):
            raise GraphError("duplicate vertex name")
        if len(self._rid) != len(self.relations):
            raise GraphError("duplicate relation name")
        if bad := [r for r in self.relations if r.kind not in KINDS]:
            raise GraphError("relation %r: kind must be %s, got %r"
                             % (bad[0].name, " or ".join(KINDS), bad[0].kind))
        self._space = (self.relations, self.vertex_names)
        self._is_attr = np.array([r.kind == ATTR for r in self.relations], dtype=bool)
        self._set_edges(triples, private)

    def _set_edges(self, triples, private) -> None:
        self.triples: EdgeSet = self.edge_set(triples)
        self.private: EdgeSet = self.edge_set(private)
        if not self.private <= self.triples:
            raise GraphError("private triple not in graph (cannot mark an absent triple "
                             "private): %r" % (next(iter(self.private - self.triples)),))
        if self.private and not self.private <= (attrs := self.attribute_triples()):
            raise GraphError("private flag on non-attribute triple (privacy applies only to "
                             "attribute triples): %r" % (next(iter(self.private - attrs)),))
        self._csr: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._lookups: dict[tuple, frozenset[int]] = {}
        self._public: KnowledgeGraph | None = None  # never self: that would be a cycle

    def edge_set(self, triples) -> EdgeSet:
        """``triples`` (an ``EdgeSet`` of this graph's tables, an ``(n, 3)`` array
        or an iterable of triples) in this graph's key space; an id outside its
        table, or an ``EdgeSet`` of other tables, raises ``GraphError``."""
        if isinstance(triples, EdgeSet):
            if triples.space != self._space:
                raise GraphError("edge set of %s is not of this graph's %s"
                                 % (_vocabulary(triples.space), _vocabulary(self._space)))
            return triples
        if isinstance(triples, np.ndarray):
            rows = triples.astype(np.int64, copy=False).reshape(-1, 3)
        else:
            rows = np.fromiter(itertools.chain.from_iterable(triples), dtype=np.int64).reshape(-1, 3)
        n_rel, n_vert = len(self.relations), len(self.vertex_names)
        # keys of an id outside its table would collide with other triples'
        for cols, size, what in (([0, 2], n_vert, "endpoint outside vertex table"),
                                 ([1], n_rel, "relation outside relation table")):
            bad = ((rows[:, cols] < 0) | (rows[:, cols] >= size)).any(axis=1)
            if bad.any():
                raise GraphError("triple %s: %r" % (what, Triple(*rows[bad.argmax()].tolist())))
        return EdgeSet(_unique((rows[:, 0] * n_rel + rows[:, 1]) * n_vert + rows[:, 2]),
                       self._space)

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
        if not 0 <= vid < len(self.vertex_names):
            raise GraphError("unknown vertex id %d" % vid)
        return self.vertex_names[vid]

    def relation_name(self, rid: int) -> str:
        if not 0 <= rid < len(self.relations):
            raise GraphError("unknown relation id %d" % rid)
        return self.relations[rid].name

    def neighbors(self, v: int, r: int, direction: str = FORWARD) -> frozenset[int]:
        """Forward: tails of (v, r, *). Backward: heads of (*, r, v). Private
        triples count; ``public_view().neighbors`` leaves them out."""
        key = (v, r, direction)
        result = self._lookups.get(key)
        if result is not None:
            return result
        self.vertex_name(v), self.relation_name(r)  # each refuses an id outside its table
        if direction not in DIRECTIONS:
            raise GraphError("direction must be %s, got %r" % (" or ".join(DIRECTIONS), direction))
        indptr, targets = self._index(direction)
        k = v * len(self.relations) + r
        result = self._lookups[key] = frozenset(targets[indptr[k]:indptr[k + 1]].tolist())
        return result

    def _index(self, direction: str) -> tuple[np.ndarray, np.ndarray]:
        """CSR over key ``src * R + rel``: the targets of key k are
        ``targets[indptr[k]:indptr[k + 1]]``."""
        csr = self._csr.get(direction)
        if csr is None:
            h, r, t = self.triples.rows().T
            src, dst = (h, t) if direction == FORWARD else (t, h)
            n_keys = len(self.vertex_names) * len(self.relations)
            keys = src * len(self.relations) + r
            indptr = np.zeros(n_keys + 1, dtype=np.int64)
            np.cumsum(np.bincount(keys, minlength=n_keys), out=indptr[1:])
            csr = self._csr[direction] = (indptr, dst[np.argsort(keys, kind="stable")])
        return csr

    def incident_vertices(self) -> list[int]:
        """Sorted ids of the vertices that have at least one triple, read off the
        indices: every R-th ``indptr`` entry starts a vertex's keys."""
        step = max(len(self.relations), 1)
        fwd, bwd = (np.diff(self._index(d)[0][::step]) for d in DIRECTIONS)
        return np.flatnonzero(fwd + bwd).tolist()

    def attribute_triples(self) -> EdgeSet:
        n_rel, n_vert = len(self.relations), len(self.vertex_names)
        keys = self.triples.keys
        return EdgeSet(keys[self._is_attr[keys // n_vert % n_rel]], self._space)

    # -- derived graphs ----------------------------------------------------

    def mark_private(self, triples: Iterable[Triple]) -> "KnowledgeGraph":
        return self._derive(self.triples, triples)

    def public_view(self) -> "KnowledgeGraph":
        """Drop private triples; vertex table unchanged (vertices may isolate).
        Built once; a graph without private triples returns itself."""
        if not self.private:
            return self
        self._public = self._public or self._derive(self.triples - self.private)
        return self._public

    def with_triples(self, triples: Iterable[Triple], private=()) -> "KnowledgeGraph":
        """New graph over the same vertex/relation tables with another edge set."""
        return self._derive(triples, private)

    def _derive(self, triples, private=()) -> "KnowledgeGraph":
        """A graph of other edges sharing this one's tables, name→id maps and kind mask."""
        g = copy.copy(self)
        g._set_edges(triples, private)
        return g


@dataclass(frozen=True)
class GraphSplit:
    """Cumulative train/valid/test graphs.

    The test graph alone carries the held-out private edges, flagged private."""
    train: KnowledgeGraph
    valid: KnowledgeGraph
    test: KnowledgeGraph


# -- flat files: every tab-separated file privkg reads goes through read_tsv ----

_BREAKS = "\t\n\r"  # no field holds one


def read_tsv(path, n_fields, what, linenos=False):
    """The fields of the data lines (not blank, not '#' comments; LF or CRLF
    ends), flattened: data line i holds ``fields[i * n_fields:(i + 1) * n_fields]``.
    With ``linenos``, also the file line number of each data line. Writers keep
    the matching rule: no field holds a tab, newline or carriage return
    (``check_fields``), and no line starts with '#'."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    data = [line for line in lines if line and line[0] != "#"]
    if set(map(str.count, data, itertools.repeat("\t"))) - {n_fields - 1}:
        lineno, line = next((i, line) for i, line in enumerate(lines, 1)
                            if line and line[0] != "#" and line.count("\t") != n_fields - 1)
        raise GraphError("%s: malformed line %d of %s (expected %d tab-separated fields): %r"
                         % (what, lineno, path, n_fields, line))
    fields = "\t".join(data).split("\t") if data else []
    return (fields, [i for i, line in enumerate(lines, 1) if line and line[0] != "#"]) \
        if linenos else fields


def check_fields(names, error=GraphError) -> None:
    """Refuse, with ``error``, the first of ``names`` that ``read_tsv`` would not
    read back as one field. When none does, this is one scan of the joined names."""
    if any(map("".join(names).__contains__, _BREAKS)):
        raise error("name %r cannot be written as a tab-separated field: it holds a tab, a "
                    "newline or a carriage return"
                    % next(n for n in names if any(map(n.__contains__, _BREAKS))))


def load_schema(path) -> dict[str, str]:
    """Schema file: ``relation<TAB>{rel|attr}`` per line, each relation once."""
    fields, linenos = read_tsv(path, 2, "schema", linenos=True)
    first: dict[str, int] = {}
    for lineno, name, kind in zip(linenos, fields[0::2], fields[1::2]):
        if kind not in KINDS:
            raise GraphError("schema line %d: kind must be %s, got %r"
                             % (lineno, " or ".join(KINDS), kind))
        if first.setdefault(name, lineno) != lineno:
            raise GraphError("schema lines %d and %d: relation %r listed twice"
                             % (first[name], lineno, name))
    return dict(zip(fields[0::2], fields[1::2]))


def load_triples(path, schema: dict[str, str]) -> KnowledgeGraph:
    """Load a TSV triple file (``head<TAB>relation<TAB>tail``, '#' comments)."""
    return graph_from_fields(read_tsv(path, 3, "triples"), schema)


def graph_from_fields(fields: list[str], schema: dict[str, str]) -> KnowledgeGraph:
    """The graph of the name triples ``fields[3i:3i + 3]``: ids in first appearance,
    heads before tails within a triple; a repeated triple is one (set semantics)."""
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
    relations = [Relation(name, schema[name]) for name in rid]
    return KnowledgeGraph(list(vid), relations, np.stack((ids[0::2], r, ids[1::2]), axis=1))


def load_triple_set(path, g: KnowledgeGraph) -> EdgeSet:
    """Read a TSV triple file and resolve against an existing graph."""
    fields = read_tsv(path, 3, "triples")
    lookups = itertools.cycle((g.vertex_id, g.relation_id, g.vertex_id))
    return g.edge_set(np.fromiter((f(x) for f, x in zip(lookups, fields)), dtype=np.int64,
                                  count=len(fields)))


def write_triples(path, g: KnowledgeGraph, triples) -> None:
    """One ``head<TAB>relation<TAB>tail`` line per distinct triple, in key
    order; ``triples``: anything ``edge_set`` takes. The lines are joined in one
    pass over object arrays of names, with no intermediate array of strings.
    Nothing is written if a written name would not read back (``GraphError``)."""
    names = np.array(g.vertex_names, dtype=object)
    rels = np.array([r.name for r in g.relations], dtype=object)
    h, r, t = g.edge_set(triples).rows().T
    for table, ids in ((g.vertex_names, (h, t)), (rels, (r,))):
        if any(map("".join(table).__contains__, _BREAKS)):  # only written names count
            check_fields([table[i] for i in _unique(np.concatenate(ids))])
    text = "\n".join(map("\t".join, zip(names[h], rels[r], names[t]))) + "\n" if len(h) else ""
    if text[:1] == "#" or "\n#" in text:
        raise GraphError("head name %r would read back as a comment: it starts with '#'"
                         % next(n for n in names[h] if n[:1] == "#"))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
