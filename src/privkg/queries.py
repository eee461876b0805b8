"""Query trees and the s-expression DSL.

Grammar:
    (a NAME)            anchor vertex
    (p REL EXPR)        forward projection
    (rp REL EXPR)       backward (reverse) projection
    (i EXPR EXPR ...)   intersection, arity >= 2
    (u EXPR EXPR ...)   union, arity >= 2

Negation is not part of the fragment and is rejected at parse time. A
projection of a direction outside ``graph.DIRECTIONS``, and an intersection or
union of fewer than two children, are refused when they are built, so every
node that exists reads back from what ``serialize`` writes.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Union as TyUnion

from .graph import BACKWARD, DIRECTIONS, FORWARD, GraphError, KnowledgeGraph


class QueryError(Exception):
    pass


class _Node:
    """Disjuncts and shape, kept from the first read (nodes are immutable). A
    union-free node is its own one disjunct and keeps ``()`` for it: a kept
    ``(self,)`` would be a cycle, which only the cyclic collector frees."""
    signature = functools.cached_property(lambda self: shape(self))

    @property
    def disjuncts(self) -> tuple:
        if "_dnf" not in self.__dict__:
            dnf = to_dnf(self)
            self.__dict__["_dnf"] = () if dnf[0] is self else dnf
        return self.__dict__["_dnf"] or (self,)


@dataclass(frozen=True)
class Anchor(_Node):
    vertex: int


@dataclass(frozen=True)
class Projection(_Node):
    rel: int
    direction: str
    child: "QueryNode"

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise QueryError("direction must be %s, got %r"
                             % (" or ".join(DIRECTIONS), self.direction))


class _Group(_Node):
    """An intersection or union: two or more children."""
    def __post_init__(self):
        if len(self.children) < 2:
            raise QueryError("%r requires arity >= 2" % self.op)


@dataclass(frozen=True)
class Intersection(_Group):
    children: tuple
    op = "i"


@dataclass(frozen=True)
class Union(_Group):
    children: tuple
    op = "u"


QueryNode = TyUnion[Anchor, Projection, Intersection, Union]


# -- parsing -----------------------------------------------------------------


# a token is a parenthesis or a name: a run of anything else but whitespace
_NAME = re.compile(r"[^\s()]+")
_TOKEN = re.compile(r"[()]|" + _NAME.pattern)


def parse_query(text: str, g: KnowledgeGraph) -> QueryNode:
    """Parse a query s-expression and resolve names against ``g``."""
    tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)] + [(None, len(text))]
    pos = 0

    def take(want=None):
        """The next token and its position; ``want`` is "(" or ")", or None for a name."""
        nonlocal pos
        tok, at = tokens[pos]
        if tok is None and want != ")":
            raise QueryError("unexpected end of input at position %d" % at)
        if (tok != want) if want else (tok in "()"):
            raise QueryError("expected %s at position %d" % (repr(want) if want else "a name", at))
        pos += 1
        return tok, at

    def expr():
        take("(")
        head, head_at = take()
        if head in ("a", "p", "rp"):
            name, at = take()
            kind, resolve = ("vertex", g.vertex_id) if head == "a" else ("relation", g.relation_id)
            try:
                ident = resolve(name)
            except GraphError:
                raise QueryError("unknown %s %r at position %d" % (kind, name, at)) from None
            node = Anchor(ident) if head == "a" else Projection(
                ident, FORWARD if head == "p" else BACKWARD, expr())
        elif head in ("i", "u"):
            children = []
            while tokens[pos][0] not in (")", None):
                children.append(expr())
            take(")")
            try:
                return (Intersection if head == "i" else Union)(tuple(children))
            except QueryError as e:
                raise QueryError("%s at position %d" % (e, head_at)) from None
        else:
            raise QueryError("unknown operator %r (negation is not supported) at position %d"
                             % (head, head_at))
        take(")")
        return node

    node = expr()
    if tokens[pos][0] is not None:
        raise QueryError("trailing input at position %d" % tokens[pos][1])
    return node


def _written(name: str) -> str:
    """``name`` as a query writes it: a name that would not read back as one
    token is refused."""
    if not _NAME.fullmatch(name):
        raise QueryError("name %r cannot be written in a query: it is empty or holds"
                         " whitespace or a parenthesis" % name)
    return name


def serialize(q: QueryNode, g: KnowledgeGraph) -> str:
    if isinstance(q, Anchor):
        return "(a %s)" % _written(g.vertex_name(q.vertex))
    if isinstance(q, Projection):
        op = "p" if q.direction == FORWARD else "rp"
        return "(%s %s %s)" % (op, _written(g.relation_name(q.rel)), serialize(q.child, g))
    if isinstance(q, _Group):
        return "(%s %s)" % (q.op, " ".join(serialize(c, g) for c in q.children))
    raise QueryError("not a query node: %r" % (q,))


# -- rewriting ----------------------------------------------------------------


def to_dnf(q: QueryNode) -> tuple:
    """Lift unions to the top: union-free disjuncts whose union is ``q``.

    Semantics-preserving by distributivity of projection/intersection over union."""
    return tuple(_dnf(q))


def _dnf(q: QueryNode) -> list:
    """Disjuncts of ``q``; a union-free subtree comes back as the same object."""
    if isinstance(q, Anchor):
        return [q]
    if isinstance(q, Projection):
        disjuncts = _dnf(q.child)
        if len(disjuncts) == 1 and disjuncts[0] is q.child:
            return [q]
        return [Projection(q.rel, q.direction, d) for d in disjuncts]
    if isinstance(q, Union):
        out = []
        for c in q.children:
            out.extend(_dnf(c))
        return out
    if isinstance(q, Intersection):
        per_child = [_dnf(c) for c in q.children]
        if all(len(ds) == 1 and ds[0] is c for ds, c in zip(per_child, q.children)):
            return [q]
        combos = [()]
        for child_disjuncts in per_child:
            combos = [prefix + (d,) for prefix in combos for d in child_disjuncts]
        return [Intersection(combo) for combo in combos]
    raise QueryError("not a query node: %r" % (q,))


# -- shapes and templates ------------------------------------------------------


def shape(q: QueryNode) -> str | tuple:
    """Operator signature of ``q``: ``"a"``, ``("p", s)``, ``("i", *s)`` or
    ``("u", *s)``, with vertices, relations and directions dropped."""
    if isinstance(q, Anchor):
        return "a"
    if isinstance(q, Projection):
        return ("p", shape(q.child))
    if isinstance(q, _Group):
        return (q.op,) + tuple(map(shape, q.children))
    raise QueryError("not a query node: %r" % (q,))


# shape of each of the eight benchmark templates; pi in both child orders
TEMPLATES = {
    ("p", "a"): "1p",
    ("p", ("p", "a")): "2p",
    ("i", ("p", "a"), ("p", "a")): "2i",
    ("i", ("p", "a"), ("p", "a"), ("p", "a")): "3i",
    ("i", ("p", ("p", "a")), ("p", "a")): "pi",
    ("i", ("p", "a"), ("p", ("p", "a"))): "pi",
    ("p", ("i", ("p", "a"), ("p", "a"))): "ip",
    ("u", ("p", "a"), ("p", "a")): "2u",
    ("p", ("u", ("p", "a"), ("p", "a"))): "up",
}

QUERY_TYPES = tuple(dict.fromkeys(TEMPLATES.values()))
OTHER = "other"  # the type of a query that instantiates no template


def classify_type(q: QueryNode) -> str:
    """The benchmark template ``q`` instantiates, else ``OTHER``."""
    return TEMPLATES.get(shape(q), OTHER)
