"""Query trees and the s-expression DSL.

Grammar:
    (a NAME)            anchor vertex
    (p REL EXPR)        forward projection
    (rp REL EXPR)       backward (reverse) projection
    (i EXPR EXPR ...)   intersection, arity >= 2
    (u EXPR EXPR ...)   union, arity >= 2

Negation is not part of the fragment and is rejected at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union as TyUnion

from .graph import BACKWARD, FORWARD, KnowledgeGraph


class QueryError(Exception):
    pass


@dataclass(frozen=True)
class Anchor:
    vertex: int


@dataclass(frozen=True)
class Projection:
    rel: int
    direction: str
    child: "QueryNode"


@dataclass(frozen=True)
class Intersection:
    children: tuple


@dataclass(frozen=True)
class Union:
    children: tuple


QueryNode = TyUnion[Anchor, Projection, Intersection, Union]


# -- parsing -----------------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, i))
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


def parse_query(text: str, g: KnowledgeGraph) -> QueryNode:
    """Parse a query s-expression and resolve names against ``g``."""
    tokens = _tokenize(text)
    pos = 0

    def fail(msg, at):
        raise QueryError("%s at position %d" % (msg, at))

    def expect(tok):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos][0] != tok:
            at = tokens[pos][1] if pos < len(tokens) else len(text)
            fail("expected %r" % tok, at)
        pos += 1

    def atom():
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end of input", len(text))
        tok, at = tokens[pos]
        if tok in "()":
            fail("expected a name", at)
        pos += 1
        return tok, at

    def expr():
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end of input", len(text))
        tok, at = tokens[pos]
        if tok != "(":
            fail("expected '('", at)
        pos += 1
        head, head_at = atom()
        if head == "a":
            name, name_at = atom()
            try:
                node = Anchor(g.vertex_id(name))
            except Exception:
                fail("unknown vertex %r" % name, name_at)
            expect(")")
            return node
        if head in ("p", "rp"):
            name, name_at = atom()
            try:
                rel = g.relation_id(name)
            except Exception:
                fail("unknown relation %r" % name, name_at)
            child = expr()
            expect(")")
            return Projection(rel, FORWARD if head == "p" else BACKWARD, child)
        if head in ("i", "u"):
            children = []
            while pos < len(tokens) and tokens[pos][0] != ")":
                children.append(expr())
            expect(")")
            if len(children) < 2:
                fail("%r requires arity >= 2" % head, head_at)
            cls = Intersection if head == "i" else Union
            return cls(tuple(children))
        fail("unknown operator %r (negation is not supported)" % head, head_at)

    node = expr()
    if pos != len(tokens):
        fail("trailing input", tokens[pos][1])
    return node


def serialize(q: QueryNode, g: KnowledgeGraph) -> str:
    if isinstance(q, Anchor):
        return "(a %s)" % g.vertex_name(q.vertex)
    if isinstance(q, Projection):
        op = "p" if q.direction == FORWARD else "rp"
        return "(%s %s %s)" % (op, g.relation_name(q.rel), serialize(q.child, g))
    if isinstance(q, (Intersection, Union)):
        op = "i" if isinstance(q, Intersection) else "u"
        return "(%s %s)" % (op, " ".join(serialize(c, g) for c in q.children))
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
    if isinstance(q, (Intersection, Union)):
        return ("i" if isinstance(q, Intersection) else "u",) + tuple(map(shape, q.children))
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


def classify_type(q: QueryNode) -> str:
    """The benchmark template ``q`` instantiates, else "other"."""
    return TEMPLATES.get(shape(q), "other")
