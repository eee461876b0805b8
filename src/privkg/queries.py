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

from .graph import KnowledgeGraph

FORWARD = "forward"
BACKWARD = "backward"

QUERY_TYPES = ("1p", "2p", "2i", "3i", "pi", "ip", "2u", "up")


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


@dataclass(frozen=True)
class DnfQuery:
    """Union-free disjuncts whose union is the original query."""
    disjuncts: tuple


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
    if isinstance(q, Intersection):
        return "(i %s)" % " ".join(serialize(c, g) for c in q.children)
    if isinstance(q, Union):
        return "(u %s)" % " ".join(serialize(c, g) for c in q.children)
    raise QueryError("not a query node: %r" % (q,))


# -- rewriting ----------------------------------------------------------------


def to_dnf(q: QueryNode) -> DnfQuery:
    """Lift unions to the top; each disjunct is union-free.

    Semantics-preserving by distributivity of projection/intersection over union."""
    return DnfQuery(tuple(_dnf(q)))


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


# -- template recognition ------------------------------------------------------


def _is_1p(q) -> bool:
    return isinstance(q, Projection) and isinstance(q.child, Anchor)


def _is_2p(q) -> bool:
    return isinstance(q, Projection) and _is_1p(q.child)


def classify_type(q: QueryNode) -> str:
    """Map a tree shape to one of the eight benchmark templates, else "other"."""
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


def depth(q: QueryNode) -> int:
    if isinstance(q, Anchor):
        return 1
    if isinstance(q, Projection):
        return 1 + depth(q.child)
    return 1 + max(depth(c) for c in q.children)
