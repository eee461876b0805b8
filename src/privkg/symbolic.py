"""Exact set-semantics query evaluation plus privacy-tagged evaluation.

One walk recurses over the query tree on a graph ``g`` and on
``g.public_view()`` and yields each answer set on both. ``evaluate_tagged``
splits the full set into public and private members; ``evaluate`` passes ``g``
for both and keeps the full set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import KnowledgeGraph
from .queries import Anchor, Intersection, Projection, QueryNode, Union

RELAXED = "relaxed"
STRICT = "strict"
MODES = (RELAXED, STRICT)  # the answer modes, read by every check of a mode


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class TaggedAnswerSet:
    """Answers split into publicly-derivable and privacy-threatening members."""
    public_members: frozenset[int]
    private_members: frozenset[int]

    def all_members(self) -> frozenset[int]:
        return self.public_members | self.private_members


def _image(g: KnowledgeGraph, members, rel, direction) -> frozenset[int]:
    out = set()
    for v in members:
        out |= g.neighbors(v, rel, direction)
    return frozenset(out)


def evaluate(g: KnowledgeGraph, q: QueryNode) -> frozenset[int]:
    """Answer set of ``q`` on ``g``, private triples included."""
    return _walk(g, g, q, RELAXED)[0]


def evaluate_tagged(g: KnowledgeGraph, q: QueryNode, mode: str = RELAXED) -> TaggedAnswerSet:
    """Evaluate with privacy tags. Relaxed public members are the answers of
    ``q`` on ``g.public_view()``: derivable without a private triple. Strict mode
    also takes, at each projection, the image of the child's private members out
    of the public image. Private members are the rest of the full answer set."""
    if mode not in MODES:
        raise EvalError("mode must be %s, got %r" % (" or ".join(MODES), mode))
    full, public = _walk(g, g.public_view(), q, mode)
    return TaggedAnswerSet(public_members=public, private_members=full - public)


def _walk(g, pub, node, mode):
    """(full, public) answer sets of ``node`` on ``g`` and on ``pub``, its
    ``public_view()``; with ``pub is g`` (no private triples) both are the full set."""
    if isinstance(node, Anchor):
        g.vertex_name(node.vertex)  # GraphError outside the vertex table, as in serialize
        full = frozenset((node.vertex,))
        return full, full
    if isinstance(node, Projection):
        child_full, child_public = _walk(g, pub, node.child, mode)
        full = _image(g, child_full, node.rel, node.direction)
        if pub is g:
            return full, full
        public = _image(pub, child_public, node.rel, node.direction)
        if mode == STRICT:
            public = public - _image(g, child_full - child_public, node.rel, node.direction)
        return full, public
    if isinstance(node, (Intersection, Union)):
        combine = frozenset.intersection if isinstance(node, Intersection) else frozenset.union
        fulls, publics = zip(*[_walk(g, pub, c, mode) for c in node.children])
        full = combine(*fulls)
        return full, full if pub is g else combine(*publics)
    raise EvalError("not a query node: %r" % (node,))
