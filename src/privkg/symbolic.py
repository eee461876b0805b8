"""Exact set-semantics query evaluation plus privacy-tagged evaluation.

One walk recurses over the query tree and the adjacency indices and yields
each answer set with its privacy-threatening part. ``evaluate_tagged``
splits it into public and private members; ``evaluate`` keeps the full set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import FULL, KnowledgeGraph, PUBLIC
from .queries import Anchor, Intersection, Projection, QueryNode, Union

RELAXED = "relaxed"
STRICT = "strict"
MODES = (RELAXED, STRICT)  # the answer modes, read by every check of a mode

_EMPTY = frozenset()


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class TaggedAnswerSet:
    """Answers split into publicly-derivable and privacy-threatening members."""
    public_members: frozenset[int]
    private_members: frozenset[int]

    def all_members(self) -> frozenset[int]:
        return self.public_members | self.private_members


def _image(g: KnowledgeGraph, members, rel, direction, view) -> frozenset[int]:
    out = set()
    for v in members:
        out |= g.neighbors(v, rel, direction, view)
    return frozenset(out)


def evaluate(g: KnowledgeGraph, q: QueryNode) -> frozenset[int]:
    """Answer set of ``q`` on ``g``, private triples included."""
    return _walk(g, q, RELAXED)[0]


def evaluate_tagged(g: KnowledgeGraph, q: QueryNode, mode: str = RELAXED) -> TaggedAnswerSet:
    """Evaluate with privacy tags.

    In both modes a projection result is public iff it is reachable from a
    public child member through at least one public triple. Strict mode
    additionally forces the whole image of the child's private members into
    the private side, even where publicly derivable.

    Intersection: public = intersection of children's public sets.
    Union: public = union of children's public sets. Private is always the
    rest of the full answer set.
    """
    if mode not in MODES:
        raise EvalError("mode must be %s, got %r" % (" or ".join(MODES), mode))
    full, priv = _walk(g, q, mode)
    return TaggedAnswerSet(public_members=full - priv, private_members=priv)


def _walk(g, node, mode):
    """(full, private) answer sets of ``node``; public = full - private."""
    if isinstance(node, Anchor):
        g.vertex_name(node.vertex)  # GraphError outside the vertex table, as in serialize
        return frozenset((node.vertex,)), _EMPTY
    if isinstance(node, Projection):
        child_full, child_priv = _walk(g, node.child, mode)
        full = _image(g, child_full, node.rel, node.direction, FULL)
        priv = _EMPTY
        if g.private:  # without private triples the public image is the full one
            priv = full - _image(g, child_full - child_priv, node.rel, node.direction, PUBLIC)
        if mode == STRICT:
            priv = priv | _image(g, child_priv, node.rel, node.direction, FULL)
        return full, priv
    if isinstance(node, (Intersection, Union)):
        combine = frozenset.intersection if isinstance(node, Intersection) else frozenset.union
        fulls, privs = zip(*[_walk(g, c, mode) for c in node.children])
        full = combine(*fulls)
        if not any(privs):
            return full, _EMPTY
        # public = the children's public parts, combined alike
        return full, full - combine(*map(frozenset.difference, fulls, privs))
    raise EvalError("not a query node: %r" % (node,))
