"""Exact set-semantics query evaluation plus privacy-tagged evaluation.

One walk goes bottom-up over the query DAG and the adjacency indices and
yields each answer set with its privacy-threatening part. ``evaluate_tagged``
splits it into public and private members; ``evaluate`` keeps the full set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import KnowledgeGraph
from .queries import Anchor, Intersection, Projection, QueryNode, Union

RELAXED = "relaxed"
STRICT = "strict"

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
    return _evaluate_tagged(g, q, RELAXED, {})[0]


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
    if mode not in (RELAXED, STRICT):
        raise EvalError("mode must be relaxed or strict, got %r" % mode)
    full, priv = _evaluate_tagged(g, q, mode, {})
    return TaggedAnswerSet(public_members=full - priv, private_members=priv)


# The walk is a module-level function that takes the memo as an argument: a
# nested function that calls itself is a reference cycle, and every call would
# leave its memo and closure for the cyclic garbage collector. The memo is
# keyed by id(node): a frozen dataclass hashes its whole subtree on every
# lookup, and the query holds every node alive for the whole call.


def _evaluate_tagged(g, node, mode, memo):
    """(full, private) answer sets of ``node``; public = full - private."""
    if id(node) in memo:
        return memo[id(node)]
    if isinstance(node, Anchor):
        result = (frozenset((node.vertex,)), _EMPTY)
    elif isinstance(node, Projection):
        child_full, child_priv = _evaluate_tagged(g, node.child, mode, memo)
        full = _image(g, child_full, node.rel, node.direction, "full")
        priv = _EMPTY
        if g.private:  # without private triples the public image is the full one
            priv = full - _image(g, child_full - child_priv, node.rel, node.direction, "public")
        if mode == STRICT:
            priv = priv | _image(g, child_priv, node.rel, node.direction, "full")
        result = (full, priv)
    elif isinstance(node, (Intersection, Union)):
        combine = frozenset.intersection if isinstance(node, Intersection) else frozenset.union
        fulls, privs = zip(*[_evaluate_tagged(g, c, mode, memo) for c in node.children])
        full = combine(*fulls)
        priv = _EMPTY
        if any(privs):  # public = the children's public parts, combined alike
            priv = full - combine(*map(frozenset.difference, fulls, privs))
        result = (full, priv)
    else:
        raise EvalError("not a query node: %r" % (node,))
    memo[id(node)] = result
    return result
