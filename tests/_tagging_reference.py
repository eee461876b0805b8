"""Privacy tagging as it was written before the walk over a graph and its
public view: each node yields its full answer set and its private part, and
``public = full - private``. It reads the graph only as the rows of
``g.triples`` and ``g.private``, not through ``neighbors`` or ``public_view``;
``test_symbolic.py`` compares ``evaluate_tagged`` and ``evaluate`` with it."""

from privkg.graph import BACKWARD, FORWARD
from privkg.queries import Anchor, Intersection, Projection
from privkg.symbolic import STRICT


def _adjacency(rows) -> dict:
    """(rel, direction, source) -> the set of targets, from (head, rel, tail) rows."""
    out: dict = {}
    for h, r, t in rows:
        out.setdefault((r, FORWARD, h), set()).add(t)
        out.setdefault((r, BACKWARD, t), set()).add(h)
    return out


def reference_tagged(g, q, mode) -> tuple[frozenset, frozenset]:
    """(full, private) answer sets of ``q`` on ``g`` in ``mode``.

    Projection: private is the part of the full image not reached through a
    public triple from a public child member; strict mode adds the whole image
    of the child's private members. Intersection and union: private is the full
    set less the children's public parts, combined alike."""
    triples = set(map(tuple, g.triples.rows().tolist()))
    private = set(map(tuple, g.private.rows().tolist()))
    full_adj, public_adj = _adjacency(triples), _adjacency(triples - private)

    def image(adj, members, node):
        return frozenset(x for v in members for x in adj.get((node.rel, node.direction, v), ()))

    def walk(node):
        if isinstance(node, Anchor):
            return frozenset((node.vertex,)), frozenset()
        if isinstance(node, Projection):
            child_full, child_priv = walk(node.child)
            full = image(full_adj, child_full, node)
            priv = full - image(public_adj, child_full - child_priv, node)
            if mode == STRICT:
                priv |= image(full_adj, child_priv, node)
            return full, priv
        combine = frozenset.intersection if isinstance(node, Intersection) else frozenset.union
        fulls, privs = zip(*map(walk, node.children))
        full = combine(*fulls)
        return full, full - combine(*map(frozenset.difference, fulls, privs))

    return walk(q)
