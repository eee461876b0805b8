"""Exact set-semantics query evaluation plus privacy-tagged evaluation.

One walk goes bottom-up over the query DAG and the adjacency indices and
yields each answer set with its privacy-threatening part. ``evaluate_tagged``
splits it into public and private members; ``evaluate`` keeps the full set.
``brute_force_oracle`` re-derives answers by enumerating variable assignments
over the raw triple set and shares no code with the traversal path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import FORWARD, KnowledgeGraph
from .queries import Anchor, Intersection, Projection, QueryNode, Union

RELAXED = "relaxed"
STRICT = "strict"

ORACLE_VERTEX_LIMIT = 1000

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


# -- independent oracle -------------------------------------------------------
#
# Queries compile to disjuncts of atoms over constants and numbered variables
# (variable 0 is the target); answers come from backtracking enumeration over
# the vertex table, checking membership in the raw triple set only.

CONST = "const"
VAR = "var"


def _compile(node, out_term, fresh):
    """Return a list of (atoms, equalities) pairs, one per disjunct.

    atom: (head_term, rel, tail_term); equality: (var_index, vertex)."""
    if isinstance(node, Anchor):
        if out_term[0] == VAR:
            return [([], [(out_term[1], node.vertex)])]
        return [([], [])] if out_term[1] == node.vertex else []
    if isinstance(node, Projection):
        if isinstance(node.child, Anchor):
            child_term = (CONST, node.child.vertex)
            child_disjuncts = [([], [])]
        else:
            child_term = (VAR, fresh[0])
            fresh[0] += 1
            child_disjuncts = _compile(node.child, child_term, fresh)
        if node.direction == FORWARD:
            atom = (child_term, node.rel, out_term)
        else:
            atom = (out_term, node.rel, child_term)
        return [(atoms + [atom], eqs) for atoms, eqs in child_disjuncts]
    if isinstance(node, Intersection):
        combos = [([], [])]
        for child in node.children:
            child_disjuncts = _compile(child, out_term, fresh)
            combos = [(a1 + a2, e1 + e2)
                      for a1, e1 in combos for a2, e2 in child_disjuncts]
        return combos
    if isinstance(node, Union):
        out = []
        for child in node.children:
            out.extend(_compile(child, out_term, fresh))
        return out
    raise EvalError("not a query node: %r" % (node,))


def brute_force_oracle(g: KnowledgeGraph, q: QueryNode) -> frozenset[int]:
    """Enumerate all assignments of the query's variables; collect targets."""
    if g.num_vertices() > ORACLE_VERTEX_LIMIT:
        raise EvalError("oracle guard: graph has %d vertices (limit %d)"
                        % (g.num_vertices(), ORACLE_VERTEX_LIMIT))
    fresh = [1]  # variable 0 is the target
    disjuncts = _compile(q, (VAR, 0), fresh)
    nvars = fresh[0]
    vertices = range(g.num_vertices())
    triples = set(map(tuple, g.triples.rows().tolist()))
    answers: set[int] = set()

    def term_value(term, assignment):
        return term[1] if term[0] == CONST else assignment.get(term[1])

    for atoms, eqs in disjuncts:
        assignment: dict[int, int] = {}
        pinned = {}
        consistent = True
        for var, vertex in eqs:
            if pinned.get(var, vertex) != vertex:
                consistent = False
                break
            pinned[var] = vertex
        if not consistent:
            continue

        # an atom is checked once, at the level where its last variable binds
        def atom_level(atom):
            h, _, t = atom
            level = -1
            if h[0] == VAR:
                level = max(level, h[1])
            if t[0] == VAR:
                level = max(level, t[1])
            return level

        buckets: dict[int, list] = {}
        ground_ok = True
        for atom in atoms:
            level = atom_level(atom)
            if level < 0:
                h, r, t = atom
                if (h[1], r, t[1]) not in triples:
                    ground_ok = False
                    break
            else:
                buckets.setdefault(level, []).append(atom)
        if not ground_ok:
            continue

        def check_level(i, assignment):
            for h, r, t in buckets.get(i, ()):
                if (term_value(h, assignment), r, term_value(t, assignment)) not in triples:
                    return False
            return True

        def enumerate_var(i, assignment):
            if i == nvars:
                answers.add(assignment[0])
                return
            domain = (pinned[i],) if i in pinned else vertices
            for v in domain:
                assignment[i] = v
                if check_level(i, assignment):
                    enumerate_var(i + 1, assignment)
            del assignment[i]

        enumerate_var(0, assignment)
    return frozenset(answers)
