"""The independent oracle of acceptance criterion 1.

Queries compile to disjuncts of atoms over constants and numbered variables
(variable 0 is the target); answers come from backtracking enumeration over
the vertex table, checking membership in the raw triple set only. It reads the
graph only through ``g.triples`` and ``g.num_vertices()`` and shares no code
with ``privkg.symbolic``'s walk; ``test_oracle_is_independent_of_the_walk``
holds it to that.
"""

from privkg.graph import FORWARD
from privkg.queries import Anchor, Intersection, Projection, QueryNode, Union
from privkg.symbolic import EvalError

ORACLE_VERTEX_LIMIT = 1000

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


def brute_force_oracle(g, q: QueryNode) -> frozenset[int]:
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
