"""The query sampler as it was written per template family: a projection
chain, a set of distinct one-hop branches, and one branch of
``_sample_template`` per family. ``benchmark._sample_template`` walks each
template's shape instead and must draw the same queries from the same
generator; ``test_benchmark.py`` compares the two."""

from privkg.benchmark import BenchmarkError, _step_choices
from privkg.queries import Anchor, Intersection, Projection, Union


def _sample_chain(g, v, length, rng):
    """Projection chain of the given length whose answers include v."""
    steps = []
    current = v
    for _ in range(length):
        choices = _step_choices(g, current)
        if not choices:
            return None
        direction, rel, current = rng.choice(choices)
        steps.append((direction, rel))
    node = Anchor(current)
    for direction, rel in reversed(steps):
        node = Projection(rel, direction, node)
    return node


def _sample_branches(g, v, count, rng):
    """Distinct 1p branches all answering v."""
    choices = _step_choices(g, v)
    if len(choices) < count:
        return None
    picked = rng.sample(choices, count)
    return tuple(Projection(rel, direction, Anchor(u)) for direction, rel, u in picked)


def _sample_template(g, qtype, rng, vertices):
    """One attempt; ``vertices`` is ``g.incident_vertices()``."""
    if not vertices:
        return None
    v = rng.choice(vertices)
    if qtype in ("1p", "2p"):
        return _sample_chain(g, v, 1 if qtype == "1p" else 2, rng)
    if qtype in ("2i", "3i", "2u"):
        branches = _sample_branches(g, v, 3 if qtype == "3i" else 2, rng)
        return (Union if qtype == "2u" else Intersection)(branches) if branches else None
    if qtype == "pi":
        two = _sample_chain(g, v, 2, rng)
        one = _sample_branches(g, v, 1, rng)
        if two is None or one is None:
            return None
        return Intersection((two, one[0]))
    if qtype in ("ip", "up"):
        choices = _step_choices(g, v)
        if not choices:
            return None
        direction, rel, mid = rng.choice(choices)
        branches = _sample_branches(g, mid, 2, rng)
        if branches is None:
            return None
        return Projection(rel, direction, (Union if qtype == "up" else Intersection)(branches))
    raise BenchmarkError("unknown query type %r" % qtype)
