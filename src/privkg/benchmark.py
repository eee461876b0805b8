"""Benchmark construction: private-edge sampling, the 8:1:1 cumulative edge
split, query sampling by one backward walk along each template's shape in
``queries.TEMPLATES``, and flat-file emission.

The one-hop branches of an intersection or a union are distinct edges, drawn
together. Sampling is seeded; each template has its own generator.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .graph import (BACKWARD, FORWARD, EdgeSet, GraphError, GraphSplit, KnowledgeGraph,
                    check_fields, read_tsv)
from .queries import (OTHER, QUERY_TYPES, TEMPLATES, Anchor, Intersection, Projection,
                      QueryError, QueryNode, Union, classify_type, parse_query, serialize)
from .symbolic import MODES, RELAXED, TaggedAnswerSet, evaluate, evaluate_tagged

RETRY_BUDGET = 100


class BenchmarkError(Exception):
    pass


@dataclass(frozen=True)
class BenchmarkQuery:
    query: QueryNode
    qtype: str
    train_answers: frozenset[int]
    valid_answers: frozenset[int]
    test_answers: TaggedAnswerSet


def sample_private_edges(g: KnowledgeGraph, n: int, seed: int) -> EdgeSet:
    """Uniform seeded sample of n attribute triples."""
    attrs = g.attribute_triples()
    if not 0 <= n <= len(attrs):
        raise BenchmarkError("requested %d private edges; n must be in [0, %d], the number"
                             " of attribute triples" % (n, len(attrs)))
    # the draws depend only on len(attrs) and n; keys are in sorted triple order
    return EdgeSet(np.sort(attrs.keys[random.Random(seed).sample(range(len(attrs)), n)]),
                   attrs.space)


def split_edges(g: KnowledgeGraph, private, seed: int) -> GraphSplit:
    """8:1:1 split of the non-private edges into cumulative graphs.

    Private edges appear only in the test graph, flagged private."""
    private = g.edge_set(private)
    attrs = g.attribute_triples()
    if not private <= attrs:
        raise BenchmarkError("private set must be attribute triples of the graph: %r"
                             % (next(iter(private - attrs)),))
    remaining = (g.triples - private).keys  # in sorted triple order
    n = len(remaining)
    # shuffle draws depend only on n, so this permutes as shuffling the
    # sorted triples themselves would
    order = list(range(n))
    random.Random(seed).shuffle(order)
    shuffled = remaining[order]
    n_train = round(n * 0.8)
    n_valid = round(n * 0.1)
    return GraphSplit(
        train=g.with_triples(EdgeSet(np.sort(shuffled[:n_train]), g.triples.space)),
        valid=g.with_triples(EdgeSet(np.sort(shuffled[:n_train + n_valid]), g.triples.space)),
        test=g.with_triples(g.triples, private=private),
    )


# -- query sampling -------------------------------------------------------


def _step_choices(g: KnowledgeGraph, v: int):
    """Edges incident to v, each expressed as a projection step landing on v.

    Incoming (u, r, v) -> forward projection from u; outgoing (v, r, x) ->
    backward projection from x."""
    rels = range(len(g.relations))
    return sorted([(FORWARD, r, u) for r in rels for u in g.neighbors(v, r, BACKWARD)] +
                  [(BACKWARD, r, x) for r in rels for x in g.neighbors(v, r, FORWARD)])


# the shape each template is sampled from: pi's first, chain-first shape wins
_SHAPES = {name: shape for shape, name in reversed(TEMPLATES.items())}


def _sample_shape(g, shape, v, rng):
    """A query of ``shape`` whose answers include v, by a backward walk from v;
    None at a vertex with too few edges. An intersection or union walks its
    other children first, then draws its one-hop children as distinct edges."""
    if shape == "a":
        return Anchor(v)
    choices = _step_choices(g, v)
    if shape[0] == "p":
        if not choices:
            return None
        direction, rel, u = rng.choice(choices)
        child = _sample_shape(g, shape[1], u, rng)
        return None if child is None else Projection(rel, direction, child)
    walked = [_sample_shape(g, s, v, rng) for s in shape[1:] if s != ("p", "a")]
    hops = len(shape) - 1 - len(walked)
    if len(choices) < hops:
        return None
    picked = iter([Projection(rel, d, Anchor(u)) for d, rel, u in rng.sample(choices, hops)])
    if None in walked:
        return None
    walked = iter(walked)
    children = tuple(next(picked if s == ("p", "a") else walked) for s in shape[1:])
    return (Intersection if shape[0] == "i" else Union)(children)


def _sample_template(g, qtype, rng, vertices):
    """One attempt; ``vertices`` is ``g.incident_vertices()``."""
    if not vertices:
        return None
    return _sample_shape(g, _SHAPES[qtype], rng.choice(vertices), rng)


def sample_queries(split: GraphSplit, qtype: str, n: int, seed: int,
                   mode: str = RELAXED) -> list[BenchmarkQuery]:
    """Sample n distinct queries of one template.

    Structures come from backward walks on the test graph (private edges
    included), so every query has at least one test answer. Train and
    validation answers are searched on their own graphs.
    """
    if qtype not in QUERY_TYPES:
        raise BenchmarkError("unknown query type %r" % qtype)
    if n < 0:
        raise BenchmarkError("requested %d queries; n must be non-negative" % n)
    if mode not in MODES:
        raise BenchmarkError("mode must be %s, got %r" % (" or ".join(MODES), mode))
    # string seeds hash via sha512, stable across interpreter runs
    rng = random.Random("%d:%s" % (seed, qtype))
    out: list[BenchmarkQuery] = []
    seen: set[QueryNode] = set()
    failures = 0
    vertices = split.test.incident_vertices()
    while len(out) < n:
        q = _sample_template(split.test, qtype, rng, vertices)
        if q is None or q in seen or classify_type(q) != qtype:
            failures += 1
            if failures > RETRY_BUDGET:
                raise BenchmarkError("sampler exhausted retry budget for %s "
                                     "(graph too sparse after %d queries)" % (qtype, len(out)))
            continue
        failures = 0
        seen.add(q)
        out.append(BenchmarkQuery(
            query=q,
            qtype=qtype,
            train_answers=evaluate(split.train, q),
            valid_answers=evaluate(split.valid, q),
            test_answers=evaluate_tagged(split.test, q, mode),
        ))
    return out


# -- statistics -------------------------------------------------------------


def format_stats(queries: list[BenchmarkQuery]) -> str:
    """The stats.tsv table: per query type (``OTHER`` last, if present) and over all
    queries, the number of queries and of their public and private test answers."""
    counts = defaultdict(lambda: [0, 0, 0])
    for bq in queries:
        c = counts[bq.qtype]
        c[0] += 1
        c[1] += len(bq.test_answers.public_members)
        c[2] += len(bq.test_answers.private_members)
    types = QUERY_TYPES + ((OTHER,) if OTHER in counts else ())
    lines = ["\t".join(["Answers", *types, "All"])]
    for i, label in enumerate(("Queries", "Public", "Private")):
        row = [counts[t][i] for t in types] + [sum(c[i] for c in counts.values())]
        lines.append("\t".join([label, *map(str, row)]))
    return "\n".join(lines) + "\n"


# -- flat files --------------------------------------------------------------
#
# One line per query: QUERY_SEXPR \t TRAIN \t VALID \t TEST_PUBLIC \t TEST_PRIVATE
# with comma-separated, sorted vertex names (empty field = empty set).


def _names(g, members) -> str:
    names = sorted(g.vertex_name(v) for v in members)
    for name in names:
        if not name or "," in name:
            raise BenchmarkError("vertex name %r cannot be written in an answer field: it is"
                                 " empty or holds a comma" % name)
    check_fields(names, BenchmarkError)
    return ",".join(names)


def query_line(bq: BenchmarkQuery, g: KnowledgeGraph) -> str:
    test = bq.test_answers
    answers = (bq.train_answers, bq.valid_answers, test.public_members, test.private_members)
    return "\t".join([serialize(bq.query, g), *(_names(g, members) for members in answers)])


def write_benchmark(path, queries: list[BenchmarkQuery], g: KnowledgeGraph) -> None:
    text = "".join(query_line(bq, g) + "\n" for bq in queries)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def read_benchmark(path, g: KnowledgeGraph) -> list[BenchmarkQuery]:
    """The queries of one benchmark file; a name ``g`` lacks is refused with
    the file and line that hold it."""
    def vset(field):
        return frozenset(g.vertex_id(n) for n in field.split(",") if n)

    out = []
    fields, linenos = read_tsv(path, 5, "benchmark", linenos=True)
    for lineno, (query, train, valid, public, private) in zip(linenos, zip(*[iter(fields)] * 5)):
        try:
            q = parse_query(query, g)
            out.append(BenchmarkQuery(q, classify_type(q), vset(train), vset(valid),
                                      TaggedAnswerSet(vset(public), vset(private))))
        except (GraphError, QueryError) as exc:
            raise BenchmarkError("%s line %d: %s" % (path, lineno, exc)) from None
    return out


def validation_subset(queries: list[BenchmarkQuery]) -> list[BenchmarkQuery]:
    """Queries with at least one validation answer beyond their train answers."""
    return [bq for bq in queries if bq.valid_answers - bq.train_answers]


def training_subset(queries: list[BenchmarkQuery]) -> list[BenchmarkQuery]:
    return [bq for bq in queries if bq.train_answers]
