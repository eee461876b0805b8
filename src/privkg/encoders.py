"""Query encoders: a vector model (GQE-style), a box model (Q2B-style), and a
particle-set model (Q2P-style).

Every primitive maps a batch of rows (one per union-free DNF disjunct) to a
batch; disjuncts of one shape are encoded together by index-array gathers.
``log_probabilities`` is the one path from queries to target log-probabilities.
Backward projections use a dedicated inverse-relation row per relation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .graph import KnowledgeGraph
from .queries import BACKWARD, Anchor, Intersection, Projection, QueryNode, to_dnf

DEFAULT_DIM = 64
DEFAULT_PARTICLES = 3
DEFAULT_ALPHA = 0.02


class EncoderError(Exception):
    pass


class VectorEmbedding(NamedTuple):
    vec: Tensor  # (B, d)


class BoxEmbedding(NamedTuple):
    center: Tensor  # (B, d)
    offset: Tensor  # (B, d)


class ParticleEmbedding(NamedTuple):
    particles: Tensor  # (B, m, d); m grows at intersections (particle merge)


def _uniform(rng, shape, limit):
    return rng.uniform(-limit, limit, size=shape)


def _xavier(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _shape(node):
    """Hashable operator shape of a union-free query; equal shapes batch together."""
    if isinstance(node, Anchor):
        return "a"
    if isinstance(node, Projection):
        return ("p", _shape(node.child))
    if isinstance(node, Intersection):
        if len(node.children) < 2:
            raise EncoderError("intersection arity must be >= 2")
        return ("i",) + tuple(_shape(c) for c in node.children)
    raise EncoderError("not a union-free query node: %r" % (node,))


class Encoder:
    kind = "base"

    def __init__(self, graph: KnowledgeGraph, dim: int = DEFAULT_DIM, seed: int = 0,
                 n_particles: int = DEFAULT_PARTICLES, alpha: float = DEFAULT_ALPHA):
        self.graph = graph
        self.dim = dim
        self.n_particles = n_particles
        self.alpha = alpha
        self.store = ParameterStore()
        rng = np.random.default_rng(seed)
        self._build(rng)

    # -- subclass surface: every primitive maps B rows to B rows ---------------

    def _build(self, rng):
        raise NotImplementedError

    def anchor(self, ids):
        raise NotImplementedError

    def project(self, emb, rels, directions):
        raise NotImplementedError

    def intersect(self, embs: list):
        raise NotImplementedError

    def scores(self, emb) -> Tensor:
        """Scores of all vertices against each row, shape (B, nv)."""
        raise NotImplementedError

    def perturb(self, emb, rng, sigma: float):
        """Embedding with seeded isotropic Gaussian noise added (inference only).

        Draws row by row, field by field: a batch gets its rows' one-at-a-time noise."""
        draws = [[rng.normal(0.0, sigma, size=t.shape[1:]) for t in emb]
                 for _ in range(emb[0].shape[0])]
        return type(emb)(*(t + ad.Tensor(np.stack(noise))
                           for t, noise in zip(emb, zip(*draws))))

    # -- shared machinery -------------------------------------------------------

    def _rel_row(self, rels, directions) -> np.ndarray:
        return 2 * np.asarray(rels, dtype=np.intp) + (np.asarray(directions) == BACKWARD)

    def encode(self, q: QueryNode) -> list:
        """Embeddings of the DNF disjuncts, one per run of same-shaped ones.

        Concatenated, their rows are the disjuncts in DNF order."""
        return [self._encode_group(list(run))
                for _, run in itertools.groupby(to_dnf(q).disjuncts, key=_shape)]

    def _encode_group(self, nodes):
        """Encode same-shaped union-free nodes; one primitive call per operator."""
        first = nodes[0]
        if isinstance(first, Anchor):
            return self.anchor([n.vertex for n in nodes])
        if isinstance(first, Projection):
            return self.project(self._encode_group([n.child for n in nodes]),
                                [n.rel for n in nodes], [n.direction for n in nodes])
        return self.intersect([self._encode_group([n.children[k] for n in nodes])
                               for k in range(len(first.children))])

    def scores_all(self, embs: list) -> Tensor:
        """Scores of all vertices for one query; max over its disjunct rows."""
        s = ad.concat([self.scores(e) for e in embs], axis=0)
        return ad.reshape(s, s.shape[1:]) if s.shape[0] == 1 else ad.reduce_max(s, axis=0)

    def log_probabilities(self, queries: list, targets: list, rng=None,
                          candidate_sample: int = 0) -> Tensor:
        """Log-probability of every (query, target) pair, in query then target order.

        The disjuncts of all queries are grouped by shape, and each group is
        encoded and scored at once. A query scores a vertex by the max over
        its disjuncts, and one log-softmax per query normalises over all
        vertices, or, with ``candidate_sample`` > 0, over its targets plus
        that many vertices from ``rng.sample`` (one draw per query, in order)."""
        if not queries or len(queries) != len(targets):
            raise EncoderError("need one target list per query and at least one query")
        nv = self.graph.num_vertices()
        targets = [np.asarray(t, dtype=np.intp) for t in targets]
        picks = np.concatenate(targets)
        if ((picks < 0) | (picks >= nv)).any():
            raise EncoderError("target vertex id out of range")
        dnfs = [to_dnf(q).disjuncts for q in queries]
        flat = [d for ds in dnfs for d in ds]
        groups: dict = {}
        for i, d in enumerate(flat):
            groups.setdefault(_shape(d), []).append(i)
        parts = [self.scores(self._encode_group([flat[i] for i in idx])) for idx in groups.values()]
        scores = ad.concat(parts, axis=0) if len(parts) > 1 else parts[0]
        # row of `scores` for each query's j-th disjunct, padded by repeating its last:
        # the max is unchanged and its gradient still goes to the first maximal one
        counts = np.array([len(ds) for ds in dnfs])[:, None]
        slots = np.cumsum(counts)[:, None] - counts + np.minimum(np.arange(counts.max()), counts - 1)
        index = np.argsort(np.concatenate(list(groups.values())))[slots]
        if not np.array_equal(index, np.arange(len(queries))[:, None]):
            scores = ad.reduce_max(ad.rows(scores, index), axis=1)
        if candidate_sample > 0:
            mask = np.full((len(queries), nv), -np.inf)
            for i, t in enumerate(targets):
                mask[i, t] = 0.0
                mask[i, rng.sample(range(nv), min(candidate_sample, nv))] = 0.0
            scores = scores + ad.Tensor(mask)  # exp(-inf) = 0 outside the candidates
        logp = ad.reshape(ad.log_softmax(scores, axis=1), (-1,))
        owner = np.repeat(np.arange(len(queries)), [t.size for t in targets])
        return ad.rows(logp, owner * nv + picks)

    def post_step(self) -> None:
        """Hook applied after each optimizer step (constraint re-projection)."""

    # -- checkpointing ----------------------------------------------------------

    def manifest(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "n_particles": self.n_particles,
                "alpha": self.alpha, "n_vertices": self.graph.num_vertices(),
                "n_relations": len(self.graph.relations), **_vocabulary_digests(self.graph)}

    def save(self, path) -> None:
        self.store.save(path, header_extra=json.dumps(self.manifest(), sort_keys=True))


def _vocabulary_digests(graph: KnowledgeGraph) -> dict:
    """sha256 of the vertex names and of the relation (name, kind) pairs, in id order."""
    def digest(items):
        return hashlib.sha256(json.dumps(items).encode("utf-8")).hexdigest()
    return {"vertex_digest": digest(list(graph.vertex_names)),
            "relation_digest": digest([[r.name, r.kind] for r in graph.relations])}


def load_encoder(path, graph: KnowledgeGraph) -> "Encoder":
    with open(path, encoding="utf-8") as f:
        header = f.readline()
    manifest = json.loads(header[len("# privkg-params v1"):])
    if manifest["n_vertices"] != graph.num_vertices() or \
            manifest["n_relations"] != len(graph.relations):
        raise EncoderError("checkpoint vocabulary does not match the graph")
    for key, want in _vocabulary_digests(graph).items():
        if manifest.get(key) != want:
            raise EncoderError("checkpoint vocabulary does not match the graph: %s differs"
                               % key)
    model = make_encoder(manifest["kind"], graph, dim=manifest["dim"],
                         n_particles=manifest["n_particles"], alpha=manifest["alpha"])
    model.store.load(path)
    return model


# -- vector model (translation projection, FFN-pooled intersection) ----------


class GQEEncoder(Encoder):
    kind = "gqe"

    def _build(self, rng):
        nv, nr, d = self.graph.num_vertices(), len(self.graph.relations), self.dim
        limit = 1.0 / np.sqrt(d)
        self.ent = self.store.add("ent", _uniform(rng, (nv, d), limit))
        self.rel = self.store.add("rel", _uniform(rng, (2 * nr, d), limit))
        self.ffn_w = self.store.add("int.ffn_w", _xavier(rng, d, d))
        self.ffn_b = self.store.add("int.ffn_b", np.zeros(d))
        self.post_w = self.store.add("int.post_w", _xavier(rng, d, d))

    def anchor(self, ids):
        return VectorEmbedding(ad.rows(self.ent, ids))

    def project(self, emb, rels, directions):
        return VectorEmbedding(emb.vec + ad.rows(self.rel, self._rel_row(rels, directions)))

    def intersect(self, embs):
        stacked = ad.stack([e.vec for e in embs], axis=1)  # (B, k, d)
        hidden = ad.relu(ad.matmul(stacked, self.ffn_w) + self.ffn_b)
        pooled = ad.reduce_mean(hidden, axis=1)
        return VectorEmbedding(ad.matmul(pooled, self.post_w))

    def scores(self, emb):
        return -ad.distances(emb.vec, self.ent)


# -- box model ----------------------------------------------------------------


class Q2BEncoder(Encoder):
    kind = "q2b"

    def _build(self, rng):
        nv, nr, d = self.graph.num_vertices(), len(self.graph.relations), self.dim
        limit = 1.0 / np.sqrt(d)
        self.ent = self.store.add("ent", _uniform(rng, (nv, d), limit))
        self.rel_c = self.store.add("rel_c", _uniform(rng, (2 * nr, d), limit))
        # offsets stay elementwise >= 0: |uniform| init plus post-step clamping
        self.rel_o = self.store.add("rel_o", np.abs(_uniform(rng, (2 * nr, d), limit)))
        self.att_w1 = self.store.add("int.att_w1", _xavier(rng, 2 * d, d))
        self.att_b1 = self.store.add("int.att_b1", np.zeros(d))
        self.att_w2 = self.store.add("int.att_w2", _xavier(rng, d, d))
        self.att_b2 = self.store.add("int.att_b2", np.zeros(d))
        self.ds_w1 = self.store.add("int.ds_w1", _xavier(rng, 2 * d, d))
        self.ds_b1 = self.store.add("int.ds_b1", np.zeros(d))
        self.ds_w2 = self.store.add("int.ds_w2", _xavier(rng, d, d))
        self.ds_b2 = self.store.add("int.ds_b2", np.zeros(d))

    def anchor(self, ids):
        ent = ad.rows(self.ent, ids)
        return BoxEmbedding(ent, ad.Tensor(np.zeros(ent.shape)))

    def project(self, emb, rels, directions):
        rows = self._rel_row(rels, directions)
        return BoxEmbedding(emb.center + ad.rows(self.rel_c, rows),
                            emb.offset + ad.rows(self.rel_o, rows))

    def intersect(self, embs):
        centers = ad.stack([e.center for e in embs], axis=1)  # (B, k, d)
        offsets = ad.stack([e.offset for e in embs], axis=1)
        full = ad.concat([centers, offsets], axis=2)
        # per-dimension attention over the input boxes
        logits = ad.matmul(ad.relu(ad.matmul(full, self.att_w1) + self.att_b1),
                           self.att_w2) + self.att_b2
        weights = ad.softmax(logits, axis=1)
        new_center = ad.reduce_sum(weights * centers, axis=1)
        # DeepSets({q_k}) = MLP(mean_k MLP(q_k)); sigmoid keeps the shrink in (0, 1)
        inner = ad.reduce_mean(ad.relu(ad.matmul(full, self.ds_w1) + self.ds_b1), axis=1)
        shrink = ad.sigmoid(ad.matmul(inner, self.ds_w2) + self.ds_b2)
        min_offset = ad.reduce_min(offsets, axis=1)
        return BoxEmbedding(new_center, min_offset * shrink)

    def scores(self, emb):
        return -ad.box_distances(emb.center, emb.offset, self.ent, self.alpha)

    def perturb(self, emb, rng, sigma):
        center, offset = super().perturb(emb, rng, sigma)
        return BoxEmbedding(center, ad.relu(offset))

    def post_step(self):
        np.maximum(self.rel_o.data, 0.0, out=self.rel_o.data)


# -- particle model --------------------------------------------------------------


class Q2PEncoder(Encoder):
    kind = "q2p"

    def _build(self, rng):
        nv, nr, d, k = (self.graph.num_vertices(), len(self.graph.relations),
                        self.dim, self.n_particles)
        limit = 1.0 / np.sqrt(d)
        self.ent = self.store.add("ent", _uniform(rng, (nv, d), limit))
        self.rel = self.store.add("rel", _uniform(rng, (2 * nr, d), limit))
        # per-particle offsets break the symmetry of duplicated anchor particles
        self.part_init = self.store.add("part_init", _uniform(rng, (k, d), limit))
        for gate in ("z", "r", "h"):
            self.store.add("proj.w_%s" % gate, _xavier(rng, d, d))
            self.store.add("proj.u_%s" % gate, _xavier(rng, d, d))
            self.store.add("proj.b_%s" % gate, np.zeros(d))
        for name in ("proj.att_q", "proj.att_k", "proj.att_v",
                     "int.att_q", "int.att_k", "int.att_v"):
            self.store.add(name, _xavier(rng, d, d))
        self.store.add("int.mlp_w1", _xavier(rng, d, d))
        self.store.add("int.mlp_b1", np.zeros(d))
        self.store.add("int.mlp_w2", _xavier(rng, d, d))
        self.store.add("int.mlp_b2", np.zeros(d))

    def anchor(self, ids):
        return ParticleEmbedding(self.part_init + ad.reshape(ad.rows(self.ent, ids), (-1, 1, self.dim)))

    def project(self, emb, rels, directions):
        s = self.store
        p = emb.particles  # (B, m, d)
        e = ad.reshape(ad.rows(self.rel, self._rel_row(rels, directions)), (-1, 1, self.dim))
        update = ad.sigmoid(ad.matmul(e, s["proj.w_z"]) + ad.matmul(p, s["proj.u_z"]) + s["proj.b_z"])
        reset = ad.sigmoid(ad.matmul(e, s["proj.w_r"]) + ad.matmul(p, s["proj.u_r"]) + s["proj.b_r"])
        cand = ad.tanh(ad.matmul(e, s["proj.w_h"]) + ad.matmul(reset * p, s["proj.u_h"]) + s["proj.b_h"])
        gated = (ad.subtract(1.0, update)) * p + update * cand
        moved = ad.attention(ad.matmul(gated, s["proj.att_q"]),
                             ad.matmul(gated, s["proj.att_k"]),
                             ad.matmul(gated, s["proj.att_v"]))
        return ParticleEmbedding(moved)

    def intersect(self, embs):
        s = self.store
        merged = ad.concat([e.particles for e in embs], axis=1)
        mixed = ad.attention(ad.matmul(merged, s["int.att_q"]),
                             ad.matmul(merged, s["int.att_k"]),
                             ad.matmul(merged, s["int.att_v"]))
        hidden = ad.relu(ad.matmul(mixed, s["int.mlp_w1"]) + s["int.mlp_b1"])
        return ParticleEmbedding(ad.matmul(hidden, s["int.mlp_w2"]) + s["int.mlp_b2"])

    def scores(self, emb):
        b, m, d = emb.particles.shape
        dists = ad.distances(ad.reshape(emb.particles, (b * m, d)), self.ent)
        return -ad.reduce_min(ad.reshape(dists, (b, m, -1)), axis=1)  # max over particles


ENCODERS = {"gqe": GQEEncoder, "q2b": Q2BEncoder, "q2p": Q2PEncoder}


def make_encoder(kind: str, graph: KnowledgeGraph, dim: int = DEFAULT_DIM, seed: int = 0,
                 n_particles: int = DEFAULT_PARTICLES, alpha: float = DEFAULT_ALPHA) -> Encoder:
    try:
        cls = ENCODERS[kind]
    except KeyError:
        raise EncoderError("unknown encoder kind %r (expected gqe, q2b, or q2p)" % kind) from None
    return cls(graph, dim=dim, seed=seed, n_particles=n_particles, alpha=alpha)
