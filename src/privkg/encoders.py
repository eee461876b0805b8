"""Query encoders: a vector model (GQE-style), a box model (Q2B-style), and a
particle-set model (Q2P-style).

Every primitive maps a batch of rows (one per union-free DNF disjunct) to a
batch; disjuncts of one shape are encoded together by index-array gathers.
``log_probabilities`` is the one path from queries, and one-hop index arrays,
to target log-probabilities: one ``scores`` call per embedding width, one tail.
Backward projections use a dedicated inverse-relation row per relation.
"""

from __future__ import annotations

import itertools
import json
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .graph import KnowledgeGraph, vocabulary_digests
from .queries import BACKWARD, Anchor, Projection, QueryNode

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


class Encoder:
    """Each subclass names its ``kind``: its key in ``ENCODERS`` and in checkpoints."""

    def __init__(self, graph: KnowledgeGraph, dim: int = DEFAULT_DIM, seed: int = 0,
                 n_particles: int = DEFAULT_PARTICLES):
        if dim < 1 or n_particles < 1:
            raise EncoderError("dim and n_particles must be >= 1, got %r and %r"
                               % (dim, n_particles))
        self.graph = graph
        self.dim = dim
        self.n_particles = n_particles
        self.store = ParameterStore()
        rng = np.random.default_rng(seed)  # every encoder draws its entity table first
        self.ent = self.store.add("ent", _uniform(rng, (graph.num_vertices(), dim), 1 / np.sqrt(dim)))
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

        One draw per batch, row by row and within a row field by field, so a batch
        gets its rows' one-at-a-time noise; slice k of the draw goes to field k."""
        noise = rng.normal(0.0, sigma, size=(emb[0].shape[0], len(emb)) + emb[0].shape[1:])
        return type(emb)(*(t + ad.Tensor(noise[:, k]) for k, t in enumerate(emb)))

    # -- shared machinery -------------------------------------------------------

    def _rel_row(self, rels, directions) -> np.ndarray:
        return 2 * np.asarray(rels, dtype=np.intp) + (np.asarray(directions) == BACKWARD)

    def _in_table(self, ids: list, name) -> list:
        name(min(ids)), name(max(ids))  # the graph's refusal of an id outside its table
        return ids

    def encode(self, q: QueryNode) -> list:
        """Embeddings of the DNF disjuncts, one per shape (``_encode_groups``)."""
        return [emb for _, emb in self._encode_groups(q.disjuncts)]

    def _encode_groups(self, nodes, hops=None):
        """(indices, embedding) per shape of ``nodes``, in order of first appearance; the
        terms of ``hops`` (indices len(nodes) on) follow the (p a) nodes, or come last."""
        groups: dict = {}
        for i, node in enumerate(nodes):
            groups.setdefault(node.signature, []).append(i)
        n = len(nodes)
        if hops and len(hops[0]):
            groups.setdefault(("p", "a"), []).extend(range(n, n + len(hops[0])))
        for idx in groups.values():
            group = [nodes[i] for i in idx if i < n]
            if idx[-1] < n:
                yield idx, self._encode_group(group)
                continue
            fields = ([g.child.vertex for g in group], [g.rel for g in group],
                      [g.direction for g in group])
            anchor, rel, direction = (f + h.tolist() for f, h in zip(fields, hops))
            yield idx, self.project(self.anchor(self._in_table(anchor, self.graph.vertex_name)),
                                    self._in_table(rel, self.graph.relation_name), direction)

    def _encode_group(self, nodes):
        """Encode same-shaped union-free nodes; one primitive call per operator."""
        first = nodes[0]
        if isinstance(first, Anchor):
            return self.anchor(self._in_table([n.vertex for n in nodes], self.graph.vertex_name))
        if isinstance(first, Projection):
            return self.project(self._encode_group([n.child for n in nodes]),
                                self._in_table([n.rel for n in nodes], self.graph.relation_name),
                                [n.direction for n in nodes])
        return self.intersect([self._encode_group([n.children[k] for n in nodes])
                               for k in range(len(first.children))])

    def scores_all(self, embs: list) -> Tensor:
        """Scores of all vertices for one query; max over its disjunct rows."""
        s = ad.concat([self.scores(e) for e in embs], axis=0)
        return ad.reshape(s, s.shape[1:]) if s.shape[0] == 1 else ad.reduce_max(s, axis=0)

    def log_probabilities(self, queries: list, targets: list, rng=None,
                          candidate_sample: int = 0, hops=None) -> Tensor:
        """Log-probability of every (query, target) pair, in query then target
        order, then of each one-hop term k of ``hops`` (arrays anchor, relation,
        direction, target): that of ``target[k]`` from ``anchor[k]``.

        Disjuncts and hops are encoded in shape groups (``_encode_groups``), each
        width scored by one ``scores`` call; ``ad.segment_log_softmax`` takes each
        query's max over its disjunct rows and its log-softmax over all vertices,
        or with ``candidate_sample`` > 0 (queries, not hops) over its targets plus
        that many vertices from ``rng.sample`` (one draw per query, in order)."""
        if not queries or len(queries) != len(targets):
            raise EncoderError("need one target list per query and at least one query")
        nv, nq, n_hops = self.graph.num_vertices(), len(queries), len(hops[0]) if hops else 0
        sizes = [len(t) for t in targets] + [1] * n_hops
        picks = np.fromiter(itertools.chain(*targets, hops[3] if n_hops else ()), dtype=np.intp)
        if ((picks < 0) | (picks >= nv)).any():
            raise EncoderError("target vertex id out of range")
        owner = np.repeat(np.arange(len(sizes)), sizes)
        dnfs = [q.disjuncts for q in queries]
        widths: dict = {}  # per-row field shapes -> (disjunct indices, embeddings)
        for idx, emb in self._encode_groups([d for ds in dnfs for d in ds], hops):
            order, embs = widths.setdefault(tuple(t.shape[1:] for t in emb), ([], []))
            order.extend(idx)
            embs.append(emb)
        parts = [self.scores(embs[0] if len(embs) == 1 else
                             type(embs[0])(*(ad.concat(f, axis=0) for f in zip(*embs))))
                 for _, embs in widths.values()]
        scores = ad.concat(parts, axis=0) if len(parts) > 1 else parts[0]
        # score row of each disjunct, in query order
        index = np.argsort(np.concatenate([order for order, _ in widths.values()]))
        mask = None
        if candidate_sample > 0:
            mask = np.zeros((len(sizes), nv))
            mask[:nq] = -np.inf  # exp(-inf) = 0 outside the candidates
            mask[owner, picks] = 0.0
            for i in range(nq):
                mask[i, rng.sample(range(nv), min(candidate_sample, nv))] = 0.0
        return ad.segment_log_softmax(scores, index, [len(ds) for ds in dnfs] + [1] * n_hops,
                                      owner, picks, mask)

    def post_step(self) -> None:
        """Hook applied after each optimizer step (constraint re-projection)."""

    # -- checkpointing ----------------------------------------------------------

    def manifest(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "n_particles": self.n_particles,
                **vocabulary_digests(self.graph.relations, self.graph.vertex_names)}

    def save(self, path) -> None:
        self.store.save(path, header_extra=json.dumps(self.manifest(), sort_keys=True))


def load_encoder(path, graph: KnowledgeGraph) -> "Encoder":
    try:
        with open(path, encoding="utf-8") as f:
            header = ad.read_checkpoint_header(f)
        try:
            manifest = json.loads(header)
        except json.JSONDecodeError as exc:
            raise EncoderError("checkpoint header is not JSON (%s)" % exc) from None
        if not isinstance(manifest, dict):
            raise EncoderError("checkpoint header is not a JSON object")
        for key, want in (("kind", str), ("dim", int), ("n_particles", int)):
            if type(manifest.get(key)) is not want:
                raise EncoderError("checkpoint header field %r is missing or not a %s"
                                   % (key, want.__name__))
        for key, want in vocabulary_digests(graph.relations, graph.vertex_names).items():
            if manifest.get(key) != want:
                raise EncoderError("checkpoint vocabulary does not match the graph: %s differs"
                                   % key)
        model = make_encoder(manifest["kind"], graph, dim=manifest["dim"],
                             n_particles=manifest["n_particles"])
        model.store.load(path)
    except (EncoderError, ad.AutodiffError) as exc:  # every refusal names the file
        raise EncoderError("%s: %s" % (path, exc)) from None
    return model


# -- vector model (translation projection, FFN-pooled intersection) ----------


class GQEEncoder(Encoder):
    kind = "gqe"

    def _build(self, rng):
        nr, d = len(self.graph.relations), self.dim
        limit = 1.0 / np.sqrt(d)
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
    alpha = DEFAULT_ALPHA

    def _build(self, rng):
        nr, d = len(self.graph.relations), self.dim
        limit = 1.0 / np.sqrt(d)
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
        nr, d, k = len(self.graph.relations), self.dim, self.n_particles
        limit = 1.0 / np.sqrt(d)
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


ENCODERS = {cls.kind: cls for cls in (GQEEncoder, Q2BEncoder, Q2PEncoder)}


def make_encoder(kind: str, graph: KnowledgeGraph, dim: int = DEFAULT_DIM, seed: int = 0,
                 n_particles: int = DEFAULT_PARTICLES) -> Encoder:
    if kind not in ENCODERS:
        raise EncoderError("unknown encoder kind %r (expected %s)" % (kind, " or ".join(ENCODERS)))
    return ENCODERS[kind](graph, dim=dim, seed=seed, n_particles=n_particles)
