"""Independent references for the benchmark's output checks.

``GQEReference`` re-implements GQE training in plain numpy: its own
disjunctive normal form, forward pass, hand-written gradients and Adam. It
shares no code with privkg's tape, so it runs in lockstep with a training
run and a wrong gradient or update makes the two loss trajectories part.

``sort_rank`` re-derives a filtered pessimistic rank by sorting, as the
metric-oracle acceptance criterion does.
"""

from __future__ import annotations

import numpy as np

from privkg.queries import Anchor, Intersection, Projection, Union

GQE_PARAMS = ("ent", "rel", "int.ffn_w", "int.ffn_b", "int.post_w")
CHUNK = 16  # query vectors scored at a time


def sort_rank(scores: np.ndarray, target: int, filter_out) -> int:
    """1 + the number of unfiltered other vertices scoring >= the target."""
    keep = np.ones(scores.size, dtype=bool)
    keep[list(filter_out)] = False
    keep[target] = False
    pool = np.sort(scores[keep])
    return 1 + pool.size - int(np.searchsorted(pool, scores[target], side="left"))


def _disjuncts(node) -> list:
    if isinstance(node, Anchor):
        return [node]
    if isinstance(node, Projection):
        return [Projection(node.rel, node.direction, d) for d in _disjuncts(node.child)]
    if isinstance(node, Union):
        return [d for c in node.children for d in _disjuncts(c)]
    if isinstance(node, Intersection):
        combos = [()]
        for c in node.children:
            combos = [prefix + (d,) for prefix in combos for d in _disjuncts(c)]
        return [Intersection(combo) for combo in combos]
    raise TypeError("not a query node: %r" % (node,))


class GQEReference:
    """GQE with the parameter names, initial values and optimizer of privkg."""

    def __init__(self, params: dict, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.p = {name: np.array(params[name], dtype=np.float64) for name in GQE_PARAMS}
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {n: np.zeros_like(a) for n, a in self.p.items()}
        self.v = {n: np.zeros_like(a) for n, a in self.p.items()}
        self.t = 0

    # -- forward ----------------------------------------------------------------

    def _encode(self, node):
        """Returns (vector, cache) for a union-free node."""
        p = self.p
        if isinstance(node, Anchor):
            return p["ent"][node.vertex], None
        if isinstance(node, Projection):
            row = 2 * node.rel + (0 if node.direction == "forward" else 1)
            vec, cache = self._encode(node.child)
            return vec + p["rel"][row], cache
        kids = [self._encode(c) for c in node.children]
        x = np.stack([k[0] for k in kids])
        pre = x @ p["int.ffn_w"] + p["int.ffn_b"]
        pooled = np.maximum(pre, 0.0).mean(axis=0)
        return pooled @ p["int.post_w"], (x, pre, pooled, kids)

    def _encode_backward(self, node, cache, g, grads):
        if isinstance(node, Anchor):
            grads["ent"][node.vertex] += g
            return
        if isinstance(node, Projection):
            row = 2 * node.rel + (0 if node.direction == "forward" else 1)
            grads["rel"][row] += g
            self._encode_backward(node.child, cache, g, grads)
            return
        x, pre, pooled, kids = cache
        p = self.p
        for name in ("int.ffn_w", "int.ffn_b", "int.post_w"):
            grads.setdefault(name, np.zeros_like(p[name]))
        grads["int.post_w"] += np.outer(pooled, g)
        d_pre = np.broadcast_to((p["int.post_w"] @ g) / len(kids), pre.shape) * (pre > 0)
        grads["int.ffn_w"] += x.T @ d_pre
        grads["int.ffn_b"] += d_pre.sum(axis=0)
        d_x = d_pre @ p["int.ffn_w"].T
        for child, (_, child_cache), gx in zip(node.children, kids, d_x):
            self._encode_backward(child, child_cache, gx, grads)

    def _distances(self, vectors) -> np.ndarray:
        """L2 distance of every vector to every vertex, shape (len(vectors), nv).

        Works in row chunks so that the checker's temporaries stay small
        next to the program's own peak memory."""
        vectors = np.asarray(vectors)
        out = np.empty((len(vectors), self.p["ent"].shape[0]))
        for i in range(0, len(vectors), CHUNK):
            diff = self.p["ent"][None, :, :] - vectors[i:i + CHUNK, None, :]
            out[i:i + CHUNK] = np.sqrt((diff * diff).sum(axis=2))
        return out

    def scores(self, query) -> np.ndarray:
        """All-vertex scores: max over disjuncts of minus the L2 distance."""
        vecs = [self._encode(d)[0] for d in _disjuncts(query)]
        return (-self._distances(vecs)).max(axis=0)

    # -- loss and gradient -------------------------------------------------------

    def loss_and_grads(self, batch, private_triples, beta, both):
        """(L, L_u, L_p) and parameter gradients, as privkg's total_loss defines them.

        ``batch`` holds (query, answers) pairs; ``private_triples`` the sampled
        (head, rel, tail) triples of this step."""
        nodes, groups, weights = [], [], []
        n_pairs = sum(len(a) for _, a in batch)
        for query, answers in batch:
            ds = _disjuncts(query)
            groups.append((len(nodes), len(ds)))
            nodes.extend(ds)
            weights.append((sorted(answers), -1.0 / n_pairs))
        terms = []
        for h, r, t in sorted(private_triples):
            terms.append((Projection(r, "backward", Anchor(t)), h))
            if both:
                terms.append((Projection(r, "forward", Anchor(h)), t))
        for node, target in terms:
            groups.append((len(nodes), 1))
            nodes.append(node)
            weights.append(([target], beta / len(terms)))

        encoded = [self._encode(n) for n in nodes]
        vectors = np.asarray([e[0] for e in encoded])
        dist = self._distances(vectors)
        neg = -dist
        d_neg = np.zeros_like(neg)
        lu = lp = 0.0
        for gi, ((start, count), (targets, coef)) in enumerate(zip(groups, weights)):
            block = neg[start:start + count]
            pick = block.argmax(axis=0)
            s = block[pick, np.arange(block.shape[1])]
            shifted = s - s.max()
            lse = np.log(np.exp(shifted).sum())
            logp = shifted - lse
            value = logp[targets].sum()
            if gi < len(batch):
                lu -= value / n_pairs
            else:
                lp += value / len(terms)
            g = -coef * len(targets) * np.exp(logp)
            np.add.at(g, targets, coef)
            d_neg[start + pick, np.arange(block.shape[1])] += g

        grads = {"ent": np.zeros_like(self.p["ent"]), "rel": np.zeros_like(self.p["rel"])}
        d_vec = np.empty_like(vectors)
        for i in range(0, len(vectors), CHUNK):
            # score = -|ent - v|: d/d(ent - v) = -(ent - v) / dist, 0 where dist is 0
            diff = self.p["ent"][None, :, :] - vectors[i:i + CHUNK, None, :]
            d = dist[i:i + CHUNK, :, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                unit = np.where(d > 0, diff / d, 0.0)
            d_diff = -d_neg[i:i + CHUNK, :, None] * unit
            grads["ent"] += d_diff.sum(axis=0)
            d_vec[i:i + CHUNK] = -d_diff.sum(axis=1)
        for node, (_, cache), g in zip(nodes, encoded, d_vec):
            self._encode_backward(node, cache, g, grads)
        return lu + beta * lp, lu, lp, grads

    def adam_step(self, grads) -> None:
        """privkg's Adam: parameters without a gradient keep their moments."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grads.items():
            m = self.m[name] = b1 * self.m[name] + (1 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1 - b2) * g ** 2
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            self.p[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def step(self, batch, private_triples, beta, both):
        loss, lu, lp, grads = self.loss_and_grads(batch, private_triples, beta, both)
        self.adam_step(grads)
        return loss, lu, lp
