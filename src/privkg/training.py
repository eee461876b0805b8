"""Adversarial training: the public retrieval loss and the privacy
obfuscation loss, their beta-weighted sum, plus the inference-time
noise-perturbation baseline.

One training step is one scoring pass: ``total_loss`` puts the batch's public
(query, answers) pairs and the private one-hop terms, as index arrays, into one
``log_probabilities`` call, and L_u and L_p are the means of its two segments.
The privacy term carries a positive log-probability of the private target, so
minimizing the total loss pushes that probability down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .benchmark import BenchmarkQuery, training_subset
from .encoders import Encoder
from .queries import BACKWARD, FORWARD

REVERSE_ONLY = "reverse-only"
BOTH = "both"
PRIVACY_DIRECTIONS = (REVERSE_ONLY, BOTH)  # TrainConfig and total_loss refuse others


class TrainError(Exception):
    pass


def _check_direction(direction) -> None:
    if direction not in PRIVACY_DIRECTIONS:
        raise TrainError("privacy direction must be %s, got %r"
                         % (" or ".join(map(repr, PRIVACY_DIRECTIONS)), direction))


@dataclass
class TrainConfig:
    beta: float = 0.0
    lr: float = 0.005
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0
    candidate_sample: int = 0  # 0 = full softmax over all vertices
    privacy_direction: str = REVERSE_ONLY
    private_batch: int = 32  # private triples resampled per step

    def __post_init__(self):
        if not 0 <= self.beta < float("inf"):
            raise TrainError("beta must be finite and non-negative, got %r" % self.beta)
        if not 0 < self.lr < float("inf"):
            raise TrainError("lr must be finite and positive, got %r" % self.lr)
        if self.epochs < 1 or self.batch_size < 1:
            raise TrainError("epochs and batch_size must be >= 1")
        if self.private_batch < 0 or self.candidate_sample < 0:
            raise TrainError("private_batch and candidate_sample must be non-negative")
        _check_direction(self.privacy_direction)


@dataclass
class NoiseConfig:
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma < float("inf"):
            raise TrainError("sigma must be finite and non-negative, got %r" % self.sigma)


@dataclass
class LossTrace:
    epochs: list = field(default_factory=list)  # (epoch, L_u, L_p, L)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("epoch,L_u,L_p,L\n")
            for epoch, lu, lp, total in self.epochs:
                f.write("%d,%.10g,%.10g,%.10g\n" % (epoch, lu, lp, total))


def total_loss(model: Encoder, batch, private_triples, beta: float,
               direction: str = REVERSE_ONLY, rng=None, candidate_sample: int = 0) -> tuple:
    """Returns (total, L_u, L_p) with total = L_u + beta * L_p, from one scoring pass.

    L_u is the mean negative log-probability over the batch's (query, public
    answer) pairs. L_p is the mean log-probability of the private targets
    under one-hop projections: each private attribute triple (u, a, x) gives
    the backward term, the probability of u from x, and with direction ``BOTH``
    also the forward term, the probability of x from u. Both segments come
    from one ``log_probabilities`` call; ``candidate_sample`` applies to the
    public queries only, and the privacy terms keep the full softmax.
    """
    _check_direction(direction)
    if not batch or not all(a for _, a in batch):
        raise TrainError("empty batch, or a query in it without answers")
    queries, targets = [q for q, _ in batch], [sorted(a) for _, a in batch]
    n_public = sum(map(len, targets))
    # per sorted private triple (h, r, t): anchor t, target h; with "both", then anchor h, target t
    h, r, t = np.array(sorted(private_triples), dtype=np.intp).reshape(-1, 3).T
    hops = (t, r, np.full(r.size, BACKWARD), h)
    if direction == BOTH:
        hops = tuple(np.stack(pair, axis=1).ravel()
                     for pair in zip(hops, (h, r, np.full(r.size, FORWARD), t)))
    logp = model.log_probabilities(queries, targets, rng, candidate_sample, hops)
    n_private = logp.shape[0] - n_public
    lu = ad.multiply(-1.0 / n_public, ad.reduce_sum(ad.rows(logp, np.arange(n_public))))
    lp = ad.multiply(1.0 / max(n_private, 1),  # no privacy terms: the empty sum, 0
                     ad.reduce_sum(ad.rows(logp, np.arange(n_public, logp.shape[0]))))
    return lu + ad.multiply(beta, lp), lu, lp


def train(model: Encoder, queries: list[BenchmarkQuery], private_triples,
          config: TrainConfig, progress=None) -> LossTrace:
    """Optimize the encoder on training answers plus the privacy term.

    Deterministic given the config seed. Raises on non-finite losses with the
    offending epoch/batch in the message.
    """
    trainable = training_subset(queries)
    if not trainable:
        raise TrainError("benchmark has no queries with training answers")
    private_pool = sorted(private_triples)
    rng = random.Random(config.seed)
    optimizer = ad.Adam(model.store, config.lr)
    trace = LossTrace()
    for epoch in range(1, config.epochs + 1):
        order = list(trainable)
        rng.shuffle(order)
        sums = np.zeros(3)
        steps = 0
        for start in range(0, len(order), config.batch_size):
            batch = [(bq.query, bq.train_answers) for bq in order[start:start + config.batch_size]]
            if config.beta > 0 and private_pool:
                sample = rng.sample(private_pool, min(config.private_batch, len(private_pool)))
            else:
                sample = []
            loss, lu, lp = total_loss(model, batch, sample, config.beta,
                                      config.privacy_direction, rng, config.candidate_sample)
            if not np.isfinite(loss.data):
                raise TrainError("non-finite loss at epoch %d step %d" % (epoch, steps))
            model.store.zero_grad()
            loss.backward()
            optimizer.step()
            model.post_step()
            sums += (lu.item(), lp.item(), loss.item())
            steps += 1
        lu_m, lp_m, l_m = sums / steps
        trace.epochs.append((epoch, lu_m, lp_m, l_m))
        if progress:
            progress(epoch, lu_m, lp_m, l_m)
    return trace


# -- noise-perturbation baseline ----------------------------------------------


def noisy_scores_all(model: Encoder, query, noise: NoiseConfig, rng=None) -> np.ndarray:
    """All-vertex scores with one Gaussian draw added per disjunct embedding."""
    rng = rng if rng is not None else np.random.default_rng(noise.seed)
    embs = model.encode(query)
    if noise.sigma > 0:
        embs = [model.perturb(e, rng, noise.sigma) for e in embs]
    return model.scores_all(embs).data.copy()
