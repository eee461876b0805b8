"""Adversarial training: public retrieval loss, privacy obfuscation loss, and
their beta-weighted sum, plus the inference-time noise-perturbation baseline.

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
from .queries import BACKWARD, FORWARD, Anchor, Projection

REVERSE_ONLY = "reverse-only"
BOTH = "both"


class TrainError(Exception):
    pass


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
    optimizer: str = "adam"

    def __post_init__(self):
        if self.beta < 0:
            raise TrainError("beta must be non-negative")
        if self.epochs < 1:
            raise TrainError("epochs must be >= 1")
        if self.privacy_direction not in (REVERSE_ONLY, BOTH):
            raise TrainError("privacy direction must be %r or %r" % (REVERSE_ONLY, BOTH))


@dataclass
class NoiseConfig:
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise TrainError("sigma must be non-negative")


@dataclass
class LossTrace:
    epochs: list = field(default_factory=list)  # (epoch, L_u, L_p, L)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("epoch,L_u,L_p,L\n")
            for epoch, lu, lp, total in self.epochs:
                f.write("%d,%.10g,%.10g,%.10g\n" % (epoch, lu, lp, total))


def public_loss(model: Encoder, batch: list[tuple], rng=None, candidate_sample: int = 0) -> ad.Tensor:
    """Mean negative log-probability over (query, public answers) pairs.

    N is the number of (query, answer) pairs in the batch; answers of one
    query share a single encoding and softmax.
    """
    if not batch:
        raise TrainError("empty batch")
    answers = [sorted(a) for _, a in batch]
    if not all(answers):
        raise TrainError("query in a public batch has no answers")
    logp = model.log_probabilities([q for q, _ in batch], answers, rng, candidate_sample)
    return ad.multiply(-1.0 / logp.shape[0], ad.reduce_sum(logp))


def privacy_loss(model: Encoder, private_triples, direction: str = REVERSE_ONLY) -> ad.Tensor:
    """Mean log-probability of private targets under one-hop projections.

    Each private attribute triple (u, a, x) contributes the probability of u
    under a backward projection anchored at x; with direction "both", the
    forward term (probability of x from u) is averaged in as well.
    """
    triples = sorted(private_triples)
    if not triples:
        return ad.Tensor(0.0)
    queries, targets = [], []
    for h, r, t in triples:
        queries.append(Projection(r, BACKWARD, Anchor(t)))
        targets.append([h])
        if direction == BOTH:
            queries.append(Projection(r, FORWARD, Anchor(h)))
            targets.append([t])
    logp = model.log_probabilities(queries, targets)
    return ad.multiply(1.0 / logp.shape[0], ad.reduce_sum(logp))


def total_loss(model: Encoder, batch, private_triples, beta: float,
               direction: str = REVERSE_ONLY, rng=None, candidate_sample: int = 0) -> tuple:
    """Returns (total, L_u, L_p) with total = L_u + beta * L_p."""
    lu = public_loss(model, batch, rng, candidate_sample)
    lp = privacy_loss(model, private_triples, direction)
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
    optimizer = ad.make_optimizer(model.store, config.optimizer, config.lr)
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
