"""Filtered ranking metrics (HR@K, MRR) split by answer class and query type.

Public evaluation targets are the generalization answers (test public answers
absent from the validation graph); private targets are the privacy-threatening
answers. All other known answers of a query are filtered out of the ranking
pool, and ties count against the target (pessimistic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .benchmark import BenchmarkQuery
from .encoders import Encoder
from .queries import OTHER, QUERY_TYPES
from .training import NoiseConfig, noisy_scores_all

CLASSES = ("public", "private")
REL_TOL = 0.05
MAX_ITER = 20
SIGMA_HI = 8.0


class EvalError(Exception):
    pass


def rank(scores: np.ndarray, target: int, filter_out=frozenset()) -> int:
    """Filtered, pessimistic rank of the target among all scored vertices."""
    scores = np.asarray(scores, dtype=np.float64)
    filter_out = frozenset(filter_out)  # a repeated id would be subtracted twice
    if not 0 <= target < scores.size:
        raise EvalError("target %d not scored" % target)
    if target in filter_out:
        raise EvalError("target %d is filtered out" % target)
    if not np.isfinite(scores).all():  # a NaN compares false both ways: it would rank 1
        raise EvalError("non-finite scores")
    # every vertex scoring >= the target, itself included, minus the filtered ones
    s = scores[target]
    ids = np.fromiter(filter_out, dtype=np.intp, count=len(filter_out))
    if ids.size and ids.view(np.uintp).max() >= scores.size:  # unsigned, -1 is out of range
        raise EvalError("filter id %d not scored" % ids[(ids < 0) | (ids >= scores.size)][0])
    filtered = scores[ids]
    return int(np.count_nonzero(scores >= s) - np.count_nonzero(filtered >= s))


@dataclass(frozen=True)
class Metrics:
    hr1: float
    hr3: float
    hr10: float
    mrr: float
    count: int


def metrics(ranks: list[int]) -> Metrics:
    if not ranks:
        raise EvalError("empty rank list")
    arr = np.asarray(ranks, dtype=np.float64)
    return Metrics(
        hr1=float((arr <= 1).mean()),
        hr3=float((arr <= 3).mean()),
        hr10=float((arr <= 10).mean()),
        mrr=float((1.0 / arr).mean()),
        count=len(ranks),
    )


@dataclass
class EvalReport:
    """Filtered ranks per (query type, answer class); every metric is computed from them."""
    ranks: dict = field(default_factory=dict)  # (qtype, cls) -> list of ranks

    def overall(self, cls: str) -> Metrics | None:
        pooled = [r for (qt, c), rs in self.ranks.items() if c == cls for r in rs]
        return metrics(pooled) if pooled else None

    def to_tsv(self) -> str:
        """One row per (query type, class) with ranks, in template order and
        ``OTHER`` last, then one pooled "All" row per class."""
        rows = [(qt, cls, metrics(self.ranks[qt, cls]))
                for cls in CLASSES for qt in QUERY_TYPES + (OTHER,) if (qt, cls) in self.ranks]
        rows += [("All", cls, self.overall(cls)) for cls in CLASSES]
        return "type\tclass\tHR@1\tHR@3\tHR@10\tMRR\tcount" + "".join(
            "\n%s\t%s\t%.4f\t%.4f\t%.4f\t%.4f\t%d" % (qt, cls, m.hr1, m.hr3, m.hr10, m.mrr, m.count)
            for qt, cls, m in rows if m is not None) + "\n"


def query_targets(bq: BenchmarkQuery) -> tuple[frozenset, frozenset, frozenset]:
    """(public targets, private targets, all known answers) for one query."""
    known = (bq.train_answers | bq.valid_answers |
             bq.test_answers.public_members | bq.test_answers.private_members)
    public = bq.test_answers.public_members - bq.valid_answers
    private = bq.test_answers.private_members
    return public, private, known


def evaluate_model(model: Encoder, queries: list[BenchmarkQuery],
                   noise: NoiseConfig | None = None) -> EvalReport:
    """Score every query once and rank its evaluation targets.

    ``noise`` is the perturbation baseline (one draw per query); the default,
    sigma 0, draws nothing and leaves the scores as they are."""
    noise = noise if noise is not None else NoiseConfig()
    rng = np.random.default_rng(noise.seed)
    report = EvalReport()
    for bq in queries:
        public, private, known = query_targets(bq)
        if not public and not private:
            continue
        scores = noisy_scores_all(model, bq.query, noise, rng)
        for cls, targets in zip(CLASSES, (public, private)):
            for t in sorted(targets):
                r = rank(scores, t, frozenset(known) - {t})
                report.ranks.setdefault((bq.qtype, cls), []).append(r)
    return report


def calibrate_noise_sigma(model: Encoder, queries: list[BenchmarkQuery],
                          target_public_mrr: float, seed: int = 0) -> tuple[float, EvalReport]:
    """Bisect sigma in [0, SIGMA_HI] until the noisy public MRR is within REL_TOL
    of the target, for at most MAX_ITER probes.

    Noisy MRR decreases with sigma; returns the matched sigma and its report."""
    def public_mrr(sigma):
        rep = evaluate_model(model, queries, NoiseConfig(sigma=sigma, seed=seed))
        m = rep.overall("public")
        return (m.mrr if m else 0.0), rep

    lo, hi = 0.0, SIGMA_HI
    best = None
    for _ in range(MAX_ITER):
        mid = 0.5 * (lo + hi)
        mrr, rep = public_mrr(mid)
        if best is None or abs(mrr - target_public_mrr) < abs(best[1] - target_public_mrr):
            best = (mid, mrr, rep)
        if abs(mrr - target_public_mrr) <= REL_TOL * target_public_mrr:
            return mid, rep
        if mrr > target_public_mrr:
            lo = mid
        else:
            hi = mid
    return best[0], best[2]
