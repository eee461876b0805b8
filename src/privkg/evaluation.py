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
from .queries import QUERY_TYPES
from .training import NoiseConfig, noisy_scores_all

HR_CUTOFFS = (1, 3, 10)


class EvalError(Exception):
    pass


def rank(scores: np.ndarray, target: int, filter_out=frozenset()) -> int:
    """Filtered, pessimistic rank of the target among all scored vertices."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= target < scores.size:
        raise EvalError("target %d not scored" % target)
    if target in filter_out:
        raise EvalError("target %d is filtered out" % target)
    if not np.isfinite(scores).all():  # a NaN compares false both ways: it would rank 1
        raise EvalError("non-finite scores")
    mask = np.ones(scores.size, dtype=bool)
    mask[np.fromiter(filter_out, dtype=np.intp, count=len(filter_out))] = False
    mask[target] = False
    pool = scores[mask]
    s = scores[target]
    return 1 + int((pool > s).sum()) + int((pool == s).sum())


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
    """Per (query type, answer class) metrics plus pooled "All" rows."""
    per_type: dict = field(default_factory=dict)  # (qtype, cls) -> Metrics
    ranks: dict = field(default_factory=dict)     # (qtype, cls) -> list of ranks

    def overall(self, cls: str) -> Metrics | None:
        pooled = [r for (qt, c), rs in self.ranks.items() if c == cls for r in rs]
        return metrics(pooled) if pooled else None

    def to_tsv(self, baseline: "EvalReport | None" = None) -> str:
        header = ["type", "class", "HR@1", "HR@3", "HR@10", "MRR", "count"]
        if baseline is not None:
            header.append("MRR_vs_baseline")
        lines = ["\t".join(header)]
        keys = [(qt, cls) for cls in ("public", "private") for qt in QUERY_TYPES]
        for qt, cls in keys:
            m = self.per_type.get((qt, cls))
            if m is None:
                continue
            row = [qt, cls, "%.4f" % m.hr1, "%.4f" % m.hr3, "%.4f" % m.hr10,
                   "%.4f" % m.mrr, str(m.count)]
            if baseline is not None:
                base = baseline.per_type.get((qt, cls))
                row.append("%.1f%%" % (100.0 * m.mrr / base.mrr)
                           if base and base.mrr > 0 else "n/a")
            lines.append("\t".join(row))
        for cls in ("public", "private"):
            m = self.overall(cls)
            if m is None:
                continue
            row = ["All", cls, "%.4f" % m.hr1, "%.4f" % m.hr3, "%.4f" % m.hr10,
                   "%.4f" % m.mrr, str(m.count)]
            if baseline is not None:
                base = baseline.overall(cls)
                row.append("%.1f%%" % (100.0 * m.mrr / base.mrr)
                           if base and base.mrr > 0 else "n/a")
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"


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

    ``noise`` switches on the perturbation baseline (one draw per query)."""
    rng = np.random.default_rng(noise.seed) if noise is not None else None
    report = EvalReport()
    collected: dict = {}
    for bq in queries:
        public, private, known = query_targets(bq)
        if not public and not private:
            continue
        if noise is not None:
            scores = noisy_scores_all(model, bq.query, noise, rng)
        else:
            scores = model.scores_all(model.encode(bq.query)).data
        for cls, targets in (("public", public), ("private", private)):
            for t in sorted(targets):
                r = rank(scores, t, frozenset(known) - {t})
                collected.setdefault((bq.qtype, cls), []).append(r)
    for key, ranks_ in collected.items():
        report.per_type[key] = metrics(ranks_)
        report.ranks[key] = ranks_
    return report


def calibrate_noise_sigma(model: Encoder, queries: list[BenchmarkQuery],
                          target_public_mrr: float, seed: int = 0,
                          rel_tol: float = 0.05, max_iter: int = 20,
                          sigma_hi: float = 8.0) -> tuple[float, EvalReport]:
    """Bisect sigma until the noisy public MRR matches the target within tolerance.

    Noisy MRR decreases with sigma; returns the matched sigma and its report."""
    def public_mrr(sigma):
        rep = evaluate_model(model, queries, NoiseConfig(sigma=sigma, seed=seed))
        m = rep.overall("public")
        return (m.mrr if m else 0.0), rep

    lo, hi = 0.0, sigma_hi
    best = None
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        mrr, rep = public_mrr(mid)
        if best is None or abs(mrr - target_public_mrr) < abs(best[1] - target_public_mrr):
            best = (mid, mrr, rep)
        if abs(mrr - target_public_mrr) <= rel_tol * target_public_mrr:
            return mid, rep
        if mrr > target_public_mrr:
            lo = mid
        else:
            hi = mid
    return best[0], best[2]
