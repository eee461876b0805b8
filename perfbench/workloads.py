"""The three benchmark workloads.

Each workload is one closed-loop client: it waits for every step, query or
command before it issues the next. ``setup`` builds the inputs from the
workload seed; ``run_round`` does one round of timed operations and keeps
what the checks need; ``check_round`` and ``finish`` compare the outputs with
independent references after the timing, with tracing off. Every call into
privkg goes through its module attribute, so the tracer's wrappers see it.

Seed ``s`` offsets every seed of the reference configuration by ``s``, so
seed 0 is the configuration the workload table in README.md describes.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import shutil
import time

import numpy as np

from privkg import autodiff, benchmark, cli, encoders, evaluation, graph, symbolic, synthetic, training
from privkg.queries import QUERY_TYPES

from reference import GQEReference, sort_rank

# relative tolerance between privkg's losses and the numpy reference: room
# for another summation order, far below what one wrong update step moves
LOSS_RTOL = 1e-8
MRR_ATOL = 1e-9


class Round:
    """Timed operations of one round: latencies plus whatever the checks need."""

    def __init__(self):
        self.ops = 0            # operations attempted: steps, queries, commands
        self.latencies: list[float] = []  # of the operations the percentiles describe
        self.items = 0          # training queries, ranked targets or tagged evaluations
        self.wall = 0.0
        self.stages: dict[str, float] = {}
        self.outputs = None
        self.steps: list = []   # per-operation counts, filled on traced rounds


class Workload:
    name: str
    # the latency percentile taken within each round for ``tail_latency``
    tail_percentile = 90
    # operations a run needs before it may stop
    min_ops: int
    # timed set-ups per run; ``setup_s`` is their median
    setups = 3

    def __init__(self, seed: int, work_dir: str, reduced: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.reduced = reduced
        self.tracer = None

    def op(self, request):
        """Mark the start of one closed-loop operation; returns its start time."""
        if self.tracer is not None:
            self.tracer.request = request
        return time.perf_counter()

    def span(self, name):
        if self.tracer is not None:
            self.tracer.begin(name)

    def end_span(self):
        if self.tracer is not None:
            self.tracer.end()

    def setup(self):
        raise NotImplementedError

    def run_round(self, index: int) -> Round:
        raise NotImplementedError

    def check_round(self, rnd: Round) -> int:
        """Number of operations of the round whose output is wrong."""
        raise NotImplementedError

    def finish(self) -> tuple[int, int]:
        """Checks after the last round: (attempted, failed)."""
        raise NotImplementedError

    def artifacts(self) -> dict:
        """sha256 of what the run produced, for the repeatability self-test."""
        raise NotImplementedError

    def throughput(self, rounds: list[Round]) -> float:
        """Work items per second of the operations timed."""
        return sum(r.items for r in rounds) / sum(x for r in rounds for x in r.latencies)

    def tail_latency(self, rounds: list[Round]) -> float:
        """Mean over rounds of each round's ``tail_percentile`` latency, in seconds.

        The host this runs on drifts between faster and slower states over
        seconds. A percentile over the pooled samples of a run lands in
        whichever state held a tenth of the run, and jumps between runs; the
        percentile within each round, averaged over the rounds, averages the
        host states the way the throughput does."""
        return float(np.mean([np.percentile(r.latencies, self.tail_percentile)
                              for r in rounds]))

    def named_metrics(self, rounds: list[Round]) -> dict:
        raise NotImplementedError


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values), q))


def median_latency(rounds: list[Round]) -> float:
    """Median over rounds of each round's median latency.

    A round's operations share one memory layout and one stretch of machine
    time, so latencies cluster by round; a median over the pooled samples
    jumps between clusters from run to run, a median of round medians does
    not."""
    return float(np.median([np.median(r.latencies) for r in rounds]))


def _digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _close(a, b, rtol) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(1.0, abs(b))


# -- train-gqe -------------------------------------------------------------------


class TrainGQE(Workload):
    """Adversarial GQE training on the acceptance-sweep reference graph."""

    name = "train-gqe"
    min_ops = 100
    # a set-up takes about a second, so a few more cost little and steady
    # the median
    setups = 5

    def setup(self):
        s = self.seed
        g = synthetic.make_synthetic_kg(230, 6, 6, 3, 4, seed=7 + s)
        private = benchmark.sample_private_edges(g, 100, 1 + s)
        split = benchmark.split_edges(g, private, 1 + s)
        per_template = 20 if self.reduced else 200
        queries = []
        for qtype in QUERY_TYPES:
            queries.extend(benchmark.sample_queries(split, qtype, per_template, 11 + s))
        model = encoders.make_encoder("gqe", split.test, dim=32, seed=3 + s)
        self.config = training.TrainConfig(beta=0.5, lr=0.02, batch_size=64, seed=5 + s,
                                           privacy_direction=training.BOTH, private_batch=100)
        self.queries = queries
        self.trainable = benchmark.training_subset(queries)
        self.private_pool = sorted(private)
        self.model = model
        self.optimizer = autodiff.make_optimizer(model.store, "adam", self.config.lr)
        self.rng = random.Random(self.config.seed)
        self.reference = GQEReference(model.store.state_dict(), self.config.lr)
        self.loss_hash = hashlib.sha256()

    def run_round(self, index):
        """One epoch of ``privkg.training.train``'s loop, step by step."""
        cfg, model = self.config, self.model
        rnd = Round()
        rnd.outputs = []
        order = list(self.trainable)
        self.rng.shuffle(order)
        t_round = time.perf_counter()
        for start in range(0, len(order), cfg.batch_size):
            t0 = self.op("epoch%d/step%d" % (index, start // cfg.batch_size))
            self.span("step")
            batch = [(bq.query, bq.train_answers) for bq in order[start:start + cfg.batch_size]]
            sample = self.rng.sample(self.private_pool,
                                     min(cfg.private_batch, len(self.private_pool)))
            loss, lu, lp = training.total_loss(model, batch, sample, cfg.beta,
                                               cfg.privacy_direction, self.rng,
                                               cfg.candidate_sample)
            model.store.zero_grad()
            loss.backward()
            self.optimizer.step()
            model.post_step()
            self.end_span()
            rnd.latencies.append(time.perf_counter() - t0)
            rnd.ops += 1
            rnd.items += len(batch)
            rnd.outputs.append((batch, sample, lu.item(), lp.item(), loss.item()))
            if self.tracer is not None:
                rnd.steps.append({"tape_nodes": _tape_nodes(loss),
                                  "pairs": sum(len(a) for _, a in batch),
                                  "privacy_terms": len(sample) * (2 if cfg.privacy_direction
                                                                  == training.BOTH else 1)})
        rnd.wall = time.perf_counter() - t_round
        return rnd

    def check_round(self, rnd):
        """Steps the reference, in lockstep, to the same losses."""
        both = self.config.privacy_direction == training.BOTH
        failed = 0
        for batch, sample, lu, lp, total in rnd.outputs:
            self.loss_hash.update(repr((lu, lp, total)).encode())
            ref = self.reference.step(batch, sample, self.config.beta, both)
            if not all(_close(got, want, LOSS_RTOL)
                       for got, want in zip((total, lu, lp), ref)):
                failed += 1
        rnd.outputs = None
        return failed

    def artifacts(self):
        return {"losses": self.loss_hash.hexdigest()}

    def finish(self):
        """Public and private MRR of the trained model against the reference."""
        report = evaluation.evaluate_model(self.model, self.queries)
        ranks = {"public": [], "private": []}
        for bq in self.queries:
            public, private, known = evaluation.query_targets(bq)
            if not public and not private:
                continue
            scores = self.reference.scores(bq.query)
            for cls, targets in (("public", public), ("private", private)):
                for t in sorted(targets):
                    ranks[cls].append(sort_rank(scores, t, known - {t}))
        failed = 0
        for cls in ("public", "private"):
            got = report.overall(cls)
            want = float(np.mean([1.0 / r for r in ranks[cls]]))
            if got is None or abs(got.mrr - want) > MRR_ATOL:
                failed += 1
        return 2, failed

    def named_metrics(self, rounds):
        lat = [x for r in rounds for x in r.latencies]
        return {
            "train_qps": (self.throughput(rounds), "1/s"),
            "train_step_ms_p50": (1e3 * median_latency(rounds), "ms"),
            "train_step_ms_p90": (1e3 * percentile(lat, 90), "ms"),
            "train_steps": (len(lat), "count"),
        }


def _tape_nodes(loss) -> int:
    """Tape nodes reachable from the loss."""
    seen = {id(loss)}
    todo = [loss]
    while todo:
        for p in todo.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


# -- eval-q2b ------------------------------------------------------------------


class EvalQ2B(Workload):
    """Query-by-query Q2B inference on an 8.7x larger vertex table."""

    name = "eval-q2b"
    min_ops = 1000

    def setup(self):
        s = self.seed
        n_entities, n_comm, n_private = (500, 13, 250) if self.reduced else (2000, 52, 1000)
        # the graph, its split and the query sample stay fixed across seeds:
        # a query costs one rank per target, each over its filter, and with
        # 240 queries the number of targets varied by a third between seeds.
        # The seed moves the model and the noise, so every score and every
        # rank changes.
        g = synthetic.make_synthetic_kg(n_entities, n_comm, 6, 3, 4, seed=7)
        private = benchmark.sample_private_edges(g, n_private, 1)
        split = benchmark.split_edges(g, private, 1)
        queries = []
        for qtype in QUERY_TYPES:
            queries.extend(benchmark.sample_queries(split, qtype, 5 if self.reduced else 30, 11))
        model = encoders.make_encoder("q2b", split.test, dim=32, seed=3 + s)
        path = self.checkpoint = os.path.join(self.work_dir, "q2b.ckpt")
        model.save(path)
        self.model = encoders.load_encoder(path, split.test)
        self.saved = model.store.state_dict()
        self.noise = training.NoiseConfig(sigma=1.0, seed=9 + s)
        # every sampled query is scored, also those without evaluation
        # targets, so each seed scores the same mix of templates
        self.evalset = []
        for bq in queries:
            public, private_t, known = evaluation.query_targets(bq)
            self.evalset.append((bq.query, sorted(public) + sorted(private_t), known))
        self.first = None

    def run_round(self, index):
        """A plain pass then a noise-baseline pass over every query."""
        rnd = Round()
        rnd.outputs = []
        t_round = time.perf_counter()
        for noisy in (False, True):
            rng = np.random.default_rng(self.noise.seed) if noisy else None
            for qi, (query, targets, known) in enumerate(self.evalset):
                t0 = self.op("round%d/%s%d" % (index, "noise" if noisy else "plain", qi))
                self.span("query")
                if noisy:
                    scores = training.noisy_scores_all(self.model, query, self.noise, rng)
                else:
                    scores = self.model.scores_all(self.model.encode(query)).data
                ranks = [evaluation.rank(scores, t, known - {t}) for t in targets]
                self.end_span()
                rnd.latencies.append(time.perf_counter() - t0)
                rnd.ops += 1
                rnd.items += len(targets)
                rnd.outputs.append((scores, ranks))
                if self.tracer is not None:
                    rnd.steps.append({"filter_size": len(targets) * (len(known) - 1)})
        rnd.wall = time.perf_counter() - t_round
        return rnd

    def check_round(self, rnd):
        """Every rank re-derived by sorting; every round ranks alike."""
        failed = 0
        ranks_seen = []
        for (scores, ranks), (_, targets, known) in zip(
                rnd.outputs, self.evalset + self.evalset):
            want = [sort_rank(scores, t, known - {t}) for t in targets]
            ok = bool(np.all(np.isfinite(scores))) and ranks == want
            failed += not ok
            ranks_seen.append(ranks)
        if self.first is None:
            self.first = ranks_seen
        elif ranks_seen != self.first:
            failed += sum(a != b for a, b in zip(ranks_seen, self.first))
        rnd.outputs = None
        return failed

    def artifacts(self):
        return {"q2b.ckpt": _digest(self.checkpoint)}

    def throughput(self, rounds):
        """Queries scored and ranked per second."""
        return sum(r.ops for r in rounds) / sum(x for r in rounds for x in r.latencies)

    def finish(self):
        """The reloaded checkpoint holds exactly the saved parameters."""
        state = self.model.store.state_dict()
        ok = state.keys() == self.saved.keys() and all(
            np.array_equal(state[k], self.saved[k]) for k in state)
        return 1, int(not ok)

    def named_metrics(self, rounds):
        lat = [x for r in rounds for x in r.latencies]
        return {
            "eval_targets_per_s": (sum(r.items for r in rounds) / sum(lat), "1/s"),
            "eval_query_ms_p50": (1e3 * median_latency(rounds), "ms"),
            "eval_query_ms_p99": (1e3 * percentile(lat, 99), "ms"),
            "eval_queries": (len(lat), "count"),
        }


# -- build-4k ------------------------------------------------------------------


ARTIFACTS = (("privatize", ["private.tsv"]),
             ("split", ["train.tsv", "valid.tsv", "test.tsv"]),
             ("queries", ["queries-%s.tsv" % t for t in QUERY_TYPES]))


def _digests(out) -> dict:
    return {name: _digest(os.path.join(out, d, name)) for d, names in ARTIFACTS for name in names}


class Build4K(Workload):
    """The privkg CLI pipeline on a 4,000-entity graph, then a tagged audit."""

    name = "build-4k"
    min_ops = 100

    def setup(self):
        n_entities, n_comm = (600, 16) if self.reduced else (4000, 104)
        self.n_private = 300 if self.reduced else 2000
        self.per_template = 5 if self.reduced else 10
        self.audit_copies = 2 if self.reduced else 4
        self.audit_repeats = 3 if self.reduced else 50
        # the graph and the query sample stay fixed across seeds: with 80
        # queries, the cost of the sample itself would vary more between
        # seeds than the program does between runs. The seed moves the
        # private edges and the split, so every tag and answer set changes.
        g = synthetic.make_synthetic_kg(n_entities, n_comm, 6, 3, 4, seed=7)
        self.graph_path = os.path.join(self.work_dir, "graph.tsv")
        self.schema_path = os.path.join(self.work_dir, "schema.tsv")
        graph.write_triples(self.graph_path, g, g.triples)
        with open(self.schema_path, "w", encoding="utf-8") as f:
            for rel in g.relations:
                f.write("%s\t%s\n" % (rel.name, rel.kind))
        self.first = None

    def _commands(self, out):
        s = self.seed
        base = ["--graph", self.graph_path, "--schema", self.schema_path]
        private = ["--private", os.path.join(out, "privatize", "private.tsv")]
        return [
            ("ingest", ["ingest"] + base + ["--out", os.path.join(out, "ingest")]),
            ("privatize", ["privatize"] + base + ["--n-private", str(self.n_private),
                                                  "--seed", str(1 + s),
                                                  "--out", os.path.join(out, "privatize")]),
            ("split", ["split"] + base + private + ["--seed", str(1 + s),
                                                    "--out", os.path.join(out, "split")]),
            ("sample_queries", ["sample-queries"] + base + private + [
                "--qtype", "all", "--n", str(self.per_template), "--seed", "11",
                "--out", os.path.join(out, "queries")]),
        ]

    def run_round(self, index):
        rnd = Round()
        out = os.path.join(self.work_dir, "round")
        shutil.rmtree(out, ignore_errors=True)
        t_round = time.perf_counter()
        for stage, argv in self._commands(out):
            t0 = self.op("round%d/%s" % (index, stage))
            self.span("cli." + stage)
            code = cli.main(argv)
            self.end_span()
            rnd.stages[stage] = time.perf_counter() - t0
            rnd.ops += 1
            if code != 0:
                raise RuntimeError("privkg %s exited with %d" % (argv[0], code))
        # the audit path, as ``privkg audit`` runs it: load the test graph,
        # then tag the answers of every sampled query in both modes. Lookup
        # speed depends on where a graph's indices land in memory, so the
        # indices are rebuilt into several copies and every pass tags on
        # every copy: each timing then averages over the layouts.
        test = graph.load_triples(os.path.join(out, "split", "test.tsv"),
                                  graph.load_schema(self.schema_path))
        test = test.mark_private(graph.load_triple_set(
            os.path.join(out, "privatize", "private.tsv"), test))
        copies = [test] + [test.with_triples(test.triples, test.private)
                           for _ in range(self.audit_copies - 1)]
        queries = []
        for name in ARTIFACTS[2][1]:
            queries.extend(benchmark.read_benchmark(os.path.join(out, "queries", name),
                                                    copies[0]))
        # one operation is a pass over every query: queries differ so much in
        # cost that a median over single queries, or small groups of them,
        # jumps from one query to the next between runs
        audit = []
        for rep in range(self.audit_repeats):
            t0 = self.op("round%d/pass%d" % (index, rep))
            audit.append([[symbolic.evaluate_tagged(test, bq.query, mode)
                           for test in copies
                           for mode in (symbolic.RELAXED, symbolic.STRICT)]
                          for bq in queries])
            rnd.latencies.append(time.perf_counter() - t0)
        rnd.wall = time.perf_counter() - t_round
        rnd.items = len(queries) * self.audit_repeats * 2 * len(copies)
        rnd.ops += len(rnd.latencies)
        rnd.outputs = (out, copies[0], queries, audit)
        return rnd

    def check_round(self, rnd):
        """Artifacts byte-identical across rounds; every tagged answer obeys
        the tagging algebra and matches the sampled benchmark file."""
        out, test, queries, audit = rnd.outputs
        rnd.outputs = None
        failed = 0
        digests = _digests(out)
        if self.first is None:
            self.first = digests
        else:
            failed += sum(digests[k] != self.first[k] for k in digests)
        public = test.public_view()
        first = audit[0]
        for bq, tags in zip(queries, first):
            full = symbolic.evaluate(test, bq.query)
            public_answers = symbolic.evaluate(public, bq.query)
            relaxed, strict = tags[:2]
            for tagged in (relaxed, strict):
                failed += bool(tagged.public_members & tagged.private_members) \
                    or tagged.all_members() != full
            failed += relaxed.public_members != public_answers or relaxed != bq.test_answers
            failed += not strict.public_members <= relaxed.public_members
            # every copy of the graph tags alike
            failed += tags != tags[:2] * (len(tags) // 2)
        # so does every pass
        failed += sum(a != b for answers in audit[1:] for a, b in zip(answers, first))
        return failed

    def finish(self):
        """The CLI's artifacts against the same pipeline run through the library."""
        s = self.seed
        ref = os.path.join(self.work_dir, "reference")
        for d, _ in ARTIFACTS:
            os.makedirs(os.path.join(ref, d), exist_ok=True)
        g = graph.load_triples(self.graph_path, graph.load_schema(self.schema_path))
        private = benchmark.sample_private_edges(g, self.n_private, 1 + s)
        graph.write_triples(os.path.join(ref, "privatize", "private.tsv"), g, private)
        split = benchmark.split_edges(g, private, 1 + s)
        for name, kg in (("train", split.train), ("valid", split.valid), ("test", split.test)):
            graph.write_triples(os.path.join(ref, "split", name + ".tsv"), g, kg.triples)
        # ``sample-queries`` re-splits the graph with its own --seed, not the
        # split command's; the reference does what the CLI does
        split = benchmark.split_edges(g, private, 11)
        for qtype in QUERY_TYPES:
            qs = benchmark.sample_queries(split, qtype, self.per_template, 11)
            benchmark.write_benchmark(os.path.join(ref, "queries", "queries-%s.tsv" % qtype),
                                      qs, g)
        want = _digests(ref)
        return len(want), sum(self.first[k] != v for k, v in want.items())

    def artifacts(self):
        return dict(self.first)

    def throughput(self, rounds):
        """Benchmark queries written per second of the whole CLI pipeline."""
        return len(QUERY_TYPES) * self.per_template * len(rounds) / sum(
            sum(r.stages.values()) for r in rounds)

    def named_metrics(self, rounds):
        med = lambda key: float(np.median([r.stages[key] for r in rounds]))
        lat = [x for r in rounds for x in r.latencies]
        return {
            "ingest_s": (med("ingest"), "s"),
            "privatize_s": (med("privatize"), "s"),
            "split_s": (med("split"), "s"),
            "sample_queries_per_s": (len(QUERY_TYPES) * self.per_template
                                     / med("sample_queries"), "1/s"),
            "audit_qps": (sum(r.items for r in rounds) / sum(lat), "1/s"),
            "audit_pass_ms_p50": (1e3 * median_latency(rounds), "ms"),
            "audit_pass_ms_p90": (1e3 * percentile(lat, 90), "ms"),
        }


WORKLOADS = {w.name: w for w in (TrainGQE, EvalQ2B, Build4K)}
