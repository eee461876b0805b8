"""Parent-against-change benchmarks of one topic, written to ``BENCH_<topic>.json``.

    python3 scripts/bench.py graph --src parent=../privkg-parent --src change=.
    python3 scripts/bench.py train --src parent=../privkg-parent --src change=.

Each ``--src LABEL=DIR`` names a checkout whose ``DIR/src`` is measured under
LABEL. Every case of the topic runs ten rounds; a round runs one fresh child
process per label, and the label that goes first rotates from round to round,
so a burst of host load lands on every label rather than on one. Every label
after the first ``--src`` gets a ``paired`` verdict per case against the first
label: its per-round ``ratios`` (its child's time over the first label's child
in the same round; graph: summed stage seconds, train: median step seconds),
its ``wins`` (rounds with a ratio below 1; ties count for neither side) and
``p``, the two-sided sign-test p-value of its wins against its losses.

Each child imports ``privkg`` from its checkout and, before that, pins the
BLAS pools to one thread and glibc malloc's mmap and trim thresholds with
perfbench's own settings (``perfbench/run.py``), so that times do not depend
on the run's allocation history; it reports whether the malloc pinning took
(``malloc_pinned``) and its peak RSS. A child that fails stops the run with
its label, case and standard error, and nothing is written. Otherwise the
measured labels' entries replace their earlier ones in the file, the other
labels are kept, and ``nproc`` is recorded with them. Each entry also records
the numeric environment its children ran on, read from
``numpy.show_config(mode="dicts")``: the numpy version, the BLAS ``name``,
``version`` and ``openblas configuration`` (which names the build target, not
the kernel OpenBLAS picks at run time), the SIMD extensions found, and
``OPENBLAS_CORETYPE`` (null when unset), which forces that kernel.

Topic ``graph``, one case per rung (build-4k's graph, 5,248 vertices and
36,000 edges, and a 15k rung, 19,500 vertices and 645,000 edges); a child
times, in order:

- generate: ``make_synthetic_kg`` with the rung's arguments;
- write: ``write_triples`` of the whole graph to a TSV file;
- load: ``load_triples`` of that file;
- privatize: ``sample_private_edges`` (seed 1) and ``write_triples`` of them;
- split: ``split_edges`` (seed 1);
- sample-queries: ``sample_queries``, 10 per template (seed 11), relaxed;
- audit: one pass of ``evaluate_tagged`` on the test graph over those
  queries, in relaxed and then in strict mode;
- save_checkpoint: ``Encoder.save`` of a GQE encoder at dim 32 (seed 3,
  built untimed) on the loaded graph, 624,000 table values on the 15k rung;
- load_checkpoint: ``load_encoder`` of that file onto the loaded graph;

and counts its garbage collections and, per stage, its minor page faults
(``ru_minflt``): a stage that touches pages no earlier stage faulted in pays
for them, so its time depends on what ran before it. The file keeps every
run's numbers and, per stage, their medians.

Topic ``train``, one case per encoder (GQE, Q2B, Q2P): perfbench's train-gqe
configuration with the encoder swapped: ``make_synthetic_kg(230, 6, 6, 3, 4,
seed 7)`` (302 vertices, 2,070 edges), 100 private edges and split seed 1,
200 queries per template (seed 11), dim 32 (seed 3), β 0.5,
``privacy_direction=both``, ``private_batch=100``, batch 64, Adam lr 0.02,
full softmax, train seed 5. A child takes two untimed warm-up steps, then
times the 18 steps of one epoch: ``total_loss``, ``zero_grad``, ``backward``,
the optimizer step and ``post_step``. The file records the step wall time
(median and quartiles over every timed step of every child), the tape nodes
reachable from one step's loss and the ``scores`` calls per step (one per
scoring node). After the timed epoch the child replays each step's loss,
untimed, with every public ``autodiff`` op of ``OPS`` wrapped from the outside
(as ``perfbench/spans.py`` wraps its hooks), and records how many of the
loss's tape nodes each op built (``tape_nodes_by_op``; a node goes to the
innermost op that returned it, and a call that returns a leaf or one of its
inputs, like a one-part ``concat``, builds none) and how many are leaves
(``tape_leaves_per_step``). A replay whose op counts plus leaves differ from
the timed step's node count stops the child. Each is a median over steps.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, NamedTuple

ROUNDS = 10  # fresh child processes per case and label
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# -- topic graph ----------------------------------------------------------------

RUNGS = {
    "build-4k": {"args": [4000, 104, 6, 3, 4, 1, 7], "n_private": 2000},
    "15k": {"args": [15000, 375, 20, 3, 4, 2, 7], "n_private": 7500},
}
STAGES = ("generate", "write", "load", "privatize", "split", "sample_queries", "audit",
          "save_checkpoint", "load_checkpoint")


def graph_child(rung: str) -> dict:
    """One timed pass over the stages; ``privkg`` must be importable."""
    from privkg import benchmark, encoders, graph, queries, symbolic, synthetic

    spec = RUNGS[rung]
    seconds, minflt = {}, {}
    gc_before = sum(s["collections"] for s in gc.get_stats())

    def timed(stage, fn):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        out = fn()
        seconds[stage] = time.perf_counter() - t0
        minflt[stage] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return out

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.tsv")
        g = timed("generate", lambda: synthetic.make_synthetic_kg(*spec["args"]))
        schema = {r.name: r.kind for r in g.relations}
        timed("write", lambda: graph.write_triples(path, g, g.triples))
        g = timed("load", lambda: graph.load_triples(path, schema))

        def privatize():
            private = benchmark.sample_private_edges(g, spec["n_private"], 1)
            graph.write_triples(os.path.join(tmp, "private.tsv"), g, private)
            return private

        private = timed("privatize", privatize)
        split = timed("split", lambda: benchmark.split_edges(g, private, 1))
        sampled = timed("sample_queries", lambda: [benchmark.sample_queries(split, qtype, 10, 11)
                                                   for qtype in queries.QUERY_TYPES])
        timed("audit", lambda: [symbolic.evaluate_tagged(split.test, bq.query, mode)
                                for mode in symbolic.MODES for bqs in sampled for bq in bqs])
        model = encoders.make_encoder("gqe", g, dim=32, seed=3)
        checkpoint = os.path.join(tmp, "model.ckpt")
        timed("save_checkpoint", lambda: model.save(checkpoint))
        timed("load_checkpoint", lambda: encoders.load_encoder(checkpoint, g))
    return {
        "vertices": g.num_vertices(),
        "edges": len(g.triples),
        "seconds": seconds,
        "minflt": minflt,
        "gc_collections": sum(s["collections"] for s in gc.get_stats()) - gc_before,
    }


def graph_summary(runs: list) -> dict:
    return {
        "median_s": {s: statistics.median(r["seconds"][s] for r in runs) for s in STAGES},
        "median_total_s": statistics.median(sum(r["seconds"].values()) for r in runs),
        "median_minflt": {s: statistics.median(r["minflt"][s] for r in runs) for s in STAGES},
        "gc_collections": statistics.median(r["gc_collections"] for r in runs),
    }


# -- topic train ----------------------------------------------------------------

KINDS = ("gqe", "q2b", "q2p")
WARMUP = 2
# the public ops of ``privkg.autodiff`` whose tape nodes are counted; one that a
# checkout lacks is skipped, and one left out here fails the leaves check
OPS = ("add", "subtract", "multiply", "matmul", "concat", "stack", "rows", "reshape",
       "reduce_sum", "reduce_mean", "reduce_min", "reduce_max", "relu", "sigmoid", "tanh",
       "distances", "box_distances", "softmax", "segment_log_softmax", "attention", "transpose")


def _tape(loss) -> list:
    """Every node reachable from ``loss``, itself included."""
    seen, todo = {id(loss): loss}, [loss]
    while todo:
        for p in todo.pop().parents:
            if id(p) not in seen:
                seen[id(p)] = p
                todo.append(p)
    return list(seen.values())


@contextlib.contextmanager
def _recording_ops(autodiff):
    """Within it, the ``OPS`` of the module ``autodiff`` record each node they
    build as node id -> (op, node), the op being the innermost that returned it;
    a call that returns a leaf or a node already recorded records nothing."""
    built = {}

    def recorded(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out.parents and id(out) not in built:
                built[id(out)] = (name, out)
            return out
        return wrapper

    originals = {name: getattr(autodiff, name) for name in OPS if hasattr(autodiff, name)}
    for name, fn in originals.items():
        setattr(autodiff, name, recorded(name, fn))
    try:
        yield built
    finally:
        for name, fn in originals.items():
            setattr(autodiff, name, fn)


def tape_nodes_by_op(autodiff, forward: Callable) -> tuple:
    """The nodes of ``forward()``'s tape that each op of ``OPS`` built, as a
    dict, and its leaves, the nodes without parents."""
    with _recording_ops(autodiff) as built:
        tape = _tape(forward())
        by_op = collections.Counter(built[id(n)][0] for n in tape if id(n) in built)
    return dict(by_op), sum(not n.parents for n in tape)


def train_child(kind: str) -> dict:
    """One warmed-up epoch of training steps; ``privkg`` must be importable."""
    from privkg import autodiff, benchmark, encoders, queries, synthetic, training

    g = synthetic.make_synthetic_kg(230, 6, 6, 3, 4, seed=7)
    private = benchmark.sample_private_edges(g, 100, 1)
    split = benchmark.split_edges(g, private, 1)
    pool = []
    for qtype in queries.QUERY_TYPES:
        pool.extend(benchmark.sample_queries(split, qtype, 200, 11))
    trainable = benchmark.training_subset(pool)
    private_pool = sorted(private)
    model = encoders.make_encoder(kind, split.test, dim=32, seed=3)
    cfg = training.TrainConfig(beta=0.5, lr=0.02, batch_size=64, seed=5,
                               privacy_direction=training.BOTH, private_batch=100)
    optimizer = autodiff.Adam(model.store, cfg.lr)
    rng = random.Random(cfg.seed)
    score_calls = [0]
    scores = model.scores

    def counted(emb):
        score_calls[0] += 1
        return scores(emb)

    model.scores = counted
    order = list(trainable)
    rng.shuffle(order)
    batches = [[(bq.query, bq.train_answers) for bq in order[s:s + cfg.batch_size]]
               for s in range(0, len(order), cfg.batch_size)]
    step_s, nodes, calls, replays = [], [], [], []
    for i, batch in enumerate(batches[:WARMUP] + batches):
        sample = rng.sample(private_pool, min(cfg.private_batch, len(private_pool)))
        score_calls[0] = 0
        t0 = time.perf_counter()
        loss, _, _ = training.total_loss(model, batch, sample, cfg.beta,
                                         cfg.privacy_direction, rng, cfg.candidate_sample)
        model.store.zero_grad()
        loss.backward()
        optimizer.step()
        model.post_step()
        elapsed = time.perf_counter() - t0
        if i >= WARMUP:
            step_s.append(elapsed)
            calls.append(score_calls[0])
            nodes.append(len(_tape(loss)))
            replays.append((batch, sample))
    by_op, leaves = [], []
    for (batch, sample), total in zip(replays, nodes):
        counts, n_leaves = tape_nodes_by_op(autodiff, lambda: training.total_loss(
            model, batch, sample, cfg.beta, cfg.privacy_direction, rng, cfg.candidate_sample)[0])
        if sum(counts.values()) + n_leaves != total:
            raise SystemExit("bench: %s step of %d tape nodes replays as %r plus %d leaves"
                             % (kind, total, counts, n_leaves))
        by_op.append(counts)
        leaves.append(n_leaves)
    return {
        "vertices": g.num_vertices(),
        "edges": len(g.triples),
        "step_s": step_s,
        "tape_nodes_per_step": statistics.median(nodes),
        "tape_nodes_by_op": {op: statistics.median(c.get(op, 0) for c in by_op)
                             for op in sorted(set().union(*by_op))},
        "tape_leaves_per_step": statistics.median(leaves),
        "score_calls_per_step": statistics.median(calls),
    }


def train_summary(runs: list) -> dict:
    steps = sorted(s for r in runs for s in r["step_s"])
    q1, median, q3 = statistics.quantiles(steps, n=4)
    return {
        "steps": len(steps),
        "step_ms": {"q1": 1e3 * q1, "median": 1e3 * median, "q3": 1e3 * q3},
        "tape_nodes_per_step": statistics.median(r["tape_nodes_per_step"] for r in runs),
        "tape_nodes_by_op": {op: statistics.median(r["tape_nodes_by_op"].get(op, 0) for r in runs)
                             for op in sorted(set().union(*(r["tape_nodes_by_op"] for r in runs)))},
        "tape_leaves_per_step": statistics.median(r["tape_leaves_per_step"] for r in runs),
        "score_calls_per_step": statistics.median(r["score_calls_per_step"] for r in runs),
    }


class Topic(NamedTuple):
    cases: list
    child: Callable  # case -> one child's numbers
    summary: Callable  # one case's runs under one label -> the entry's topic fields
    seconds: Callable  # one child's numbers -> the time its paired verdict compares
    described: dict  # what the file records of the cases


TOPICS = {
    "graph": Topic(list(RUNGS), graph_child, graph_summary,
                   lambda r: sum(r["seconds"].values()), {"rungs": RUNGS}),
    "train": Topic(list(KINDS), train_child, train_summary,
                   lambda r: statistics.median(r["step_s"]), {"encoders": list(KINDS)}),
}

# -- the runner shared by every topic ---------------------------------------------

ENV_KEYS = ("numpy_version", "blas", "simd_found", "openblas_coretype")


def numeric_env() -> dict:
    """The ``ENV_KEYS`` of this process: numpy's build, as ``show_config``
    reports it, and the OpenBLAS kernel forced through the environment, if any."""
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy_version": numpy.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
            "simd_found": config["SIMD Extensions"]["found"],
            "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE")}


def paired(first: list, runs: list, seconds: Callable) -> dict:
    """``runs`` against the first label's ``first``, round by round: the ratios of
    their times, the rounds ``runs`` wins, and the two-sided sign-test p-value."""
    ratios = [seconds(r) / seconds(f) for r, f in zip(runs, first)]
    wins, losses = sum(x < 1 for x in ratios), sum(x > 1 for x in ratios)
    tail = sum(math.comb(wins + losses, k) for k in range(min(wins, losses) + 1))
    return {"ratios": ratios, "wins": wins, "p": min(1.0, 2 * tail / 2 ** (wins + losses))}


def child(topic: str, case: str) -> dict:
    """One child's measurement, pinned like perfbench before ``privkg`` loads."""
    sys.path.insert(0, ROOT)
    from perfbench import run as perfbench_run  # sets the BLAS pools to one thread

    pinned = perfbench_run.pin_allocator()
    result = TOPICS[topic].child(case)
    result["malloc_pinned"] = pinned
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(numeric_env())
    return result


def run(topic: str, case: str, label: str, src: str) -> dict:
    """One fresh child process measuring ``src/`` of the checkout ``src``."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), topic, "--child", case],
                          env=dict(os.environ, PYTHONPATH=os.path.join(src, "src")),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%sbench: %s child for label %r, case %r (%s) exited with %d"
                         % (proc.stderr, topic, label, case, src, proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def label_dir(text: str) -> tuple:
    label, sep, src = text.partition("=")
    if not (label and sep and src):
        raise argparse.ArgumentTypeError("expected LABEL=DIR, got %r" % text)
    src = os.path.abspath(src)
    if not os.path.isfile(os.path.join(src, "src", "privkg", "__init__.py")):
        raise argparse.ArgumentTypeError("no privkg package under %s/src" % src)
    return label, src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("topic", choices=list(TOPICS))
    parser.add_argument("--src", action="append", type=label_dir, default=[],
                        metavar="LABEL=DIR", help="a checkout to measure under LABEL "
                        "(repeatable; e.g. parent=../privkg-parent)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    topic = TOPICS[args.topic]
    if args.child:
        if args.child not in topic.cases:
            parser.error("unknown %s case %r (expected one of %s)"
                         % (args.topic, args.child, ", ".join(topic.cases)))
        print(json.dumps(child(args.topic, args.child)))
        return 0
    labels = [label for label, _ in args.src]
    if not labels:
        parser.error("at least one --src LABEL=DIR is required")
    if len(set(labels)) != len(labels):
        parser.error("label %r is given twice" % next(x for x in labels if labels.count(x) > 1))
    entries = {label: {} for label in labels}
    for case in topic.cases:
        runs = {label: [] for label in labels}
        for i in range(ROUNDS):
            for label, src in args.src[i % len(labels):] + args.src[:i % len(labels)]:
                runs[label].append(run(args.topic, case, label, src))
        for label, label_runs in runs.items():
            # one checkout, one numeric environment: kept once per entry, not per run
            env = [{key: r.pop(key) for key in ENV_KEYS} for r in label_runs][0]
            summarized = topic.summary(label_runs)
            if label != labels[0]:
                summarized["paired"] = paired(runs[labels[0]], label_runs, topic.seconds)
            print("%s %s: %s" % (label, case, json.dumps(summarized)), file=sys.stderr)
            entries[label][case] = {
                "vertices": label_runs[0]["vertices"],
                "edges": label_runs[0]["edges"],
                **summarized,
                "peak_rss_mb": max(r["peak_rss_mb"] for r in label_runs),
                "malloc_pinned": all(r["malloc_pinned"] for r in label_runs),
                **env,
                "runs": label_runs,
            }
    out = os.path.join(ROOT, "BENCH_%s.json" % args.topic)
    result = {}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as f:
            result = json.load(f)
    result.update({"script": "scripts/bench.py", "nproc": os.cpu_count(), **topic.described})
    result.setdefault("labels", {}).update(entries)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
