"""Training-step cost of the three encoders at the acceptance-sweep size,
written to ``BENCH_train.json``.

    python3 scripts/bench_train.py --label change
    python3 scripts/bench_train.py --label parent --src ../privkg-parent

Each encoder runs three times, each time in a fresh child process that imports
``privkg`` from ``SRC/src`` (default: this checkout), so two checkouts measure
into this checkout's file under two labels; a label's earlier entry is
replaced, the others are kept.

The workload is perfbench's train-gqe configuration with the encoder swapped:
``make_synthetic_kg(230, 6, 6, 3, 4, seed 7)`` (302 vertices, 2,070 edges),
100 private edges and split seed 1, 200 queries per template (seed 11), dim
32 (seed 3), β 0.5, ``privacy_direction=both``, ``private_batch=100``, batch
64, Adam lr 0.02, full softmax, train seed 5. A child takes two untimed
warm-up steps, then times the 18 steps of one epoch: ``total_loss``,
``zero_grad``, ``backward``, the optimizer step and ``post_step``. Like
perfbench, it pins the BLAS pools to one thread and glibc malloc's mmap and
trim thresholds, so that step times do not depend on the run's allocation
history.

Per encoder, the file records the step wall time (median and quartiles over
every timed step of every child), the tape nodes reachable from one step's
loss, the ``scores`` calls per step (one per scoring node), and the peak RSS
of the children; ``nproc`` is recorded with them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

KINDS = ("gqe", "q2b", "q2p")
WARMUP = 2
REPEATS = 3  # fresh child processes per encoder
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pin_malloc() -> bool:
    """perfbench's malloc setting: fixed mmap (32 MB) and trim (128 MB) thresholds."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(-3, 32 << 20) == 1 and mallopt(-1, 128 << 20) == 1


def _tape_nodes(loss) -> int:
    seen, todo = {id(loss)}, [loss]
    while todo:
        for p in todo.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def child(kind: str) -> dict:
    """One warmed-up epoch of training steps; ``privkg`` must be importable."""
    pinned = _pin_malloc()
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
    step_s, nodes, calls = [], [], []
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
            nodes.append(_tape_nodes(loss))
    return {
        "vertices": g.num_vertices(),
        "edges": len(g.triples),
        "malloc_pinned": pinned,
        "step_s": step_s,
        "tape_nodes_per_step": statistics.median(nodes),
        "score_calls_per_step": statistics.median(calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(src: str, kind: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(src, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", kind],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="name of this checkout's entry, e.g. parent or change")
    parser.add_argument("--src", default=ROOT, help="checkout whose src/ is measured")
    parser.add_argument("--child", choices=KINDS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child)))
        return 0
    if not args.label:
        parser.error("--label is required")
    entry = {}
    for kind in KINDS:
        runs = [run(os.path.abspath(args.src), kind) for _ in range(REPEATS)]
        steps = sorted(s for r in runs for s in r["step_s"])
        q1, median, q3 = statistics.quantiles(steps, n=4)
        entry[kind] = {
            "vertices": runs[0]["vertices"],
            "edges": runs[0]["edges"],
            "steps": len(steps),
            "step_ms": {"q1": 1e3 * q1, "median": 1e3 * median, "q3": 1e3 * q3},
            "tape_nodes_per_step": statistics.median(r["tape_nodes_per_step"] for r in runs),
            "score_calls_per_step": statistics.median(r["score_calls_per_step"] for r in runs),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "malloc_pinned": all(r["malloc_pinned"] for r in runs),
            "runs": [{k: v for k, v in r.items() if k not in ("vertices", "edges")}
                     for r in runs],
        }
        print("%s %s: step %.2f ms (q1 %.2f, q3 %.2f), %g tape nodes, %g score calls"
              % (args.label, kind, 1e3 * median, 1e3 * q1, 1e3 * q3,
                 entry[kind]["tape_nodes_per_step"], entry[kind]["score_calls_per_step"]),
              file=sys.stderr)
    out = os.path.join(ROOT, "BENCH_train.json")
    result = {}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as f:
            result = json.load(f)
    result.update({"script": "scripts/bench_train.py", "nproc": os.cpu_count(),
                   "encoders": list(KINDS)})
    result.setdefault("labels", {})[args.label] = entry
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
