"""Layered benchmark for privkg.

    python3 perfbench/run.py --workload train-gqe --seed 0 --seconds 30 --trace 0

Runs one workload (train-gqe, eval-q2b or build-4k) from the root of a
checkout against the package under ``src/``. Set-up is repeated and timed
the workload's ``setups`` times; then whole rounds run until ``--seconds`` is
used up. Every output is checked against an independent reference. The last
line of standard output is the JSON result: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads: the workloads are
# single-client, and one pinned thread keeps runs comparable across machines.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# per-layer shares: metric name -> span name (self time over traced wall)
LAYER_SHARES = {
    "autodiff.backward_pct": "autodiff.backward",
    "autodiff.optimizer_step_pct": "autodiff.optimizer_step",
    "autodiff.zero_grad_pct": "autodiff.zero_grad",
    "autodiff.checkpoint_load_pct": "autodiff.checkpoint_load",
    "encoders.encode_pct": "encoders.encode",
    "encoders.scores_all_pct": "encoders.scores_all",
    "encoders.log_probabilities_pct": "encoders.log_probabilities",
    "encoders.perturb_pct": "encoders.perturb",
    "encoders.post_step_pct": "encoders.post_step",
    "training.public_loss_pct": "training.public_loss",
    "training.privacy_loss_pct": "training.privacy_loss",
    "evaluation.rank_pct": "evaluation.rank",
    "queries.to_dnf_pct": "queries.to_dnf",
    "graph.load_triples_pct": "graph.load_triples",
    "graph.view_build_pct": "graph.view_build",
    "graph.write_triples_pct": "graph.write_triples",
    "benchmark.split_edges_pct": "benchmark.split_edges",
    "benchmark.sample_queries_pct": "benchmark.sample_queries",
    "benchmark.write_benchmark_pct": "benchmark.write_benchmark",
    "symbolic.evaluate_pct": "symbolic.evaluate",
    "symbolic.evaluate_tagged_pct": "symbolic.evaluate_tagged",
    "synthetic.make_synthetic_kg_pct": "synthetic.make_synthetic_kg",
    "cli.ingest_pct": "cli.ingest",
    "cli.privatize_pct": "cli.privatize",
    "cli.split_pct": "cli.split",
    "cli.sample_queries_pct": "cli.sample_queries",
}

# per-layer counts over the traced set-up and the first traced round:
# metric name -> span name whose calls are counted
LAYER_CALLS = {
    "encoders.encode_calls": "encoders.encode",
    "evaluation.rank_calls": "evaluation.rank",
    "queries.to_dnf_calls": "queries.to_dnf",
    "graph.view_builds": "graph.view_build",
    "symbolic.evaluate_calls": "symbolic.evaluate",
    "symbolic.evaluate_tagged_calls": "symbolic.evaluate_tagged",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--rounds", type=int, default=0,
                   help="run exactly this many rounds instead of filling --seconds "
                        "(at least 2 with --trace 1)")
    p.add_argument("--reduced", action="store_true",
                   help="smaller inputs, for the repeatability self-test")
    p.add_argument("--work-dir", default=os.path.join(ROOT, ".perfbench_work"))
    return p.parse_args(argv)


def import_program():
    """Import privkg from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "privkg", "__init__.py")):
        raise SystemExit("perfbench: no privkg package under %s" % src)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import privkg
    if os.path.dirname(os.path.abspath(privkg.__file__)) != os.path.join(src, "privkg"):
        raise SystemExit("perfbench: privkg imported from %s, not %s" % (privkg.__file__, src))


def pin_allocator() -> bool:
    """Fix glibc malloc's mmap and trim thresholds for this process.

    By default glibc moves both thresholds as blocks are freed, so whether the
    many temporary arrays of a few hundred KB are served from the heap or
    from fresh, page-faulting memory depends on the allocation history of
    the run. Measured on eval-q2b, that flips query latency by 2x between
    runs that differ only in set-up order. Fixed thresholds remove the
    lottery. Returns False where there is no glibc mallopt."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return (mallopt(m_mmap_threshold, 32 << 20) == 1
            and mallopt(m_trim_threshold, 128 << 20) == 1)


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def run(args) -> dict:
    import numpy as np
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit("perfbench: unknown workload %r (choose from %s)"
                         % (args.workload, ", ".join(WORKLOADS)))
    shutil.rmtree(args.work_dir, ignore_errors=True)
    os.makedirs(args.work_dir)
    wl = WORKLOADS[args.workload](args.seed, args.work_dir, args.reduced)
    tracer = Tracer() if args.trace else None

    def traced(on):
        if on:
            tracer.install()
            wl.tracer = tracer
        return time.perf_counter()

    def untraced(on):
        if on:
            tracer.uninstall()
            wl.tracer = None

    # set-up, repeated; with tracing the last repeat is traced
    setup_s, traced_wall = [], 0.0
    for i in range(wl.setups):
        gc.collect()
        on = bool(tracer) and i == wl.setups - 1
        t0 = traced(on)
        wl.setup()
        dt = time.perf_counter() - t0
        untraced(on)
        setup_s.append(dt)
        traced_wall += dt if on else 0.0

    # timed rounds; with tracing, even rounds are traced and odd ones not
    rounds, attempted, failed = [], 0, 0
    walls = {True: [], False: []}
    snapshot = None
    t_start = time.perf_counter()
    while True:
        k = len(rounds)
        on = bool(tracer) and k % 2 == 0
        traced(on)
        rnd = wl.run_round(k)
        untraced(on)
        walls[on].append(rnd.wall)
        traced_wall += rnd.wall if on else 0.0
        if on and snapshot is None:
            snapshot = (dict(tracer.counts), tracer.calls(), tracer.gc_collections, rnd.steps)
        attempted += rnd.ops
        failed += min(rnd.ops, wl.check_round(rnd))
        rounds.append(rnd)
        elapsed = time.perf_counter() - t_start
        ops = sum(r.ops for r in rounds)
        if args.rounds:
            if len(rounds) >= args.rounds:
                break
        elif (ops >= wl.min_ops and len(rounds) >= (2 if tracer else 1)
              and elapsed + elapsed / len(rounds) > args.seconds):
            break
    n, f = wl.finish()
    attempted += n
    failed += f

    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "throughput_per_s": (wl.throughput(rounds), "1/s"),
        "latency_ms_tail": (1e3 * wl.tail_latency(rounds), "ms"),
    }
    named = wl.named_metrics(rounds)
    named["failed_frac"] = (failed / attempted, "ratio")
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "threads_env": os.environ["OMP_NUM_THREADS"],
        "setups": wl.setups, "setup_s_samples": setup_s, "rounds": len(rounds),
        "latency_samples": sum(len(r.latencies) for r in rounds),
        "tail_percentile": wl.tail_percentile,
        "attempted": attempted, "failed": failed,
        "artifacts": wl.artifacts(),
    }
    result = {"meta": meta, "end_to_end": e2e, "named": named}
    if tracer:
        result["per_layer"] = per_layer(tracer, traced_wall, walls, snapshot)
        result["self_seconds"] = tracer.self_times()
        meta["trace_missing_hooks"] = sorted(tracer.missing)
        tracer.dump(os.path.join(args.work_dir, "spans.jsonl"))
    return result


def per_layer(tracer, traced_wall, walls, snapshot) -> dict:
    counts, calls, gc_collections, steps = snapshot
    self_s = tracer.self_times()
    out = {name: (100.0 * self_s.get(span, 0.0) / traced_wall, "%")
           for name, span in LAYER_SHARES.items()}
    out["autodiff.gc_pct"] = (100.0 * tracer.gc_s / traced_wall, "%")
    for name, span in LAYER_CALLS.items():
        out[name] = (calls.get(span, 0), "count")
    out["autodiff.gc_collections"] = (gc_collections, "count")
    out["graph.neighbors_calls"] = (counts.get("graph.neighbors_calls", 0), "count")
    attempts = counts.get("benchmark.sample_attempts", 0)
    out["benchmark.sample_attempts"] = (attempts, "count")
    accepted = counts.get("benchmark.sample_accepted", 0)
    out["benchmark.sample_accept_ratio"] = (accepted / attempts if attempts else 0.0, "ratio")

    def mean(key):
        vals = [s[key] for s in steps if key in s]
        return sum(vals) / len(vals) if vals else 0.0

    out["autodiff.tape_nodes_per_step"] = (mean("tape_nodes"), "count")
    out["training.pairs_per_step"] = (mean("pairs"), "count")
    out["training.privacy_terms_per_step"] = (mean("privacy_terms"), "count")
    out["evaluation.filter_size_mean"] = (
        sum(s.get("filter_size", 0) for s in steps) / max(1, calls.get("evaluation.rank", 0)),
        "count")
    out["trace.spans"] = (sum(calls.values()), "count")
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    out["trace.overhead_pct"] = (100.0 * overhead, "%")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.trace and args.rounds == 1:
        raise SystemExit("perfbench: --trace 1 needs a traced and an untraced round")
    import_program()
    allocator_pinned = pin_allocator()
    result = run(args)
    result["meta"]["allocator_pinned"] = allocator_pinned
    print("# meta " + json.dumps(result["meta"], sort_keys=True))
    for section in ("end_to_end", "named", "per_layer"):
        for name, (value, unit) in sorted(result.get(section, {}).items()):
            print("%-10s %-36s %.6g %s" % (section, name, value, unit))
    for name, secs in sorted(result.get("self_seconds", {}).items()):
        print("%-10s %-36s %.6g s" % ("self_time", name, secs))
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    meta = result["meta"]
    print(json.dumps({
        "correct": meta["failed"] == 0,
        "attempted": meta["attempted"],
        "failed": meta["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
