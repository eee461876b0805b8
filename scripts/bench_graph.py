"""Per-stage wall time of the graph pipeline on a size ladder, written to
``BENCH_graph.json``.

    python3 scripts/bench_graph.py --label change
    python3 scripts/bench_graph.py --label parent --src ../privkg-parent

Each rung runs three times, each time in a fresh child process that imports
``privkg`` from ``SRC/src`` (default: this checkout), so two checkouts measure
into this checkout's file under two labels; a label's earlier entry is
replaced, the others are kept.
The child times, in order:

- generate: ``make_synthetic_kg`` with the rung's arguments;
- write: ``write_triples`` of the whole graph to a TSV file;
- load: ``load_triples`` of that file;
- privatize: ``sample_private_edges`` (seed 1) and ``write_triples`` of them;
- split: ``split_edges`` (seed 1);
- sample-queries: ``sample_queries``, 10 per template (seed 11), relaxed.

It also reports its peak RSS and its number of garbage collections. The file
keeps every run's numbers and, per stage, their median; ``nproc`` is recorded
with them. Rungs: build-4k's graph (5,248 vertices, 36,000 edges) and a 15k
rung (19,500 vertices, 645,000 edges).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

RUNGS = {
    "build-4k": {"args": [4000, 104, 6, 3, 4, 1, 7], "n_private": 2000},
    "15k": {"args": [15000, 375, 20, 3, 4, 2, 7], "n_private": 7500},
}
STAGES = ("generate", "write", "load", "privatize", "split", "sample_queries")
REPEATS = 3  # fresh child processes per rung
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child(rung: str) -> dict:
    """One timed pass over the stages; ``privkg`` must be importable."""
    from privkg import benchmark, graph, queries, synthetic

    spec = RUNGS[rung]
    seconds = {}
    gc_before = sum(s["collections"] for s in gc.get_stats())

    def timed(stage, fn):
        t0 = time.perf_counter()
        out = fn()
        seconds[stage] = time.perf_counter() - t0
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
        timed("sample_queries", lambda: [benchmark.sample_queries(split, qtype, 10, 11)
                                         for qtype in queries.QUERY_TYPES])
    return {
        "vertices": g.num_vertices(),
        "edges": len(g.triples),
        "seconds": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "gc_collections": sum(s["collections"] for s in gc.get_stats()) - gc_before,
    }


def run(src: str, rung: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(src, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", rung],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="name of this checkout's entry, e.g. parent or change")
    parser.add_argument("--src", default=ROOT, help="checkout whose src/ is measured")
    parser.add_argument("--child", choices=list(RUNGS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child)))
        return 0
    if not args.label:
        parser.error("--label is required")
    entry = {}
    for rung in RUNGS:
        runs = [run(os.path.abspath(args.src), rung) for _ in range(REPEATS)]
        entry[rung] = {
            "vertices": runs[0]["vertices"],
            "edges": runs[0]["edges"],
            "median_s": {s: statistics.median(r["seconds"][s] for r in runs) for s in STAGES},
            "median_total_s": statistics.median(sum(r["seconds"].values()) for r in runs),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "gc_collections": statistics.median(r["gc_collections"] for r in runs),
            "runs": runs,
        }
        print("%s %s: %s" % (args.label, rung, json.dumps(entry[rung]["median_s"])),
              file=sys.stderr)
    out = os.path.join(ROOT, "BENCH_graph.json")
    result = {}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as f:
            result = json.load(f)
    result.update({"script": "scripts/bench_graph.py", "nproc": os.cpu_count(),
                   "rungs": RUNGS})
    result.setdefault("labels", {})[args.label] = entry
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
