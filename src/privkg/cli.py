"""Command-line pipeline: ingest, privatize, split, sample-queries, train,
eval, audit, report.

Every command writes its artifacts under --out together with a JSON manifest
(command, flags, seeds, tool version, input digests keyed by flag). Seeds are
mandatory wherever randomness is involved; nothing defaults to wall-clock state.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .benchmark import (read_benchmark, sample_private_edges, sample_queries,
                        split_edges, stats, format_stats, write_benchmark)
from .encoders import DEFAULT_DIM, DEFAULT_PARTICLES, ENCODERS, load_encoder, make_encoder
from .evaluation import evaluate_model
from .graph import (load_schema, load_triple_set, load_triples, write_triples)
from .queries import QUERY_TYPES, parse_query
from .symbolic import RELAXED, STRICT, evaluate_tagged
from .training import BOTH, REVERSE_ONLY, NoiseConfig, TrainConfig, train


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, args, outputs) -> None:
    inputs = {flag: getattr(args, flag, None) for flag in
              ("graph", "schema", "private", "checkpoint", "eval_report", "baseline")}
    for p in _benchmark_files(args.benchmark) if getattr(args, "benchmark", None) else ():
        inputs["benchmark/" + os.path.basename(p)] = p
    manifest = {
        "tool": "privkg %s" % __version__,
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": {flag: _digest(p) for flag, p in inputs.items() if p},
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_graph(args):
    g = load_triples(args.graph, load_schema(args.schema))
    if getattr(args, "private", None):
        g = g.mark_private(load_triple_set(args.private, g))
    return g


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_ingest(args):
    g = _load_graph(args)
    out = _ensure_out(args)
    stats_path = os.path.join(out, "graph-stats.json")
    with open(stats_path, "w", encoding="utf-8") as f:
        json.dump({
            "vertices": g.num_vertices(),
            "relations": len(g.relations),
            "triples": len(g.triples),
            "attribute_triples": len(g.attribute_triples()),
            "private_triples": len(g.private),
        }, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_manifest(out, args, [stats_path])
    return 0


def cmd_privatize(args):
    g = _load_graph(args)
    private = sample_private_edges(g, args.n_private, args.seed)
    out = _ensure_out(args)
    path = os.path.join(out, "private.tsv")
    write_triples(path, g, private)
    _write_manifest(out, args, [path])
    return 0


def cmd_split(args):
    g = _load_graph(args)
    split = split_edges(g, g.private, args.seed)
    out = _ensure_out(args)
    paths = []
    for name, kg in (("train", split.train), ("valid", split.valid), ("test", split.test)):
        path = os.path.join(out, "%s.tsv" % name)
        write_triples(path, g, kg.triples)
        paths.append(path)
    _write_manifest(out, args, paths)
    return 0


def cmd_sample_queries(args):
    g = _load_graph(args)
    split = split_edges(g, g.private, args.seed)
    qtypes = QUERY_TYPES if args.qtype == "all" else (args.qtype,)
    out = _ensure_out(args)
    paths = []
    pool = []
    for qtype in qtypes:
        queries = sample_queries(split, qtype, args.n, args.seed, args.mode)
        pool.extend(queries)
        path = os.path.join(out, "queries-%s.tsv" % qtype)
        write_benchmark(path, queries, g)
        paths.append(path)
    stats_path = os.path.join(out, "stats.tsv")
    with open(stats_path, "w", encoding="utf-8") as f:
        f.write(format_stats(stats(pool)))
    paths.append(stats_path)
    _write_manifest(out, args, paths)
    return 0


def _benchmark_files(path) -> list:
    return [os.path.join(path, name) for name in sorted(os.listdir(path))
            if name.startswith("queries-") and name.endswith(".tsv")]


def _read_benchmark_dir(path, g):
    queries = [bq for p in _benchmark_files(path) for bq in read_benchmark(p, g)]
    if not queries:
        raise SystemExit("no queries-*.tsv files under %s" % path)
    return queries


def cmd_train(args):
    g = _load_graph(args)
    queries = _read_benchmark_dir(args.benchmark, g)
    model = make_encoder(args.model, g, dim=args.dim, seed=args.seed,
                         n_particles=args.particles)
    config = TrainConfig(beta=args.beta, lr=args.lr, epochs=args.epochs,
                         batch_size=args.batch_size, seed=args.seed,
                         privacy_direction=args.privacy_direction)
    trace = train(model, queries, g.private, config,
                  progress=lambda e, lu, lp, l: print(
                      "epoch %d  L_u=%.4f  L_p=%.4f  L=%.4f" % (e, lu, lp, l), file=sys.stderr))
    out = _ensure_out(args)
    ckpt = os.path.join(out, "model.ckpt")
    model.save(ckpt)
    trace_path = os.path.join(out, "trace.csv")
    trace.write_csv(trace_path)
    _write_manifest(out, args, [ckpt, trace_path])
    return 0


def cmd_eval(args):
    if args.protection == "noise" and args.sigma is None:
        raise SystemExit("--sigma is required with --protection noise")
    g = _load_graph(args)
    queries = _read_benchmark_dir(args.benchmark, g)
    model = load_encoder(args.checkpoint, g)
    noise = None
    if args.protection == "noise":
        noise = NoiseConfig(sigma=args.sigma, seed=args.seed)
    report = evaluate_model(model, queries, noise)
    out = _ensure_out(args)
    path = os.path.join(out, "report.tsv")
    with open(path, "w", encoding="utf-8") as f:
        f.write(report.to_tsv())
    with open(os.path.join(out, "ranks.json"), "w", encoding="utf-8") as f:
        json.dump({"%s/%s" % k: v for k, v in report.ranks.items()}, f, sort_keys=True)
        f.write("\n")
    _write_manifest(out, args, [path, os.path.join(out, "ranks.json")])
    return 0


def cmd_audit(args):
    g = _load_graph(args)
    q = parse_query(args.query, g)
    tagged = evaluate_tagged(g, q, args.mode)
    for v in sorted(tagged.public_members | tagged.private_members,
                    key=lambda v: g.vertex_name(v)):
        label = "private" if v in tagged.private_members else "public"
        print("%s\t%s" % (g.vertex_name(v), label))
    return 0


def _read_report_tsv(path) -> list[list[str]]:
    """The fields of every line of an eval report.tsv, header first."""
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n").split("\t") for line in f]


def cmd_report(args):
    rows = _read_report_tsv(args.eval_report)
    if args.baseline:
        mrr = rows[0].index("MRR")
        base = {tuple(r[:2]): float(r[mrr]) for r in _read_report_tsv(args.baseline)[1:]}
        rows[0].append("MRR_vs_baseline")
        for r in rows[1:]:
            b = base.get(tuple(r[:2]), 0.0)
            r.append("%.1f%%" % (100.0 * float(r[mrr]) / b) if b > 0 else "n/a")
    out = _ensure_out(args)
    path = os.path.join(out, "report-merged.tsv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join("\t".join(r) + "\n" for r in rows))
    _write_manifest(out, args, [path])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privkg",
                                     description="Privacy-aware neural graph query pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_flags(p, private_required=False):
        p.add_argument("--graph", required=True, help="triple TSV file")
        p.add_argument("--schema", required=True, help="relation-kind TSV file")
        p.add_argument("--private", required=private_required, help="private-edge TSV file")

    p = sub.add_parser("ingest", help="load and validate a graph")
    graph_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("privatize", help="sample private attribute edges")
    graph_flags(p)
    p.add_argument("--n-private", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_privatize)

    p = sub.add_parser("split", help="8:1:1 cumulative edge split")
    graph_flags(p, private_required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("sample-queries", help="sample benchmark queries")
    graph_flags(p, private_required=True)
    p.add_argument("--qtype", default="all", choices=("all",) + QUERY_TYPES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", default=RELAXED, choices=(RELAXED, STRICT))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_queries)

    p = sub.add_parser("train", help="train an encoder")
    graph_flags(p, private_required=True)
    p.add_argument("--benchmark", required=True, help="directory of queries-*.tsv")
    p.add_argument("--model", required=True, choices=tuple(ENCODERS))
    defaults = TrainConfig()
    p.add_argument("--beta", type=float, default=defaults.beta)
    p.add_argument("--lr", type=float, default=defaults.lr)
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p.add_argument("--particles", type=int, default=DEFAULT_PARTICLES)
    p.add_argument("--privacy-direction", default=defaults.privacy_direction,
                   choices=(REVERSE_ONLY, BOTH))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    graph_flags(p, private_required=True)
    p.add_argument("--benchmark", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--protection", default="none", choices=("none", "noise"))
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("audit", help="tag the answers of one query")
    graph_flags(p)
    p.add_argument("--query", required=True, help="query s-expression")
    p.add_argument("--mode", default=RELAXED, choices=(RELAXED, STRICT))
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("report", help="merge eval reports with baseline ratios")
    p.add_argument("--eval-report", required=True)
    p.add_argument("--baseline")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
