"""Command-line pipeline: ingest, privatize, split, sample-queries, train,
eval, audit, report.

Every command but audit writes its artifacts under --out and returns their
names; ``main`` then writes a JSON manifest beside them (command, flags, seeds,
tool version, input digests keyed by flag, outputs). Seeds are mandatory
wherever randomness is involved; nothing defaults to wall-clock state.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

from . import __version__
from .benchmark import (BenchmarkError, read_benchmark, sample_private_edges, sample_queries,
                        split_edges, format_stats, write_benchmark)
from .encoders import DEFAULT_DIM, DEFAULT_PARTICLES, ENCODERS, load_encoder, make_encoder
from .evaluation import evaluate_model
from .graph import load_schema, load_triple_set, load_triples, read_tsv, write_triples
from .queries import QUERY_TYPES, parse_query
from .symbolic import MODES, RELAXED, evaluate_tagged
from .training import PRIVACY_DIRECTIONS, NoiseConfig, TrainConfig, train


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(args, outputs) -> None:
    inputs = {flag: getattr(args, flag, None) for flag in
              ("graph", "schema", "private", "checkpoint", "eval_report", "baseline")}
    for p in _benchmark_files(args.benchmark) if getattr(args, "benchmark", None) else ():
        inputs["benchmark/" + os.path.basename(p)] = p
    _write_json(os.path.join(args.out, "manifest.json"), {
        "tool": "privkg %s" % __version__,
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": {flag: _digest(p) for flag, p in inputs.items() if p},
        "outputs": sorted(outputs),
    }, indent=2)


def _write_json(path, obj, indent=None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=indent, sort_keys=True)
        f.write("\n")


def _load_graph(args):
    g = load_triples(args.graph, load_schema(args.schema))
    if getattr(args, "private", None):
        g = g.mark_private(load_triple_set(args.private, g))
    return g


def _out(args, name) -> str:
    """The path of ``name`` under --out, making --out on first use."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_ingest(args):
    g = _load_graph(args)
    _write_json(_out(args, "graph-stats.json"), {
        "vertices": g.num_vertices(),
        "relations": len(g.relations),
        "triples": len(g.triples),
        "attribute_triples": len(g.attribute_triples()),
        "private_triples": len(g.private),
    }, indent=2)
    return ["graph-stats.json"]


def cmd_privatize(args):
    g = _load_graph(args)
    private = sample_private_edges(g, args.n_private, args.seed)
    write_triples(_out(args, "private.tsv"), g, private)
    return ["private.tsv"]


def cmd_split(args):
    g = _load_graph(args)
    split = split_edges(g, g.private, args.seed)
    names = ["train.tsv", "valid.tsv", "test.tsv"]
    for name, kg in zip(names, (split.train, split.valid, split.test)):
        write_triples(_out(args, name), g, kg.triples)
    return names


def cmd_sample_queries(args):
    g = _load_graph(args)
    split = split_edges(g, g.private, args.seed)
    qtypes = QUERY_TYPES if args.qtype == "all" else (args.qtype,)
    names, pool = [], []
    for qtype in qtypes:
        queries = sample_queries(split, qtype, args.n, args.seed, args.mode)
        pool.extend(queries)
        names.append("queries-%s.tsv" % qtype)
        write_benchmark(_out(args, names[-1]), queries, g)
    with open(_out(args, "stats.tsv"), "w", encoding="utf-8") as f:
        f.write(format_stats(pool))
    return names + ["stats.tsv"]


def _benchmark_files(path) -> list:
    return [os.path.join(path, name) for name in sorted(os.listdir(path))
            if name.startswith("queries-") and name.endswith(".tsv")]


def _read_benchmark_dir(path, g):
    files = _benchmark_files(path)
    if not files:
        raise BenchmarkError("no queries-*.tsv files under %s" % path)
    queries = [bq for p in files for bq in read_benchmark(p, g)]
    if not queries:
        raise BenchmarkError("the queries-*.tsv files under %s hold no queries" % path)
    return queries


def cmd_train(args):
    config = TrainConfig(beta=args.beta, lr=args.lr, epochs=args.epochs,
                         batch_size=args.batch_size, seed=args.seed,
                         privacy_direction=args.privacy_direction)
    g = _load_graph(args)
    queries = _read_benchmark_dir(args.benchmark, g)
    model = make_encoder(args.model, g, dim=args.dim, seed=args.seed,
                         n_particles=args.particles)
    trace = train(model, queries, g.private, config,
                  progress=lambda e, lu, lp, l: print(
                      "epoch %d  L_u=%.4f  L_p=%.4f  L=%.4f" % (e, lu, lp, l), file=sys.stderr))
    model.save(_out(args, "model.ckpt"))
    trace.write_csv(_out(args, "trace.csv"))
    return ["model.ckpt", "trace.csv"]


def cmd_eval(args):
    noise = NoiseConfig(sigma=args.sigma, seed=args.seed)
    g = _load_graph(args)
    queries = _read_benchmark_dir(args.benchmark, g)
    model = load_encoder(args.checkpoint, g)
    report = evaluate_model(model, queries, noise)
    with open(_out(args, "report.tsv"), "w", encoding="utf-8") as f:
        f.write(report.to_tsv())
    _write_json(_out(args, "ranks.json"), {"%s/%s" % k: v for k, v in report.ranks.items()})
    return ["report.tsv", "ranks.json"]


def cmd_audit(args):
    g = _load_graph(args)
    q = parse_query(args.query, g)
    tagged = evaluate_tagged(g, q, args.mode)
    for v in sorted(tagged.public_members | tagged.private_members,
                    key=lambda v: g.vertex_name(v)):
        label = "private" if v in tagged.private_members else "public"
        print("%s\t%s" % (g.vertex_name(v), label))


def _read_report(path, what) -> tuple[list, int]:
    """An eval report's rows, header first, and its MRR column, a finite number in every row."""
    fields, linenos = read_tsv(path, 7, what, linenos=True)
    rows = [fields[i:i + 7] for i in range(0, len(fields), 7)]
    if not rows or "MRR" not in rows[0]:
        raise ValueError("%s: no header line with an MRR column" % path)
    mrr = rows[0].index("MRR")
    for lineno, row in zip(linenos[1:], rows[1:]):
        try:
            finite = math.isfinite(float(row[mrr]))
        except ValueError:
            raise ValueError("%s line %d: MRR %r is not a number" % (path, lineno, row[mrr])) from None
        if not finite:
            raise ValueError("%s line %d: MRR %r is not a finite number" % (path, lineno, row[mrr]))
    return rows, mrr


def cmd_report(args):
    rows, mrr = _read_report(args.eval_report, "report")
    if args.baseline:
        base_rows, base_mrr = _read_report(args.baseline, "baseline")
        base = {tuple(r[:2]): float(r[base_mrr]) for r in base_rows[1:]}
        rows[0].append("MRR_vs_baseline")
        for r in rows[1:]:
            b = base.get(tuple(r[:2]), 0.0)
            r.append("%.1f%%" % (100.0 * float(r[mrr]) / b) if b > 0 else "n/a")
    with open(_out(args, "report-merged.tsv"), "w", encoding="utf-8") as f:
        f.write("".join("\t".join(r) + "\n" for r in rows))
    return ["report-merged.tsv"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privkg",
                                     description="Privacy-aware neural graph query pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, graph=True, private_required=False, seed=True, out=True):
        """A subcommand with the shared flags it takes."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if graph:
            p.add_argument("--graph", required=True, help="triple TSV file")
            p.add_argument("--schema", required=True, help="relation-kind TSV file")
            p.add_argument("--private", required=private_required, help="private-edge TSV file")
        if seed:
            p.add_argument("--seed", type=int, required=True)
        if out:
            p.add_argument("--out", required=True)
        return p

    command("ingest", cmd_ingest, "load and validate a graph", seed=False)

    p = command("privatize", cmd_privatize, "sample private attribute edges")
    p.add_argument("--n-private", type=int, required=True)

    command("split", cmd_split, "8:1:1 cumulative edge split", private_required=True)

    p = command("sample-queries", cmd_sample_queries, "sample benchmark queries",
                private_required=True)
    p.add_argument("--qtype", default="all", choices=("all",) + QUERY_TYPES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default=RELAXED, choices=MODES)

    p = command("train", cmd_train, "train an encoder", private_required=True)
    p.add_argument("--benchmark", required=True, help="directory of queries-*.tsv")
    p.add_argument("--model", required=True, choices=ENCODERS)
    defaults = TrainConfig()
    p.add_argument("--beta", type=float, default=defaults.beta)
    p.add_argument("--lr", type=float, default=defaults.lr)
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p.add_argument("--particles", type=int, default=DEFAULT_PARTICLES)
    p.add_argument("--privacy-direction", default=defaults.privacy_direction,
                   choices=PRIVACY_DIRECTIONS)

    p = command("eval", cmd_eval, "evaluate a checkpoint", private_required=True)
    p.add_argument("--benchmark", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sigma", type=float, default=NoiseConfig().sigma,
                   help="noise baseline: Gaussian perturbation scale (0 = none)")

    p = command("audit", cmd_audit, "tag the answers of one query", seed=False, out=False)
    p.add_argument("--query", required=True, help="query s-expression")
    p.add_argument("--mode", default=RELAXED, choices=MODES)

    p = command("report", cmd_report, "merge eval reports with baseline ratios",
                graph=False, seed=False)
    p.add_argument("--eval-report", required=True)
    p.add_argument("--baseline")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        outputs = args.func(args)
        if outputs is not None:
            _write_manifest(args, outputs)
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
