import hashlib
import json
import os

import pytest

from privkg.cli import main
from privkg.graph import write_triples
from privkg.queries import QUERY_TYPES
from ._named_triples import from_named_triples
from .conftest import TOY_SCHEMA, TOY_TRIPLES


def _write_toy(tmp_path):
    g = from_named_triples(TOY_TRIPLES, TOY_SCHEMA)
    graph_path = tmp_path / "graph.tsv"
    schema_path = tmp_path / "schema.tsv"
    write_triples(graph_path, g, g.triples)
    with open(schema_path, "w") as f:
        for name, kind in sorted(TOY_SCHEMA.items()):
            f.write("%s\t%s\n" % (name, kind))
    return str(graph_path), str(schema_path)


def _write_synthetic(tmp_path):
    from privkg.synthetic import make_synthetic_kg
    g = make_synthetic_kg(n_entities=48, n_communities=4, n_relations=3,
                          n_attributes=2, seed=5)
    graph_path = tmp_path / "graph.tsv"
    schema_path = tmp_path / "schema.tsv"
    write_triples(graph_path, g, g.triples)
    with open(schema_path, "w") as f:
        for r in g.relations:
            f.write("%s\t%s\n" % (r.name, r.kind))
    return str(graph_path), str(schema_path)


def test_ingest_writes_stats_and_manifest(tmp_path):
    graph, schema = _write_toy(tmp_path)
    out = str(tmp_path / "out")
    assert main(["ingest", "--graph", graph, "--schema", schema, "--out", out]) == 0
    stats = json.loads((tmp_path / "out" / "graph-stats.json").read_text())
    assert stats["triples"] == len(TOY_TRIPLES)
    assert stats["vertices"] == 8
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert set(manifest["inputs"]) == {"graph", "schema"}
    assert all(len(d) == 64 for d in manifest["inputs"].values())


def test_audit_reports_private_tag(tmp_path, capsys):
    graph, schema = _write_toy(tmp_path)
    private = tmp_path / "private.tsv"
    private.write_text("Hinton\tLiveIn\tToronto\n")
    rc = main(["audit", "--graph", graph, "--schema", schema,
               "--private", str(private),
               "--query", "(p LiveIn (u (a Hinton) (a LeCun)))"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["NYC\tpublic", "Toronto\tprivate"]


def test_audit_strict_mode_flag(tmp_path, capsys):
    graph, schema = _write_toy(tmp_path)
    rc = main(["audit", "--graph", graph, "--schema", schema,
               "--query", "(p WinAward (a Hinton))", "--mode", "strict"])
    assert rc == 0
    assert capsys.readouterr().out == "Turing\tpublic\n"


def test_missing_required_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["privatize", "--graph", "x.tsv"])
    assert e.value.code == 2


def test_bad_input_returns_1(tmp_path, capsys):
    rc = main(["ingest", "--graph", str(tmp_path / "missing.tsv"),
               "--schema", str(tmp_path / "missing2.tsv"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_sample_queries_refuses_an_answer_name_with_a_comma(tmp_path, capsys):
    (tmp_path / "graph.tsv").write_text("x\tLiveIn\ta,c\n")
    (tmp_path / "schema.tsv").write_text("LiveIn\tattr\n")
    (tmp_path / "private.tsv").write_text("")
    out = tmp_path / "bench"
    rc = main(["sample-queries", "--graph", str(tmp_path / "graph.tsv"),
               "--schema", str(tmp_path / "schema.tsv"), "--private", str(tmp_path / "private.tsv"),
               "--qtype", "1p", "--n", "2", "--seed", "1", "--out", str(out)])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "'a,c'" in line
    assert not (out / "manifest.json").exists()


def test_out_of_range_learning_rate_returns_1(tmp_path, capsys):
    graph, schema = _write_synthetic(tmp_path)
    _run_pipeline(tmp_path, graph, schema, "a")
    out = tmp_path / "a"
    rc = main(["train", "--graph", graph, "--schema", schema,
               "--private", str(out / "priv" / "private.tsv"), "--benchmark", str(out / "queries"),
               "--model", "gqe", "--dim", "8", "--lr", "-0.02", "--seed", "4",
               "--out", str(out / "train")])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "lr" in line
    assert not (out / "train" / "model.ckpt").exists()


def test_split_outputs_deterministic(tmp_path):
    graph, schema = _write_synthetic(tmp_path)
    priv_out = str(tmp_path / "priv")
    assert main(["privatize", "--graph", graph, "--schema", schema,
                 "--n-private", "4", "--seed", "3", "--out", priv_out]) == 0
    private = os.path.join(priv_out, "private.tsv")
    blobs = []
    for name in ("s1", "s2"):
        out = str(tmp_path / name)
        assert main(["split", "--graph", graph, "--schema", schema,
                     "--private", private, "--seed", "9", "--out", out]) == 0
        blobs.append(b"".join((tmp_path / name / f).read_bytes()
                              for f in ("train.tsv", "valid.tsv", "test.tsv")))
    assert blobs[0] == blobs[1]


def test_full_pipeline(tmp_path, capsys):
    graph, schema = _write_synthetic(tmp_path)
    priv_out = str(tmp_path / "priv")
    main(["privatize", "--graph", graph, "--schema", schema,
          "--n-private", "4", "--seed", "1", "--out", priv_out])
    private = os.path.join(priv_out, "private.tsv")

    bench = str(tmp_path / "bench")
    assert main(["sample-queries", "--graph", graph, "--schema", schema,
                 "--private", private, "--qtype", "1p", "--n", "12",
                 "--seed", "2", "--out", bench]) == 0
    assert (tmp_path / "bench" / "queries-1p.tsv").exists()
    assert (tmp_path / "bench" / "stats.tsv").read_text().startswith("Answers\t")

    run = str(tmp_path / "run")
    assert main(["train", "--graph", graph, "--schema", schema,
                 "--private", private, "--benchmark", bench,
                 "--model", "gqe", "--dim", "8", "--epochs", "2",
                 "--lr", "0.02", "--beta", "0.1", "--seed", "4",
                 "--out", run]) == 0
    assert (tmp_path / "run" / "model.ckpt").exists()
    trace = (tmp_path / "run" / "trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,L_u,L_p,L" and len(trace) == 3

    ev = str(tmp_path / "eval")
    assert main(["eval", "--graph", graph, "--schema", schema,
                 "--private", private, "--benchmark", bench,
                 "--checkpoint", os.path.join(run, "model.ckpt"),
                 "--seed", "4", "--out", ev]) == 0
    report = (tmp_path / "eval" / "report.tsv").read_text()
    assert report.startswith("type\tclass\tHR@1")

    merged = str(tmp_path / "merged")
    assert main(["report", "--eval-report", os.path.join(ev, "report.tsv"),
                 "--baseline", os.path.join(ev, "report.tsv"),
                 "--out", merged]) == 0
    body = (tmp_path / "merged" / "report-merged.tsv").read_text()
    assert "MRR_vs_baseline" in body.splitlines()[0]
    assert "100.0%" in body
    # the pooled rows survive the merge
    for cls in ("public", "private"):
        [row] = [line for line in body.splitlines() if line.startswith("All\t%s\t" % cls)]
        assert row.endswith("\t100.0%")


def test_report_refuses_a_short_row_with_its_line_number(tmp_path, capsys):
    header = "type\tclass\tHR@1\tHR@3\tHR@10\tMRR\tcount\n"
    row = "1p\tpublic\t0.5000\t0.5000\t0.5000\t0.5000\t2\n"
    (tmp_path / "report.tsv").write_text(header + row + "1p\tprivate\n")
    (tmp_path / "good.tsv").write_text(header + row)
    (tmp_path / "merged.tsv").write_text(header.replace("\n", "\tMRR_vs_baseline\n"))
    for report, baseline, want in (("report.tsv", "good.tsv", "report: malformed line 3"),
                                   ("good.tsv", "merged.tsv", "baseline: malformed line 1")):
        out = tmp_path / report.replace(".tsv", "-out")
        assert main(["report", "--eval-report", str(tmp_path / report),
                     "--baseline", str(tmp_path / baseline), "--out", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: %s" % want)
        assert not out.exists()


HEADER = "type\tclass\tHR@1\tHR@3\tHR@10\tMRR\tcount\n"


@pytest.mark.parametrize("bad", ["report", "baseline"])
@pytest.mark.parametrize("text", ["", "# only a comment\n", HEADER.replace("MRR", "mrr")])
def test_report_refuses_a_report_without_an_mrr_header(tmp_path, capsys, bad, text):
    paths = {name: tmp_path / ("%s.tsv" % name) for name in ("report", "baseline")}
    for name, path in paths.items():
        path.write_text(text if name == bad else HEADER)
    out = tmp_path / "out"
    assert main(["report", "--eval-report", str(paths["report"]),
                 "--baseline", str(paths["baseline"]), "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: %s: no header line with an MRR column" % paths[bad]
    assert not out.exists()


@pytest.mark.parametrize("bad,baseline,value", [
    pytest.param(bad, baseline, value, id=case + ("" if value == "abc" else "-" + value))
    for value in ("abc", "nan", "-inf")
    for case, bad, baseline in (("report", "report", True), ("baseline", "baseline", True),
                                ("report-alone", "report", False))])
def test_report_refuses_a_non_numeric_mrr_with_its_line(tmp_path, capsys, bad, baseline, value):
    paths = {name: tmp_path / ("%s.tsv" % name) for name in ("report", "baseline")}
    for name, path in paths.items():
        mrr = value if name == bad else "0.5"
        path.write_text(HEADER + "# a comment\n1p\tpublic\t0.1\t0.2\t0.3\t%s\t2\n" % mrr)
    out = tmp_path / "out"
    argv = ["report", "--eval-report", str(paths["report"]), "--out", str(out)]
    assert main(argv + (["--baseline", str(paths["baseline"])] if baseline else [])) == 1
    [line] = capsys.readouterr().err.splitlines()
    problem = "not a number" if value == "abc" else "not a finite number"
    assert line == "error: %s line 3: MRR %r is %s" % (paths[bad], value, problem)
    assert not out.exists()


def test_report_reads_the_baseline_mrr_by_its_own_header(tmp_path):
    (tmp_path / "report.tsv").write_text(HEADER + "1p\tpublic\t0.1\t0.2\t0.3\t0.5\t2\n")
    swapped = HEADER.replace("HR@1", "x").replace("MRR", "HR@1").replace("x", "MRR")
    (tmp_path / "baseline.tsv").write_text(swapped + "1p\tpublic\t0.25\t0.2\t0.3\t0.1\t2\n")
    assert main(["report", "--eval-report", str(tmp_path / "report.tsv"),
                 "--baseline", str(tmp_path / "baseline.tsv"), "--out", str(tmp_path / "out")]) == 0
    body = (tmp_path / "out" / "report-merged.tsv").read_text().splitlines()
    assert body[1].endswith("\t200.0%")


@pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
def test_eval_rejects_a_bad_sigma_before_reading_files(tmp_path, capsys, sigma):
    # every input is missing, so only a check made before reading can name sigma
    rc = main(["eval", "--graph", str(tmp_path / "g.tsv"), "--schema", str(tmp_path / "s.tsv"),
               "--private", str(tmp_path / "p.tsv"), "--benchmark", str(tmp_path),
               "--checkpoint", "x", "--sigma", sigma, "--seed", "0",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: sigma must be finite and non-negative")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--beta", "nan", "beta must be finite and non-negative"),
    ("--beta", "inf", "beta must be finite and non-negative"),
    ("--lr", "inf", "lr must be finite and positive")])
def test_train_rejects_a_bad_beta_or_lr_before_reading_files(tmp_path, capsys, flag, value,
                                                              message):
    # every input is missing, so only a check made before reading can name the value
    rc = main(["train", "--graph", str(tmp_path / "g.tsv"), "--schema", str(tmp_path / "s.tsv"),
               "--private", str(tmp_path / "p.tsv"), "--benchmark", str(tmp_path),
               "--model", "gqe", flag, value, "--seed", "0", "--out", str(tmp_path / "o")])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: " + message)
    assert not (tmp_path / "o").exists()


def _privatize(tmp_path):
    """The synthetic graph's files and a private-edge file beside them."""
    graph, schema = _write_synthetic(tmp_path)
    assert main(["privatize", "--graph", graph, "--schema", schema, "--n-private", "6",
                 "--seed", "3", "--out", str(tmp_path / "priv")]) == 0
    return ["--graph", graph, "--schema", schema,
            "--private", str(tmp_path / "priv" / "private.tsv")]


def test_sample_queries_rejects_a_negative_n(tmp_path, capsys):
    base = _privatize(tmp_path)
    rc = main(["sample-queries"] + base + ["--n", "-1", "--seed", "2",
                                           "--out", str(tmp_path / "q")])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "-1" in line
    assert not (tmp_path / "q").exists()


def test_empty_benchmark_directory_returns_1(tmp_path, capsys):
    base = _privatize(tmp_path)
    (tmp_path / "none").mkdir()
    assert main(["sample-queries"] + base + ["--n", "0", "--seed", "2",
                                             "--out", str(tmp_path / "zero")]) == 0
    capsys.readouterr()
    for bench, message in (("none", "no queries-*.tsv files under"),
                           ("zero", "the queries-*.tsv files under")):
        rc = main(["train"] + base + ["--benchmark", str(tmp_path / bench), "--model", "gqe",
                                      "--seed", "4", "--out", str(tmp_path / "train")])
        assert rc == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: " + message)
        assert not (tmp_path / "train").exists()


# sha256 pins of every artifact of the CLI benchmark build on the synthetic
# graph: a change to loading, writing, privatizing, splitting or sampling
# that moves one byte changes them

PIPELINE_DIGESTS = {
    "ingest/graph-stats.json": "fc639048761ceb2b78e5a71d6dafc4af3c592d6a4612f7b4798537d65a434d00",
    "priv/private.tsv": "55a9206324f07234920837232a03492d3f9d324b72588e86df66c57df6672446",
    "split/train.tsv": "74febc03fba333835bbdba1ae28f801a1f1466bc6345a155abb9b1da49af9ca2",
    "split/valid.tsv": "3414712ca95309b4438a15f7a97a1086e787fd56c8cc2e28020f03a78010720b",
    "split/test.tsv": "6247b0f8be974a6fed45a2125d56d29d73033cf9fa139a7bf04da4aad91606a5",
    "queries/queries-1p.tsv": "b74ac85beced10d6fcee644698b92bdca4e948adb656af995f5c67fcd3eea49f",
    "queries/queries-2i.tsv": "c368fae05a46a040b2c9e5e6ce5418589cd9c1ced1f5cd01eebfed1ae74c10cc",
    "queries/queries-2p.tsv": "ed0c8bf98e700fabfb73491279b27aba5eaa5b9cf745676aa4e82fb6be537ef5",
    "queries/queries-2u.tsv": "8e4d7b6e6f8cd42a69d0d4873e75f6cb62850bea5518517dc80257cd9f030fa6",
    "queries/queries-3i.tsv": "efcfb2102c207400a733b68c27e1c4090382888047068b290b075e731d708a58",
    "queries/queries-ip.tsv": "355a14bceab8c57b322e5ecedfd7c0d4ba126dd5b6de9e04b785aeb67f8b1a75",
    "queries/queries-pi.tsv": "62b3242811be72d771ee0a139f3497682a5a9bbf1af5264df4ea58a57ec7665a",
    "queries/queries-up.tsv": "6f5b2678e164a380890e7353471ab4f66ba16290230cedbebd920b44a81cc420",
}


def _run_pipeline(tmp_path, graph, schema, name):
    out = tmp_path / name
    private = str(out / "priv" / "private.tsv")
    base = ["--graph", graph, "--schema", schema]
    for argv in (["privatize"] + base + ["--n-private", "6", "--seed", "3",
                                         "--out", str(out / "priv")],
                 ["ingest"] + base + ["--private", private, "--out", str(out / "ingest")],
                 ["split"] + base + ["--private", private, "--seed", "9",
                                     "--out", str(out / "split")],
                 ["sample-queries"] + base + ["--private", private, "--qtype", "all",
                                              "--n", "4", "--seed", "2",
                                              "--out", str(out / "queries")]):
        assert main(argv) == 0
    files = ["ingest/graph-stats.json", "priv/private.tsv", "split/train.tsv",
             "split/valid.tsv", "split/test.tsv"]
    files += sorted("queries/" + f for f in os.listdir(out / "queries")
                    if f.startswith("queries-"))
    return {f: (out / f).read_bytes() for f in files}


def test_pipeline_artifacts_pinned_and_repeatable(tmp_path):
    graph, schema = _write_synthetic(tmp_path)
    first = _run_pipeline(tmp_path, graph, schema, "a")
    assert _run_pipeline(tmp_path, graph, schema, "b") == first
    assert {f: hashlib.sha256(b).hexdigest() for f, b in first.items()} == PIPELINE_DIGESTS


# sha256 pins of the second half of the CLI: train, eval, the noise baseline
# and the merged report, run on the benchmark that _run_pipeline builds

MODEL_DIGESTS = {
    "train/model.ckpt": "cc9e3a906b7dce8d0e33ac65a7cfbfc9d96763af85a2459c053b4f782f5bc2ea",
    "train/trace.csv": "0735489e0d88c5099bf8da112965cab258a30e104b8d93ae0c5984da8f4e115e",
    "eval/report.tsv": "e8311d35743efe0228b2f11afdd817dd49394742f240b147c1408f1d98e2772b",
    "eval/ranks.json": "b087690a2eb898cf83ea73800c279d71388ea3cfabf5d2ce0bfe3b470c4c80d4",
    "noise/report.tsv": "d2d29c5ebd3468a0551d4837ae3e2c175b1701ff1fda25fb8743c9a0d3b05018",
    "noise/ranks.json": "2c860af284f3814ce768678f7564b6afcfc0a90845fb58eb6835de0bd2fbd037",
    "report/report-merged.tsv": "1bccb34e3828e9c9c6e6ab7be2408ceadf8b3abbeb37bd141833bdc19304d790",
}


def _run_model(out, graph, schema):
    base = ["--graph", graph, "--schema", schema, "--private", str(out / "priv" / "private.tsv"),
            "--benchmark", str(out / "queries")]
    ckpt = str(out / "train" / "model.ckpt")
    for argv in (["train"] + base + ["--model", "gqe", "--dim", "8", "--epochs", "2",
                                     "--lr", "0.02", "--beta", "0.1", "--seed", "4",
                                     "--out", str(out / "train")],
                 ["eval"] + base + ["--checkpoint", ckpt, "--seed", "5",
                                    "--out", str(out / "eval")],
                 ["eval"] + base + ["--checkpoint", ckpt, "--sigma", "0.5", "--seed", "6",
                                    "--out", str(out / "noise")],
                 ["report", "--eval-report", str(out / "eval" / "report.tsv"),
                  "--baseline", str(out / "noise" / "report.tsv"),
                  "--out", str(out / "report")]):
        assert main(argv) == 0
    files = ["train/model.ckpt", "train/trace.csv", "eval/report.tsv", "eval/ranks.json",
             "noise/report.tsv", "noise/ranks.json", "report/report-merged.tsv"]
    return {f: (out / f).read_bytes() for f in files}


def test_model_artifacts_pinned_and_repeatable(tmp_path):
    graph, schema = _write_synthetic(tmp_path)
    runs = []
    for name in ("a", "b"):
        _run_pipeline(tmp_path, graph, schema, name)
        runs.append(_run_model(tmp_path / name, graph, schema))
    assert runs[0] == runs[1]
    assert {f: hashlib.sha256(b).hexdigest() for f, b in runs[0].items()} == MODEL_DIGESTS


def test_eval_without_sigma_is_the_sigma_0_baseline(tmp_path):
    graph, schema = _write_synthetic(tmp_path)
    _run_pipeline(tmp_path, graph, schema, "a")
    out = tmp_path / "a"
    _run_model(out, graph, schema)
    assert main(["eval", "--graph", graph, "--schema", schema,
                 "--private", str(out / "priv" / "private.tsv"),
                 "--benchmark", str(out / "queries"), "--checkpoint",
                 str(out / "train" / "model.ckpt"), "--sigma", "0", "--seed", "5",
                 "--out", str(out / "zero")]) == 0
    for name in ("report.tsv", "ranks.json"):
        assert (out / "zero" / name).read_bytes() == (out / "eval" / name).read_bytes()


def _manifest(path):
    return json.loads((path / "manifest.json").read_text())


def test_manifests_record_every_input_under_its_flag(tmp_path):
    graph, schema = _write_synthetic(tmp_path)
    _run_pipeline(tmp_path, graph, schema, "a")
    _run_model(tmp_path / "a", graph, schema)
    out = tmp_path / "a"
    queries = {"benchmark/queries-%s.tsv" % t for t in QUERY_TYPES}
    assert set(_manifest(out / "train")["inputs"]) == {"graph", "schema", "private"} | queries
    assert set(_manifest(out / "eval")["inputs"]) == \
        {"graph", "schema", "private", "checkpoint"} | queries
    assert _manifest(out / "ingest")["inputs"].keys() == {"graph", "schema", "private"}
    for stage in ("train", "eval", "noise"):
        assert _manifest(out / stage)["command"] == ("train" if stage == "train" else "eval")


def test_report_manifest_keeps_both_report_digests(tmp_path):
    graph, schema = _write_synthetic(tmp_path)
    _run_pipeline(tmp_path, graph, schema, "a")
    _run_model(tmp_path / "a", graph, schema)
    out = tmp_path / "a"
    inputs = _manifest(out / "report")["inputs"]
    assert inputs == {
        "eval_report": hashlib.sha256((out / "eval" / "report.tsv").read_bytes()).hexdigest(),
        "baseline": hashlib.sha256((out / "noise" / "report.tsv").read_bytes()).hexdigest(),
    }
    assert inputs["eval_report"] != inputs["baseline"]


def test_every_manifest_lists_the_files_its_command_wrote(tmp_path, monkeypatch):
    graph, schema = _write_synthetic(tmp_path)
    _run_pipeline(tmp_path, graph, schema, "a")
    _run_model(tmp_path / "a", graph, schema)
    out = tmp_path / "a"
    stages = ("priv", "ingest", "split", "queries", "train", "eval", "noise", "report")
    assert sorted(os.listdir(out)) == sorted(stages)
    for stage in stages:
        written = sorted(os.listdir(out / stage))
        written.remove("manifest.json")
        assert _manifest(out / stage)["outputs"] == written
    # audit prints its answer and writes nothing, under --out or elsewhere
    monkeypatch.chdir(tmp_path)
    before = sorted(p for p in tmp_path.rglob("*"))
    assert main(["audit", "--graph", graph, "--schema", schema,
                 "--private", str(out / "priv" / "private.tsv"),
                 "--query", "(p rel0 (a e000))"]) == 0
    assert sorted(p for p in tmp_path.rglob("*")) == before
