"""``scripts/bench.py``'s runner: the order of the children, the ``--src``
flag, the paired verdict and the merge into ``BENCH_<topic>.json``. The children are faked,
except for one that fails at once."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

ENTRY_KEYS = {
    "graph": {"vertices", "edges", "median_s", "median_total_s", "median_minflt", "gc_collections",
              "peak_rss_mb", "malloc_pinned", "runs", *bench.ENV_KEYS},
    "train": {"vertices", "edges", "steps", "step_ms", "tape_nodes_per_step",
              "score_calls_per_step", "peak_rss_mb", "malloc_pinned", "runs", *bench.ENV_KEYS},
}
ENV = {"numpy_version": "2.4.6", "blas": {"name": "scipy-openblas"}, "simd_found": ["X86_V3"],
       "openblas_coretype": None}


@pytest.fixture
def calls(tmp_path, monkeypatch):
    """The (case, label) of every child run, in order; the children are fakes
    carrying the fields of both topics, and the file goes to ``tmp_path``."""
    seen = []

    def run(topic, case, label, src):
        seen.append((case, label))
        return {"vertices": 3, "edges": 5, "peak_rss_mb": 1.0 + len(seen), "malloc_pinned": True,
                "seconds": {s: 0.1 for s in bench.STAGES}, "minflt": {s: 7 for s in bench.STAGES},
                "gc_collections": len(seen),
                "step_s": [0.001, 0.002 * len(seen)], "tape_nodes_per_step": 9,
                "score_calls_per_step": 1, **ENV}

    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench, "run", run)
    return seen


def test_rounds_alternate_which_label_runs_first(calls):
    assert bench.main(["train", "--src", "parent=%s" % ROOT, "--src", "change=%s" % ROOT]) == 0
    orders = (("parent", "change"), ("change", "parent"))
    assert calls == [(kind, label) for kind in bench.KINDS for i in range(bench.ROUNDS)
                     for label in orders[i % 2]]


@pytest.mark.parametrize("topic", sorted(bench.TOPICS))
def test_merge_replaces_only_the_measured_labels(tmp_path, calls, topic):
    out = tmp_path / ("BENCH_%s.json" % topic)
    out.write_text(json.dumps({"labels": {"parent": {"stale": 1}, "old": {"kept": 2}},
                               "nproc": 0}), encoding="utf-8")
    assert bench.main([topic, "--src", "parent=%s" % ROOT, "--src", "change=%s" % ROOT]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["script"] == "scripts/bench.py" and result["nproc"] >= 1
    assert result["labels"]["old"] == {"kept": 2}
    cases = bench.TOPICS[topic].cases
    for label in ("parent", "change"):
        assert sorted(result["labels"][label]) == sorted(cases)
        for entry in result["labels"][label].values():
            assert set(entry) == ENTRY_KEYS[topic] | ({"paired"} if label == "change" else set())
            assert len(entry["runs"]) == bench.ROUNDS
            assert {key: entry[key] for key in bench.ENV_KEYS} == ENV
            assert not set(bench.ENV_KEYS) & set(entry["runs"][0])
            if topic == "graph":
                assert entry["median_minflt"] == {s: 7 for s in bench.STAGES}
                assert entry["median_s"] == {s: 0.1 for s in bench.STAGES}
                assert {"audit", "save_checkpoint", "load_checkpoint"} <= set(entry["median_s"])
    assert len(calls) == 2 * bench.ROUNDS * len(cases)


@pytest.mark.parametrize("topic", sorted(bench.TOPICS))
def test_a_label_faster_in_every_round_wins_every_round(tmp_path, monkeypatch, topic):
    def run(topic, case, label, src):
        seconds = 0.1 if label == "change" else 0.2
        return {"vertices": 3, "edges": 5, "peak_rss_mb": 1.0, "malloc_pinned": True,
                "seconds": {s: seconds for s in bench.STAGES},
                "minflt": {s: 7 for s in bench.STAGES}, "gc_collections": 0,
                "step_s": [seconds, 2 * seconds], "tape_nodes_per_step": 9,
                "score_calls_per_step": 1, **ENV}

    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench, "run", run)
    assert bench.main([topic, "--src", "parent=%s" % ROOT, "--src", "change=%s" % ROOT]) == 0
    labels = json.loads((tmp_path / ("BENCH_%s.json" % topic)).read_text())["labels"]
    for case in bench.TOPICS[topic].cases:
        assert "paired" not in labels["parent"][case]
        verdict = labels["change"][case]["paired"]
        assert verdict["ratios"] == [0.5] * bench.ROUNDS
        assert verdict["wins"] == bench.ROUNDS
        assert verdict["p"] == 2 / 2 ** bench.ROUNDS


def test_numeric_env_reads_numpy_build_and_the_forced_kernel(monkeypatch):
    import numpy

    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    env = bench.numeric_env()
    assert set(env) == set(bench.ENV_KEYS)
    assert env["numpy_version"] == numpy.__version__
    assert set(env["blas"]) == {"name", "version", "openblas configuration"}
    assert isinstance(env["simd_found"], list)
    assert env["openblas_coretype"] == "Haswell"
    monkeypatch.delenv("OPENBLAS_CORETYPE")
    assert bench.numeric_env()["openblas_coretype"] is None


def test_ties_count_for_neither_side():
    first = [{"t": 1.0}] * 6
    runs = [{"t": t} for t in (0.5, 1.0, 1.0, 0.5, 0.5, 2.0)]
    verdict = bench.paired(first, runs, lambda r: r["t"])
    # 3 wins and 1 loss in 4 untied rounds: p = 2 * (C(4,0) + C(4,1)) / 2**4
    assert verdict == {"ratios": [0.5, 1.0, 1.0, 0.5, 0.5, 2.0], "wins": 3, "p": 10 / 16}


@pytest.mark.parametrize("argv", [
    ["train", "--src", str(ROOT)],
    ["train", "--src", "=%s" % ROOT],
    ["train", "--src", "parent="],
    ["graph", "--src", "a=%s" % ROOT, "--src", "b=%s" % ROOT, "--src", "a=%s" % ROOT],
    ["graph"]], ids=["no-equals", "no-label", "no-dir", "repeated-label", "no-src"])
def test_bad_src_exits_2_before_any_child(tmp_path, calls, argv):
    with pytest.raises(SystemExit) as info:
        bench.main(argv)
    assert info.value.code == 2
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_failed_child_names_label_and_case_and_shows_its_stderr(tmp_path, monkeypatch):
    broken = tmp_path / "broken"
    (broken / "src" / "privkg").mkdir(parents=True)
    (broken / "src" / "privkg" / "__init__.py").write_text("raise RuntimeError('no import')\n")
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    with pytest.raises(SystemExit) as info:
        bench.main(["train", "--src", "bad=%s" % broken])
    message = str(info.value.code)
    assert "RuntimeError: no import" in message
    assert "label 'bad', case 'gqe'" in message
    assert not (tmp_path / "BENCH_train.json").exists()
