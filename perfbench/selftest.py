"""Repeatability self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload twice, traced, at reduced length with the same seed, and
requires every count metric and every artifact digest to be identical. Runs
each workload once more on a second seed, which must pass every output check.
Last, it checks that the train-gqe round follows ``privkg.training.train``:
one epoch of each gives the same mean losses. Exits non-zero on a failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-gqe", "eval-q2b", "build-4k")


def bench(workload, seed, work_dir):
    """One reduced traced run of two rounds; returns (result line, meta)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1", "--rounds", "2",
         "--reduced", "--work-dir", work_dir],
        capture_output=True, text=True, check=True).stdout.splitlines()
    meta = json.loads(next(line for line in out if line.startswith("# meta "))[7:])
    return json.loads(out[-1]), meta


def counts(result) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "ratio")}


def check_train_loop_matches_library() -> list[str]:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from privkg import training
    from workloads import TrainGQE

    with tempfile.TemporaryDirectory() as tmp:
        wl = TrainGQE(0, tmp, reduced=True)
        wl.setup()
        rnd = wl.run_round(0)
        lib = TrainGQE(0, tmp, reduced=True)
        lib.setup()
        config = training.TrainConfig(**{**vars(lib.config), "epochs": 1})
        trace = training.train(lib.model, lib.queries, lib.private_pool, config)
    n = len(rnd.outputs)
    ours = [sum(step[k] for step in rnd.outputs) / n for k in (2, 3, 4)]
    theirs = list(trace.epochs[0][1:])
    if any(abs(a - b) > 1e-12 * max(1.0, abs(b)) for a, b in zip(ours, theirs)):
        return ["train-gqe round means %r differ from train() %r" % (ours, theirs)]
    return []


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_selftest") as tmp:
        for wl in WORKLOADS:
            runs = [bench(wl, 0, os.path.join(tmp, "%s-%d" % (wl, i))) for i in range(2)]
            (first, meta1), (second, meta2) = runs
            for result in (first, second):
                if not result["correct"]:
                    problems.append("%s seed 0: %d of %d operations failed"
                                    % (wl, result["failed"], result["attempted"]))
            if counts(first) != counts(second):
                diff = {k: (v, counts(second)[k]) for k, v in counts(first).items()
                        if counts(second)[k] != v}
                problems.append("%s: counts differ between runs: %r" % (wl, diff))
            if meta1["artifacts"] != meta2["artifacts"] or not meta1["artifacts"]:
                problems.append("%s: artifact digests differ between runs" % wl)
            other, _ = bench(wl, 1, os.path.join(tmp, "%s-seed1" % wl))
            if not other["correct"]:
                problems.append("%s seed 1: %d of %d operations failed"
                                % (wl, other["failed"], other["attempted"]))
            print("%s: %s" % (wl, "ok" if not problems else "FAIL"), flush=True)
    problems += check_train_loop_matches_library()
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
