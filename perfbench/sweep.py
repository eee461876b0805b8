"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 30 --out perfbench/baseline.json

Runs are sequential, one process at a time. For each workload and metric it
records the median, the quartiles and the spread (interquartile distance
over the median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles), plus every run's values and the machine they came from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train-gqe", "eval-q2b", "build-4k")


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args(argv)

    summary = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                           "platform": platform.platform(), "processor": platform.machine()},
               "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (wl, seed, out.returncode, out.stderr))
                ok = False
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            runs.append({"seed": seed, "wall_s": time.perf_counter() - t0, **result})
            print("%s seed %d: %.1f s, correct %s, %s" % (
                wl, seed, runs[-1]["wall_s"], result["correct"],
                ", ".join("%s %.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        metrics = {}
        for name in runs[0]["metrics"] if runs else ():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                             "median": statistics.median(values), "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / statistics.median(values),
                             "values": values}
            print("  %-18s median %-10.5g spread %.4f" % (name, metrics[name]["median"],
                                                         metrics[name]["spread"]))
        summary["workloads"][wl] = {"metrics": metrics,
                                    "wall_s": [round(r["wall_s"], 2) for r in runs]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
