"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/summarize.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                   [--seconds S] [--out FILE]

For every workload and metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread: the distance between the
quartiles as a share of the median, which BENCHMARK.json's bounds are set
against.  It also totals the failures by cause.  Use it on the parent commit
and on a change, with the same settings, to compare the two.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], capture_output=True, text=True, timeout=600)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            runs.append((json.loads(lines[-2])["detail"], json.loads(lines[-1])))
        metrics = {}
        for name, first in runs[0][1]["metrics"].items():
            values = [r[1]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            metrics[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": values}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + ("  OVER/3" if spread > bound / 3 else "")
            print(f"{workload:16s} {name:28s} median {med:12.6g} {first['unit']:6s} "
                  f"spread {spread:6.3f}{flag}")
        causes: dict = {}
        for detail, _ in runs:
            for cause, n in detail["failures_by_cause"].items():
                causes[cause] = causes.get(cause, 0) + n
        attempted = sum(r[1]["attempted"] for r in runs)
        failed = sum(r[1]["failed"] for r in runs)
        print(f"{workload:16s} correct {all(r[1]['correct'] for r in runs)}  "
              f"failed {failed}/{attempted}  by cause {json.dumps(causes)}")
        summary[workload] = {"seeds": seed_list(args.seeds), "metrics": metrics,
                             "attempted": attempted, "failed": failed,
                             "failed_ratio": failed / attempted,
                             "failures_by_cause": causes,
                             "correct": all(r[1]["correct"] for r in runs),
                             "environment": runs[0][0]["environment"]}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
