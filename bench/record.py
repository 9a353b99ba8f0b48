"""Record a before/after benchmark pair file, BENCH_<n>.json.

Usage, from the root of a checkout:

    python3 bench/record.py --base COMMIT --workload NAME --seeds A-B
                            --out BENCH_n.json [--seconds S]
                            [--reference LAYER]

For each seed it runs perfbench/run.py once on the change, the commit
HEAD names when the recording starts, and once on the base commit,
alternating which side runs first.  Each side runs in the committed
files of its commit, extracted with `git archive` into a temporary
directory, so an edit made to the working tree while a recording runs
is not measured under the change's commit id.  It then makes a
--trace 1 run per side at each of the first three seeds, again
alternating which side runs first, since one traced run per side reads
any drift of the box's speed between the two as a change in every
layer.  Runs use the settings of BENCHMARK.json (run_seconds, unless
--seconds is given) and the benchmark code each side holds.

The workload's entry in --out holds both commit ids, each run's raw
metrics, correctness and failures, each side's environment record (with
the PYTHONDONTWRITEBYTECODE value the runs inherit, null when unset: when
set, every probe of a fresh tree compiles tvar2 from source), and per
metric and side the median and quartiles (statistics.quantiles,
n=4) over the seeds.  Its "trace" entry holds, per side, the median of
each per-layer metric over the traced runs, and "trace_runs" the seeds,
which side ran first and each traced run's metrics.  With at least
MIN_PAIRS pairs it also holds a "gain" entry per end-to-end metric:
wins and losses of the change over the pairs, the ratio of medians, the
base's interquartile distance, and whether a gain may be claimed (at
least nine tenths of the pairs won and a median difference larger than
the base's interquartile distance).  At
any pair count it holds a "check" entry per end-to-end metric that has a
bound in BENCHMARK.json: the no-regression state of the change, one of
"worse" (its median worse than the base's by more than the bound),
"unresolved" (the base's interquartile distance over its median wider
than the bound, and not every change run better than every base run) or
"ok".
Beside them, at any pair count, it holds an "interval" entry per
end-to-end metric: each pair's ratio of the change's value to the base's,
their median, and the distribution-free interval for that median from
two order statistics of the ratios (the r-th smallest and the r-th
largest, r the largest rank whose coverage is at least 95 %; with 10
pairs the 2nd and 9th, 97.9 %), with its ranks and coverage.  Unlike the
base's interquartile distance, the interval narrows as pairs are added.
Each interval entry also holds, under "median_by_first", the median
ratio over the pairs where the base ran first and over those where the
change did, so an effect of the order the two sides run in shows.
With --reference LAYER, a per-layer self time of BENCHMARK.json that no
changed line runs, its "trace_ratio" entry holds, for every other
per-layer self time, each traced run's ratio of that layer to the
reference, per side, and their medians, which a box-speed swing common
to both layers leaves level.
Entries for other workloads already in --out are kept when both commit
ids match.  The file is rewritten after every pair, so an interrupted
recording keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

MIN_PAIRS = 10
WIN_SHARE = 0.9


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def extract(commit: str, dest: str) -> None:
    """Write the files of ``commit`` into ``dest``, as the benchmark sees a
    fresh checkout."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``root``; its last two output lines are the
    detail record and the result."""
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"perfbench/run.py failed in {root} (exit {out.returncode}):\n"
                 f"{out.stderr}")
    lines = out.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "environment": {**detail["environment"], "PYTHONDONTWRITEBYTECODE":
                            os.environ.get("PYTHONDONTWRITEBYTECODE")},
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def spread(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)   # one run: every quartile is that run
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def median_interval(ratios: list) -> dict:
    """The ratios, their median and the order-statistic interval for the
    median: the r-th smallest and r-th largest ratio, r the largest rank
    whose coverage 1 - 2 P(Binomial(n, 1/2) < r) is at least 95 %, or 1
    (the extremes, at their lower coverage) where none is."""
    n = len(ratios)

    def coverage(r: int) -> float:
        return 1.0 - 2.0 * sum(math.comb(n, k) for k in range(r)) / 2 ** n
    r = max([r for r in range(1, (n + 1) // 2 + 1) if coverage(r) >= 0.95],
            default=1)
    ordered = sorted(ratios)
    return {"ratios": ratios, "median": statistics.median(ratios),
            "low": ordered[r - 1], "high": ordered[n - r],
            "ranks": [r, n + 1 - r], "coverage": coverage(r)}


def first_medians(ratios: list, first: list) -> dict:
    """Per side, the median of the ratios of the pairs that side ran first
    in; a side that never ran first is left out."""
    groups = {}
    for ratio, side in zip(ratios, first):
        groups.setdefault(side, []).append(ratio)
    return {side: statistics.median(group) for side, group in groups.items()}


def layer_ratios(traced: dict, reference: str, layers: list) -> dict:
    """Per layer, each traced run's ratio of the layer to ``reference``,
    per side, and the median of each side's ratios."""
    ratios = {}
    for name in layers:
        sides = {side: [run[name] / run[reference] for run in traced[side]]
                 for side in ("base", "change")}
        ratios[name] = {**sides, "median": {
            side: statistics.median(values) for side, values in sides.items()}}
    return {"reference": reference, "layers": ratios}


def regression_state(base: dict, change: dict, sign: int, bound: float) -> str:
    """The no-regression state of one end-to-end metric from the two sides'
    spreads; ``sign`` is 1 where higher is better, -1 where lower is."""
    if sign * (change["median"] - base["median"]) < -bound * abs(base["median"]):
        return "worse"
    best_base = max(sign * v for v in base["values"])
    if ((base["q3"] - base["q1"]) > bound * abs(base["median"])
            and not min(sign * v for v in change["values"]) > best_base):
        return "unresolved"
    return "ok"


def summarize(entry: dict, end_to_end: dict, bounds: dict | None = None) -> None:
    """Fill the entry's summary, its gain entries (from MIN_PAIRS pairs)
    and, for the metrics in ``bounds``, its no-regression checks."""
    runs = entry["runs"]
    summary, gain, check, interval = {}, {}, {}, {}
    for name in runs["base"][0]["metrics"]:
        sides = {side: spread([r["metrics"][name] for r in runs[side]])
                 for side in ("base", "change")}
        summary[name] = sides
        if name not in end_to_end:
            continue
        if all(sides["base"]["values"]):
            ratios = [c / b for b, c in zip(sides["base"]["values"],
                                            sides["change"]["values"])]
            interval[name] = median_interval(ratios)
            if "first" in entry:
                interval[name]["median_by_first"] = first_medians(
                    ratios, entry["first"])
        sign = 1 if end_to_end[name] == "higher" else -1
        if bounds and name in bounds:
            check[name] = {"state": regression_state(sides["base"], sides["change"],
                                                     sign, bounds[name]),
                           "bound": bounds[name]}
        if len(runs["base"]) < MIN_PAIRS:
            continue
        diffs = [sign * (c["metrics"][name] - b["metrics"][name])
                 for b, c in zip(runs["base"], runs["change"])]
        wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
        base, change = sides["base"], sides["change"]
        iqr = base["q3"] - base["q1"]
        gain[name] = {
            "wins": wins, "losses": losses, "pairs": len(diffs),
            "median_ratio": change["median"] / base["median"] if base["median"] else None,
            "base_iqr": iqr,
            "claimable": (wins >= WIN_SHARE * len(diffs)
                          and sign * (change["median"] - base["median"]) > iqr),
        }
    entry["summary"] = summary
    for key, value in (("gain", gain), ("check", check),
                       ("interval", interval)):
        if value:
            entry[key] = value
        else:
            entry.pop(key, None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="A-B or a comma list")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--reference", default=None,
                        help="a per-layer self time that no changed line runs")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    end_to_end = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    self_times = [m["name"] for m in spec.get("per_layer", ()) if m["unit"] == "s"]
    if args.reference is not None and args.reference not in self_times:
        parser.error(f"--reference must be one of {self_times}")
    commits = {"base": git("rev-parse", "--verify", args.base + "^{commit}"),
               "change": git("rev-parse", "HEAD")}

    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
        if (record.get("base", {}).get("commit"), record.get("change", {}).get("commit")) \
                != (commits["base"], commits["change"]):
            record = {}
    record.update({side: {"commit": commits[side]} for side in commits})
    record["seconds"] = seconds
    entry = {"seeds": [], "first": [], "runs": {"base": [], "change": []}}
    record.setdefault("workloads", {})[args.workload] = entry

    def write() -> None:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")

    roots = {side: tempfile.mkdtemp(prefix=f"bench-{side}-") for side in commits}
    try:
        for side, root in roots.items():
            extract(commits[side], root)
        for i, seed in enumerate(seed_list(args.seeds)):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run(roots[side], args.workload, seed, seconds, 0)
                entry["runs"][side].append(result)
                print(f"{args.workload} seed {seed} {side}: "
                      + json.dumps(result["metrics"]), file=sys.stderr)
            entry["seeds"].append(seed)
            entry["first"].append(order[0])
            summarize(entry, end_to_end, bounds)
            write()
        traced = {"seeds": entry["seeds"][:3], "first": entry["first"][:3],
                  "base": [], "change": []}
        for seed, first in zip(traced["seeds"], traced["first"]):
            for side in (first, "change" if first == "base" else "base"):
                traced[side].append(run(roots[side], args.workload, seed,
                                        seconds, 1)["metrics"])
        entry["trace"] = {side: {name: statistics.median(r[name] for r in traced[side])
                                 for name in traced[side][0]}
                          for side in ("base", "change")}
        entry["trace_runs"] = traced
        if args.reference is not None:
            entry["trace_ratio"] = layer_ratios(
                traced, args.reference,
                [name for name in self_times if name != args.reference])
        write()
    finally:
        for root in roots.values():
            shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
