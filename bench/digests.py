"""Compare the CSV bytes of the `cli` benchmark's command lines on two commits.

Usage, from the root of a checkout:

    python3 bench/digests.py --base COMMIT [--seeds 1,2,3]

For each seed it builds the round of the `cli` workload of
perfbench/workloads.py (every subcommand, the seeded rejections
included) and runs each command line once, through tvar2.cli.main in
one process per commit and seed, on the commit HEAD names and on the
base commit.  Each side runs in the committed files of its commit,
extracted with `git archive` (see record.py).  It compares each command
line's exit code and the sha256 of the file it wrote, prints every
command line that differs, with the number of rows that differ and the
largest relative change of a numeric field where both sides wrote a
file, and exits 1 if any differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest

from record import extract, git, seed_list

# Run in the root of an extracted tree with the seeds as arguments; prints
# one JSON list of [seed, argv, exit code, sha256 of the output or null,
# the path of a copy of the output kept under outputs/ or null].  The work
# directory in each argv is replaced by WORKDIR, so that the two sides'
# command lines compare equal.
CHILD = r"""
import json, os, shutil, sys, tempfile
sys.path[:0] = ["src", "perfbench"]
import models, workloads
os.makedirs("outputs")
results = []
for seed in map(int, sys.argv[1:]):
    with tempfile.TemporaryDirectory() as workdir:
        models.prepare("cli", workdir)
        for request in workloads.cli(seed, 1, workdir).rounds[0]:
            code = request.call()
            argv = [arg.replace(workdir, "WORKDIR") for arg in request.cli.argv]
            kept = None
            if os.path.exists(request.cli.out):
                kept = os.path.abspath(f"outputs/{len(results)}.csv")
                shutil.copyfile(request.cli.out, kept)
            results.append([seed, argv, code, request.cli.output_digest(), kept])
print(json.dumps(results))
"""


def run(root: str, seeds: list) -> list:
    out = subprocess.run([sys.executable, "-c", CHILD, *map(str, seeds)],
                         cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"the cli command lines failed in {root} (exit "
                 f"{out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout)


def _relative(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; inf where a non-finite
    value differs."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def moved(base: str, change: str) -> tuple:
    """(rows that differ, largest relative change of a numeric field) of
    two CSV texts compared row by row; a row only one side has differs,
    and the change is None where no field both sides read as a number
    moved."""
    rows, largest = 0, None
    for a, b in zip_longest(base.splitlines(), change.splitlines()):
        if a == b:
            continue
        rows += 1
        if a is None or b is None:
            continue
        for x, y in zip(a.split(","), b.split(",")):
            x, y = _number(x), _number(y)
            if x is not None and y is not None and x != y:
                largest = max(largest or 0.0, _relative(x, y))
    return rows, largest


def compare(base: list, change: list) -> list:
    """The command lines whose exit code or output digest differ between
    the two sides' records, or that only one side ran, one line each.
    Where both records name a kept output file (a fifth field), the line
    also says how far the output moved (``moved``)."""
    sides, kept = [], []
    for records in (base, change):
        sides.append({(seed, " ".join(argv)): (code, digest)
                      for seed, argv, code, digest, *_ in records})
        kept.append({(seed, " ".join(argv)): rest[0]
                     for seed, argv, _, _, *rest in records if rest})
    lines = []
    for key in sorted(sides[0].keys() | sides[1].keys()):
        got = [side.get(key) for side in sides]
        if got[0] != got[1]:
            seed, argv = key
            line = f"seed {seed}: {argv}: base {got[0]}, change {got[1]}"
            paths = [side.get(key) for side in kept]
            if all(paths):
                texts = []
                for path in paths:
                    with open(path) as fh:
                        texts.append(fh.read())
                rows, largest = moved(*texts)
                line += (f"; {rows} rows differ, " + (
                    "no numeric field moved" if largest is None
                    else f"largest relative change {largest:.3g}"))
            lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--seeds", default="1,2,3", help="A-B or a comma list")
    args = parser.parse_args(argv)
    commits = {"base": git("rev-parse", "--verify", args.base + "^{commit}"),
               "change": git("rev-parse", "HEAD")}
    seeds = seed_list(args.seeds)
    records, roots = {}, []
    try:   # both trees are kept until their outputs are compared
        for side, commit in commits.items():
            roots.append(tempfile.mkdtemp(prefix=f"digests-{side}-"))
            extract(commit, roots[-1])
            records[side] = run(roots[-1], seeds)
        differing = compare(records["base"], records["change"])
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)
    for line in differing:
        print(line)
    print(f"{len(differing)} of {len(records['change'])} command lines differ "
          f"(base {commits['base'][:12]}, change {commits['change'][:12]}, "
          f"seeds {args.seeds})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
