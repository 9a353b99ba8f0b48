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
command line that differs, and exits 1 if any does, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile

from record import extract, git, seed_list

# Run in the root of an extracted tree with the seeds as arguments; prints
# one JSON list of [seed, argv, exit code, sha256 of the output or null].
# The work directory in each argv is replaced by WORKDIR, so that the two
# sides' command lines compare equal.
CHILD = r"""
import json, sys, tempfile
sys.path[:0] = ["src", "perfbench"]
import models, workloads
results = []
for seed in map(int, sys.argv[1:]):
    with tempfile.TemporaryDirectory() as workdir:
        models.prepare("cli", workdir)
        for request in workloads.cli(seed, 1, workdir).rounds[0]:
            code = request.call()
            argv = [arg.replace(workdir, "WORKDIR") for arg in request.cli.argv]
            results.append([seed, argv, code, request.cli.output_digest()])
print(json.dumps(results))
"""


def run(root: str, seeds: list) -> list:
    out = subprocess.run([sys.executable, "-c", CHILD, *map(str, seeds)],
                         cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"the cli command lines failed in {root} (exit "
                 f"{out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout)


def compare(base: list, change: list) -> list:
    """The command lines whose exit code or output digest differ between
    the two sides' records, or that only one side ran, one line each."""
    sides = [{(seed, " ".join(argv)): (code, digest)
              for seed, argv, code, digest in records}
             for records in (base, change)]
    lines = []
    for key in sorted(sides[0].keys() | sides[1].keys()):
        got = [side.get(key) for side in sides]
        if got[0] != got[1]:
            seed, argv = key
            lines.append(f"seed {seed}: {argv}: base {got[0]}, change {got[1]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--seeds", default="1,2,3", help="A-B or a comma list")
    args = parser.parse_args(argv)
    commits = {"base": git("rev-parse", "--verify", args.base + "^{commit}"),
               "change": git("rev-parse", "HEAD")}
    seeds = seed_list(args.seeds)
    records = {}
    for side, commit in commits.items():
        root = tempfile.mkdtemp(prefix=f"digests-{side}-")
        try:
            extract(commit, root)
            records[side] = run(root, seeds)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    differing = compare(records["base"], records["change"])
    for line in differing:
        print(line)
    print(f"{len(differing)} of {len(records['change'])} command lines differ "
          f"(base {commits['base'][:12]}, change {commits['change'][:12]}, "
          f"seeds {args.seeds})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
