"""Time fresh interpreters importing tvar2 and running the README commands
on two commits, and write a cold-start pair file.

Usage, from the root of a checkout:

    python3 bench/cold.py --base COMMIT --out COLD_n.json

Each case is one fresh interpreter, timed from this process as the wall
time from its start to its exit:
- ``import``: ``import tvar2``;
- ``montecarlo-setup``: ``import tvar2`` and the ``montecarlo`` workload's
  schedule build, ``models.setup`` of perfbench/models.py, the work
  perfbench/setup_probe.py times as ``setup_s``;
- ``cli-setup``: the same for the ``cli`` workload, which loads its YAML
  configs; ``models.prepare`` writes them into the working directory once,
  untimed, before any case runs;
- one case per line of the README's command block, and ``KERNEL``, run
  as the installed ``tvar2`` script runs it, through ``tvar2.cli.main``,
  in a directory holding the README's periodic example config as
  model.yaml, its CSV to /dev/null.

Every case runs in both SETTINGS, whatever PYTHONDONTWRITEBYTECODE this
process has: ``bytecode``, where the timed runs read the bytecode the
first run wrote, as an installed package's do, and ``no bytecode``, with
PYTHONDONTWRITEBYTECODE=1 in a tree that never gets any, where every run
compiles tvar2 from source.  Each side and setting runs in its own copy
of the committed files of its commit, extracted with record.extract: the
change is the commit HEAD names, and the README is read from it.  Every
case first runs once per side and setting untimed.  Then MIN_PAIRS
times, each case runs once per side in each setting, alternating which
side runs first.  The file holds every run's seconds and, per case and
setting (``<setting>: <case>``), each side's median and quartiles,
record.py's gain entry (wins and losses over the pairs, the ratio of
medians, the base's interquartile distance, and whether a gain may be
claimed) and its interval entry (the per-pair ratios and the
order-statistic interval for their median, with its coverage, and the
median ratio over the pairs each side ran first in).  It is rewritten
after every pair.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time

from record import MIN_PAIRS, extract, git, summarize

SETUP = "import models\nimport tvar2\nmodels.setup('montecarlo', '.')\n"
CLI_SETUP = "import models\nimport tvar2\nmodels.setup('cli', '.')\n"
# writes the configs CLI_SETUP loads
PREPARE = "import models\nmodels.prepare('cli', '.')\n"
# what the console script pyproject.toml declares runs
SCRIPT = "import sys\nfrom tvar2.cli import main\nsys.exit(main())\n"
# a table long enough for tvar2.cli's array kernel, which the first such
# table of a process imports: a cost no README command pays
KERNEL = ["green", "--config", "model.yaml", "--t", "10", "--k", "5000"]
# setting -> the PYTHONDONTWRITEBYTECODE its runs get (None: unset)
SETTINGS = {"bytecode": None, "no bytecode": "1"}


def cases(readme: str) -> tuple[dict, str]:
    """Each case's name and interpreter arguments, the README's commands
    and then KERNEL, and the README's periodic example config, which they
    read as model.yaml."""
    block = re.search(r"^```sh\n(tvar2 .*?)^```", readme, re.M | re.S).group(1)
    config = next(text for text in re.findall(r"^```yaml\n(.*?)^```", readme,
                                              re.M | re.S)
                  if "kind: periodic" in text)
    named = {"import": ["-c", "import tvar2"], "montecarlo-setup": ["-c", SETUP],
             "cli-setup": ["-c", CLI_SETUP]}
    for command in [shlex.split(line)[1:] for line in block.splitlines()] + [
            KERNEL]:
        named[" ".join(command)] = ["-c", SCRIPT, *command]
    return named, config


def environment(root: str, setting: str) -> dict:
    """This process's environment, with the tree ``root`` on PYTHONPATH and
    the PYTHONDONTWRITEBYTECODE of ``setting``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")])}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if SETTINGS[setting] is not None:
        env["PYTHONDONTWRITEBYTECODE"] = SETTINGS[setting]
    return env


def time_run(argv: list, env: dict, cwd: str) -> float:
    """Seconds from the start of ``argv`` to its exit, which must be 0."""
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"{argv} failed in {cwd} (exit {done.returncode}):\n{done.stderr}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, help="COLD_<n>.json to write")
    args = parser.parse_args(argv)
    commits = {"base": git("rev-parse", "--verify", args.base + "^{commit}"),
               "change": git("rev-parse", "HEAD")}
    record = {**{side: {"commit": commit} for side, commit in commits.items()},
              "settings": SETTINGS, "first": [],
              "runs": {"base": [], "change": []}}

    roots = {(side, setting): tempfile.mkdtemp(prefix=f"cold-{side}-")
             for side in commits for setting in SETTINGS}
    work = tempfile.mkdtemp(prefix="cold-work-")
    try:
        for (side, _), root in roots.items():
            extract(commits[side], root)
        with open(os.path.join(roots["change", "bytecode"], "README.md")) as fh:
            named, config = cases(fh.read())
        with open(os.path.join(work, "model.yaml"), "w") as fh:
            fh.write(config)
        envs = {key: environment(root, key[1]) for key, root in roots.items()}

        def once(side: str, setting: str, case: list) -> float:
            return time_run([sys.executable, *case], envs[side, setting], work)

        once("change", "bytecode", ["-c", PREPARE])
        for side, setting in roots:
            for case in named.values():
                once(side, setting, case)
        for i in range(MIN_PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            metrics = {side: {} for side in order}
            for name, case in named.items():
                for setting in SETTINGS:
                    for side in order:
                        metrics[side][f"{setting}: {name}"] = once(
                            side, setting, case)
            for side in order:
                record["runs"][side].append({"metrics": metrics[side]})
            record["first"].append(order[0])
            summarize(record, dict.fromkeys(metrics["base"], "lower"))
            print(f"pair {i + 1}: " + json.dumps(metrics), file=sys.stderr)
            with open(args.out, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
    finally:
        for root in (*roots.values(), work):
            shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
