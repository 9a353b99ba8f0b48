"""Self-test of the benchmark itself.

Run from the root of a checkout:  python3 perfbench/selftest.py

1. Runs every workload briefly, untraced and traced, and asserts that the last line names
   every metric of BENCHMARK.json with its unit.
2. Feeds deliberately corrupted answers through the checkers (a CSV
   changed after it was written, and library results changed before the
   command line formats them) and asserts that each counts as a failure
   that is not a known defect, so the checks are shown to be able to fail.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   perfbench/, and asserts that it exits nonzero without a result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(ROOT, ".perfbench_run")
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run_benchmark(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics(spec: dict) -> None:
    import workloads
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            out = run_benchmark(workload, trace)
            assert out.returncode == 0, f"{workload} trace={trace}: {out.stderr[-2000:]}"
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, f"{workload}: {result}"
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted[trace], f"{workload} trace={trace}: {sorted(got)}"
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")


def check_corrupted_answers() -> None:
    """Corrupt an answer, once in the CSV a subcommand wrote and several
    times inside the library as tvar2.cli bound it, and assert that each
    is caught as a wrong answer, not passed or taken for a known defect."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tvar2.cli
    import tvar2.simulate
    import models
    import oracles
    import workloads

    def fresh_check(req, answer) -> list:
        if req.cli is not None:
            req.cli.first = None   # check in full, not as a replay
        return req.check(answer, None)

    def must_fail(req, corrupt_answer) -> None:
        assert fresh_check(req, req.call()) == [], f"{req.op}: right answer rejected"
        causes = fresh_check(req, corrupt_answer(req))
        assert causes and not set(causes) & set(oracles.KNOWN_DEFECTS), (req.op, causes)
        print(f"ok  corrupted {req.op} fails: {causes}")

    def in_library(module, name, corrupt):
        """Call the request with module.name returning corrupted results."""
        def answer(req):
            original = getattr(module, name)
            setattr(module, name, lambda *a, **kw: corrupt(original(*a, **kw)))
            try:
                return req.call()
            finally:
                setattr(module, name, original)
        return answer

    def scaled(field, factor=1 + 1e-6):
        return lambda r: dataclasses.replace(r, **{field: getattr(r, field) * factor})

    os.makedirs(WORKDIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=WORKDIR)
    models.write_cli_configs(scratch)
    schedules = models.load_cli_configs(scratch)

    def cli_request(config, cmd, **opts):
        flags = [f"--{key.replace('_', '-')}" for key in opts if opts[key] is True]
        flags += [arg for key, value in opts.items() if value is not True
                  for arg in (f"--{key.replace('_', '-')}", str(value))]
        return workloads.CliRequest(0, scratch, config, cmd, opts, flags).request(schedules)

    forecast = cli_request("periodic", "forecast", t=41, k=6, y0=0.5, y1=-1.0)

    def corrupt_csv(req):
        code = req.call()
        with open(req.cli.out) as fh:
            head, row = fh.read().splitlines()
        t, k, point, mse = row.split(",")
        with open(req.cli.out, "w") as fh:
            fh.write(f"{head}\n{t},{k},{float(point) * (1 + 1e-6)!r},{mse}\n")
        return code

    must_fail(forecast, corrupt_csv)
    must_fail(forecast, in_library(tvar2.cli, "forecast", scaled("point")))
    must_fail(forecast, in_library(tvar2.cli, "forecast", scaled("mse", math.nan)))
    must_fail(cli_request("periodic", "green", t=401, k=2000),
              in_library(tvar2.cli, "green_functions", lambda r: dataclasses.replace(
                  r, values=np.append(r.values[:1], r.values[1:] * (1 + 1e-6)))))
    must_fail(cli_request("constant", "green", t=401, k=300),
              in_library(tvar2.cli, "green_functions", lambda r: dataclasses.replace(
                  r, values=np.append(r.values[:-1], r.values[-1] + 1e-3))))
    must_fail(cli_request("cyclical", "acf", t=403, max_lag=8),
              in_library(tvar2.cli, "autocovariance", scaled("value")))
    must_fail(cli_request("near-unit-root", "acf", t=403, max_lag=3),
              in_library(tvar2.cli, "autocovariance", scaled("value", math.inf)))
    must_fail(cli_request("periodic", "decompose-verify", n=3),
              in_library(tvar2.cli, "xi_par_decomposed", lambda v: v * (1 + 1e-6)))
    must_fail(cli_request("periodic", "stationarity", matrices=True),
              in_library(tvar2.cli, "stationarity_check", scaled("spectral_radius")))
    must_fail(cli_request("cyclical", "simulate", t=400, paths=4000, length=2, seed=3,
                          workers=1, aggregate=True),
              in_library(tvar2.cli, "empirical_moments", lambda r: dataclasses.replace(
                  r, mean=dataclasses.replace(r.mean, value=r.mean.value + 0.2))))
    mc_models = models.montecarlo_models()
    periodic = mc_models["periodic"]
    mc = workloads.MonteCarloRequest(
        oracles.moments_oracle(periodic.schedule, periodic.period),
        tvar2.simulate.SimulationConfig(periodic.schedule, 3000, 4000, workloads.MC_LENGTH, 5,
                                        workloads.MC_BURN_IN))
    must_fail(mc.request(), in_library(tvar2.simulate, "simulate_paths",
                                       lambda e: dataclasses.replace(e, values=e.values * 1.1)))
    shutil.rmtree(scratch)


def check_bare_directory(spec: dict) -> None:
    bare = tempfile.mkdtemp(prefix="bare-", dir=WORKDIR)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run_benchmark(spec["workloads"][0]["name"], 0, cwd=bare)
    assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    shutil.rmtree(bare)
    print(f"ok  without a source tree: exit {out.returncode}, no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_corrupted_answers()
    check_bare_directory(spec)
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
