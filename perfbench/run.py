"""tvar2 benchmark: one closed-loop client, every answer checked.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: montecarlo, cli (see perfbench/README.md).  With --trace 0
the run measures the end-to-end metrics with tracing off; with --trace 1
it runs half the rounds untraced and traced, alternating which goes
first, and reports the per-layer metrics and trace.overhead_ratio.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Run records (the
environment, failures by cause, and the spans of a traced run) go to
.perfbench_run/ under the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(ROOT, ".perfbench_run")
SETUP_PROBES = 21
CAP_FACTOR = 1.25    # busy time, in multiples of --seconds, after which rounds stop


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import tvar2 from this checkout's source tree, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "tvar2", "__init__.py")):
        fail(f"no tvar2 source tree under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import tvar2
    if os.path.dirname(os.path.dirname(os.path.abspath(tvar2.__file__))) != SRC:
        fail(f"imported tvar2 from {tvar2.__file__}, not from {SRC}")
    return tvar2


# --- environment ---------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cache_sizes() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "tvar2")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import yaml
    return {
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(), **cache_sizes(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "pyyaml": yaml.__version__, "git_commit": git_commit(),
        "tvar2_source_sha256": source_digest(),
    }


# --- measuring -------------------------------------------------------------------

def setup_probe(workload: str, scratch: str) -> float:
    """Seconds to import tvar2 and build the workload's schedules (or load
    its YAML configs), in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, scratch],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, capture_output=True, text=True,
        timeout=60)
    if out.returncode != 0:
        fail(f"set-up probe failed: {out.stderr.strip()}")
    return float(out.stdout.split()[-1])


def run_round(reqs, tracer=None) -> tuple[list, list]:
    """Send every request of one round, one after another.  Only the call
    is timed; its answer is checked after the clock stops, tracing paused.
    Returns the latencies in ns and the failure causes of each request."""
    latencies, causes = [], []
    for req in reqs:
        if tracer is not None:
            tracer.request_id += 1
            tracer.active = True
        exc = None
        start = time.perf_counter_ns()
        try:
            result = req.call()
        except Exception as err:  # a wrong exception is a failed request
            result, exc = None, err
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.active = False
        latencies.append(elapsed)
        causes.append(req.check(result, exc))
    return latencies, causes


def tail_latency(sorted_ns: list) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it:
    the 11th largest sample.  Returns (ms, percentile, samples)."""
    n = len(sorted_ns)
    rank = max(0, n - 11)
    return sorted_ns[rank] * 1e-6, 100.0 * (rank + 1) / n, n


def cli_output_counts(rounds) -> tuple[int, int, int]:
    """Rows and bytes of one pass over the rounds' --out files, and the
    rejections among them (requests that wanted a nonzero exit code)."""
    rows = size = rejections = 0
    for reqs in rounds:
        for req in reqs:
            cli_req = req.cli
            if cli_req is None:
                continue
            if cli_req.want_exit:
                rejections += 1
            elif os.path.exists(cli_req.out):
                with open(cli_req.out, "rb") as fh:
                    data = fh.read()
                rows += max(0, data.count(b"\n") - 1)
                size += len(data)
    return rows, size, rejections


def failures_by_cause(causes: list) -> tuple[dict, list]:
    """Count each cause; return the counts and the causes that are not
    known defects of the program (wrong answers)."""
    import oracles
    by_cause: dict = {}
    for request_causes in causes:
        for cause in request_causes:
            by_cause[cause] = by_cause.get(cause, 0) + 1
    return by_cause, sorted(c for c in by_cause if c not in oracles.KNOWN_DEFECTS)


def run_workload(args, scratch: str) -> tuple[dict, list, list, dict]:
    """Set up, warm up and time one workload.  Rounds stop early once the
    busy time passes CAP_FACTOR * --seconds, so that a much slower program
    still ends in time.  Returns the metrics, the failure causes of every
    timed request, those of the extra checks, and run details."""
    import layertrace
    import models
    import workloads
    models.prepare(args.workload, scratch)
    n_rounds = max(1, round(args.seconds / workloads.NOMINAL_ROUND_S[args.workload]))
    workload = workloads.WORKLOADS[args.workload](args.seed, n_rounds, scratch)
    cap_ns = CAP_FACTOR * args.seconds * 1e9

    for req in workload.warmup:
        try:
            req.call()
        except Exception:  # a failing request is counted when it is timed
            pass
    # keep the benchmark's own request objects out of the collector's way
    gc.collect()
    gc.freeze()

    latencies, causes, done = [], [], 0
    if args.trace:
        # Each of half the rounds runs untraced and traced, the order
        # alternating from round to round, so neither side always gets the
        # state the other warmed.
        tracer = layertrace.Tracer()
        traced_ns = []
        for r, reqs in enumerate(workload.rounds[:max(1, n_rounds // 2)]):
            if sum(latencies) + sum(traced_ns) > cap_ns:
                break
            done += 1
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    lat, round_causes = run_round(reqs, tracer if traced else None)
                finally:
                    tracer.uninstall()
                (traced_ns if traced else latencies).extend(lat)
                causes += round_causes
        rows, size, rejections = cli_output_counts(workload.rounds[:done])
        metrics = layertrace.layer_metrics(tracer, rows, size, rejections)
        metrics["trace.overhead_ratio"] = (sum(latencies) / sum(traced_ns), "ratio")
        tracer.write(os.path.join(WORKDIR, f"trace-{args.workload}-seed{args.seed}.json"))
        detail = {"rounds": 2 * done}
    else:
        # set-up probes spread over the run, so that their median samples
        # the machine as the requests do
        probes_before = [i * n_rounds // SETUP_PROBES for i in range(SETUP_PROBES)]
        setup_times = []
        for r, reqs in enumerate(workload.rounds):
            if sum(latencies) > cap_ns:
                break
            setup_times += [setup_probe(args.workload, scratch)
                            for _ in range(probes_before.count(r))]
            done += 1
            lat, round_causes = run_round(reqs)
            latencies += lat
            causes += round_causes
        while len(setup_times) < SETUP_PROBES:   # the rounds the cap cut off
            setup_times.append(setup_probe(args.workload, scratch))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ordered = sorted(latencies)
        tail_ms, tail_pct, samples = tail_latency(ordered)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "requests_per_s": (len(latencies) / (sum(latencies) * 1e-9), "1/s"),
            "latency_p50_ms": (statistics.median(ordered) * 1e-6, "ms"),
            "latency_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        detail = {"rounds": done, "latency_tail_percentile": tail_pct,
                  "latency_samples": samples, "setup_probe_s": setup_times}
    detail.update(requests_timed=len(latencies), busy_s=sum(latencies) * 1e-9)
    extra = [check() for check in workload.extra_checks]
    return metrics, causes, extra, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be > 0")
    os.makedirs(WORKDIR, exist_ok=True)
    warnings.simplefilter("ignore", RuntimeWarning)   # overflow on explosive inputs
    env = environment(args.workload, args.seed)
    # configs and CSV outputs of this run, apart from any other run in the checkout
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        metrics, causes, extra, run_detail = run_workload(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(causes)
    failed = sum(1 for c in causes if c)
    by_cause, unknown = failures_by_cause(causes + extra)
    detail = {"environment": env, **run_detail, "failed_ratio": failed / attempted,
              "failures_by_cause": by_cause, "unexpected_failures": unknown}
    with open(os.path.join(WORKDIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(f"{'failed_ratio':28s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted}; by cause {json.dumps(by_cause)})")
    if not args.trace:
        print(f"(latency_tail_ms is p{detail['latency_tail_percentile']:.2f} "
              f"of {detail['latency_samples']} samples)")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not unknown,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
