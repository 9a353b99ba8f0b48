"""The two benchmark workloads: seeded request rounds and their checks.

Every workload is a closed loop with one client: the runner sends the next
request only after the previous one returned.  A request is one call into
tvar2 (a library function or ``tvar2.cli.main``).  Requests look functions
up on their tvar2 module at call time, so the tracer's wrappers see them.

A run is a fixed number of rounds.  Rounds of one workload have the same
shape (the same operations on the same schedules); the seed draws anchors,
sizes, initial values and simulation keys.  Fixing the shape keeps the
latency percentiles of one seed comparable with another's.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import tvar2
import tvar2.cli
import tvar2.simulate

import oracles
from models import config_path, load_cli_configs, montecarlo_models

# tvar2 re-exports the function xi, which shadows the submodule attribute
XI = importlib.import_module("tvar2.xi")

# Seconds one round takes at the seed commit on a 2-core Xeon (Python 3.11,
# numpy 2.4).  A run is round(--seconds / NOMINAL_ROUND_S) rounds, so that
# it measures about --seconds there and the sample count does not depend
# on how fast the program is.
NOMINAL_ROUND_S = {
    "montecarlo": 5.7,
    "cli": 3.2,
}


@dataclass
class Request:
    op: str
    call: Callable[[], Any]
    # (result, exception or None) -> list of failure causes; empty means right
    check: Callable[[Any, BaseException | None], list]
    cli: Any = None   # the CliRequest behind a command-line request


@dataclass
class Workload:
    warmup: list
    rounds: list
    extra_checks: list = field(default_factory=list)


def _raised(op: str, exc) -> list:
    return [f"wrong:{op}:raised {type(exc).__name__}: {exc}"] if exc is not None else []


def _listed(cause) -> list:
    return [cause] if cause else []


# --- Monte Carlo ---------------------------------------------------------------

MC_LENGTH = 10
MC_BURN_IN = 500
MC_HORIZON = 4
# (model, innovations, paths, workers).  The two 24k-path requests span two
# 20k-path chunks each; one runs them on the thread pool.  Only one does, as
# two pooled ensembles per round made peak memory depend on thread timing.
# In a run the 24k requests form the longest class, about 16 strong, so the
# tail (11th largest) sits inside it.
MC_SHAPES = [
    ("periodic", "normal", 2_000, 1), ("cyclical", "uniform", 2_000, 2),
    ("near-unit-root", "normal", 2_000, 1), ("periodic", "uniform", 5_000, 2),
    ("cyclical", "normal", 2_000, 1), ("near-unit-root", "uniform", 24_000, 1),
    ("periodic", "normal", 2_000, 2), ("cyclical", "uniform", 24_000, 2),
    ("near-unit-root", "normal", 2_000, 2),
]


def ensemble_digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


class MonteCarloRequest:
    """simulate_paths, empirical_moments (max_lag 2, or fewer at the first
    kept times) at every kept time, then empirical_forecast_error k=4."""

    def __init__(self, oracle, cfg):
        self.oracle, self.cfg = oracle, cfg
        self.digest = None   # of the ensemble, kept for multi-chunk requests

    def call(self):
        cfg = self.cfg
        ens = tvar2.simulate.simulate_paths(cfg)
        stats = [tvar2.simulate.empirical_moments(ens, int(t), min(2, j))
                 for j, t in enumerate(ens.times)]
        err = tvar2.simulate.empirical_forecast_error(cfg, cfg.t_end, MC_HORIZON)
        return ens, stats, err

    def check(self, res, exc) -> list:
        if exc is not None:
            return _raised("montecarlo", exc)
        ens, stats, (err_mean, err_var) = res
        oracle, cfg = self.oracle, self.cfg
        causes = []
        for s in stats:
            t = s.anchor
            if not (oracles.within_se(s.mean, oracle.mean(t))
                    and oracles.within_se(s.variance, oracle.acf(t, 0))
                    and all(oracles.within_se(a, oracle.acf(t, k))
                            for k, a in enumerate(s.autocovariances, start=1))):
                causes.append(f"wrong:montecarlo:moments at t={t}")
                break
        _, mse = oracles.forecast_reference(cfg.schedule, cfg.t_end, MC_HORIZON, (0.0, 0.0))
        if not (abs(err_mean.value) <= oracles.MC_SIGMAS * err_mean.se
                and oracles.within_se(err_var, mse)):
            causes.append("wrong:montecarlo:forecast error")
        if cfg.n_paths > tvar2.simulate.CHUNK_TARGET:
            self.digest = ensemble_digest(ens.values)
        return causes

    def request(self) -> Request:
        return Request("montecarlo", self.call, self.check)

    def thread_invariance(self) -> list:
        """Re-simulate with the other worker count; the digest must not change."""
        if self.digest is None:
            return []
        cfg = self.cfg
        other = tvar2.simulate.SimulationConfig(
            cfg.schedule, cfg.n_paths, cfg.t_end, cfg.length, cfg.seed,
            cfg.burn_in, cfg.innovations, 3 - cfg.workers)
        digest = ensemble_digest(tvar2.simulate.simulate_paths(other).values)
        return [] if digest == self.digest else ["wrong:montecarlo:ensemble depends on workers"]


def montecarlo(seed: int, rounds: int, workdir: str) -> Workload:
    models = montecarlo_models()
    oracle = {name: oracles.moments_oracle(m.schedule, m.period)
              for name, m in models.items()}
    rng = np.random.default_rng([seed, 13])
    mc_rounds = []
    for _ in range(rounds):
        reqs = []
        for name, family, paths, workers in MC_SHAPES:
            cfg = tvar2.simulate.SimulationConfig(
                models[name].schedule, paths, int(rng.integers(1_000, 1_000_000)),
                MC_LENGTH, int(rng.integers(0, 2 ** 31)), MC_BURN_IN, family, workers)
            reqs.append(MonteCarloRequest(oracle[name], cfg))
        mc_rounds.append(reqs)
    warm_cfg = tvar2.simulate.SimulationConfig(models["periodic"].schedule, 500, 1000,
                                               MC_LENGTH, 1, MC_BURN_IN)
    warm = [MonteCarloRequest(oracle["periodic"], warm_cfg).request()]
    return Workload(warmup=warm,
                    rounds=[[m.request() for m in reqs] for reqs in mc_rounds],
                    extra_checks=[m.thread_invariance for m in mc_rounds[0]])


# --- CLI -----------------------------------------------------------------------

def run_cli(argv: list) -> int:
    """tvar2.cli.main in-process; argparse errors arrive as SystemExit."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return tvar2.cli.main(argv)
        except SystemExit as exc:
            return exc.code


# Each checker reads the CSV rows of one subcommand (a csv.reader) and
# returns its failure causes.  Green tables, forecasts, acf, the stacked matrices and
# the decompositions are checked against oracles.py; only the simulated
# draws, which nothing but the library's random streams can produce, are
# compared with a library result.

def _check_green(rows, model, opts) -> list:
    rows = list(rows)
    t, k = opts["t"], opts["k"]
    if rows[0] != ["t", "i", "xi"] or [r[:2] for r in rows[1:]] != [
            [str(t), str(i)] for i in range(k + 1)]:
        return ["wrong:cli.green:layout"]
    values = np.array([float(r[2]) for r in rows[1:]])
    return _listed(oracles.check_green(values, model.schedule, t, k, model.period))


def _check_forecast(rows, model, opts) -> list:
    rows = list(rows)
    t, k = opts["t"], opts["k"]
    if rows[0] != ["t", "k", "point", "mse"] or len(rows) != 2 or rows[1][:2] != [str(t), str(k)]:
        return ["wrong:cli.forecast:layout"]
    return _listed(oracles.check_forecast(float(rows[1][2]), float(rows[1][3]), model, t, k,
                                          (opts["y0"], opts["y1"])))


def _check_acf(rows, model, opts) -> list:
    rows = list(rows)
    t = opts["t"]
    if rows[0] != ["t", "k", "gamma", "converged"] or [r[:2] for r in rows[1:]] != [
            [str(t), str(k)] for k in range(opts["max_lag"] + 1)]:
        return ["wrong:cli.acf:layout"]
    oracle = None if model.explosive else oracles.moments_oracle(model.schedule, model.period)
    scale = 1.0 if model.explosive else oracle.acf(t, 0)
    causes = set()
    for k, (_, _, gamma, converged) in enumerate(rows[1:]):
        want = math.nan if model.explosive else oracle.acf(t, k)
        causes.update(_listed(oracles.check_series(float(gamma), converged == "true", want,
                                                   scale, model.explosive)))
    return sorted(causes)


def _check_simulate(rows, model, opts) -> list:
    """The CSV must hold the library's ensemble to CLI_RTOL, and its
    statistics must lie within MC_SIGMAS standard errors of the analytic
    season moments."""
    cfg = tvar2.simulate.SimulationConfig(model.schedule, opts["paths"], opts["t"],
                                          opts["length"], opts["seed"], workers=opts["workers"])
    ens = tvar2.simulate.simulate_paths(cfg)
    oracle = oracles.moments_oracle(model.schedule, model.period)
    times = [str(t) for t in ens.times]
    header = next(rows, None)
    if opts["aggregate"]:
        rows = list(rows)
        if header != ["t", "stat", "value", "se"] or [r[:2] for r in rows] != [
                [t, stat] for t in times for stat in ("mean", "variance")]:
            return ["wrong:cli.simulate:layout"]
        causes = set()
        for j, t in enumerate(ens.times):
            stats = tvar2.simulate.empirical_moments(ens, int(t))
            for row, got, want in ((rows[2 * j], stats.mean, oracle.mean(t)),
                                   (rows[2 * j + 1], stats.variance, oracle.acf(t, 0))):
                value, se = float(row[2]), float(row[3])
                if not (oracles.close(value, got.value, oracles.CLI_RTOL)
                        and oracles.close(se, got.se, oracles.CLI_RTOL)):
                    causes.add("wrong:cli.simulate:output")
                if not abs(value - want) <= oracles.MC_SIGMAS * se:
                    causes.add("wrong:cli.simulate:statistics")
        return sorted(causes)
    # raw paths are read row by row, so that checking them does not set the
    # peak memory of the run
    values = np.empty((cfg.n_paths, len(times)))
    index = -1
    for index, (path, t, y) in enumerate(rows):
        p, j = divmod(index, len(times))
        if header != ["path", "t", "y"] or p >= cfg.n_paths or path != str(p) or t != times[j]:
            return ["wrong:cli.simulate:layout"]
        values[p, j] = float(y)
    if index + 1 != values.size:
        return ["wrong:cli.simulate:layout"]
    causes = []
    if not np.all(np.abs(values - ens.values)
                  <= oracles.CLI_RTOL * np.maximum(np.abs(ens.values), 1.0)):
        causes.append("wrong:cli.simulate:output")
    if not all(oracles.sample_within_se(values[:, j], oracle.mean(t), oracle.acf(t, 0))
               for j, t in enumerate(ens.times)):
        causes.append("wrong:cli.simulate:statistics")
    return causes


def _check_stationarity(rows, model, opts) -> list:
    rows = list(rows)
    l = model.period
    phi0_mat, phi1_mat, rho = oracles.vs_reference(model.schedule, l)
    labels = ["phi0_mat"] * l + ["phi1_mat"] * l + ["spectral_radius", "margin", "stationary"]
    if [r[0] for r in rows] != labels or any(len(r) != l + 1 for r in rows[:2 * l]):
        return ["wrong:cli.stationarity:layout"]
    got = np.array([[float(v) for v in r[1:]] for r in rows[:2 * l]])
    want = np.vstack([phi0_mat, phi1_mat])
    causes = []
    if not np.all(np.abs(got - want) <= oracles.CLI_RTOL * np.maximum(np.abs(want), 1.0)):
        causes.append("wrong:cli.stationarity:matrices")
    if not (oracles.close(float(rows[2 * l][1]), rho)
            and oracles.close(float(rows[2 * l + 1][1]), 1.0 - rho)
            and rows[2 * l + 2][1] == ("true" if rho < 1.0 else "false")):
        causes.append("wrong:cli.stationarity:verdict")
    return causes


def _check_decompose(rows, model, opts) -> list:
    """Every method's value must be xi_{t,total} of the schedule's own
    block layout, and its deviation from the recurrence must be tiny."""
    rows = list(rows)
    sched = model.schedule
    if model.period is None:           # abrupt breaks: the window's anchor and horizon
        t = total = None
        want = XI.xi_determinant_oracle(sched, sched.anchor, sched.horizon)
    else:                              # n periods, or one period of cycles
        t = total = opts.get("n", 1) * model.period
        want = oracles.periodic_xi_table(sched, model.period, t, total)[total]
    if rows[0] != ["method", "value", "rel_dev"] or [r[0] for r in rows[1:]] != [
            "recurrence", "decomposition", "block-determinant"]:
        return ["wrong:cli.decompose-verify:layout"]
    ok = all(oracles.close(float(value), want, oracles.RTOL, scale=0.0)
             and 0.0 <= float(dev) <= oracles.RTOL for _, value, dev in rows[1:])
    return [] if ok else ["wrong:cli.decompose-verify:value"]


def _check_verify(rows, model, opts) -> list:
    rows = list(rows)
    ok = bool(rows) and all(len(r) == 2 and r[1] == "pass" for r in rows)
    return [] if ok else ["wrong:cli.verify:output"]


CHECKERS = {
    "green": _check_green,
    "forecast": _check_forecast,
    "acf": _check_acf,
    "simulate": _check_simulate,
    "stationarity": _check_stationarity,
    "decompose-verify": _check_decompose,
    "verify": _check_verify,
}


class CliRequest:
    """One ``tvar2`` command line; ``want_exit`` 2 marks a rejection."""

    def __init__(self, index: int, workdir: str, config: str, cmd: str, opts: dict,
                 flags: list, want_exit: int = 0, defect: str | None = None):
        self.out = os.path.join(workdir, f"out-{index}.csv")
        self.config, self.cmd, self.opts = config, cmd, opts
        self.argv = [cmd, "--config", config_path(workdir, config), "--out", self.out] + flags
        self.want_exit, self.defect = want_exit, defect
        self.first = None   # ((exit code, output digest), causes) of the first round

    def request(self, models: dict) -> Request:
        def call():
            if os.path.exists(self.out):
                os.remove(self.out)
            return run_cli(self.argv)
        return Request("cli." + self.cmd, call,
                       lambda code, exc: self.check(code, exc, models), cli=self)

    def output_digest(self):
        if not os.path.exists(self.out):
            return None
        with open(self.out, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def check(self, code, exc, models: dict) -> list:
        """Check the first round in full; a replay must reproduce its exit
        code and bytes, and keeps its verdict."""
        if exc is not None:
            return _raised("cli." + self.cmd, exc)
        seen = (code, self.output_digest())
        if self.first is not None:
            first_seen, first_causes = self.first
            if seen != first_seen:
                return [f"wrong:cli.{self.cmd}:output changed between rounds"]
            return first_causes
        causes = self._check_answer(code, seen[1] is not None, models)
        self.first = (seen, causes)
        return causes

    def _check_answer(self, code, wrote_file: bool, models: dict) -> list:
        if self.want_exit != 0:
            causes = []
            if code != self.want_exit:
                causes.append(self.defect or f"wrong:cli.{self.cmd}:exit {code}")
            if wrote_file and self.defect != "acf-tol0-partial-csv":
                causes.append("out-created-before-validation")
            return sorted(set(causes))
        if code != 0:
            return [f"wrong:cli.{self.cmd}:exit {code}"]
        with open(self.out, newline="") as fh:
            try:
                return CHECKERS[self.cmd](csv.reader(fh), models[self.config], self.opts)
            except (ValueError, IndexError) as err:
                return [f"wrong:cli.{self.cmd}:unparsable {err}"]


def cli(seed: int, rounds: int, workdir: str) -> Workload:
    """Every subcommand over the README configs, many short requests,
    deep series on a near-unit-root and on explosive configs, and three
    seeded rejections per round.  The round is drawn once and replayed, so answers are
    checked in full once and later rounds must reproduce the bytes."""
    models = load_cli_configs(workdir)
    rng = np.random.default_rng([seed, 14])
    specs = []

    def add(config, cmd, flags=(), want_exit=0, defect=None, **opts):
        flags = list(flags)
        for key, value in opts.items():
            if key in ("aggregate", "matrices"):
                flags += [f"--{key}"] if value else []
            else:
                flags += [f"--{key.replace('_', '-')}", str(value)]
        specs.append(CliRequest(len(specs), workdir, config, cmd, opts, flags,
                                want_exit, defect))

    def anchor():
        return int(rng.integers(100, 100_000))

    def y_init():
        return {name: round(float(v), 6) for name, v in zip(("y0", "y1"), rng.normal(size=2))}

    # short requests, as on many anchors: the bulk of the round, so that
    # the median request is one of them rather than on a class boundary
    for config in ("periodic", "cyclical", "constant", "near-unit-root"):
        add(config, "green", t=anchor(), k=int(rng.integers(1, 25)))
        add(config, "forecast", t=anchor(), k=int(rng.integers(1, 25)), **y_init())
    for config in ("periodic", "cyclical", "constant"):
        add(config, "acf", t=anchor(), max_lag=2)
    add("periodic", "green", t=anchor(), k=10_000)
    add("constant", "green", t=anchor(), k=5_000)
    add("breaks", "green", t=50, k=int(rng.integers(1, 11)))
    for config in ("periodic", "cyclical", "constant", "near-unit-root", "explosive-1.5"):
        add(config, "acf", t=anchor(), max_lag=20)
    add("explosive-1.05", "acf", t=anchor(), max_lag=4)
    add("periodic", "simulate", t=anchor(), paths=25_000, length=4,
        seed=int(rng.integers(0, 2 ** 31)), workers=1, aggregate=False)
    add("cyclical", "simulate", t=anchor(), paths=25_000, length=4,
        seed=int(rng.integers(0, 2 ** 31)), workers=1, aggregate=True)
    for config in ("constant", "periodic"):
        add(config, "forecast", t=anchor(), k=int(rng.integers(1, 200)), **y_init())
    add("near-unit-root", "forecast", t=anchor(), k=int(rng.integers(1_000, 10_000)), **y_init())
    add("explosive-1.05", "forecast", t=anchor(), k=int(rng.integers(1_000, 5_000)), **y_init())
    add("explosive-2.5", "forecast", t=anchor(), k=int(rng.integers(1_000, 10_000)), **y_init())
    add("breaks", "forecast", t=50, k=int(rng.integers(1, 10)), y0=1.0, y1=-1.0)
    add("periodic", "stationarity", matrices=True)
    add("periodic", "decompose-verify", n=int(rng.integers(2, 6)))
    add("cyclical", "decompose-verify")
    add("breaks", "decompose-verify")
    for config in ("constant", "periodic", "cyclical"):
        add(config, "verify", seed=int(rng.integers(0, 1000)))

    rejections = [
        lambda: add("unknown-key", "green", ["--t", "5", "--k", "3"], want_exit=2),
        lambda: add("bad-version", "green", ["--t", "5", "--k", "3"], want_exit=2),
        lambda: add("periodic", "green", ["--t", "5", "--k", "x%d" % rng.integers(9)],
                    want_exit=2),
        lambda: add("periodic", "green", ["--t", "5", "--k", str(-int(rng.integers(1, 9)))],
                    want_exit=2),
        lambda: add("periodic", "acf", ["--t", "5", "--tol", "0"], want_exit=2,
                    defect="acf-tol0-partial-csv"),
        lambda: add("periodic", "simulate", ["--t", "5", "--paths", str(-int(rng.integers(1, 9)))],
                    want_exit=2, defect="bad-flag-exit-1"),
    ]
    for i in rng.choice(len(rejections), size=3, replace=False):
        rejections[i]()

    order = rng.permutation(len(specs))
    round_ = [specs[i].request(models) for i in order]
    light = [r for r in round_ if "simulate" not in r.op]
    return Workload(warmup=light, rounds=[round_] * rounds)


WORKLOADS = {
    "montecarlo": montecarlo,
    "cli": cli,
}
