"""Command-line front end.

Subcommands: green, forecast, acf, simulate, stationarity,
decompose-verify, verify.  A YAML config supplies the schedule and default
run parameters; command-line flags override config values.  Exit codes:
0 success, 2 config error, 1 computation-domain error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import config as config_mod
from .blockdet import (block_spec, decomposition_report, xi_abar_decomposed,
                       xi_car_decomposed, xi_par_decomposed)
from .config import ConfigError
from .moments import DEFAULT_N_MAX, DEFAULT_TOL, autocovariance, forecast
from .schedules import (BreakSchedule, CyclicalSchedule, PeriodicSchedule,
                        ScheduleError)
from .simulate import (SimulationConfig, empirical_moments, simulate_paths)
from .solution import evaluate_solution, forward_recursion, general_solution
from .vs import build_vs, stationarity_check
from .xi import green_functions, xi_determinant_oracle

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CONFIG = 2
FLOAT_FORMAT = "%.15g"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return FLOAT_FORMAT % x


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvar2",
        description="Closed-form solutions, forecasts and moments of "
                    "time-varying AR(2) processes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--out", default=None,
                       help="output path (default standard output)")
        p.add_argument("--t", type=int, default=None, help="anchor time")
        p.add_argument("--tol", type=float, default=None,
                       help="series truncation tolerance")
        p.add_argument("--nmax", type=int, default=None,
                       help="series truncation cap")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        return p

    p = add("green", "table of Green functions (fundamental solutions)")
    p.add_argument("--k", type=int, default=None, help="maximum depth")

    p = add("forecast", "k-step point forecast and its mean square error")
    p.add_argument("--k", type=int, default=None, help="forecast horizon")
    p.add_argument("--y0", type=float, default=None, help="value of y at t-k")
    p.add_argument("--y1", type=float, default=None, help="value of y at t-k-1")

    p = add("acf", "autocovariances of y_t at lags 0..max_lag")
    p.add_argument("--max-lag", type=int, default=None, dest="max_lag")

    p = add("simulate", "Monte Carlo path ensemble")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted (>= 1) but has no effect: the kernel is "
                        "serial and each path's stream is keyed by "
                        "(seed, path)")
    p.add_argument("--innovations", choices=["normal", "uniform"], default=None)
    p.add_argument("--aggregate", action="store_true",
                   help="emit per-time mean/variance instead of raw paths")

    p = add("stationarity", "stacked-form stationarity verdict (periodic only)")
    p.add_argument("--matrices", action="store_true",
                   help="also print the stacked parameter matrices")

    p = add("decompose-verify",
            "three-way check of the boundary decomposition of xi")
    p.add_argument("--n", type=int, default=None,
                   help="number of periods (periodic schedules)")
    p.add_argument("--horizon", type=int, default=None)

    add("verify", "run the internal cross-check suite")
    return parser


def _param(args, params: dict, name: str, default=None):
    value = getattr(args, name, None)
    if value is None:
        value = params.get(name, default)
    return value


def _require(args, params: dict, name: str):
    value = _param(args, params, name)
    if value is None:
        raise ConfigError(f"missing key {name!r} (set it in params or via --{name})")
    return value


def _cmd_green(args, schedule, params, out):
    t = int(_require(args, params, "t"))
    k = int(_require(args, params, "k"))
    if k < 0:
        raise ConfigError("key 'k' must be >= 0")
    table = green_functions(schedule, t, k)
    out.write("t,i,xi\n")
    for i in range(k + 1):
        out.write(f"{t},{i},{_fmt(table.xi(i))}\n")
    return EXIT_OK


def _cmd_forecast(args, schedule, params, out):
    t = int(_require(args, params, "t"))
    k = int(_require(args, params, "k"))
    y0 = float(_param(args, params, "y0", 0.0))
    y1 = float(_param(args, params, "y1", 0.0))
    result = forecast(schedule, t, k, (y0, y1))
    out.write("t,k,point,mse\n")
    out.write(f"{t},{k},{_fmt(result.point)},{_fmt(result.mse)}\n")
    return EXIT_OK


def _cmd_acf(args, schedule, params, out):
    t = int(_require(args, params, "t"))
    max_lag = int(_param(args, params, "max_lag", 4))
    tol = float(_param(args, params, "tol", DEFAULT_TOL))
    nmax = int(_param(args, params, "nmax", DEFAULT_N_MAX))
    if max_lag < 0:
        raise ConfigError("key 'max_lag' must be >= 0")
    if not tol > 0:
        raise ConfigError("key 'tol' must be > 0")
    if nmax < 1:
        raise ConfigError("key 'nmax' must be >= 1")
    out.write("t,k,gamma,converged\n")
    for k in range(max_lag + 1):
        cov = autocovariance(schedule, t, k, tol, nmax)
        out.write(f"{t},{k},{_fmt(cov.value)},{_fmt(cov.converged)}\n")
    return EXIT_OK


def _cmd_simulate(args, schedule, params, out):
    try:
        cfg = SimulationConfig(
            schedule=schedule,
            n_paths=int(_param(args, params, "paths", 1000)),
            t_end=int(_require(args, params, "t")),
            length=int(_param(args, params, "length", 1)),
            seed=int(_param(args, params, "seed", 0)),
            burn_in=int(_param(args, params, "burn_in", 500)),
            innovations=str(_param(args, params, "innovations", "normal")),
            workers=int(_param(args, params, "workers", 1)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    ensemble = simulate_paths(cfg)
    if args.aggregate:
        out.write("t,stat,value,se\n")
        for t in ensemble.times:
            stats = empirical_moments(ensemble, int(t))
            out.write(f"{t},mean,{_fmt(stats.mean.value)},"
                      f"{_fmt(stats.mean.se)}\n")
            out.write(f"{t},variance,{_fmt(stats.variance.value)},"
                      f"{_fmt(stats.variance.se)}\n")
    else:
        times = ensemble.times.tolist()
        out.write("path,t,y\n")
        row_format = "%d,%d," + FLOAT_FORMAT + "\n"
        # one join per 1024 paths: as fast as one join for the whole
        # ensemble, without holding every row string at once
        for first in range(0, cfg.n_paths, 1024):
            rows = ensemble.values[first:first + 1024].tolist()
            out.write("".join([row_format % (p, t, y)
                               for p, row in enumerate(rows, first)
                               for t, y in zip(times, row)]))
    return EXIT_OK


def _cmd_stationarity(args, schedule, params, out):
    if not isinstance(schedule, PeriodicSchedule):
        raise ScheduleError(
            "stationarity check needs a periodic schedule "
            f"(got kind {schedule.kind!r})")
    vs = build_vs(schedule)
    verdict = stationarity_check(vs)
    if args.matrices:
        for label, mat in (("phi0_mat", vs.phi0_mat), ("phi1_mat", vs.phi1_mat)):
            for row in mat:
                out.write(f"{label}," + ",".join(_fmt(v) for v in row) + "\n")
    out.write(f"spectral_radius,{_fmt(verdict.spectral_radius)}\n")
    out.write(f"margin,{_fmt(verdict.margin)}\n")
    state = ("indeterminate" if verdict.stationary is None
             else _fmt(verdict.stationary))
    out.write(f"stationary,{state}\n")
    return EXIT_OK


def _cmd_decompose_verify(args, schedule, params, out):
    if isinstance(schedule, PeriodicSchedule):
        n = int(_param(args, params, "n", 2))
        l = schedule.period
        t = int(_param(args, params, "t", n * l))
        value = xi_par_decomposed(schedule, t, n)
        spec = block_spec(schedule, t, [j * l for j in range(1, n)], n * l,
                          "periodic")
    elif isinstance(schedule, CyclicalSchedule):
        l = schedule.period
        t = int(_param(args, params, "t", l))
        value = xi_car_decomposed(schedule, t)
        spec = block_spec(schedule, t,
                          [l - b for b in reversed(schedule.boundaries)], l,
                          "cyclical")
    elif isinstance(schedule, BreakSchedule):
        t, k = schedule.anchor, schedule.horizon
        value = xi_abar_decomposed(schedule, t, k)
        spec = block_spec(schedule, t, schedule.offsets, k, "abrupt-breaks")
    else:
        raise ScheduleError(
            "decomposition needs a periodic, cyclical or abrupt-breaks "
            f"schedule (got kind {schedule.kind!r})")
    out.write("method,value,rel_dev\n")
    for method, val, dev in decomposition_report(schedule, t, spec, value):
        out.write(f"{method},{_fmt(val)},{_fmt(dev)}\n")
    return EXIT_OK


def _cmd_verify(args, schedule, params, out):
    import numpy as np
    seed = int(_param(args, params, "seed", 0))
    rng = np.random.default_rng(seed)
    t = int(_param(args, params, "t", 40))
    failures = 0

    def report(name: str, ok: bool):
        nonlocal failures
        out.write(f"{name},{'pass' if ok else 'fail'}\n")
        if not ok:
            failures += 1

    table = green_functions(schedule, t, 12)
    ok = all(abs(table.xi(k) - xi_determinant_oracle(schedule, t, k))
             <= 1e-10 * max(1.0, abs(table.xi(k)))
             for k in range(1, 13))
    report("green-recurrence-vs-determinant", ok)

    k = 8
    y_init = (float(rng.normal()), float(rng.normal()))
    eps = [float(rng.normal()) for _ in range(k)]
    sol = general_solution(schedule, t, k)
    direct = forward_recursion(schedule, t, k, y_init, eps)
    closed = evaluate_solution(sol, y_init, eps)
    report("solution-closed-form-vs-recursion",
           abs(direct - closed) <= 1e-10 * max(1.0, abs(direct)))

    text = None
    try:
        text = config_mod.dump(schedule)
    except ConfigError:
        report("config-round-trip", True)  # generic schedules are exempt
    if text is not None:
        reparsed, _ = config_mod.load(text)
        report("config-round-trip",
               np.array_equal(reparsed.window(t - 49, t + 50),
                              schedule.window(t - 49, t + 50)))

    if isinstance(schedule, PeriodicSchedule):
        l = schedule.period
        anchor = 2 * l
        dec = xi_par_decomposed(schedule, anchor, 2)
        ref = green_functions(schedule, anchor, 2 * l).xi(2 * l)
        report("periodic-decomposition",
               abs(dec - ref) <= 1e-11 * max(1.0, abs(ref)))
    return EXIT_OK if failures == 0 else EXIT_DOMAIN


_COMMANDS = {
    "green": _cmd_green,
    "forecast": _cmd_forecast,
    "acf": _cmd_acf,
    "simulate": _cmd_simulate,
    "stationarity": _cmd_stationarity,
    "decompose-verify": _cmd_decompose_verify,
    "verify": _cmd_verify,
}


class _OutFile:
    """The --out file, created on the first write and removed if the
    command then raises, so a rejected run leaves no file behind."""

    def __init__(self, path: str):
        self.path = path
        self.fh = None

    def write(self, text: str) -> int:
        if self.fh is None:
            self.fh = open(self.path, "w", newline="")
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.fh is not None:
            self.fh.close()
            if exc_type is not None:
                os.remove(self.path)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            schedule, params = config_mod.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ScheduleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    command = _COMMANDS[args.command]
    try:
        if args.out is None:
            return command(args, schedule, params, sys.stdout)
        with _OutFile(args.out) as out:
            return command(args, schedule, params, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ScheduleError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
