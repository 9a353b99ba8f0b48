"""Command-line front end.

Subcommands: green, forecast, acf, simulate, stationarity,
decompose-verify, verify; each accepts only the flags it reads.  A YAML
config supplies the schedule and default run parameters; command-line
flags override config values.  Exit codes: 0 success, 2 config error
(including a flag out of range or over a size cap), 1 computation-domain
error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import config as config_mod
from .blockdet import (PeriodEndError, decomposition_report,
                       relative_deviation, segment_layout, xi_abar_decomposed,
                       xi_car_decomposed, xi_par_decomposed)
from .config import PARAMS, ConfigError
from .moments import autocovariance, forecast
from .schedules import CyclicalSchedule, PeriodicSchedule, ScheduleError
from .simulate import (SUB_BLOCK, SimulationConfig, empirical_moments,
                       simulate_paths)
from .solution import evaluate_solution, forward_recursion, general_solution
from .vs import build_vs, stationarity_check
from .xi import ORACLE_CAP, green_functions, xi_determinant_oracle

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CONFIG = 2
FLOAT_FORMAT = "%.15g"

# Output size caps.  A request beyond one is a config error (exit 2),
# rejected before anything is computed or written.
MAX_DEPTH = 10**6          # green k + 1, forecast k, acf max_lag + 1 and nmax
# simulate values drawn: paths rounded up to whole SUB_BLOCK blocks, since
# every block is drawn at full width, times (burn_in + length)
MAX_PATH_STEPS = 10**8

_HELP = {
    "t": "anchor time",
    "k": "maximum depth (green) or forecast horizon (forecast)",
    "y0": "value of y at t-k",
    "y1": "value of y at t-k-1",
    "tol": "series truncation tolerance",
    "nmax": "series truncation cap",
    "seed": "master seed",
    "workers": "accepted (>= 1) but has no effect: each block of 256 paths "
               "draws one stream keyed by (seed, block), the blocks are drawn "
               "on one thread per usable core, and the recursion is serial",
    "innovations": "normal or uniform",
    "aggregate": "emit per-time mean/variance instead of raw paths",
    "matrices": "also print the stacked parameter matrices",
    "n": "number of periods (periodic schedules)",
}


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return FLOAT_FORMAT % x


def _check_range(args, name: str, low, high=None) -> None:
    value = getattr(args, name)
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"key {name!r} must be {bound} (got {value})")


def _cmd_green(args, schedule, out):
    _check_range(args, "k", 0, MAX_DEPTH - 1)
    table = green_functions(schedule, args.t, args.k)
    out.write("t,i,xi\n")
    for i in range(args.k + 1):
        out.write(f"{args.t},{i},{_fmt(table.xi(i))}\n")
    return EXIT_OK


def _cmd_forecast(args, schedule, out):
    _check_range(args, "k", 1, MAX_DEPTH)
    result = forecast(schedule, args.t, args.k, (args.y0, args.y1))
    out.write("t,k,point,mse\n")
    out.write(f"{args.t},{args.k},{_fmt(result.point)},{_fmt(result.mse)}\n")
    return EXIT_OK


def _cmd_acf(args, schedule, out):
    _check_range(args, "max_lag", 0, MAX_DEPTH - 1)
    _check_range(args, "nmax", 1, MAX_DEPTH)
    if not args.tol > 0:
        raise ConfigError("key 'tol' must be > 0")
    out.write("t,k,gamma,converged\n")
    for k in range(args.max_lag + 1):
        cov = autocovariance(schedule, args.t, k, args.tol, args.nmax)
        out.write(f"{args.t},{k},{_fmt(cov.value)},{_fmt(cov.converged)}\n")
    return EXIT_OK


def _cmd_simulate(args, schedule, out):
    try:
        cfg = SimulationConfig(
            schedule=schedule, n_paths=args.paths, t_end=args.t,
            length=args.length, seed=args.seed, burn_in=args.burn_in,
            innovations=args.innovations, workers=args.workers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    drawn = -(-cfg.n_paths // SUB_BLOCK) * SUB_BLOCK
    if drawn * (cfg.burn_in + cfg.length) > MAX_PATH_STEPS:
        raise ConfigError(f"key 'paths', rounded up to a multiple of "
                          f"{SUB_BLOCK}, times (burn_in + length) must be "
                          f"<= {MAX_PATH_STEPS}")
    ensemble = simulate_paths(cfg)
    if args.aggregate:
        out.write("t,stat,value,se\n")
        for t in ensemble.times.tolist():
            stats = empirical_moments(ensemble, t)
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


def _cmd_stationarity(args, schedule, out):
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


def _cmd_decompose_verify(args, schedule, out):
    # n bounds the layout before it is built; the total bounds the report's
    # block-determinant oracle
    _check_range(args, "n", 1, ORACLE_CAP)
    try:
        t, spec = segment_layout(schedule, args.t, args.n)
    except PeriodEndError as exc:
        raise ConfigError(f"key 't' must end a period: {exc}") from None
    if args.t is not None and args.t != t:
        raise ConfigError(f"key 't' must be the {schedule.kind} anchor {t} "
                          f"or left unset (got {args.t})")
    if spec.total > ORACLE_CAP:
        raise ConfigError(f"decomposition depth {spec.total} must be <= "
                          f"{ORACLE_CAP} (the block-determinant oracle's cap)")
    if isinstance(schedule, PeriodicSchedule):
        value = xi_par_decomposed(schedule, t, args.n)
    elif isinstance(schedule, CyclicalSchedule):
        value = xi_car_decomposed(schedule, t)
    else:
        value = xi_abar_decomposed(schedule, t, spec.total)
    out.write("method,value,rel_dev\n")
    for method, val, dev in decomposition_report(schedule, t, spec, value):
        out.write(f"{method},{_fmt(val)},{_fmt(dev)}\n")
    return EXIT_OK


def _cmd_verify(args, schedule, out):
    import numpy as np
    rng = np.random.default_rng(args.seed)
    t = args.t
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
        anchor, spec = segment_layout(schedule, None, 2)
        dec = xi_par_decomposed(schedule, anchor, 2)
        ref = green_functions(schedule, anchor, spec.total).xi(spec.total)
        report("periodic-decomposition", relative_deviation(dec, ref) <= 1e-11)
    return EXIT_OK if failures == 0 else EXIT_DOMAIN


# subcommand -> (handler, help text, the flags it reads, its own defaults).
# A flag is a run parameter of config.PARAMS or a switch; an own default of
# None means the handler works the value out from the schedule.
_COMMANDS = {
    "green": (_cmd_green, "table of Green functions (fundamental solutions)",
              ("t", "k"), {}),
    "forecast": (_cmd_forecast, "k-step point forecast and its mean square "
                 "error", ("t", "k", "y0", "y1"), {}),
    "acf": (_cmd_acf, "autocovariances of y_t at lags 0..max_lag",
            ("t", "max_lag", "tol", "nmax"), {}),
    "simulate": (_cmd_simulate, "Monte Carlo path ensemble",
                 ("t", "seed", "paths", "length", "burn_in", "workers",
                  "innovations", "aggregate"), {}),
    "stationarity": (_cmd_stationarity, "stacked-form stationarity verdict "
                     "(periodic only)", ("matrices",), {}),
    "decompose-verify": (_cmd_decompose_verify, "three-way check of the "
                         "boundary decomposition of xi", ("t", "n"),
                         {"t": None}),
    "verify": (_cmd_verify, "run the internal cross-check suite",
               ("t", "seed"), {"t": 40}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and kept for the
    process; each ``parse_args`` call still fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="tvar2",
        description="Closed-form solutions, forecasts and moments of "
                    "time-varying AR(2) processes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--out", help="output path (default standard output)")
        for flag in flags:
            option = "--" + flag.replace("_", "-")
            if flag in PARAMS:
                p.add_argument(option, type=PARAMS[flag][0],
                               help=_HELP.get(flag))
            else:
                p.add_argument(option, action="store_true", help=_HELP[flag])
    return parser


def _resolve(args, params: dict, flags, defaults: dict) -> None:
    """Fill each flag left unset on the command line from the config's
    params, else from the subcommand's or the parameter table's default."""
    for name in flags:
        if getattr(args, name) is None:
            value = params.get(name, defaults.get(name, PARAMS[name][1]))
            if value is None and name not in defaults:
                raise ConfigError(
                    f"missing key {name!r} (set it in params or via --{name})")
            setattr(args, name, value)


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
    run, _, flags, defaults = _COMMANDS[args.command]
    try:
        with open(args.config) as fh:
            schedule, params = config_mod.load(fh)
        _resolve(args, params, flags, defaults)
    except (OSError, ConfigError, ScheduleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.out is None:
            return run(args, schedule, sys.stdout)
        with _OutFile(args.out) as out:
            return run(args, schedule, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ScheduleError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
