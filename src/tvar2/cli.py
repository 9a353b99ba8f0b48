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
import contextlib
import functools
import math
import os
import stat
import sys
from itertools import chain, islice

import numpy as np

from . import config as config_mod
from .blockdet import (PeriodEndError, decomposition_report, segment_layout,
                       xi_block_decomposed, xi_par_decomposed)
from .config import PARAMS, ConfigError
from .moments import DEFAULT_N_MAX, DEFAULT_TOL, autocovariance, forecast
from .schedules import PeriodicSchedule, ScheduleError
from .simulate import (DEFAULT_BURN_IN, MAX_PATH_STEPS, SimulationConfig,
                       empirical_moments, simulate_paths)
from .solution import evaluate_solution, forward_recursion, general_solution
from .vs import build_vs, stationarity_check
from .xi import ORACLE_CAP, green_functions, xi_determinant_oracle

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CONFIG = 2
FLOAT_FORMAT = "%.15g"
BATCH_ROWS = 1024   # CSV rows formatted and written per out.write call
RAW_BATCH_ROWS = 8192   # the same for the t,i,value tables' array kernel
# the longest t,i,value table written by _write_rows, not the array kernel:
# the kernel costs a fixed 120-170 us a batch, and the two cross near here
PERCENT_MAX_ROWS = 300

# Output size caps, and SimulationConfig's MAX_PATH_STEPS and MAX_BURN_IN: a
# request over one is a config error (exit 2), before anything is computed
# or written.
MAX_DEPTH = 10**6          # green k + 1, forecast k, acf max_lag + 1 and nmax
# |t|: every time a subcommand reads, simulated ones too, stays in int64
MAX_ANCHOR = 2**62

_HELP = {
    "t": "anchor time",
    "k": "maximum depth (green) or forecast horizon (forecast)",
    "y0": "value of y at t-k",
    "y1": "value of y at t-k-1",
    "tol": "series truncation tolerance",
    "nmax": "series truncation cap",
    "max_lag": "largest lag, in [0, 10**6 - 1]",
    "seed": "master seed, in [0, 2**63)",
    "paths": "number of paths, >= 1",
    "length": "kept values per path, ending at t, >= 1",
    "workers": ">= 1; accepted but has no effect",
    "burn_in": "steps run from zero before the kept values, in [0, 10**6]",
    "innovations": "normal or uniform",
    "aggregate": "emit per-time mean/variance instead of raw paths",
    "matrices": "also print a periodic schedule's stacked matrices",
    "n": "number of periods behind t (periodic schedules only; default 2)",
}


# each subcommand's %-template of one CSV row, built once per process
_INDEXED = f"%d,%d,{FLOAT_FORMAT}\n"       # green t,i,xi; simulate path,t,y
_FORECAST = f"%d,%d,{FLOAT_FORMAT},{FLOAT_FORMAT}\n"
_ACF = f"%d,%d,{FLOAT_FORMAT},%s\n"
_MOMENTS = (f"%d,mean,{FLOAT_FORMAT},{FLOAT_FORMAT}\n"
            f"%d,variance,{FLOAT_FORMAT},{FLOAT_FORMAT}\n")
_METHOD = f"%s,{FLOAT_FORMAT},{FLOAT_FORMAT}\n"
_LABELLED = "%s,%s\n"
_WORD = {True: "true", False: "false", None: "indeterminate"}


def _write_rows(out, header: str, template: str, rows) -> None:
    """Write ``header``, then the tuples of ``rows`` through the one-row
    ``template`` repeated once per row, BATCH_ROWS rows at a time: one %
    and one write per batch.  Every CSV row but those of the t,i,value
    tables the array kernel writes (see _write_indexed) goes through here,
    so a command that fails on standard output has written its header and
    the whole batches before the failure."""
    out.write(header)
    rows = iter(rows)
    while batch := list(islice(rows, BATCH_ROWS)):
        out.write((template * len(batch)) % tuple(chain.from_iterable(batch)))


def _cmd_green(args, schedule, out):
    values = green_functions(schedule, args.t, args.k).values
    _write_indexed(out, "t,i,xi\n", np.array([args.t]), np.arange(args.k + 1),
                   values[None])
    return EXIT_OK


def _cmd_forecast(args, schedule, out):
    result = forecast(schedule, args.t, args.k, (args.y0, args.y1))
    _write_rows(out, "t,k,point,mse\n", _FORECAST,
                [(args.t, args.k, result.point, result.mse)])
    return EXIT_OK


def _cmd_acf(args, schedule, out):
    covs = (autocovariance(schedule, args.t, k, args.tol, args.nmax)
            for k in range(args.max_lag + 1))
    _write_rows(out, "t,k,gamma,converged\n", _ACF,
                ((c.anchor, c.lag, c.value, _WORD[c.converged]) for c in covs))
    return EXIT_OK


def _cmd_simulate(args, schedule, out):
    try:
        cfg = SimulationConfig(
            schedule=schedule, n_paths=args.paths, t_end=args.t,
            length=args.length, seed=args.seed, burn_in=args.burn_in,
            innovations=args.innovations, workers=args.workers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    ensemble = simulate_paths(cfg)
    if args.aggregate:
        stats = (empirical_moments(ensemble, t)
                 for t in ensemble.times.tolist())
        _write_rows(out, "t,stat,value,se\n", _MOMENTS,
                    ((m.anchor, m.mean.value, m.mean.se,
                      m.anchor, m.variance.value, m.variance.se)
                     for m in stats))
    else:
        _write_indexed(out, "path,t,y\n", np.arange(len(ensemble.values)),
                       ensemble.times, ensemble.values)
    return EXIT_OK


def _write_indexed(out, header: str, outer, inner, values) -> None:
    """Write ``header``, then the ``_INDEXED`` row (outer[p], inner[q],
    values[p, q]) for each p and q, p-major, from the int64 arrays outer
    and inner and the float64 matrix values.  A table of at most
    PERCENT_MAX_ROWS rows goes through _write_rows, a longer one through
    the array kernel of tvar2._rowkernel, imported here on first use,
    RAW_BATCH_ROWS rows at a time, each batch gathered from ``values`` for
    that batch alone.  A batch formats the outer values it spans once
    each, and the inner ones too where fewer than its rows."""
    n_inner = values.shape[1]
    rows = values.size
    if rows <= PERCENT_MAX_ROWS:
        inner = inner.tolist()
        _write_rows(out, header, _INDEXED,
                    ((a, b, y) for a, ys in zip(outer.tolist(),
                                                values.tolist())
                     for b, y in zip(inner, ys)))
        return
    from . import _rowkernel
    out.write(header)
    for r0 in range(0, rows, RAW_BATCH_ROWS):
        p, q = np.divmod(np.arange(r0, min(r0 + RAW_BATCH_ROWS, rows)),
                         n_inner)
        p0 = r0 // n_inner
        i = outer[p0:p[-1] + 1], p - p0
        j = (inner, q) if n_inner < len(q) else (inner[q], None)
        out.write(_rowkernel.indexed_rows(i, j, values[p, q]))


def _cmd_stationarity(args, schedule, out):
    verdict = stationarity_check(schedule)
    rows = []
    if args.matrices:
        vs = build_vs(schedule)
        rows = [(label, ",".join([FLOAT_FORMAT % v for v in row]))
                for label, mat in (("phi0_mat", vs.phi0_mat),
                                   ("phi1_mat", vs.phi1_mat))
                for row in mat.tolist()]
    rows += [("spectral_radius", FLOAT_FORMAT % verdict.spectral_radius),
             ("margin", FLOAT_FORMAT % verdict.margin),
             ("stationary", _WORD[verdict.stationary])]
    _write_rows(out, "", _LABELLED, rows)
    return EXIT_OK


def _cmd_decompose_verify(args, schedule, out):
    periodic = isinstance(schedule, PeriodicSchedule)
    n = PARAMS["n"][1] if args.n is None else args.n
    try:
        t, spec = segment_layout(schedule, args.t, n)
    except PeriodEndError as exc:
        raise ConfigError(f"key 't' must end a period: {exc}") from None
    if args.t is not None and args.t != t:
        raise ConfigError(f"key 't' must be the {schedule.kind} anchor {t} "
                          f"or left unset (got {args.t})")
    if args.n is not None and not periodic:
        raise ConfigError(f"key 'n' must be left unset on a {schedule.kind} "
                          f"schedule (got {args.n})")
    if spec.total > ORACLE_CAP:
        raise ConfigError(f"decomposition depth {spec.total} must be <= "
                          f"{ORACLE_CAP} (the block-determinant oracle's cap)")
    value = (xi_par_decomposed(schedule, t, n) if periodic
             else xi_block_decomposed(schedule, t, spec))
    _write_rows(out, "method,value,rel_dev\n", _METHOD,
                decomposition_report(schedule, t, spec, value))
    return EXIT_OK


def _cmd_verify(args, schedule, out):
    rng = np.random.default_rng(args.seed)
    t = args.t
    # (name, passed) of each check, written once all have run; no check
    # reads past the schedule's earliest time, and each reads time t
    depth = min(12, max(1, t + 1 - schedule.earliest))
    xis = green_functions(schedule, t, depth).values.tolist()
    checks = [("green-recurrence-vs-determinant", all(
        abs(xis[k] - xi_determinant_oracle(schedule, t, k))
        <= 1e-10 * max(1.0, abs(xis[k])) for k in range(1, depth + 1)))]

    k = min(8, depth)
    y_init = (float(rng.normal()), float(rng.normal()))
    eps = [float(rng.normal()) for _ in range(k)]
    sol = general_solution(schedule, t, k)
    direct = forward_recursion(schedule, t, k, y_init, eps)
    closed = evaluate_solution(sol, y_init, eps)
    checks.append(("solution-closed-form-vs-recursion",
                   abs(direct - closed) <= 1e-10 * max(1.0, abs(direct))))

    # a dumped text that does not load again raises ConfigError: exit 2
    checks.append(("config-round-trip", config_mod.schedule_to_dict(
        config_mod.load(config_mod.dump(schedule))[0])
        == config_mod.schedule_to_dict(schedule)))

    if isinstance(schedule, PeriodicSchedule):
        anchor, spec = segment_layout(schedule, None, 2)
        report = decomposition_report(schedule, anchor, spec,
                                      xi_par_decomposed(schedule, anchor, 2))
        # the recurrence on |phi1|, |phi2| bounds every term either method
        # adds, so cancellation down to a tiny xi does not fail the check
        scale = green_functions(PeriodicSchedule(
            [(0.0, abs(c.phi1), abs(c.phi2), 1.0) for c in schedule.seasons]),
            anchor, spec.total).xi(spec.total)
        checks.append(("periodic-decomposition",
                       abs(report[1][1] - report[0][1]) <= 1e-11 * scale))
    _write_rows(out, "", _LABELLED,
                [(name, "pass" if ok else "fail") for name, ok in checks])
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_DOMAIN


# subcommand -> (handler, help text, the flags it reads, its own defaults).
# A flag is a run parameter of config.PARAMS or a switch, mapped to the
# closed interval _resolve holds its value to, or to None; simulate's other
# rules are SimulationConfig's.  An own default of None means the handler
# works the value out from the schedule.
_ANCHOR = (-MAX_ANCHOR, MAX_ANCHOR)
_COMMANDS = {
    "green": (_cmd_green, "table of Green functions (fundamental solutions)",
              {"t": _ANCHOR, "k": (0, MAX_DEPTH - 1)}, {}),
    "forecast": (_cmd_forecast, "k-step point forecast and its mean square "
                 "error", {"t": _ANCHOR, "k": (1, MAX_DEPTH), "y0": None,
                           "y1": None}, {}),
    "acf": (_cmd_acf, "autocovariances of y_t at lags 0..max_lag",
            {"t": _ANCHOR, "max_lag": (0, MAX_DEPTH - 1), "tol": None,
             "nmax": (1, MAX_DEPTH)},
            {"tol": DEFAULT_TOL, "nmax": DEFAULT_N_MAX}),
    "simulate": (_cmd_simulate, "Monte Carlo path ensemble",
                 {"t": _ANCHOR, "seed": None, "paths": None, "length": None,
                  "burn_in": None, "workers": None, "innovations": None,
                  "aggregate": None}, {"burn_in": DEFAULT_BURN_IN}),
    "stationarity": (_cmd_stationarity, "period-matrix stationarity verdict",
                     {"matrices": None}, {}),
    "decompose-verify": (_cmd_decompose_verify, "three-way check of the "
                         "boundary decomposition of xi",
                         {"t": _ANCHOR, "n": (1, ORACLE_CAP)},
                         {"t": None, "n": None}),
    "verify": (_cmd_verify, "run the internal cross-check suite",
               {"t": _ANCHOR, "seed": (0, 2**63 - 1)}, {"t": 40}),
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
        p.add_argument("--out", help="regular file, written whole when the "
                       "command returns (default standard output)")
        for flag in flags:
            option = "--" + flag.replace("_", "-")
            if flag in PARAMS:
                p.add_argument(option, type=PARAMS[flag][0],
                               help=_HELP[flag])
            else:
                p.add_argument(option, action="store_true", help=_HELP[flag])
    return parser


def _resolve(args, params: dict, flags: dict, defaults: dict) -> None:
    """Fill each flag left unset on the command line from the config's
    params, else from the subcommand's or the parameter table's default,
    and check its value: inside the flag's interval, finite if a float, and
    tol > 0.  A value left to the handler (an own default of None) is not
    checked.

    The flags are checked in the order of the subcommand's entry, after the
    config has loaded; ``main`` then opens --out, and the handler checks
    the rules that need the schedule (decompose-verify's layout,
    simulate's ``SimulationConfig``).  A request with two faults names the
    first one met in that order."""
    for name, interval in flags.items():
        value = getattr(args, name)
        if value is None:
            value = params.get(name, defaults.get(name, PARAMS[name][1]))
            if value is None:
                if name in defaults:
                    continue
                raise ConfigError(
                    f"missing key {name!r} (set it in params or via --{name})")
            setattr(args, name, value)
        if interval and not interval[0] <= value <= interval[1]:
            raise ConfigError(f"key {name!r} must be in [{interval[0]}, "
                              f"{interval[1]}] (got {value})")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"key {name!r} must be finite (got {value})")
        if name == "tol" and not value > 0:
            raise ConfigError("key 'tol' must be > 0")


@contextlib.contextmanager
def _out_file(path: str):
    """Yield the --out file: staged beside the target before anything is
    computed, and moved onto it when the command returns, whatever the exit
    code, or removed if the command raises.  The target, ``path`` or the
    target of the symlink it names, must be a regular file or a new one.

    So the target is written whole or left as it was, and a new one is not
    created by a command that raises.  The staged file is a hidden
    ``.tvar2-<12 hex digits>.tmp`` beside the target, which a killed run
    can leave behind.  A replaced target is a new file: it gets the
    permissions ``open(path, "w")`` gives (0666 less the umask) and the
    running user as owner, a hard link to the old file keeps the old text,
    and a read-only file in a writable directory is replaced all the same.
    Any other target, and a staged file that cannot be created, is a
    ConfigError before anything is computed."""
    target, mode = path, stat.S_IFREG if path else 0   # '' names no file
    try:
        with contextlib.suppress(FileNotFoundError):   # a new file
            mode = os.lstat(path).st_mode
            if stat.S_ISLNK(mode):   # a dangling link's target is new
                target, mode = os.path.realpath(path), stat.S_IFREG
                mode = os.stat(target).st_mode
        if not stat.S_ISREG(mode):
            raise ConfigError(f"cannot open --out: {path!r} is not a regular "
                              f"file")
        staged = os.path.join(os.path.dirname(target),
                              f".tvar2-{os.urandom(6).hex()}.tmp")
        out = open(staged, "x", newline="")   # the mode open(path, "w") gives
    except OSError as exc:
        raise ConfigError(f"cannot open --out: {exc.strerror}: {path!r}")
    try:
        with out:
            yield out
        os.replace(staged, target)
    except BaseException:
        os.remove(staged)
        raise


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
        with _out_file(args.out) as out:
            return run(args, schedule, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ScheduleError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
