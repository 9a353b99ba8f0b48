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
import math
import os
import sys
from itertools import chain, islice

import numpy as np

from . import config as config_mod
from .blockdet import (PeriodEndError, decomposition_report, segment_layout,
                       xi_abar_decomposed, xi_car_decomposed, xi_par_decomposed)
from .config import PARAMS, ConfigError
from .moments import autocovariance, forecast
from .schedules import CyclicalSchedule, PeriodicSchedule, ScheduleError
from .simulate import (MAX_PATH_STEPS, SimulationConfig, empirical_moments,
                       simulate_paths)
from .solution import evaluate_solution, forward_recursion, general_solution
from .vs import build_vs, stacked_period, stationarity_check
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
    "seed": "master seed, in [0, 2**63)",
    "workers": "accepted (>= 1) but has no effect: each block of 256 paths "
               "draws one stream keyed by (seed, block), so the paths do not "
               "depend on how the work is shared out",
    "burn_in": "steps run from zero before the kept values, in [0, 10**6]; "
               "a normal path draws its state after them from its exact "
               "Gaussian law, a uniform path as the general solution's "
               "weighted sum of its burn-in draws, drawing only the newest "
               "steps whose weights reach float64 resolution (the rest at "
               "their mean 0 move the state by at most 2**-54 of the summed "
               "|weights|; near-unit-root and explosive schedules draw all "
               "of them); the size cap counts burn_in + length rows per "
               "uniform block",
    "innovations": "normal or uniform",
    "aggregate": "emit per-time mean/variance instead of raw paths",
    "matrices": "also print the stacked parameter matrices",
    "n": "number of periods (periodic schedules)",
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
    and one write per batch.  Every CSV row but the raw simulate rows (see
    _indexed_rows) goes through here."""
    out.write(header)
    rows = iter(rows)
    while batch := list(islice(rows, BATCH_ROWS)):
        out.write((template * len(batch)) % tuple(chain.from_iterable(batch)))


def _check_range(args, name: str, low, high) -> None:
    value = getattr(args, name)
    if not low <= value <= high:
        raise ConfigError(
            f"key {name!r} must be in [{low}, {high}] (got {value})")


def _check_finite(args, name: str) -> None:
    value = getattr(args, name)
    if not math.isfinite(value):
        raise ConfigError(f"key {name!r} must be finite (got {value})")


def _cmd_green(args, schedule, out):
    _check_range(args, "k", 0, MAX_DEPTH - 1)
    values = green_functions(schedule, args.t, args.k).values
    _write_indexed(out, "t,i,xi\n", np.array([args.t]), np.arange(args.k + 1),
                   values[None])
    return EXIT_OK


def _cmd_forecast(args, schedule, out):
    _check_range(args, "k", 1, MAX_DEPTH)
    _check_finite(args, "y0")
    _check_finite(args, "y1")
    result = forecast(schedule, args.t, args.k, (args.y0, args.y1))
    _write_rows(out, "t,k,point,mse\n", _FORECAST,
                [(args.t, args.k, result.point, result.mse)])
    return EXIT_OK


def _cmd_acf(args, schedule, out):
    _check_range(args, "max_lag", 0, MAX_DEPTH - 1)
    _check_range(args, "nmax", 1, MAX_DEPTH)
    _check_finite(args, "tol")
    if not args.tol > 0:
        raise ConfigError("key 'tol' must be > 0")
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
    _indexed_rows, RAW_BATCH_ROWS rows at a time, each batch gathered from
    ``values`` for that batch alone.  A batch formats the outer values it
    spans once each, and the inner ones too where fewer than its rows."""
    n_inner = values.shape[1]
    rows = values.size
    if rows <= PERCENT_MAX_ROWS:
        inner = inner.tolist()
        _write_rows(out, header, _INDEXED,
                    ((a, b, y) for a, ys in zip(outer.tolist(),
                                                values.tolist())
                     for b, y in zip(inner, ys)))
        return
    out.write(header)
    for r0 in range(0, rows, RAW_BATCH_ROWS):
        p, q = np.divmod(np.arange(r0, min(r0 + RAW_BATCH_ROWS, rows)),
                         n_inner)
        p0 = r0 // n_inner
        i = outer[p0:p[-1] + 1], p - p0
        j = (inner, q) if n_inner < len(q) else (inner[q], None)
        out.write(_indexed_rows(i, j, values[p, q]))


# The array kernel of the long t,i,value tables.  A row is built in quads,
# little-endian uint32 words of four ASCII bytes; NUL bytes pad each field
# out to whole quads and are dropped from the batch's text at the end.  The
# quad tables map each group g of four decimal digits to its characters:
# at _FULL + g every digit, at _LEAD + g with the leading zeros blanked (0
# all blank: a quad above a number's first digit), at _UNITS + g the same
# but 0 as "0" (a number's last quad), and at _TRAIL + g with the trailing
# zeros blanked (0 all blank: a quad past a float's last digit).  The top
# table holds a NUL, the point and the first two fraction digits g, at
# [g] in full and at [100 + g] with trailing zeros blanked, 0 all blank: a
# float without fraction digits prints no point.  The exponent form's last
# two fraction digits g and "e-" are at tail[g], trailing zeros blanked,
# and its exponent x, at least two digits, at power[x].
_FULL, _LEAD, _UNITS, _TRAIL = (np.uint64(i * 10**4) for i in range(4))
# the separator and the sign, bytes 0 and 1 of a field's first quad
_COMMA, _MINUS = np.uint32(ord(",")), np.uint32(ord("-") << 8)
_NEWLINE = ord("\n")
# ',' and a float's %.15g, right-aligned in the 22 bytes of the longest
# (-1.23456789012345e-308), then a pad: six quads, once NUL replaces space
_OTHER = "," + FLOAT_FORMAT.replace("%", "%22") + " "
# the %.15g of infinity and nan at 2 * kind + sign bit, kind 0 for finite
_SPELLED = ("", "", "inf", "-inf", "nan", "nan")
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)
# |y| * 2**_SHIFT is normal, and so is 10**q * 2**-_SHIFT for q <= 338
_SHIFT = 600
# a bound on the error of _decimal's rounding residue where 10**q is inexact
_RESIDUE_ERROR = 2.0**-48


@functools.cache
def _quad_tables():
    """The quad tables, the top, tail and power tables and the six quads of
    each of _SPELLED.  Built on first use, so importing tvar2 does not
    build them."""
    full = [f"{g:04d}" for g in range(10**4)]
    lead = [d.lstrip("0").rjust(4) for d in full]
    trail = [d.rstrip("0").ljust(4) for d in full]
    top = ([" ." + d[2:] for d in full[:100]] + ["    "]
           + [(" ." + d[2:].rstrip("0")).ljust(4) for d in full[1:100]])
    tail = [d[2:].rstrip("0").ljust(2) + "e-" for d in full[:100]]
    power = [f"{x:02d}".rjust(4) for x in range(325)]
    spelled = ["," + word.rjust(22) + " " for word in _SPELLED]
    text = "".join(full + lead + ["   0"] + lead[1:] + trail + top + tail
                   + power + spelled)
    quads, top, tail, power, spelled = np.split(
        np.frombuffer(text.replace(" ", "\0").encode("ascii"), "<u4"),
        np.cumsum([4 * 10**4, 200, 100, 325]))
    return quads, top, tail, power, spelled.reshape(6, 6)


@functools.cache
def _pow10_tables():
    """10**q * 2**-_SHIFT for q in [0, 338] as double-doubles, the high
    part's Veltkamp halves beside it: (high, its upper half, its lower
    half, low).  Built on first use, exactly from Python ints; the low part
    is 0 where 10**q is a float, q <= 22."""
    high, low = [], []
    for q in range(339):
        high.append(10**q / 2**_SHIFT)      # int / int rounds correctly
        num, den = high[-1].as_integer_ratio()
        low.append((10**q * den - num * 2**_SHIFT) / (den << _SHIFT))
    high = np.array(high)
    split = high * 134217729.0   # 2**27 + 1
    upper = split - (split - high)
    return high, upper, high - upper, np.array(low)


def _int_quads(out, mag) -> None:
    """Write the uint64 array ``mag`` right-aligned into the quad columns
    of ``out``, leading zeros blanked (0 prints as 0)."""
    quads = _quad_tables()[0]
    table = _UNITS
    for k in range(out.shape[1] - 1, -1, -1):
        high = mag // 10**4
        np.take(quads, mag - high * 10**4 + np.where(high == 0, table, _FULL),
                out=out[:, k])
        table, mag = _LEAD, high


def _decimal(a):
    """(n, e, exact) for an array ``a`` of positive floats below 1e15: n is
    ``a * 10**(14 - e)`` rounded half to even to an int in [10**14,
    10**15), the 15 significant digits of %.15g, and e in [-324, 15] its
    decimal exponent (e = 15 where a rounds up to 1e15).  ``exact`` is
    false where e is not proven, or where the rounding is not decided."""
    high, upper, lower, low = _pow10_tables()
    a = a * 2.0**_SHIFT     # exact: subnormals become normal and split exactly
    e = np.log10(a)
    e -= _SHIFT * math.log10(2)
    e = np.clip(np.floor(e, out=e).astype(np.intp), -324, 14)
    a_high = a * 134217729.0   # 2**27 + 1
    a_high -= a_high - a
    a_low = a - a_high
    for _ in range(2):
        # a * high[q] is exactly prod + err (Dekker's two-product), to which
        # low[q] adds the rest of 10**q; the pair is then renormalised, so
        # |err| is at most half an ulp of prod and the range test is exact
        # for prod + err.  log10 may put e one off near a power of ten.  In
        # place, to keep few arrays alive at once.
        q = 14 - e
        u, v = upper[q], lower[q]
        prod = a * high[q]
        err = a_high * u - prod
        err += a_high * v
        err += a_low * u
        err += a_low * v
        err += a * low[q]
        total = prod + err
        err -= total - prod
        prod = total
        below = (prod < 1e14) | ((prod == 1e14) & (err < 0))
        above = (prod > 1e15) | ((prod == 1e15) & (err >= 0))
        if not (below.any() or above.any()):
            break
        e = np.clip(e - below + above, -324, 14)
    # prod's fraction is a multiple of its ulp (at most 1/8) and |err| is at
    # most half of one; where 10**q is a float (e >= -8) err is exact, and
    # decides only where prod itself ends in .5; elsewhere the residue is
    # known to within _RESIDUE_ERROR
    whole = np.floor(prod)
    residue = prod - whole
    residue -= 0.5
    residue += err
    n = whole.astype(np.int64)
    n += (residue > 0) | ((residue == 0) & ((n & 1) == 1))
    carry = n == 10**15
    n[carry] = 10**14
    undecided = (np.abs(residue) <= _RESIDUE_ERROR) & (e < -8)
    return n, e + carry, ~(below | above | undecided)


def _indexed_rows(i, j, y) -> str:
    """The text of ``_INDEXED % row`` for each row (i, j, y) of the float64
    array y and the int fields i and j, each a pair (values, at): the int64
    values at the intp index array ``at``, or one value a row where ``at``
    is None.  A zero, and a float whose %.15g is in fixed notation,
    prints from _decimal's digits where they are exact, any other float
    from _other_quads."""
    quads, top = _quad_tables()[:2]
    a = np.abs(y)
    finite = (a > 0) & (a < 1e15)
    n, e, exact = _decimal(np.where(finite, a, 1.0))
    n *= finite     # a zero prints as its fixed notation of n = 0
    fixed = (finite & exact & (e >= -4) & (e <= 14)) | (a == 0)
    # each int, then the integer part of |y|, each with room for ',' and
    # '-' in its first quad; then the point and 18 fraction digits in five
    # quads, and the newline
    ints = []
    for values, at in (i, j):
        # as uint64, 2**63 for -2**63
        mag = np.where(values < 0, -values, values).view(np.uint64)
        ints.append((values, at, mag, (len(str(mag.max())) + 5) // 4))
    point = np.clip(e, -4, 14)
    n_int = (max(int(point.max()), 0) + 6) // 4     # |y| < 1 prints 0
    out = np.empty((len(y), ints[0][3] + ints[1][3] + n_int + 6), "<u4",
                   order="F")
    col = 0
    for (values, at, mag, nq), sep in zip(ints, (0, _COMMA)):
        field = out[:, col:col + nq]
        if at is not None:
            field = np.empty((len(values), nq), "<u4", order="F")
        _int_quads(field, mag)
        field[:, 0] |= sep | (values < 0) * _MINUS
        if at is not None:
            for k in range(nq):
                np.take(field[:, k], at, out=out[:, col + k])
        col += nq
    # n's digits split at the point
    unit = _POW10_INT[14 - point]
    whole = n // unit
    frac = ((n - whole * unit) * _POW10_INT[4 + point]).view(np.uint64)
    _int_quads(out[:, col:col + n_int], whole.view(np.uint64))
    out[:, col] |= _COMMA | np.signbit(y) * _MINUS
    first = frac // 10**16
    frac -= first * 10**16
    zero = np.ones(len(y), bool)     # every fraction digit further on is 0
    for k in range(col + n_int + 4, col + n_int, -1):
        high = frac // 10**4
        group = frac - high * 10**4
        np.take(quads, group + np.where(zero, _TRAIL, _FULL), out=out[:, k])
        zero &= group == 0
        frac = high
    np.take(top, first + zero * np.uint64(100), out=out[:, col + n_int])
    out[:, col + n_int + 5] = _NEWLINE
    rest = np.flatnonzero(~fixed)
    if len(rest):
        out[rest, col + 6:col + n_int + 5] = 0
        small = exact[rest] & (e[rest] < -4)
        rows = rest[small]
        if len(rows):
            out[rows, col:col + 6] = _exponent_quads(y[rows], n[rows],
                                                     e[rows])
        rows = rest[~small]
        if len(rows):
            out[rows, col:col + 6] = _other_quads(y[rows])
    return out.tobytes(order="C").translate(None, b"\0").decode("ascii")


def _other_quads(y):
    """Six quads for each nonzero float of ``y``: ``,`` and its %.15g,
    right-aligned in 22 bytes.  Infinities and nan take their fixed
    strings; the other floats go through one FLOAT_FORMAT % for all of
    them."""
    kind = np.isinf(y) + 2 * np.isnan(y)
    block = _quad_tables()[4][2 * kind + np.signbit(y)]
    other = np.flatnonzero(kind == 0)
    if len(other):
        values = y[other].tolist()
        text = np.frombuffer(((_OTHER * len(values)) % tuple(values))
                             .encode("ascii"), np.uint8)
        block[other] = np.where(text == ord(" "), 0, text).view("<u4") \
            .reshape(len(values), 6)
    return block


def _exponent_quads(y, n, e):
    """Six quads of ``,`` and the %.15g exponent form of each float of y,
    from its digits n and decimal exponent e < -4: the sign, n's first
    digit, the point, the other 14 digits with their trailing zeros dropped
    (and the point with them if all are), then e-XX or e-XXX."""
    quads, _, tail, power, _ = _quad_tables()
    block = np.empty((len(n), 6), "<u4", order="F")
    lead = n // 10**14
    frac = (n - lead * 10**14).view(np.uint64)
    digits = frac // 100
    group = frac - digits * 100
    np.take(tail, group, out=block[:, 4])
    zero = group == 0    # every fraction digit further on is 0
    for k in (3, 2, 1):
        high = digits // 10**4
        group = digits - high * 10**4
        np.take(quads, group + np.where(zero, _TRAIL, _FULL), out=block[:, k])
        zero &= group == 0
        digits = high
    block[:, 0] = (_COMMA | np.signbit(y) * _MINUS
                   | (lead + ord("0")) << 16 | ~zero * (ord(".") << 24))
    np.take(power, -e, out=block[:, 5])
    return block


def _cmd_stationarity(args, schedule, out):
    stacked_period(schedule)    # the command's rules hold without --matrices
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
    _write_rows(out, "method,value,rel_dev\n", _METHOD,
                decomposition_report(schedule, t, spec, value))
    return EXIT_OK


def _cmd_verify(args, schedule, out):
    _check_range(args, "seed", 0, 2**63 - 1)
    rng = np.random.default_rng(args.seed)
    t = args.t
    # (name, passed) of each check, written once all have run
    xis = green_functions(schedule, t, 12).values.tolist()
    checks = [("green-recurrence-vs-determinant", all(
        abs(xis[k] - xi_determinant_oracle(schedule, t, k))
        <= 1e-10 * max(1.0, abs(xis[k])) for k in range(1, 13)))]

    k = 8
    y_init = (float(rng.normal()), float(rng.normal()))
    eps = [float(rng.normal()) for _ in range(k)]
    sol = general_solution(schedule, t, k)
    direct = forward_recursion(schedule, t, k, y_init, eps)
    closed = evaluate_solution(sol, y_init, eps)
    checks.append(("solution-closed-form-vs-recursion",
                   abs(direct - closed) <= 1e-10 * max(1.0, abs(direct))))

    # a dumped text that does not load again raises ConfigError: exit 2
    checks.append(("config-round-trip", np.array_equal(
        config_mod.load(config_mod.dump(schedule))[0].window(t - 49, t + 50),
        schedule.window(t - 49, t + 50))))

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
            try:
                self.fh = open(self.path, "w", newline="")
            except OSError as exc:
                raise ConfigError(f"cannot open --out: {exc}") from None
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
        if "t" in flags and args.t is not None:
            _check_range(args, "t", -MAX_ANCHOR, MAX_ANCHOR)
        # fail before computing; the file itself still opens at the first
        # write, so a rejected run leaves an existing file alone
        if args.out is not None:
            directory = os.path.dirname(args.out) or "."
            if not os.path.isdir(directory):
                raise ConfigError(f"cannot open --out: {directory!r} is not "
                                  f"a directory")
            if not args.out or os.path.isdir(args.out):
                raise ConfigError(f"cannot open --out: {args.out!r} is "
                                  f"{'a directory' if args.out else 'empty'}")
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
