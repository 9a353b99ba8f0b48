"""Monte Carlo path generation for time-varying AR(2) schedules.

Random stream contract, version ``STREAM_VERSION``: path p belongs to the
block b = p // SUB_BLOCK, and block b is one SFC64 stream seeded through
``SeedSequence([master seed, b])``, drawn time-major at full block width.
A path's values therefore depend on neither the ensemble size nor how
paths are chunked, nor on ``workers``, which has no effect; no thread is
started.  No path runs its burn-in step by step: ``_start`` gives the law
of the state after it, ``_simulate_chunk`` draws the start and the kept
steps, and ``simulate_paths`` lays the ensemble out.

Statistics are collected at fixed anchor times, never time-averaged: the
moments are themselves functions of time.  ``empirical_moments`` reads
them from one statistics table per lag over every kept row
(``_moment_table``), built on the lag's first call.  Ensembles are
read-only, and ``empirical_forecast_error`` reuses the last one simulated.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .schedules import Schedule
from .solution import _propagate, _solution, general_solution
from .xi import _WALK_ROWS

DEFAULT_BURN_IN = 500
CHUNK_TARGET = 20_000   # paths per chunk; bounds its scratch rows' width
SUB_BLOCK = 256         # paths per random stream; chunks hold whole blocks
DRAW_ROWS = 128         # time steps per draw call; bounds the draw buffer
# cap on the values an ensemble draws: paths rounded up to whole SUB_BLOCK
# blocks, since every block is drawn at full width, times the rows each
# block draws, 2 + length (normal) or at most burn_in + length (uniform)
MAX_PATH_STEPS = 10**8
# cap on burn_in, the CLI's MAX_DEPTH: both families walk their burn-in
# rows in Python, a normal ensemble once to find the law of its start
# state, a uniform one twice for the general solutions' weights on its draws
MAX_BURN_IN = 10**6
RESOLUTION = 2.0**-53   # float64's unit roundoff (see _uniform_start)
# the version of the stream contract above; any change to the simulated
# bits (and so to a pinned ensemble digest) must bump it
STREAM_VERSION = 6
# values the ensemble statistics reduce at a time, whole rows of at most
# this many (at least one row): bounds each of their temporaries.  2^14
# keeps them under glibc's mmap threshold but was slower in-process at
# 2000 and 5000 paths (one more slab per request outweighs the faults)
_SLAB_FLOATS = 1 << 15

# (config, weak reference to its ensemble) of the last simulate_paths call;
# the weak reference keeps no ensemble alive after its caller drops it
_last_ensemble = (None, None)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that determines an ensemble.

    Each path is the recursion run ``burn_in`` steps from zero initial
    conditions, then the final ``length`` values ending at ``t_end``, which
    are kept.  ``innovations`` is "normal" or "uniform" (scaled to unit
    variance either way, then by sigma_t).  ``_start`` says how the state
    after the burn-in is drawn.
    """

    schedule: Schedule
    n_paths: int
    t_end: int
    length: int
    seed: int
    burn_in: int = DEFAULT_BURN_IN
    innovations: str = "normal"
    workers: int = 1

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if not 0 <= self.burn_in <= MAX_BURN_IN:
            raise ValueError(f"burn_in must be in [0, {MAX_BURN_IN}] "
                             f"(got {self.burn_in})")
        if not -2**63 <= self.t_end - self.length + 1 <= self.t_end < 2**63:
            raise ValueError("t_end must keep the kept times t_end - length "
                             f"+ 1 .. t_end in int64 (got {self.t_end})")
        if not 0 <= self.seed < 2**63:
            raise ValueError(f"seed must be in [0, 2**63) (got {self.seed})")
        if self.innovations not in ("normal", "uniform"):
            raise ValueError(f"unknown innovation family {self.innovations!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # rows drawn per block: a normal block draws its start state from
        # two rows, a uniform one at most every burn-in step (K of them,
        # known only once the weights are built, so the cap counts all B)
        normal = self.innovations == "normal"
        steps = (2 if normal else self.burn_in) + self.length
        if -(-self.n_paths // SUB_BLOCK) * SUB_BLOCK * steps > MAX_PATH_STEPS:
            raise ValueError(f"n_paths, rounded up to a multiple of {SUB_BLOCK}"
                             f", times ({'2' if normal else 'burn_in'} + "
                             f"length) must be <= {MAX_PATH_STEPS}")


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated values: ``values[p, j]`` is path p at time ``times[j]``.

    ``simulate_paths`` stores the ensemble time-major, one C-contiguous row
    per time, the two start rows before the kept ones, and hands out
    ``values`` as the transpose of the view past the start rows: the
    (paths, times) array, F-contiguous, so ``at(t)`` is one contiguous row.
    Both arrays and the base of ``values`` are read-only."""

    times: np.ndarray
    values: np.ndarray

    @property
    def nonfinite_paths(self) -> int:
        """Number of paths holding an infinite or NaN value: an explosive
        schedule overflows its paths instead of raising."""
        return int(np.count_nonzero(~np.isfinite(self.values).all(axis=1)))

    def at(self, t: int) -> np.ndarray:
        """Cross-section of all paths at time t (contiguous in an ensemble
        from ``simulate_paths``)."""
        idx = int(t) - int(self.times[0])
        if not 0 <= idx < len(self.times):
            raise ValueError(f"t={t} not in simulated range "
                             f"[{self.times[0]}, {self.times[-1]}]")
        return self.values[:, idx]


@dataclass(frozen=True)
class EstimateWithSE:
    value: float
    se: float


@dataclass(frozen=True)
class EmpiricalMoments:
    anchor: int
    mean: EstimateWithSE
    variance: EstimateWithSE
    autocovariances: tuple[EstimateWithSE, ...] = field(default=())


def _start_law(burn: np.ndarray):
    """(m, L) of the state after the burn-in rows ``burn`` from zero, which
    ``_propagate`` reads as lists of _WALK_ROWS rows, never as one list: its
    mean and the lower Cholesky factor (L00, L10, L11) of its covariance,
    each diagonal entry's square clamped at 0, so a singular P (no or one
    burn-in step) gives no nan.  An overflowed P gives a non-finite L."""
    mean, cov = (0.0, 0.0), (0.0, 0.0, 0.0)
    for j in range(0, len(burn), _WALK_ROWS):
        mean, cov = _propagate(burn[j:j + _WALK_ROWS].tolist(), mean, cov)
    p00, p01, p11 = cov
    l00 = math.sqrt(p00) if not p00 < 0.0 else 0.0
    l10 = p01 / l00 if l00 else 0.0
    d = p11 - l10 * l10
    return mean, (l00, l10, math.sqrt(d) if not d < 0.0 else 0.0)


def _uniform_start(burn: np.ndarray):
    """(c, W) of the state x_B = (y_B, y_{B-1}) after the burn-in rows
    ``burn`` (oldest first) from zero, as a map of a block's raw uniform
    burn-in draws u, one row per step: x_B = c + W u.  By the general
    solution y_B = sum_i xi_{t_B,i} (phi0(t_B-i) + sigma eps), so the rows
    of W are the innovation weights w of the general solution of all B
    rows and of all but the newest, oldest first, with a 0 for time t_B
    in the second, times sigma and the map eps = u 2 sqrt(3) - sqrt(3):
    W = 2 sqrt(3) (w sigma) and c = drift - sqrt(3) sum(w sigma).

    On a stationary schedule the weights decay, so the oldest columns are
    dropped, their innovations set to their mean 0, while their summed
    |w sigma| stays at most RESOLUTION (2^-53) of each row's total
    (``_unresolved``): W keeps the K newest columns and c sums over them,
    and each block draws only K burn-in rows.  That moves x_B by at most
    2^-54 of the summed |W| per row, below the rounding of the sum itself,
    so the law is the same to float64 resolution.  Weights that do not
    decay that far within B (near-unit-root or explosive schedules), an
    overflowed weight (a non-finite (c, W)) and B <= 1 keep all B columns,
    the bits of stream contract version 5."""
    weights = np.zeros((2, len(burn)))
    *_, drift_now, weights[0, ::-1] = _solution(burn[::-1])
    *_, drift_before, weights[1, -2::-1] = _solution(burn[-2::-1])
    root3 = math.sqrt(3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        weights *= np.sqrt(burn[:, 3])
        weights = weights[:, _unresolved(weights):]
        c = np.array([drift_now, drift_before]) - root3 * weights.sum(axis=1)
        return c, (2.0 * root3) * weights


def _unresolved(weights: np.ndarray) -> int:
    """Number of oldest columns of the (2, B) weights whose summed |w| is
    at most RESOLUTION times its row's total in both rows; 0 if a total
    is not finite (a weight or the sum overflowed).  The running sums are sequential (``np.cumsum``, each
    one the previous plus one term), not numpy's SIMD-dispatched pairwise
    ``sum``, so the count is the same on every CPU."""
    if not weights.size:
        return 0
    running = np.abs(weights)
    np.cumsum(running, axis=1, out=running)
    totals = running[:, -1]
    if not np.isfinite(totals).all():
        return 0
    return int(min(np.searchsorted(row, RESOLUTION * total, side="right")
                   for row, total in zip(running, totals.tolist())))


def _start(config: SimulationConfig, t_b: int):
    """The ``start`` of ``_simulate_chunk`` after the burn_in rows ending at
    t_b: ``_start_law``'s (m, L) for normal innovations,
    ``_uniform_start``'s (c, W) for uniform ones.  On a tiled schedule
    the burn-in rows, and so the start, depend only on the family, burn_in
    and the season of t_b, so the start is kept in its season cache,
    read-only (``Schedule.season_cached``), and the rows are read only to
    compute it."""
    def compute():
        burn = config.schedule.window(t_b - config.burn_in + 1, t_b)
        if config.innovations == "normal":
            return _start_law(burn)
        c, weights = start = _uniform_start(burn)
        c.flags.writeable = weights.flags.writeable = False
        return start
    return config.schedule.season_cached((config.innovations, config.burn_in),
                                         t_b, compute)


def _simulate_chunk(config: SimulationConfig, first_path: int,
                    coeffs: np.ndarray, start, out: np.ndarray) -> None:
    """Simulate paths first_path .. first_path + out.shape[1] - 1 in place
    in the time-major ``out`` over the kept coefficient rows ``coeffs``:
    rows 0 and 1 take x_B, as y_{B-1} and y_B, and row j + 2 kept step j;
    first_path is a multiple of SUB_BLOCK.  ``start`` is the (m, L) of
    ``_start_law`` for normal innovations: each block draws z from its
    first two rows, and x_B = m + L z.  For uniform ones it is the (c, W)
    of ``_uniform_start``: each block draws its K kept burn-in rows
    DRAW_ROWS at a time and adds W times each slab of them to c with
    ``np.einsum``, not a BLAS product, whose kernel and so whose bits
    depend on the CPU; DRAW_ROWS splits that sum, so it sets the bits of a
    uniform start.  Each block then continues its stream DRAW_ROWS kept
    steps at a time, scaled by sigma straight into its columns of ``out``,
    and the recursion runs over those rows in place, so the kept steps'
    bits do not depend on DRAW_ROWS.  The scratch memory is the draw
    buffers of at most DRAW_ROWS x SUB_BLOCK values, two rows of the chunk
    and, for normal innovations, its z, whatever the burn-in."""
    n_paths = out.shape[1]
    length = len(coeffs)
    sigma = np.sqrt(coeffs[:, 3])[:, None]
    streams = [np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        [config.seed, (first_path + b) // SUB_BLOCK])))
        for b in range(0, n_paths, SUB_BLOCK)]
    uniform = config.innovations == "uniform"
    with np.errstate(over="ignore", invalid="ignore"):
        if uniform:
            c, weights = start
            burn = weights.shape[1]
            draws = np.empty((min(DRAW_ROWS, burn), SUB_BLOCK))
            x = np.empty((2, SUB_BLOCK))
            for b, rng in zip(range(0, n_paths, SUB_BLOCK), streams):
                x[:] = c[:, None]
                for j0 in range(0, burn, DRAW_ROWS):
                    u = draws[:min(DRAW_ROWS, burn - j0)]
                    rng.random(out=u)
                    # at the full block width, so no path's bits depend
                    # on where the ensemble ends
                    x += np.einsum("ik,kj->ij", weights[:, j0:j0 + len(u)],
                                   u, optimize=False)
                width = min(SUB_BLOCK, n_paths - b)
                out[1, b:b + width] = x[0, :width]     # y_B
                out[0, b:b + width] = x[1, :width]     # y_{B-1}
        else:
            (m0, m1), (l00, l10, l11) = start
            z = np.empty((len(streams), 2, SUB_BLOCK))
            for rng, rows in zip(streams, z):
                rng.standard_normal(out=rows)
            z0, z1 = (z[:, i].reshape(-1)[:n_paths] for i in (0, 1))
            out[1] = m0 + l00 * z0                     # y_B
            out[0] = (m1 + l10 * z0) + l11 * z1        # y_{B-1}
    block = np.empty((min(DRAW_ROWS, length), SUB_BLOCK))
    acc, tmp = np.empty((2, n_paths))
    root3 = math.sqrt(3.0)
    for j0 in range(0, length, DRAW_ROWS):
        n = min(DRAW_ROWS, length - j0)
        rows, scale = block[:n], sigma[j0:j0 + n]
        for b, rng in zip(range(0, n_paths, SUB_BLOCK), streams):
            # the block is drawn at full width even where the ensemble ends
            # inside it; each draw continues the block's stream
            if uniform:
                rng.random(out=rows)
                rows *= 2.0 * root3
                rows -= root3
            else:
                rng.standard_normal(out=rows)
            width = min(SUB_BLOCK, n_paths - b)
            np.multiply(rows[:, :width], scale,
                        out=out[j0 + 2:j0 + 2 + n, b:b + width])
        # ((phi0 + phi1*y1) + phi2*y2) + eps, operand order kept bit for bit;
        # a list of DRAW_ROWS coefficient rows, never of the whole window
        with np.errstate(over="ignore", invalid="ignore"):
            for j, (phi0, phi1, phi2, _) in enumerate(
                    coeffs[j0:j0 + n].tolist(), j0):
                np.multiply(phi1, out[j + 1], out=acc)
                np.add(phi0, acc, out=acc)
                np.multiply(phi2, out[j], out=tmp)
                np.add(acc, tmp, out=acc)
                np.add(acc, out[j + 2], out=out[j + 2])


def simulate_paths(config: SimulationConfig) -> PathEnsemble:
    """Generate the ensemble; bit-identical for a given config and seed,
    whatever ``workers`` and ``CHUNK_TARGET``.  Every call runs the kernel
    and returns a new ensemble."""
    global _last_ensemble
    t_b = config.t_end - config.length    # the burn-in's last time
    # the kept rows before the burn-in's, so that an error names the newest
    # bad time, as one window over both would
    coeffs = config.schedule.window(t_b + 1, config.t_end)
    start = _start(config, t_b)
    # two start rows, then one row per kept step
    time_major = np.empty((config.length + 2, config.n_paths))
    chunk = max(1, CHUNK_TARGET // SUB_BLOCK) * SUB_BLOCK
    for first in range(0, config.n_paths, chunk):
        _simulate_chunk(config, first, coeffs, start,
                        time_major[:, first:first + chunk])
    times = np.arange(config.t_end - config.length + 1, config.t_end + 1,
                      dtype=np.int64)
    # read-only before the view is taken, so neither the view nor its base
    # can be written
    time_major.flags.writeable = False
    times.flags.writeable = False
    ensemble = PathEnsemble(times, time_major[2:].T)
    _last_ensemble = (config, weakref.ref(ensemble))
    return ensemble


def _row_moments(rows: np.ndarray, variance: bool):
    """Each row's sample mean and its standard error s / sqrt(n), and if
    ``variance`` also its sample variance s^2 with the large-sample
    standard error sqrt(max(m4 - s^4, 0) / n); every se is inf and s^2 is 0
    for fewer than two values.  Each row of the C-contiguous ``rows`` is
    reduced on its own, pairwise, so it gets the bits of ``row.mean()``
    and ``row.var(ddof=1)``, its centered squares' sum over n - 1, whose
    root over sqrt(n) is the mean's se.  No BLAS call, whose kernel is
    picked by CPU, sets a bit.  m4 = mean(c^2 * c^2) is the central fourth
    moment, the squares squared again in place instead of raised to the
    power 4, which numpy evaluates through libm ``pow`` per element."""
    n = rows.shape[1]
    mean = rows.mean(axis=1)
    if n < 2:
        inf = np.full(len(rows), math.inf)
        return (mean, inf, np.zeros(len(rows)), inf) if variance else (mean, inf)
    centered = rows - mean[:, None]
    squares = np.square(centered, out=centered)
    s2 = squares.sum(axis=1) / (n - 1)
    se = np.sqrt(s2) / math.sqrt(n)
    if not variance:
        return mean, se
    m4 = np.square(squares, out=squares).mean(axis=1)
    return mean, se, s2, np.sqrt(np.maximum(m4 - s2 * s2, 0.0) / n)


def _sample_moments(sample: np.ndarray):
    """(mean, variance) of one sample, each with its standard error (see
    ``_row_moments``)."""
    mean, mean_se, s2, se = _row_moments(sample[None], True)
    return (EstimateWithSE(float(mean[0]), float(mean_se[0])),
            EstimateWithSE(float(s2[0]), float(se[0])))


def _frozen(values: np.ndarray) -> bool:
    """Whether nothing can write ``values``: it and every array it views
    are read-only, as for an ensemble from ``simulate_paths``."""
    while isinstance(values, np.ndarray):
        if values.flags.writeable:
            return False
        values = values.base
    return values is None


def _moment_table(values: np.ndarray, tables: dict, lag: int) -> np.ndarray:
    """Statistics of every kept row j of the ensemble ``values``, one
    read-only array kept in ``tables`` under ``lag`` and built the first
    time it is asked for: (mean, its se, variance, its se) for lag 0, and
    for a lag k >= 1 (autocovariance, its se) of row j with row j - k, nan
    for j < k, from lag 0's means.  The rows are reduced a slab at a time
    (see _SLAB_FLOATS) from ``values.T`` made C-contiguous: a view for an
    ensemble from ``simulate_paths``, a copy of the slab for a user-built
    one."""
    table = tables.get(lag)
    if table is not None:
        return table
    rows = values.shape[1]
    step = max(1, _SLAB_FLOATS // max(values.shape[0], 1))
    means = _moment_table(values, tables, 0)[0] if lag else None
    table = np.full((2 if lag else 4, rows), math.nan)
    for j0 in range(lag, rows, step):
        j1 = min(j0 + step, rows)
        slab = np.ascontiguousarray(values[:, j0:j1].T)
        if lag:
            slab = slab - means[j0:j1, None]
            slab *= (values[:, j0 - lag:j1 - lag].T
                     - means[j0 - lag:j1 - lag, None])
        table[:, j0:j1] = _row_moments(slab, not lag)
    table.flags.writeable = False
    # a thread may have built the same lag meanwhile; one is kept
    return tables.setdefault(lag, table)


def empirical_moments(ensemble: PathEnsemble, t: int,
                      max_lag: int = 0) -> EmpiricalMoments:
    """Cross-path sample mean, variance and autocovariances at anchor t,
    read from one statistics table per lag (see ``_moment_table``).  When
    nothing can write the ensemble's values, the tables cover every kept
    row and are kept with the ensemble, so the first call for a lag reduces
    every row once and later calls only index it; otherwise each call
    builds them afresh over the rows t - max_lag .. t alone."""
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    ensemble.at(t)                  # raises for an anchor outside the ensemble
    j = int(t) - int(ensemble.times[0])
    if max_lag > j:
        ensemble.at(t - (j + 1))    # raises: the first lag before the ensemble
    values = ensemble.values
    tables = vars(ensemble).get("_moment_tables")
    if tables is None:
        if _frozen(values):
            tables = vars(ensemble).setdefault("_moment_tables", {})
        else:
            values, tables, j = values[:, j - max_lag:j + 1], {}, max_lag
    # (value, se) pairs: the mean and the variance, then one a lag
    pairs = [EstimateWithSE(*pair) for k in range(max_lag + 1) for pair in
             _moment_table(values, tables, k)[:, j].reshape(-1, 2).tolist()]
    return EmpiricalMoments(int(t), pairs[0], pairs[1], tuple(pairs[2:]))


def empirical_forecast_error(config: SimulationConfig, t: int, k: int
                             ) -> tuple[EstimateWithSE, EstimateWithSE]:
    """Per-path k-step forecast errors at anchor t.

    Each path's realized y_t is compared with the analytic predictor built
    from that path's own (y_{t-k}, y_{t-k-1}).  Returns (error mean, error
    variance), each with a standard error; the variance estimates the
    forecast mean square error.  The ensemble is the one ``simulate_paths``
    last returned if its config equals ``config`` and it is still alive,
    and a fresh simulation otherwise; both give the same bits.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if config.n_paths < 100:
        raise ValueError("need at least 100 paths")
    needed = k + 2
    if config.t_end - config.length + 1 > t - k - 1 or t > config.t_end:
        raise ValueError(
            f"ensemble window must cover t-k-1..t; need length >= {needed}")
    recorded, ref = _last_ensemble
    ensemble = ref() if recorded == config else None
    if ensemble is None:
        ensemble = simulate_paths(config)
    sol = general_solution(config.schedule, t, k)
    predicted = (sol.drift + sol.w0 * ensemble.at(t - k)
                 + sol.w1 * ensemble.at(t - k - 1))
    errors = ensemble.at(t) - predicted
    return _sample_moments(errors)
