"""Monte Carlo path generation for time-varying AR(2) schedules.

Random stream contract, version ``STREAM_VERSION``: path p belongs to the
block b = p // SUB_BLOCK, and block b is one counter-based Philox stream
keyed by (master seed, b), drawn time-major at full block width.  A path's
values therefore depend on neither the ensemble size nor how paths are
chunked.  Chunks hold whole blocks.  Each block is drawn in one call (one
per DRAW_ROWS time steps on longer ensembles) and scaled by sigma into its
own columns of a time-major array; a chunk's blocks are shared out over
LANES threads, one per usable core, since numpy releases the interpreter
lock while it draws and multiplies.  The recursion then runs serially, in
place over whole time steps, so the bits depend on neither the number of
lanes nor ``workers``, which has no effect.  Statistics are collected at
fixed anchor times, never time-averaged: the moments are themselves
functions of time.

Ensembles are read-only.  The last one simulated is remembered by a weak
reference, so ``empirical_forecast_error`` on an equal config reuses it
while its caller still holds it, instead of simulating it again.
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .schedules import Schedule
from .solution import general_solution

DEFAULT_BURN_IN = 500
CHUNK_TARGET = 20_000   # paths per chunk; bounds the time-major scratch array
SUB_BLOCK = 256         # paths per random stream; chunks hold whole blocks
DRAW_ROWS = 4096        # time steps per draw call; bounds the block buffer
# lanes that draw a chunk's blocks at once: one per core this process may use
LANES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
# the version of the stream contract above; any change to the simulated
# bits (and so to a pinned ensemble digest) must bump it
STREAM_VERSION = 2

# (config, weak reference to its ensemble) of the last simulate_paths call;
# the weak reference keeps no ensemble alive after its caller drops it
_last_ensemble = (None, None)

# the thread pool of the lanes after the first, made by _lane_pool
_pool = None
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that determines an ensemble.

    Paths iterate the recursion from zero initial conditions, discard
    ``burn_in`` values and keep the final ``length`` values ending at
    ``t_end``.  ``innovations`` is "normal" or "uniform" (scaled to unit
    variance either way, then by sigma_t).
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
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.innovations not in ("normal", "uniform"):
            raise ValueError(f"unknown innovation family {self.innovations!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated values: ``values[p, j]`` is path p at time ``times[j]``.
    ``simulate_paths`` hands out both arrays read-only."""

    times: np.ndarray
    values: np.ndarray

    @property
    def nonfinite_paths(self) -> int:
        """Number of paths holding an infinite or NaN value: an explosive
        schedule overflows its paths instead of raising."""
        return int(np.count_nonzero(~np.isfinite(self.values).all(axis=1)))

    def at(self, t: int) -> np.ndarray:
        """Cross-section of all paths at time t."""
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


def _lane_pool():
    """The process-wide pool that draws blocks beside the calling thread,
    made on first use so that importing tvar2 starts no thread."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max(1, LANES - 1),
                                       thread_name_prefix="tvar2-draw")
        return _pool


def _forget_pool() -> None:
    # a forked child has none of the pool's threads; it makes its own
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _draw_lane(config: SimulationConfig, first_path: int, sigma: np.ndarray,
               y: np.ndarray, block: np.ndarray, lane: int, lanes: int) -> None:
    """Draw blocks lane, lane + lanes, ... of the chunk that starts at
    first_path through the buffer ``block``, and write each, scaled by
    sigma, into its own columns of ``y``."""
    n_paths = y.shape[1]
    total = len(sigma)
    root3 = math.sqrt(3.0)
    for b in range(lane * SUB_BLOCK, n_paths, lanes * SUB_BLOCK):
        rng = np.random.Generator(np.random.Philox(
            key=[config.seed, (first_path + b) // SUB_BLOCK]))
        width = min(SUB_BLOCK, n_paths - b)
        # the block is drawn at full width even where the ensemble ends
        # inside it; consecutive draws continue one stream
        for j in range(0, total, DRAW_ROWS):
            rows = block[:min(DRAW_ROWS, total - j)]
            if config.innovations == "uniform":
                rng.random(out=rows)
                rows *= 2.0 * root3
                rows -= root3
            else:
                rng.standard_normal(out=rows)
            np.multiply(rows[:, :width], sigma[j:j + len(rows)],
                        out=y[2 + j:2 + j + len(rows), b:b + width])


def _simulate_chunk(config: SimulationConfig, first_path: int,
                    coeffs: np.ndarray, out: np.ndarray) -> None:
    """Simulate paths first_path .. first_path + len(out) - 1 into ``out``,
    given the coefficient window ``coeffs`` of every simulated time;
    first_path is a multiple of SUB_BLOCK."""
    n_paths = len(out)
    total = config.burn_in + config.length
    sigma = np.sqrt(coeffs[:, 3])[:, None]
    # y[j + 2] holds step j; rows 0 and 1 are the zero initial conditions
    y = np.empty((total + 2, n_paths))
    y[:2] = 0.0
    # the calling thread draws lane 0 and the pool the others; every lane
    # writes only its own blocks' columns, so the bits do not depend on
    # the number of lanes
    lanes = min(LANES, -(-n_paths // SUB_BLOCK))
    blocks = [np.empty((min(DRAW_ROWS, total), SUB_BLOCK))
              for _ in range(lanes)]
    futures = [_lane_pool().submit(_draw_lane, config, first_path, sigma, y,
                                   blocks[lane], lane, lanes)
               for lane in range(1, lanes)]
    try:
        _draw_lane(config, first_path, sigma, y, blocks[0], 0, lanes)
    finally:
        for future in futures:
            future.result()
    # ((phi0 + phi1*y1) + phi2*y2) + eps, operand order kept bit for bit
    acc = np.empty(n_paths)
    tmp = np.empty(n_paths)
    with np.errstate(over="ignore", invalid="ignore"):
        # one DRAW_ROWS slice of rows at a time: a Python list of every
        # row would cost several times the window itself
        for j0 in range(0, total, DRAW_ROWS):
            rows = coeffs[j0:j0 + DRAW_ROWS].tolist()
            for j, (phi0, phi1, phi2, _) in enumerate(rows, j0):
                np.multiply(phi1, y[j + 1], out=acc)
                np.add(phi0, acc, out=acc)
                np.multiply(phi2, y[j], out=tmp)
                np.add(acc, tmp, out=acc)
                np.add(acc, y[j + 2], out=y[j + 2])
    out[:] = y[2 + config.burn_in:].T


def simulate_paths(config: SimulationConfig) -> PathEnsemble:
    """Generate the ensemble; bit-identical for a given config and seed,
    whatever ``workers`` and ``CHUNK_TARGET``.  Every call runs the kernel
    and returns a new ensemble."""
    global _last_ensemble
    total = config.burn_in + config.length
    t_first = config.t_end - total + 1
    coeffs = config.schedule.window(t_first, config.t_end)
    values = np.empty((config.n_paths, config.length))
    chunk = max(1, CHUNK_TARGET // SUB_BLOCK) * SUB_BLOCK
    for first in range(0, config.n_paths, chunk):
        _simulate_chunk(config, first, coeffs, values[first:first + chunk])
    times = np.arange(config.t_end - config.length + 1, config.t_end + 1)
    values.flags.writeable = False
    times.flags.writeable = False
    ensemble = PathEnsemble(times, values)
    _last_ensemble = (config, weakref.ref(ensemble))
    return ensemble


def _mean_se(sample: np.ndarray) -> EstimateWithSE:
    n = len(sample)
    se = float(sample.std(ddof=1) / math.sqrt(n)) if n >= 2 else math.inf
    return EstimateWithSE(float(sample.mean()), se)


def _variance_se(sample: np.ndarray) -> EstimateWithSE:
    """Sample variance with its large-sample standard error
    sqrt((m4 - s^4) / n), m4 the central fourth moment."""
    n = len(sample)
    if n < 2:
        return EstimateWithSE(0.0, math.inf)
    centered = sample - sample.mean()
    s2 = float(centered.dot(centered) / (n - 1))
    m4 = float(np.mean(centered ** 4))
    se = math.sqrt(max(m4 - s2 * s2, 0.0) / n)
    return EstimateWithSE(s2, se)


def empirical_moments(ensemble: PathEnsemble, t: int,
                      max_lag: int = 0) -> EmpiricalMoments:
    """Cross-path sample mean, variance and autocovariances at anchor t."""
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    anchor = ensemble.at(t)
    anchor_centered = anchor - anchor.mean()
    autocovs = []
    for k in range(1, max_lag + 1):
        lagged = ensemble.at(t - k)
        products = anchor_centered * (lagged - lagged.mean())
        autocovs.append(_mean_se(products))
    return EmpiricalMoments(int(t), _mean_se(anchor), _variance_se(anchor),
                            tuple(autocovs))


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
    return _mean_se(errors), _variance_se(errors)
