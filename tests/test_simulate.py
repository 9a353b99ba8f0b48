import dataclasses
import gc
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tvar2
import tvar2.simulate as sim
from tvar2 import (BreakSchedule, ConstantSchedule, CyclicalSchedule,
                   GenericSchedule, PeriodicSchedule, SimulationConfig,
                   autocovariance,
                   empirical_forecast_error,
                   empirical_moments, forecast, general_solution,
                   simulate_paths, unconditional_mean, unconditional_variance)

STABLE = ConstantSchedule(0.4, 1.2, -0.32, 1.0)
SEASONS = PeriodicSchedule([(0.2, 0.6, -0.1, 1.0), (0.0, -0.4, 0.2, 1.5),
                            (0.1, 0.8, -0.3, 0.8), (0.3, 0.1, 0.25, 1.2)])


def _config(**overrides):
    base = dict(schedule=STABLE, n_paths=4000, t_end=60, length=8,
                seed=20240817, burn_in=300)
    base.update(overrides)
    return SimulationConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="n_paths"):
        _config(n_paths=0)
    with pytest.raises(ValueError, match="burn_in"):
        _config(burn_in=-1)
    with pytest.raises(ValueError, match="innovation family"):
        _config(innovations="cauchy")


@pytest.mark.parametrize("n_paths, burn_in, length", [
    (1, 390_625, 1),      # one path draws a block of 256: 256 * 390 626
    (257, 195_312, 1),    # two blocks: 512 * 195 313
    (25_000, 4_000, 4),
])
def test_over_cap_ensemble_is_rejected(n_paths, burn_in, length):
    # a uniform block draws every burn-in step
    with pytest.raises(ValueError, match="paths"):
        _config(n_paths=n_paths, burn_in=burn_in, length=length,
                innovations="uniform")


@pytest.mark.parametrize("n_paths, burn_in, length", [
    (24_000, 500, 10), (25_000, 500, 4),   # the largest benchmark shapes
    (1, 390_624, 1), (256, 390_624, 1),    # 256 * 390 625 = MAX_PATH_STEPS
])
def test_ensemble_at_or_under_the_cap_is_accepted(n_paths, burn_in, length):
    assert _config(n_paths=n_paths, burn_in=burn_in, length=length,
                   innovations="uniform").n_paths == n_paths
    assert sim.MAX_PATH_STEPS == 10**8


@pytest.mark.parametrize("burn_in", [0, 500, 10**6])
def test_normal_cap_counts_two_start_rows_whatever_the_burn_in(burn_in):
    # a normal block draws 2 + length rows: 256 * (2 + 390 623) = the cap
    assert _config(n_paths=1, burn_in=burn_in, length=390_623).length
    with pytest.raises(ValueError, match=r"paths.*\(2 \+ length\)"):
        _config(n_paths=1, burn_in=burn_in, length=390_624)


@pytest.mark.parametrize("innovations", ["normal", "uniform"])
def test_burn_in_over_its_cap_is_rejected(innovations):
    assert sim.MAX_BURN_IN == 10**6
    with pytest.raises(ValueError, match="burn_in"):
        _config(n_paths=1, burn_in=sim.MAX_BURN_IN + 1, length=1,
                innovations=innovations)
    assert _config(n_paths=1, burn_in=sim.MAX_BURN_IN, length=1).burn_in


@pytest.mark.parametrize("seed", [-1, -2**63, 2**63, 2**64])
def test_seed_outside_the_key_range_is_rejected(seed):
    # the documented seed range of the CLI and the library: a seed outside
    # it is rejected rather than reduced onto one inside it
    with pytest.raises(ValueError, match="seed"):
        _config(seed=seed)
    assert _config(seed=2**63 - 1).seed == 2**63 - 1


@pytest.mark.parametrize("t_end", [10**20, 2**63, -2**63, -2**63 + 2])
def test_time_axis_outside_int64_is_rejected(t_end):
    with pytest.raises(ValueError, match="t_end"):
        _config(t_end=t_end, length=4)


@pytest.mark.parametrize("t_end", [2**63 - 1, -2**63 + 3])
def test_time_axis_at_the_int64_edge_runs(t_end):
    # the kept times reach the edge; the burn-in behind them may leave int64
    far = simulate_paths(_config(schedule=SEASONS, t_end=t_end, length=4,
                                 n_paths=300, burn_in=20))
    near_t = (t_end - 1) % SEASONS.period + 1 + 40
    near = simulate_paths(_config(schedule=SEASONS, t_end=near_t, length=4,
                                  n_paths=300, burn_in=20))
    assert far.times.dtype == np.int64
    assert far.times.tolist() == list(range(t_end - 3, t_end + 1))
    assert np.array_equal(far.values, near.values)


def test_same_seed_bit_identical():
    a = simulate_paths(_config(n_paths=500))
    b = simulate_paths(_config(n_paths=500))
    assert np.array_equal(a.values, b.values)


def test_different_seed_differs():
    a = simulate_paths(_config(n_paths=200))
    b = simulate_paths(_config(n_paths=200, seed=1))
    assert not np.array_equal(a.values, b.values)


def test_worker_count_does_not_change_results():
    # streams are keyed per block of SUB_BLOCK paths, not per worker:
    # workers is accepted but has no effect, whatever the chunking
    old = sim.CHUNK_TARGET
    sim.CHUNK_TARGET = 64
    try:
        one = simulate_paths(_config(n_paths=500, workers=1))
        eight = simulate_paths(_config(n_paths=500, workers=8))
    finally:
        sim.CHUNK_TARGET = old
    assert np.array_equal(one.values, eight.values)


def _blocks(config):
    """One Generator(SFC64(SeedSequence([seed, b]))) per block b of
    SUB_BLOCK paths."""
    return [np.random.Generator(np.random.SFC64(
        np.random.SeedSequence([config.seed, b])))
        for b in range(-(-config.n_paths // sim.SUB_BLOCK))]


def _burn_in_weights(config):
    """The (2, B) innovation weights w of general_solution at (t_B, B) and
    (t_B - 1, B - 1), oldest first (0 for time t_B in the second), times
    sigma, and the two drifts: the whole burn-in's map, as in version 5."""
    t_b, n_burn = config.t_end - config.length, config.burn_in
    now = general_solution(config.schedule, t_b, n_burn)
    before = general_solution(config.schedule, t_b - 1, max(n_burn - 1, 0))
    burn_sigma = np.sqrt([config.schedule.at(t).sigma2
                          for t in range(t_b - n_burn + 1, t_b + 1)])
    # [:n_burn]: at B = 0 there is no time t_B to give a 0
    w = np.array([now.innovation_weights[::-1] * burn_sigma,
                  np.append(before.innovation_weights[::-1], 0.0)[:n_burn]
                  * burn_sigma]).reshape(2, n_burn)
    return w, (now.drift, before.drift)


def _kept_burn_in(w):
    """K: the burn-in columns left after dropping the oldest ones while
    their |w|, summed one at a time from the oldest, stays at most 2^-53
    times the row's total (the same running sum's last value) in both
    rows; all of them when a total is not finite."""
    dropped = w.shape[1]
    for row in w.tolist():
        running, sums = 0.0, []
        for v in row:
            running += abs(v)
            sums.append(running)
        if not math.isfinite(running):
            return w.shape[1]
        dropped = min(dropped, sum(s <= 2.0**-53 * running for s in sums))
    return w.shape[1] - dropped


def _reference_paths(config):
    """The stream contract (version 6), spelled out: each block's stream is
    drawn as one full-width time-major array, first the rows that make the
    start x_B = (y_B, y_{B-1}), then the kept rows; each path runs the
    path-major recursion ((phi0 + phi1*y1) + phi2*y2) + sigma*eps over its
    kept steps only.  Normal blocks draw two rows z and start from
    x_B = m + L z: the burn-in state's mean and clamped Cholesky factor,
    propagated step by step from m = 0, P = 0.  Uniform blocks draw only
    the K newest burn-in rows u and start from the general solution's sum
    over them: with w the burn-in weights times sigma and K from
    _kept_burn_in, the older innovations sit at their mean 0, and
    x_B = c + W u, W = 2 sqrt(3) w[:, B-K:] and
    c = drift - sqrt(3) sum(w[:, B-K:]), W u summed as one einsum per slab
    of DRAW_ROWS rows at full block width.  Kept uniform draws map u to
    u * 2 sqrt(3) - sqrt(3)."""
    t_b = config.t_end - config.length
    times = range(t_b - config.burn_in + 1, config.t_end + 1)
    tuples = [config.schedule.at(t) for t in times]
    burn, tuples = tuples[:config.burn_in], tuples[config.burn_in:]
    normal = config.innovations == "normal"
    m0 = m1 = p00 = p01 = p11 = 0.0
    if normal:
        for tup in burn:
            a = tup.phi1 * p00 + tup.phi2 * p01
            b = tup.phi1 * p01 + tup.phi2 * p11
            p00, p01, p11 = (a * tup.phi1 + b * tup.phi2) + tup.sigma2, a, p00
            m0, m1 = (tup.phi0 + tup.phi1 * m0) + tup.phi2 * m1, m0
    l00 = math.sqrt(max(p00, 0.0))
    l10 = p01 / l00 if l00 else 0.0
    l11 = math.sqrt(max(p11 - l10 * l10, 0.0))
    root3 = math.sqrt(3.0)
    if not normal:
        w, drifts = _burn_in_weights(config)
        n_kept = _kept_burn_in(w)
        w = w[:, config.burn_in - n_kept:]
        c = [drifts[0] - root3 * w[0].sum(), drifts[1] - root3 * w[1].sum()]
        weights = (2.0 * root3) * w
    sigma = np.sqrt(np.array([tup.sigma2 for tup in tuples]))
    coeffs = np.array([(tup.phi0, tup.phi1, tup.phi2) for tup in tuples])
    blocks, starts = [], []
    for rng in _blocks(config):
        if normal:
            z0, z1 = rng.standard_normal((2, sim.SUB_BLOCK))
            starts.append(((m1 + l10 * z0) + l11 * z1, m0 + l00 * z0))
            draw = rng.standard_normal((len(tuples), sim.SUB_BLOCK))
        else:
            u = rng.random((n_kept, sim.SUB_BLOCK))
            x = np.array([np.full(sim.SUB_BLOCK, c[0]),
                          np.full(sim.SUB_BLOCK, c[1])])
            for j0 in range(0, n_kept, sim.DRAW_ROWS):
                j1 = j0 + sim.DRAW_ROWS
                x += np.einsum("ik,kj->ij", weights[:, j0:j1], u[j0:j1],
                               optimize=False)
            starts.append((x[1], x[0]))
            draw = rng.random((len(tuples), sim.SUB_BLOCK)) * (2.0 * root3) - root3
        blocks.append(draw)
    eps = np.hstack(blocks)[:, :config.n_paths].T * sigma
    y_prev2, y_prev = np.hstack(starts)[:, :config.n_paths]
    out = np.empty((config.n_paths, config.length))
    for j in range(len(tuples)):
        phi0, phi1, phi2 = coeffs[j]
        y = phi0 + phi1 * y_prev + phi2 * y_prev2 + eps[:, j]
        y_prev2, y_prev = y_prev, y
        out[:, j] = y
    return out


def _drawn_burn_in_paths(config):
    """Uniform paths run from zero through every burn-in step and kept
    step of the plain per-path float recursion, from the same draws: the
    B - K oldest burn-in innovations at their mean 0, the K newest and the
    kept ones drawn."""
    rows = config.schedule.window(
        config.t_end - config.length - config.burn_in + 1, config.t_end)
    n_drawn = _kept_burn_in(_burn_in_weights(config)[0]) + config.length
    root3 = math.sqrt(3.0)
    draws = np.hstack([rng.random((n_drawn, sim.SUB_BLOCK))
                       for rng in _blocks(config)])[:, :config.n_paths]
    eps = np.zeros((len(rows), config.n_paths))
    eps[len(rows) - n_drawn:] = ((draws * (2.0 * root3) - root3)
                                 * np.sqrt(rows[len(rows) - n_drawn:, 3:]))
    y_prev = y_prev2 = np.zeros(config.n_paths)
    values = []
    for (phi0, phi1, phi2, _), e in zip(rows.tolist(), eps):
        y_prev2, y_prev = y_prev, phi0 + phi1 * y_prev + phi2 * y_prev2 + e
        values.append(y_prev)
    return np.array(values[-config.length:]).T


@pytest.mark.parametrize("innovations", ["normal", "uniform"])
def test_kernel_matches_per_path_reference(monkeypatch, innovations):
    # 700 paths; CHUNK_TARGET 300 holds one block, so the chunks are 256,
    # 256 and 188 paths and the ensemble ends inside its last block
    monkeypatch.setattr(sim, "CHUNK_TARGET", 300)
    cfg = _config(schedule=SEASONS, n_paths=700, t_end=64, burn_in=60,
                  innovations=innovations)
    assert cfg.n_paths % sim.SUB_BLOCK != 0
    ens = simulate_paths(cfg)
    assert np.array_equal(ens.values, _reference_paths(cfg))
    # stored time-major: values is the F-contiguous transpose, and each
    # cross-section one contiguous row
    assert ens.values.shape == (700, 8)
    assert ens.values.flags.f_contiguous
    assert all(ens.at(t).flags.c_contiguous for t in ens.times.tolist())


# (burn_in, length) against slabs of 8 steps: no burn-in, a burn-in ending
# one step before, at and one step after a slab edge, a total shorter than
# one slab, a total of two whole slabs and a kept window over several slabs
SLAB_SHAPES = [(0, 20), (7, 5), (8, 5), (9, 5), (2, 3), (8, 8), (5, 30)]


@pytest.mark.parametrize("burn_in, length", SLAB_SHAPES)
@pytest.mark.parametrize("target", [64, 300, 1000])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("innovations", ["normal", "uniform"])
def test_slab_edges_match_per_path_reference(monkeypatch, innovations, workers,
                                             target, burn_in, length):
    # 700 paths: CHUNK_TARGET 64 and 300 give chunks of one block, 1000
    # chunks of three; workers is a no-op, so every count gives the
    # reference bits
    monkeypatch.setattr(sim, "DRAW_ROWS", 8)
    monkeypatch.setattr(sim, "CHUNK_TARGET", target)
    cfg = _config(schedule=SEASONS, n_paths=700, t_end=64, burn_in=burn_in,
                  length=length, innovations=innovations, workers=workers)
    assert np.array_equal(simulate_paths(cfg).values, _reference_paths(cfg))


NEAR_UNIT_ROOT = ConstantSchedule(0.01, 1.0, -0.02, 1.0)   # roots 0.98, 0.02
CYCLES = CyclicalSchedule(6, [2, 4], [(0.0, 0.5, -0.2, 1.0),
                                      (0.0, -0.3, 0.4, 1.0),
                                      (0.0, 0.8, -0.1, 1.0)])


@pytest.mark.parametrize("burn_in", [1, 130, 500])
@pytest.mark.parametrize("schedule", [SEASONS, NEAR_UNIT_ROOT, CYCLES],
                         ids=["periodic", "near-unit-root", "cyclical"])
def test_uniform_start_has_the_law_of_a_drawn_burn_in(schedule, burn_in):
    # the weighted sum of the K newest burn-in draws is the recursion run
    # through them from the older steps' mean path, up to rounding: the
    # same draws give the same paths
    cfg = _config(schedule=schedule, n_paths=700, t_end=700, length=10,
                  burn_in=burn_in, innovations="uniform")
    got = simulate_paths(cfg).values
    plain = _drawn_burn_in_paths(cfg)
    assert np.all(np.abs(got - plain) <= 1e-12 * np.maximum(np.abs(plain), 1))


EXPLOSIVE = ConstantSchedule(0.0, 1.5, -0.02, 1.0)
# the periodic schedule read time by time, through no season table
SEASONS_GENERIC = GenericSchedule(SEASONS.at)


@pytest.mark.parametrize("burn_in", [0, 1, 500])
@pytest.mark.parametrize("schedule", [SEASONS, CYCLES, NEAR_UNIT_ROOT,
                                      EXPLOSIVE, SEASONS_GENERIC],
                         ids=["periodic", "cyclical", "near-unit-root",
                              "explosive-1.5", "generic-periodic"])
def test_dropped_burn_in_moves_the_start_below_float64_resolution(schedule,
                                                                  burn_in):
    # one full draw of the B burn-in rows u: x_B by the map over the K
    # newest rows and by the full map over all B differ by the dropped
    # noise, at most 1/2 sum_dropped |W_ij| <= 2^-54 sum_j |W_ij| in each
    # row, plus the rounding of the sums
    cfg = _config(schedule=schedule, t_end=710, length=10, burn_in=burn_in,
                  innovations="uniform")
    t_b = cfg.t_end - cfg.length
    w, drifts = _burn_in_weights(cfg)
    c, weights = sim._uniform_start(schedule.window(t_b - burn_in + 1, t_b))
    n_kept = weights.shape[1]
    assert n_kept == _kept_burn_in(w)
    root3 = math.sqrt(3.0)
    full = (2.0 * root3) * w
    c_full = np.array([drifts[0] - root3 * w[0].sum(),
                       drifts[1] - root3 * w[1].sum()])
    if schedule in (NEAR_UNIT_ROOT, EXPLOSIVE) or burn_in <= 1:
        # nothing is dropped: the map of the whole burn-in, bit for bit
        assert n_kept == burn_in
        assert np.array_equal(weights, full) and np.array_equal(c, c_full)
    else:
        assert n_kept < burn_in // 4
    if schedule is SEASONS_GENERIC:
        assert n_kept == sim._uniform_start(
            SEASONS.window(t_b - burn_in + 1, t_b))[1].shape[1]
    totals = [math.fsum(abs(v) for v in row) for row in full.tolist()]
    for row, total in zip(full[:, :burn_in - n_kept].tolist(), totals):
        assert 0.5 * math.fsum(map(abs, row)) <= 2.0**-54 * total * (1 + 1e-12)
    u = np.random.default_rng(burn_in).random((burn_in, sim.SUB_BLOCK))
    kept = c[:, None] + np.einsum("ik,kj->ij", weights, u[burn_in - n_kept:],
                                  optimize=False)
    whole = c_full[:, None] + np.einsum("ik,kj->ij", full, u, optimize=False)
    totals = np.array(totals)[:, None]
    rounding = 2 * (burn_in + 4) * 2.0**-53 * (np.abs(drifts)[:, None] + totals)
    assert np.all(np.abs(kept - whole) <= 2.0**-54 * totals + rounding)


@pytest.mark.parametrize("n_paths, target, draw_rows", [
    (1, 20_000, 128), (300, 20_000, 7), (700, 64, 7), (700, 300, 128)])
def test_kept_burn_in_rows_depend_on_no_ensemble_setting(
        monkeypatch, n_paths, target, draw_rows):
    # K is a property of the schedule and the burn-in window alone: each
    # block's bit generator ends where a fresh one drawing K + length
    # rows ends, whatever the paths, the chunking and the draw calls
    monkeypatch.setattr(sim, "CHUNK_TARGET", target)
    monkeypatch.setattr(sim, "DRAW_ROWS", draw_rows)
    made, real = [], np.random.SFC64
    monkeypatch.setattr(np.random, "SFC64",
                        lambda seed: made.append((seed, real(seed)))
                        or made[-1][1])
    cfg = _config(schedule=SEASONS, n_paths=n_paths, burn_in=500,
                  innovations="uniform")
    simulate_paths(cfg)
    n_kept = _kept_burn_in(_burn_in_weights(cfg)[0])
    assert n_kept < cfg.burn_in // 4
    assert len(made) == -(-n_paths // sim.SUB_BLOCK)
    for seed, bit_generator in made:
        fresh = np.random.Generator(real(np.random.SeedSequence(
            seed.entropy)))
        fresh.random((n_kept + cfg.length, sim.SUB_BLOCK))
        assert np.array_equal(bit_generator.random_raw(8),
                              fresh.bit_generator.random_raw(8))


def test_dropped_columns_follow_the_sequential_running_sum():
    # the kernel's count of dropped columns is the one-term-at-a-time rule
    # of _kept_burn_in on decaying, flat, zero, tied and non-finite rows
    rng = np.random.default_rng(5)
    cases = [np.zeros((2, 0)), np.zeros((2, 1)), np.ones((2, 7)),
             np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
             # the first column's |w| is exactly 2^-53 of the total
             np.array([[1.0, 2.0**53 - 1.0], [1.0, 2.0**53 - 1.0]]),
             np.array([[1.0, 2.0**53 - 2.0], [1.0, 2.0**53 - 2.0]])]
    for _ in range(200):
        n = int(rng.integers(1, 400))
        ratios = rng.uniform(0.5, 1.0, size=(2, 1))
        cases.append(rng.normal(size=(2, n)) * ratios ** np.arange(n)[::-1])
    for inf in (math.inf, math.nan):
        bad = rng.normal(size=(2, 50)) * 0.5 ** np.arange(50)[::-1]
        bad[1, 3] = inf
        cases.append(bad)
    dropped = [sim._unresolved(w) for w in cases]
    assert dropped == [w.shape[1] - _kept_burn_in(w) for w in cases]
    assert dropped[4:6] == [1, 0]
    assert dropped[-2:] == [0, 0]


def test_uniform_start_without_burn_in_is_a_zero_start():
    c, weights = sim._uniform_start(SEASONS.window(41, 40))
    assert c.tolist() == [0.0, 0.0]
    assert weights.shape == (2, 0)
    cfg = _config(schedule=SEASONS, n_paths=300, burn_in=0,
                  innovations="uniform")
    assert np.array_equal(simulate_paths(cfg).values, _drawn_burn_in_paths(cfg))


def test_uniform_start_after_one_step_is_rank_one():
    # y_B = phi0 + sigma eps and y_{B-1} = 0: W = [[2 sqrt(3) sigma], [0]]
    row = SEASONS.window(3, 3)
    c, weights = sim._uniform_start(row)
    sigma, root3 = math.sqrt(row[0, 3]), math.sqrt(3.0)
    assert c.tolist() == [row[0, 0] - root3 * sigma, 0.0]
    assert weights.tolist() == [[2.0 * root3 * sigma], [0.0]]
    ens = simulate_paths(_config(schedule=SEASONS, n_paths=300, burn_in=1,
                                 innovations="uniform"))
    assert ens.nonfinite_paths == 0


@pytest.mark.parametrize("schedule", [STABLE, SEASONS], ids=["constant",
                                                               "periodic"])
@pytest.mark.parametrize("burn_in", [1, 2, 3, 50, 300])
def test_start_law_is_the_zero_start_forecast(schedule, burn_in):
    # x_B after B steps from zero is the B-step forecast from (0, 0): its
    # mean is the point, and P_B[0, 0] the mean square error, sum of
    # xi^2 sigma2 over the Green functions
    t = 57
    (m0, m1), (p00, p01, p11) = sim._propagate(
        schedule.window(t - burn_in + 1, t))
    now = forecast(schedule, t, burn_in, (0.0, 0.0))
    assert m0 == pytest.approx(now.point, rel=1e-13)
    assert p00 == pytest.approx(now.mse, rel=1e-13)
    if burn_in >= 2:
        before = forecast(schedule, t - 1, burn_in - 1, (0.0, 0.0))
        assert m1 == pytest.approx(before.point, rel=1e-13)
        assert p11 == pytest.approx(before.mse, rel=1e-13)


def test_start_law_near_the_unit_root_is_the_stationary_variance():
    # roots 0.980 and 0.020: the zero start is forgotten as 0.980^(2B),
    # 1.1e-9 of the variance at B = 500 and 2e-18 at B = 1000
    near = ConstantSchedule(0.01, 1.0, -0.02, 1.0)
    var = unconditional_variance(near, 1000).variance
    for burn_in, rel in ((500, 2e-9), (1000, 1e-11)):
        _, (p00, _, _) = sim._propagate(near.window(1001 - burn_in, 1000))
        assert p00 == pytest.approx(var, rel=rel)


def test_start_law_without_burn_in_is_a_zero_start():
    assert sim._start_law(SEASONS.window(1, 0)) == ((0.0, 0.0),
                                                    (0.0, 0.0, 0.0))


def test_start_law_after_one_step_is_rank_one():
    # P_1 = diag(sigma2, 0): the factor's lower-right entry is 0, not nan
    row = SEASONS.window(3, 3)
    (m0, m1), (l00, l10, l11) = sim._start_law(row)
    assert (m0, m1) == (row[0, 0], 0.0)
    assert (l00, l10, l11) == (math.sqrt(row[0, 3]), 0.0, 0.0)
    ens = simulate_paths(_config(schedule=SEASONS, n_paths=300, burn_in=1))
    assert ens.nonfinite_paths == 0


@pytest.mark.parametrize("phi1, phi2", [(2.5, 0.3), (3.0, -1.5)],
                         ids=["P-overflows-to-inf", "P-overflows-to-nan"])
def test_overflowed_start_law_flags_every_path(phi1, phi2):
    explosive = ConstantSchedule(0.0, phi1, phi2, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        law = sim._start_law(explosive.window(1, 900))
        ensemble = simulate_paths(SimulationConfig(explosive, 300, 1000, 3,
                                                   seed=1, burn_in=900))
    assert not all(map(math.isfinite, law[1]))
    assert ensemble.nonfinite_paths == 300


@pytest.mark.parametrize("phi1, phi2", [(2.5, 0.3), (3.0, -1.5)],
                         ids=["weights-overflow-to-inf",
                              "weights-overflow-to-nan"])
def test_overflowed_uniform_start_flags_every_path(phi1, phi2):
    explosive = ConstantSchedule(0.0, phi1, phi2, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, weights = sim._uniform_start(explosive.window(1, 900))
        ensemble = simulate_paths(SimulationConfig(
            explosive, 300, 903, 3, seed=1, burn_in=900,
            innovations="uniform"))
    assert not np.isfinite(weights).all()
    assert ensemble.nonfinite_paths == 300


@pytest.mark.parametrize("burn_in", [0, 1, 50, 1000])
@pytest.mark.parametrize("innovations", ["normal", "uniform"])
def test_block_draws_two_start_rows_or_its_burn_in(monkeypatch, innovations,
                                                   burn_in):
    # each block's bit generator ends where a fresh one ends after drawing
    # 2 + length rows (normal) or K + length rows (uniform), K the burn-in
    # rows whose weights reach float64 resolution: both go on to give the
    # same raw words
    made, real = [], np.random.SFC64
    monkeypatch.setattr(np.random, "SFC64",
                        lambda seed: made.append((seed, real(seed)))
                        or made[-1][1])
    cfg = _config(schedule=SEASONS, n_paths=300, burn_in=burn_in, length=8,
                  innovations=innovations)
    simulate_paths(cfg)
    assert [seed.entropy for seed, _ in made] == [[cfg.seed, 0],
                                                  [cfg.seed, 1]]
    for seed, bit_generator in made:
        fresh = np.random.Generator(real(np.random.SeedSequence(
            seed.entropy)))
        if innovations == "normal":
            fresh.standard_normal((2 + cfg.length, sim.SUB_BLOCK))
        else:
            n_kept = _kept_burn_in(_burn_in_weights(cfg)[0])
            # the weights decay: past B = 1, fewer rows than B are drawn
            assert n_kept == burn_in if burn_in <= 1 else n_kept < burn_in
            fresh.random((n_kept + cfg.length, sim.SUB_BLOCK))
        assert np.array_equal(bit_generator.random_raw(8),
                              fresh.bit_generator.random_raw(8))


# sha256 of the float64 bytes: normal recorded with stream contract
# version 4 (its bits are the same under versions 5 and 6), uniform with
# version 6 (its 50 burn-in steps keep 47 drawn rows)
PINNED_DIGESTS = {
    "normal":
        "4f47818f31f99460674cf1a97ae6bd4bbfe9712b0f31ff608a2d5b5c2d3236dd",
    "uniform":
        "71dbca7164bf8598af0970a2d78dbc0dc4febe856c14a4c12062760821ec220b",
}
# the uniform ensemble PINNED_DIGESTS pins, in the words of a child process
_PINNED_UNIFORM = (
    "import hashlib, tvar2\n"
    "seasons = tvar2.PeriodicSchedule([(0.2, 0.6, -0.1, 1.0),\n"
    "    (0.0, -0.4, 0.2, 1.5), (0.1, 0.8, -0.3, 0.8), (0.3, 0.1, 0.25, 1.2)])\n"
    "cfg = tvar2.SimulationConfig(seasons, 300, 64, 8, seed=20240817,\n"
    "                             burn_in=50, innovations='uniform')\n"
    "print(hashlib.sha256(tvar2.simulate_paths(cfg).values.tobytes())\n"
    "      .hexdigest())\n")


@pytest.mark.parametrize("innovations", ["normal", "uniform"])
def test_ensemble_digest_is_pinned(innovations):
    cfg = _config(schedule=SEASONS, n_paths=300, t_end=64, burn_in=50,
                  innovations=innovations)
    values = simulate_paths(cfg).values
    assert (hashlib.sha256(values.tobytes()).hexdigest()
            == PINNED_DIGESTS[innovations])


@pytest.mark.parametrize("env", [
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OPENBLAS_CORETYPE": "Nehalem"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
], ids=["one-blas-thread", "nehalem-blas", "baseline-simd"])
def test_uniform_digest_holds_across_blas_and_cpu_features(env):
    # the uniform start sums by einsum, not BLAS, whose kernel (picked by
    # CPU) and thread count could change the bits
    done = _run_python(_PINNED_UNIFORM, env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == PINNED_DIGESTS["uniform"]


# one digest line each for the statistics of two normal periodic ensembles,
# the CSV of a 25 000-path `simulate --aggregate`, par24_restriction on
# seeded random four-season schedules and the `stationarity --matrices` CSV
# of a seeded nine-season schedule
_KERNEL_FREE = r"""
import hashlib, os, tempfile
import numpy as np, tvar2, tvar2.cli
seasons = tvar2.PeriodicSchedule([(0.2, 0.6, -0.1, 1.0),
    (0.0, -0.4, 0.2, 1.5), (0.1, 0.8, -0.3, 0.8), (0.3, 0.1, 0.25, 1.2)])
stats = hashlib.sha256()
for n_paths in (2000, 24_000):
    cfg = tvar2.SimulationConfig(seasons, n_paths, t_end=510, length=10,
                                 seed=n_paths)
    ensemble = tvar2.simulate_paths(cfg)
    estimates = [e for j, t in enumerate(ensemble.times.tolist())
                 for m in [tvar2.empirical_moments(ensemble, t, min(2, j))]
                 for e in (m.mean, m.variance, *m.autocovariances)]
    for k in (1, 2, 5):
        estimates += tvar2.empirical_forecast_error(cfg, 510, k)
    for e in estimates:
        stats.update(f"{e.value.hex()} {e.se.hex()}\n".encode())
print(stats.hexdigest())
with tempfile.TemporaryDirectory() as work:
    config, out = os.path.join(work, "cyclical.yaml"), os.path.join(work, "out.csv")
    with open(config, "w") as f:
        f.write("schema_version: 1\nschedule:\n  kind: cyclical\n  period: 6\n"
                "  boundaries: [2, 4]\n  cycles:\n"
                "    - {phi0: 0.0, phi1: 0.5, phi2: -0.2, sigma2: 1.0}\n"
                "    - {phi0: 0.0, phi1: -0.3, phi2: 0.4, sigma2: 1.0}\n"
                "    - {phi0: 0.0, phi1: 0.8, phi2: -0.1, sigma2: 1.0}\n")
    assert tvar2.cli.main(["simulate", "--config", config, "--t", "51234",
                           "--paths", "25000", "--length", "4", "--seed", "11",
                           "--aggregate", "--out", out]) == 0
    with open(out, "rb") as f:
        print(hashlib.sha256(f.read()).hexdigest())
    seasons = np.random.default_rng(3).uniform(-0.9, 0.9, (9, 3)).tolist()
    with open(config, "w") as f:
        f.write("schema_version: 1\nschedule:\n  kind: periodic\n  seasons:\n"
                + "".join(f"    - {{phi0: {a!r}, phi1: {b!r}, phi2: {c!r}, "
                          "sigma2: 1.0}\n" for a, b, c in seasons))
    assert tvar2.cli.main(["stationarity", "--config", config, "--matrices",
                           "--out", out]) == 0
    with open(out, "rb") as f:
        stationarity = hashlib.sha256(f.read()).hexdigest()
restriction = hashlib.sha256()
rng = np.random.default_rng(30)
for _ in range(400):
    phi = rng.uniform(-1.5, 1.5, (4, 2)).tolist()
    value, ok = tvar2.par24_restriction(
        tvar2.PeriodicSchedule([(0.0, a, b, 1.0) for a, b in phi]))
    restriction.update(f"{value.hex()} {ok}\n".encode())
print(restriction.hexdigest())
print(stationarity)
"""


@pytest.fixture(scope="module")
def kernel_free_digests():
    done = _run_python(_KERNEL_FREE)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize("env", [
    {"OPENBLAS_CORETYPE": "Nehalem"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
], ids=["nehalem-blas", "baseline-simd"])
def test_statistics_and_restriction_hold_across_blas_and_cpu_features(
        env, kernel_free_digests):
    # s^2 is a pairwise sum and the period matrix is multiplied out in
    # Python floats, so no BLAS kernel, picked by CPU, sets a bit
    done = _run_python(_KERNEL_FREE, env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == kernel_free_digests


def test_path_prefix_stability():
    # the first paths of a larger ensemble equal the smaller ensemble
    small = simulate_paths(_config(n_paths=100))
    large = simulate_paths(_config(n_paths=300))
    assert np.array_equal(large.values[:100], small.values)


@pytest.mark.parametrize("n_paths", [255, 256, 257])
def test_path_prefix_stability_at_block_edges(n_paths):
    # blocks are drawn at full width, so an ensemble ending inside, at or
    # just past a block edge holds the first paths of a larger one
    small = simulate_paths(_config(n_paths=n_paths, burn_in=40))
    large = simulate_paths(_config(n_paths=600, burn_in=40))
    assert np.array_equal(large.values[:n_paths], small.values)


@pytest.mark.parametrize("target", [100, 1000])
def test_chunk_boundaries_cut_no_block(monkeypatch, target):
    # CHUNK_TARGET 100 gives chunks of one block, 1000 of three; the
    # default holds the whole ensemble in one chunk
    cfg = _config(n_paths=1300, burn_in=40)
    default = simulate_paths(cfg).values
    monkeypatch.setattr(sim, "CHUNK_TARGET", target)
    assert np.array_equal(simulate_paths(cfg).values, default)


def test_concurrent_callers_get_the_same_bits():
    # more callers than cores; a short switch interval interleaves them often.
    # Six simulate; three more read the statistics of one shared ensemble,
    # whose row tables they race to build
    cfg = _config(n_paths=1300, burn_in=40)
    expected = simulate_paths(cfg).values
    shared = simulate_paths(cfg)
    moments = [_moment_bits(_reference_moments(shared, t, j))
               for j, t in enumerate(shared.times.tolist())]

    def read_moments():
        return [_moment_bits(empirical_moments(shared, t, j))
                for j, t in enumerate(shared.times.tolist())] == moments

    same = []
    callers = [threading.Thread(target=lambda: same.append(np.array_equal(
        simulate_paths(cfg).values, expected))) for _ in range(6)]
    callers += [threading.Thread(target=lambda: same.append(read_moments()))
                for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert same == [True] * 9


def test_no_draw_thread_outlives_the_call(monkeypatch):
    # simulate_paths starts no thread: six blocks over two chunks are all
    # drawn on the calling thread
    monkeypatch.setattr(sim, "CHUNK_TARGET", 1000)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread.name)
                        or start(thread))
    before = set(threading.enumerate())
    simulate_paths(_config(n_paths=1300, burn_in=40))
    assert started == []
    assert set(threading.enumerate()) == before
    assert not [thread.name for thread in threading.enumerate()
                if thread.name.startswith("tvar2-draw")]


def _run_python(code, env=None):
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": str(Path(tvar2.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)


def test_import_starts_no_thread_pool():
    done = _run_python(
        "import sys, threading, tvar2\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert threading.active_count() == 1\n"
        "schedule = tvar2.ConstantSchedule(0.4, 1.2, -0.32, 1.0)\n"
        "tvar2.simulate_paths(tvar2.SimulationConfig(schedule, 600, 60, 8,\n"
        "                                            seed=1))\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert threading.active_count() == 1\n")
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_draws_on_its_own_pool():
    # a forked child simulates the parent's bits; no thread of the parent,
    # which would not exist in the child, takes part in the call
    done = _run_python(
        "import os, signal, sys\n"
        "import numpy as np\n"
        "import tvar2.simulate as sim\n"
        "from tvar2 import ConstantSchedule, SimulationConfig\n"
        "cfg = SimulationConfig(ConstantSchedule(0.4, 1.2, -0.32, 1.0),\n"
        "                       600, 60, 8, seed=1)\n"
        "parent = sim.simulate_paths(cfg).values\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(30)    # a hung child ends itself\n"
        "    same = np.array_equal(sim.simulate_paths(cfg).values, parent)\n"
        "    os._exit(0 if same else 1)\n"
        "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n")
    assert done.returncode == 0, done.stderr


def test_long_narrow_ensemble_builds_no_per_step_list(monkeypatch):
    # one path over 20 001 steps: the coefficient rows are read one
    # DRAW_ROWS slice at a time, never as one Python list of every row
    monkeypatch.setattr(sim, "DRAW_ROWS", 128)
    cfg = SimulationConfig(SEASONS, 1, 20_000, 1, seed=1, burn_in=20_000)
    tracemalloc.start()
    try:
        simulate_paths(cfg)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        rows = SEASONS.window(0, 20_000).tolist()
        full_list = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(rows) == 20_001
    assert peak < 0.6 * full_list


def test_wide_long_ensemble_keeps_one_slab_of_scratch():
    # 2048 paths over 2000 steps: the scratch array holds one slab of
    # DRAW_ROWS steps, not one row per simulated step of the chunk
    cfg = SimulationConfig(SEASONS, 2048, 2000, 10, seed=1, burn_in=1990)
    full_window = (cfg.burn_in + cfg.length + 2) * cfg.n_paths * 8
    tracemalloc.start()
    try:
        simulate_paths(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_window / 4


def test_uniform_burn_in_keeps_no_slab_of_its_steps():
    # 8192 paths, 990 burn-in and 10 kept steps: the burn-in draws go
    # DRAW_ROWS rows of one block at a time into the start's sum, and the
    # kept steps straight into the ensemble, so no (DRAW_ROWS + 2)-row
    # array of the chunk's paths is ever held
    cfg = SimulationConfig(SEASONS, 8192, 1000, 10, seed=1, burn_in=990,
                           innovations="uniform")
    burn_in_slab = (sim.DRAW_ROWS + 2) * cfg.n_paths * 8
    tracemalloc.start()
    try:
        simulate_paths(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < burn_in_slab / 2


def test_kept_steps_are_simulated_in_the_ensemble():
    # 8192 paths over 100 kept steps: the draws are scaled into the
    # ensemble's own rows and the recursion runs there, so past the
    # ensemble itself no slab of the chunk's paths is held or copied out
    cfg = SimulationConfig(SEASONS, 8192, 1000, 100, seed=1)
    slab = (min(sim.DRAW_ROWS, cfg.length) + 2) * cfg.n_paths * 8
    tracemalloc.start()
    try:
        values = simulate_paths(cfg).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - values.nbytes < slab / 2


@pytest.mark.parametrize("innovations", ["normal", "uniform"])
def test_block_drawn_over_several_calls_continues_its_stream(monkeypatch,
                                                             innovations):
    # 40 burn-in and 8 kept steps in calls of 7 rows.  The kept steps' bits
    # do not depend on DRAW_ROWS; a uniform start's sum is split by it, so
    # those paths are the reference's at DRAW_ROWS = 7, and each block's
    # bit generator ends where one drawing 40 + 8 rows in one call ends
    cfg = _config(n_paths=300, burn_in=40, innovations=innovations)
    one_call = simulate_paths(cfg).values
    made, real = [], np.random.SFC64
    monkeypatch.setattr(np.random, "SFC64",
                        lambda seed: made.append((seed, real(seed)))
                        or made[-1][1])
    monkeypatch.setattr(sim, "DRAW_ROWS", 7)
    seven_rows = simulate_paths(cfg).values
    if innovations == "normal":
        assert np.array_equal(seven_rows, one_call)
    else:
        monkeypatch.setattr(np.random, "SFC64", real)
        assert np.array_equal(seven_rows, _reference_paths(cfg))
        for seed, bit_generator in made:
            fresh = np.random.Generator(real(np.random.SeedSequence(
                seed.entropy)))
            fresh.random((cfg.burn_in + cfg.length, sim.SUB_BLOCK))
            assert np.array_equal(bit_generator.random_raw(8),
                                  fresh.bit_generator.random_raw(8))


def test_stream_version():
    # PINNED_DIGESTS and the simulate README digests in test_cli.py pin
    # this version of the stream contract: any change to those digests
    # requires bumping STREAM_VERSION
    assert sim.STREAM_VERSION == 6


def test_pure_noise_limit():
    s = ConstantSchedule(3.0, 0.0, 0.0, 4.0)
    cfg = _config(schedule=s, n_paths=30000, burn_in=10)
    ens = simulate_paths(cfg)
    stats = empirical_moments(ens, 60)
    assert abs(stats.mean.value - 3.0) < 4 * stats.mean.se
    assert abs(stats.variance.value - 4.0) < 4 * stats.variance.se


def test_uniform_innovations_have_unit_variance():
    s = ConstantSchedule(0.0, 0.0, 0.0, 2.5)
    cfg = _config(schedule=s, n_paths=30000, burn_in=5,
                  innovations="uniform")
    ens = simulate_paths(cfg)
    stats = empirical_moments(ens, 60)
    assert abs(stats.variance.value - 2.5) < 4 * stats.variance.se
    assert np.max(np.abs(ens.values)) < np.sqrt(3 * 2.5) + 1e-9


def test_moments_match_series_values():
    cfg = _config(n_paths=60000)
    ens = simulate_paths(cfg)
    stats = empirical_moments(ens, 60, max_lag=4)
    mean = unconditional_mean(STABLE, 60)
    var = unconditional_variance(STABLE, 60)
    assert abs(stats.mean.value - mean.mean) < 4 * stats.mean.se
    assert abs(stats.variance.value - var.variance) < 4 * stats.variance.se
    for k in range(1, 5):
        cov = autocovariance(STABLE, 60, k)
        est = stats.autocovariances[k - 1]
        assert abs(est.value - cov.value) < 4 * est.se


def test_single_path_moments_have_no_standard_error():
    ens = simulate_paths(_config(n_paths=1))
    stats = empirical_moments(ens, 60)
    assert stats.mean.value == ens.at(60)[0]
    assert stats.mean.se == math.inf
    assert (stats.variance.value, stats.variance.se) == (0.0, math.inf)


def _variance_se_power_form(sample):
    """(s^2, se) with m4 = mean(centered ** 4), through pow."""
    n = len(sample)
    centered = sample - sample.mean()
    s2 = float(sample.var(ddof=1))
    m4 = float(np.mean(centered ** 4))
    return s2, math.sqrt(max(m4 - s2 * s2, 0.0) / n)


# At n = 4 and 5, m4 and s^4 are close, so m4 - s^4 cancels and the last
# bits of m4 weigh more: the two forms were seen up to 1.1e-12 apart on
# normal, Student-t(3) and Cauchy samples.  Elsewhere they agree to 1e-15.
_SE_REL = {4: 1e-11, 5: 1e-11}


@pytest.mark.parametrize("n, draws", [(2, 50), (3, 50), (100, 50),
                                      (24_000, 4), (4, 200), (5, 200)])
@pytest.mark.parametrize("family", ["normal", "student-t3"])
def test_variance_se_matches_the_power_form(n, draws, family):
    rng = np.random.default_rng([n, len(family)])
    for _ in range(draws):
        sample = (rng.standard_normal(n) if family == "normal"
                  else rng.standard_t(3, n))
        got = sim._sample_moments(sample)[1]
        s2, se = _variance_se_power_form(sample)
        assert got.value == s2
        assert got.se == pytest.approx(se, rel=_SE_REL.get(n, 1e-15), abs=0.0)


def test_overflowed_sample_has_a_nonfinite_variance_se():
    sample = np.array([1e200, -1e200, 3.0, 0.5])
    with np.errstate(over="ignore", invalid="ignore"):
        got = sim._sample_moments(sample)[1]
    assert not math.isfinite(got.se)


def test_requests_outside_the_ensemble_are_rejected():
    cfg = _config(n_paths=300)
    ens = simulate_paths(cfg)
    with pytest.raises(ValueError, match="not in simulated range"):
        ens.at(61)
    with pytest.raises(ValueError, match="max_lag"):
        empirical_moments(ens, 60, max_lag=-1)
    with pytest.raises(ValueError, match="k must be"):
        empirical_forecast_error(cfg, 60, 0)


def test_forecast_error_one_step():
    cfg = _config(n_paths=40000)
    mean, variance = empirical_forecast_error(cfg, 60, 1)
    assert abs(mean.value) < 4 * mean.se
    assert abs(variance.value - 1.0) < 4 * variance.se


def test_forecast_error_three_step_matches_analytic():
    cfg = _config(n_paths=40000)
    mean, variance = empirical_forecast_error(cfg, 60, 3)
    analytic = forecast(STABLE, 60, 3, (0.0, 0.0)).mse
    assert analytic == pytest.approx(3.6944, abs=1e-12)
    assert abs(mean.value) < 4 * mean.se
    assert abs(variance.value - analytic) < 4 * variance.se


def test_forecast_error_periodic_instance():
    cfg = _config(schedule=SEASONS, n_paths=40000, t_end=64)
    mean, variance = empirical_forecast_error(cfg, 64, 4)
    analytic = forecast(SEASONS, 64, 4, (0.0, 0.0)).mse
    assert abs(mean.value) < 4 * mean.se
    assert abs(variance.value - analytic) < 4 * variance.se


def test_window_checked():
    cfg = _config(length=3)
    with pytest.raises(ValueError, match="must cover"):
        empirical_forecast_error(cfg, 60, 3)
    with pytest.raises(ValueError, match="100 paths"):
        empirical_forecast_error(_config(n_paths=10), 60, 1)


def test_explosive_paths_emit_no_warnings():
    explosive = ConstantSchedule(0.0, 2.5, 0.3, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ensemble = simulate_paths(SimulationConfig(explosive, 50, 900, 3, seed=1,
                                                   burn_in=900))
    assert not np.isfinite(ensemble.values).any()
    assert ensemble.nonfinite_paths == 50


@pytest.mark.parametrize("innovations", ["normal", "uniform"])
def test_explosive_blocks_emit_no_warnings(innovations):
    # 300 paths: one full block and one that the ensemble ends inside
    explosive = ConstantSchedule(0.0, 2.5, 0.3, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ensemble = simulate_paths(SimulationConfig(
            explosive, 300, 900, 3, seed=1, burn_in=900,
            innovations=innovations))
    assert ensemble.nonfinite_paths == 300


def test_nonfinite_paths_counts_paths_not_values():
    ensemble = simulate_paths(_config(n_paths=200))
    assert ensemble.nonfinite_paths == 0
    values = ensemble.values.copy()
    values[3, :] = np.inf
    values[7, 2] = np.nan
    assert dataclasses.replace(ensemble, values=values).nonfinite_paths == 2


def test_ensemble_is_read_only():
    ensemble = simulate_paths(_config(n_paths=200))
    # the time-major array behind values is read-only too
    for values in (ensemble.values, ensemble.values.T, ensemble.values.base):
        with pytest.raises(ValueError):
            values[0, 0] = 1.0
    with pytest.raises(ValueError):
        ensemble.times[0] = 0


def test_each_call_runs_the_kernel():
    cfg = _config(n_paths=200)
    a = simulate_paths(cfg)
    b = simulate_paths(cfg)
    assert a is not b and not np.shares_memory(a.values, b.values)
    assert np.array_equal(a.values, b.values)


def _count_simulations(monkeypatch):
    """Patch the module-global simulate_paths to record each config."""
    calls = []
    real = sim.simulate_paths
    monkeypatch.setattr(sim, "simulate_paths",
                        lambda config: calls.append(config) or real(config))
    return calls


def test_forecast_error_reuses_live_ensemble_bit_for_bit(monkeypatch):
    ensemble = simulate_paths(_config(n_paths=2000))
    calls = _count_simulations(monkeypatch)
    warm = empirical_forecast_error(_config(n_paths=2000), 60, 3)  # equal config
    assert calls == []
    del ensemble
    gc.collect()
    cold = empirical_forecast_error(_config(n_paths=2000), 60, 3)
    assert calls == [_config(n_paths=2000)]
    assert warm == cold


@pytest.mark.parametrize("change", [
    dict(seed=1), dict(n_paths=2001), dict(innovations="uniform"),
    dict(schedule=ConstantSchedule(0.4, 1.2, -0.32, 1.0)),
], ids=["seed", "n_paths", "innovations", "equal-schedule-other-object"])
def test_forecast_error_simulates_an_unequal_config(monkeypatch, change):
    ensemble = simulate_paths(_config(n_paths=2000))  # alive through the call
    calls = _count_simulations(monkeypatch)
    other = _config(**{"n_paths": 2000, **change})
    empirical_forecast_error(other, 60, 3)
    assert calls == [other]


def test_recorded_ensemble_is_not_kept_alive():
    ensemble = simulate_paths(_config(n_paths=200))
    _, ref = sim._last_ensemble
    assert ref() is ensemble
    del ensemble
    gc.collect()
    assert ref() is None


def _reference_mean_se(sample):
    n = len(sample)
    se = float(sample.std(ddof=1) / math.sqrt(n)) if n >= 2 else math.inf
    return sim.EstimateWithSE(float(sample.mean()), se)


def _reference_variance_se(sample):
    n = len(sample)
    if n < 2:
        return sim.EstimateWithSE(0.0, math.inf)
    centered = sample - sample.mean()
    s2 = float(sample.var(ddof=1))
    squared = centered * centered
    m4 = float(np.mean(squared * squared))
    return sim.EstimateWithSE(s2, math.sqrt(max(m4 - s2 * s2, 0.0) / n))


def _reference_moments(ensemble, t, max_lag=0):
    """empirical_moments one anchor at a time, each row centered afresh."""
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    anchor = ensemble.at(t)
    anchor_centered = anchor - anchor.mean()
    autocovs = []
    for k in range(1, max_lag + 1):
        lagged = ensemble.at(t - k)
        products = anchor_centered * (lagged - lagged.mean())
        autocovs.append(_reference_mean_se(products))
    return sim.EmpiricalMoments(int(t), _reference_mean_se(anchor),
                                _reference_variance_se(anchor),
                                tuple(autocovs))


def _moment_bits(moments):
    """float.hex of every value and se: nan matches nan, and -0.0 not 0.0."""
    estimates = (moments.mean, moments.variance, *moments.autocovariances)
    return (moments.anchor,
            [(e.value.hex(), e.se.hex()) for e in estimates])


def _assert_reference_bits(ensemble, seed=0):
    """Every anchor at every max_lag it admits, in shuffled order and
    twice, gives the reference bits."""
    order = [(j, int(t)) for j, t in enumerate(ensemble.times)] * 2
    np.random.default_rng(seed).shuffle(order)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for j, t in order:
            want = _moment_bits(_reference_moments(ensemble, t, j))
            for max_lag in range(j + 1):
                got = _moment_bits(empirical_moments(ensemble, t, max_lag))
                assert got == (t, want[1][:2 + max_lag]), (j, max_lag)


@pytest.mark.parametrize("n_paths", [1, 2, 3, 257, 2000, 5000, 20_481])
@pytest.mark.parametrize("innovations", ["normal", "uniform"])
def test_moment_tables_give_the_per_anchor_bits(n_paths, innovations):
    # a slab holds 6 rows of 5000 paths, so 7 or more rows span two slabs;
    # 20 481 paths span two simulation chunks, and take one row per slab
    for length in range(1, 13):
        ensemble = simulate_paths(SimulationConfig(
            SEASONS, n_paths, 100 + length, length, seed=length, burn_in=20,
            innovations=innovations))
        _assert_reference_bits(ensemble, length)


@pytest.mark.parametrize("innovations", ["normal", "uniform"])
def test_moment_tables_of_an_overflowed_ensemble_give_the_per_anchor_bits(
        innovations):
    # rows of finite values, then of +-inf, then of nan (0 * inf)
    ensemble = simulate_paths(SimulationConfig(
        ConstantSchedule(0.0, 1e40, 0.0, 1.0), 300, 100, 12, seed=1,
        burn_in=0, innovations=innovations))
    values = ensemble.values
    assert np.isfinite(values[:, 0]).all() and np.isinf(values[:, 8]).all()
    assert np.isnan(values[:, -1]).all()
    _assert_reference_bits(ensemble)
    # and rows mixing finite values with an inf or a nan
    mixed = ensemble.values[:, :8].copy()
    mixed[3, 2], mixed[5, 4], mixed[7, 4], mixed[9, 6] = (
        np.inf, -np.inf, np.nan, np.nan)
    _assert_reference_bits(sim.PathEnsemble(ensemble.times[:8], mixed))


@pytest.mark.parametrize("n_paths", [100, 257, 2000])
def test_forecast_errors_keep_the_per_sample_bits(n_paths):
    cfg = _config(schedule=SEASONS, n_paths=n_paths, length=8)
    ensemble = simulate_paths(cfg)
    for k in (1, 3, 6):
        sol = general_solution(SEASONS, 60, k)
        errors = ensemble.at(60) - (sol.drift + sol.w0 * ensemble.at(60 - k)
                                    + sol.w1 * ensemble.at(59 - k))
        want = (_reference_mean_se(errors), _reference_variance_se(errors))
        got = empirical_forecast_error(cfg, 60, k)
        assert ([(e.value.hex(), e.se.hex()) for e in got]
                == [(e.value.hex(), e.se.hex()) for e in want])


def test_user_built_ensemble_gives_the_reference_bits():
    ensemble = simulate_paths(_config(n_paths=700, length=6))
    c_ordered = sim.PathEnsemble(ensemble.times.copy(),
                                 np.ascontiguousarray(ensemble.values))
    assert c_ordered.values.flags.c_contiguous
    _assert_reference_bits(c_ordered)
    # and the same bits as the ensemble it copies
    for t in ensemble.times.tolist():
        assert (_moment_bits(empirical_moments(c_ordered, t, 0))
                == _moment_bits(empirical_moments(ensemble, t, 0)))


def test_two_ensembles_never_share_a_table():
    ensemble = simulate_paths(_config(n_paths=500, length=4))
    empirical_moments(ensemble, 60, 2)
    tripled = ensemble.values * 3.0
    tripled.flags.writeable = False     # so its tables are kept too
    scaled = dataclasses.replace(ensemble, values=tripled)
    same = simulate_paths(_config(n_paths=500, length=4))
    for other in (scaled, same):
        assert (_moment_bits(empirical_moments(other, 60, 2))
                == _moment_bits(_reference_moments(other, 60, 2)))
        tables, held = ensemble._moment_tables, other._moment_tables
        assert tables is not held
        assert sorted(tables) == sorted(held)
        assert not any(np.shares_memory(a, b) for key in tables
                       for a in tables[key] for b in held[key])
    assert (empirical_moments(scaled, 60).variance.value
            != empirical_moments(ensemble, 60).variance.value)


def test_moment_tables_are_read_only():
    ensemble = simulate_paths(_config(n_paths=300, length=4))
    empirical_moments(ensemble, 60, 3)
    # every row of 300 paths is in slab 0
    assert sorted(ensemble._moment_tables) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    for table in ensemble._moment_tables.values():
        for column in table:
            with pytest.raises(ValueError):
                column[-1] = 0.0


def test_writable_ensemble_is_read_afresh_on_every_call():
    # a user-built ensemble whose values (or their base) can be written
    # keeps no table: each call reads the values as they are now
    ensemble = simulate_paths(_config(n_paths=400, length=5))
    values = ensemble.values.copy()
    view = values[:]
    view.flags.writeable = False
    for user in (sim.PathEnsemble(ensemble.times, values),
                 sim.PathEnsemble(ensemble.times, view)):
        before = _moment_bits(empirical_moments(user, 60, 2))
        assert before == _moment_bits(_reference_moments(user, 60, 2))
        values[:, 2:] += 1.0
        after = _moment_bits(empirical_moments(user, 60, 2))
        assert after != before
        assert after == _moment_bits(_reference_moments(user, 60, 2))
        assert "_moment_tables" not in vars(user)


def test_one_anchor_builds_only_the_slabs_it_reads(monkeypatch):
    # 4 rows of 300 paths a slab: anchor j = 21 is row 1 of slab 5, and its
    # lags 1 and 2 read the means of rows 19 and 20 from slab 4
    monkeypatch.setattr(sim, "_SLAB_FLOATS", 1200)
    ensemble = simulate_paths(_config(n_paths=300, t_end=99, length=40))
    t = int(ensemble.times[21])
    assert (_moment_bits(empirical_moments(ensemble, t, 2))
            == _moment_bits(_reference_moments(ensemble, t, 2)))
    assert sorted(ensemble._moment_tables) == [(0, 4), (0, 5), (1, 5), (2, 5)]
    assert all(len(column) == 4 for table in ensemble._moment_tables.values()
               for column in table)


def test_one_anchor_of_a_user_built_ensemble_copies_no_more_than_a_slab():
    # 6000 paths over 60 C-ordered times (2.9 MB): the rows a call reads
    # are copied contiguous a slab (5 rows, 240 kB) at a time, never the
    # whole ensemble
    ensemble = simulate_paths(_config(n_paths=6000, t_end=99, length=60))
    user = sim.PathEnsemble(ensemble.times,
                            np.ascontiguousarray(ensemble.values))
    t = int(ensemble.times[37])
    tracemalloc.start()
    try:
        got = empirical_moments(user, t, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _moment_bits(got) == _moment_bits(_reference_moments(user, t, 7))
    assert peak < user.values.nbytes / 3


def _outcome(moments, ensemble, t, max_lag):
    try:
        return _moment_bits(moments(ensemble, t, max_lag))
    except ValueError as exc:
        return str(exc)


def test_rejected_requests_raise_the_per_anchor_messages():
    # times 57..60: each bad anchor, lag and max_lag, alone and together,
    # raises the message the per-anchor reference raises first
    ensemble = simulate_paths(_config(n_paths=300, length=4))
    messages = set()
    for t in (50, 56, 57, 58, 60, 61, 70):
        for max_lag in (-3, -1, 0, 1, 3, 4, 9):
            want = _outcome(_reference_moments, ensemble, t, max_lag)
            assert _outcome(empirical_moments, ensemble, t, max_lag) == want
            if isinstance(want, str):
                messages.add(want)
    assert {"max_lag must be >= 0", "t=56 not in simulated range [57, 60]",
            "t=61 not in simulated range [57, 60]"} <= messages


# fresh tiled schedules, each with an empty season cache
TILED = {
    "periodic": lambda: PeriodicSchedule([
        (0.2, 0.6, -0.1, 1.0), (0.0, -0.4, 0.2, 1.5), (0.1, 0.8, -0.3, 0.8),
        (0.3, 0.1, 0.25, 1.2)]),
    "cyclical": lambda: CyclicalSchedule(6, [2, 4], [(0.0, 0.5, -0.2, 1.0),
                                                     (0.0, -0.3, 0.4, 1.0),
                                                     (0.0, 0.8, -0.1, 1.0)]),
    "near-unit-root": lambda: ConstantSchedule(0.01, 1.0, -0.02, 1.0),
}


@pytest.mark.parametrize("innovations", ["normal", "uniform"])
@pytest.mark.parametrize("kind", sorted(TILED))
def test_start_laws_from_the_season_cache_keep_the_bits(kind, innovations):
    # every season twice on one schedule, the second time from its cache,
    # against the same ensemble on a fresh schedule
    shared = TILED[kind]()
    for t_end in range(400, 414):
        cfg = _config(schedule=shared, n_paths=300, t_end=t_end, length=3,
                      burn_in=120, innovations=innovations)
        fresh = dataclasses.replace(cfg, schedule=TILED[kind]())
        assert np.array_equal(simulate_paths(cfg).values,
                              simulate_paths(fresh).values), t_end
    period = len(shared._season_rows)
    # a start is kept under ((family, burn_in), season), a prefix under
    # (stream, season)
    starts = [key for key in shared._season_cache
              if isinstance(key[0], tuple)]
    assert sorted(starts) == [((innovations, 120), season)
                              for season in range(period)]
    for key in starts:
        if innovations == "uniform":
            assert not any(a.flags.writeable
                           for a in shared._season_cache[key])


def test_season_cache_with_start_laws_holds_at_most_its_cap(monkeypatch):
    # near the unit root a uniform start keeps every burn-in column: 2 B
    # weights per (season, B), on top of the acf's xi prefixes
    seasons = [(0.01, 1.0, -0.02, 1.0), (0.0, 0.99, -0.01, 2.0)]

    def fill(schedule):
        acf = [autocovariance(schedule, 5000, k) for k in range(21)]
        return acf, [simulate_paths(_config(
            schedule=schedule, n_paths=300, t_end=t_end, length=2,
            burn_in=burn_in, innovations=innovations)).values
            for burn_in in (300, 400, 500) for t_end in (900, 901)
            for innovations in ("normal", "uniform")]

    uncapped = PeriodicSchedule(seasons)
    want_acf, want = fill(uncapped)
    monkeypatch.setattr(tvar2.schedules, "_CACHE_FLOATS", 3000)
    s = PeriodicSchedule(seasons)
    acf, got = fill(s)
    assert acf == want_acf
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    held = sum(map(tvar2.schedules._floats, s._season_cache.values()))
    every = sum(map(tvar2.schedules._floats, uncapped._season_cache.values()))
    assert 0 < held <= 3000 < every
    # xi prefixes and start laws are both held
    assert {type(tag) for tag, _ in s._season_cache} == {str, tuple}


@pytest.mark.parametrize("schedule", [
    SEASONS_GENERIC,
    BreakSchedule(400, 390, [100, 200], [(0.0, 0.5, -0.2, 1.0),
                                         (0.0, -0.4, 0.3, 1.0),
                                         (0.0, 0.9, -0.5, 1.0)]),
    # sigma2 of the last season is outside the declared bounds
    PeriodicSchedule([(0.0, 0.1, 0.0, 1.0)] * 63 + [(0.0, 0.1, 0.0, 9.0)],
                     sigma2_bounds=(0.5, 2.0)),
], ids=["generic", "breaks", "sigma2-out-of-bounds"])
@pytest.mark.parametrize("innovations", ["normal", "uniform"])
def test_untiled_schedules_keep_no_start_law(schedule, innovations):
    cfg = _config(schedule=schedule, n_paths=300, t_end=62, length=4,
                  burn_in=40, innovations=innovations)
    assert np.array_equal(simulate_paths(cfg).values, _reference_paths(cfg))
    assert schedule._season_cache is None


@pytest.mark.parametrize("innovations", ["normal", "uniform"])
def test_a_kept_start_law_reads_only_the_kept_rows(monkeypatch, innovations):
    # the burn-in rows are read only to compute a start, so a second
    # ensemble in the same season of a shared schedule reads `length` rows
    shared = TILED["periodic"]()
    window, read = shared.window, []

    def counting(t_lo, t_hi):
        rows = window(t_lo, t_hi)
        read.append(len(rows))
        return rows
    monkeypatch.setattr(shared, "window", counting)
    cfg = _config(schedule=shared, n_paths=300, t_end=400, length=10,
                  burn_in=500, innovations=innovations)
    simulate_paths(cfg)
    read.clear()
    simulate_paths(dataclasses.replace(cfg, t_end=404))
    assert sum(read) == 10
