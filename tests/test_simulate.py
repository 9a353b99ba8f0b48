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
from tvar2 import (ConstantSchedule, PeriodicSchedule, SimulationConfig,
                   autocovariance, empirical_forecast_error, empirical_moments,
                   forecast, simulate_paths, unconditional_mean,
                   unconditional_variance)

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


def test_same_seed_bit_identical():
    a = simulate_paths(_config(n_paths=500))
    b = simulate_paths(_config(n_paths=500))
    assert np.array_equal(a.values, b.values)


def test_different_seed_differs():
    a = simulate_paths(_config(n_paths=200))
    b = simulate_paths(_config(n_paths=200, seed=1))
    assert not np.array_equal(a.values, b.values)


def test_worker_count_does_not_change_results():
    # streams are keyed per block of SUB_BLOCK paths and the blocks are
    # shared out over LANES threads, not workers: workers is accepted but
    # has no effect, whatever the chunking
    old = sim.CHUNK_TARGET
    sim.CHUNK_TARGET = 64
    try:
        one = simulate_paths(_config(n_paths=500, workers=1))
        eight = simulate_paths(_config(n_paths=500, workers=8))
    finally:
        sim.CHUNK_TARGET = old
    assert np.array_equal(one.values, eight.values)


def _reference_paths(config):
    """The stream contract (version 2), spelled out: one
    Generator(Philox(key=[seed, b])) per block b of SUB_BLOCK paths, drawn
    as one full-width time-major array (uniform draws u mapped to
    u * 2 sqrt(3) - sqrt(3)), sigma scaling, then the path-major recursion
    ((phi0 + phi1*y1) + phi2*y2) + eps from zero initial conditions."""
    total = config.burn_in + config.length
    tuples = [config.schedule.at(t)
              for t in range(config.t_end - total + 1, config.t_end + 1)]
    sigma = np.sqrt(np.array([tup.sigma2 for tup in tuples]))
    coeffs = np.array([(tup.phi0, tup.phi1, tup.phi2) for tup in tuples])
    root3 = math.sqrt(3.0)
    blocks = []
    for b in range(-(-config.n_paths // sim.SUB_BLOCK)):
        rng = np.random.Generator(np.random.Philox(key=[config.seed, b]))
        if config.innovations == "uniform":
            draw = rng.random((total, sim.SUB_BLOCK)) * (2.0 * root3) - root3
        else:
            draw = rng.standard_normal((total, sim.SUB_BLOCK))
        blocks.append(draw)
    eps = np.hstack(blocks)[:, :config.n_paths].T * sigma
    y_prev = np.zeros(config.n_paths)
    y_prev2 = np.zeros(config.n_paths)
    out = np.empty((config.n_paths, config.length))
    for j in range(total):
        phi0, phi1, phi2 = coeffs[j]
        y = phi0 + phi1 * y_prev + phi2 * y_prev2 + eps[:, j]
        y_prev2, y_prev = y_prev, y
        if j >= config.burn_in:
            out[:, j - config.burn_in] = y
    return out


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


# sha256 of the float64 bytes, recorded with stream contract version 2
PINNED_DIGESTS = {
    "normal":
        "15e458281d65aca849287d24b2689ddbd82d7a6b85b98f0188c0abce388f38f2",
    "uniform":
        "b487a8ceb9724b50f77abc47dde6f4d180d5c0b91eb7f97106b7dde85e11a470",
}


@pytest.mark.parametrize("innovations", ["normal", "uniform"])
def test_ensemble_digest_is_pinned(innovations):
    cfg = _config(schedule=SEASONS, n_paths=300, t_end=64, burn_in=50,
                  innovations=innovations)
    values = simulate_paths(cfg).values
    assert (hashlib.sha256(values.tobytes()).hexdigest()
            == PINNED_DIGESTS[innovations])


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


@pytest.mark.parametrize("target", [64, 300, 1000, sim.CHUNK_TARGET])
@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_lane_count_does_not_change_results(monkeypatch, lanes, target):
    # six blocks, the last one partial: CHUNK_TARGET 64 and 300 give chunks
    # of one block (drawn inline), 1000 of three, the default one of six
    cfg = _config(n_paths=1300, burn_in=40)
    default = simulate_paths(cfg).values
    monkeypatch.setattr(sim, "LANES", lanes)
    monkeypatch.setattr(sim, "CHUNK_TARGET", target)
    assert np.array_equal(simulate_paths(cfg).values, default)


def _no_pool():
    raise AssertionError("a single lane reached the thread pool")


@pytest.mark.parametrize("lanes, n_paths", [(1, 1300), (3, 256)])
def test_single_lane_draws_inline(monkeypatch, lanes, n_paths):
    monkeypatch.setattr(sim, "LANES", lanes)
    monkeypatch.setattr(sim, "_lane_pool", _no_pool)
    simulate_paths(_config(n_paths=n_paths, burn_in=40))


def test_concurrent_callers_share_one_pool(monkeypatch):
    # more callers than cores, each over three lanes, on a pool that one of
    # them makes; a short switch interval interleaves them often
    cfg = _config(n_paths=1300, burn_in=40)
    expected = simulate_paths(cfg).values
    monkeypatch.setattr(sim, "LANES", 3)
    monkeypatch.setattr(sim, "_pool", None)
    same = []
    callers = [threading.Thread(target=lambda: same.append(np.array_equal(
        simulate_paths(cfg).values, expected))) for _ in range(6)]
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
    assert same == [True] * 6


def _run_python(code):
    env = {**os.environ, "PYTHONPATH": str(Path(tvar2.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)


def test_import_starts_no_thread_pool():
    done = _run_python(
        "import sys, threading, tvar2\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert threading.active_count() == 1\n")
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_draws_on_its_own_pool():
    # the parent's pool threads do not exist in a forked child; without a
    # pool of its own the child would wait on them forever
    done = _run_python(
        "import os, signal, sys\n"
        "import numpy as np\n"
        "import tvar2.simulate as sim\n"
        "from tvar2 import ConstantSchedule, SimulationConfig\n"
        "sim.LANES = 2\n"
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


@pytest.mark.parametrize("innovations", ["normal", "uniform"])
def test_block_drawn_over_several_calls_continues_its_stream(monkeypatch,
                                                             innovations):
    cfg = _config(n_paths=300, burn_in=40, innovations=innovations)
    one_call = simulate_paths(cfg).values
    monkeypatch.setattr(sim, "DRAW_ROWS", 7)    # 48 time steps: 7 calls
    assert np.array_equal(simulate_paths(cfg).values, one_call)


def test_stream_version():
    # PINNED_DIGESTS and the simulate README digests in test_cli.py pin
    # this version of the stream contract: any change to those digests
    # requires bumping STREAM_VERSION
    assert sim.STREAM_VERSION == 2


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
    with pytest.raises(ValueError):
        ensemble.values[0, 0] = 1.0
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
