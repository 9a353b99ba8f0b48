import gc
import math
import threading
import warnings
import weakref
from collections import Counter, deque

import numpy as np
import pytest

import tvar2.moments
from tvar2 import (BreakSchedule, CoefficientTuple, ConstantSchedule,
                   CyclicalSchedule, GenericSchedule, PeriodicSchedule,
                   ScheduleError, autocovariance, autocovariance_recursion,
                   forecast, forecast_error_weights, general_solution,
                   green_functions, unconditional_mean, unconditional_variance)
from tvar2.moments import (DEFAULT_TOL, _tail_window,
                           assumption_a1_diagnostic)
from conftest import random_schedule


def test_forecast_one_step_is_conditional_expectation(rng):
    for _ in range(10):
        s = random_schedule(rng, -10, 10)
        t = int(rng.integers(-5, 10))
        y0, y1 = rng.normal(size=2)
        tup = s.at(t)
        result = forecast(s, t, 1, (y0, y1))
        assert result.point == pytest.approx(
            tup.phi0 + tup.phi1 * y0 + tup.phi2 * y1, abs=1e-13)
        assert result.mse == pytest.approx(tup.sigma2, abs=1e-14)


def test_forecast_three_step_constant_example():
    s = ConstantSchedule(0.0, 1.2, -0.32, 1.0)
    result = forecast(s, 10, 3, (1.0, 2.0))
    # point: 0.96*1 + (-0.32)*1.12*2; mse: 1 + 1.2^2 + 1.12^2
    assert result.point == pytest.approx(0.2432, abs=1e-12)
    assert result.mse == pytest.approx(3.6944, abs=1e-12)


def test_forecast_error_weights_are_green_functions():
    s = ConstantSchedule(0.0, 1.2, -0.32, 1.0)
    weights = forecast_error_weights(s, 10, 4)
    assert list(weights) == pytest.approx([1.0, 1.2, 1.12, 0.96], abs=1e-14)


def test_forecast_mse_sums_weighted_variances(rng):
    for _ in range(10):
        s = random_schedule(rng, -30, 10, coeff_range=0.6)
        t = int(rng.integers(-5, 10))
        k = int(rng.integers(1, 8))
        result = forecast(s, t, k, (0.0, 0.0))
        expected = sum(result.error_weights[i] ** 2 * s.at(t - i).sigma2
                       for i in range(k))
        assert result.mse == pytest.approx(expected, rel=1e-13)


def test_stable_first_order_closed_forms():
    # phi1 = 0.5, phi0 = 1, sigma2 = 1: mean 2, variance 4/3
    s = ConstantSchedule(1.0, 0.5, 0.0, 1.0)
    mean = unconditional_mean(s, 25)
    assert mean.converged
    assert mean.mean == pytest.approx(2.0, abs=1e-8)
    var = unconditional_variance(s, 25)
    assert var.converged
    assert var.variance == pytest.approx(4.0 / 3.0, abs=1e-8)
    assert var.second_moment == pytest.approx(4.0 + 4.0 / 3.0, abs=1e-7)
    for k in range(7):
        cov = autocovariance(s, 25, k)
        assert cov.converged
        assert cov.value == pytest.approx(0.5 ** k * 4.0 / 3.0, abs=1e-8)


def test_series_and_recursion_autocovariances_agree(rng):
    s = random_schedule(rng, -4000, 20, coeff_range=0.45)
    for k in range(1, 5):
        series = autocovariance(s, 10, k)
        recursion = autocovariance_recursion(s, 10, k)
        assert series.converged and recursion.converged
        assert recursion.value == pytest.approx(series.value, rel=1e-9,
                                                abs=1e-9)


@pytest.mark.parametrize("s, t", [
    (PeriodicSchedule([(0.2, 0.6, -0.1, 1.0), (0.0, -0.4, 0.2, 1.5),
                       (0.1, 0.8, -0.3, 0.8), (0.3, 0.1, 0.25, 1.2)]), 10),
    (ConstantSchedule(0.0, 1.0, -0.02, 1.0), 40),      # near the unit root
    (ConstantSchedule(0.0, 1.5, 0.0, 1.0), 40),        # explosive
], ids=["periodic", "near-unit-root", "explosive"])
def test_autocovariance_carries_its_series_depth_and_tail(s, t):
    n, tail = tvar2.moments._truncated_sum(
        tvar2.moments._covariance_terms(s, t, 0), DEFAULT_TOL, 10_000)[1:3]
    cov = autocovariance(s, t, 0)
    assert (cov.depth, cov.tail_bound) == (n, tail)
    assert cov.depth <= unconditional_variance(s, t).depth
    rec = autocovariance_recursion(s, t, 2)
    lagged = [autocovariance(s, t - 2, k) for k in (0, 1)]
    assert rec.depth == max(c.depth for c in lagged)
    assert rec.tail_bound == max(c.tail_bound for c in lagged)
    assert rec.converged == cov.converged


def test_periodic_variance_differs_by_season():
    s = PeriodicSchedule([(0.0, 0.2, 0.0, 1.0), (0.0, 0.9, 0.0, 1.0)])
    v1 = unconditional_variance(s, 101)  # season 1
    v2 = unconditional_variance(s, 102)  # season 2
    assert v1.converged and v2.converged
    assert v2.variance > v1.variance


def test_explosive_schedule_flags_nonconvergence():
    s = ConstantSchedule(0.0, 1.5, 0.0, 1.0)
    var = unconditional_variance(s, 5, n_max=300)
    assert not var.converged
    assert var.variance > 1.0


def test_nonfinite_terms_abort_with_flag():
    s = ConstantSchedule(0.0, 3.0, 2.0, 1.0)
    var = unconditional_variance(s, 5, n_max=5000)
    assert not var.converged
    assert math.isinf(var.tail_bound)


def test_tol_validation():
    s = ConstantSchedule(0.0, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="tol must be > 0"):
        unconditional_variance(s, 5, tol=0.0)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        autocovariance(s, 5, 1, n_max=0)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_nonfinite_tol_is_rejected(tol):
    s = ConstantSchedule(0.0, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="tol must be > 0 and finite"):
        autocovariance(s, 5, 0, tol=tol)


@pytest.mark.parametrize("call, match", [
    (lambda s: forecast(s, 5, 0, (0.0, 0.0)), "k must be >= 1"),
    (lambda s: forecast_error_weights(s, 5, 0), "k must be >= 1"),
    (lambda s: autocovariance(s, 5, -1), "k must be >= 0"),
    (lambda s: autocovariance_recursion(s, 5, 0),
     "recursion form requires k >= 1"),
    (lambda s: assumption_a1_diagnostic(s, range(5), 0, 10.0),
     "n must be >= 1"),
    *[(lambda s, tol=tol: assumption_a1_diagnostic(s, range(5), 50, 10.0, tol),
       "tol must be > 0 and finite") for tol in (0.0, -1.0, math.inf, math.nan)],
], ids=["forecast-k0", "error-weights-k0", "acf-lag-negative",
        "acf-recursion-lag0", "a1-diagnostic-n0", "a1-diagnostic-tol0",
        "a1-diagnostic-tol-negative", "a1-diagnostic-tol-inf",
        "a1-diagnostic-tol-nan"])
def test_argument_guards(call, match):
    with pytest.raises(ValueError, match=match):
        call(ConstantSchedule(0.0, 0.5, 0.0, 1.0))


def test_summability_diagnostic_stable_vs_explosive():
    stable = ConstantSchedule(1.0, 0.5, 0.1, 1.0)
    good = assumption_a1_diagnostic(stable, range(10, 14), n=200, bound=50.0)
    assert good.passed
    explosive = ConstantSchedule(1.0, 1.4, 0.2, 1.0)
    bad = assumption_a1_diagnostic(explosive, range(10, 14), n=200, bound=50.0)
    assert not bad.passed


# --- per-step reference: one schedule evaluation per coefficient, one term
# at a time, as the series were summed before they read windows in blocks

def _reference_stream(s, t):
    yield 1.0
    prev2, prev = 1.0, s.at(t).phi1
    yield prev
    i = 2
    while True:
        cur = s.at(t - i + 1).phi1 * prev + s.at(t - i + 2).phi2 * prev2
        yield cur
        prev2, prev = prev, cur
        i += 1


def _reference_sum(terms, tol, n_max):
    window = _tail_window(tol)
    recent = deque(maxlen=window)
    total = 0.0
    n = 0
    for term in terms:
        if not math.isfinite(term):
            return total, n, math.inf, False
        total += term
        recent.append(abs(term))
        n += 1
        if (n >= window and math.isfinite(total)
                and max(recent) < tol * max(1.0, abs(total))):
            return total, n, float(sum(recent)), True
        if n >= n_max:
            break
    return total, n, float(sum(recent)), False


def _reference_mean(s, t, tol, n_max):
    return _reference_sum((x * s.at(t - i).phi0
                           for i, x in enumerate(_reference_stream(s, t))),
                          tol, n_max)


def _reference_cov(s, t, k, tol, n_max):
    def terms():
        anchor = _reference_stream(s, t)
        for _ in range(k):
            next(anchor)
        for i, (xa, xl) in enumerate(zip(anchor, _reference_stream(s, t - k))):
            yield xa * xl * s.at(t - k - i).sigma2
    return _reference_sum(terms(), tol, n_max)


SERIES_CASES = [
    ("periodic", PeriodicSchedule([(0.2, 0.6, -0.1, 1.0), (0.0, -0.4, 0.2, 1.5),
                                   (0.1, 0.8, -0.3, 0.8), (0.3, 0.1, 0.25, 1.2)])),
    ("cyclical", CyclicalSchedule(6, [2, 4], [(0.0, 0.5, -0.2, 1.0),
                                              (0.1, -0.3, 0.4, 1.0),
                                              (0.0, 0.8, -0.1, 1.3)])),
    ("near-unit-root", ConstantSchedule(0.01, 1.0, -0.02, 1.0)),
    ("explosive", ConstantSchedule(0.1, 1.5, -0.02, 1.0)),
]


@pytest.mark.parametrize("name, s", SERIES_CASES, ids=[c[0] for c in SERIES_CASES])
@pytest.mark.parametrize("tol, n_max", [(1e-12, 10_000), (1e-12, 100),
                                        (1e-12, 777), (1e-3, 5), (1e-3, 33)])
def test_series_equal_the_per_step_reference(monkeypatch, name, s, tol, n_max):
    sums = []
    original = tvar2.moments._truncated_sum
    monkeypatch.setattr(tvar2.moments, "_truncated_sum",
                        lambda *a: sums.append(original(*a)) or sums[-1])
    for t in (501, 502, 506):
        mean = unconditional_mean(s, t, tol, n_max)
        assert (mean.mean, mean.depth, mean.tail_bound, mean.converged) == \
            _reference_mean(s, t, tol, n_max)
        var = unconditional_variance(s, t, tol, n_max)
        want = _reference_cov(s, t, 0, tol, n_max)
        assert sums[-2] == want
        assert var.variance == want[0]
        for k in (1, 5):
            cov = autocovariance(s, t, k, tol, n_max)
            want = _reference_cov(s, t, k, tol, n_max)
            assert sums[-1] == want
            assert (cov.value, cov.converged) == (want[0], want[3])
    if name == "near-unit-root" and n_max == 10_000:
        assert sums[1][1] == 621


def test_overflowing_series_is_not_converged():
    s = ConstantSchedule(0.0, 1.5, -0.02, 1.0)
    var = unconditional_variance(s, 40)
    assert math.isinf(var.variance) and not var.converged
    for k in (0, 1, 4):
        cov = autocovariance(s, 40, k)
        assert math.isinf(cov.value) and not cov.converged


def test_break_series_converges_inside_a_short_window():
    regimes = [(0.5, 0.3, 0.1, 1.0), (0.2, 0.2, -0.1, 2.0)]
    s = BreakSchedule(100, 40, [15], regimes)
    # 41 times in the window
    var = unconditional_variance(s, 100, tol=1e-6)
    want_var = _reference_cov(s, 100, 0, 1e-6, 10_000)
    want_mean = _reference_mean(s, 100, 1e-6, 10_000)
    assert var.converged and var.depth < 41
    assert (var.variance, var.mean, var.depth) == (
        want_var[0], want_mean[0], max(want_var[1], want_mean[1]))
    cov = autocovariance(s, 100, 3, tol=1e-6)
    assert (cov.value, cov.converged) == \
        _reference_cov(s, 100, 3, 1e-6, 10_000)[::3]
    # a series that needs a term past the edge raises as reading it does
    with pytest.raises(ScheduleError) as info:
        unconditional_variance(s, 100)
    with pytest.raises(ScheduleError) as want:
        _reference_cov(s, 100, 0, DEFAULT_TOL, 10_000)
    assert str(info.value) == str(want.value) == (
        "t=59 outside break-schedule window [60, 100]")
    with pytest.raises(ScheduleError, match="t=101 outside"):
        autocovariance(s, 101, 1, tol=1e-6)


def test_one_autocovariance_reads_each_time_once_per_walk(monkeypatch):
    # the anchor, lagged and sigma2 walks each read a time once: no table
    # is rebuilt as the series deepens (the lazy path of a generic schedule)
    s = _as_generic(ConstantSchedule(0.0, 1.0, -0.02, 1.0))
    reads = Counter()
    window = s.window

    def counted(t_lo, t_hi):
        reads.update(range(t_lo, t_hi + 1))
        return window(t_lo, t_hi)

    monkeypatch.setattr(s, "window", counted)
    cov = autocovariance(s, 5000, 5)
    assert cov.converged and cov.depth > 500
    assert max(reads.values()) == 3


def test_acf_lags_of_a_tiled_schedule_share_its_season_reads(monkeypatch):
    # each prefix of 64, 256 and 1024 terms reads the xi and the sigma2
    # stream of the one season again from t, a time once each; the other
    # lags find both long enough and read nothing
    s = ConstantSchedule(0.0, 1.0, -0.02, 1.0)
    reads = Counter()
    window = s.window

    def counted(t_lo, t_hi):
        reads.update(range(t_lo, t_hi + 1))
        return window(t_lo, t_hi)

    monkeypatch.setattr(s, "window", counted)
    cov = autocovariance(s, 5000, 5)
    assert cov.converged and 256 < cov.depth <= 1024
    assert max(reads.values()) == 2 * 3
    before = reads.copy()
    assert all(autocovariance(s, 5000, k).converged for k in range(21))
    assert reads == before


# --- the array path of constant, periodic and cyclical schedules: its
# oracle is the lazy path of a generic schedule with the same coefficients

def _as_generic(s):
    tuples = [CoefficientTuple(*row) for row in s._season_rows.tolist()]
    return GenericSchedule(lambda t: tuples[(t - 1) % len(tuples)])


def _bits(result):
    value = getattr(result, "value", getattr(result, "mean", None))
    return (value.hex(), result.depth, result.tail_bound.hex(), result.converged)


def _acf_bits(s, t, lags, tol=DEFAULT_TOL, n_max=10_000):
    return [_bits(autocovariance(s, t, k, tol, n_max)) for k in lags]


# (phi0, phi1, phi2, sigma2) tuples past the random draws' range
EDGE_SEASONS = [
    [(0.01, 1.0, -0.02, 1.0)],                            # near the unit root
    [(0.0, 1.05, -0.02, 1.0)],                            # explosive
    [(0.1, 1.5, -0.02, 1.0)],                             # overflows
    [(0.0, 1.5, 0.0, 1.0), (0.2, 0.9, 0.05, 2.0)],        # explosive periodic
    [(-0.0, -0.0, 0.0, 1.0)],                             # -0.0 terms
    [(-0.0, 0.0, -0.0, 1.0), (0.0, -0.0, 0.0, 0.5)],
]


def _random_tiled(rng, draw, first_edge=0):
    """A fresh constant, periodic (1-8 seasons) or cyclical schedule;
    one draw in four uses the seasons of the next edge case."""
    if draw % 4 == 3:
        seasons = EDGE_SEASONS[(first_edge + draw // 4) % len(EDGE_SEASONS)]
        return (ConstantSchedule(*seasons[0]) if len(seasons) == 1
                else PeriodicSchedule(seasons))

    def tup():
        return (float(rng.uniform(-1, 1)), float(rng.uniform(-1.1, 1.1)),
                float(rng.uniform(-0.5, 0.4)), float(rng.uniform(0.2, 2.0)))
    kind = draw % 3
    if kind == 0:
        return ConstantSchedule(*tup())
    if kind == 1:
        return PeriodicSchedule([tup() for _ in range(int(rng.integers(1, 9)))])
    period = int(rng.integers(2, 9))
    cuts = sorted(rng.choice(np.arange(1, period), int(rng.integers(0, period)),
                             replace=False).tolist())
    return CyclicalSchedule(period, cuts, [tup() for _ in range(len(cuts) + 1)])


# 352 schedules; at n_max 10 000 each run takes four of the six edge cases
@pytest.mark.parametrize("tol, n_max, draws, first_edge", [
    (1e-12, 50, 160, 0), (1e-3, 50, 160, 0), (1e-12, 10_000, 16, 0),
    (1e-3, 10_000, 16, 3)])
def test_array_series_equal_the_lazy_series_to_the_bit(tol, n_max, draws,
                                                       first_edge):
    rng = np.random.default_rng(int(tol < 1e-6) + n_max)
    for draw in range(draws):
        s = _random_tiled(rng, draw, first_edge)
        generic = _as_generic(s)
        t = int(rng.integers(-1000, 10**6))
        # one fresh schedule for every lag, so that the lags share its cache
        assert _acf_bits(s, t, range(21), tol, n_max) == \
            _acf_bits(generic, t, range(21), tol, n_max), (draw, s._season_rows)
        assert _bits(unconditional_mean(s, t, tol, n_max)) == \
            _bits(unconditional_mean(generic, t, tol, n_max))
        assert s._season_cache is not None and generic._season_cache is None


def test_cached_prefixes_equal_fresh_ones():
    s = PeriodicSchedule([(0.2, 0.6, -0.1, 1.0), (0.0, -0.4, 0.2, 1.5),
                          (0.1, 0.8, -0.3, 0.8)])
    for k in range(21):
        autocovariance(s, 1000, k)
    unconditional_mean(s, 1001)
    prefix = tvar2.moments._season_prefix
    for t in (4000, 4001, 4002):   # each season, read from an earlier t
        held = {stream: len(s._season_cache[stream, (t - 1) % 3])
                for stream in ("xi", "sigma2")}
        assert held["xi"] >= 64 and held["sigma2"] >= 64
        xi = prefix(s, "xi", t, held["xi"])
        assert not xi.flags.writeable
        assert xi.tolist() == green_functions(s, t, held["xi"] - 1).values.tolist()
        assert prefix(s, "sigma2", t, held["sigma2"]).tolist() == \
            s.window(t - held["sigma2"] + 1, t)[::-1, 3].tolist()
    d = len(s._season_cache["phi0", 1])
    assert prefix(s, "phi0", 1001, d).tolist() == \
        s.window(1001 - d + 1, 1001)[::-1, 0].tolist()


def test_season_cache_holds_at_most_its_cap(monkeypatch):
    seasons = [(0.01, 1.0, -0.02, 1.0), (0.0, 0.99, -0.01, 2.0)]
    uncapped = PeriodicSchedule(seasons)
    want = _acf_bits(uncapped, 5000, range(21))
    monkeypatch.setattr(tvar2.schedules, "_CACHE_FLOATS", 3000)
    s = PeriodicSchedule(seasons)
    # a prefix that would take the cache past its cap is not kept
    assert _acf_bits(s, 5000, range(21)) == want
    held = sum(map(len, s._season_cache.values()))
    assert 0 < held <= 3000 < sum(map(len, uncapped._season_cache.values()))


def test_season_cache_goes_with_its_schedule():
    # the cache holds arrays only, so no reference cycle keeps them alive
    # until a collection
    s = PeriodicSchedule([(0.0, 0.99, -0.01, 1.0), (0.1, 0.5, 0.1, 2.0)])
    for k in range(3):
        autocovariance(s, 900, k)
    cache = weakref.ref(s._season_cache["xi", 1])
    gc.disable()
    try:
        del s
        assert cache() is None
    finally:
        gc.enable()


def test_series_of_a_schedule_that_would_raise_stay_lazy():
    # sigma2 of the second season is outside the declared bounds: reading
    # it raises, so its series may not read past the term that decides
    s = PeriodicSchedule([(0.0, 0.1, 0.0, 1.0)] * 63 + [(0.0, 0.1, 0.0, 9.0)],
                         sigma2_bounds=(0.5, 2.0))
    assert s._season_cache is None
    cov = autocovariance(s, 63, 0, tol=1e-6)
    assert cov.converged and cov.depth < 63
    with pytest.raises(ScheduleError, match="sigma2=9.0 at t=64"):
        autocovariance(s, 64, 0, tol=1e-6)


def test_explosive_acf_emits_no_warnings():
    # (schedule, max lag, whether its terms overflow before n_max)
    cases = [(ConstantSchedule(0.0, 1.05, -0.02, 1.0), 4, False),
             (ConstantSchedule(0.0, 1.5, -0.02, 1.0), 20, True),
             (PeriodicSchedule([(0.0, 1.5, 0.0, 1.0), (0.0, 0.9, 0.05, 2.0)]),
              20, True)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, max_lag, overflows in cases:
            for k in range(max_lag + 1):
                cov = autocovariance(s, 5000, k)
                assert not cov.converged
                assert math.isinf(cov.tail_bound) == overflows
                assert overflows or cov.depth == 10_000


def test_threads_sharing_one_schedule_get_the_single_thread_series():
    seasons = [(0.2, 0.6, -0.1, 1.0), (0.01, 0.99, -0.02, 1.5),
               (0.1, 0.8, -0.3, 0.8)]
    want = _acf_bits(PeriodicSchedule(seasons), 7000, range(21))
    shared = PeriodicSchedule(seasons)
    start = threading.Barrier(4)
    got, errors = [], []

    def caller():
        try:
            start.wait()
            got.append(_acf_bits(shared, 7000, range(21)))
        except Exception as exc:   # "generator already executing", say
            errors.append(exc)

    callers = [threading.Thread(target=caller) for _ in range(4)]
    for thread in callers:
        thread.start()
    for thread in callers:
        thread.join()
    assert errors == [] and got == [want] * 4


def test_forecast_point_is_the_general_solution(rng):
    for _ in range(10):
        s = random_schedule(rng, -40, 10)
        t = int(rng.integers(-5, 10))
        k = int(rng.integers(1, 30))
        y0, y1 = (float(v) for v in rng.normal(size=2))
        sol = general_solution(s, t, k)
        result = forecast(s, t, k, (y0, y1))
        assert result.point == sol.w0 * y0 + sol.w1 * y1 + sol.drift
        assert list(result.error_weights) == list(sol.innovation_weights)
        # both sums run one term at a time, newest first
        weights = list(enumerate(sol.innovation_weights))
        assert sol.drift == sum(w * s.at(t - i).phi0 for i, w in weights)
        assert result.mse == sum(w ** 2 * s.at(t - i).sigma2 for i, w in weights)


def test_explosive_forecast_emits_no_warnings():
    s = ConstantSchedule(0.0, 2.5, -0.02, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = forecast(s, 5000, 1000, (0.5, -0.5))
    assert math.isnan(result.point) and math.isnan(result.mse)


def test_forecast_finite_flags_overflow():
    stationary = forecast(ConstantSchedule(0.0, 1.2, -0.32, 1.0), 10, 3,
                          (1.0, 2.0))
    assert stationary.finite
    explosive = forecast(ConstantSchedule(0.0, 2.5, 0.3, 1.0), 10**4, 10**4,
                         (1.0, 0.5))
    assert not explosive.finite
    assert not (math.isfinite(explosive.point) and math.isfinite(explosive.mse))
