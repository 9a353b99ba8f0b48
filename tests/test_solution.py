import functools
import operator
from collections import Counter

import numpy as np
import pytest

import tvar2.simulate as sim
from tvar2 import (BreakSchedule, ConstantSchedule, GenericSchedule,
                   PeriodicSchedule, ScheduleError, SimulationConfig,
                   evaluate_solution, forecast, forward_recursion,
                   general_solution, green_functions, xi, xi_second)
from tvar2.solution import particular_solution_determinant_oracle
from conftest import random_schedule


def test_zero_lookback_is_identity():
    s = ConstantSchedule(0.3, 0.5, -0.1, 1.0)
    sol = general_solution(s, 7, 0)
    assert sol.w0 == 1.0
    assert sol.w1 == 0.0
    assert sol.drift == 0.0
    assert evaluate_solution(sol, (4.2, -1.0), []) == 4.2


def test_one_step_reproduces_defining_recursion(rng):
    for _ in range(20):
        s = random_schedule(rng, -10, 10)
        t = int(rng.integers(-5, 10))
        y0, y1 = rng.normal(size=2)
        eps = float(rng.normal())
        sol = general_solution(s, t, 1)
        tup = s.at(t)
        direct = tup.phi0 + tup.phi1 * y0 + tup.phi2 * y1 + eps
        assert evaluate_solution(sol, (y0, y1), [eps]) == pytest.approx(
            direct, rel=1e-14, abs=1e-14)


def test_closed_form_equals_forward_recursion(rng):
    for _ in range(30):
        s = random_schedule(rng, -20, 20)
        t = int(rng.integers(-5, 15))
        k = int(rng.integers(1, 13))
        y_init = tuple(rng.normal(size=2))
        eps = list(rng.normal(size=k))
        direct = forward_recursion(s, t, k, y_init, eps)
        sol = general_solution(s, t, k)
        closed = evaluate_solution(sol, y_init, eps)
        assert closed == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_particular_part_equals_determinant_oracle(rng):
    for _ in range(30):
        s = random_schedule(rng, -20, 20)
        t = int(rng.integers(-5, 15))
        k = int(rng.integers(1, 13))
        eps = list(rng.normal(size=k))
        sol = general_solution(s, t, k)
        particular = evaluate_solution(sol, (0.0, 0.0), eps)
        det = particular_solution_determinant_oracle(s, t, k, eps)
        assert det == pytest.approx(particular, rel=1e-10, abs=1e-10)


def test_homogeneous_weights_are_fundamental_solutions(rng):
    s = random_schedule(rng, -20, 20)
    sol = general_solution(s, 10, 6)
    # zero forcing: value is w0 y_{t-k} + w1 y_{t-k-1}
    value = evaluate_solution(sol, (2.0, -3.0), [0.0] * 6)
    drift_free = value - sol.drift
    assert drift_free == pytest.approx(2.0 * sol.w0 - 3.0 * sol.w1, abs=1e-12)


def test_innovation_weight_ordering(rng):
    # weights index i multiplies the innovation at time t-i (newest first)
    s = random_schedule(rng, -20, 20)
    t, k = 8, 5
    sol = general_solution(s, t, k)
    for i in range(k):
        eps = [0.0] * k
        eps[k - 1 - i] = 1.0
        bump = evaluate_solution(sol, (0.0, 0.0), eps) - sol.drift
        assert bump == pytest.approx(sol.innovation_weights[i], abs=1e-12)


def test_innovation_length_checked():
    s = ConstantSchedule(0.0, 0.5, 0.1, 1.0)
    sol = general_solution(s, 5, 3)
    with pytest.raises(ValueError, match="expected 3 innovations"):
        evaluate_solution(sol, (0.0, 0.0), [1.0, 2.0])


@pytest.mark.parametrize("call, match", [
    (lambda s: general_solution(s, 5, -1), "k must be >= 0"),
    (lambda s: evaluate_solution(general_solution(s, 5, 3), (0.0, 0.0),
                                 [1.0] * 4), "expected 3 innovations, got 4"),
], ids=["lookback-negative", "too-many-innovations"])
def test_argument_guards(call, match):
    with pytest.raises(ValueError, match=match):
        call(ConstantSchedule(0.0, 0.5, 0.1, 1.0))


@pytest.mark.parametrize("k", [1, 2, 9, 40, 300])
@pytest.mark.parametrize("phi0", ["random", "-0.0"])
def test_drift_and_mse_add_their_terms_one_at_a_time(k, phi0):
    # newest first from 0.0, as a loop adds them: not pairwise, as numpy's
    # sum adds, nor compensated, as Python 3.12's sum adds.  A -0.0 first
    # term therefore gives 0.0
    s = (ConstantSchedule(-0.0, 0.5, -0.2, 1.3) if phi0 == "-0.0" else
         random_schedule(np.random.default_rng(k), -k, 5, coeff_range=0.5))
    sol = general_solution(s, 5, k)
    newest_first = s.window(6 - k, 5)[::-1]
    terms = (sol.innovation_weights * newest_first[:, 0]).tolist()
    squares = (sol.innovation_weights ** 2 * newest_first[:, 3]).tolist()
    assert sol.drift.hex() == functools.reduce(operator.add, terms, 0.0).hex()
    assert (forecast(s, 5, k, (0.0, 0.0)).mse.hex()
            == functools.reduce(operator.add, squares, 0.0).hex())


# --- the general solution is the xi kernel's: one walk over one window,
# pinned bit for bit to the green table, xi and xi_second of the same times

_PINNED = {
    # season 3 holds a -0.0 phi1 (and a -0.0 phi0): anchors at t = 3 + 4n
    "tiled": (PeriodicSchedule([(0.2, 0.6, -0.1, 1.0), (0.0, -0.4, 0.2, 1.5),
                                (-0.0, -0.0, -0.3, 0.8),
                                (0.3, 0.99, 0.25, 1.2)]), 7),
    # weights decay as 0.98^i: still normal floats at i = 9000
    "generic": (GenericSchedule(lambda t: (0.1 * (t % 5) - 0.2,
                                           0.99 + 0.005 * (t % 3), -0.02,
                                           1.0 + 0.1 * (t % 4))), 11),
    "breaks": (BreakSchedule(100, 40, [10, 25], [(0.1, 0.5, -0.2, 1.0),
                                                 (-0.0, -0.0, 0.3, 2.0),
                                                 (0.4, 1.1, -0.5, 0.5)]), 100),
    "overflow-to-inf": (ConstantSchedule(0.5, 2.5, 0.3, 1.0), 3),
    "overflow-to-nan": (ConstantSchedule(0.5, 3.0, -1.5, 1.0), 3),
}


def _hex(values):
    return [float(v).hex() for v in values]


# k past 4096 walks more than one slice of rows; the break window holds 41
@pytest.mark.parametrize("name, k", [
    (name, k) for name in _PINNED
    for k in (0, 1, 2, 3, 41, 900, 4096, 4097, 9000)
    if name != "breaks" or k <= 41])
def test_general_solution_is_the_xi_kernel_bit_for_bit(name, k):
    s, t = _PINNED[name]
    sol = general_solution(s, t, k)
    rows = s.window(t - k + 1, t)[::-1].tolist()
    assert _hex(sol.innovation_weights) == _hex(
        green_functions(s, t, k).values[:k])
    assert sol.w0.hex() == xi(s, t, k).hex()
    assert sol.w1.hex() == (xi_second(s, t, k) if k else 0.0).hex()
    w = sol.innovation_weights.tolist()
    assert sol.drift.hex() == functools.reduce(
        operator.add, [x * r[0] for x, r in zip(w, rows)], 0.0).hex()
    if k:
        mse = functools.reduce(operator.add,
                               [x * x * r[3] for x, r in zip(w, rows)], 0.0)
        result = forecast(s, t, k, (0.0, 0.0))
        assert result.mse.hex() == mse.hex()
        assert _hex(result.error_weights) == _hex(w)
    if name == "tiled" and k:   # xi_{t,1} is phi1(t) = -0.0 itself
        assert (w + [sol.w0])[1].hex() == "-0x0.0p+0"


def test_general_solution_raises_as_the_xi_kernel_reads():
    s, t = _PINNED["breaks"]
    bounded = GenericSchedule(
        lambda t: (0.0, 0.5, -0.2, 9.0 if t == 37 else 1.0),
        sigma2_bounds=(0.5, 5.0))
    for schedule, t, k, text in [
            (s, t, 42, "t=59 outside break-schedule window [60, 100]"),
            (s, 101, 1, "t=101 outside break-schedule window [60, 100]"),
            (bounded, 50, 20, "sigma2=9.0 at t=37 outside declared bounds "
                              "(0.5, 5.0)")]:
        for call in (lambda: xi(schedule, t, k),
                     lambda: general_solution(schedule, t, k),
                     lambda: forecast(schedule, t, k, (0.0, 0.0))):
            with pytest.raises(ScheduleError) as info:
                call()
            assert str(info.value) == text


@pytest.mark.parametrize("burn_in", [1, 2, 300])
def test_each_general_solution_reads_each_time_once(monkeypatch, burn_in):
    # general_solution, forecast and a uniform start read the window of
    # their times once, and walk the rows of that one read
    s = GenericSchedule(lambda t: (0.1, 0.5, -0.2, 1.0 + 0.1 * (t % 3)))
    reads = Counter()
    window = s.window

    def counted(t_lo, t_hi):
        reads.update(range(t_lo, t_hi + 1))
        return window(t_lo, t_hi)

    monkeypatch.setattr(s, "window", counted)
    t, k = 50, burn_in
    once = Counter(range(t - k + 1, t + 1))
    for call in (lambda: general_solution(s, t, k),
                 lambda: forecast(s, t, k, (0.0, 0.0)),
                 lambda: sim._start(SimulationConfig(
                     s, 256, t + 3, 3, seed=1, burn_in=k,
                     innovations="uniform"), t)):
        reads.clear()
        call()
        assert reads == once
