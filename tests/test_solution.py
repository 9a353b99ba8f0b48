import functools
import operator

import numpy as np
import pytest

from tvar2 import (ConstantSchedule, evaluate_solution, forecast,
                   forward_recursion, general_solution)
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
