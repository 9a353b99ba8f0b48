"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line so the suite output doubles as
the acceptance report.  Tolerances and runtime bounds are asserted, not
just reported.
"""

import time

import numpy as np
import pytest

import tvar2.cli as cli
from tvar2 import (ConstantSchedule, PeriodicSchedule, SimulationConfig,
                   autocovariance, block_determinant_oracle, block_spec,
                   constant_xi, empirical_forecast_error,
                   evaluate_solution, forecast, forward_recursion,
                   general_solution, green_functions, par24_restriction,
                   stationarity_check, unconditional_mean,
                   unconditional_variance, xi_determinant_oracle, xi_second)
from tvar2.schedules import BreakSchedule, CyclicalSchedule
from tvar2.solution import particular_solution_determinant_oracle
from conftest import random_schedule

SEED = 0


def _report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num} ({label}): {'pass' if ok else 'fail'}")
    assert ok, f"criterion {num} ({label}) failed"


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_1_recurrence_vs_determinant():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        s = random_schedule(rng, -20, 20)
        t = int(rng.integers(-5, 15))
        table = green_functions(s, t, 12)
        for k in range(1, 13):
            if not _rel_close(table.xi(k), xi_determinant_oracle(s, t, k),
                              1e-10):
                ok = False
    elapsed = time.perf_counter() - start
    _report(1, "recurrence equals determinant oracle", ok and elapsed < 5.0)


def test_criterion_2_solution_triangle():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        s = random_schedule(rng, -20, 20)
        t = int(rng.integers(-5, 15))
        k = int(rng.integers(1, 13))
        y_init = tuple(rng.normal(size=2))
        eps = list(rng.normal(size=k))
        sol = general_solution(s, t, k)
        closed = evaluate_solution(sol, y_init, eps)
        direct = forward_recursion(s, t, k, y_init, eps)
        homogeneous = sol.w0 * y_init[0] + sol.w1 * y_init[1]
        split = homogeneous + particular_solution_determinant_oracle(
            s, t, k, eps)
        for a, b in ((closed, direct), (closed, split), (direct, split)):
            if not _rel_close(a, b, 1e-10):
                ok = False
    elapsed = time.perf_counter() - start
    _report(2, "closed form, recursion and determinant split agree",
            ok and elapsed < 5.0)


def test_criterion_3_block_decompositions():
    from tvar2.blockdet import (xi_abar_decomposed, xi_car_decomposed,
                                xi_par_decomposed)
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    ok = True

    def three_way(schedule, t, boundaries, total, decomposed):
        ref = green_functions(schedule, t, total).xi(total)
        spec = block_spec(schedule, t, boundaries, total)
        det = block_determinant_oracle(schedule, t, spec)
        return (_rel_close(decomposed, ref, 1e-11)
                and _rel_close(det, ref, 1e-11))

    def rand_tuple():
        return (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                float(rng.uniform(-1, 1)), 1.0)

    for l in range(2, 6):
        for n in range(1, 5):
            s = PeriodicSchedule([rand_tuple() for _ in range(l)])
            t = (n + 1) * l
            dec = xi_par_decomposed(s, t, n)
            bounds = [j * l for j in range(1, n)]
            ok = ok and three_way(s, t, bounds, n * l, dec)

    # two-period identity, written out term by term
    s = PeriodicSchedule([rand_tuple() for _ in range(4)])
    t, l = 12, 4
    lhs = green_functions(s, t, 2 * l).xi(2 * l)
    top = green_functions(s, t, l)
    rhs = (top.xi(l) * green_functions(s, t - l, l).xi(l)
           + s.at(t - l + 1).phi2 * top.xi(l - 1)
           * green_functions(s, t - l - 1, l - 1).xi(l - 1))
    ok = ok and _rel_close(lhs, rhs, 1e-11)

    # three-period identity: four addends
    t = 16
    c1, c2 = s.at(t - l + 1).phi2, s.at(t - 2 * l + 1).phi2

    def g(anchor, depth):
        return green_functions(s, anchor, depth).xi(depth)

    rhs = (g(t, l) * g(t - l, l) * g(t - 2 * l, l)
           + c1 * g(t, l - 1) * g(t - l - 1, l - 1) * g(t - 2 * l, l)
           + c2 * g(t, l) * g(t - l, l - 1) * g(t - 2 * l - 1, l - 1)
           + c1 * c2 * g(t, l - 1) * g(t - l - 1, l - 2)
           * g(t - 2 * l - 1, l - 1))
    ok = ok and _rel_close(green_functions(s, t, 3 * l).xi(3 * l), rhs, 1e-11)

    for d in range(1, 4):
        l = d + 3
        bounds = sorted(rng.choice(range(1, l), size=d, replace=False))
        s = CyclicalSchedule(l, [int(b) for b in bounds],
                             [rand_tuple() for _ in range(d + 1)])
        t = 3 * l
        dec = xi_car_decomposed(s, t)
        ok = ok and three_way(s, t, [l - b for b in reversed(s.boundaries)],
                              l, dec)

    for r in range(1, 5):
        horizon = 3 * r + 4
        offs = sorted(rng.choice(range(1, horizon), size=r, replace=False))
        s = BreakSchedule(50, horizon, [int(o) for o in offs],
                          [rand_tuple() for _ in range(r + 1)])
        dec = xi_abar_decomposed(s, 50, horizon)
        ok = ok and three_way(s, 50, list(s.offsets), horizon, dec)

    elapsed = time.perf_counter() - start
    _report(3, "segment decomposition three-way agreement",
            ok and elapsed < 10.0)


def test_criterion_4_constant_reduction():
    ok = True
    for k in range(31):
        closed = (0.8 ** (k + 1) - 0.4 ** (k + 1)) / 0.4
        if not _rel_close(constant_xi(1.2, -0.32, k), closed, 1e-10):
            ok = False
    for k in range(31):
        if not _rel_close(constant_xi(1.0, -0.25, k), (k + 1) * 0.5 ** k,
                          1e-10):
            ok = False
    _report(4, "constant-coefficient closed forms", ok)


def test_criterion_5_forecast_error_monte_carlo():
    start = time.perf_counter()
    constant = ConstantSchedule(0.0, 1.2, -0.32, 1.0)
    cfg = SimulationConfig(constant, 100_000, 60, 6, seed=SEED, burn_in=300,
                           workers=4)
    _, variance = empirical_forecast_error(cfg, 60, 3)
    ok = abs(variance.value - 3.6944) < 4 * variance.se

    periodic = PeriodicSchedule([(0.2, 0.6, -0.1, 1.0), (0.0, -0.4, 0.2, 1.5),
                                 (0.1, 0.8, -0.3, 0.8), (0.3, 0.1, 0.25, 1.2)])
    assert stationarity_check(periodic).stationary is True
    cfg = SimulationConfig(periodic, 100_000, 64, 7, seed=SEED, burn_in=300,
                           workers=4)
    _, variance = empirical_forecast_error(cfg, 64, 4)
    analytic = forecast(periodic, 64, 4, (0.0, 0.0)).mse
    ok = ok and abs(variance.value - analytic) < 4 * variance.se
    elapsed = time.perf_counter() - start
    _report(5, "forecast error variance within Monte Carlo bands",
            ok and elapsed < 30.0)


def test_criterion_6_first_order_moments():
    s = ConstantSchedule(1.0, 0.5, 0.0, 1.0)
    mean = unconditional_mean(s, 30)
    var = unconditional_variance(s, 30)
    ok = (mean.converged and var.converged
          and abs(mean.mean - 2.0) < 1e-8
          and abs(var.variance - 4.0 / 3.0) < 1e-8)
    for k in range(7):
        cov = autocovariance(s, 30, k)
        ok = ok and cov.converged and abs(
            cov.value - 0.5 ** k * 4.0 / 3.0) < 1e-8
    _report(6, "stable first-order closed-form moments", ok)


def test_criterion_7_stationarity_cross_method():
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(200):
        phi1s = rng.uniform(-1.4, 1.4, 4)
        s = PeriodicSchedule([(0.0, float(p), 0.0, 1.0) for p in phi1s])
        verdict = stationarity_check(s)
        product = abs(float(np.prod(phi1s)))
        if abs(product - 1.0) < 1e-8 or verdict.stationary is None:
            continue
        if (product < 1.0) != verdict.stationary:
            ok = False
    for _ in range(100):
        p1 = rng.uniform(-0.9, 0.9, 4)
        p2 = rng.uniform(-0.9, 0.9, 4)
        s = PeriodicSchedule([(0.0, float(a), float(b), 1.0)
                              for a, b in zip(p1, p2)])
        verdict = stationarity_check(s)
        value, satisfied = par24_restriction(s)
        if abs(value - 1.0) < 1e-8 or verdict.stationary is None:
            continue
        if satisfied != verdict.stationary:
            ok = False
    _report(7, "product and eight-term conditions match spectral radius", ok)


def test_criterion_8_special_cases():
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(20):
        s = random_schedule(rng, -25, 25)
        t = int(rng.integers(-5, 15))
        y0, y1 = rng.normal(size=2)
        sol0 = general_solution(s, t, 0)
        ok = ok and evaluate_solution(sol0, (y0, y1), []) == y0
        eps = float(rng.normal())
        tup = s.at(t)
        one_step = evaluate_solution(general_solution(s, t, 1), (y0, y1),
                                     [eps])
        direct = tup.phi0 + tup.phi1 * y0 + tup.phi2 * y1 + eps
        ok = ok and _rel_close(one_step, direct, 1e-12)
        for k in range(1, 21):
            expected = s.at(t - k + 1).phi2 * green_functions(s, t,
                                                              k - 1).xi(k - 1)
            ok = ok and abs(xi_second(s, t, k) - expected) < 1e-14
    _report(8, "degenerate horizons and second solution identity", ok)


CLI_CONFIG = """
schema_version: 1
schedule:
  kind: periodic
  seasons:
    - {phi0: 0.2, phi1: 0.6, phi2: -0.1, sigma2: 1.0}
    - {phi0: 0.0, phi1: -0.4, phi2: 0.2, sigma2: 1.5}
    - {phi0: 0.1, phi1: 0.8, phi2: -0.3, sigma2: 0.8}
    - {phi0: 0.3, phi1: 0.1, phi2: 0.25, sigma2: 1.2}
"""


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "schedule.yaml"
    cfg.write_text(CLI_CONFIG)
    cases = [["green", "--t", "12", "--k", "8"],
             ["forecast", "--t", "12", "--k", "4", "--y0", "1.5",
              "--y1", "-0.5"],
             ["acf", "--t", "12", "--max-lag", "4"],
             ["stationarity", "--matrices"],
             ["decompose-verify", "--n", "3", "--t", "12"],
             ["verify", "--t", "24"],
             ["simulate", "--t", "40", "--length", "4", "--paths", "25000",
              "--burn-in", "100", "--seed", "17"]]
    ok = True
    for case in cases:
        argv = [case[0], "--config", str(cfg)] + case[1:]
        outputs = []
        for run in range(2):
            out = tmp_path / f"{case[0]}-{run}.csv"
            code = cli.main(argv + ["--out", str(out)])
            ok = ok and code == 0
            outputs.append(out.read_bytes())
        ok = ok and outputs[0] == outputs[1]
        if case[0] == "simulate":
            for workers in ("1", "8"):
                out = tmp_path / f"simulate-w{workers}.csv"
                code = cli.main(argv + ["--workers", workers,
                                        "--out", str(out)])
                ok = ok and code == 0 and out.read_bytes() == outputs[0]
    _report(9, "byte-identical CLI output across runs and thread counts", ok)
