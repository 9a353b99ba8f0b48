from itertools import islice

import numpy as np
import pytest

from tvar2 import (BreakSchedule, ConstantSchedule, PeriodicSchedule,
                   ScheduleError,
                   block_determinant_oracle, block_spec, constant_xi,
                   green_functions, xi, xi_determinant_oracle, xi_second,
                   xi_second_determinant_oracle, xi_stream)
from tvar2.blockdet import assemble_block_matrix
from tvar2.solution import particular_solution_determinant_oracle
from tvar2.xi import ORACLE_CAP, OracleCapError, fundamental_matrix
from conftest import random_schedule


def test_base_cases():
    s = ConstantSchedule(0.0, 0.7, -0.1, 1.0)
    assert xi(s, 5, -1) == 0.0
    assert xi(s, 5, 0) == 1.0
    assert xi(s, 5, 1) == 0.7


def test_known_table_for_constant_coefficients():
    s = ConstantSchedule(0.0, 1.2, -0.32, 1.0)
    table = green_functions(s, 10, 4)
    expected = [1.0, 1.2, 1.12, 0.96, 0.7936]
    assert np.allclose(table.values, expected, rtol=0, atol=1e-14)


def test_recurrence_matches_determinant_oracle_random(rng):
    for _ in range(25):
        s = random_schedule(rng, -20, 20)
        t = int(rng.integers(-5, 15))
        table = green_functions(s, t, 12)
        for k in range(1, 13):
            det = xi_determinant_oracle(s, t, k)
            assert det == pytest.approx(table.xi(k), rel=1e-10, abs=1e-12)


def test_anchor_shift_recurrence_holds(rng):
    # xi_{t,k} = phi1(t) xi_{t-1,k-1} + phi2(t) xi_{t-2,k-2}
    for _ in range(10):
        s = random_schedule(rng, -30, 30)
        t = int(rng.integers(0, 20))
        cur = green_functions(s, t, 10)
        lag1 = green_functions(s, t - 1, 10)
        lag2 = green_functions(s, t - 2, 10)
        tup = s.at(t)
        for k in range(2, 11):
            combined = tup.phi1 * lag1.xi(k - 1) + tup.phi2 * lag2.xi(k - 2)
            assert cur.xi(k) == pytest.approx(combined, rel=1e-12, abs=1e-12)


def test_stream_is_lazy_and_consistent_with_table(rng):
    s = random_schedule(rng, -40, 10)
    stream = xi_stream(s, 5)
    head = [next(stream) for _ in range(8)]
    table = green_functions(s, 5, 7)
    assert np.allclose(head, table.values)


def test_kernel_keeps_the_per_step_operand_order(rng):
    s = random_schedule(rng, -60, 10)
    want = [1.0, s.at(5).phi1]
    for i in range(2, 61):
        want.append(s.at(5 - i + 1).phi1 * want[-1]
                    + s.at(5 - i + 2).phi2 * want[-2])
    assert green_functions(s, 5, 60).values.tolist() == want
    stream = xi_stream(s, 5)
    assert [next(stream) for _ in range(61)] == want


def test_stream_stops_at_the_break_window_edge():
    s = BreakSchedule(50, 5, [2], [(0, 0.5, 0.1, 1), (0, 0.2, 0.1, 1)])
    stream = xi_stream(s, 50)
    # xi_{50,i} reads back to time 51 - i: i = 6 reaches the edge at 45
    head = [next(stream) for _ in range(7)]
    assert head == green_functions(s, 50, 6).values.tolist()
    with pytest.raises(ScheduleError, match="t=44 outside break-schedule window"):
        next(stream)


def test_stream_floor_moves_no_bit_and_still_reads_past_it():
    # a floor only shapes the windows: past it, one time at a time, down to
    # the schedule's earliest time
    s = BreakSchedule(50, 40, [7], [(0, 0.5, 0.1, 1), (0, 0.2, -0.1, 1)])
    # xi_{50,i} reads back to time 51 - i: i = 41 reaches the edge at 10
    whole = list(islice(xi_stream(s, 50), 42))
    floored = xi_stream(s, 50, 45)
    assert list(islice(floored, 42)) == whole
    with pytest.raises(ScheduleError, match="t=9 outside"):
        next(floored)


EDGE_DEPTHS = (31, 32, 33, 63, 64, 65, 1000)


@pytest.mark.parametrize("kind", ["periodic", "generic", "breaks"])
def test_stream_and_table_agree_bit_for_bit_across_window_edges(rng, kind):
    t = 2000
    if kind == "periodic":   # phi1(t) = -0.0: xi_{t,1} keeps its sign
        s = PeriodicSchedule([(0.1, 0.5, 0.3, 1.0), (0.0, -0.4, 0.2, 1.5),
                              (0.2, 0.7, -0.3, 0.8), (0.0, -0.0, 0.25, 1.2)])
    elif kind == "generic":
        s = random_schedule(rng, t - 1100, t, coeff_range=0.6)
    else:   # runs up to the window edge at t - 1001
        s = BreakSchedule(t, 1001, [31, 64, 500], [
            (0.0, 0.5, 0.3, 1.0), (0.1, -0.4, 0.2, 1.0),
            (0.0, 0.7, -0.3, 2.0), (0.2, 0.1, 0.25, 1.0)])
    stream = xi_stream(s, t)
    head = np.array(list(islice(stream, 1003 if kind == "breaks" else 1001)))
    for k in EDGE_DEPTHS + ((1002,) if kind == "breaks" else ()):
        assert green_functions(s, t, k).values.tobytes() == head[:k + 1].tobytes()
    if kind == "periodic":
        assert str(head[1]) == "-0.0"
    if kind == "breaks":
        with pytest.raises(ScheduleError, match="t=998 outside"):
            next(stream)


def test_depth_zero_table_reads_no_window(monkeypatch):
    s = ConstantSchedule(0.0, 0.7, -0.1, 1.0)
    monkeypatch.setattr(s, "window", lambda *args: pytest.fail("window read"))
    assert green_functions(s, 5, 0).values.tolist() == [1.0]
    assert next(xi_stream(s, 5)) == 1.0


def test_second_solution_identity(rng):
    for _ in range(10):
        s = random_schedule(rng, -30, 30)
        t = int(rng.integers(0, 20))
        for k in range(1, 21):
            expected = s.at(t - k + 1).phi2 * xi(s, t, k - 1)
            assert xi_second(s, t, k) == pytest.approx(expected, abs=1e-14)


def test_second_solution_matches_its_determinant(rng):
    for _ in range(10):
        s = random_schedule(rng, -30, 30)
        t = int(rng.integers(0, 20))
        k = int(rng.integers(1, 13))
        det = xi_second_determinant_oracle(s, t, k)
        assert det == pytest.approx(xi_second(s, t, k), rel=1e-10, abs=1e-12)


def test_matrix_layout():
    s = ConstantSchedule(0.0, 0.7, -0.1, 1.0)
    mat = fundamental_matrix(s, 10, 3)
    assert np.allclose(mat, [[0.7, -1.0, 0.0],
                             [-0.1, 0.7, -1.0],
                             [0.0, -0.1, 0.7]])


def test_oracle_cap():
    s = ConstantSchedule(0.0, 0.5, 0.1, 1.0)
    with pytest.raises(OracleCapError):
        xi_determinant_oracle(s, 0, 65)
    # every determinant oracle refuses ORACLE_CAP + 1 and answers at the cap
    over, at = ORACLE_CAP + 1, ORACLE_CAP
    oracles = [
        lambda k: xi_determinant_oracle(s, 0, k),
        lambda k: xi_second_determinant_oracle(s, 0, k),
        lambda k: particular_solution_determinant_oracle(s, 0, k, [0.0] * k),
        lambda k: assemble_block_matrix(s, 0, block_spec(s, 0, [k // 2], k)),
        lambda k: block_determinant_oracle(s, 0, block_spec(s, 0, [k // 2], k)),
    ]
    for oracle in oracles:
        with pytest.raises(OracleCapError, match=f"oracle cap {at} exceeded"):
            oracle(over)
        assert np.all(np.isfinite(oracle(at)))


@pytest.mark.parametrize("call, error, match", [
    (lambda s: green_functions(s, 5, 2).xi(3), IndexError,
     r"depth 3 not in table \(-1..2\)"),
    (lambda s: green_functions(s, 5, 2).xi(-2), IndexError,
     r"depth -2 not in table"),
    (lambda s: green_functions(s, 5, -1), ValueError, "k_max must be >= 0"),
    (lambda s: xi(s, 5, -2), ValueError, "k must be >= -1"),
    (lambda s: xi_second(s, 5, 0), ValueError, "k must be >= 1"),
    (lambda s: constant_xi(0.5, 0.1, -2), ValueError, "k must be >= -1"),
], ids=["table-past-depth", "table-below-minus-one", "green-k-max-negative",
        "xi-k-below-minus-one", "xi-second-k0", "constant-xi-k-below-minus-one"])
def test_argument_guards(call, error, match):
    with pytest.raises(error, match=match):
        call(ConstantSchedule(0.0, 0.5, 0.1, 1.0))


def test_constant_closed_form_distinct_roots():
    # 1 - 1.2 z + 0.32 z^2 factors with roots 0.8 and 0.4
    for k in range(31):
        closed = (0.8 ** (k + 1) - 0.4 ** (k + 1)) / 0.4
        assert constant_xi(1.2, -0.32, k) == pytest.approx(closed, rel=1e-12)


def test_constant_closed_form_repeated_root():
    # phi1 = 1.0, phi2 = -0.25 gives the double root 0.5
    for k in range(25):
        assert constant_xi(1.0, -0.25, k) == pytest.approx(
            (k + 1) * 0.5 ** k, rel=1e-9)


def test_constant_closed_form_complex_roots_match_recurrence():
    s = ConstantSchedule(0.0, 0.6, -0.8, 1.0)
    table = green_functions(s, 0, 20)
    for k in range(21):
        assert constant_xi(0.6, -0.8, k) == pytest.approx(
            table.xi(k), rel=1e-10, abs=1e-12)


def test_constant_closed_form_agrees_with_schedule_recurrence(rng):
    for _ in range(20):
        phi1 = float(rng.uniform(-1.5, 1.5))
        phi2 = float(rng.uniform(-1.0, 1.0))
        s = ConstantSchedule(0.0, phi1, phi2, 1.0)
        table = green_functions(s, 0, 15)
        for k in range(16):
            assert constant_xi(phi1, phi2, k) == pytest.approx(
                table.xi(k), rel=1e-9, abs=1e-9)
