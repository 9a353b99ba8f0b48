import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from tvar2 import (BreakSchedule, ConstantSchedule, CyclicalSchedule,
                   PeriodicSchedule, ScheduleError, block_determinant_oracle,
                   block_spec, constant_xi, decomposition_report,
                   green_functions, xi_abar_decomposed, xi_block_decomposed,
                   xi_car_decomposed, xi_par_decomposed)
from tvar2.blockdet import BlockSpec, relative_deviation, segment_layout
from conftest import random_schedule


def _random_tuple(rng):
    return (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
            float(rng.uniform(-1, 1)), 1.0)


def _random_periodic(rng, l):
    return PeriodicSchedule([_random_tuple(rng) for _ in range(l)])


def _random_cyclical(rng, d):
    l = d + 1 + int(rng.integers(0, 5))
    bounds = sorted(int(b) for b in rng.choice(range(1, l), size=d,
                                               replace=False))
    return CyclicalSchedule(l, bounds, [_random_tuple(rng)
                                        for _ in range(d + 1)])


def _random_breaks(rng, r):
    horizon = r + 1 + int(rng.integers(0, 2 * r + 3))
    offsets = sorted(int(o) for o in rng.choice(range(1, horizon), size=r,
                                                replace=False))
    return BreakSchedule(60, horizon, offsets, [_random_tuple(rng)
                                                for _ in range(r + 1)])


def _recurrence_segment(schedule):
    def segment_xi(anchor, depth):
        if depth <= 0:
            return 1.0 if depth == 0 else 0.0
        return green_functions(schedule, anchor, depth).xi(depth)
    return segment_xi


def _closed_form_segment(schedule):
    def segment_xi(anchor, depth):
        if depth <= 0:
            return 1.0 if depth == 0 else 0.0
        tup = schedule.at(anchor)
        return constant_xi(tup.phi1, tup.phi2, depth)
    return segment_xi


def _enumerated(t, spec, segment_xi):
    """The paper's sum over the 2^d selector vectors, term by term.

    Bit j of a selector says whether the addend crosses boundary j: the
    segments on either side of it each lose the step next to it, and the
    coupling phi2 there joins them.  The addends are products of the same
    float segment values the transfer product reads, multiplied and summed
    exactly, so the oracle itself loses no digits to cancellation.
    """
    b = (0,) + spec.boundaries + (spec.total,)
    couplings = (1.0,) + spec.couplings

    @functools.cache
    def factor(j, p, c):   # segment j, bits p at its newer end, c at its older
        return (Fraction(couplings[j] if p else 1.0)
                * Fraction(segment_xi(t - b[j] - p, b[j + 1] - b[j] - p - c)))

    total = Fraction(0)
    for sel in itertools.product((0, 1), repeat=len(spec.boundaries)):
        bits = (0,) + sel + (0,)
        total += math.prod((factor(j, bits[j], bits[j + 1])
                            for j in range(len(b) - 1)), start=Fraction(1))
    return float(total)


def test_block_spec_validation():
    with pytest.raises(ScheduleError, match="strictly increasing"):
        BlockSpec(6, (4, 2), (0.1, 0.2))
    with pytest.raises(ScheduleError, match="strictly increasing"):
        BlockSpec(6, (0,), (0.1,))
    with pytest.raises(ScheduleError, match="one coupling per boundary"):
        BlockSpec(6, (3,), ())


def test_two_segment_identity_explicit(rng):
    # xi_{t,2l} = xi_{t,l} xi_{t-l,l}
    #           + phi2(t-l+1) xi_{t,l-1} xi_{t-l-1,l-1}
    for l in (2, 3, 4, 5):
        s = _random_periodic(rng, l)
        t = 4 * l
        lhs = green_functions(s, t, 2 * l).xi(2 * l)
        top = green_functions(s, t, l)
        bottom = green_functions(s, t - l, l)
        shifted = green_functions(s, t - l - 1, l - 1)
        rhs = (top.xi(l) * bottom.xi(l)
               + s.at(t - l + 1).phi2 * top.xi(l - 1) * shifted.xi(l - 1))
        assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)
        assert xi_par_decomposed(s, t, 2) == pytest.approx(lhs, rel=1e-12,
                                                           abs=1e-12)


def test_three_segment_identity_explicit(rng):
    # four addends, one per choice of crossing each of the two boundaries
    for l in (2, 3, 4):
        s = _random_periodic(rng, l)
        t = 6 * l
        c1 = s.at(t - l + 1).phi2
        c2 = s.at(t - 2 * l + 1).phi2

        def g(anchor, depth):
            if depth < 0:
                return 0.0
            return green_functions(s, anchor, max(depth, 0)).xi(depth)

        rhs = (g(t, l) * g(t - l, l) * g(t - 2 * l, l)
               + c1 * g(t, l - 1) * g(t - l - 1, l - 1) * g(t - 2 * l, l)
               + c2 * g(t, l) * g(t - l, l - 1) * g(t - 2 * l - 1, l - 1)
               + c1 * c2 * g(t, l - 1) * g(t - l - 1, l - 2)
               * g(t - 2 * l - 1, l - 1))
        lhs = green_functions(s, t, 3 * l).xi(3 * l)
        assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)
        assert xi_par_decomposed(s, t, 3) == pytest.approx(lhs, rel=1e-12,
                                                           abs=1e-12)


def test_periodic_decomposition_against_recurrence_and_determinant(rng):
    for l in (2, 3, 4, 5):
        for n in (1, 2, 3, 4):
            s = _random_periodic(rng, l)
            t = (n + 1) * l
            dec = xi_par_decomposed(s, t, n)
            ref = green_functions(s, t, n * l).xi(n * l)
            assert dec == pytest.approx(ref, rel=1e-11, abs=1e-11)
            spec = block_spec(s, t, [j * l for j in range(1, n)], n * l)
            det = block_determinant_oracle(s, t, spec)
            assert det == pytest.approx(ref, rel=1e-11, abs=1e-11)


def test_periodic_decomposition_requires_period_end():
    s = _random_periodic(np.random.default_rng(0), 4)
    with pytest.raises(ScheduleError, match="last season"):
        xi_par_decomposed(s, 10, 2)


def test_cyclical_decomposition(rng):
    for d in (1, 2, 3):
        l = d + int(rng.integers(2, 5))
        bounds = sorted(rng.choice(range(1, l), size=d, replace=False))
        cycles = [(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                   float(rng.uniform(-1, 1)), 1.0) for _ in range(d + 1)]
        s = CyclicalSchedule(l, [int(b) for b in bounds], cycles)
        t = 3 * l
        dec = xi_car_decomposed(s, t)
        ref = green_functions(s, t, l).xi(l)
        assert dec == pytest.approx(ref, rel=1e-11, abs=1e-11)


def test_break_decomposition_uses_root_closed_form(rng):
    for r in (1, 2, 3, 4):
        horizon = int(rng.integers(2 * r + 2, 4 * r + 6))
        offsets = sorted(rng.choice(range(1, horizon), size=r, replace=False))
        regimes = [(0.0, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                    1.0) for _ in range(r + 1)]
        s = BreakSchedule(60, horizon, [int(o) for o in offsets], regimes)
        dec = xi_abar_decomposed(s, 60, horizon)
        ref = green_functions(s, 60, horizon).xi(horizon)
        assert dec == pytest.approx(ref, rel=1e-11, abs=1e-11)


def test_break_decomposition_rejects_other_anchor():
    s = BreakSchedule(60, 6, [3], [(0, 0.5, -0.2, 1), (0, 0.3, 0.1, 1)])
    with pytest.raises(ScheduleError, match="anchor and horizon"):
        xi_abar_decomposed(s, 59, 6)


def test_generic_boundaries_three_way(rng):
    for _ in range(15):
        s = random_schedule(rng, -40, 40)
        t = int(rng.integers(0, 20))
        total = int(rng.integers(4, 16))
        d = int(rng.integers(1, min(4, total - 1)))
        bounds = sorted(rng.choice(range(1, total), size=d, replace=False))
        spec = block_spec(s, t, [int(b) for b in bounds], total)
        dec = xi_block_decomposed(s, t, spec)
        ref = green_functions(s, t, total).xi(total)
        det = block_determinant_oracle(s, t, spec)
        assert dec == pytest.approx(ref, rel=1e-11, abs=1e-11)
        assert det == pytest.approx(ref, rel=1e-11, abs=1e-11)


def test_report_rows(rng):
    s = random_schedule(rng, -20, 20)
    spec = block_spec(s, 10, [3], 7)
    dec = xi_block_decomposed(s, 10, spec)
    rows = decomposition_report(s, 10, spec, dec)
    assert [r[0] for r in rows] == ["recurrence", "decomposition",
                                    "block-determinant"]
    assert rows[0][2] == 0.0
    assert all(r[2] < 1e-11 for r in rows)


def test_report_past_the_oracle_cap_leaves_out_the_block_determinant():
    # two periods of 40 seasons: 80 > ORACLE_CAP, so no 80 x 80 matrix
    s = PeriodicSchedule([(0.1, 0.9 + 0.005 * (j % 5), 0.05, 1.0)
                          for j in range(40)])
    t, spec = segment_layout(s, None, 2)
    rows = decomposition_report(s, t, spec, xi_par_decomposed(s, t, 2))
    assert [r[0] for r in rows] == ["recurrence", "decomposition"]
    assert rows[0][2] == 0.0 and rows[1][2] < 1e-14


@pytest.mark.parametrize("d", range(11))
def test_transfer_product_equals_the_enumeration(rng, d):
    rng = np.random.default_rng(1000 + d)
    s = _random_periodic(rng, int(rng.integers(2, 6)))
    t = (d + 2) * s.period
    _, spec = segment_layout(s, t, d + 1)
    want = _enumerated(t, spec, _recurrence_segment(s))
    assert xi_par_decomposed(s, t, d + 1) == pytest.approx(want, rel=1e-12,
                                                           abs=0)

    s = _random_cyclical(rng, d)
    t = 3 * s.period
    _, spec = segment_layout(s, t)
    want = _enumerated(t, spec, _recurrence_segment(s))
    assert xi_car_decomposed(s, t) == pytest.approx(want, rel=1e-12, abs=0)

    s = _random_breaks(rng, d)
    _, spec = segment_layout(s)
    want = _enumerated(60, spec, _closed_form_segment(s))
    assert xi_abar_decomposed(s, 60, s.horizon) == pytest.approx(
        want, rel=1e-12, abs=0)

    for _ in range(3):
        s = random_schedule(rng, -40, 40)
        t = int(rng.integers(0, 20))
        total = d + 1 + int(rng.integers(0, 15))
        bounds = sorted(int(b) for b in rng.choice(range(1, total), size=d,
                                                   replace=False))
        spec = block_spec(s, t, bounds, total)
        want = _enumerated(t, spec, _recurrence_segment(s))
        assert xi_block_decomposed(s, t, spec) == pytest.approx(
            want, rel=1e-12, abs=0)


@pytest.mark.parametrize("d", [0, 1, 2, 7, 14])
def test_transfer_product_evaluates_each_segment_at_most_four_times(rng, d):
    s = random_schedule(rng, -60, 40)
    total = 3 * (d + 1)
    spec = block_spec(s, 30, range(3, total, 3), total)
    calls = []
    recurrence = _recurrence_segment(s)

    def counting(anchor, depth):
        calls.append((anchor, depth))
        return recurrence(anchor, depth)

    value = xi_block_decomposed(s, 30, spec, counting)
    assert len(calls) <= 4 * (d + 1)
    assert value == pytest.approx(green_functions(s, 30, total).xi(total),
                                  rel=1e-11, abs=0)


def test_segment_layout_declares_each_kind():
    s = PeriodicSchedule([(0.0, 0.5, -0.2, 1.0), (0.0, 0.3, 0.1, 1.0),
                          (0.0, 0.2, 0.4, 1.0)])
    assert segment_layout(s, None, 3) == (9, BlockSpec(9, (3, 6), (-0.2, -0.2)))
    assert segment_layout(s, 12, 2) == (12, BlockSpec(6, (3,), (-0.2,)))
    with pytest.raises(ValueError, match="n must be >= 1"):
        segment_layout(s, None, 0)
    with pytest.raises(ScheduleError, match="last season"):
        segment_layout(s, 10, 2)

    s = CyclicalSchedule(6, [2, 4], [(0.0, 0.5, -0.2, 1.0),
                                     (0.0, -0.3, 0.4, 1.0),
                                     (0.0, 0.8, -0.1, 1.0)])
    # offsets back from the anchor: cycle 3 (seasons 5-6) is the newest
    assert segment_layout(s) == (6, BlockSpec(6, (2, 4), (-0.1, 0.4)))
    assert segment_layout(s, 18, 5) == segment_layout(s, 18)
    with pytest.raises(ScheduleError, match="last season"):
        segment_layout(s, 7)

    s = BreakSchedule(50, 10, [3, 7], [(0.0, 0.5, -0.2, 1.0),
                                       (0.0, -0.4, 0.3, 1.0),
                                       (0.0, 0.9, -0.5, 1.0)])
    # each coupling is phi2 at the oldest time of the newer regime
    assert segment_layout(s) == (50, BlockSpec(10, (3, 7), (-0.2, 0.3)))
    assert segment_layout(s, 49) == segment_layout(s)

    with pytest.raises(ScheduleError, match="periodic, cyclical or abrupt"):
        segment_layout(ConstantSchedule(0.0, 0.5, -0.2, 1.0))


def test_report_deviation_is_relative_to_the_recurrence():
    s = PeriodicSchedule([(0.2, 0.6, -0.1, 1.0), (0.0, -0.4, 0.2, 1.5),
                          (0.1, 0.8, -0.3, 0.8), (0.3, 0.1, 0.25, 1.2)])
    t, spec = segment_layout(s, None, 3)
    reference = green_functions(s, t, spec.total).xi(spec.total)
    assert abs(reference) < 1e-4
    rows = decomposition_report(s, t, spec, reference * (1 + 1e-9))
    assert rows[1][2] == pytest.approx(1e-9, rel=1e-6)
    assert rows[2][2] < 1e-14
    assert relative_deviation(-3.0, -2.0) == 0.5
    assert relative_deviation(1e-3, 0.0) == 1e-3
    assert relative_deviation(1e-3, -0.0) == 1e-3
