import cmath
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import tvar2.vs
from tvar2 import (BreakSchedule, ConstantSchedule, CyclicalSchedule,
                   GenericSchedule, PeriodicSchedule, ScheduleError, build_vs,
                   par24_restriction, stationarity_check,
                   unconditional_variance)
from tvar2._oracles import stacked_var_radius


def _par(phi1s, phi2s=None, sigma2=1.0):
    phi2s = phi2s or [0.0] * len(phi1s)
    return PeriodicSchedule([(0.0, p1, p2, sigma2)
                             for p1, p2 in zip(phi1s, phi2s)])


def test_matrix_entry_rules_four_seasons():
    s = _par([0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8])
    vs = build_vs(s)
    assert np.allclose(vs.phi0_mat, [[1.0, 0.0, 0.0, 0.0],
                                     [-0.2, 1.0, 0.0, 0.0],
                                     [-0.7, -0.3, 1.0, 0.0],
                                     [0.0, -0.8, -0.4, 1.0]])
    assert np.allclose(vs.phi1_mat, [[0.0, 0.0, 0.5, 0.1],
                                     [0.0, 0.0, 0.0, 0.6],
                                     [0.0, 0.0, 0.0, 0.0],
                                     [0.0, 0.0, 0.0, 0.0]])
    assert np.linalg.det(vs.phi0_mat) == pytest.approx(1.0, abs=1e-14)


def test_all_zero_coefficients():
    s = _par([0.0] * 4)
    vs = build_vs(s)
    assert np.array_equal(vs.phi0_mat, np.eye(4))
    assert np.array_equal(vs.phi1_mat, np.zeros((4, 4)))
    verdict = stationarity_check(s)
    assert verdict.stationary is True
    assert verdict.spectral_radius == 0.0
    assert verdict.margin == 1.0


def test_single_season_rejected():
    with pytest.raises(ScheduleError, match="at least 2 seasons"):
        build_vs(_par([0.5]))


def test_first_order_product_condition():
    # lag-2 coefficients all zero: the only nonzero lagged entry is (1, l)
    s = _par([0.5, 1.2, 0.9, 1.8])
    vs = build_vs(s)
    nonzero = np.nonzero(vs.phi1_mat)
    assert list(zip(*nonzero)) == [(0, 3)]
    verdict = stationarity_check(s)
    assert verdict.stationary is True
    # |product of seasonal lag-1 coefficients| = 0.972 < 1
    assert abs(np.prod([0.5, 1.2, 0.9, 1.8])) == pytest.approx(0.972)
    scaled = _par([0.5 * 1.2 / 0.972, 1.2, 0.9, 1.8])  # product 1.2
    assert stationarity_check(scaled).stationary is False


def test_first_order_product_matches_radius_random(rng):
    for _ in range(200):
        phi1s = rng.uniform(-1.4, 1.4, size=4)
        verdict = stationarity_check(_par(list(phi1s)))
        product = abs(float(np.prod(phi1s)))
        if abs(product - 1.0) < 1e-8 or verdict.stationary is None:
            continue
        assert (product < 1.0) == verdict.stationary
        # the one-period companion has a single nonzero eigenvalue,
        # the product of the seasonal coefficients
        assert verdict.spectral_radius == pytest.approx(product, rel=1e-8)


def test_restriction_reduces_to_product_without_lag2():
    s = _par([0.5, 1.2, 0.9, 1.8])
    value, ok = par24_restriction(s)
    assert value == pytest.approx(0.972, abs=1e-12)
    assert ok


def test_restriction_zero_coefficients():
    value, ok = par24_restriction(_par([0.0] * 4))
    assert value == 0.0
    assert ok


@pytest.mark.parametrize("phi2s, value, rho, stationary", [
    # z^2 - a z + b with a = -1.8, b = 0.81: a double root at -0.9, yet
    # the eight-term value |a - b| is above one
    ([-0.9, -0.9, 1.0, 1.0], 2.61, 0.9, True),
    # a = -1.0, b = -0.75: roots -1.5 and 0.5, yet the value is below one
    ([-1.5, 0.5, 1.0, 1.0], 0.25, 1.5, False),
])
def test_restriction_flag_follows_radius_not_value(phi2s, value, rho,
                                                   stationary):
    s = _par([0.0] * 4, phi2s)
    got_value, ok = par24_restriction(s)
    assert got_value == pytest.approx(value, abs=1e-12)
    verdict = stationarity_check(s)
    assert verdict.spectral_radius == pytest.approx(rho, abs=1e-12)
    assert ok is stationary
    assert verdict.stationary is stationary


def test_restriction_requires_four_seasons():
    with pytest.raises(ScheduleError, match="4 seasons"):
        par24_restriction(_par([0.5, 0.5]))


def test_variance_converges_when_stationary(rng):
    for _ in range(20):
        phi1s = list(rng.uniform(-0.9, 0.9, size=4))
        phi2s = list(rng.uniform(-0.9, 0.9, size=4))
        s = _par(phi1s, phi2s)
        verdict = stationarity_check(s)
        if verdict.stationary is True:
            for anchor in (101, 102, 103, 104):
                assert unconditional_variance(s, anchor).converged
        elif verdict.stationary is False and verdict.margin < -0.05:
            assert not unconditional_variance(s, 101, n_max=3000).converged


def _entry_rule_matrices(s):
    """The stacked matrices entry by entry from their definition: row i of
    phi0_mat holds -phi_lag(i) at column i - lag inside the period, and
    row i of phi1_mat holds phi_lag(i) at column i + l - lag behind it."""
    l = s.period
    m0, m1 = np.eye(l), np.zeros((l, l))
    for i in range(1, l + 1):
        for lag, phi in ((1, s.seasons[i - 1].phi1), (2, s.seasons[i - 1].phi2)):
            if i - lag >= 1:
                m0[i - 1, i - lag - 1] = -phi
            else:
                m1[i - 1, i + l - lag - 1] = phi
    return m0, m1


@pytest.mark.parametrize("l", [2, 3, 4, 7])
def test_matrices_match_the_entry_rules_bit_for_bit(rng, l):
    # signed zeros included: a zero coefficient inside the period is -0.0
    phis = [[0.0, -0.0, float(rng.normal())][int(rng.integers(3))]
            for _ in range(2 * l)]
    s = _par(phis[:l], phis[l:])
    vs = build_vs(s)
    m0, m1 = _entry_rule_matrices(s)
    assert vs.phi0_mat.tobytes() == m0.tobytes()
    assert vs.phi1_mat.tobytes() == m1.tobytes()


def test_verdict_matches_the_stacked_var_oracle():
    # 1500 seeded schedules of 2 to 12 seasons; coefficients in +-1.2 make
    # about one in six nonstationary.  Both algorithms round differently,
    # and the radius loses digits where it is small or where the two roots
    # of z^2 - (tr M) z + det M nearly coincide (they move with the square
    # root of a rounding error there).  The widest relative gap on these
    # draws is 5.7e-13 under one LAPACK kernel; 1e-11 leaves room for the
    # others, and a wrong root formula misses it by far more.
    rng = np.random.default_rng(31)
    verdicts = set()
    for _ in range(1500):
        l = int(rng.integers(2, 13))
        phi = rng.uniform(-1.2, 1.2, (l, 2))
        s = _par(list(phi[:, 0]), list(phi[:, 1]))
        verdict, rho = stationarity_check(s), stacked_var_radius(build_vs(s))
        assert verdict.spectral_radius == pytest.approx(rho, rel=1e-11)
        if abs(1.0 - rho) >= tvar2.vs.BOUNDARY_BAND:
            assert verdict.stationary is (rho < 1.0)
            verdicts.add(verdict.stationary)
    assert verdicts == {True, False}


def test_radius_past_the_matrix_range_scales_exactly():
    # (phi1 c, phi2 c^2) scale M's radius by c^l; with c = 2^E and c^l near
    # 2^700, a^2 and det M overflow, and the power-of-two rescaling gives
    # the unscaled radius times c^l bit for bit
    rng = np.random.default_rng(32)
    for _ in range(300):
        l = int(rng.integers(2, 13))
        phi = rng.uniform(-1.2, 1.2, (l, 2))
        scale = -(-700 // l)
        rho = stationarity_check(_par(
            list(phi[:, 0]), list(phi[:, 1]))).spectral_radius
        big = stationarity_check(_par(
            list(np.ldexp(phi[:, 0], scale)),
            list(np.ldexp(phi[:, 1], 2 * scale)))).spectral_radius
        assert big == math.ldexp(rho, scale * l)


def _exact_radius(seasons):
    """M's radius to 40 digits, M multiplied in exact rationals."""
    m00, m01, m10, m11 = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    for phi1, phi2 in map(lambda p: map(Fraction, p), seasons):
        m00, m01, m10, m11 = (phi1 * m00 + phi2 * m10,
                              phi1 * m01 + phi2 * m11, m00, m01)
    with localcontext() as ctx:
        ctx.prec = 40
        a, b = (Decimal(q.numerator) / q.denominator
                for q in (m00 + m11, m00 * m11 - m01 * m10))
        d = a * a - 4 * b
        return b.sqrt() if d < 0 else (abs(a) + d.sqrt()) / 2


def test_radius_past_the_matrix_range_matches_exact_arithmetic():
    # seasons from 1e-250 to 1e250 of either sign, a lag-2 half of them
    # zero: M's entries pass the float range and span more of it than one
    # float holds, yet the radius matches M multiplied exactly, or the
    # overflow is named where the radius passes the float range
    rng = np.random.default_rng(33)
    named = checked = 0
    while checked < 150 or named < 150:
        l = int(rng.integers(2, 13))
        phi = 10.0 ** rng.uniform(-250, 250, (l, 2))
        phi[:, 1] *= rng.integers(0, 2, l)
        phi *= rng.choice([-1.0, 1.0], (l, 2))
        seasons = phi.tolist()
        rho, s = _exact_radius(seasons), _par(*phi.T.tolist())
        if rho > Decimal(sys.float_info.max):
            with pytest.raises(ArithmeticError, match="period matrix's radius"):
                stationarity_check(s)
            named += 1
        elif rho > Decimal("1e-300"):
            verdict = stationarity_check(s)
            assert abs(Decimal(verdict.spectral_radius) / rho - 1) < 1e-12
            assert verdict.stationary is (rho < 1)
            checked += 1


@pytest.mark.parametrize("phi1s, stationary", [
    ([1.2] * 3000, False), ([1e200, 1e200, 1e-200], False),
    ([1e-200, 1e-200, 1e200, 1e200], None), ([1e-170, 1.0], True),
], ids=["3000x1.2", "1e200-1e200-1e-200", "1e-200-1e-200-1e200-1e200",
        "1e-170-1"])
def test_radius_of_seasons_far_apart_in_scale(phi1s, stationary):
    # a^2 overflows, or an entry of M or a^2 underflows in plain floats:
    # the first seasons' 1e-400 read as 0 gives a radius of 0, and a^2 read
    # as 0 gives half of 1e-170; an exponent per value keeps each radius
    verdict = stationarity_check(_par(phi1s))
    rho = _exact_radius([(p, 0.0) for p in phi1s])
    assert abs(Decimal(verdict.spectral_radius) / rho - 1) < 1e-12
    assert verdict.stationary is stationary


@pytest.mark.parametrize("phi1s, phi2s, value, satisfied", [
    ([1e-200, 1e-200, 1e200, 1e200], None, 0.9999999999999998, True),
    ([1e200] * 4, [1e200] * 4, math.inf, False),
], ids=["1e-200-1e-200-1e200-1e200", "4x1e200"])
def test_restriction_of_seasons_far_apart_in_scale(phi1s, phi2s, value,
                                                   satisfied):
    # plain floats read tr M = 0 (an entry underflowed) or inf - inf; the
    # value comes from the exponent form, infinite past the float range
    assert par24_restriction(_par(phi1s, phi2s)) == (value, satisfied)


def _float_reference(seasons):
    """The radius and the restriction's (value, flag) from M = A_l ... A_1
    multiplied out in plain floats, the product the pinned bits came from;
    None once a product or sum leaves the normal range other than at an
    exact 0."""
    stray = []

    def checked(value, exact_zero):
        if not (sys.float_info.min <= abs(value) <= sys.float_info.max
                or value == 0 and exact_zero):
            stray.append(value)
        return value

    def times(x, y):
        return checked(x * y, x == 0 or y == 0)

    def plus(x, y):
        return checked(x + y, x == -y)

    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for phi1, phi2 in seasons:
        m00, m01, m10, m11 = (plus(times(phi1, m00), times(phi2, m10)),
                              plus(times(phi1, m01), times(phi2, m11)),
                              m00, m01)
    a, b = plus(m00, m11), plus(times(m00, m11), -times(m01, m10))
    d = plus(times(a, a), -times(4.0, b))
    rho = math.sqrt(b) if d < 0 else times(plus(abs(a), math.sqrt(d)), 0.5)
    flag = abs(b) < 1.0 and abs(a) < plus(1.0, b)
    return None if stray else (rho, abs(plus(a, -b)), flag)


def test_radius_and_restriction_match_the_float_product():
    # seeded schedules of 2 to 12 seasons and of 4, coefficients in +-0.9,
    # +-1.2 and +-3 with one in ten a zero of either sign: wherever the
    # plain float product stays normal, the exponent form gives its bits
    rng = np.random.default_rng(34)
    compared = 0
    while compared < 3000:
        l = int(rng.integers(2, 13))
        width = (0.9, 1.2, 3.0)[compared % 3]
        phi = rng.uniform(-width, width, (l + 4, 2))
        phi = np.where(rng.random(phi.shape) < 0.1, np.copysign(0.0, phi), phi)
        seasons, four = phi[:l].tolist(), phi[l:].tolist()
        want, want4 = _float_reference(seasons), _float_reference(four)
        if want is None or want4 is None:
            continue
        rho = stationarity_check(_par(*zip(*seasons))).spectral_radius
        value, ok = par24_restriction(_par(*zip(*four)))
        assert rho.hex() == want[0].hex()
        assert (value.hex(), ok) == (want4[1].hex(), want4[2])
        compared += 1


@pytest.mark.parametrize("schedule", [
    ConstantSchedule(0.0, 0.5, 0.1, 1.0),
    CyclicalSchedule(4, [2], [(0, 0.5, 0.1, 1), (0, 0.2, 0.1, 1)]),
    BreakSchedule(10, 5, [2], [(0, 0.5, 0.1, 1), (0, 0.2, 0.1, 1)]),
    GenericSchedule(lambda t: (0.0, 0.5, 0.1, 1.0)),
], ids=lambda s: s.kind)
def test_stacked_form_needs_a_periodic_schedule(schedule):
    with pytest.raises(ScheduleError) as info:
        build_vs(schedule)
    assert str(info.value) == ("the stacked form needs a periodic schedule "
                               f"(got kind {schedule.kind!r})")


_UNTILED = [BreakSchedule(10, 5, [2], [(0, 0.5, 0.1, 1), (0, 0.2, 0.1, 1)]),
            GenericSchedule(lambda t: (0.0, 0.5, 0.1, 1.0))]


def _untiled_message(schedule):
    return ("the period matrix needs a schedule tiled by season "
            f"(got kind {schedule.kind!r})")


@pytest.mark.parametrize("schedule, message", [
    (ConstantSchedule(0.0, 0.5, 0.1, 1.0),
     "restriction is defined for 4 seasons"),
    *[(s, _untiled_message(s)) for s in _UNTILED],
], ids=["constant", *(s.kind for s in _UNTILED)])
def test_restriction_of_other_kinds_is_a_schedule_error(schedule, message):
    with pytest.raises(ScheduleError) as info:
        par24_restriction(schedule)
    assert str(info.value) == message


@pytest.mark.parametrize("schedule", _UNTILED, ids=lambda s: s.kind)
def test_verdict_needs_a_season_table(schedule):
    with pytest.raises(ScheduleError) as info:
        stationarity_check(schedule)
    assert str(info.value) == _untiled_message(schedule)


def test_constant_verdict_is_the_ar2_root_condition():
    # M = A for one season: the radius is the larger |root| of
    # z^2 - phi1 z - phi2, the classical AR(2) condition
    rng = np.random.default_rng(34)
    verdicts = set()
    for phi1, phi2 in rng.uniform(-2.5, 2.5, (2000, 2)).tolist():
        verdict = stationarity_check(ConstantSchedule(0.0, phi1, phi2, 1.0))
        disc = cmath.sqrt(phi1 * phi1 + 4.0 * phi2)
        rho = max(abs((phi1 + disc) / 2), abs((phi1 - disc) / 2))
        assert verdict.spectral_radius == pytest.approx(rho, rel=1e-12)
        if abs(1.0 - rho) >= tvar2.vs.BOUNDARY_BAND:
            assert verdict.stationary is (rho < 1.0)
            verdicts.add(verdict.stationary)
    assert verdicts == {True, False}


def test_cyclical_verdict_is_that_of_its_seasons():
    # a cyclical schedule tiles its period by season as the periodic
    # schedule of its season table does, so both answers share every bit
    rng = np.random.default_rng(35)
    for _ in range(300):
        period = int(rng.integers(2, 13))
        cuts = sorted(rng.choice(np.arange(1, period),
                                 int(rng.integers(0, period)), replace=False))
        cycles = [(0.0, *rng.uniform(-1.2, 1.2, 2), 1.0)
                  for _ in range(len(cuts) + 1)]
        cyc = CyclicalSchedule(period, cuts, cycles)
        par = PeriodicSchedule(np.array(cyc._season_table))
        got, want = (
            (v.spectral_radius.hex(), v.margin.hex(), v.stationary)
            for v in (stationarity_check(cyc), stationarity_check(par)))
        assert got == want
        if period == 4:
            assert par24_restriction(cyc) == par24_restriction(par)


def test_unit_period_product_is_indeterminate():
    # phi1 multiplies to exactly 1 over the period: radius 1, margin 0
    verdict = stationarity_check(_par([2.0, 0.5, 1.0, 1.0]))
    assert verdict.stationary is None
    assert verdict.indeterminate
    assert verdict.margin == 0.0
