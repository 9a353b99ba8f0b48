import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from tvar2 import (BlockSpec, BreakSchedule, CoefficientTuple, ConstantSchedule,
                   CyclicalSchedule, GenericSchedule, PeriodicSchedule, ScheduleError,
                   SimulationConfig, autocovariance, forecast, green_functions,
                   season_of, simulate_paths, unconditional_variance)
from tvar2.config import schedule_from_dict, schedule_to_dict


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def validate(schedule, t_start, t_stop):
    """Evaluate the schedule over [t_start, t_stop] and report violations.

    Checks sigma2 positivity/bounds at each point, determinism of repeated
    evaluation, and period-l shift invariance for periodic/cyclical kinds.
    Findings are reported, never raised.
    """
    if t_stop < t_start:
        raise ScheduleError("validation window is empty")
    findings = []
    period = getattr(schedule, "period", None)
    for t in range(int(t_start), int(t_stop) + 1):
        try:
            tup = schedule.at(t)
            if schedule.at(t) != tup:
                findings.append(f"evaluation at t={t} is not deterministic")
            if period is not None and schedule.at(t + period) != tup:
                findings.append(f"period-{period} shift invariance violated at t={t}")
        except ScheduleError as exc:
            findings.append(str(exc))
    return ValidationReport(tuple(dict.fromkeys(findings)))


def validate_params(builder, window=None):
    """Construct a schedule via ``builder`` and validate it, reporting
    construction errors as findings instead of raising."""
    try:
        schedule = builder()
    except ScheduleError as exc:
        return ValidationReport((str(exc),))
    if window is None:
        if isinstance(schedule, BreakSchedule):
            window = (schedule.anchor - schedule.horizon, schedule.anchor)
        else:
            period = getattr(schedule, "period", 1)
            window = (1, max(40, 2 * period))
    return validate(schedule, *window)


def test_constant_evaluates_same_everywhere():
    s = ConstantSchedule(0.5, 1.2, -0.32, 2.0)
    for t in (-10, 0, 1, 999):
        tup = s.at(t)
        assert tup.phi0 == 0.5
        assert tup.phi1 == 1.2
        assert tup.phi2 == -0.32
        assert tup.sigma2 == 2.0


def test_constant_rejects_nonpositive_sigma2():
    with pytest.raises(ScheduleError, match="sigma2 must be > 0"):
        ConstantSchedule(0.0, 0.5, 0.1, 0.0)
    with pytest.raises(ScheduleError, match="sigma2 must be > 0"):
        ConstantSchedule(0.0, 0.5, 0.1, -1.0)


def test_season_indexing():
    assert [season_of(t, 4) for t in range(1, 10)] == [1, 2, 3, 4, 1, 2, 3, 4, 1]
    assert season_of(0, 4) == 4
    assert season_of(-3, 4) == 1


def test_periodic_shift_invariance():
    s = PeriodicSchedule([(0.1, 0.5, -0.2, 1.0),
                          (0.2, -0.4, 0.3, 1.5),
                          (0.3, 0.8, -0.1, 0.5)])
    assert s.period == 3
    for t in range(-5, 20):
        assert s.at(t) == s.at(t + 3)


def test_cyclical_groups_seasons():
    cycles = [(0.0, 0.5, -0.2, 1.0), (0.0, -0.3, 0.4, 2.0)]
    s = CyclicalSchedule(5, [2], cycles)
    # seasons 1-2 are cycle 1, seasons 3-5 are cycle 2
    assert s.at(1) == s.at(2) == s.cycles[0]
    assert s.at(3) == s.at(4) == s.at(5) == s.cycles[1]
    assert s.at(6) == s.cycles[0]


def test_cyclical_single_cycle_degenerates_to_constant():
    s = CyclicalSchedule(7, [], [(0.1, 0.6, -0.2, 1.0)])
    for t in range(1, 15):
        assert s.at(t) == s.cycles[0]


def test_cyclical_with_every_season_its_own_cycle_matches_periodic():
    tuples = [(0.1, 0.5, -0.2, 1.0), (0.2, -0.4, 0.3, 1.5),
              (0.3, 0.8, -0.1, 0.5), (0.4, 0.2, 0.2, 2.0)]
    cyc = CyclicalSchedule(4, [1, 2, 3], tuples)
    per = PeriodicSchedule(tuples)
    for t in range(-8, 20):
        assert cyc.at(t) == per.at(t)


def test_cyclical_rejects_bad_boundaries():
    cycles = [(0, 0.1, 0.1, 1)] * 3
    with pytest.raises(ScheduleError, match="strictly increasing"):
        CyclicalSchedule(5, [3, 2], cycles)
    with pytest.raises(ScheduleError, match="strictly increasing"):
        CyclicalSchedule(5, [0, 2], cycles)
    with pytest.raises(ScheduleError, match="cycle tuples"):
        CyclicalSchedule(5, [2], cycles)


def test_break_schedule_regimes():
    regimes = [(0.0, 0.5, -0.2, 1.0), (0.0, -0.4, 0.3, 2.0),
               (0.0, 0.9, -0.5, 0.5)]
    s = BreakSchedule(anchor=100, horizon=10, offsets=[3, 7], regimes=regimes)
    # newest regime covers offsets 0..2, middle 3..6, oldest 7..10
    for t in (100, 99, 98):
        assert s.at(t) == s.regimes[0]
    for t in (97, 96, 95, 94):
        assert s.at(t) == s.regimes[1]
    for t in (93, 92, 91, 90):
        assert s.at(t) == s.regimes[2]


def test_break_schedule_window_enforced():
    s = BreakSchedule(50, 5, [2], [(0, 0.5, 0.1, 1), (0, 0.2, 0.1, 1)])
    with pytest.raises(ScheduleError, match="outside break-schedule window"):
        s.at(51)
    with pytest.raises(ScheduleError, match="outside break-schedule window"):
        s.at(44)


def test_break_schedule_rejects_bad_offsets():
    regimes = [(0, 0.1, 0.1, 1)] * 2
    with pytest.raises(ScheduleError, match="strictly increasing"):
        BreakSchedule(0, 5, [5], regimes)
    with pytest.raises(ScheduleError, match="strictly increasing"):
        BreakSchedule(0, 5, [0], regimes)


def test_re_anchored_preserves_relative_structure():
    s = BreakSchedule(100, 6, [3], [(0, 0.5, 0.1, 1), (0, -0.2, 0.3, 2)])
    moved = s.re_anchored(10)
    for offset in range(7):
        assert moved.at(10 - offset) == s.at(100 - offset)


def test_validate_reports_clean_schedule():
    report = validate(ConstantSchedule(0, 0.5, 0.1, 1.0), 1, 40)
    assert report.ok
    assert report.findings == ()


def test_validate_reports_sigma2_violation_without_raising():
    bad = GenericSchedule(lambda t: (0.0, 0.5, 0.1, -1.0 if t == 3 else 1.0))
    report = validate(bad, 1, 5)
    assert not report.ok
    assert any("sigma2" in f for f in report.findings)


def test_validate_reports_bounds_violation():
    # a declared table outside its bounds is refused when it is built
    report = validate_params(
        lambda: ConstantSchedule(0, 0.5, 0.1, 5.0, sigma2_bounds=(1e-6, 1.0)))
    assert report.findings == (
        "sigma2=5.0 outside declared bounds (1e-06, 1.0)",)
    bounded = GenericSchedule(lambda t: (0.0, 0.5, 0.1, 5.0 if t == 2 else 0.5),
                              sigma2_bounds=(1e-6, 1.0))
    assert validate(bounded, 1, 3).findings == (
        "sigma2=5.0 at t=2 outside declared bounds (1e-06, 1.0)",)


def test_validate_params_captures_construction_error():
    report = validate_params(
        lambda: BreakSchedule(0, 5, [9], [(0, 0.1, 0.1, 1)] * 2))
    assert not report.ok
    assert any("strictly increasing" in f for f in report.findings)


def test_validate_params_accepts_good_builder():
    report = validate_params(lambda: PeriodicSchedule([(0, 0.5, -0.2, 1.0),
                                                       (0, 0.3, 0.1, 1.0)]))
    assert report.ok


WINDOW_KINDS = {
    "constant": lambda: ConstantSchedule(0.5, 1.2, -0.32, 2.0),
    "periodic": lambda: PeriodicSchedule([(0.1, 0.5, -0.2, 1.0),
                                          (0.2, -0.4, 0.3, 1.5),
                                          (0.3, 0.8, -0.1, 0.5)]),
    "cyclical": lambda: CyclicalSchedule(5, [2], [(0.0, 0.5, -0.2, 1.0),
                                                  (0.1, -0.3, 0.4, 2.0)]),
    "breaks": lambda: BreakSchedule(100, 10, [3, 7],
                                    [(0.0, 0.5, -0.2, 1.0), (0.0, -0.4, 0.3, 2.0),
                                     (0.0, 0.9, -0.5, 0.5)]),
    "generic": lambda: GenericSchedule(
        lambda t: (0.01 * t, math.sin(t), math.cos(t), 1.0 + 0.5 * math.sin(3 * t))),
}


@pytest.mark.parametrize("kind", sorted(WINDOW_KINDS))
def test_window_is_the_stacked_at_rows(kind):
    s = WINDOW_KINDS[kind]()
    spans = [(90, 100), (97, 97), (97, 96)]
    if kind != "breaks":
        spans.append((-7, 12))   # negative times wrap onto the right seasons
    for t_lo, t_hi in spans:
        rows = s.window(t_lo, t_hi)
        stacked = [[c.phi0, c.phi1, c.phi2, c.sigma2]
                   for c in map(s.at, range(t_lo, t_hi + 1))]
        assert rows.shape == (len(stacked), 4)
        assert rows.tolist() == stacked


# each kind's table, and its rows for the times 1..6 (the break schedule's
# are 93..98), written out as floats
EXPLICIT = {
    "constant": ([(0.5, 1.2, -0.32, 2.0)], [(0.5, 1.2, -0.32, 2.0)] * 6),
    "periodic": ([(0.1, 0.5, -0.2, 1.0), (0.2, -0.4, 0.3, 1.5),
                  (0.3, 0.8, -0.1, 0.5)],
                 [(0.1, 0.5, -0.2, 1.0), (0.2, -0.4, 0.3, 1.5),
                  (0.3, 0.8, -0.1, 0.5)] * 2),
    "cyclical": ([(0.0, 0.5, -0.2, 1.0)] * 2 + [(0.1, -0.3, 0.4, 2.0)] * 3,
                 [(0.0, 0.5, -0.2, 1.0)] * 2 + [(0.1, -0.3, 0.4, 2.0)] * 3
                 + [(0.0, 0.5, -0.2, 1.0)]),
    "breaks": ([(0.0, 0.5, -0.2, 1.0), (0.0, -0.4, 0.3, 2.0),
                (0.0, 0.9, -0.5, 0.5)],
               [(0.0, 0.9, -0.5, 0.5)] + [(0.0, -0.4, 0.3, 2.0)] * 4
               + [(0.0, 0.5, -0.2, 1.0)]),
}


@pytest.mark.parametrize("number", [np.float64, Fraction, int])
def test_season_table_holds_python_floats_of_any_number_type(number):
    # the exact moments read the table itself, so a CoefficientTuple of
    # other numbers must give the bits of one of floats
    plain = PeriodicSchedule([(1.0, 0.0, 0.0, 2.0), (3.0, 0.0, 0.0, 1.0)]
                             if number is int else
                             [(0.2, 0.6, -0.1, 1.0), (0.0, -0.4, 0.2, 1.5)])
    s = PeriodicSchedule([CoefficientTuple(*map(number, row))
                          for row in plain._season_table])
    assert all(type(x) is float for row in s._season_table for x in row)
    assert s._season_table == plain._season_table
    for k in (0, 1, 5):
        assert repr(autocovariance(s, 10, k)) == repr(autocovariance(plain,
                                                                     10, k))


@pytest.mark.parametrize("kind", sorted(EXPLICIT))
def test_arrays_built_on_first_read_hold_the_bits_of_the_rows(kind,
                                                              monkeypatch):
    # every window holds the bits of an explicit array of its rows; a tiled
    # kind builds the array of its table once, on the first window call,
    # and keeps it in its season cache under ("rows", 0)
    s = WINDOW_KINDS[kind]()
    times = (93, 98) if kind == "breaks" else (1, 6)
    table, rows = (np.array(r) for r in EXPLICIT[kind])
    array, built = np.array, []

    def build(*args, **kwargs):
        made = array(*args, **kwargs)
        if s._season_table is not None and args[0] is s._season_table:
            built.append(made)
        return made

    monkeypatch.setattr(np, "array", build)
    for _ in range(2):
        window = s.window(*times)
        assert (window.dtype, window.tobytes()) == (np.float64, rows.tobytes())
    if kind == "breaks":
        assert s._season_cache is None and not built
        return
    assert len(built) == 1 and s._season_cache["rows", 0] is built[0]
    assert (built[0].dtype, built[0].tobytes()) == (np.float64,
                                                    table.tobytes())


def _message(call):
    with pytest.raises(ScheduleError) as info:
        call()
    return str(info.value)


def test_window_errors_keep_their_messages():
    assert _message(lambda: ConstantSchedule(
        0, 0.5, 0.1, 5.0, sigma2_bounds=(1e-6, 1.0))) == (
        "sigma2=5.0 outside declared bounds (1e-06, 1.0)")
    bounded = GenericSchedule(lambda t: (0.0, 0.5, 0.1, 5.0),
                              sigma2_bounds=(1e-6, 1.0))
    assert _message(lambda: bounded.window(1, 3)) == _message(lambda: bounded.at(3))
    assert "sigma2=5.0 at t=3 outside declared bounds" in _message(
        lambda: bounded.window(1, 3))
    negative = GenericSchedule(lambda t: (0.0, 0.5, 0.1, -1.0 if t == 3 else 1.0))
    assert _message(lambda: negative.window(1, 5)) == "sigma2 must be > 0 (t=3)"
    breaks = BreakSchedule(50, 5, [2], [(0, 0.5, 0.1, 1), (0, 0.2, 0.1, 1)])
    # a window past either edge names the first bad time walking back from t_hi
    assert _message(lambda: breaks.window(40, 50)) == _message(lambda: breaks.at(44))
    assert _message(lambda: breaks.window(48, 52)) == _message(lambda: breaks.at(52))
    assert "outside break-schedule window [45, 50]" in _message(
        lambda: breaks.window(40, 50))


# each kind with sigma2 bounds that some entries or times break: a declared
# kind is refused when it is built, naming the first bad entry (one periodic
# season is given as integers); a generic one raises at the bad times among
# those given
BOUNDED_KINDS = {
    "constant": (lambda: ConstantSchedule(0.5, 1.2, -0.32, 2.0,
                                          sigma2_bounds=(1e-6, 1.5)),
                 "sigma2=2.0 outside declared bounds (1e-06, 1.5)"),
    "periodic": (lambda: PeriodicSchedule([(0.1, 0.5, -0.2, 1.0),
                                           (0.2, -0.4, 0.3, 3.0),
                                           (0.3, 0.8, -0.1, 0.5),
                                           CoefficientTuple(0, 1, 0, 1)],
                                          sigma2_bounds=(0.6, 2.0)),
                 "sigma2=3.0 at season 2 outside declared bounds (0.6, 2.0)"),
    "cyclical": (lambda: CyclicalSchedule(5, [2], [(0.0, 0.5, -0.2, 1.0),
                                                   (0.1, -0.3, 0.4, 4.0)],
                                          sigma2_bounds=(1e-3, 2.0)),
                 "sigma2=4.0 at cycle 2 outside declared bounds (0.001, 2.0)"),
    "breaks": (lambda: BreakSchedule(20, 6, [2, 4],
                                     [(0.0, 0.5, -0.2, 1.0), (0.0, -0.4, 0.3, 5.0),
                                      (0.0, 0.9, -0.5, 1.0)],
                                     sigma2_bounds=(1e-3, 2.0)),
               "sigma2=5.0 at regime 2 outside declared bounds (0.001, 2.0)"),
    "generic": (lambda: GenericSchedule(
        lambda t: (0.01 * t, math.sin(t), math.cos(t),
                   0.0 if t % 5 == 0 else 1.0 + t % 3),
        sigma2_bounds=(1e-3, 2.5)), (-7, 12)),
}


@pytest.mark.parametrize("kind", sorted(BOUNDED_KINDS))
def test_at_is_the_one_row_window(kind):
    build, expected = BOUNDED_KINDS[kind]
    if kind != "generic":
        assert _message(build) == expected
        return
    s, (t_lo, t_hi) = build(), expected

    def read(call):
        try:
            return call()
        except ScheduleError as exc:
            return f"error: {exc}"

    outcomes = set()
    for t in range(t_lo, t_hi + 1):
        got = read(lambda: s.at(t))
        assert got == read(lambda: CoefficientTuple(*s.window(t, t)[0])), t
        if isinstance(got, CoefficientTuple):
            assert all(type(getattr(got, name)) is float
                       for name in ("phi0", "phi1", "phi2", "sigma2")), t
        outcomes.add(type(got))
    assert outcomes == {CoefficientTuple, str}


@pytest.mark.parametrize("t", [2**63 - 1, 10**20, -2**63])
@pytest.mark.parametrize("kind", ["constant", "periodic", "cyclical"])
def test_tiled_kinds_answer_far_outside_int64(kind, t):
    # a table at t equals the one at the congruent small anchor, and so do
    # the forecast and variance read from it
    s = WINDOW_KINDS[kind]()
    period = getattr(s, "period", 1)
    near = (t - 1) % period + 1 + 30 * period
    assert np.array_equal(s.window(t - 40, t), s.window(near - 40, near))
    assert np.array_equal(green_functions(s, t, 40).values,
                          green_functions(s, near, 40).values)
    far, close = forecast(s, t, 6, (1.0, -0.5)), forecast(s, near, 6, (1.0, -0.5))
    assert (far.point, far.mse) == (close.point, close.mse)
    assert (unconditional_variance(s, t).variance
            == unconditional_variance(s, near).variance)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_coefficients_rejected(bad):
    with pytest.raises(ScheduleError, match="phi1 must be finite"):
        ConstantSchedule(0.0, bad, 0.1, 1.0)
    with pytest.raises(ScheduleError, match="sigma2 must be finite"):
        PeriodicSchedule([(0.0, 0.5, 0.1, 1.0), (0.0, 0.5, 0.1, bad)])
    generic = GenericSchedule(lambda t: (bad, 0.5, 0.1, 1.0))
    with pytest.raises(ScheduleError, match="phi0 must be finite"):
        generic.window(1, 3)


# the README abrupt-breaks schedule
README_BREAKS = BreakSchedule(50, 10, [3, 7], [(0.0, 0.5, -0.2, 1.0),
                                               (0.0, -0.4, 0.3, 1.0),
                                               (0.0, 0.9, -0.5, 1.0)])


@pytest.mark.parametrize("anchor", [10**20, 2**63 + 5, -2**63 - 50])
def test_break_schedules_answer_far_outside_int64(anchor):
    # the window, green table and forecast at a far anchor are those at 50
    far, near = README_BREAKS.re_anchored(anchor), README_BREAKS
    assert np.array_equal(far.window(anchor - 10, anchor), near.window(40, 50))
    assert np.array_equal(green_functions(far, anchor, 8).values,
                          green_functions(near, 50, 8).values)
    got, want = (forecast(far, anchor, 6, (1.0, -0.5)),
                 forecast(near, 50, 6, (1.0, -0.5)))
    assert (got.point, got.mse) == (want.point, want.mse)


def test_break_schedule_horizon_beyond_int64():
    # the regime rows come from the offsets of the window's ends, so a
    # window far behind the anchor of a huge horizon reads as one near it
    huge = BreakSchedule(0, 2**64, [2**63], README_BREAKS.regimes[:2])
    rows = huge.window(-2**63 - 2, -2**63 + 2)
    assert ([CoefficientTuple(*row) for row in rows.tolist()]
            == [huge.regimes[1]] * 3 + [huge.regimes[0]] * 2)


@pytest.mark.parametrize("t_lo, t_hi", [(45, 44), (47, 40), (70, 60),
                                        (10, -10)])
def test_empty_break_window_has_no_rows(t_lo, t_hi):
    # no time to walk back over, so nothing raises, out of window or not
    assert README_BREAKS.window(t_lo, t_hi).shape == (0, 4)


@pytest.mark.parametrize("build, message", [
    (lambda: CyclicalSchedule(6, [4, 2], [(0, 0.1, 0.1, 1)] * 3),
     "cycle boundaries must be strictly increasing inside (0, period)"),
    (lambda: CyclicalSchedule(6, [2, 6], [(0, 0.1, 0.1, 1)] * 3),
     "cycle boundaries must be strictly increasing inside (0, period)"),
    (lambda: BreakSchedule(50, 10, [3, 3], [(0, 0.1, 0.1, 1)] * 3),
     "break offsets must be strictly increasing inside (0, horizon)"),
    (lambda: BlockSpec(8, (4, 8), (0.5, 0.5)),
     "block boundaries must be strictly increasing inside (0, total)"),
    (lambda: CyclicalSchedule(6, [2, 4], [(0, 0.1, 0.1, 1)] * 2),
     "expected 3 cycle tuples, got 2"),
    (lambda: BreakSchedule(50, 10, [3], [(0, 0.1, 0.1, 1)] * 3),
     "expected 2 regime tuples, got 3"),
    (lambda: PeriodicSchedule([(0, 0.1, 0.1, 1), (0, 0.1, 0.1, 0)]),
     "sigma2 must be > 0 (season 2)"),
    (lambda: CyclicalSchedule(6, [2], [(0, 0.1, 0.1, 1), (0, 0.1, 0.1, -1)]),
     "sigma2 must be > 0 (cycle 2)"),
    (lambda: BreakSchedule(50, 10, [3], [(0, 0.1, 0.1, 0), (0, 0.1, 0.1, 1)]),
     "sigma2 must be > 0 (regime 1)"),
    (lambda: ConstantSchedule(0, 0.1, 0.1, 1, sigma2_bounds=(2.0, 1.0)),
     "sigma2 bounds must satisfy 0 <= lower < upper"),
    (lambda: ConstantSchedule(0, 0.1, 0.1, 1, sigma2_bounds=(-1.0, 1.0)),
     "sigma2 bounds must satisfy 0 <= lower < upper"),
    (lambda: PeriodicSchedule([]), "need at least one season"),
    (lambda: CyclicalSchedule(0, [], [(0, 0.1, 0.1, 1)]),
     "period must be >= 1"),
    (lambda: BreakSchedule(50, 0, [], [(0, 0.1, 0.1, 1)]),
     "horizon must be >= 1"),
    # the bounds are open, and a sigma2 <= 0 keeps its own message
    (lambda: ConstantSchedule(0, 0.1, 0.1, 2.0, sigma2_bounds=(0.5, 2.0)),
     "sigma2=2.0 outside declared bounds (0.5, 2.0)"),
    (lambda: PeriodicSchedule([(0, 0.1, 0.1, 1), (0, 0.1, 0.1, 0.25)],
                              sigma2_bounds=(0.5, 2.0)),
     "sigma2=0.25 at season 2 outside declared bounds (0.5, 2.0)"),
    (lambda: CyclicalSchedule(6, [2], [(0, 0.1, 0.1, 3), (0, 0.1, 0.1, 1)],
                              sigma2_bounds=(0.5, 2.0)),
     "sigma2=3.0 at cycle 1 outside declared bounds (0.5, 2.0)"),
    (lambda: BreakSchedule(50, 10, [3, 6], [(0, 0.1, 0.1, 1)] * 2
                           + [(0, 0.1, 0.1, 0.5)], sigma2_bounds=(0.5, 2.0)),
     "sigma2=0.5 at regime 3 outside declared bounds (0.5, 2.0)"),
    (lambda: PeriodicSchedule([(0, 0.1, 0.1, 9), (0, 0.1, 0.1, -1)],
                              sigma2_bounds=(0.5, 2.0)),
     "sigma2=9.0 at season 1 outside declared bounds (0.5, 2.0)"),
    (lambda: ConstantSchedule(0, 0.1, 0.1, -1, sigma2_bounds=(0.5, 2.0)),
     "sigma2 must be > 0"),
], ids=["cycle-order", "cycle-edge", "break-order", "block-edge",
        "cycle-count", "regime-count", "season-sigma2", "cycle-sigma2",
        "regime-sigma2", "sigma2-bounds-order", "sigma2-bounds-negative",
        "no-seasons", "period-0", "horizon-0", "constant-sigma2-bounds",
        "season-sigma2-bounds", "cycle-sigma2-bounds", "regime-sigma2-bounds",
        "first-bad-season", "constant-sigma2"])
def test_declared_tables_keep_their_messages(build, message):
    assert _message(build) == message


def test_season_cache_is_decided_at_construction():
    # every kind tiled by season holds an empty cache before any call, with
    # bounds or without (a table outside them is not built); every other
    # schedule holds none
    periodic = PeriodicSchedule([(0.0, 0.5, -0.2, 1.0), (0.1, -0.3, 0.2, 2.0)])
    tiled = [ConstantSchedule(0.1, 0.5, -0.2, 1.0), periodic,
             CyclicalSchedule(4, [2], [(0.0, 0.5, -0.2, 1.0),
                                       (0.0, -0.3, 0.4, 1.0)]),
             PeriodicSchedule([(0.0, 0.1, 0.0, 1.0), (0.0, 0.1, 0.0, 1.5)],
                              sigma2_bounds=(0.5, 2.0))]
    for s in tiled:
        assert vars(s)["_season_cache"] == {}, s.kind
    assert _message(lambda: PeriodicSchedule(
        [(0.0, 0.1, 0.0, 1.0), (0.0, 0.1, 0.0, 9.0)],
        sigma2_bounds=(0.5, 2.0))) == (
        "sigma2=9.0 at season 2 outside declared bounds (0.5, 2.0)")
    untiled = [
        GenericSchedule(periodic.at),
        BreakSchedule(400, 390, [100], [(0.0, 0.5, -0.2, 1.0),
                                        (0.0, -0.4, 0.3, 1.0)])]
    for s in untiled:
        assert s._season_cache is None, s.kind
    # the xi prefixes of a series and the start laws of a simulation share
    # the one dict
    cache = periodic._season_cache
    autocovariance(periodic, 100, 1)
    simulate_paths(SimulationConfig(periodic, 300, 100, 2, 7, burn_in=20))
    assert periodic._season_cache is cache
    assert {type(tag) for tag, _ in cache} == {str, tuple}


@pytest.mark.parametrize("kind", ["constant", "periodic", "cyclical"])
def test_bounds_that_every_entry_holds_change_no_bit(kind):
    # bounds one ulp outside the smallest and largest sigma2 keep the season
    # cache, and every result reads the bits of the unbounded schedule
    plain = WINDOW_KINDS[kind]()
    sigma2 = np.array(plain._season_table)[:, 3]
    tight = (float(np.nextafter(sigma2.min(), 0.0)),
             float(np.nextafter(sigma2.max(), np.inf)))
    section = {**schedule_to_dict(plain), "sigma2_bounds": list(tight)}
    bounded = schedule_from_dict(section)
    assert bounded.sigma2_bounds == tight
    assert vars(bounded)["_season_cache"] == {}

    def results(s):
        yield green_functions(s, 100, 5000).values.tobytes()
        for k in range(21):
            yield repr(autocovariance(s, 100, k))
        for innovations in ("normal", "uniform"):
            yield simulate_paths(SimulationConfig(
                s, 300, 100, 5, 7, burn_in=40,
                innovations=innovations)).values.tobytes()
    assert list(results(bounded)) == list(results(plain))
    assert bounded._season_cache
