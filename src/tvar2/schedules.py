"""Deterministic coefficient schedules for second-order autoregressions.

A schedule maps an integer time index t to the drift, the two lag
coefficients and the innovation variance governing the process at that
time.  Concrete variants cover the constant AR(2) case, seasonally
periodic coefficients, cyclical (grouped-season) coefficients and
piecewise-constant regimes separated by abrupt breaks.

A tiled kind keeps its checked season table as a tuple of Python-float
rows, and an abrupt-breaks schedule its regime table likewise: the one
table every reader takes.  ``window`` builds its float64 array from it,
a tiled kind once into its season cache, an abrupt-breaks one on each
call, so building a schedule does not import numpy; the first ``window``
call does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SIGMA2_BOUNDS = (1e-12, 1e12)
_CACHE_FLOATS = 1 << 20   # see Schedule.season_cached


class ScheduleError(ValueError):
    """Invalid schedule parameters or an out-of-window query."""


@dataclass(frozen=True)
class CoefficientTuple:
    """Drift, lag-1 and lag-2 coefficients and innovation variance at one time."""

    phi0: float
    phi1: float
    phi2: float
    sigma2: float

    def __post_init__(self):
        for name in ("phi0", "phi1", "phi2", "sigma2"):
            if not math.isfinite(getattr(self, name)):
                raise ScheduleError(
                    f"{name} must be finite (got {getattr(self, name)})")


def _as_tuple(value) -> CoefficientTuple:
    if isinstance(value, CoefficientTuple):
        return value
    phi0, phi1, phi2, sigma2 = value
    return CoefficientTuple(float(phi0), float(phi1), float(phi2), float(sigma2))


def _rows(tuples) -> tuple:
    return tuple((float(c.phi0), float(c.phi1), float(c.phi2), float(c.sigma2))
                 for c in tuples)


def _check_sigma2(sigma2: float, bounds: tuple, where: str = "") -> None:
    if not sigma2 > 0.0:
        suffix = f" ({where})" if where else ""
        raise ScheduleError(f"sigma2 must be > 0{suffix}")
    if not bounds[0] < sigma2 < bounds[1]:
        at = f" at {where}" if where else ""
        raise ScheduleError(
            f"sigma2={sigma2}{at} outside declared bounds {bounds}")


def _table(tuples: Sequence, label: str, bounds: tuple, expected=None):
    """A declared kind's checked tuples (``expected`` many) and their rows
    of Python floats."""
    if expected is not None and len(tuples) != expected:
        raise ScheduleError(
            f"expected {expected} {label} tuples, got {len(tuples)}")
    tuples = tuple(_as_tuple(c) for c in tuples)
    for j, tup in enumerate(tuples, start=1):
        _check_sigma2(float(tup.sigma2), bounds, f"{label} {j}")
    return tuples, _rows(tuples)


def cut_list(cuts: Sequence[int], total: int, name: str,
             total_name: str) -> tuple[int, ...]:
    """Cycle boundaries, break or block offsets as integers, strictly
    increasing inside (0, total)."""
    cuts = tuple(int(c) for c in cuts)
    if any(b <= a for a, b in zip((0,) + cuts, cuts + (total,))):
        raise ScheduleError(f"{name} must be strictly increasing inside "
                            f"(0, {total_name})")
    return cuts


def _floats(entry) -> int:
    """Floats a season-cache entry holds: an array, or a tuple of arrays,
    tuples and floats."""
    import numpy as np
    return sum(map(np.size, entry)) if isinstance(entry, tuple) else entry.size


class Schedule:
    """Base class: a pure map from integer time to a CoefficientTuple.

    Schedules are immutable after construction and safe to evaluate
    concurrently.  Consumers read coefficients through ``window``; ``at``
    is its one-row view.  sigma2 is checked against zero and the declared
    ``sigma2_bounds`` when a table is built, or by a generic schedule when
    a time is read.  A kind tiled by season keeps entries that depend only
    on a season in its season cache (see ``season_cached``).
    """

    kind = "generic"
    earliest: float = -math.inf   # earliest time the schedule answers for
    # (phi0, phi1, phi2, sigma2) of seasons 1..period as Python floats, for
    # kinds tiled by season: the checked table that every reader takes
    _season_table: tuple | None = None
    _season_cache: dict | None = None

    def __init__(self, sigma2_bounds: tuple[float, float] = DEFAULT_SIGMA2_BOUNDS):
        lo, hi = float(sigma2_bounds[0]), float(sigma2_bounds[1])
        if not 0.0 <= lo < hi:
            raise ScheduleError("sigma2 bounds must satisfy 0 <= lower < upper")
        self.sigma2_bounds = (lo, hi)

    def _tile(self, rows: tuple) -> None:
        """Tile time by the checked season table ``rows``, with an empty
        season cache."""
        self._season_table = rows
        self._season_cache = {}

    def season_cached(self, tag, t: int, compute: Callable,
                      fits: Callable | None = None):
        """``compute()``, an entry that depends only on ``tag`` and the
        season of time t.  A schedule tiled by season keeps it under (tag,
        season) and computes it again only when ``fits`` rejects the kept
        one; a generic or abrupt-breaks one computes it on every call.  It
        keeps the xi prefixes and the period-matrix entry of
        ``tvar2.moments`` and the burn-in starts of ``tvar2.simulate``,
        read-only, and ``window``'s (period, 4) array of the table under
        ("rows", 0), which ``window`` only indexes into a copy.

        Its table was checked when the schedule was built, so no time a
        tiled schedule answers for raises, and ``compute`` may read past
        what the caller needs.  The cache holds at most _CACHE_FLOATS
        floats (8 MiB), counted over every entry; an entry that would pass
        that is returned but not kept.  It lives as long as the schedule
        object, so only a caller that shares the object between calls
        computes an entry once per season."""
        cache = self._season_cache
        if cache is None:
            return compute()
        key = (tag, (t - 1) % len(self._season_table))
        entry = cache.get(key)
        if entry is None or (fits is not None and not fits(entry)):
            entry = compute()
            # the room as it is now: a thread may store an entry meanwhile,
            # and the last entry stored for a key is the one kept
            if _floats(entry) <= self.season_room(tag, t):
                cache[key] = entry
        return entry

    def season_room(self, tag, t: int) -> int:
        """Floats ``season_cached`` has room to keep under (tag, t)."""
        key = (tag, (t - 1) % len(self._season_table))
        return _CACHE_FLOATS - sum(_floats(v) for k, v in
                                   list(self._season_cache.items()) if k != key)

    def window(self, t_lo: int, t_hi: int) -> np.ndarray:
        """Coefficients for times t_lo..t_hi (none if t_hi < t_lo) as an
        (n, 4) float array of (phi0, phi1, phi2, sigma2), oldest first.
        A kind that raises names the first bad time walking back from t_hi."""
        import numpy as np
        t_lo, t_hi = int(t_lo), int(t_hi)
        # the season of t_lo, then offsets from it: any Python int works
        period = len(self._season_table)
        seasons = ((t_lo - 1) % period + np.arange(t_hi - t_lo + 1)) % period
        return self.season_cached("rows", 1,
                                  lambda: np.array(self._season_table))[seasons]

    def walk_back(self, t: int, floor: float) -> Iterator[np.ndarray]:
        """Windows of times t, t-1, ..., each newest first: 32 rows, then
        as many as read so far, none reaching below ``floor``.  Past the
        floor, each next window is the one time below it, so reading on
        raises what reading that time raises."""
        t = hi = int(t)
        size = 32   # a smaller first window costs short series more calls
        while True:
            lo = max(hi - size + 1, min(floor, hi))
            yield self.window(lo, hi)[::-1]
            hi, size = lo - 1, t - lo + 1

    def at(self, t: int) -> CoefficientTuple:
        """Coefficients governing time t; deterministic in t."""
        return CoefficientTuple(*self.window(t, t)[0].tolist())


class GenericSchedule(Schedule):
    """Schedule backed by an arbitrary pure function of t, the one kind
    evaluated time by time."""

    kind = "generic"

    def __init__(self, fn: Callable[[int], CoefficientTuple],
                 sigma2_bounds=DEFAULT_SIGMA2_BOUNDS):
        super().__init__(sigma2_bounds)
        self._fn = fn

    def window(self, t_lo: int, t_hi: int) -> np.ndarray:
        import numpy as np
        t_lo, t_hi = int(t_lo), int(t_hi)
        newest_first = [_as_tuple(self._fn(t))
                        for t in range(t_hi, t_lo - 1, -1)]
        rows = np.array(_rows(reversed(newest_first))).reshape(-1, 4)
        lo, hi = self.sigma2_bounds
        bad = np.flatnonzero(~((lo < rows[:, 3]) & (rows[:, 3] < hi)))
        if len(bad):
            _check_sigma2(float(rows[bad[-1], 3]), self.sigma2_bounds,
                          f"t={t_lo + int(bad[-1])}")
        return rows


class ConstantSchedule(Schedule):
    """Classical constant-coefficient AR(2)."""

    kind = "constant"

    def __init__(self, phi0=0.0, phi1=0.0, phi2=0.0, sigma2=1.0,
                 sigma2_bounds=DEFAULT_SIGMA2_BOUNDS):
        super().__init__(sigma2_bounds)
        _check_sigma2(float(sigma2), self.sigma2_bounds)
        self.coefficients = CoefficientTuple(float(phi0), float(phi1),
                                             float(phi2), float(sigma2))
        self._tile(_rows([self.coefficients]))


def season_of(t: int, period: int) -> int:
    """Season s in 1..period with t = T*period + s."""
    return (int(t) - 1) % period + 1


class PeriodicSchedule(Schedule):
    """Seasonally varying AR(2): one coefficient tuple per season, period l."""

    kind = "periodic"

    def __init__(self, seasons: Sequence, sigma2_bounds=DEFAULT_SIGMA2_BOUNDS):
        super().__init__(sigma2_bounds)
        if len(seasons) < 1:
            raise ScheduleError("need at least one season")
        self.seasons, rows = _table(seasons, "season", self.sigma2_bounds)
        self.period = len(self.seasons)
        self._tile(rows)


class CyclicalSchedule(Schedule):
    """Cyclical AR(2): seasons grouped into d+1 cycles sharing coefficients.

    Cycle j (j = 1..d+1) covers seasons boundaries[j-2]+1 .. boundaries[j-1],
    with implicit boundaries 0 and ``period``.
    """

    kind = "cyclical"

    def __init__(self, period: int, boundaries: Sequence[int], cycles: Sequence,
                 sigma2_bounds=DEFAULT_SIGMA2_BOUNDS):
        super().__init__(sigma2_bounds)
        self.period = period = int(period)
        if period < 1:
            raise ScheduleError("period must be >= 1")
        self.boundaries = cut_list(boundaries, period, "cycle boundaries",
                                   "period")
        self.cycles, rows = _table(cycles, "cycle", self.sigma2_bounds,
                                   len(self.boundaries) + 1)
        ends = self.boundaries + (period,)
        self._tile(tuple(row for row, lo, hi in zip(rows, (0,) + ends, ends)
                         for _ in range(hi - lo)))


class BreakSchedule(Schedule):
    """Piecewise-constant AR(2) with r abrupt breaks behind an anchor time.

    Regime j = 1..r+1 governs times anchor-offsets[j-1] .. anchor-offsets[j]+1
    (with implicit offsets 0 and ``horizon``); queries are valid on
    anchor-horizon .. anchor only.
    """

    kind = "abrupt-breaks"

    def __init__(self, anchor: int, horizon: int, offsets: Sequence[int],
                 regimes: Sequence, sigma2_bounds=DEFAULT_SIGMA2_BOUNDS):
        super().__init__(sigma2_bounds)
        self.anchor = int(anchor)
        self.horizon = int(horizon)
        if self.horizon < 1:
            raise ScheduleError("horizon must be >= 1")
        self.earliest = self.anchor - self.horizon
        self.offsets = cut_list(offsets, self.horizon, "break offsets",
                                "horizon")
        self.regimes, self._regime_table = _table(
            regimes, "regime", self.sigma2_bounds, len(self.offsets) + 1)

    def window(self, t_lo: int, t_hi: int) -> np.ndarray:
        import numpy as np
        t_lo, t_hi = int(t_lo), int(t_hi)
        # walking back from t_hi, the first time outside the window
        bad = t_hi if t_hi > self.anchor else min(t_hi, self.earliest - 1)
        if t_lo <= bad:
            raise ScheduleError(f"t={bad} outside break-schedule window "
                                f"[{self.earliest}, {self.anchor}]")
        # the window's rows in each regime, newest regime first, from the
        # offsets of its ends: any Python int works
        near, far = self.anchor - t_hi, self.anchor - t_lo
        cuts = (0,) + self.offsets + (self.horizon + 1,)
        counts = [max(0, min(b, far + 1) - max(a, near))
                  for a, b in zip(cuts, cuts[1:])]
        return np.repeat(np.array(self._regime_table[::-1]), counts[::-1],
                         axis=0)

    def re_anchored(self, anchor: int) -> "BreakSchedule":
        """Copy with the same relative structure at a new anchor time."""
        return BreakSchedule(anchor, self.horizon, self.offsets, self.regimes,
                             self.sigma2_bounds)
