"""Block-determinant decompositions of the fundamental solutions.

When the coefficient history behind the anchor splits into segments
(periods of a seasonal model, cycles inside a period, or regimes between
abrupt breaks), the tridiagonal determinant xi factors into a sum over
binary selector vectors, each addend a product of within-segment
continuants joined by the lag-2 coupling coefficient at each segment
boundary.  An assembled block-matrix determinant is kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .schedules import (BreakSchedule, CyclicalSchedule, PeriodicSchedule,
                        Schedule, ScheduleError, season_of)
from .xi import (ORACLE_CAP, OracleCapError, constant_xi,
                 fundamental_matrix, green_functions)


@dataclass(frozen=True)
class BlockSpec:
    """Segment layout behind an anchor: strictly increasing boundary offsets
    0 < b_1 < ... < b_d < total, measured backwards from the anchor, plus the
    coupling coefficient phi2(anchor - b_j + 1) at each boundary."""

    total: int
    boundaries: tuple[int, ...]
    couplings: tuple[float, ...]
    kind: str = "generic"

    def __post_init__(self):
        bounds = self.boundaries
        if any(b2 <= b1 for b1, b2 in zip((0,) + bounds, bounds + (self.total,))):
            raise ScheduleError(
                "block boundaries must be strictly increasing inside (0, total)")
        if len(self.couplings) != len(bounds):
            raise ScheduleError("need one coupling per boundary")


def block_spec(schedule: Schedule, t: int, boundaries: Sequence[int], total: int,
               kind: str = "generic") -> BlockSpec:
    bounds = tuple(int(b) for b in boundaries)
    couplings = tuple(schedule.at(t - b + 1).phi2 for b in bounds)
    return BlockSpec(int(total), bounds, couplings, kind)


def _kahan_sum(terms) -> float:
    total = 0.0
    comp = 0.0
    for term in terms:
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


def xi_block_decomposed(schedule: Schedule, t: int, spec: BlockSpec,
                        segment_xi: Callable[[int, int], float] | None = None
                        ) -> float:
    """Evaluate xi_{t,total} as the 2^d-term boundary decomposition.

    ``segment_xi(anchor, depth)`` evaluates a within-segment continuant;
    by default the plain recurrence is used.  Selector vectors are
    enumerated in binary-counter order with compensated summation, so the
    result is reproducible.
    """
    if segment_xi is None:
        def segment_xi(anchor: int, depth: int) -> float:
            if depth <= 0:
                return 1.0 if depth == 0 else 0.0
            return green_functions(schedule, anchor, depth).xi(depth)

    b = (0,) + spec.boundaries + (spec.total,)
    d = len(spec.boundaries)
    if d == 0:
        return segment_xi(t, spec.total)

    def term(sel: tuple[int, ...]) -> float:
        value = segment_xi(t, b[1] - sel[0])
        for j in range(2, d + 2):
            i_prev = sel[j - 2]
            i_cur = sel[j - 1] if j - 1 < d else 0
            coupling = spec.couplings[j - 2] if i_prev else 1.0
            depth = b[j] - b[j - 1] - i_cur - i_prev
            value *= coupling * segment_xi(t - b[j - 1] - i_prev, depth)
        return value

    return _kahan_sum(term(sel) for sel in product((0, 1), repeat=d))


def _require_period_end(schedule, t: int) -> None:
    if season_of(t, schedule.period) != schedule.period:
        raise ScheduleError(
            f"anchor t={t} is not at the last season of a period "
            f"(period {schedule.period})")


def xi_par_decomposed(schedule: PeriodicSchedule, t: int, n: int) -> float:
    """xi_{t,n*l} for a periodic schedule, decomposed at period boundaries
    into 2^(n-1) addends of within-period continuants."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_period_end(schedule, t)
    l = schedule.period
    spec = block_spec(schedule, t, [j * l for j in range(1, n)], n * l, "periodic")
    return xi_block_decomposed(schedule, t, spec)


def xi_car_decomposed(schedule: CyclicalSchedule, t: int) -> float:
    """xi_{t,l} for a cyclical schedule, decomposed at the d cycle
    boundaries into 2^d addends."""
    _require_period_end(schedule, t)
    l = schedule.period
    offsets = [l - b for b in reversed(schedule.boundaries)]
    spec = block_spec(schedule, t, offsets, l, "cyclical")
    return xi_block_decomposed(schedule, t, spec)


def xi_abar_decomposed(schedule: BreakSchedule, t: int, k: int) -> float:
    """xi_{t,k} for a break schedule, decomposed at the break offsets into
    2^r addends whose within-regime continuants use the constant-coefficient
    root closed form."""
    if t != schedule.anchor or k != schedule.horizon:
        raise ScheduleError(
            "decomposition requires the schedule's own anchor and horizon")
    spec = block_spec(schedule, t, schedule.offsets, k, "abrupt-breaks")

    def segment_xi(anchor: int, depth: int) -> float:
        if depth <= 0:
            return 1.0 if depth == 0 else 0.0
        tup = schedule.at(anchor)  # segments never straddle a break
        return constant_xi(tup.phi1, tup.phi2, depth)

    return xi_block_decomposed(schedule, t, spec, segment_xi)


def assemble_block_matrix(schedule: Schedule, t: int, spec: BlockSpec,
                          cap: int = ORACLE_CAP) -> np.ndarray:
    """Dense block-tridiagonal matrix: the within-segment continuant
    matrices on the diagonal, joined at each boundary by its coupling phi2
    below the diagonal and -1 above.  Test oracle: its determinant equals
    the recurrence value of xi_{t,total}."""
    k = spec.total
    if k > cap:
        raise OracleCapError(f"oracle cap {cap} exceeded (size={k})")
    mat = fundamental_matrix(schedule, t, k)
    for b, coupling in zip(spec.boundaries, spec.couplings):
        mat[k - b, k - b - 1] = coupling   # first row of the newer segment
    return mat


def block_determinant_oracle(schedule: Schedule, t: int, spec: BlockSpec,
                             cap: int = ORACLE_CAP) -> float:
    """Determinant of the assembled block matrix."""
    return float(np.linalg.det(assemble_block_matrix(schedule, t, spec, cap)))


def decomposition_report(schedule: Schedule, t: int, spec: BlockSpec,
                         decomposed: float) -> list[tuple[str, float, float]]:
    """Three-way comparison (method, value, relative deviation from the
    recurrence) for the verification table."""
    reference = green_functions(schedule, t, spec.total).xi(spec.total)
    rows = [("recurrence", reference, 0.0)]
    scale = max(1.0, abs(reference))
    rows.append(("decomposition", decomposed, abs(decomposed - reference) / scale))
    det = block_determinant_oracle(schedule, t, spec)
    rows.append(("block-determinant", det, abs(det - reference) / scale))
    return rows
