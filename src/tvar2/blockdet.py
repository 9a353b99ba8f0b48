"""Block-determinant decompositions of the fundamental solutions.

When the coefficient history behind the anchor splits into d + 1 segments
(periods of a seasonal model, cycles inside a period, or regimes between
abrupt breaks), the tridiagonal determinant xi factors into a sum over the
2^d binary selector vectors, one bit per boundary: each addend is a
product of within-segment continuants, and a set bit couples its two
segments through the lag-2 coefficient at that boundary.  A segment's
factor depends only on the bits at its two ends, so the sum is one entry
of a product of d + 1 2x2 transfer matrices and is evaluated in linear
time.  Its block-matrix oracle is re-exported from ``_oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from ._oracles import ORACLE_CAP, assemble_block_matrix, block_determinant_oracle
from .schedules import (BreakSchedule, CyclicalSchedule, PeriodicSchedule,
                        Schedule, ScheduleError, cut_list, season_of)
from .xi import constant_xi, green_functions, xi


class PeriodEndError(ScheduleError):
    """A periodic or cyclical decomposition anchored off the end of a
    period."""


@dataclass(frozen=True)
class BlockSpec:
    """Segment layout behind an anchor: strictly increasing boundary offsets
    0 < b_1 < ... < b_d < total, measured backwards from the anchor, plus the
    coupling coefficient phi2(anchor - b_j + 1) at each boundary."""

    total: int
    boundaries: tuple[int, ...]
    couplings: tuple[float, ...]

    def __post_init__(self):
        cut_list(self.boundaries, self.total, "block boundaries", "total")
        if len(self.couplings) != len(self.boundaries):
            raise ScheduleError("need one coupling per boundary")


def block_spec(schedule: Schedule, t: int, boundaries: Sequence[int],
               total: int) -> BlockSpec:
    bounds = tuple(int(b) for b in boundaries)
    couplings = tuple(schedule.at(t - b + 1).phi2 for b in bounds)
    return BlockSpec(int(total), bounds, couplings)


def segment_layout(schedule: Schedule, t: int | None = None,
                   n: int = 1) -> tuple[int, BlockSpec]:
    """The anchor and segment layout a structured schedule decomposes at:
    n periods (periodic) or the cycles of one period (cyclical) behind
    ``t``, which must end a period and defaults to that depth; or the
    regimes over the horizon behind an abrupt-breaks schedule's own anchor,
    where ``t`` is not read."""
    if isinstance(schedule, BreakSchedule):
        t = schedule.anchor
        return t, block_spec(schedule, t, schedule.offsets, schedule.horizon)
    if isinstance(schedule, PeriodicSchedule):
        if n < 1:
            raise ValueError("n must be >= 1")
        l = schedule.period
        total, offsets = n * l, range(l, n * l, l)
    elif isinstance(schedule, CyclicalSchedule):
        l = schedule.period
        total, offsets = l, [l - b for b in reversed(schedule.boundaries)]
    else:
        raise ScheduleError(
            "decomposition needs a periodic, cyclical or abrupt-breaks "
            f"schedule (got kind {schedule.kind!r})")
    t = total if t is None else t
    if season_of(t, l) != l:
        raise PeriodEndError(f"anchor t={t} is not at the last season of a "
                             f"period (period {l})")
    return t, block_spec(schedule, t, offsets, total)


def xi_block_decomposed(schedule: Schedule, t: int, spec: BlockSpec,
                        segment_xi: Callable[[int, int], float] | None = None
                        ) -> float:
    """Evaluate xi_{t,total} as the boundary decomposition, in at most
    4(d + 1) calls of ``segment_xi``.

    ``segment_xi(anchor, depth)`` evaluates a within-segment continuant,
    depths -1 and 0 included; by default each regime's root closed form on
    an abrupt-breaks schedule, the plain recurrence elsewhere.  A set
    selector bit takes one step off each of the two segments it joins.
    Walking the segments from the anchor backwards, ``weights[p]`` sums the
    partial addends whose bit at the current segment's newer end is p, with
    that boundary's coupling applied; the segment's 2x2 transfer matrix,
    over p and the bit c at its older end, carries them to the next
    boundary.  The oldest segment has no older boundary, so c = 0 there.
    """
    if segment_xi is None and isinstance(schedule, BreakSchedule):
        def segment_xi(anchor: int, depth: int) -> float:
            tup = schedule.at(anchor)  # segments never straddle a break
            return constant_xi(tup.phi1, tup.phi2, depth)
    elif segment_xi is None:
        segment_xi = partial(xi, schedule)

    b = (0,) + spec.boundaries + (spec.total,)
    last = len(spec.boundaries)
    weights = (1.0,)
    for j in range(last + 1):
        start, length = b[j], b[j + 1] - b[j]
        row = [sum(w * segment_xi(t - start - p, length - p - c)
                   for p, w in enumerate(weights))
               for c in ((0, 1) if j < last else (0,))]
        if j < last:
            weights = (row[0], spec.couplings[j] * row[1])
    return row[0]


def xi_par_decomposed(schedule: PeriodicSchedule, t: int, n: int) -> float:
    """xi_{t,n*l} for a periodic schedule, decomposed at the n - 1 period
    boundaries: a sum of 2^(n-1) addends of within-period continuants,
    evaluated as a transfer product."""
    t, spec = segment_layout(schedule, t, n)
    return xi_block_decomposed(schedule, t, spec)


def xi_car_decomposed(schedule: CyclicalSchedule, t: int) -> float:
    """xi_{t,l} for a cyclical schedule, decomposed at the d cycle
    boundaries: a sum of 2^d addends, evaluated as a transfer product."""
    t, spec = segment_layout(schedule, t)
    return xi_block_decomposed(schedule, t, spec)


def xi_abar_decomposed(schedule: BreakSchedule, t: int, k: int) -> float:
    """xi_{t,k} for a break schedule, decomposed at the r break offsets: a
    sum of 2^r addends whose within-regime continuants use the
    constant-coefficient root closed form, evaluated as a transfer
    product."""
    if t != schedule.anchor or k != schedule.horizon:
        raise ScheduleError(
            "decomposition requires the schedule's own anchor and horizon")
    return xi_block_decomposed(schedule, *segment_layout(schedule))


def relative_deviation(value: float, reference: float) -> float:
    """|value - reference| / |reference|; absolute where the reference is 0."""
    return abs(value - reference) / (abs(reference) or 1.0)


def decomposition_report(schedule: Schedule, t: int, spec: BlockSpec,
                         decomposed: float) -> list[tuple[str, float, float]]:
    """Three-way comparison (method, value, relative deviation from the
    recurrence) for the verification table; the block-determinant row
    only within the oracle's cap."""
    reference = green_functions(schedule, t, spec.total).xi(spec.total)
    found = {"decomposition": decomposed}
    if spec.total <= ORACLE_CAP:
        found["block-determinant"] = block_determinant_oracle(schedule, t, spec)
    return [("recurrence", reference, 0.0)] + [
        (method, value, relative_deviation(value, reference))
        for method, value in found.items()]
