"""Metric arithmetic over recorded calls: pure functions, no runtime.

Every latency here is measured from a call's *due* time (when the
open-loop schedule said it should be sent), not from when the generator
got round to sending it, so a generator stall shows up as latency of the
calls it delayed.  A call that failed, returned a wrong answer, or never
completed counts as missing every latency limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.metrics.agility import AgilityTracker

#: Call outcome codes recorded by the driver.
OK, FAILED, WRONG, PENDING = 0, 1, 2, 3


@dataclass(frozen=True)
class Percentiles:
    """Median and tail of a latency sample, with the sample count."""

    p50: float
    p99: float
    count: int


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``q`` in 0..100)."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def percentiles(values: Iterable[float]) -> Percentiles:
    ordered = sorted(values)
    return Percentiles(
        p50=percentile(ordered, 50.0),
        p99=percentile(ordered, 99.0),
        count=len(ordered),
    )


def due_latencies(
    due: Sequence[float], done: Sequence[float], status: Sequence[int],
    indices: Iterable[int],
) -> list[float]:
    """Latency from due time of every call in ``indices`` that succeeded."""
    return [done[i] - due[i] for i in indices if status[i] == OK]


def within_limit(
    due: Sequence[float], done: Sequence[float], status: Sequence[int],
    indices: Iterable[int], limit_s: float,
) -> int:
    """Calls that succeeded and finished within ``limit_s`` of being due."""
    return sum(
        1 for i in indices
        if status[i] == OK and done[i] - due[i] <= limit_s
    )


def backlog_at(
    due: Sequence[float], done: Sequence[float], indices: Sequence[int],
    t: float,
) -> int:
    """Calls among ``indices`` due by ``t`` and not finished by ``t``.

    A call that never finished has ``done`` = +inf and stays in the
    backlog for ever.
    """
    return sum(1 for i in indices if due[i] <= t and not done[i] <= t)


def backlog_grows(
    due: Sequence[float], done: Sequence[float], indices: Sequence[int],
    start: float, end: float, rate: float, limit_s: float,
) -> bool:
    """Did the backlog grow across the rung ``[start, end)``?

    Compares the backlog at the rung's midpoint with the backlog at its
    end.  A steady system holds about ``rate * latency`` calls in flight
    at both points; one that cannot keep up adds calls at the rate of
    its deficit.  Growth by more than the calls half a latency limit
    admits (and at least ten) counts.
    """
    mid = (start + end) / 2.0
    slack = max(10.0, rate * limit_s / 2.0)
    return backlog_at(due, done, indices, end) - backlog_at(
        due, done, indices, mid
    ) > slack


@dataclass(frozen=True)
class Rung:
    """One step of the ascending offered-rate ladder."""

    rate: float
    start: float
    end: float
    indices: tuple[int, ...]


@dataclass(frozen=True)
class RungResult:
    rate: float
    p99: float
    count: int
    p99_ok: bool
    backlog_grew: bool
    failures: int

    @property
    def passed(self) -> bool:
        return self.p99_ok and not self.backlog_grew and self.failures == 0


def judge_rung(
    rung: Rung, due: Sequence[float], done: Sequence[float],
    status: Sequence[int], limit_s: float,
) -> RungResult:
    lats = due_latencies(due, done, status, rung.indices)
    failures = sum(1 for i in rung.indices if status[i] != OK)
    p = percentiles(lats)
    grew = backlog_grows(
        due, done, rung.indices, rung.start, rung.end, rung.rate, limit_s
    )
    return RungResult(
        rate=rung.rate, p99=p.p99, count=p.count,
        p99_ok=p.count > 0 and p.p99 <= limit_s,
        backlog_grew=grew, failures=failures,
    )


def ladder_capacity(results: Sequence[RungResult]) -> float:
    """Highest rung rate reached by an unbroken run of passing rungs
    from the bottom of the ladder (0 when the first rung fails)."""
    capacity = 0.0
    for result in results:
        if not result.passed:
            break
        capacity = result.rate
    return capacity


# ----------------------------------------------------------------------
# elasticity: pool-size trajectories
# ----------------------------------------------------------------------


def member_seconds(
    samples: Sequence[tuple[float, int]], start: float, end: float
) -> float:
    """Pool size integrated over ``[start, end]`` (step-wise, each sample
    holding until the next)."""
    total = 0.0
    for (t, size), nxt in zip(samples, list(samples[1:]) + [(end, 0)]):
        lo = max(t, start)
        hi = min(nxt[0], end)
        if hi > lo:
            total += size * (hi - lo)
    return total


def size_at(samples: Sequence[tuple[float, int]], t: float) -> int:
    """Last sampled size at or before ``t`` (first sample before any)."""
    size = samples[0][1] if samples else 0
    for at, value in samples:
        if at > t:
            break
        size = value
    return size


def time_to_reach(
    samples: Sequence[tuple[float, int]], since: float, target: int,
    until: float,
) -> float | None:
    """Seconds from ``since`` until the size first reaches ``target``
    (None when it does not before ``until``)."""
    for at, value in samples:
        if since <= at < until and value >= target:
            return at - since
    return None


def spec_agility(
    samples: Sequence[tuple[float, int]],
    demand: Sequence[tuple[float, float, int]],
    interval_s: float,
) -> float:
    """The paper's SPEC agility over sub-intervals of ``interval_s``.

    ``demand`` lists ``(start, end, req_min)`` spans of known offered
    load; each sub-interval records the pool size at its start against
    the span's ``req_min``.
    """
    tracker = AgilityTracker()
    for start, end, req in demand:
        t = start
        while t < end - 1e-9:
            tracker.record(t, float(size_at(samples, t)), float(req))
            t += interval_s
    return tracker.average_agility()
