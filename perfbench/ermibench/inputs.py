"""Seeded inputs: arrival schedules, keys and payloads.

Everything a run sends is generated here from the seed before the
runtime starts, so the program under test only ever sees generated
inputs, and the same seed gives the same calls at the same due times.
A second stream derived from the seed (``holdout``) makes probe calls
the timed phases never used, so an answer cannot come from having seen
the timed inputs.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Phase:
    """A span of the schedule offered at one rate.

    ``kind`` is ``warmup`` (excluded from every metric), ``fixed`` (the
    fixed-rate measurement), ``rung`` (one step of the capacity
    ladder), or ``low``/``high`` (the elastic load steps).
    """

    kind: str
    rate: float
    start: float
    end: float


@dataclass(frozen=True)
class Call:
    """One scheduled invocation and the answer it must produce."""

    due: float
    method: str
    args: tuple
    expect: Any
    phase: int


@dataclass
class Schedule:
    phases: list[Phase] = field(default_factory=list)
    calls: list[Call] = field(default_factory=list)
    holdout: list[Call] = field(default_factory=list)

    def indices(self, *kinds: str) -> list[int]:
        """Indices of the calls whose phase kind is one of ``kinds``."""
        wanted = {i for i, p in enumerate(self.phases) if p.kind in kinds}
        return [i for i, c in enumerate(self.calls) if c.phase in wanted]

    def phase_indices(self, phase: int) -> list[int]:
        return [i for i, c in enumerate(self.calls) if c.phase == phase]


def streams(seed: object) -> tuple[random.Random, random.Random]:
    """The timed-run stream and the held-out stream for ``seed``."""
    return random.Random(f"perfbench/{seed}"), random.Random(
        f"perfbench/{seed}/holdout"
    )


def poisson_arrivals(
    rng: random.Random, rate: float, start: float, end: float
) -> list[float]:
    """Arrival times of a Poisson process of ``rate`` over ``[start, end)``."""
    times = []
    t = start + rng.expovariate(rate)
    while t < end:
        times.append(t)
        t += rng.expovariate(rate)
    return times


def build(
    rng: random.Random,
    phases: list[Phase],
    make_call: "Any",
) -> Schedule:
    """Lay Poisson arrivals over ``phases``; ``make_call(rng, due,
    phase_index)`` turns each arrival into a :class:`Call`."""
    schedule = Schedule(phases=list(phases))
    for index, phase in enumerate(phases):
        for due in poisson_arrivals(rng, phase.rate, phase.start, phase.end):
            schedule.calls.append(make_call(rng, due, index))
    return schedule


class Zipf:
    """Sampler over ``n`` ranks with P(rank k) proportional to 1/k**s."""

    def __init__(self, n: int, s: float = 1.0) -> None:
        weights = [1.0 / (k ** s) for k in range(1, n + 1)]
        self._cum = list(itertools.accumulate(weights))
        self._n = n

    def sample(self, rng: random.Random) -> int:
        """A rank in ``0..n-1`` (0 is the most popular)."""
        x = rng.random() * self._cum[-1]
        return min(bisect.bisect_left(self._cum, x), self._n - 1)
