"""The four workloads: inputs, deployment, answer checks, final checks.

Each workload stresses a different part of the stack (README.md says
which and why).  A workload only builds inputs and judges answers; the
runner owns the runtime, the clock and the metrics.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any

from repro.apps.dcs import CoordinationService

from .apps import Echo, HashService, StepService
from .inputs import Call, Phase, Schedule, Zipf, build, streams

WARMUP_S = 0.5


def fixed_or_ladder(
    kind: str, seconds: float, rate: float, rungs: list[float]
) -> list[Phase]:
    """Warm-up at ``rate``, then ``seconds`` either at that fixed rate
    (kind ``fixed``) or climbing the ladder of ``rungs`` (``ladder``)."""
    phases = [Phase("warmup", rate, 0.0, WARMUP_S)]
    if kind == "fixed":
        return phases + [Phase("fixed", rate, WARMUP_S, WARMUP_S + seconds)]
    if kind != "ladder":
        raise ValueError(f"no {kind!r} rounds for a fixed-pool workload")
    t, rung_s = WARMUP_S, seconds / len(rungs)
    for r in rungs:
        phases.append(Phase("rung", r, t, t + rung_s))
        t += rung_s
    return phases


class Workload:
    """Base: one pool, one stub, calls checked against ``Call.expect``."""

    name = ""
    pool = ""
    cls: type = object
    limit_s = 0.020
    #: Remote methods whose handler time the traced run reports.
    methods: tuple[str, ...] = ()
    #: Steps load up and down on an elastic pool (else: fixed rate, ladder).
    elastic = False

    def schedule(self, seed: str, seconds: float, kind: str) -> Schedule:
        """The calls of one round of ``kind``, made from ``seed`` alone."""
        raise NotImplementedError

    def deploy(self, runtime: Any) -> Any:
        runtime.new_pool(self.cls, name=self.pool)
        return runtime.stub(self.pool)

    def probe(self) -> Call:
        """The first call of a fresh deployment (ends set-up time)."""
        raise NotImplementedError

    def prepare(self, runtime: Any, stub: Any) -> None:
        """Untimed state the schedule relies on (after set-up)."""

    def check(self, call: Call, value: Any) -> bool:
        return value == call.expect

    def final_problems(
        self, runtime: Any, schedule: Schedule, values: list[Any],
        ok: list[bool],
    ) -> list[str]:
        """Whole-run invariants; ``ok[i]`` says call ``i`` succeeded."""
        return []


class UnarySmall(Workload):
    """Echo of a short string on a fixed pool of four."""

    name = "unary-small"
    pool = "echo"
    cls = Echo
    limit_s = 0.020
    methods = ("echo",)
    RATE = 1000.0
    RUNGS = [2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0, 10000.0]

    @staticmethod
    def _call(rng: random.Random, due: float, phase: int) -> Call:
        key = f"k{rng.randrange(1 << 30):09d}"
        return Call(due, "echo", (key,), key, phase)

    def schedule(self, seed: str, seconds: float, kind: str) -> Schedule:
        rng, held = streams(seed)
        s = build(rng, fixed_or_ladder(kind, seconds, self.RATE, self.RUNGS),
                  self._call)
        s.holdout = [self._call(held, 0.0, -1) for _ in range(20)]
        return s

    def probe(self) -> Call:
        return Call(0.0, "echo", ("probe",), "probe", -1)


class DcsMix(Workload):
    """The DCS app on 256 zipf-popular znodes, 30% writes."""

    name = "dcs-mix"
    pool = "dcs"
    cls = CoordinationService
    limit_s = 0.020
    methods = ("get", "exists", "get_children", "set_data")
    RATE = 800.0
    RUNGS = [1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0, 5000.0]
    GROUPS = 16
    PER_GROUP = 16
    #: (method, cumulative share) of the operation mix.
    MIX = (("set_data", 0.30), ("get", 0.70), ("exists", 0.85),
           ("get_children", 1.0))

    def __init__(self) -> None:
        self.groups = [f"/bench/g{g:02d}" for g in range(self.GROUPS)]
        self.children = [f"n{n:02d}" for n in range(self.PER_GROUP)]
        self.nodes = [f"{g}/{c}" for g in self.groups for c in self.children]
        self._zipf = Zipf(len(self.nodes), 1.0)
        #: Nodes by popularity rank; :meth:`schedule` shuffles it per seed.
        self._order = list(self.nodes)
        #: Nodes created by :meth:`prepare` (each draws one zxid).
        self.creates = 1 + len(self.groups) + len(self.nodes)

    def _call(self, rng: random.Random, due: float, phase: int) -> Call:
        # The popularity order is a seeded permutation of the nodes, so
        # which znodes are hot changes with the seed.
        node = self._order[self._zipf.sample(rng)]
        x = rng.random()
        method = next(m for m, share in self.MIX if x < share)
        if method == "set_data":
            return Call(due, method, (node, {"path": node,
                                             "v": rng.randrange(1 << 30)}),
                        None, phase)
        if method == "get_children":
            group = node.rpartition("/")[0]
            return Call(due, method, (group,), self.children, phase)
        if method == "exists":
            return Call(due, method, (node,), True, phase)
        return Call(due, method, (node,), node, phase)

    def schedule(self, seed: str, seconds: float, kind: str) -> Schedule:
        rng, held = streams(seed)
        rng.shuffle(self._order)
        s = build(rng, fixed_or_ladder(kind, seconds, self.RATE, self.RUNGS),
                  self._call)
        s.holdout = [self._call(held, 0.0, -1) for _ in range(40)]
        return s

    def probe(self) -> Call:
        return Call(0.0, "exists", ("/",), True, -1)

    def prepare(self, runtime: Any, stub: Any) -> None:
        stub.create("/bench")
        for group in self.groups:
            stub.create(group)
        for node in self.nodes:
            stub.create(node, {"path": node, "v": 0})

    def check(self, call: Call, value: Any) -> bool:
        if call.method == "set_data":
            return type(value) is int and value > self.creates
        if call.method == "get":
            return (
                isinstance(value, dict)
                and isinstance(value.get("data"), dict)
                and value["data"].get("path") == call.expect
            )
        return value == call.expect

    def final_problems(
        self, runtime: Any, schedule: Schedule, values: list[Any],
        ok: list[bool],
    ) -> list[str]:
        calls = schedule.calls + schedule.holdout
        zxids = [
            values[i] for i, c in enumerate(calls)
            if c.method == "set_data" and ok[i]
        ]
        expected = self.creates + len(zxids)
        problems = []
        zxid = runtime.store.get("dcs/zxid", default=0)
        total = runtime.store.get("CoordinationService$updates_total",
                                  default=0)
        if zxid != expected:
            problems.append(f"dcs/zxid {zxid} != {expected}")
        if total != expected:
            problems.append(f"updates_total {total} != {expected}")
        if len(set(zxids)) != len(zxids):
            problems.append("two writes returned the same zxid")
        return problems


class ElasticStep(Workload):
    """Load steps between about 200 and 1,200 calls/s on an elastic pool."""

    name = "elastic-step"
    pool = "step"
    cls = StepService
    limit_s = 0.100
    methods = ("work",)
    elastic = True
    LOW = 200.0
    HIGH = 1200.0
    CYCLE_S = 10.0

    def schedule(self, seed: str, seconds: float, kind: str) -> Schedule:
        if kind != "steps":
            raise ValueError(f"no {kind!r} rounds for {self.name}")
        rng, held = streams(seed)
        cycles = max(1, round(seconds / self.CYCLE_S))
        half = seconds / cycles / 2.0
        phases = [Phase("warmup", self.LOW, 0.0, WARMUP_S)]
        t = WARMUP_S
        for _ in range(cycles):
            phases.append(Phase("high", self.HIGH, t, t + half))
            phases.append(Phase("low", self.LOW, t + half, t + 2 * half))
            t += 2 * half
        tokens = iter(range(1, 1 << 62))

        def call(rng: random.Random, due: float, phase: int) -> Call:
            token = next(tokens) * 1000 + rng.randrange(1000)
            return Call(due, "work", (token,), token, phase)

        s = build(rng, phases, call)
        s.holdout = [call(held, 0.0, -1) for _ in range(10)]
        return s

    def probe(self) -> Call:
        return Call(0.0, "work", (7,), 7, -1)


class BulkCpu(Workload):
    """sha256 in a worker process over a 4 KiB / 64 KiB / 1 MiB mix."""

    name = "bulk-cpu"
    pool = "hash"
    cls = HashService
    limit_s = 0.100
    methods = ("digest",)
    RATE = 200.0
    RUNGS = [300.0, 500.0, 800.0, 1200.0, 1600.0, 2000.0, 2500.0, 3000.0]
    #: (size class, bytes, cumulative share, distinct payloads)
    SIZES = (("4k", 4 << 10, 0.70, 16), ("64k", 64 << 10, 0.95, 8),
             ("1m", 1 << 20, 1.0, 4))

    def _payloads(self, rng: random.Random) -> dict[str, list[tuple[bytes, str]]]:
        return {
            label: [
                (blob, hashlib.sha256(blob).hexdigest())
                for blob in (rng.randbytes(size) for _ in range(count))
            ]
            for label, size, _, count in self.SIZES
        }

    def schedule(self, seed: str, seconds: float, kind: str) -> Schedule:
        rng, held = streams(seed)
        payloads = self._payloads(rng)
        held_payloads = self._payloads(held)

        def chooser(pool: dict) -> Any:
            def call(rng: random.Random, due: float, phase: int) -> Call:
                x = rng.random()
                label = next(lab for lab, _, share, _ in self.SIZES
                             if x < share)
                blob, digest = rng.choice(pool[label])
                return Call(due, "digest", (blob,), digest, phase)
            return call

        s = build(rng, fixed_or_ladder(kind, seconds, self.RATE, self.RUNGS),
                  chooser(payloads))
        s.holdout = [chooser(held_payloads)(held, 0.0, -1) for _ in range(6)]
        return s

    def probe(self) -> Call:
        blob = b"perfbench-probe"
        return Call(0.0, "digest", (blob,), hashlib.sha256(blob).hexdigest(),
                    -1)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (UnarySmall, DcsMix, ElasticStep, BulkCpu)
}
