"""Rounds and runs.

A *round* is one fresh process: it builds its inputs from the seed, sets
a live runtime up several times (timing each set-up), drives its
schedule open-loop, checks every answer, the whole-round invariants and
that nothing was left behind, and returns the raw outcome.

A *run* is several rounds, each in its own process, whose calls are
pooled into one set of metrics.  Rounds exist because a process keeps
the thread placement it started with: on a small shared machine, one
process's sub-millisecond latencies can sit 40% above or below the
next process's for its whole life, so a run that is a single process
reports that draw.  Pooling the calls of several processes reports the
mixture instead.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import platform
import statistics
import time
from typing import Callable

from repro import ElasticRuntime
from repro.errors import NotBoundError
from repro.rmi.cpu import live_segments

from . import metrics as m
from .driver import CallLog, OpenLoop, Sampler
from .inputs import Schedule
from .tracing import LayerTrace
from .workloads import WORKLOADS, Workload

#: Set-ups per round; set-up time is the median over every round's.
SETUPS = 3
#: Fixed-rate rounds of a fixed-pool workload (each its own process).
FIXED_ROUNDS = 5
#: Seconds of load steps per elastic round.
STEP_ROUND_S = 10.0
#: Length of the capacity ladder as a share of the run's seconds.  Only
#: the traced run climbs it, last: the ladder overloads the machine on
#: purpose, which slows whatever runs in the seconds after it.
LADDER_SHARE = 0.4
#: How long stragglers may take after the last call is sent.
DRAIN_TIMEOUT_S = 30.0
#: Sub-interval of the SPEC agility samples.
AGILITY_INTERVAL_S = 0.25


def plan(workload: Workload, seconds: float) -> list[tuple[str, float]]:
    """The measured rounds of one run: ``(kind, seconds)`` each."""
    if workload.elastic:
        n = max(1, round(seconds / STEP_ROUND_S))
        return [("steps", seconds / n)] * n
    return [("fixed", seconds / FIXED_ROUNDS)] * FIXED_ROUNDS


# ----------------------------------------------------------------------
# one round, in this process
# ----------------------------------------------------------------------


class SetUp:
    """Runtime construction up to the first verified call.

    ``new_pool`` returns before its members finish activating on the
    scheduler's timer thread, and until the sentinel is bound in the
    registry a call fails with :class:`NotBoundError`.  Set-up time runs
    until the service answers, so the first call is retried on that
    error alone; ``not_ready`` counts the retries, which a runtime that
    returned a ready pool would bring to zero.
    """

    def __init__(self, workload: Workload) -> None:
        t0 = time.perf_counter()
        self.runtime = ElasticRuntime.local()
        self.stub = workload.deploy(self.runtime)
        self.not_ready = 0
        self.problem: str | None = None
        call = workload.probe()
        deadline = t0 + 30.0
        while True:
            try:
                value = self.stub.invoke_async(call.method, *call.args).result(
                    30.0
                )
            except NotBoundError as exc:
                if time.perf_counter() < deadline:
                    self.not_ready += 1
                    time.sleep(0.001)
                    continue
                self.problem = f"still not bound after 30 s: {exc}"
            except Exception as exc:
                self.problem = f"{type(exc).__name__}: {exc}"
            else:
                if not workload.check(call, value):
                    self.problem = f"got {value!r}"
            break
        self.seconds = time.perf_counter() - t0


def ladder_guard(schedule: Schedule, limit_s: float) -> Callable:
    """Stop the ladder once a rung ends with a backlog no later rung
    could clear: more calls in flight than four latency limits' worth."""
    def stop_before(phase: int, loop: OpenLoop, log: CallLog) -> bool:
        previous = schedule.phases[phase - 1] if phase > 0 else None
        if previous is None or previous.kind != "rung":
            return False
        return loop.outstanding(log) > max(50.0, previous.rate * limit_s * 4)
    return stop_before


def wait_for_children(timeout_s: float = 10.0) -> list[int]:
    """Pids of child processes still alive after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while True:
        alive = multiprocessing.active_children()
        if not alive or time.monotonic() > deadline:
            return [p.pid for p in alive]
        time.sleep(0.05)


def run_round(
    name: str, seed: int, index: int, kind: str, seconds: float,
    traced: bool = False,
) -> dict:
    """One round of workload ``name`` in this process; its raw outcome."""
    workload = WORKLOADS[name]()
    schedule = workload.schedule(f"{seed}/{index}", seconds, kind)
    segments_before = set(live_segments())
    problems: list[str] = []

    setups, not_ready = [], 0
    for attempt in range(SETUPS):
        if attempt:
            runtime.shutdown()
        ready = SetUp(workload)
        runtime, stub = ready.runtime, ready.stub
        setups.append(ready.seconds)
        not_ready += ready.not_ready
        if ready.problem is not None:
            problems.append(f"first call after set-up failed: {ready.problem}")
    workload.prepare(runtime, stub)
    # The schedule and the call log are long-lived benchmark objects:
    # keep them out of the collector's scans of the program's garbage.
    gc.collect()
    gc.freeze()
    pool = runtime.pool(workload.pool)
    record = runtime.record(workload.pool)
    cache = runtime.store_cache
    hits0, misses0 = cache.hits, cache.misses
    store_ops0 = runtime.store.total_ops()
    records0 = len(pool.provisioning_records)
    trace = LayerTrace() if traced else None
    if trace is not None:
        trace.install(runtime, workload)

    loop = OpenLoop(stub, workload.check,
                    ladder_guard(schedule, workload.limit_s))
    origin = time.perf_counter() + 0.05
    loop.origin = origin
    # Pool trajectory (sizes and control ticks), for the elastic metrics.
    sampler = Sampler(
        lambda: (pool.size(), pool.provisioned_size(), record.tick_count),
        clock=loop.now,
    )
    if workload.elastic:
        sampler.start()
    try:
        log = loop.run(schedule.calls, DRAIN_TIMEOUT_S, origin=origin)
    finally:
        trajectory = sampler.stop() if workload.elastic else []

    # Held-out probes: inputs the timed run never used.
    values = list(log.values)
    ok = [s == m.OK for s in log.status]
    held_failed = 0
    for call in schedule.holdout:
        try:
            value = stub.invoke_async(call.method, *call.args).result(30.0)
            good = workload.check(call, value)
        except Exception:
            value, good = None, False
        values.append(value)
        ok.append(good)
        held_failed += not good
    problems += workload.final_problems(runtime, schedule, values, ok)
    if trace is not None:
        trace.uninstall()

    attempted = log.attempted()
    pending = [i for i in attempted if log.status[i] == m.PENDING]
    if pending:
        problems.append(f"{len(pending)} calls never completed")
    counters = {
        "batcher": stub.batcher,
        "cache": (cache.hits - hits0, cache.misses - misses0),
        "store_ops": runtime.store.total_ops() - store_ops0,
        "records": pool.provisioning_records[records0:],
        "respawns": getattr(
            getattr(runtime.transport, "_cpu_executor", None), "respawns", 0
        ),
    }
    transport = type(runtime.transport).__name__
    runtime.shutdown()
    leftover = wait_for_children()
    if leftover:
        problems.append(f"worker processes still alive: {leftover}")
    leaked = sorted(set(live_segments()) - segments_before)
    if leaked:
        problems.append(f"shared-memory segments leaked: {leaked}")
    wrong = sum(1 for i in attempted if log.status[i] == m.WRONG)
    if wrong or held_failed:
        problems.append(f"{wrong + held_failed} wrong or failed answers")
    errors = sorted({
        f"{type(log.values[i]).__name__}: {log.values[i]}"[:300]
        for i in attempted if log.status[i] == m.FAILED
    })[:5]

    kinds = {"fixed": ("fixed",), "steps": ("high", "low")}.get(kind, ())
    idx = [i for i in schedule.indices(*kinds)
           if not math.isnan(log.issued[i])]
    out = {
        "kind": kind,
        "index": index,
        "config": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "transport": transport,
        },
        "setups": setups,
        "problems": problems,
        "errors": errors,
        "attempted": len(attempted) + len(schedule.holdout),
        "failed": sum(1 for i in attempted if log.status[i] != m.OK)
        + held_failed,
        # The measured phases, raw: the parent pools them across rounds.
        "latencies": m.due_latencies(log.due, log.done, log.status, idx),
        "measured": len(idx),
        "within": m.within_limit(log.due, log.done, log.status, idx,
                                 workload.limit_s),
        "offered_s": sum(p.end - p.start for p in schedule.phases
                         if p.kind in kinds),
        "lags": [log.issued[i] - log.due[i] for i in idx],
        "ladder": ladder(workload, schedule, log),
        "elastic": elasticity(workload, schedule, trajectory),
    }
    out["layers"] = layers(trace, counters, out["attempted"])
    out["layers"]["setup.not_ready_retries"] = float(not_ready)
    return out


def elasticity(workload: Workload, schedule: Schedule, samples: list) -> dict:
    """Scale-up times, member-seconds, agility and ticks to target."""
    if not samples:
        return {}
    sizes = [(t, s[0]) for t, s in samples]
    provisioned = [(t, s[1]) for t, s in samples]
    ticks = [(t, s[2]) for t, s in samples]
    need = workload.cls.needed
    ups, tick_counts = [], []
    for p in schedule.phases:
        if p.kind != "high":
            continue
        took = m.time_to_reach(sizes, p.start, need(p.rate), p.end)
        ups.append(p.end - p.start if took is None else took)
        reached = p.start + ups[-1]
        tick_counts.append(
            m.size_at(ticks, reached) - m.size_at(ticks, p.start)
        )
    spans = [(p.start, p.end, need(p.rate)) for p in schedule.phases
             if p.kind in ("high", "low")]
    return {
        "scaleups_s": ups,
        "ticks_to_target": tick_counts,
        "member_s": m.member_seconds(provisioned, spans[0][0], spans[-1][1]),
        "agility": m.spec_agility(sizes, spans, AGILITY_INTERVAL_S),
    }


def ladder(workload: Workload, schedule: Schedule, log: CallLog) -> dict:
    """Judge each ladder rung that was sent; the capacity they give."""
    rungs = []
    for index, phase in enumerate(schedule.phases):
        if phase.kind != "rung":
            continue
        idx = [i for i in schedule.phase_indices(index)
               if not math.isnan(log.issued[i])]
        if not idx:
            break
        rung = m.Rung(phase.rate, phase.start, phase.end, tuple(idx))
        rungs.append(m.judge_rung(rung, log.due, log.done, log.status,
                                  workload.limit_s))
    return {
        "capacity_rps": m.ladder_capacity(rungs),
        "rungs": [
            {"rate": r.rate, "p99_ms": 1e3 * r.p99, "passed": r.passed,
             "backlog_grew": r.backlog_grew}
            for r in rungs
        ],
    }


def layers(trace: LayerTrace | None, counters: dict, calls: int) -> dict:
    """Per-layer numbers; span timings only when ``trace`` is given."""
    hits, misses = counters["cache"]
    records = counters["records"]
    ups = [r.latency for r in records if r.direction == "up"]
    downs = [r.latency for r in records if r.direction == "down"]
    batcher = counters["batcher"]
    stats = batcher.stats if batcher is not None else None
    out = {
        "batching.batches": float(stats.batches) if stats else 0.0,
        "batching.coalesce_ratio": stats.coalesce_ratio() if stats else 1.0,
        "kvstore.cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "kvstore.ops_per_call": counters["store_ops"] / max(1, calls),
        "cpu.respawns": float(counters["respawns"]),
        "pool.provision_s": statistics.mean(ups) if ups else 0.0,
        "pool.drain_s": statistics.mean(downs) if downs else 0.0,
    }
    if trace is None:
        return out
    c = trace.counts
    n = max(1, c["calls"])
    marshalled = c["fastpath.zero_copy"] + c["fastpath.copied"]
    out.update({
        "balancer.submit_us": trace.mean_us("balancer.submit"),
        "balancer.attempts_per_call": c["balancer.attempts"] / n,
        "balancer.refreshes": float(c["balancer.refreshes"]),
        "balancer.epoch_reads_per_call": c["kvstore.epoch_reads"] / n,
        "fastpath.marshal_us": trace.mean_us("fastpath.marshal"),
        "fastpath.unmarshal_us": trace.mean_us("fastpath.unmarshal"),
        "fastpath.zero_copy_share": (
            c["fastpath.zero_copy"] / marshalled if marshalled else 0.0
        ),
        "fastpath.bytes_per_call": c["fastpath.bytes"] / n,
        "transport.queue_wait_us": trace.mean_us("transport.queue_wait"),
        "transport.hop_us": trace.mean_us("transport.hop"),
        "transport.messages": float(c["transport.messages"]),
        "skeleton.self_us": trace.mean_us("skeleton.self"),
        "skeleton.errors": float(c["skeleton.errors"]),
        "handler.us": trace.mean_us("handler"),
        "kvstore.read_us": trace.mean_us("kvstore.read"),
        "kvstore.write_us": trace.mean_us("kvstore.write"),
        "scaling.decide_us": trace.mean_us("scaling.decide"),
        "pool.grow_us": trace.mean_us("pool.grow"),
        "pool.shrink_us": trace.mean_us("pool.shrink"),
    })
    for method in ("get", "exists", "get_children", "set_data"):
        out[f"handler.us.{method}"] = trace.mean_us(f"handler.{method}")
    for label in ("4k", "64k", "1m"):
        out[f"cpu.dispatch_us.{label}"] = trace.mean_us(
            f"cpu.dispatch.{label}"
        )
    return out


# ----------------------------------------------------------------------
# one run: rounds pooled
# ----------------------------------------------------------------------


def pooled(name: str, rounds: list[dict]) -> dict:
    """End-to-end metrics over every measured call of ``rounds``."""
    workload = WORKLOADS[name]()
    lats = [x for r in rounds for x in r["latencies"]]
    p = m.percentiles(lats)
    calls = sum(r["measured"] for r in rounds)
    within = sum(r["within"] for r in rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    setups = [s for r in rounds for s in r["setups"]]
    lags = sorted(x for r in rounds for x in r["lags"])
    return {
        "e2e": {
            "setup_s": statistics.median(setups),
            "lat_p50_ms": 1e3 * p.p50,
            "goodput_rps": within / sum(r["offered_s"] for r in rounds),
            "ok_frac": 1.0 - failed / max(1, attempted),
            "slo_ok_frac": within / max(1, calls),
        },
        "detail": {
            "samples": p.count,
            "p99_ms": 1e3 * p.p99,
            "measured_calls": calls,
            "limit_ms": 1e3 * workload.limit_s,
            "round_p50_ms": [
                1e3 * m.percentiles(r["latencies"]).p50 for r in rounds
            ],
            "setup_samples_s": setups,
            "lag_p50_ms": 1e3 * m.percentile(lags, 50.0),
            "lag_p99_ms": 1e3 * m.percentile(lags, 99.0),
        },
        "attempted": attempted,
        "failed": failed,
        "problems": [f"round {r['index']}: {p}" for r in rounds
                     for p in r["problems"]],
        "errors": sorted({e for r in rounds for e in r["errors"]}),
    }


def run(name: str, seed: int, seconds: float,
        launch: Callable[[str, int, float], dict]) -> dict:
    """One untraced run: ``launch(kind, index, seconds)`` runs each
    round of the plan in a fresh process and returns its outcome."""
    workload = WORKLOADS[name]()
    rounds = [
        launch(kind, index, secs)
        for index, (kind, secs) in enumerate(plan(workload, seconds))
    ]
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "config": rounds[0]["config"]}
    report.update(pooled(name, rounds))
    report["correct"] = not report["problems"]
    elastic = [r["elastic"] for r in rounds if r["elastic"]]
    ups = [x for e in elastic for x in e["scaleups_s"]]
    ticks = [x for e in elastic for x in e["ticks_to_target"]]
    report["layers"] = {
        "lat_p99_ms": report["detail"]["p99_ms"],
        "scaleup_s": statistics.median(ups) if ups else 0.0,
        "member_s": sum(e["member_s"] for e in elastic),
        "agility": (
            statistics.mean(e["agility"] for e in elastic) if elastic else 0.0
        ),
        "scaling.ticks_to_target": statistics.median(ticks) if ticks else 0.0,
        "driver.lag_p99_ms": report["detail"]["lag_p99_ms"],
        "setup.not_ready_retries": sum(
            r["layers"]["setup.not_ready_retries"] for r in rounds
        ),
    }
    return report


def describe(report: dict) -> str:
    """One human-readable summary line of a report."""
    e = report["e2e"]
    d = report["detail"]
    cfg = report["config"]
    return (
        f"{report['workload']} seed={report['seed']} "
        f"cpus={cfg['cpu_count']} python={cfg['python']} "
        f"transport={cfg['transport']} | p50={e['lat_p50_ms']:.3f}ms "
        f"p99={report['layers']['lat_p99_ms']:.3f}ms (n={d['samples']}) "
        f"goodput={e['goodput_rps']:.1f}/s setup={e['setup_s']:.4f}s "
        f"correct={report['correct']} {'; '.join(report['problems'])}"
    )
