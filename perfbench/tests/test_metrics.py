"""The benchmark's own metric code, on synthetic inputs."""

import math
import time

import pytest

from ermibench import metrics as m
from ermibench import runner
from ermibench.driver import OpenLoop
from ermibench.inputs import Call, Phase, Zipf, build, streams
from repro.rmi.future import RmiFuture


class InstantStub:
    """Answers every call at once; ``stall_first`` blocks the first send."""

    def __init__(self, stall_first: float = 0.0) -> None:
        self.stall = stall_first

    def invoke_async(self, method, *args):
        if self.stall:
            time.sleep(self.stall)
            self.stall = 0.0
        return RmiFuture.completed(args[0])


def test_due_time_latency_counts_a_generator_stall():
    calls = [Call(0.010 + 0.001 * i, "echo", (i,), i, 0) for i in range(20)]
    log = OpenLoop(InstantStub(stall_first=0.050), lambda c, v: v == c.expect).run(
        calls
    )
    lats = m.due_latencies(log.due, log.done, log.status, range(20))
    assert all(s == m.OK for s in log.status)
    # Calls due during the 50 ms stall were sent late; timed from due,
    # the stall shows in their latency although the stub answered at once.
    assert lats[1] >= 0.045
    assert lats[10] >= 0.035
    assert lats[-1] < lats[1]
    # Timed from issue instead, the stall would vanish.
    assert log.done[1] - log.issued[1] < 0.005


def test_wrong_answers_and_exceptions_are_recorded():
    class Bad:
        def invoke_async(self, method, *args):
            if args[0] == 1:
                return RmiFuture.failed(RuntimeError("boom"))
            return RmiFuture.completed(args[0] + (args[0] == 2))

    calls = [Call(0.0, "x", (i,), i, 0) for i in range(3)]
    log = OpenLoop(Bad(), lambda c, v: v == c.expect).run(calls)
    assert log.status == [m.OK, m.FAILED, m.WRONG]


def test_failures_count_as_slo_misses():
    due = [0.0, 0.0, 0.0, 0.0]
    done = [0.001, 0.001, 0.050, math.inf]
    status = [m.OK, m.FAILED, m.OK, m.PENDING]
    # One fast success; one fast failure; one slow; one never finished.
    assert m.within_limit(due, done, status, [0, 1, 2, 3], 0.020) == 1
    round_ = {"kind": "fixed", "index": 0, "latencies": [0.001, 0.050],
              "measured": 4, "within": 1, "offered_s": 2.0, "attempted": 4,
              "failed": 2, "setups": [0.1], "lags": [0.0] * 4,
              "problems": [], "errors": []}
    e2e = runner.pooled("unary-small", [round_])["e2e"]
    assert e2e["slo_ok_frac"] == 0.25
    assert e2e["ok_frac"] == 0.5
    assert e2e["goodput_rps"] == 0.5


def test_percentiles_report_their_sample_count():
    p = m.percentiles([0.004, 0.001, 0.003, 0.002])
    assert (p.p50, p.p99, p.count) == (0.002, 0.004, 4)
    assert m.percentiles([]).count == 0
    assert math.isnan(m.percentiles([]).p50)
    assert m.percentiles(range(1, 1001)).p99 == 990


def rung_log(rate, seconds, service_rate):
    """A single-server queue fed at ``rate`` and drained at ``service_rate``."""
    n = int(rate * seconds)
    due = [i / rate for i in range(n)]
    done, free = [], 0.0
    for t in due:
        free = max(free, t) + 1.0 / service_rate
        done.append(free)
    return due, done, [m.OK] * n


def test_ladder_detects_a_growing_backlog():
    due, done, status = rung_log(1000, 2.0, service_rate=2000)
    steady = m.Rung(1000, 0.0, 2.0, tuple(range(len(due))))
    assert not m.judge_rung(steady, due, done, status, 0.020).backlog_grew
    due, done, status = rung_log(1000, 2.0, service_rate=800)
    overloaded = m.Rung(1000, 0.0, 2.0, tuple(range(len(due))))
    result = m.judge_rung(overloaded, due, done, status, 0.020)
    assert result.backlog_grew and not result.passed


def test_ladder_capacity_is_the_last_rung_of_the_passing_run():
    def result(rate, passed):
        return m.RungResult(rate, 0.001, 100, passed, False, 0)

    rungs = [result(1000, True), result(2000, True), result(3000, False),
             result(4000, True)]
    assert m.ladder_capacity(rungs) == 2000
    assert m.ladder_capacity([result(1000, False)]) == 0.0


def test_agility_matches_a_hand_computed_trajectory():
    # Size 2 until t=1, then 5.  Demand: 2 members over [0, 1), 6 over
    # [1, 2).  Quarter-second sub-intervals: four of |2-2| = 0 and four
    # of |5-6| = 1 -> SPEC agility = (0*4 + 1*4) / 8 = 0.5.
    samples = [(0.0, 2), (1.0, 5)]
    demand = [(0.0, 1.0, 2), (1.0, 2.0, 6)]
    assert m.spec_agility(samples, demand, 0.25) == pytest.approx(0.5)
    # Overprovisioning counts the same as shortage (equal weights).
    assert m.spec_agility([(0.0, 8)], [(0.0, 1.0, 6)], 0.25) == pytest.approx(2)


def test_pool_trajectory_helpers():
    samples = [(0.0, 2), (1.0, 4), (3.0, 2)]
    assert m.member_seconds(samples, 0.0, 4.0) == pytest.approx(2 + 8 + 2)
    assert m.member_seconds(samples, 0.5, 2.0) == pytest.approx(1 + 4)
    assert m.time_to_reach(samples, 0.5, 4, 5.0) == pytest.approx(0.5)
    assert m.time_to_reach(samples, 0.5, 5, 5.0) is None
    assert m.size_at(samples, 2.9) == 4


def test_inputs_depend_only_on_the_seed():
    phases = [Phase("fixed", 500.0, 0.0, 1.0)]

    def make(rng, due, phase):
        return Call(due, "echo", (rng.random(),), None, phase)

    a = build(streams(3)[0], phases, make)
    b = build(streams(3)[0], phases, make)
    c = build(streams(4)[0], phases, make)
    assert a.calls == b.calls
    assert a.calls != c.calls
    assert 400 < len(a.calls) < 600
    held = streams(3)[1].random()
    assert held != streams(3)[0].random()


def test_zipf_prefers_low_ranks():
    z = Zipf(256, 1.0)
    rng = streams(0)[0]
    draws = [z.sample(rng) for _ in range(5000)]
    assert min(draws) == 0 and max(draws) < 256
    assert draws.count(0) > draws.count(100) * 20


def test_tracing_attributes_calls_and_restores_every_original():
    import repro.core.balancer as balancer_mod
    from ermibench.apps import Echo
    from ermibench.tracing import LayerTrace
    from ermibench.workloads import UnarySmall
    from repro import ElasticRuntime
    from repro.core.balancer import ElasticStub
    from repro.kvstore.store import HyperStore
    from repro.rmi.remote import Skeleton

    originals = (ElasticStub.invoke_async, HyperStore.get, Skeleton.handle,
                 balancer_mod.marshal_call, Echo.echo)
    runtime = ElasticRuntime.local()
    try:
        stub = UnarySmall().deploy(runtime)
        assert stub.invoke_async("echo", "warm").result(10) == "warm"
        trace = LayerTrace()
        trace.install(runtime, UnarySmall())
        try:
            for i in range(20):
                assert stub.invoke_async("echo", f"k{i}").result(10) == f"k{i}"
        finally:
            trace.uninstall()
    finally:
        runtime.shutdown()
    assert trace.counts["calls"] == 20
    assert trace.counts["balancer.attempts"] == 20
    assert trace.counts["transport.messages"] == 20
    assert len(trace.spans["skeleton.self"]) == 20
    assert len(trace.spans["transport.queue_wait"]) == 20
    assert len(trace.spans["handler.echo"]) == 20
    assert trace.counts["kvstore.epoch_reads"] == 0
    assert (ElasticStub.invoke_async, HyperStore.get, Skeleton.handle,
            balancer_mod.marshal_call, Echo.echo) == originals
    assert "echo" not in vars(Echo) or vars(Echo)["echo"] is originals[-1]


def test_a_wrong_answer_fails_the_round(monkeypatch):
    import gc

    from ermibench.workloads import UnarySmall

    calls = []

    def check(self, call, value):
        if call.phase < 0:  # set-up probes and held-out calls
            return value == call.expect
        calls.append(call)
        return len(calls) != 5  # the fifth timed answer is judged wrong

    monkeypatch.setattr(UnarySmall, "check", check)
    try:
        out = runner.run_round("unary-small", 1, 0, "fixed", 0.2)
    finally:
        gc.unfreeze()
    assert out["failed"] == 1
    assert out["problems"] == ["1 wrong or failed answers"]
