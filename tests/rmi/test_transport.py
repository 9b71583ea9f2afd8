"""Tests for direct and threaded transports."""

import random
import sys
import threading
import time

import pytest

from repro.errors import ConnectError, RemoteError
from repro.rmi.future import RmiFuture
from repro.rmi.marshal import marshal_value
from repro.rmi.remote import Remote, Skeleton, Stub
from repro.rmi.transport import (
    BatchRequest,
    DirectTransport,
    Request,
    Response,
    ThreadedTransport,
)


def echo_handler(request: Request) -> Response:
    return Response(kind="result", payload=request.payload)


class TestDirectTransport:
    def test_invoke_reaches_handler(self):
        transport = DirectTransport()
        ep = transport.add_endpoint("s")
        ep.export("o", echo_handler)
        payload = marshal_value(((1,), {}))
        response = transport.invoke(
            ep.endpoint_id, Request("o", "m", payload)
        )
        assert response.kind == "result"
        assert response.payload == payload

    def test_unknown_object_raises(self):
        transport = DirectTransport()
        ep = transport.add_endpoint("s")
        with pytest.raises(ConnectError):
            transport.invoke(ep.endpoint_id, Request("nope", "m", b""))

    def test_killed_endpoint_raises(self):
        transport = DirectTransport()
        ep = transport.add_endpoint("s")
        ep.export("o", echo_handler)
        transport.kill(ep.endpoint_id)
        with pytest.raises(ConnectError):
            transport.invoke(ep.endpoint_id, Request("o", "m", b""))

    def test_revive_restores_service(self):
        transport = DirectTransport()
        ep = transport.add_endpoint("s")
        ep.export("o", echo_handler)
        transport.kill(ep.endpoint_id)
        transport.revive(ep.endpoint_id)
        response = transport.invoke(ep.endpoint_id, Request("o", "m", b"x"))
        assert response.kind == "result"

    def test_message_counter_and_hook(self):
        seen = []
        transport = DirectTransport(on_message=lambda eid, req: seen.append(req))
        ep = transport.add_endpoint("s")
        ep.export("o", echo_handler)
        transport.invoke(ep.endpoint_id, Request("o", "m", b""))
        assert transport.messages_sent == 1
        assert len(seen) == 1

    def test_duplicate_export_raises(self):
        transport = DirectTransport()
        ep = transport.add_endpoint("s")
        ep.export("o", echo_handler)
        with pytest.raises(ValueError):
            ep.export("o", echo_handler)


class SlowService(Remote):
    def nap(self, seconds):
        time.sleep(seconds)
        return "rested"

    def ping(self):
        return "pong"


class TestThreadedTransport:
    def test_end_to_end_call(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("s")
            skel = Skeleton(SlowService(), transport, ep.endpoint_id)
            stub = Stub(transport, skel.ref())
            assert stub.ping() == "pong"
        finally:
            transport.shutdown()

    def test_concurrent_calls_overlap(self):
        """Two 150 ms calls through a 4-worker endpoint should finish in
        well under 300 ms — proof of real concurrency."""
        transport = ThreadedTransport(workers_per_endpoint=4)
        try:
            ep = transport.add_endpoint("s")
            skel = Skeleton(SlowService(), transport, ep.endpoint_id)
            stub = Stub(transport, skel.ref())
            results = []
            started = time.monotonic()
            threads = [
                threading.Thread(target=lambda: results.append(stub.nap(0.15)))
                for _ in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.monotonic() - started
            assert results == ["rested", "rested"]
            assert elapsed < 0.29
        finally:
            transport.shutdown()

    def test_kill_stops_dispatch(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("s")
            skel = Skeleton(SlowService(), transport, ep.endpoint_id)
            stub = Stub(transport, skel.ref())
            transport.kill(ep.endpoint_id)
            with pytest.raises(ConnectError):
                stub.ping()
        finally:
            transport.shutdown()

    def test_pending_tracked_during_call(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("s")
            skel = Skeleton(SlowService(), transport, ep.endpoint_id)
            stub = Stub(transport, skel.ref())
            t = threading.Thread(target=lambda: stub.nap(0.2))
            t.start()
            time.sleep(0.05)
            assert skel.pending == 1
            t.join()
            assert skel.pending == 0
        finally:
            transport.shutdown()

    def test_drain_waits_for_inflight_calls(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("s")
            skel = Skeleton(SlowService(), transport, ep.endpoint_id)
            stub = Stub(transport, skel.ref())
            t = threading.Thread(target=lambda: stub.nap(0.2))
            t.start()
            time.sleep(0.05)
            skel.start_drain()
            assert not skel.is_drained  # call still in flight
            assert skel.wait_drained(timeout=2.0)
            t.join()
        finally:
            transport.shutdown()


class GatedHandler:
    """A raw handler whose calls park until the test opens the gate."""

    def __init__(self):
        self.gate = threading.Event()

    def __call__(self, request):
        self.gate.wait(5.0)
        return Response(kind="result", payload=request.payload)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class Outcomes:
    """Records every ``on_done`` a submitted call delivers."""

    def __init__(self):
        self.lock = threading.Lock()
        self.seen = []

    def callback(self, tag):
        def on_done(response, error):
            with self.lock:
                self.seen.append((tag, response, error))
        return on_done

    def tagged(self, tag):
        with self.lock:
            return [(r, e) for t, r, e in self.seen if t == tag]


class TestThreadedSubmit:
    def test_submit_completes_on_the_dispatch_worker(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("s")
            ep.export("o", echo_handler)
            done = threading.Event()
            seen = []

            def on_done(response, error):
                seen.append((response, error, threading.current_thread().name))
                done.set()

            transport.submit(ep.endpoint_id, Request("o", "m", b"hi"), on_done)
            assert done.wait(5.0)
            [(response, error, thread)] = seen
            assert error is None and response.payload == b"hi"
            assert thread.startswith("erm-s")
            assert transport.messages_sent == 1
        finally:
            transport.shutdown()

    def test_resolve_errors_complete_without_raising(self):
        transport = ThreadedTransport()
        try:
            ep = transport.add_endpoint("s")
            outcomes = Outcomes()
            transport.submit("ep-missing", Request("o", "m", b""),
                             outcomes.callback("unknown"))
            transport.submit(ep.endpoint_id, Request("nope", "m", b""),
                             outcomes.callback("no-object"))
            transport.kill(ep.endpoint_id)
            transport.submit(ep.endpoint_id, Request("o", "m", b""),
                             outcomes.callback("dead"))
            for tag in ("unknown", "no-object", "dead"):
                [(response, error)] = outcomes.tagged(tag)
                assert response is None and isinstance(error, ConnectError)
            [(_, error)] = outcomes.tagged("dead")
            assert "is down" in str(error)
            assert transport.messages_sent == 0
        finally:
            transport.shutdown()


class TestThreadedKillWithQueuedCalls:
    def test_every_queued_call_fails_with_connect_error(self):
        """Calls still queued behind busy workers when the endpoint is
        killed fail with the retryable "is down" ConnectError on every
        path — submit, invoke, and invoke_batch — never with a bare
        cancellation."""
        transport = ThreadedTransport(workers_per_endpoint=2)
        handler = GatedHandler()
        try:
            ep = transport.add_endpoint("s")
            ep.export("o", handler)
            eid = ep.endpoint_id
            outcomes = Outcomes()
            for _ in range(2):
                transport.submit(eid, Request("o", "block", b"run"),
                                 outcomes.callback("running"))
            wait_until(lambda: transport.dispatch_stats(eid)["busy"] == 2)
            for _ in range(3):
                transport.submit(eid, Request("o", "queued", b""),
                                 outcomes.callback("queued"))
            errors = {}

            def call(name, fn):
                try:
                    fn()
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors[name] = exc

            batch = BatchRequest(entries=(Request("o", "b", b""),) * 2)
            threads = [
                threading.Thread(target=call, args=(
                    "invoke",
                    lambda: transport.invoke(eid, Request("o", "q", b"")),
                )),
                threading.Thread(target=call, args=(
                    "batch", lambda: transport.invoke_batch(eid, batch),
                )),
            ]
            for t in threads:
                t.start()
            # 3 submits + 1 invoke + 2 batch chunks wait for a worker.
            wait_until(lambda: transport.dispatch_stats(eid)["queued"] == 6)
            transport.kill(eid)
            for t in threads:
                t.join(5.0)
            queued = outcomes.tagged("queued")
            assert len(queued) == 3
            for response, error in queued:
                assert response is None
                assert isinstance(error, ConnectError)
                assert "is down" in str(error)
            assert set(errors) == {"invoke", "batch"}
            for error in errors.values():
                assert isinstance(error, ConnectError)
                assert "is down" in str(error)
            # The calls already running finish normally.
            handler.gate.set()
            wait_until(lambda: len(outcomes.tagged("running")) == 2)
            for response, error in outcomes.tagged("running"):
                assert error is None and response.payload == b"run"
        finally:
            handler.gate.set()
            transport.shutdown()


class TestThreadedDeadline:
    def test_invoke_times_out_with_remote_error(self):
        transport = ThreadedTransport(timeout=0.05)
        handler = GatedHandler()
        try:
            ep = transport.add_endpoint("s")
            ep.export("o", handler)
            with pytest.raises(RemoteError, match="timed out"):
                transport.invoke(ep.endpoint_id, Request("o", "m", b""))
            handler.gate.set()
            wait_until(
                lambda: transport.dispatch_stats(ep.endpoint_id)["busy"] == 0
            )
        finally:
            handler.gate.set()
            transport.shutdown()

    def test_submit_times_out_once_and_drops_the_late_reply(self):
        transport = ThreadedTransport(timeout=0.05)
        handler = GatedHandler()
        try:
            ep = transport.add_endpoint("s")
            ep.export("o", handler)
            future = RmiFuture()
            completions = []
            problems = []

            def on_done(response, error):
                completions.append((response, error))
                try:
                    if error is not None:
                        future.set_exception(error)
                    else:
                        future.set_result(response)
                except RuntimeError as exc:  # "RmiFuture already completed"
                    problems.append(exc)

            transport.submit(ep.endpoint_id, Request("o", "m", b""), on_done)
            error = future.exception(timeout=5.0)
            assert isinstance(error, RemoteError)
            assert "timed out" in str(error)
            # Let the overrunning handler reply late; the reply must be
            # dropped, not delivered as a second completion.
            handler.gate.set()
            wait_until(
                lambda: transport.dispatch_stats(ep.endpoint_id)["busy"] == 0
            )
            assert len(completions) == 1
            assert problems == []
        finally:
            handler.gate.set()
            transport.shutdown()

    def test_stub_invoke_async_times_out_once(self):
        transport = ThreadedTransport(timeout=0.05)
        service = SlowService()
        try:
            ep = transport.add_endpoint("s")
            skel = Skeleton(service, transport, ep.endpoint_id)
            future = Stub(transport, skel.ref()).invoke_async("nap", 0.2)
            with pytest.raises(RemoteError, match="timed out"):
                future.result(timeout=5.0)
            wait_until(lambda: skel.pending == 0)
            assert future.done()
        finally:
            transport.shutdown()

    def test_replies_racing_the_deadline_complete_exactly_once(self):
        """Stress the first-wins handoff between dispatch workers and the
        deadline watchdog, with idle gaps between bursts: every call
        completes exactly once."""
        transport = ThreadedTransport(workers_per_endpoint=8, timeout=0.002)
        rng = random.Random(7)
        delays = [rng.uniform(0.0, 0.004) for _ in range(400)]

        def jittery(request):
            time.sleep(delays[int(request.method)])
            return Response(kind="result", payload=b"")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ep = transport.add_endpoint("s")
            ep.export("o", jittery)
            outcomes = Outcomes()
            for burst in range(4):
                for i in range(burst * 100, (burst + 1) * 100):
                    transport.submit(ep.endpoint_id, Request("o", str(i), b""),
                                     outcomes.callback(i))
                time.sleep(0.05)  # the watchdog idles between bursts
            wait_until(
                lambda: transport.dispatch_stats(ep.endpoint_id)["busy"] == 0
                and transport.dispatch_stats(ep.endpoint_id)["queued"] == 0,
                timeout=10.0,
            )
            counts = [len(outcomes.tagged(i)) for i in range(400)]
            assert counts == [1] * 400
            timed_out = sum(
                isinstance(error, RemoteError)
                for i in range(400) for _, error in outcomes.tagged(i)
            )
            assert 0 < timed_out < 400  # both sides of the race ran
        finally:
            sys.setswitchinterval(old)
            transport.shutdown()

    def test_watchdog_survives_a_raising_completer(self, monkeypatch):
        reported = []
        monkeypatch.setattr(threading, "excepthook", reported.append)
        transport = ThreadedTransport(timeout=0.003)
        handler = GatedHandler()
        try:
            ep = transport.add_endpoint("s")
            ep.export("o", handler)

            def broken(response, error):
                raise ValueError("completer bug")

            transport.submit(ep.endpoint_id, Request("o", "m", b""), broken)
            wait_until(lambda: len(reported) == 1)
            assert reported[0].exc_type is ValueError
            # The same watchdog still expires the next call.
            future = RmiFuture()
            transport.submit(
                ep.endpoint_id, Request("o", "m", b""),
                lambda response, error: future.set_exception(error),
            )
            assert "timed out" in str(future.exception(timeout=5.0))
        finally:
            handler.gate.set()
            transport.shutdown()
