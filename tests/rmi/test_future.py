"""Tests for :class:`repro.rmi.future.RmiFuture` and friends."""

import threading

import pytest

from repro.rmi.future import (
    InvocationTimeout,
    RmiFuture,
    gather,
)


class TestCompletion:
    def test_result_after_set(self):
        future = RmiFuture()
        future.set_result(41)
        assert future.done()
        assert future.result() == 41
        assert future.exception() is None

    def test_exception_after_set(self):
        future = RmiFuture()
        boom = ValueError("boom")
        future.set_exception(boom)
        assert future.done()
        assert future.exception() is boom
        with pytest.raises(ValueError, match="boom"):
            future.result()

    def test_none_is_a_valid_result(self):
        future = RmiFuture()
        future.set_result(None)
        assert future.result() is None
        assert future.exception() is None

    def test_double_completion_is_an_error(self):
        future = RmiFuture()
        future.set_result(1)
        with pytest.raises(RuntimeError, match="already completed"):
            future.set_result(2)
        with pytest.raises(RuntimeError, match="already completed"):
            future.set_exception(ValueError())

    def test_completed_and_failed_constructors(self):
        assert RmiFuture.completed("x").result() == "x"
        failed = RmiFuture.failed(KeyError("k"))
        assert isinstance(failed.exception(), KeyError)


class TestWaiting:
    def test_wait_returns_false_on_timeout(self):
        future = RmiFuture()
        assert future.wait(timeout=0.01) is False
        assert not future.done()

    def test_result_timeout_raises_invocation_timeout(self):
        future = RmiFuture()
        with pytest.raises(InvocationTimeout):
            future.result(timeout=0.01)
        with pytest.raises(InvocationTimeout):
            future.exception(timeout=0.01)

    def test_cross_thread_completion_wakes_waiter(self):
        future = RmiFuture()
        timer = threading.Timer(0.05, future.set_result, args=(7,))
        timer.start()
        try:
            assert future.result(timeout=5.0) == 7
        finally:
            timer.cancel()

    def test_no_event_allocated_unless_a_waiter_parks(self):
        # The pipelined path creates one future per logical call; the
        # park/wake Event must stay lazy so non-blocking calls never
        # pay for it.
        future = RmiFuture()
        future.set_result(1)
        assert future.result() == 1
        assert future._event is None


class TestWaitHook:
    def test_wait_hook_runs_before_parking(self):
        future = RmiFuture()
        future.bind_wait_hook(lambda: future.set_result("flushed"))
        # The hook (a deferred-batch flush) completes the future, so
        # the wait returns without ever parking on an event.
        assert future.result(timeout=0) == "flushed"
        assert future._event is None

    def test_wait_hook_runs_at_most_once(self):
        calls = []
        future = RmiFuture()
        future.bind_wait_hook(lambda: calls.append(1))
        future.wait(timeout=0)
        future.wait(timeout=0)
        assert calls == [1]

    def test_wait_hook_skipped_when_already_done(self):
        calls = []
        future = RmiFuture()
        future.bind_wait_hook(lambda: calls.append(1))
        future.set_result(1)
        assert future.result() == 1
        assert calls == []


class TestCallbacks:
    def test_callback_runs_on_completion(self):
        seen = []
        future = RmiFuture()
        future.add_done_callback(seen.append)
        assert seen == []
        future.set_result(5)
        assert seen == [future]

    def test_callback_runs_immediately_when_done(self):
        seen = []
        future = RmiFuture.completed(1)
        future.add_done_callback(seen.append)
        assert seen == [future]

    def test_callbacks_run_in_order(self):
        order = []
        future = RmiFuture()
        future.add_done_callback(lambda f: order.append("a"))
        future.add_done_callback(lambda f: order.append("b"))
        future.set_exception(ValueError())
        assert order == ["a", "b"]


class TestGather:
    def test_gather_preserves_order(self):
        futures = [RmiFuture() for _ in range(4)]
        for i, future in enumerate(reversed(futures)):
            future.set_result(i)
        assert gather(futures) == [3, 2, 1, 0]

    def test_gather_raises_first_failure(self):
        ok = RmiFuture.completed(1)
        bad = RmiFuture.failed(RuntimeError("nope"))
        with pytest.raises(RuntimeError, match="nope"):
            gather([ok, bad])
