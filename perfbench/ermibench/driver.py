"""The open-loop generator: one thread sends every call when it is due.

Calls go out through ``stub.invoke_async`` on the schedule regardless
of how many earlier calls are still in flight, the way independent
users arrive.  Each call's completion time is taken in its done
callback, so latency runs from the due time to the moment the answer
was available, including any time the generator itself ran late.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .inputs import Call
from .metrics import FAILED, OK, PENDING, WRONG


@dataclass
class CallLog:
    """Per-call record of one run, indexed like the schedule's calls.

    Times are seconds since the run's origin.  ``done`` is +inf for a
    call that never completed; ``issued`` is NaN for one never sent.
    """

    due: list[float]
    issued: list[float]
    done: list[float]
    status: list[int]
    #: The answer, or the exception a failed call raised.
    values: list[Any]

    def attempted(self) -> list[int]:
        return [i for i, t in enumerate(self.issued) if not math.isnan(t)]


class OpenLoop:
    """Fire ``calls`` at their due times and record what comes back.

    ``check(call, value)`` decides whether an answer is right; a wrong
    answer is recorded as ``WRONG``, an exception as ``FAILED``.
    ``stop_before(phase, loop, log)`` is asked as each new phase begins and
    may end the run early (the capacity ladder stops once a rung has
    left a backlog no later rung could clear); the calls not sent are
    not attempted.
    """

    def __init__(
        self,
        stub: Any,
        check: Callable[[Call, Any], bool],
        stop_before: Callable[[int, "OpenLoop", CallLog], bool] | None = None,
    ) -> None:
        self.stub = stub
        self.check = check
        self.stop_before = stop_before
        self.origin = 0.0
        self._completed = 0
        self._lock = threading.Lock()

    def now(self) -> float:
        return time.perf_counter() - self.origin

    def outstanding(self, log: CallLog) -> int:
        """Calls sent and not yet completed, right now."""
        with self._lock:
            completed = self._completed
        return sum(1 for t in log.issued if not math.isnan(t)) - completed

    def run(
        self, calls: Sequence[Call], drain_timeout_s: float = 30.0,
        origin: float | None = None,
    ) -> CallLog:
        n = len(calls)
        log = CallLog(
            due=[c.due for c in calls],
            issued=[math.nan] * n,
            done=[math.inf] * n,
            status=[PENDING] * n,
            values=[None] * n,
        )
        futures: list[Any] = []
        self.origin = time.perf_counter() + 0.01 if origin is None else origin
        phase = None
        for i, call in enumerate(calls):
            if call.phase != phase:
                phase = call.phase
                if self.stop_before is not None and self.stop_before(
                    phase, self, log
                ):
                    break
            delay = call.due - self.now()
            if delay > 0:
                time.sleep(delay)
            log.issued[i] = self.now()
            try:
                future = self.stub.invoke_async(call.method, *call.args)
            except Exception:
                log.done[i] = self.now()
                log.status[i] = FAILED
                continue
            future.add_done_callback(
                lambda f, i=i, call=call: self._complete(log, i, call, f)
            )
            futures.append(future)
        deadline = time.perf_counter() + drain_timeout_s
        for future in futures:
            future.wait(max(0.0, deadline - time.perf_counter()))
        # A future is done just before its callbacks run: wait for those
        # too, so every answer is recorded before the log is read.
        while time.perf_counter() < deadline:
            with self._lock:
                if self._completed >= len(futures):
                    break
            time.sleep(0.001)
        return log

    def _complete(self, log: CallLog, i: int, call: Call, future: Any) -> None:
        done = self.now()
        try:
            value = future.result(0)
        except Exception as exc:
            status = FAILED
            value = exc
        else:
            status = OK if self.check(call, value) else WRONG
        log.values[i] = value
        log.status[i] = status
        log.done[i] = done
        with self._lock:
            self._completed += 1


class Sampler:
    """Background thread sampling ``probe()`` every ``period_s``.

    Records ``(t, probe())`` pairs on the given ``clock`` until stopped.
    """

    def __init__(
        self, probe: Callable[[], Any], clock: Callable[[], float],
        period_s: float = 0.01,
    ) -> None:
        self.samples: list[tuple[float, Any]] = []
        self._probe = probe
        self._clock = clock
        self._period = period_s
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-sampler", daemon=True
        )

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.samples.append((self._clock(), self._probe()))
            self._stop.wait(self._period)

    def stop(self) -> list[tuple[float, Any]]:
        self._stop.set()
        self._thread.join(timeout=5.0)
        return self.samples
