"""In-process transports: how requests travel between "JVMs".

Every pool member (and every client) lives at an :class:`Endpoint`, the
stand-in for one JVM at one IP:port.  Two transports move
:class:`Request`/:class:`Response` pairs between endpoints:

- :class:`DirectTransport` — synchronous delivery in the caller's thread.
  Deterministic; used by unit tests and by the simulation experiments.
- :class:`ThreadedTransport` — each endpoint owns a dispatch pool, calls
  block the caller until the remote worker responds (or a timeout trips).
  This is the live mode the runnable examples use: real concurrency, real
  blocking semantics.

The concurrent transports (threaded and asyncio) also share one
completion-driven primitive, ``submit(endpoint_id, request, on_done)``:
it queues the call and returns at once, and ``on_done(response, error)``
runs exactly once when the reply, a delivery failure, or the deadline
arrives — on a transport-owned thread (the endpoint's dispatch worker,
the deadline watchdog, or the event loop).  ``submit`` never raises.
Stub ``invoke_async`` rides it, so an in-flight asynchronous call parks
no thread of its own.

The invoke path is engineered to be contention-free (the fast-path
invariants DESIGN.md documents):

- the endpoint and dispatcher maps are *read-mostly*: lookups read a
  plain dict with no lock; membership changes copy-on-write a fresh dict
  under the admin lock and publish it with one atomic reference store;
- per-endpoint state (alive flag, exported handlers) is guarded by that
  endpoint's own lock, so killing one endpoint never stalls traffic to
  the others;
- ``messages_sent`` is a :class:`~repro.concurrency.StripedCounter`, so
  concurrent callers never lose counts and never serialize on it.

Endpoints can be killed to model JVM crashes; invoking a dead or unknown
endpoint raises :class:`ConnectError`, which the elastic stub's retry loop
feeds on (paper section 4.3: "if the sending itself fails, the remote
method invocation throws an exception which is intercepted by the client
stub").  A killed endpoint stays *resolvable*: its dispatcher is gone but
the endpoint record remains, so the failure always surfaces as the
"endpoint ... is down" ConnectError the retry loop expects, never as a
missing-dispatcher internal error.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Protocol

from repro.concurrency import StripedCounter
from repro.errors import ConnectError, RemoteError
from repro.rmi.fastpath import FastPayload

_endpoint_ids = itertools.count(1)


@dataclass(frozen=True)
class Request:
    """One remote method invocation on the wire.

    ``payload`` is the marshalled ``(args, kwargs)``: pickled bytes on
    the pass-by-value path, a :class:`FastPayload` on the zero-copy path.
    """

    object_id: str
    method: str
    payload: bytes | FastPayload
    caller: str = "?"


@dataclass(frozen=True)
class Response:
    """The server's reply.

    ``kind``:
      - ``result`` — payload is the marshalled return value;
      - ``error`` — payload is the marshalled application exception;
      - ``redirect`` — value is a RemoteRef the caller should retry at
        (server-side load balancing, paper section 4.3);
      - ``drained`` — the member is shutting down; retry elsewhere;
      - ``unresolved`` — batch-only: this entry's object was not
        exported at the endpoint.  The client batcher converts it to the
        same :class:`ConnectError` a non-batched call would have raised,
        so the elastic retry loop treats both identically.
    """

    kind: str
    payload: bytes | FastPayload = b""
    value: Any = None


@dataclass(frozen=True)
class BatchRequest:
    """One wire message carrying several logical invocations.

    The client-side batcher coalesces concurrent calls bound for the
    same endpoint into one of these; the transport delivers it as a
    *single* message — one fault-hook consultation, one
    ``messages_sent`` increment — and unbatches on the server side,
    dispatching every entry through its own exported handler so drain,
    redirect, statistics, and errors stay per logical call.

    Entry payloads travel exactly as they were marshalled (pickled
    bytes or zero-copy :class:`FastPayload`); batching never re-wraps
    or copies them.
    """

    entries: tuple[Request, ...]
    caller: str = "?"

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class BatchResponse:
    """Per-entry replies for one :class:`BatchRequest`, in entry order."""

    entries: tuple[Response, ...]

    def __len__(self) -> int:
        return len(self.entries)


RequestHandler = Callable[[Request], Response]
AsyncRequestHandler = Callable[[Request], Awaitable[Response]]

# Completion callback of a submitted call (or batch): exactly one of
# (response, error) is non-None.  It runs on a transport-owned thread,
# so it must not block; anything that would belongs on a pool.
DoneCallback = Callable[[Any, "BaseException | None"], None]


@dataclass
class Endpoint:
    """One process/JVM: an address plus the objects exported from it.

    Each endpoint carries its own lock for state transitions (export,
    unexport, kill, revive); the handler maps are copy-on-write so the
    invoke path reads them without locking.  ``ahandlers`` holds the
    optional coroutine dispatch path a skeleton also exports — only the
    asyncio transport reads it; sync transports use ``handlers`` alone.
    """

    name: str
    endpoint_id: str = field(
        default_factory=lambda: f"ep-{next(_endpoint_ids)}"
    )
    handlers: dict[str, RequestHandler] = field(default_factory=dict)
    ahandlers: dict[str, AsyncRequestHandler] = field(default_factory=dict)
    alive: bool = True
    lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def export(
        self,
        object_id: str,
        handler: RequestHandler,
        async_handler: AsyncRequestHandler | None = None,
    ) -> None:
        with self.lock:
            if object_id in self.handlers:
                raise ValueError(f"object already exported: {object_id}")
            handlers = dict(self.handlers)
            handlers[object_id] = handler
            self.handlers = handlers
            if async_handler is not None:
                ahandlers = dict(self.ahandlers)
                ahandlers[object_id] = async_handler
                self.ahandlers = ahandlers

    def unexport(self, object_id: str) -> None:
        with self.lock:
            handlers = dict(self.handlers)
            handlers.pop(object_id, None)
            self.handlers = handlers
            if object_id in self.ahandlers:
                ahandlers = dict(self.ahandlers)
                ahandlers.pop(object_id, None)
                self.ahandlers = ahandlers


def _down(ep: Endpoint) -> ConnectError:
    """The retryable error for a dead, killed, or shut-down endpoint."""
    return ConnectError(f"endpoint {ep.endpoint_id} ({ep.name}) is down")


class Transport(Protocol):
    """Moves requests between endpoints.

    The concurrent transports add the completion-driven primitive
    ``submit(endpoint_id, request, on_done)``: it never blocks and never
    raises, and calls ``on_done(response, error)`` exactly once, with
    exactly one of the two non-None.  Stubs take that path for
    ``invoke_async`` wherever a transport has it; the deterministic
    :class:`DirectTransport` has none and runs calls eagerly instead.
    """

    # True when invocations really block OS threads (the live threaded
    # transport); False for deterministic in-thread delivery.  The
    # batcher picks its dispatch discipline from this.
    concurrent: bool

    def add_endpoint(self, name: str) -> Endpoint: ...

    def invoke(self, endpoint_id: str, request: Request) -> Response: ...

    def invoke_batch(
        self, endpoint_id: str, batch: BatchRequest
    ) -> BatchResponse: ...

    def kill(self, endpoint_id: str) -> None: ...

    def endpoint(self, endpoint_id: str) -> Endpoint: ...


# A fault hook sees every request about to be delivered and may raise
# (ConnectError for a drop, RemoteError for an injected timeout) or sleep
# to model network faults.  Returning normally lets the request through.
FaultHook = Callable[[str, Request], None]


class _TransportBase:
    concurrent = False

    def __init__(self) -> None:
        # Read-mostly map: reads are lock-free, mutations copy-on-write
        # under the admin lock and publish atomically.
        self._endpoints: dict[str, Endpoint] = {}
        self._admin_lock = threading.RLock()
        self._messages = StripedCounter()
        self._fault_hook: FaultHook | None = None
        # Observability: None keeps the invoke path at one extra branch.
        self._tracer = None
        self._obs = None
        # Process pool for @cpu_bound methods; created lazily by the
        # concurrent transports, permanently None on DirectTransport so
        # deterministic tests stay single-process.
        self._cpu_executor = None

    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with None) a :class:`repro.obs.Tracer`.

        Message events record endpoint *names*, never process-global
        ``ep-N`` ids, so seeded traces are identical across runs."""
        self._tracer = tracer

    def set_obs(self, obs) -> None:
        """Attach (or detach, with None) a full observability context.

        Beyond the tracer this unlocks transport-owned metrics —
        dispatch-pool saturation gauges here, loop-lag histograms on the
        asyncio transport.  ``set_tracer`` alone stays available for
        trace-only consumers (determinism tests)."""
        self._obs = obs
        self.set_tracer(None if obs is None else obs.tracer)
        executor = self._cpu_executor
        if executor is not None:
            executor.set_obs(obs)

    def cpu_executor(self):
        """The transport's :class:`~repro.rmi.cpu.CpuExecutor`, or None.

        The base returns whatever was injected with
        :meth:`set_cpu_executor`; skeletons treat None as "run
        ``@cpu_bound`` methods inline" (the DirectTransport behaviour).
        """
        return self._cpu_executor

    def set_cpu_executor(self, executor) -> None:
        """Inject a (possibly shared) cpu executor; None detaches it.

        The transport does not take ownership of an injected executor —
        :meth:`shutdown` only stops pools the transport created itself.
        """
        self._cpu_executor = executor
        self._owns_cpu_executor = False

    def _ensure_cpu_executor(self):
        """Create the pool on first use — endpoints that never export a
        ``@cpu_bound`` method never pay for worker processes."""
        executor = self._cpu_executor
        if executor is None:
            with self._admin_lock:
                executor = self._cpu_executor
                if executor is None:
                    from repro.rmi.cpu import CpuExecutor

                    executor = CpuExecutor(obs=self._obs)
                    self._cpu_executor = executor
                    self._owns_cpu_executor = True
        return executor

    def _shutdown_cpu_executor(self) -> None:
        with self._admin_lock:
            executor = self._cpu_executor
            owned = getattr(self, "_owns_cpu_executor", False)
            self._cpu_executor = None
        if executor is not None and owned:
            executor.shutdown()

    def install_fault_hook(self, hook: FaultHook | None) -> None:
        """Install (or clear, with None) a fault-injection hook.

        The hook runs after the endpoint resolves but before delivery
        counts, so an injected drop is indistinguishable on the wire
        from a message that never arrived.
        """
        self._fault_hook = hook

    @property
    def messages_sent(self) -> int:
        """Total requests delivered (exact even under concurrency)."""
        return self._messages.value()

    def add_endpoint(self, name: str) -> Endpoint:
        ep = Endpoint(name=name)
        with self._admin_lock:
            endpoints = dict(self._endpoints)
            endpoints[ep.endpoint_id] = ep
            self._endpoints = endpoints
        return ep

    def endpoint(self, endpoint_id: str) -> Endpoint:
        ep = self._endpoints.get(endpoint_id)
        if ep is None:
            raise ConnectError(f"unknown endpoint: {endpoint_id}")
        return ep

    def kill(self, endpoint_id: str) -> None:
        """Crash an endpoint: subsequent invokes raise ConnectError.

        The endpoint record is kept (dead but resolvable), so callers
        racing the kill still get the "is down" ConnectError."""
        ep = self._endpoints.get(endpoint_id)
        if ep is not None:
            with ep.lock:
                ep.alive = False

    def revive(self, endpoint_id: str) -> None:
        ep = self._endpoints.get(endpoint_id)
        if ep is not None:
            with ep.lock:
                ep.alive = True

    def _resolve(
        self, endpoint_id: str, request: Request
    ) -> tuple[Endpoint, RequestHandler]:
        ep = self.endpoint(endpoint_id)
        if not ep.alive:
            raise _down(ep)
        handler = ep.handlers.get(request.object_id)
        if handler is None:
            raise ConnectError(
                f"no object {request.object_id!r} at endpoint {ep.name}"
            )
        return ep, handler

    def _resolve_endpoint(self, endpoint_id: str) -> Endpoint:
        """Endpoint-level resolution for a batch: alive or ConnectError.

        Per-entry object lookup is deferred to dispatch time so one
        stale entry cannot fail the whole wire message."""
        ep = self.endpoint(endpoint_id)
        if not ep.alive:
            raise _down(ep)
        return ep

    def _batch_prologue(
        self, endpoint_id: str, ep: Endpoint, batch: BatchRequest
    ) -> None:
        """The one-wire-message bookkeeping shared by both transports.

        A batch is a single message: the fault hook is consulted once
        (an injected drop loses the whole batch, exactly as a lost
        packet would), ``messages_sent`` advances by one, and one
        transport trace event records the coalesced size.
        """
        hook = self._fault_hook
        if hook is not None:
            hook(endpoint_id, batch_envelope(batch))
        self._messages.increment()
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "transport", "batch-message",
                endpoint=ep.name, size=len(batch.entries),
                caller=batch.caller,
            )

    @staticmethod
    def _dispatch_entry(ep: Endpoint, request: Request) -> Response:
        handler = ep.handlers.get(request.object_id)
        if handler is None:
            return Response(kind="unresolved", value=request.object_id)
        return handler(request)


def batch_envelope(batch: BatchRequest) -> Request:
    """The Request-shaped view of a batch that fault hooks observe.

    Hooks see one message per batch (drop rates are per wire message,
    not per logical call); ``method`` carries the coalesced size so
    injector traces stay readable.
    """
    return Request(
        object_id="ermi.batch",
        method=f"ermi.batch[{len(batch.entries)}]",
        payload=b"",
        caller=batch.caller,
    )


class DirectTransport(_TransportBase):
    """Synchronous, deterministic delivery in the caller's thread.

    ``on_message`` (optional) observes every request — the hook used for
    latency accounting in simulation and message tracing in tests.
    """

    def __init__(
        self, on_message: Callable[[str, Request], None] | None = None
    ) -> None:
        super().__init__()
        self._on_message = on_message

    def invoke(self, endpoint_id: str, request: Request) -> Response:
        ep, handler = self._resolve(endpoint_id, request)
        hook = self._fault_hook
        if hook is not None:
            hook(endpoint_id, request)
        self._messages.increment()
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "transport", "message",
                endpoint=ep.name, method=request.method, caller=request.caller,
            )
        if self._on_message is not None:
            self._on_message(endpoint_id, request)
        return handler(request)

    def invoke_batch(
        self, endpoint_id: str, batch: BatchRequest
    ) -> BatchResponse:
        """Deliver a batch deterministically, one entry at a time.

        Entries dispatch sequentially in the caller's thread and in
        entry order — the deterministic analogue of pipelining: one wire
        message, then per-call processing, with ``on_message`` still
        observing every logical invocation for simulation accounting.
        """
        ep = self._resolve_endpoint(endpoint_id)
        self._batch_prologue(endpoint_id, ep, batch)
        on_message = self._on_message
        responses = []
        for request in batch.entries:
            if on_message is not None:
                on_message(endpoint_id, request)
            responses.append(self._dispatch_entry(ep, request))
        return BatchResponse(entries=tuple(responses))


class _DispatchStats:
    """Saturation counters for one endpoint's dispatch pool.

    Three monotone striped counters; the derived views are
    ``queued = submitted - started`` (jobs waiting for a worker) and
    ``busy = started - finished`` (workers running a job).  Reading
    them is racy by nature — each counter is exact, the difference is a
    point-in-time estimate, clamped at zero for the read-skew case.
    """

    __slots__ = ("submitted", "started", "finished")

    def __init__(self) -> None:
        self.submitted = StripedCounter()
        self.started = StripedCounter()
        self.finished = StripedCounter()

    def queued(self) -> int:
        return max(0, self.submitted.value() - self.started.value())

    def busy(self) -> int:
        return max(0, self.started.value() - self.finished.value())


class _Deadlines:
    """Per-call deadlines for :meth:`ThreadedTransport.submit`.

    Every call gets the same timeout, so registration order is deadline
    order: a call appends ``(deadline, token)`` to a deque and parks its
    completion in ``pending``.  One permanent daemon watchdog walks the
    deque head and parks on an event while the deque is empty.  The
    worker with the reply and the watchdog with the timeout both *pop*
    the call's entry from ``pending`` (atomic in CPython); whoever gets
    it completes the call, the other drops its outcome.  No thread or
    timer is created per call.
    """

    # The watchdog wakes at least this often, pruning finished calls off
    # the deque head so it stays bounded by the recent call rate rather
    # than growing for a whole timeout between wakes.
    PRUNE_INTERVAL_S = 1.0

    def __init__(self, timeout: float) -> None:
        self._timeout = timeout
        self._pending: dict[int, tuple[str, DoneCallback]] = {}
        self._order: deque[tuple[float, int]] = deque()
        self._tokens = itertools.count()
        self._wake = threading.Event()
        threading.Thread(
            target=self._watch, name="ermi-deadline", daemon=True
        ).start()

    def watch(self, method: str, on_done: DoneCallback) -> DoneCallback:
        """Arm one call's deadline; returns its first-wins completer."""
        token = next(self._tokens)
        pending = self._pending
        # ``pending`` before ``order``: the watchdog prunes deque entries
        # whose token it cannot find.
        pending[token] = (method, on_done)
        self._order.append((time.monotonic() + self._timeout, token))
        # Append, then set if clear: the watchdog clears before it looks
        # at the deque, so either it sees this entry or it sees the set.
        wake = self._wake
        if not wake.is_set():
            wake.set()

        def finish(response: Any, error: BaseException | None) -> None:
            if pending.pop(token, None) is not None:
                on_done(response, error)

        return finish

    def _watch(self) -> None:
        order, pending, wake = self._order, self._pending, self._wake
        while True:
            wake.clear()
            now = time.monotonic()
            while order:
                deadline, token = order[0]
                if deadline > now and token in pending:
                    break
                order.popleft()
                entry = pending.pop(token, None)
                if entry is not None:
                    self._expire(*entry)
            if order:
                time.sleep(min(order[0][0] - now, self.PRUNE_INTERVAL_S))
            else:
                wake.wait()

    def _expire(self, method: str, on_done: DoneCallback) -> None:
        try:
            on_done(None, RemoteError(
                f"invocation of {method!r} timed out after {self._timeout}s"
            ))
        except Exception:  # noqa: BLE001 - the watchdog must survive
            # A completer that raises is a bug in the caller; report it
            # the way an uncaught thread exception is, and keep watching.
            threading.excepthook(threading.ExceptHookArgs(
                (*sys.exc_info(), threading.current_thread())
            ))


_deadlines_lock = threading.Lock()
_deadlines_by_timeout: dict[float, _Deadlines] = {}


def _deadlines(timeout: float) -> _Deadlines:
    """The process-wide tracker for one timeout value.

    Transports with the same timeout share one watchdog, so a new
    transport (every new live runtime) does not pay a thread start on
    its first call while an earlier one's watchdog is still up.
    """
    with _deadlines_lock:
        tracker = _deadlines_by_timeout.get(timeout)
        if tracker is None:
            tracker = _deadlines_by_timeout[timeout] = _Deadlines(timeout)
        return tracker


class ThreadedTransport(_TransportBase):
    """Live transport: per-endpoint dispatch pools, blocking invocations.

    :meth:`invoke` blocks the caller on the dispatch worker's reply;
    :meth:`submit` hands the call to the same pool and returns, and the
    worker completes it.  Both share one prologue and the per-call
    deadline.  A call still queued when :meth:`kill` stops its endpoint
    fails with the retryable "endpoint ... is down" :class:`ConnectError`
    on every path, never with a bare cancellation.
    """

    concurrent = True

    def __init__(self, workers_per_endpoint: int = 4, timeout: float = 30.0):
        super().__init__()
        self._workers = workers_per_endpoint
        self._timeout = timeout
        # Read-mostly, like the endpoint map.
        self._executors: dict[str, ThreadPoolExecutor] = {}
        self._dispatch: dict[str, _DispatchStats] = {}
        self._deadlines = _deadlines(timeout)

    def add_endpoint(self, name: str) -> Endpoint:
        ep = super().add_endpoint(name)
        executor = ThreadPoolExecutor(
            max_workers=self._workers,
            thread_name_prefix=f"erm-{name}",
        )
        with self._admin_lock:
            executors = dict(self._executors)
            executors[ep.endpoint_id] = executor
            self._executors = executors
            dispatch = dict(self._dispatch)
            dispatch[ep.endpoint_id] = _DispatchStats()
            self._dispatch = dispatch
        return ep

    def dispatch_stats(self, endpoint_id: str) -> dict[str, int] | None:
        """Point-in-time saturation view of one endpoint's pool.

        ``queued`` is jobs waiting for a worker, ``busy`` is workers
        running one; ``queued > 0`` with ``busy == workers`` is the
        saturation signature that motivates the asyncio transport.
        """
        stats = self._dispatch.get(endpoint_id)
        if stats is None:
            return None
        return {
            "queued": stats.queued(),
            "busy": stats.busy(),
            "workers": self._workers,
        }

    def _executor(self, ep: Endpoint) -> ThreadPoolExecutor:
        executor = self._executors.get(ep.endpoint_id)
        if executor is None:
            # The dispatcher is gone but the endpoint resolved: we raced
            # a kill()/shutdown().  Surface the same ConnectError a dead
            # endpoint raises so retry loops treat both identically.
            raise _down(ep)
        return executor

    def _submit_job(
        self,
        executor: ThreadPoolExecutor,
        ep: Endpoint,
        job: Callable[[], Any],
    ) -> Future:
        """Submit one dispatch job, tracking pool saturation.

        Gauges are refreshed at submit time — the moment queue depth can
        only have grown — so a saturated pool is visible in the metrics
        timeline even between scrapes.  A pool that a racing
        :meth:`kill` shut down after the lookup raises the endpoint's
        "is down" :class:`ConnectError`.
        """
        stats = self._dispatch[ep.endpoint_id]
        stats.submitted.increment()

        def run() -> Any:
            stats.started.increment()
            try:
                return job()
            finally:
                stats.finished.increment()

        try:
            future = executor.submit(run)
        except RuntimeError as exc:  # shut down between lookup and submit
            stats.started.increment()
            stats.finished.increment()
            raise _down(ep) from exc
        obs = self._obs
        if obs is not None:
            registry = obs.registry
            registry.gauge(f"rmi.server.dispatch_queued.{ep.name}").set(
                float(stats.queued())
            )
            registry.gauge(f"rmi.server.dispatch_busy.{ep.name}").set(
                float(stats.busy())
            )
        return future

    def _prologue(
        self, endpoint_id: str, request: Request
    ) -> tuple[Endpoint, RequestHandler, ThreadPoolExecutor]:
        """Resolve, then the wire bookkeeping shared by :meth:`invoke`
        and :meth:`submit`: fault hook, ``messages_sent``, trace event."""
        ep, handler = self._resolve(endpoint_id, request)
        executor = self._executor(ep)
        hook = self._fault_hook
        if hook is not None:
            hook(endpoint_id, request)
        self._messages.increment()
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "transport", "message",
                endpoint=ep.name, method=request.method, caller=request.caller,
            )
        return ep, handler, executor

    def invoke(self, endpoint_id: str, request: Request) -> Response:
        ep, handler, executor = self._prologue(endpoint_id, request)
        future = self._submit_job(executor, ep, lambda: handler(request))
        try:
            return future.result(timeout=self._timeout)
        except TimeoutError as exc:
            raise RemoteError(
                f"invocation of {request.method!r} timed out after "
                f"{self._timeout}s"
            ) from exc
        except CancelledError as exc:  # still queued when kill() ran
            raise _down(ep) from exc

    def submit(
        self, endpoint_id: str, request: Request, on_done: DoneCallback
    ) -> None:
        """Start one call; ``on_done(response, error)`` runs once.

        Non-blocking and never raises: resolve and fault-hook failures
        complete the call at once, in the caller's thread.  Otherwise
        the handler is queued on the endpoint's dispatch pool and the
        dispatch worker completes the call with its reply; an overrun
        completes it from the deadline watchdog with the same
        :class:`RemoteError` :meth:`invoke` raises (the late reply is
        dropped), and a job :meth:`kill` cancels completes with the
        endpoint's "is down" :class:`ConnectError`.
        """
        try:
            ep, handler, executor = self._prologue(endpoint_id, request)
        except Exception as exc:  # noqa: BLE001 - relayed to completer
            on_done(None, exc)
            return
        finish = self._deadlines.watch(request.method, on_done)

        def run() -> None:
            try:
                response = handler(request)
            except BaseException as exc:  # noqa: BLE001 - relayed
                finish(None, exc)
            else:
                finish(response, None)

        def cancelled(job: Future) -> None:
            if job.cancelled():
                finish(None, _down(ep))

        try:
            self._submit_job(executor, ep, run).add_done_callback(cancelled)
        except ConnectError as exc:
            finish(None, exc)

    def invoke_batch(
        self, endpoint_id: str, batch: BatchRequest
    ) -> BatchResponse:
        """Deliver a batch and dispatch its entries in parallel.

        Entries are split into contiguous chunks, at most one per
        endpoint worker, so a 64-call batch costs ~4 executor
        submissions instead of 64 — that amortization (plus the single
        wire message) is where the batched-throughput win comes from.
        Chunk jobs run entries sequentially and results reassemble in
        entry order.  One deadline covers the whole batch; tripping it
        raises the same :class:`RemoteError` a single slow invocation
        would.
        """
        ep = self._resolve_endpoint(endpoint_id)
        executor = self._executor(ep)
        self._batch_prologue(endpoint_id, ep, batch)
        requests = batch.entries
        chunk_count = min(self._workers, len(requests))
        size, extra = divmod(len(requests), chunk_count)
        chunks = []
        start = 0
        for i in range(chunk_count):
            stop = start + size + (1 if i < extra else 0)
            chunks.append(requests[start:stop])
            start = stop

        def run_chunk(chunk: tuple[Request, ...]) -> list[Response]:
            return [self._dispatch_entry(ep, request) for request in chunk]

        futures = [
            self._submit_job(
                executor, ep, lambda chunk=chunk: run_chunk(chunk)
            )
            for chunk in chunks
        ]
        deadline = time.monotonic() + self._timeout
        responses: list[Response] = []
        try:
            for future in futures:
                remaining = deadline - time.monotonic()
                responses.extend(future.result(timeout=max(0.0, remaining)))
        except TimeoutError as exc:
            raise RemoteError(
                f"batch of {len(requests)} invocations timed out after "
                f"{self._timeout}s"
            ) from exc
        except CancelledError as exc:  # still queued when kill() ran
            raise _down(ep) from exc
        return BatchResponse(entries=tuple(responses))

    def kill(self, endpoint_id: str) -> None:
        # Mark dead first so racing invokes fail in _resolve before they
        # ever look for the dispatcher.
        super().kill(endpoint_id)
        with self._admin_lock:
            executors = dict(self._executors)
            executor = executors.pop(endpoint_id, None)
            self._executors = executors
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def cpu_executor(self):
        return self._ensure_cpu_executor()

    def shutdown(self) -> None:
        """Stop every dispatcher and the cpu pool (end of a session)."""
        with self._admin_lock:
            executors = list(self._executors.values())
            self._executors = {}
        for executor in executors:
            executor.shutdown(wait=False, cancel_futures=True)
        self._shutdown_cpu_executor()
