"""Remote objects, references, skeletons, and stubs.

The shapes follow Java RMI, with the two extra powers ElasticRMI's
preprocessor compiles into them (paper sections 2.3, 4.3):

- a :class:`Skeleton` keeps per-method call statistics (rate and latency
  over a window — the raw material for ``getMethodCallStats``), can be put
  into *drain* mode (reject new calls with a retry hint while pending ones
  finish) and can host a *redirect table* the sentinel installs to shed a
  fraction of its load onto other members;
- a :class:`Stub` is a dynamic proxy that marshals, invokes through the
  transport, follows redirects, and surfaces remote failures as
  :class:`RemoteError` subclasses.

``Stub`` here is the *unicast* stub (one fixed target, like plain RMI);
the pool-aware elastic stub with client-side load balancing lives in
:mod:`repro.core.balancer` and composes this one.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.concurrency import ThreadStripes
from repro.errors import (
    ApplicationError,
    CpuWorkerLostError,
    MemberDrainedError,
    NoSuchObjectError,
)
from repro.rmi.fastpath import (
    marshal_call,
    marshal_error,
    marshal_result,
    register_immutable,
    unmarshal_call,
    unmarshal_result,
)
from repro.rmi.future import RmiFuture, async_executor
from repro.rmi.transport import Request, Response, Transport
from repro.sim.clock import Clock, WallClock

_object_ids = itertools.count(1)


class Remote:
    """Marker base for remotely invocable classes (java.rmi.Remote)."""


@dataclass(frozen=True)
class RemoteRef:
    """A serializable pointer to one exported object: endpoint + object id.

    This is what registries store and what passes by reference in
    arguments.  ``uid`` is the pool-member unique identifier ElasticRMI
    assigns monotonically (used for sentinel election); plain RMI objects
    leave it at 0.
    """

    endpoint_id: str
    object_id: str
    uid: int = 0

    def describe(self) -> str:
        return f"{self.object_id}@{self.endpoint_id}(uid={self.uid})"


# A RemoteRef is a frozen value object: the zero-copy fast path may pass
# it by reference, which is precisely RMI's semantics for remote objects.
register_immutable(RemoteRef)


@dataclass
class MethodStats:
    """Aggregate statistics for one remote method over a window."""

    calls: int = 0
    total_latency: float = 0.0
    errors: int = 0

    def latency(self) -> float:
        """Mean latency per call (seconds); 0 when idle."""
        return 0.0 if self.calls == 0 else self.total_latency / self.calls


class _StatsStripe:
    """One writer thread's private window of per-method statistics.

    The stripe lock exists for the *reader* (window rolls must take each
    stripe exactly once); on the record path it is uncontended by
    construction — no two writer threads ever share a stripe."""

    __slots__ = ("lock", "methods")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.methods: dict[str, MethodStats] = {}


class CallStats:
    """Per-method statistics with window reset (burst-interval semantics).

    Thread-striped (:class:`~repro.concurrency.ThreadStripes`): the old
    implementation took one global lock per recorded call, which made the
    skeleton's stats the residual contention point on the dispatch hot
    path once the transports were striped.  Now each dispatcher thread
    records into its own stripe; the stripe lock it takes is never
    contended by another writer, only — briefly — by a window roll.
    Snapshots merge the stripes, and because a roll claims each stripe's
    window under that stripe's lock, every recorded call lands in exactly
    one window: nothing lost, nothing double-counted.
    """

    def __init__(self) -> None:
        self._stripes: ThreadStripes[_StatsStripe] = ThreadStripes(_StatsStripe)

    def record(self, method: str, latency: float, error: bool = False) -> None:
        stripe = self._stripes.stripe()
        with stripe.lock:
            stats = stripe.methods.setdefault(method, MethodStats())
            stats.calls += 1
            stats.total_latency += latency
            if error:
                stats.errors += 1

    @staticmethod
    def _merge(
        into: dict[str, MethodStats], window: dict[str, MethodStats]
    ) -> None:
        for name, stats in window.items():
            agg = into.setdefault(name, MethodStats())
            agg.calls += stats.calls
            agg.total_latency += stats.total_latency
            agg.errors += stats.errors

    def snapshot_and_reset(self) -> dict[str, MethodStats]:
        """Return the window's stats and start a fresh window."""
        merged: dict[str, MethodStats] = {}
        for stripe in self._stripes.stripes():
            with stripe.lock:
                window = stripe.methods
                stripe.methods = {}
            self._merge(merged, window)
        return merged

    def snapshot(self) -> dict[str, MethodStats]:
        merged: dict[str, MethodStats] = {}
        for stripe in self._stripes.stripes():
            with stripe.lock:
                window = {
                    name: MethodStats(s.calls, s.total_latency, s.errors)
                    for name, s in stripe.methods.items()
                }
            self._merge(merged, window)
        return merged

    def total_calls(self) -> int:
        total = 0
        for stripe in self._stripes.stripes():
            with stripe.lock:
                total += sum(s.calls for s in stripe.methods.values())
        return total


def _declares_cpu_bound(cls: type) -> bool:
    """Does any method in the class's surface carry ``@cpu_bound``?"""
    for name in dir(cls):
        if getattr(getattr(cls, name, None), "__ermi_cpu_bound__", False):
            return True
    return False


class Skeleton:
    """Server-side dispatcher for one exported object."""

    def __init__(
        self,
        impl: Any,
        transport: Transport,
        endpoint_id: str,
        clock: Clock | None = None,
        object_id: str | None = None,
        uid: int = 0,
        obs: Any = None,
    ) -> None:
        self.impl = impl
        self.transport = transport
        self.endpoint_id = endpoint_id
        self.object_id = object_id or f"obj-{next(_object_ids)}"
        self.uid = uid
        self.clock = clock or WallClock()
        # Observability (repro.obs.Observability): None keeps dispatch
        # at one extra branch per call.
        self._obs = obs
        # Cpu-bound dispatch, resolved once: implementations without a
        # single @cpu_bound method leave this None (no pool is created,
        # dispatch pays one identity check), and transports that decline
        # to provide a pool — DirectTransport — keep cpu-bound methods
        # inline and deterministic.
        self._cpu = None
        if _declares_cpu_bound(type(impl)):
            cpu_factory = getattr(transport, "cpu_executor", None)
            if cpu_factory is not None:
                self._cpu = cpu_factory()
        self.stats = CallStats()
        self.draining = False
        self.pending = 0
        self._pending_lock = threading.Lock()
        self._drained = threading.Event()
        self._drained.set()  # no pending work yet
        # Redirect table installed by the sentinel: a callable deciding,
        # per call, whether to bounce it to another member.
        self.redirect_policy: Callable[[Request], RemoteRef | None] | None = None
        transport.endpoint(endpoint_id).export(
            self.object_id, self.handle, self.handle_async
        )

    def ref(self) -> RemoteRef:
        return RemoteRef(self.endpoint_id, self.object_id, self.uid)

    # -- lifecycle -----------------------------------------------------------

    def start_drain(self) -> None:
        """Stop accepting new calls; pending calls run to completion.
        This is step one of the paper's graceful removal protocol."""
        self.draining = True
        with self._pending_lock:
            if self.pending == 0:
                self._drained.set()

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until all pending invocations finished (live mode)."""
        return self._drained.wait(timeout)

    @property
    def is_drained(self) -> bool:
        return self.draining and self._drained.is_set()

    def unexport(self) -> None:
        self.transport.endpoint(self.endpoint_id).unexport(self.object_id)

    # -- observability ------------------------------------------------------

    def _observe(self, method: str, latency: float, error: bool) -> None:
        """Record one completed dispatch into the observability layer.

        Only reached when an Observability is attached: the event carries
        the active fastpath mode (so a trace shows *how* payloads moved)
        and the latency lands in the per-method server histogram.
        """
        from repro.rmi.fastpath import mode

        self._obs.tracer.emit(
            "skeleton", "invoke",
            object=self.object_id, method=method,
            latency=round(latency, 9), error=error, mode=mode(),
        )
        self._obs.registry.histogram(
            f"rmi.server.latency.{self.object_id}.{method}"
        ).observe(latency)
        if error:
            self._obs.registry.counter("rmi.server.errors").inc()

    # -- dispatch ---------------------------------------------------------------

    def _admission(self, request: Request) -> Response | None:
        """Drain/redirect gate, shared by both dispatch paths."""
        if self.draining:
            return Response(kind="drained")
        if self.redirect_policy is not None:
            target = self.redirect_policy(request)
            if target is not None and target != self.ref():
                return Response(kind="redirect", value=target)
        return None

    def _resolve_method(
        self, request: Request
    ) -> tuple[Any, Response | None]:
        """Resolve the invocable method, or the refusal Response.

        Elastic-interface enforcement (paper section 3.1): when the
        class declares its remote surface, only those methods (plus the
        framework's stub-bootstrap call) are invocable.  Refusals are
        recorded as zero-latency errored calls here, once, for both
        dispatch paths.
        """
        declared = getattr(type(self.impl), "__elastic_interface__", None)
        if (
            declared is not None
            and request.method not in declared
            and request.method != "ermi_member_identities"
        ):
            refused = NoSuchObjectError(
                f"{request.method!r} is not declared in the elastic "
                f"interface of {type(self.impl).__name__}"
            )
            self.stats.record(request.method, 0.0, error=True)
            if self._obs is not None:
                self._observe(request.method, 0.0, error=True)
            return None, Response(kind="error", payload=marshal_result(refused))
        method = getattr(self.impl, request.method, None)
        if method is None or not callable(method):
            missing = NoSuchObjectError(
                f"{type(self.impl).__name__} has no remote method "
                f"{request.method!r}"
            )
            self.stats.record(request.method, 0.0, error=True)
            if self._obs is not None:
                self._observe(request.method, 0.0, error=True)
            return None, Response(kind="error", payload=marshal_result(missing))
        return method, None

    def handle(self, request: Request) -> Response:
        refusal = self._admission(request)
        if refusal is not None:
            return refusal
        with self._pending_lock:
            self.pending += 1
            self._drained.clear()
        started = self.clock.now()
        try:
            method, refusal = self._resolve_method(request)
            if refusal is not None:
                return refusal
            args, kwargs = unmarshal_call(request.payload)
            try:
                if self._cpu is not None and getattr(
                    method, "__ermi_cpu_bound__", False
                ):
                    result = self._cpu.run_call(
                        self.impl, request.method, args, kwargs
                    )
                else:
                    result = method(*args, **kwargs)
                    if inspect.iscoroutine(result):
                        # Coroutine remote methods stay invocable on the
                        # sync transports: the dispatch thread owns no
                        # loop, so a private one drives the coroutine to
                        # completion.
                        result = asyncio.run(result)
            except CpuWorkerLostError:
                # Worker death is a transport-level failure, not an
                # application error: let it propagate past the error-
                # Response fold below so the client's retry loop sees a
                # ConnectError (one attempt charged, then retried
                # against the respawned worker).
                elapsed = self.clock.now() - started
                self.stats.record(request.method, elapsed, error=True)
                if self._obs is not None:
                    self._observe(request.method, elapsed, error=True)
                raise
            except Exception as exc:
                elapsed = self.clock.now() - started
                self.stats.record(request.method, elapsed, error=True)
                if self._obs is not None:
                    self._observe(request.method, elapsed, error=True)
                return Response(kind="error", payload=marshal_error(exc))
            elapsed = self.clock.now() - started
            self.stats.record(request.method, elapsed)
            if self._obs is not None:
                self._observe(request.method, elapsed, error=False)
            return Response(kind="result", payload=marshal_result(result))
        finally:
            with self._pending_lock:
                self.pending -= 1
                if self.pending == 0 and self.draining:
                    self._drained.set()

    async def handle_async(self, request: Request) -> Response:
        """Loop-native dispatch (the asyncio transport's path).

        Mirrors :meth:`handle` exactly — drain, redirect, pending
        accounting, statistics, observability — but awaits coroutine
        remote methods in place and offloads methods marked with
        :func:`repro.rmi.aio.blocking` to the loop's default executor.
        Plain unmarked methods run inline on the loop and must be
        CPU-light (the offload rules DESIGN.md documents).
        """
        refusal = self._admission(request)
        if refusal is not None:
            return refusal
        with self._pending_lock:
            self.pending += 1
            self._drained.clear()
        started = self.clock.now()
        try:
            method, refusal = self._resolve_method(request)
            if refusal is not None:
                return refusal
            args, kwargs = unmarshal_call(request.payload)
            try:
                if self._cpu is not None and getattr(
                    method, "__ermi_cpu_bound__", False
                ):
                    # Hand the call to a worker process and await its
                    # future without blocking the loop.
                    result = await asyncio.wrap_future(
                        self._cpu.submit_call(
                            self.impl, request.method, args, kwargs
                        )
                    )
                elif getattr(method, "__ermi_blocking__", False):
                    loop = asyncio.get_running_loop()
                    result = await loop.run_in_executor(
                        None, lambda: method(*args, **kwargs)
                    )
                else:
                    result = method(*args, **kwargs)
                    if inspect.iscoroutine(result):
                        result = await result
            except CpuWorkerLostError:
                # Same contract as the sync path: propagate as a
                # transport-level ConnectError for the retry machinery.
                elapsed = self.clock.now() - started
                self.stats.record(request.method, elapsed, error=True)
                if self._obs is not None:
                    self._observe(request.method, elapsed, error=True)
                raise
            except Exception as exc:
                elapsed = self.clock.now() - started
                self.stats.record(request.method, elapsed, error=True)
                if self._obs is not None:
                    self._observe(request.method, elapsed, error=True)
                return Response(kind="error", payload=marshal_error(exc))
            elapsed = self.clock.now() - started
            self.stats.record(request.method, elapsed)
            if self._obs is not None:
                self._observe(request.method, elapsed, error=False)
            return Response(kind="result", payload=marshal_result(result))
        finally:
            with self._pending_lock:
                self.pending -= 1
                if self.pending == 0 and self.draining:
                    self._drained.set()


class Stub:
    """Client-side proxy bound to one remote reference.

    Attribute access returns invokers: ``stub.put(k, v)`` marshals
    ``(k, v)``, ships a Request, and unmarshals the Response.  Redirects
    are followed (bounded); ``drained`` responses raise
    :class:`MemberDrainedError` for the elastic stub above to catch.
    """

    _MAX_REDIRECTS = 8

    def __init__(
        self,
        transport: Transport,
        ref: RemoteRef,
        caller: str = "client",
        batcher: Any = None,
    ):
        self._transport = transport
        self._ref = ref
        self._caller = caller
        # Optional repro.rmi.batching.RequestBatcher: when attached,
        # sends route through it and may coalesce with concurrent calls
        # to the same endpoint.  None keeps the path identical to seed.
        self._batcher = batcher
        # Concurrent transports complete async calls from their own
        # threads via ``submit`` — an in-flight call parks no thread.
        self._submit = getattr(transport, "submit", None)
        # On a concurrent transport batch completions run on a thread
        # that must never block on a redirect hop (event loop, batch
        # sender); the same rule as ElasticStub's recovery offload.
        self._offload = bool(getattr(transport, "concurrent", False))

    @property
    def ref(self) -> RemoteRef:
        return self._ref

    def __getattr__(self, method: str) -> Callable[..., Any]:
        if method.startswith("_"):
            raise AttributeError(method)

        def invoker(*args: Any, **kwargs: Any) -> Any:
            return self._invoke(method, args, kwargs)

        invoker.__name__ = method
        return invoker

    def invoke_async(self, method: str, *args: Any, **kwargs: Any) -> RmiFuture:
        """Start ``method(*args, **kwargs)`` and return its future.

        The synchronous proxy surface is equivalent to
        ``invoke_async(...).result()``: both interpret the same
        :class:`Response`, the sync form simply short-circuits the
        future allocation.  With a batcher attached the entry is
        *pipelined*: it joins the batch queue without parking this
        thread and flies when the queue fills or the caller gathers —
        so a window of async calls (and any concurrent callers' calls)
        shares wire messages.  Otherwise, on a transport with
        ``submit`` (threaded, asyncio) the future completes from the
        transport's completion callback; on a deterministic transport
        the call runs eagerly in the caller thread and an
        already-completed future is returned.  Never raises: failures
        fail the returned future.
        """
        try:
            batcher = self._batcher
            if batcher is not None and batcher.enabled:
                return self._invoke_deferred(method, args, kwargs)
            if self._submit is not None:
                return self._invoke_submitted(method, args, kwargs)
            return RmiFuture.completed(self._invoke(method, args, kwargs))
        except Exception as exc:
            return RmiFuture.failed(exc)

    def _invoke_submitted(
        self, method: str, args: tuple, kwargs: dict
    ) -> RmiFuture:
        """Completion-driven invocation: no thread parks while in flight.

        The request is submitted straight to the transport; the future
        completes from its completion callback (on the event loop or the
        endpoint's dispatch worker).  Redirects re-submit from the
        callback (still non-blocking, still bounded), so a 10k-call
        window costs 10k queued calls and zero waiting threads.
        """
        payload = marshal_call(args, kwargs)
        future = RmiFuture()
        guard = getattr(self._transport, "wait_guard", None)
        if guard is not None:
            future.bind_wait_guard(guard)
        self._send_submitted(self._ref, method, payload, future, 0)
        return future

    def _send_submitted(
        self,
        ref: RemoteRef,
        method: str,
        payload: Any,
        future: RmiFuture,
        hops: int,
    ) -> None:
        # Methods plus one lambda, not closures that call each other:
        # mutually referencing closures make a reference cycle per call,
        # which under load outlives the young GC generations and makes
        # every full collection long.
        request = Request(
            object_id=ref.object_id,
            method=method,
            payload=payload,
            caller=self._caller,
        )
        self._submit(
            ref.endpoint_id,
            request,
            lambda response, error: self._submitted_done(
                ref, method, payload, future, hops, response, error
            ),
        )

    def _submitted_done(
        self,
        ref: RemoteRef,
        method: str,
        payload: Any,
        future: RmiFuture,
        hops: int,
        response: Response | None,
        error: BaseException | None,
    ) -> None:  # runs on a transport thread; must not block
        if error is not None:
            future.set_exception(error)
            return
        if response.kind == "redirect":
            if hops >= self._MAX_REDIRECTS:
                future.set_exception(ApplicationError(
                    f"redirect loop invoking {method!r} "
                    f"(> {self._MAX_REDIRECTS} hops)"
                ))
                return
            self._send_submitted(
                response.value, method, payload, future, hops + 1
            )
            return
        try:
            future.set_result(self._interpret_terminal(method, ref, response))
        except BaseException as exc:  # noqa: BLE001 - relayed to waiter
            future.set_exception(exc)

    def _invoke_deferred(self, method: str, args: tuple, kwargs: dict) -> RmiFuture:
        payload = marshal_call(args, kwargs)
        ref = self._ref
        request = Request(
            object_id=ref.object_id,
            method=method,
            payload=payload,
            caller=self._caller,
        )
        def finish(
            future: RmiFuture, response: Response | None
        ) -> None:
            try:
                future.set_result(self._interpret(method, payload, response))
            except BaseException as exc:  # noqa: BLE001 - relayed to waiter
                future.set_exception(exc)

        def complete(
            future: RmiFuture,
            response: Response | None,
            error: BaseException | None,
        ) -> None:
            if error is not None:
                future.set_exception(error)
                return
            if self._offload and response.kind == "redirect":
                # Following a redirect re-dispatches through the batcher
                # and blocks on the hop's result — never on the thread
                # that delivered this batch; the shared async pool
                # carries it.
                async_executor().submit(finish, future, response)
                return
            finish(future, response)

        return self._batcher.submit(ref.endpoint_id, request, complete)

    def _send(self, endpoint_id: str, request: Request) -> Response:
        batcher = self._batcher
        if batcher is not None:
            return batcher.dispatch(endpoint_id, request)
        return self._transport.invoke(endpoint_id, request)

    def _invoke(self, method: str, args: tuple, kwargs: dict) -> Any:
        return self._interpret(method, marshal_call(args, kwargs))

    def _interpret(
        self, method: str, payload: Any, response: Response | None = None
    ) -> Any:
        """Interpret a response, following redirects (bounded).

        With ``response=None`` this is the full sync path: build the
        request, send, interpret.  A deferred completion passes the
        already-received first-hop response and resumes from there.
        """
        ref = self._ref
        for _ in range(self._MAX_REDIRECTS):
            if response is None:
                request = Request(
                    object_id=ref.object_id,
                    method=method,
                    payload=payload,
                    caller=self._caller,
                )
                response = self._send(ref.endpoint_id, request)
            if response.kind == "redirect":
                ref = response.value
                response = None  # re-dispatch at the redirect target
                continue
            return self._interpret_terminal(method, ref, response)
        raise ApplicationError(
            f"redirect loop invoking {method!r} (> {self._MAX_REDIRECTS} hops)"
        )

    def _interpret_terminal(
        self, method: str, ref: RemoteRef, response: Response
    ) -> Any:
        """Interpret a non-redirect response (shared by every path)."""
        if response.kind == "result":
            return unmarshal_result(response.payload)
        if response.kind == "error":
            cause = unmarshal_result(response.payload)
            raise ApplicationError(
                f"remote method {method!r} raised "
                f"{type(cause).__name__}: {cause}",
                cause=cause,
            )
        if response.kind == "drained":
            raise MemberDrainedError(
                f"member {ref.describe()} is draining; retry elsewhere"
            )
        raise ApplicationError(f"unknown response kind: {response.kind}")
