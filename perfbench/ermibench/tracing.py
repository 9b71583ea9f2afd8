"""Per-layer attribution for the traced run.

The program has no spans of its own yet, so this module wraps the
public entry points of each layer from the outside, for the duration
of one traced run, and puts every original back afterwards:

============  ==========================================================
layer         entry points wrapped
============  ==========================================================
balancer      ``ElasticStub.invoke_async`` (caller time), ``_invoke_one``
              (one per attempt)
fastpath      ``marshal_call``/``unmarshal_result`` as imported by
              ``repro.core.balancer``, ``unmarshal_call``/``marshal_result``
              as imported by ``repro.rmi.remote``
transport     the live transport's ``invoke``
skeleton      ``Skeleton.handle``; the handler is the remote method itself
kvstore       ``HyperStore`` reads and writes; the runtime's ``WatchCache``
              hit counters
cpu           ``CpuExecutor.run_call``
scaling/pool  the pool's policy ``decide``, ``ElasticObjectPool.grow`` and
              ``shrink``
============  ==========================================================

Spans of one call are joined by the identity of its ``Request`` object:
the transport's entry time is looked up when the skeleton starts it
(queue wait), and the skeleton's span is handed back to the transport
when it returns (hop time = transport span minus skeleton span).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

import repro.core.balancer as balancer_mod
import repro.rmi.remote as remote_mod
from repro.core.balancer import ElasticStub
from repro.core.pool import ElasticObjectPool
from repro.kvstore.store import HyperStore
from repro.rmi.cpu import CpuExecutor
from repro.rmi.fastpath import is_zero_copy
from repro.rmi.remote import Skeleton

STORE_READS = ("get", "get_versioned", "read_versioned", "exists", "search")
STORE_WRITES = ("put", "put_many", "cas", "incr", "delete", "update")
SIZE_CLASSES = ((8 << 10, "4k"), (256 << 10, "64k"), (None, "1m"))


def size_class(n: int) -> str:
    for bound, label in SIZE_CLASSES:
        if bound is None or n < bound:
            return label
    return SIZE_CLASSES[-1][1]


class LayerTrace:
    """Span durations and counts per layer, kept in memory."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._transport_entry: dict[int, float] = {}
        self._skeleton_span: dict[int, float] = {}
        self._undo: list[Callable[[], None]] = []

    # -- recording -------------------------------------------------------

    def span(self, name: str, seconds: float) -> None:
        self.spans[name].append(seconds)  # list.append is atomic

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def mean_us(self, name: str) -> float:
        values = self.spans.get(name)
        return 1e6 * sum(values) / len(values) if values else 0.0

    # -- patching --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        own = attr in vars(owner)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        if own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def install(self, runtime: Any, workload: Any) -> None:
        """Wrap every layer's entry points for this runtime's run."""
        self._patch_balancer()
        self._patch_fastpath()
        self._patch_transport(type(runtime.transport))
        self._patch_skeleton(runtime, workload)
        self._patch_handlers(workload)
        self._patch_store()
        self._patch_cpu()
        self._patch_control(type(runtime.record(workload.pool).policy))

    def _timed(self, name: str) -> Callable:
        """Wrapper factory: record the call's duration under ``name``."""
        def make(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.span(name, time.perf_counter() - t0)
            return wrapper
        return make

    def _patch_balancer(self) -> None:
        trace = self

        def make_submit(original: Callable) -> Callable:
            def invoke_async(stub: Any, method: str, *a: Any, **kw: Any):
                t0 = time.perf_counter()
                future = original(stub, method, *a, **kw)
                trace.span("balancer.submit", time.perf_counter() - t0)
                trace.count("calls")
                return future
            return invoke_async

        def make_attempt(original: Callable) -> Callable:
            def invoke_one(*a: Any, **kw: Any) -> Any:
                trace.count("balancer.attempts")
                return original(*a, **kw)
            return invoke_one

        self._patch(ElasticStub, "invoke_async", make_submit)
        self._patch(ElasticStub, "_invoke_one", make_attempt)

    def _patch_fastpath(self) -> None:
        trace = self

        def marshaller(original: Callable) -> Callable:
            def marshal(*a: Any) -> Any:
                t0 = time.perf_counter()
                payload = original(*a)
                trace.span("fastpath.marshal", time.perf_counter() - t0)
                if is_zero_copy(payload):
                    trace.count("fastpath.zero_copy")
                else:
                    trace.count("fastpath.copied")
                    trace.count("fastpath.bytes", len(payload))
                return payload
            return marshal

        for module, name in ((balancer_mod, "marshal_call"),
                             (remote_mod, "marshal_result")):
            self._patch(module, name, marshaller)
        for module, name in ((balancer_mod, "unmarshal_result"),
                             (remote_mod, "unmarshal_call")):
            self._patch(module, name, self._timed("fastpath.unmarshal"))

    def _patch_transport(self, transport_cls: type) -> None:
        trace = self

        def make(original: Callable) -> Callable:
            def invoke(transport: Any, endpoint_id: str, request: Any):
                key = id(request)
                t0 = time.perf_counter()
                trace._transport_entry[key] = t0
                try:
                    return original(transport, endpoint_id, request)
                finally:
                    span = time.perf_counter() - t0
                    trace._transport_entry.pop(key, None)
                    skeleton = trace._skeleton_span.pop(key, None)
                    trace.count("transport.messages")
                    if skeleton is not None:
                        trace.span("transport.hop", span - skeleton)
            return invoke

        self._patch(transport_cls, "invoke", make)

    def _patch_skeleton(self, runtime: Any, workload: Any) -> None:
        trace = self
        local = self._local

        def make(original: Callable) -> Callable:
            def handle(skeleton: Any, request: Any) -> Any:
                key = id(request)
                t0 = time.perf_counter()
                entered = trace._transport_entry.get(key)
                if entered is not None:
                    trace.span("transport.queue_wait", t0 - entered)
                if request.method == "ermi_member_identities":
                    trace.count("balancer.refreshes")
                local.handler = 0.0
                response = original(skeleton, request)
                span = time.perf_counter() - t0
                trace.span("skeleton.self", span - local.handler)
                trace._skeleton_span[key] = span
                if response.kind == "error":
                    trace.count("skeleton.errors")
                return response
            return handle

        self._patch(Skeleton, "handle", make)
        # Members export a bound ``handle`` when they start, so members
        # already running are re-pointed at the class attribute; members
        # that join later bind the wrapped one themselves.
        for member in runtime.pool(workload.pool).active_members():
            sk = member.skeleton
            endpoint = runtime.transport.endpoint(sk.endpoint_id)
            with endpoint.lock:
                endpoint.handlers = {
                    **endpoint.handlers,
                    sk.object_id: lambda req, sk=sk: Skeleton.handle(sk, req),
                }

    def _handler_time(self, seconds: float) -> None:
        self._local.handler = getattr(self._local, "handler", 0.0) + seconds

    def _patch_handlers(self, workload: Any) -> None:
        trace = self
        local = self._local

        def named(method: str) -> Callable:
            def make(original: Callable) -> Callable:
                def handler(*a: Any, **kw: Any) -> Any:
                    # Only the outermost remote method counts: DCS
                    # methods call each other (get_children -> exists).
                    depth = getattr(local, "depth", 0)
                    local.depth = depth + 1
                    t0 = time.perf_counter()
                    try:
                        return original(*a, **kw)
                    finally:
                        local.depth = depth
                        if depth == 0:
                            span = time.perf_counter() - t0
                            trace._handler_time(span)
                            trace.span("handler", span)
                            trace.span(f"handler.{method}", span)
                return handler
            return make

        for method in workload.methods:
            function = getattr(workload.cls, method)
            # @cpu_bound methods run in a worker; run_call is timed instead.
            if not getattr(function, "__ermi_cpu_bound__", False):
                self._patch(workload.cls, method, named(method))

    def _patch_store(self) -> None:
        trace = self

        def make(kind: str) -> Callable:
            def wrap(original: Callable) -> Callable:
                def op(store: Any, *a: Any, **kw: Any) -> Any:
                    t0 = time.perf_counter()
                    try:
                        return original(store, *a, **kw)
                    finally:
                        trace.span(f"kvstore.{kind}", time.perf_counter() - t0)
                        key = a[0] if a else kw.get("key")
                        if (kind == "read" and isinstance(key, str)
                                and key.endswith("$epoch")):
                            trace.count("kvstore.epoch_reads")
                return op
            return wrap

        for name in STORE_READS:
            self._patch(HyperStore, name, make("read"))
        for name in STORE_WRITES:
            self._patch(HyperStore, name, make("write"))

    def _patch_cpu(self) -> None:
        trace = self

        def make(original: Callable) -> Callable:
            def run_call(executor: Any, impl: Any, method: str, args: tuple,
                         kwargs: dict) -> Any:
                size = sum(len(a) for a in args if isinstance(a, bytes))
                t0 = time.perf_counter()
                try:
                    return original(executor, impl, method, args, kwargs)
                finally:
                    span = time.perf_counter() - t0
                    trace._handler_time(span)
                    trace.span("handler", span)
                    trace.span(f"cpu.dispatch.{size_class(size)}", span)
            return run_call

        self._patch(CpuExecutor, "run_call", make)

    def _patch_control(self, policy_cls: type) -> None:
        self._patch(policy_cls, "decide", self._timed("scaling.decide"))
        self._patch(ElasticObjectPool, "grow", self._timed("pool.grow"))
        self._patch(ElasticObjectPool, "shrink", self._timed("pool.shrink"))
