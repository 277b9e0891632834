"""Micro-batching request scheduler on one asyncio event loop.

Single-request serving wastes the hardware: scoring one query against the
catalogue is a matvec, while scoring 64 queued queries together is one BLAS
matmul at nearly the same wall-clock cost.  The scheduler coalesces
concurrent requests into such batches under a latency contract:

* a batch is dispatched as soon as ``max_batch_size`` requests are queued, or
* when the *oldest* queued request has waited ``max_wait_s`` (the deadline),
  whichever comes first.

:class:`AsyncBatchScheduler` is the only batching implementation and has no
synchronous twin: every request is an ``asyncio``-completable handle and one
loop task drives the deadline flushes, so thousands of requests can be in
flight at the same micro-batch deadlines.  Synchronous callers reach it
through :class:`~repro.serving.gateway.gateway.ServingGateway`'s ``search``
/ ``rank`` / ``rank_batch``, which run the same coroutines to completion on
a loop the gateway owns.  On top of the batching contract it adds the
request-lifecycle controls a loop front-end needs:

* **admission control** — a bounded queue (``max_queue``) with two
  backpressure policies: ``overload="reject"`` fails the submit with
  :class:`OverloadError` immediately, ``overload="wait"`` parks the
  submitter on a FIFO waiter future until a slot frees;
* **deadline propagation** — a request may carry a deadline; requests past
  it are failed with :class:`DeadlineExceededError` *before* scoring, so an
  overloaded queue sheds work it could no longer answer in time;
* **cooperative cancellation** — a cancelled request's slot is dropped when
  its batch is formed, so its query is never scored;
* **graceful shutdown** — :meth:`AsyncBatchScheduler.stop` cancels the
  drive task and drains the queue, completing every in-flight future.

The clock is injectable so deadline semantics are unit-testable without
sleeping (``await`` :meth:`~AsyncBatchScheduler.poll` explicitly, as the
deterministic test suites do).
"""

from __future__ import annotations

import asyncio
import inspect
import time
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Sequence

from repro.serving.obs.metrics import Histogram
from repro.serving.obs.tracing import STATUS_ERROR, STATUS_SHED

OVERLOAD_POLICIES = ("wait", "reject")


class OverloadError(RuntimeError):
    """Admission control rejected a request: the bounded queue is full."""


class DeadlineExceededError(TimeoutError):
    """A request aged past its deadline before its batch was scored."""


class PendingRequest:
    """Completable handle for one enqueued request.

    ``await`` the handle (or :meth:`wait`) for the result; an
    :class:`asyncio.Future` is attached lazily on the awaiting loop, so a
    request that completes before anyone waits costs no future.
    :meth:`cancel` is cooperative: a request cancelled while queued is
    dropped when its batch is formed — its slot is never scored.
    """

    def __init__(
        self,
        query_id: int,
        k: int,
        enqueued_at: float,
        deadline_at: Optional[float] = None,
        tag: Optional[str] = None,
        trace=None,
    ) -> None:
        self.query_id = query_id
        self.k = k
        self.enqueued_at = enqueued_at
        self.deadline_at = deadline_at
        #: Telemetry attribution tag (e.g. the A/B experiment bucket); every
        #: answered/shed event for this request is recorded under it.
        self.tag = tag
        #: The request's :class:`~repro.serving.obs.tracing.Trace`, or None
        #: when tracing is off; instrumentation sites guard on it.
        self.trace = trace
        self.completed_at: Optional[float] = None
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._cancelled = False
        self._future: Optional[asyncio.Future] = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> bool:
        """Cooperatively cancel; returns False when already completed."""
        if self._done:
            return False
        self._cancelled = True
        self._error = asyncio.CancelledError("request cancelled")
        self._done = True
        if self._future is not None and not self._future.done():
            self._future.cancel()
        if self.trace is not None:
            self.trace.finish("cancelled")
        return True

    async def wait(self) -> Any:
        """Await completion on the current event loop."""
        if self._done:
            if self._error is not None:
                raise self._error
            return self._value
        if self._future is None:
            self._future = asyncio.get_running_loop().create_future()
        return await self._future

    def __await__(self):
        return self.wait().__await__()

    def _complete(self, value: Any, completed_at: float) -> None:
        if self._done:  # already cancelled or failed: drop the value
            return
        self._value = value
        self.completed_at = completed_at
        self._done = True
        if self._future is not None and not self._future.done():
            self._future.set_result(value)

    def _fail(self, error: BaseException, completed_at: float) -> None:
        if self._done:
            return
        self._error = error
        self.completed_at = completed_at
        self._done = True
        if self._future is not None and not self._future.done():
            self._future.set_exception(error)


class AsyncBatchScheduler:
    """Coalesce concurrent requests into vectorised batches on one loop.

    ``executor`` receives the list of live :class:`PendingRequest` of one
    batch and returns one result per request (same order); it may be a
    plain callable or a coroutine function.  A raised exception propagates
    to every request of the failed batch; an exception *returned* in place
    of a single result fails only that request.

    The scheduler binds to an event loop lazily (first coroutine that
    touches it) and may rebind when idle — which is how one scheduler can
    serve the gateway's own loop (its synchronous ``search`` / ``rank``)
    and a caller's ``asyncio.run`` in the same process, just not
    concurrently.

    ``telemetry`` (optionally a
    :class:`~repro.serving.gateway.telemetry.GatewayTelemetry`) receives
    queue-depth, overload, deadline-miss, cancellation and loop-lag events.
    """

    def __init__(
        self,
        executor: Callable[[Sequence[PendingRequest]], Sequence[Any]],
        max_batch_size: int = 32,
        max_wait_s: float = 0.002,
        max_queue: Optional[int] = None,
        overload: str = "wait",
        clock: Callable[[], float] = time.monotonic,
        telemetry=None,
        tracer=None,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if max_queue is not None and max_queue <= 0:
            raise ValueError("max_queue must be positive (or None for unbounded)")
        if overload not in OVERLOAD_POLICIES:
            known = ", ".join(OVERLOAD_POLICIES)
            raise ValueError(f"unknown overload policy {overload!r} (known: {known})")
        self.executor = executor
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.max_queue = max_queue
        self.overload = overload
        self.telemetry = telemetry
        self.tracer = tracer
        self._clock = clock
        self._queue: Deque[PendingRequest] = deque()
        self._waiters: Deque[asyncio.Future] = deque()
        # Slots already granted to woken waiters but not yet enqueued; they
        # count against max_queue so fresh submitters cannot steal them.
        self._reserved = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._drive_task: Optional[asyncio.Task] = None
        self.batches_dispatched = 0
        self.requests_dispatched = 0
        self.overload_rejections = 0
        self.deadline_misses = 0
        self.cancelled_requests = 0
        self.max_queue_depth = 0
        self._in_flight = 0
        #: Executor wall-time distribution — a fixed-bucket histogram, so
        #: the scheduler's own footprint stays O(buckets) under sustained
        #: traffic (the per-batch latency list it replaces grew forever).
        self.execute_latency = Histogram()

    # ------------------------------------------------------------------ #
    # Loop binding
    # ------------------------------------------------------------------ #
    def check_rebind(self, loop: Optional[asyncio.AbstractEventLoop]) -> None:
        """Raise if this scheduler is pinned to a different live loop.

        Queued requests without an attached future are loop-agnostic; what
        actually pins the old loop is an awaited future, a parked admission
        waiter, or a live drive task.  ``submit`` checks *before*
        enqueueing, so a cross-loop mistake fails cleanly instead of
        leaving a phantom request behind.
        """
        if self._loop is None or self._loop is loop:
            return
        pinned = any(
            pending._future is not None and not pending._future.done()
            for pending in self._queue
        )
        driving = self._drive_task is not None and not self._drive_task.done()
        if pinned or self._waiters or driving:
            raise RuntimeError(
                "scheduler is bound to another event loop with work in flight"
            )

    def _bind_running_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            self.check_rebind(loop)
            self._loop = loop
            self._wake = asyncio.Event()
            self._drive_task = None
        return loop

    def _notify(self) -> None:
        if self._wake is not None:
            self._wake.set()

    # ------------------------------------------------------------------ #
    # Producer side (admission control)
    # ------------------------------------------------------------------ #
    def _make_pending(
        self,
        query_id: int,
        k: int,
        deadline_s: Optional[float],
        entered_at: Optional[float] = None,
        tag: Optional[str] = None,
    ) -> PendingRequest:
        """Build the handle; the deadline counts from ``entered_at``.

        ``entered_at`` is when the caller *asked* (before any admission
        park), so under overload the deadline bounds the latency the caller
        actually observes — time spent waiting for a queue slot included.

        With tracing on, the request's trace starts here: the admission
        span covers ``entered_at`` → enqueue (any waiter park included).
        """
        now = self._clock()
        if entered_at is None:
            entered_at = now
        deadline_at = None if deadline_s is None else entered_at + float(deadline_s)
        trace = None
        if self.tracer is not None and self.tracer.enabled:
            trace = self.tracer.start_request(query_id, tag=tag, start_s=entered_at)
            # Stage marks, not spans: the admission span materialises only
            # if something inspects the trace.
            trace.admission_end_s = now
            trace.queue_depth = len(self._queue)
        return PendingRequest(int(query_id), int(k), now,
                              deadline_at=deadline_at, tag=tag, trace=trace)

    def _reject_overload(
        self, tag: Optional[str] = None, query_id: Optional[int] = None
    ) -> None:
        self.overload_rejections += 1
        if self.telemetry is not None:
            self.telemetry.record_overload(tag=tag)
        if self.tracer is not None and self.tracer.enabled:
            # Shed requests still leave a trace: a zero-length admission
            # span, finished "shed" — the flight recorder always keeps it.
            now = self._clock()
            trace = self.tracer.start_request(query_id, tag=tag, start_s=now)
            trace.add_span("admission", now, now, status=STATUS_SHED)
            trace.finish(STATUS_SHED, end_s=now, reason="overload")
        raise OverloadError(
            f"admission queue full ({len(self._queue)}/{self.max_queue} requests)"
        )

    def _enqueue(self, pending: PendingRequest) -> PendingRequest:
        self._queue.append(pending)
        depth = len(self._queue)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        if self.telemetry is not None:
            self.telemetry.record_queue_depth(depth)
        self._notify()
        return pending

    async def submit(
        self, query_id: int, k: int, deadline_s: Optional[float] = None,
        tag: Optional[str] = None,
    ) -> PendingRequest:
        """Enqueue under the configured backpressure policy.

        ``overload="reject"`` raises :class:`OverloadError` when the bounded
        queue is full; ``overload="wait"`` parks this submitter on a FIFO
        waiter future until the drive loop frees a slot.  Admission is
        fair: a woken waiter holds a *reserved* slot, and a fresh submitter
        parks behind existing waiters instead of stealing it.  A request's
        deadline counts from this call, so time parked in admission counts
        against it.
        """
        self._bind_running_loop()
        entered = self._clock()
        if self.max_queue is not None and (
            self._waiters or len(self._queue) + self._reserved >= self.max_queue
        ):
            if self.overload == "reject":
                self._reject_overload(tag=tag, query_id=query_id)
            waiter = self._loop.create_future()
            self._waiters.append(waiter)
            try:
                await waiter  # resolved with a reserved slot attached
            except BaseException:
                if waiter in self._waiters:
                    self._waiters.remove(waiter)
                elif waiter.done() and not waiter.cancelled():
                    self._reserved -= 1  # granted but never consumed
                raise
            self._reserved -= 1
        return self._enqueue(
            self._make_pending(query_id, k, deadline_s, entered_at=entered, tag=tag)
        )

    @property
    def pending_count(self) -> int:
        return len(self._queue)

    @property
    def in_flight_count(self) -> int:
        """Requests in the batch currently executing (0 between batches).

        A stalled executor hides its whole batch from ``pending_count``
        (the queue drained into it when the batch was taken), so load
        probes that want "work not yet answered" must sum both counts.
        """
        return self._in_flight

    # ------------------------------------------------------------------ #
    # Dispatch side
    # ------------------------------------------------------------------ #
    def _due(self, now: float) -> bool:
        if not self._queue:
            return False
        if len(self._queue) >= self.max_batch_size:
            return True
        return now - self._queue[0].enqueued_at >= self.max_wait_s

    def _take(self) -> List[PendingRequest]:
        count = min(self.max_batch_size, len(self._queue))
        batch = [self._queue.popleft() for _ in range(count)]
        free = (
            len(self._waiters)
            if self.max_queue is None
            else max(0, self.max_queue - len(self._queue) - self._reserved)
        )
        while self._waiters and free > 0:
            waiter = self._waiters.popleft()
            if waiter.done():  # cancelled while parked: no slot to grant
                continue
            waiter.set_result(None)
            self._reserved += 1
            free -= 1
        return batch

    async def _call_executor(self, live: Sequence[PendingRequest]) -> Sequence[Any]:
        result = self.executor(live)
        if inspect.isawaitable(result):
            return await result
        return result

    async def _run(self, batch: List[PendingRequest]) -> int:
        """Execute one formed batch; returns how many requests it covered.

        Cancelled slots are dropped (never scored) and requests past their
        deadline are failed before scoring — load is shed at the cheapest
        possible point.  The batch is visible through
        :attr:`in_flight_count` for as long as it executes.
        """
        self._in_flight = len(batch)
        try:
            return await self._run_batch(batch)
        finally:
            self._in_flight = 0

    async def _run_batch(self, batch: List[PendingRequest]) -> int:
        now = self._clock()
        live: List[PendingRequest] = []
        for pending in batch:
            trace = pending.trace
            if pending.cancelled:
                self.cancelled_requests += 1
                if self.telemetry is not None:
                    self.telemetry.record_cancelled(tag=pending.tag)
                continue  # cancel() already finished its trace
            if pending.deadline_at is not None and now >= pending.deadline_at:
                self.deadline_misses += 1
                if self.telemetry is not None:
                    self.telemetry.record_deadline_miss(tag=pending.tag)
                if trace is not None:
                    trace.add_span(
                        "queue", pending.enqueued_at, now, status=STATUS_SHED
                    )
                    trace.finish(STATUS_SHED, end_s=now, reason="deadline")
                pending._fail(
                    DeadlineExceededError(
                        f"request waited {now - pending.enqueued_at:.4f}s, "
                        f"past its deadline"
                    ),
                    now,
                )
                continue
            live.append(pending)
            if trace is not None:
                # Queue wait ends at batch formation (stage mark, not span).
                trace.queue_end_s = now
        if not live:
            return len(batch)
        started = self._clock()
        try:
            results = await self._call_executor(live)
            if len(results) != len(live):
                raise RuntimeError(
                    f"executor returned {len(results)} results "
                    f"for a batch of {len(live)}"
                )
        except asyncio.CancelledError:
            completed = self._clock()
            for pending in live:
                pending._fail(asyncio.CancelledError("scheduler stopped"), completed)
                if pending.trace is not None:
                    pending.trace.finish("cancelled", end_s=completed)
            raise
        except BaseException as error:  # propagate to all waiters, keep serving
            completed = self._clock()
            for pending in live:
                pending._fail(error, completed)
                if pending.trace is not None:
                    pending.trace.finish(
                        STATUS_ERROR, end_s=completed, error=type(error).__name__
                    )
            self.execute_latency.observe(max(0.0, completed - started))
            return len(batch)
        completed = self._clock()
        for pending, value in zip(live, results):
            trace = pending.trace
            if isinstance(value, BaseException):
                pending._fail(value, completed)
                if trace is not None:
                    trace.finish(
                        STATUS_ERROR, end_s=completed, error=type(value).__name__
                    )
            else:
                pending._complete(value, completed)
                if trace is not None:
                    reply_end = self._clock()
                    trace.reply_start_s = completed
                    trace.reply_end_s = reply_end
                    trace.finish_ok(reply_end)
        self.batches_dispatched += 1
        self.requests_dispatched += len(live)
        self.execute_latency.observe(max(0.0, completed - started))
        return len(batch)

    async def poll(self) -> int:
        """Dispatch batches whose size or deadline trigger fired."""
        self._bind_running_loop()
        dispatched = 0
        while self._due(self._clock()):
            dispatched += await self._run(self._take())
        return dispatched

    async def flush(self) -> int:
        """Dispatch everything queued regardless of deadlines."""
        self._bind_running_loop()
        dispatched = 0
        while self._queue:
            dispatched += await self._run(self._take())
        return dispatched

    # ------------------------------------------------------------------ #
    # The drive loop (one task per scheduler)
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Ensure the deadline-driving task runs on the current loop."""
        loop = self._bind_running_loop()
        if self._drive_task is None or self._drive_task.done():
            self._drive_task = loop.create_task(
                self._drive(), name="async-batch-scheduler"
            )

    async def _drive(self) -> None:
        while True:
            if not self._queue:
                self._wake.clear()
                if self._queue:  # lost race: enqueued between check and clear
                    continue
                await self._wake.wait()
                continue
            now = self._clock()
            if self._due(now):
                await self._run(self._take())
                continue
            delay = max(0.0, self.max_wait_s - (now - self._queue[0].enqueued_at))
            self._wake.clear()
            target = self._loop.time() + delay
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=delay)
            except asyncio.TimeoutError:
                # The sleep ran its full deadline: anything beyond it is the
                # event loop running late (too much work between awaits).
                lag = self._loop.time() - target
                if self.telemetry is not None and lag > 0:
                    self.telemetry.record_loop_lag(lag)

    async def stop(self) -> None:
        """Cancel the drive task and drain the queue.

        Everything already admitted is completed (or shed, per deadline).
        Parked admission waiters (``overload="wait"`` submitters) are
        cancelled — their ``submit`` raises :class:`asyncio.CancelledError`
        instead of enqueueing into a scheduler that no longer dispatches.
        The next :meth:`start` resumes dispatching.
        """
        self._bind_running_loop()
        if self._drive_task is not None:
            self._drive_task.cancel()
            try:
                await self._drive_task
            except asyncio.CancelledError:
                pass
            self._drive_task = None
        while self._queue or self._waiters or self._reserved:
            self._cancel_waiters()
            await self.flush()
            # A waiter the drain released before we cancelled (it holds
            # a reserved slot) resumes on the next tick and enqueues;
            # give it that tick, then sweep again until nothing is
            # queued, parked, or holding a granted slot.
            await asyncio.sleep(0)

    def _cancel_waiters(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.cancel()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Dispatch-side counters + executor wall-time percentiles (ms).

        The executor latency is the batch's whole backend execution — for
        the sharded gateway that is the scatter/gather round trip, which the
        per-shard telemetry then decomposes shard by shard.  Percentiles are
        bucket-interpolated from the fixed histogram (bounded relative
        error), not re-sorted from raw history.
        """
        hist = self.execute_latency
        if hist.count:
            p50 = hist.percentile(50) * 1e3
            p95 = hist.percentile(95) * 1e3
            mean = hist.mean * 1e3
        else:
            p50 = p95 = mean = float("nan")
        return {
            "batches_dispatched": float(self.batches_dispatched),
            "requests_dispatched": float(self.requests_dispatched),
            "mean_execute_ms": mean,
            "p50_execute_ms": p50,
            "p95_execute_ms": p95,
            "overload_rejections": float(self.overload_rejections),
            "deadline_misses": float(self.deadline_misses),
            "cancelled_requests": float(self.cancelled_requests),
            "max_queue_depth": float(self.max_queue_depth),
        }
