"""Worker-pool backends for the sharded gateway: serial, thread, process.

All three backends drive the same :class:`~repro.serving.sharded.worker.
ShardWorker` logic and the same two-phase version protocol, so their search
results are bit-identical for a given snapshot — which is what lets the test
suite pin the deterministic in-process backends while production deployments
run one OS process per shard:

* :class:`SerialPool` — shard searches run back to back inside the scatter
  coroutine.  Zero concurrency, zero overhead; the reference backend for
  tests/CI.
* :class:`ThreadPool` — one pool thread per shard.  numpy releases the GIL
  inside the BLAS scans, so shard scans overlap on multi-core hosts without
  any serialization cost.
* :class:`ProcessPool` — one OS process per shard, the production layout.
  Queries and top-K replies are the only per-request pipe traffic.  Workers
  answer at explicit versions, so the two-phase flip holds across process
  boundaries exactly as it does in-process.  A scatter never leaves the
  event loop: the loop thread sends the query block down each pipe and
  reads each reply where its fd fires.  The only other user of the pipes is
  a publisher thread inside ``prepare`` / ``activate`` / ``retire``; one
  lock keeps their cycles apart, and the loop takes it without blocking
  (it waits, on an executor thread, only while a publish holds it).  Every
  frame carries its cycle's number, so the late reply to a cycle that
  timed out is dropped instead of answering the next one.

There is one table handoff: :func:`_shard_payload` slices a shard's rows off
the snapshot (``EmbeddingSnapshot.shard`` / ``quantized_shard`` views — the
int8 rows carry the global ``scales`` *and* the frozen ``query_scale``) and
every pool passes exactly those arguments to ``ShardWorker.prepare``: by
reference in the in-process pools, pickled down the worker's own pipe in the
process pool.  Whatever store published the snapshot (in-memory, durable,
wire-hydrated), every backend therefore scores against the same tables.

:func:`make_pool` resolves a backend name (``"serial"`` / ``"thread"`` /
``"process"`` / ``"auto"``) into a pool; ``"auto"`` picks processes when the
host actually has more than one CPU and threads otherwise.  A pool's only
scatter is ``await pool.search_async(version, queries, k)``; the two-phase
flip (``prepare`` / ``activate`` / ``retire``) stays synchronous because
publishes are driven from a publisher thread.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.serving.gateway.store import StaleVersionError
from repro.serving.obs.tracing import worker_span
from repro.serving.sharded.worker import ShardWorker

WORKER_KINDS = ("serial", "thread", "process", "auto")


@dataclass(frozen=True)
class ShardReply:
    """One shard's answer to a scattered micro-batch.

    ``span`` is the worker-side trace span dict
    (:func:`~repro.serving.obs.tracing.worker_span`) when the scatter
    carried a trace context, else ``None``.  Its timestamps are on the
    worker's own clock; the gateway re-anchors them inside the scatter
    window when grafting.
    """

    shard: int
    ids: np.ndarray
    scores: np.ndarray
    version: int
    latency_s: float
    span: Optional[dict] = None


def resolve_workers(kind: str) -> str:
    """Resolve a worker-backend name, mapping ``"auto"`` to the host."""
    if kind not in WORKER_KINDS:
        known = ", ".join(WORKER_KINDS)
        raise ValueError(f"unknown worker backend {kind!r} (known: {known})")
    if kind == "auto":
        return "process" if (os.cpu_count() or 1) > 1 else "thread"
    return kind


def make_pool(
    kind: str,
    num_shards: int,
    index: str = "exact",
    index_params: Optional[dict] = None,
    timeout_s: float = 60.0,
) -> "WorkerPool":
    """Build the worker pool for one backend kind."""
    kind = resolve_workers(kind)
    if kind == "serial":
        return SerialPool(num_shards, index=index, index_params=index_params)
    if kind == "thread":
        return ThreadPool(num_shards, index=index, index_params=index_params)
    return ProcessPool(
        num_shards, index=index, index_params=index_params, timeout_s=timeout_s
    )


def _shard_payload(snapshot, shard: int) -> tuple:
    """``ShardWorker.prepare``'s arguments for one shard of ``snapshot``.

    ``(version, services rows, lo, int8 rows or None)`` — the snapshot's own
    zero-copy row views, so the handoff slices in exactly one place.
    """
    _, services = snapshot.shard(shard)
    int8_rows = None
    if "int8" in snapshot.quantized:
        _, int8_rows = snapshot.quantized_shard("int8", shard)
    return snapshot.version, services, int(snapshot.shard_bounds[shard]), int8_rows


class WorkerPool:
    """Common surface of the three backends (two-phase flip + scatter)."""

    kind = "base"

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards

    def prepare(self, snapshot) -> None:
        raise NotImplementedError

    def activate(self, snapshot) -> None:
        raise NotImplementedError

    def retire(self, version: int) -> None:
        raise NotImplementedError

    async def search_async(
        self,
        version: int,
        queries: np.ndarray,
        k: int,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> List[ShardReply]:
        """Scatter one micro-batch to every shard and gather the replies.

        ``trace_ctx`` is the ``(trace-context id, parent span id)`` pair of
        a traced scatter; when present, every reply carries a worker-side
        span dict.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release every worker resource; idempotent."""

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_snapshot(self, snapshot) -> None:
        if snapshot.num_shards != self.num_shards:
            raise ValueError(
                f"snapshot has {snapshot.num_shards} shards but the pool owns "
                f"{self.num_shards} workers; republish with a matching layout"
            )


class SerialPool(WorkerPool):
    """In-process reference backend: shard searches run back to back."""

    kind = "serial"

    def __init__(
        self,
        num_shards: int,
        index: str = "exact",
        index_params: Optional[dict] = None,
    ) -> None:
        super().__init__(num_shards)
        self.workers = [
            ShardWorker(shard, index=index, index_params=index_params)
            for shard in range(num_shards)
        ]

    def prepare(self, snapshot) -> None:
        self._check_snapshot(snapshot)
        for worker in self.workers:
            worker.prepare(*_shard_payload(snapshot, worker.shard))

    def activate(self, snapshot) -> None:
        for worker in self.workers:
            worker.activate(snapshot.version)

    def retire(self, version: int) -> None:
        for worker in self.workers:
            worker.retire(version)

    def _one(
        self,
        worker: ShardWorker,
        version: int,
        queries: np.ndarray,
        k: int,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> ShardReply:
        started = time.perf_counter()
        ids, scores = worker.search(version, queries, k)
        ended = time.perf_counter()
        span = None
        if trace_ctx is not None:
            span = worker_span(
                trace_ctx, worker.shard, started, ended,
                queries=queries.shape[0], version=version,
            )
        return ShardReply(
            shard=worker.shard,
            ids=ids,
            scores=scores,
            version=version,
            latency_s=ended - started,
            span=span,
        )

    async def search_async(
        self,
        version: int,
        queries: np.ndarray,
        k: int,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> List[ShardReply]:
        """Nothing to overlap: the shard scans run inline, in shard order."""
        return [
            self._one(worker, version, queries, k, trace_ctx)
            for worker in self.workers
        ]


class ThreadPool(SerialPool):
    """One pool thread per shard; BLAS scans overlap on multi-core hosts."""

    kind = "thread"

    def __init__(
        self,
        num_shards: int,
        index: str = "exact",
        index_params: Optional[dict] = None,
    ) -> None:
        super().__init__(num_shards, index=index, index_params=index_params)
        self._executor = ThreadPoolExecutor(
            max_workers=num_shards, thread_name_prefix="shard-worker"
        )

    async def search_async(
        self,
        version: int,
        queries: np.ndarray,
        k: int,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> List[ShardReply]:
        """Per-shard scans overlap as loop-awaited executor futures."""
        loop = asyncio.get_running_loop()
        return list(
            await asyncio.gather(
                *(
                    loop.run_in_executor(
                        self._executor,
                        self._one,
                        worker,
                        version,
                        queries,
                        k,
                        trace_ctx,
                    )
                    for worker in self.workers
                )
            )
        )

    def close(self) -> None:
        self._executor.shutdown(wait=True)


# --------------------------------------------------------------------- #
# Process backend: one OS process per shard, tables pickled down its pipe
# --------------------------------------------------------------------- #
def _shard_worker_main(  # pragma: no cover - runs in a child process
    conn, shard: int, index: str, index_params: dict
) -> None:
    """Child-process loop: prepare/activate/search/retire/stop over a pipe.

    Every received command ``(cycle, op, *args)`` gets exactly one reply,
    ``(cycle, tag, *rest)``: the echoed cycle number is how the parent tells
    the reply it is owed from one a timed-out cycle left behind.  Errors are
    shipped back as strings instead of killing the worker.
    """
    worker = ShardWorker(shard, index=index, index_params=index_params)
    while True:
        cycle, op, *args = conn.recv()
        try:
            if op == "prepare":
                worker.prepare(*args)  # one _shard_payload tuple
                reply = ("ready", args[0])
            elif op == "activate":
                worker.activate(*args)
                reply = ("ok",)
            elif op == "retire":
                worker.retire(*args)
                reply = ("ok",)
            elif op == "search":
                version, k, queries, trace_ctx = args
                started = time.perf_counter()
                ids, scores = worker.search(version, queries, k)
                ended = time.perf_counter()
                span = None
                if trace_ctx is not None:
                    # The worker's child span crosses the pipe as a plain
                    # dict; its clock is this process's perf_counter, so
                    # the parent re-anchors it inside the scatter window.
                    span = worker_span(
                        trace_ctx, shard, started, ended,
                        queries=queries.shape[0], version=version,
                    )
                reply = ("result", ids, scores, version, ended - started, span)
            elif op == "stop":
                reply = ("ok",)
            else:
                reply = ("error", f"unknown op {op!r}")
        except StaleVersionError as error:
            reply = ("stale", str(error))
        except BaseException as error:
            reply = ("error", f"{type(error).__name__}: {error}")
        conn.send((cycle, *reply))
        if op == "stop":
            return


class ProcessPool(WorkerPool):
    """One worker process per shard; each shard's rows are pickled to it."""

    kind = "process"

    def __init__(
        self,
        num_shards: int,
        index: str = "exact",
        index_params: Optional[dict] = None,
        timeout_s: float = 60.0,
    ) -> None:
        super().__init__(num_shards)
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.timeout_s = timeout_s
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this platform
            context = multiprocessing.get_context("spawn")
        self._conns = []
        self._processes = []
        self._closed = False
        # The pipes carry strictly paired command/reply cycles; concurrent
        # callers (the loop's scatters, a publisher thread preparing a
        # hot-swap) must not interleave their sends and recvs.
        self._io_lock = threading.Lock()
        # Every cycle is numbered (under the lock) and every frame carries
        # its cycle's number, so a reply that outlives a timed-out cycle is
        # dropped by whoever reads it instead of answering the next one.
        self._cycles = 0
        # The loop whose scatter holds the pipes, so close() can refuse to
        # park that very loop on the lock.
        self._scatter_loop: Optional[asyncio.AbstractEventLoop] = None
        try:
            for shard in range(num_shards):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_shard_worker_main,
                    args=(child_conn, shard, index, dict(index_params or {})),
                    name=f"shard-worker-{shard}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._processes.append(process)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # Pipe plumbing
    # ------------------------------------------------------------------ #
    def _gone(self, shard: int) -> RuntimeError:
        code = self._processes[shard].exitcode
        return RuntimeError(
            f"shard worker {shard} is gone (exit code {code}); "
            "close this pool and build a new one"
        )

    def _send(self, shard: int, message) -> None:
        try:
            self._conns[shard].send(message)
        except OSError as error:  # EPIPE: nobody holds the other end
            raise self._gone(shard) from error

    def _recv(self, shard: int, cycle: int) -> Optional[tuple]:
        """The next frame off a readable pipe: ``cycle``'s reply, or ``None``
        for the late reply of a cycle that timed out (keep reading)."""
        try:
            reply = self._conns[shard].recv()
        except (EOFError, OSError) as error:
            raise self._gone(shard) from error
        return reply[1:] if reply[0] == cycle else None

    def _silent(self, shards: List[int]) -> RuntimeError:
        return RuntimeError(
            f"shard workers {shards} did not reply within {self.timeout_s:.1f}s"
        )

    def _recv_raw(self, shard: int, cycle: int) -> tuple:
        """One worker's reply to ``cycle``, blocking (publisher thread)."""
        reply = None
        while reply is None:
            if not self._conns[shard].poll(self.timeout_s):
                later = range(shard + 1, self.num_shards)
                silent = [s for s in later if not self._conns[s].poll(0)]
                raise self._silent([shard] + silent)
            reply = self._recv(shard, cycle)
        return reply

    @staticmethod
    def _checked(shard: int, reply):
        """Translate a worker's error replies; pass healthy ones through."""
        if isinstance(reply, BaseException):  # reading it failed
            raise reply
        if reply[0] == "stale":
            raise StaleVersionError(reply[1])
        if reply[0] == "error":
            raise RuntimeError(f"shard worker {shard} failed: {reply[1]}")
        return reply

    def _open_cycle(self, messages: List[tuple]) -> int:
        """Holding ``_io_lock``: number a cycle, send ``messages[shard]`` to
        each worker under that number, return it.

        A worker that died fails this cycle at its send or its recv and
        every later cycle at its send, before anything is received — so the
        replies left queued on the living workers' pipes are never read as
        answers.
        """
        self._drain_stale()
        self._cycles += 1
        for shard, message in enumerate(messages):
            self._send(shard, (self._cycles, *message))
        return self._cycles

    def _cycle(self, messages: List[tuple]) -> List[tuple]:
        """One paired command/reply cycle, blocking (publisher thread).

        One reply per worker is drained BEFORE the first bad one is raised,
        so no answered frame is left queued behind an error.
        """
        with self._io_lock:
            cycle = self._open_cycle(messages)
            replies = [self._recv_raw(shard, cycle) for shard in range(self.num_shards)]
        return [self._checked(shard, reply) for shard, reply in enumerate(replies)]

    def _broadcast(self, message, expect: str) -> None:
        replies = self._cycle([message] * self.num_shards)
        for shard, reply in enumerate(replies):
            if reply[0] != expect:
                raise RuntimeError(
                    f"shard worker {shard} replied {reply[0]!r}, expected {expect!r}"
                )

    # ------------------------------------------------------------------ #
    # Two-phase flip
    # ------------------------------------------------------------------ #
    def prepare(self, snapshot) -> None:
        """Pickle each shard's rows down its worker's pipe; all must ack."""
        self._check_snapshot(snapshot)
        replies = self._cycle([
            ("prepare", *_shard_payload(snapshot, shard))
            for shard in range(self.num_shards)
        ])
        for shard, reply in enumerate(replies):
            if reply != ("ready", snapshot.version):
                raise RuntimeError(
                    f"shard worker {shard} failed to prepare "
                    f"version {snapshot.version}: {reply!r}"
                )

    def activate(self, snapshot) -> None:
        self._broadcast(("activate", snapshot.version), expect="ok")

    def retire(self, version: int) -> None:
        self._broadcast(("retire", version), expect="ok")

    # ------------------------------------------------------------------ #
    # Scatter/gather: the framed-pipe cycle driven by loop readers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _replies_from_raw(raw_replies: List[tuple]) -> List[ShardReply]:
        replies = []
        for shard, reply in enumerate(raw_replies):
            tag, ids, scores, served_version, latency_s, span = reply
            if tag != "result":
                raise RuntimeError(f"shard worker {shard} replied {tag!r}")
            replies.append(
                ShardReply(
                    shard=shard,
                    ids=ids,
                    scores=scores,
                    version=served_version,
                    latency_s=latency_s,
                    span=span,
                )
            )
        return replies

    async def _recv_all_async(self, cycle: int) -> List[tuple]:
        """One reply per worker, each read on the loop where its fd fires.

        One ``add_reader`` per pipe, one future and one timer per cycle, no
        thread hop: a reply is at most ``max_batch_size * k * 16`` bytes
        (10 KiB at 64 x 10) and ``Connection`` writes a frame of up to
        16 KiB with one ``write(2)``, so a readable fd holds a whole frame
        and the unpickle costs tens of microseconds against the hop's
        hundreds.  Every pipe is read BEFORE the first failure is raised,
        and no reader outlives the cycle.
        """
        loop = asyncio.get_running_loop()
        done = loop.create_future()
        fds = [conn.fileno() for conn in self._conns]
        replies: dict = {}

        def _on_readable(shard: int) -> None:
            try:
                reply = self._recv(shard, cycle)
            except RuntimeError as error:  # the worker is gone
                reply = error
            if reply is not None:
                loop.remove_reader(fds[shard])
                replies[shard] = reply
                if len(replies) == self.num_shards and not done.done():
                    done.set_result(None)

        def _on_timeout() -> None:
            # The last reply and the timer can become ready in the same
            # loop iteration; whichever runs first settles the cycle.
            if not done.done():
                owing = [s for s in range(self.num_shards) if s not in replies]
                done.set_exception(self._silent(owing))

        for shard, fd in enumerate(fds):
            loop.add_reader(fd, _on_readable, shard)
        timer = loop.call_later(self.timeout_s, _on_timeout)
        try:
            await done
        finally:
            timer.cancel()
            for fd in fds:
                loop.remove_reader(fd)
        return [self._checked(*answered) for answered in sorted(replies.items())]

    async def search_async(
        self,
        version: int,
        queries: np.ndarray,
        k: int,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> List[ShardReply]:
        """Scatter and gather on the loop thread, start to finish.

        The command/reply cycle runs under ``_io_lock``, taken with a
        non-blocking try; only while a publisher thread owns the pipes does
        the scatter wait, off-loop, so the loop keeps running.  The *whole*
        cycle is shielded from caller cancellation: once the scatter was
        sent the replies are read while they are owed.  The shielded cycle
        finishes (bounded by ``timeout_s``), releases the pipes, and only
        then does the cancellation surface to the caller.
        """
        queries = np.ascontiguousarray(queries)
        return await asyncio.shield(
            self._search_cycle(queries, version, int(k), trace_ctx)
        )

    async def _search_cycle(
        self,
        queries: np.ndarray,
        version: int,
        k: int,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> List[ShardReply]:
        loop = asyncio.get_running_loop()
        if not self._io_lock.acquire(blocking=False):
            acquire = loop.run_in_executor(None, self._io_lock.acquire)
            try:
                await acquire
            except asyncio.CancelledError:
                # Only reachable on abrupt loop teardown (the shield's outer
                # await absorbs caller cancellation): the executor thread
                # still completes acquire() later, so hand the orphaned
                # hold back.
                def _release_orphaned(future) -> None:
                    if not future.cancelled():
                        self._io_lock.release()

                acquire.add_done_callback(_release_orphaned)
                raise
        self._scatter_loop = loop
        try:
            message = ("search", version, k, queries, trace_ctx)
            cycle = self._open_cycle([message] * self.num_shards)
            raw_replies = await self._recv_all_async(cycle)
        finally:
            self._scatter_loop = None
            self._io_lock.release()
        return self._replies_from_raw(raw_replies)

    def _drain_stale(self) -> None:
        """Discard reply frames a torn-down cycle left queued (holding
        ``_io_lock``).  The protocol is strictly paired, so anything
        readable before a command is sent is garbage from an aborted
        predecessor — never a reply this cycle is owed."""
        for conn in self._conns:
            try:
                while conn.poll(0):
                    conn.recv()
            except (EOFError, OSError):  # worker died; surface on next recv
                pass

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the workers, waiting for whoever holds the pipes — unless
        that is a scatter of the very loop this call is running on, which
        could only finish if this call returned."""
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:  # a plain thread: waiting is safe
            running = None
        if running is not None and running is self._scatter_loop:
            raise RuntimeError(
                "ProcessPool.close() was called on the event loop whose scatter "
                "still holds the pipes; await the gateway's stop_async() first"
            )
        with self._io_lock:
            if self._closed:
                return
            self._closed = True
            for conn in self._conns:
                try:
                    conn.send((0, "stop"))
                except (BrokenPipeError, OSError):
                    pass
            for process, conn in zip(self._processes, self._conns):
                process.join(timeout=2.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
                conn.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:
            pass
