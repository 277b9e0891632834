"""Worker-pool backends for the sharded gateway: serial, thread, process.

A pool answers a version with a *worker set* — one
:class:`~repro.serving.sharded.worker.ShardWorker` per shard, built from
that version's snapshot and serving it for life.  A publish never changes a
set; it builds a fresh one beside the serving one (blue/green), and the
pool's copy-on-write ``{version: set}`` map alone says what is resident:
``prepare(snapshot)`` installs the new set before the store flips (a set
that fails to build is stopped whole first, so nothing of a failed publish
stays), ``activate(snapshot)`` keeps it and its predecessor — a batch that
pinned the old version just before the flip is still answered at it — and
``retire(version)`` drops an aborted publish's set.  All three run on the
publisher thread (the store's lock keeps publishes one at a time) and
change the map with one attribute store; the event loop only reads it, and
a version it does not hold is a
:class:`~repro.serving.gateway.store.StaleVersionError`, on which the
gateway re-pins the fresh snapshot.

Every backend builds a set from the same :func:`_shard_payload` arguments,
so their results are bit-identical for a given snapshot — which is what
lets tests pin the deterministic in-process backends:

* :class:`SerialPool` — a set is a list of workers searched back to back
  inside the scatter coroutine; the reference backend for tests/CI.
* :class:`ThreadPool` — the same list, one pool thread per shard (numpy
  releases the GIL inside the BLAS scans).
* :class:`ProcessPool` — a set is one OS process per shard, the production
  layout.  The shard's rows are the ``Process`` arguments: a forked child
  inherits them copy-on-write and nothing is pickled (where fork is
  unavailable, spawn pickles the same arguments).  A child builds its
  index, says ``("ready", version)`` and serves searches until told to
  stop; the publisher waits on the new set's pipes only, so no scatter
  waits for a publish.  A scatter never leaves the loop: it sends the query
  block down each pipe and reads each reply where its fd fires, and every
  frame carries its cycle's number, so the late reply to a timed-out cycle
  is dropped instead of answering the next one.  The loop stops the
  predecessor set after the first scatter at a flipped version (the
  scheduler plans one batch at a time, so no later batch pins below it):
  in the steady state ``num_shards`` worker processes exist.  A set the
  publisher drops is stopped at once unless a scatter is in flight, which
  then stops it as it ends — no pipe ever has two writer threads.

Fork safety: a child touches only its arguments, numpy and ``os`` — never
logging, imports (every index kind is registered before the fork) or store
locks, which another parent thread may have held at the fork.  A publish
forks from the store's refresh thread: Python >= 3.12 warns
(``DeprecationWarning``) about a fork from a multi-threaded process, and a
child restores the pool owner's priority (the refresh thread runs at the
lowest) where the host permits.

:func:`make_pool` resolves ``"serial"`` / ``"thread"`` / ``"process"`` /
``"auto"`` (processes when the host has more than one CPU, else threads).
"""

from __future__ import annotations

import asyncio
import collections
import multiprocessing
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serving.gateway.index import index_kinds
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
    """One shard's ``ShardWorker`` arguments after ``shard`` itself.

    ``(version, services rows, lo, int8 rows or None)`` — the snapshot's own
    zero-copy row views, so the handoff slices in exactly one place.
    """
    _, services = snapshot.shard(shard)
    int8_rows = None
    if "int8" in snapshot.quantized:
        _, int8_rows = snapshot.quantized_shard("int8", shard)
    return snapshot.version, services, int(snapshot.shard_bounds[shard]), int8_rows


class WorkerPool:
    """Common surface of the three backends: the version map + scatter."""

    kind = "base"

    def __init__(
        self,
        num_shards: int,
        index: str = "exact",
        index_params: Optional[dict] = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards
        self.index = index
        self.index_params = dict(index_params or {})
        # version -> worker set.  Copy-on-write: the publisher thread
        # replaces it with one attribute store, the loop only reads it.
        self._sets: Dict[int, object] = {}

    def prepare(self, snapshot) -> None:
        """Build ``snapshot``'s worker set and make it resident (unflipped)."""
        self._check_snapshot(snapshot)
        workers = self._build(snapshot)
        self._sets = {**self._sets, snapshot.version: workers}

    def activate(self, snapshot) -> None:
        """``snapshot`` is current: keep its set and its predecessor's only."""
        version = snapshot.version
        if version not in self._sets:
            raise KeyError(f"the pool never prepared version {version}")
        sets = self._sets
        self._sets = {v: s for v, s in sets.items() if v >= version - 1}
        for v, workers in sets.items():
            if v < version - 1:
                self._drop(workers)

    def retire(self, version: int) -> None:
        """Aborted publish: drop ``version``'s never-flipped set."""
        sets = self._sets
        if version in sets:
            self._sets = {v: s for v, s in sets.items() if v != version}
            self._drop(sets[version])

    def _build(self, snapshot):
        """One fresh worker set serving ``snapshot`` (publisher thread)."""
        raise NotImplementedError

    def _drop(self, workers) -> None:
        """Release a set that left the map; an in-process one needs nothing."""

    def _resident(self, version: int):
        """The set serving ``version`` (the loop's one read of the map)."""
        workers = self._sets.get(version)
        if workers is None:
            raise self._stale(version)
        return workers

    def _stale(self, version: int) -> StaleVersionError:
        resident = sorted(self._sets) or ["none"]
        return StaleVersionError(
            f"the pool holds no worker set for version {version} "
            f"(resident: {resident})"
        )

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

    def _build(self, snapshot) -> List[ShardWorker]:
        return [
            ShardWorker(
                shard,
                *_shard_payload(snapshot, shard),
                index=self.index,
                index_params=self.index_params,
            )
            for shard in range(self.num_shards)
        ]

    def _one(
        self,
        worker: ShardWorker,
        queries: np.ndarray,
        k: int,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> ShardReply:
        started = time.perf_counter()
        ids, scores = worker.search(queries, k)
        ended = time.perf_counter()
        span = None
        if trace_ctx is not None:
            span = worker_span(
                trace_ctx, worker.shard, started, ended,
                queries=queries.shape[0], version=worker.version,
            )
        return ShardReply(
            worker.shard, ids, scores, worker.version, ended - started, span
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
            self._one(worker, queries, k, trace_ctx)
            for worker in self._resident(version)
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
                        self._executor, self._one, worker, queries, k, trace_ctx
                    )
                    for worker in self._resident(version)
                )
            )
        )

    def close(self) -> None:
        self._executor.shutdown(wait=True)


# --------------------------------------------------------------------- #
# Process backend: one OS process per shard per set
# --------------------------------------------------------------------- #
def _shard_worker_main(  # pragma: no cover - runs in a child process
    conn, shard, version, services, lo, int8_rows, index, index_params, nice
) -> None:
    """Child process: build one shard's index at ``version``, say ready,
    then answer searches until told to stop.

    Every search frame ``(cycle, "search", k, queries, trace_ctx)`` gets
    exactly one reply ``(cycle, tag, *rest)``: the echoed cycle number is
    how the parent tells the reply it is owed from one a timed-out cycle
    left behind.  Errors are shipped back as strings instead of killing the
    worker.  Fork safety: only the arguments, numpy and ``os`` are touched.
    """
    if nice is not None:
        try:
            os.setpriority(os.PRIO_PROCESS, 0, nice)
        except OSError:  # not permitted to raise it: serve at the one inherited
            pass
    try:
        worker = ShardWorker(
            shard, version, services, lo, int8_rows,
            index=index, index_params=index_params,
        )
    except BaseException as error:
        conn.send((0, "error", f"{type(error).__name__}: {error}"))
        return
    conn.send((0, "ready", version))
    while True:
        cycle, op, *args = conn.recv()
        if op == "stop":
            return
        try:
            k, queries, trace_ctx = args
            started = time.perf_counter()
            ids, scores = worker.search(queries, k)
            ended = time.perf_counter()
            span = None
            if trace_ctx is not None:
                # The worker's child span crosses the pipe as a plain dict;
                # its clock is this process's perf_counter, so the parent
                # re-anchors it inside the scatter window.
                span = worker_span(
                    trace_ctx, shard, started, ended,
                    queries=queries.shape[0], version=version,
                )
            reply = ("result", ids, scores, version, ended - started, span)
        except BaseException as error:
            reply = ("error", f"{type(error).__name__}: {error}")
        conn.send((cycle, *reply))


class _ProcessSet:
    """One version's worker processes, one pipe each."""

    def __init__(self) -> None:
        self.conns: list = []
        self.processes: list = []
        self.stopped = False

    def gone(self, shard: int) -> RuntimeError:
        code = self.processes[shard].exitcode
        return RuntimeError(
            f"shard worker {shard} is gone (exit code {code}); "
            "the next publish replaces its set"
        )

    def send(self, shard: int, message) -> None:
        try:
            self.conns[shard].send(message)
        except OSError as error:  # EPIPE: nobody holds the other end
            raise self.gone(shard) from error

    def recv(self, shard: int, cycle: int) -> Optional[tuple]:
        """The next frame off a readable pipe: ``cycle``'s reply, or ``None``
        for the late reply of a cycle that timed out (keep reading)."""
        try:
            reply = self.conns[shard].recv()
        except (EOFError, OSError) as error:
            raise self.gone(shard) from error
        return reply[1:] if reply[0] == cycle else None

    def stop(self) -> None:
        """Stop every process and close every pipe; idempotent."""
        if self.stopped:
            return
        self.stopped = True
        for conn in self.conns:
            try:
                conn.send((0, "stop"))
            except OSError:  # already gone
                pass
        for process in self.processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join()
            process.close()
        for conn in self.conns:
            conn.close()


class ProcessPool(WorkerPool):
    """One worker process per shard per set; each set serves one version."""

    kind = "process"

    def __init__(
        self,
        num_shards: int,
        index: str = "exact",
        index_params: Optional[dict] = None,
        timeout_s: float = 60.0,
    ) -> None:
        super().__init__(num_shards, index=index, index_params=index_params)
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.timeout_s = timeout_s
        index_kinds()  # registers every kind here, so a forked child never imports
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this platform
            self._context = multiprocessing.get_context("spawn")
        self._nice = (
            os.getpriority(os.PRIO_PROCESS, 0)
            if sys.platform.startswith("linux") else None
        )
        self._closed = False
        # Every cycle is numbered and every frame carries its cycle's number,
        # so a reply that outlives a timed-out cycle is dropped instead of
        # answering the next one.
        self._cycles = 0
        # The in-flight guard: the cycle (a task on its loop) reading a set's
        # pipes.  Concurrent scatters are the scheduler's to exclude (a
        # second would clobber the first one's readers), so one raises.
        self._scatter: Optional[asyncio.Task] = None
        # Sets dropped while a scatter was in flight: it stops them as it ends.
        self._superseded: collections.deque = collections.deque()
        # The newest flipped version (publisher writes, the loop reads).
        self._active = -1

    # ------------------------------------------------------------------ #
    # Worker sets (publisher thread)
    # ------------------------------------------------------------------ #
    def _build(self, snapshot) -> _ProcessSet:
        """Start one process per shard on ``snapshot``'s rows and wait until
        every child is ready; on any failure stop the whole set first."""
        if self._closed:
            raise RuntimeError("ProcessPool is closed")
        workers = _ProcessSet()
        try:
            for shard in range(self.num_shards):
                parent_conn, child_conn = self._context.Pipe()
                workers.conns.append(parent_conn)
                process = self._context.Process(
                    target=_shard_worker_main,
                    args=(
                        child_conn, shard, *_shard_payload(snapshot, shard),
                        self.index, self.index_params, self._nice,
                    ),
                    name=f"shard-worker-{shard}",
                    daemon=True,
                )
                try:
                    process.start()
                finally:
                    child_conn.close()
                workers.processes.append(process)
            for shard, conn in enumerate(workers.conns):
                if not conn.poll(self.timeout_s):
                    raise self._silent([shard])
                reply = workers.recv(shard, 0)
                if reply != ("ready", snapshot.version):
                    raise RuntimeError(
                        f"shard worker {shard} failed to prepare "
                        f"version {snapshot.version}: {reply[-1]}"
                    )
        except BaseException:
            workers.stop()
            raise
        return workers

    def activate(self, snapshot) -> None:
        super().activate(snapshot)
        self._active = snapshot.version

    def _drop(self, workers: _ProcessSet) -> None:
        """Stop a set that left the map — unless a scatter is in flight: it
        may be reading this very set, so it stops it as it ends.  The map
        was replaced before this reads the guard and a scatter raises the
        guard before it reads the map, so one of the two always sees the
        other."""
        if self._scatter is None:
            workers.stop()
        else:
            self._superseded.append(workers)

    def _resident(self, version: int) -> _ProcessSet:
        workers = super()._resident(version)
        if workers.stopped:  # a predecessor the loop already swept
            raise self._stale(version)
        return workers

    # ------------------------------------------------------------------ #
    # Scatter/gather: the framed-pipe cycle driven by loop readers
    # ------------------------------------------------------------------ #
    def _silent(self, shards: List[int]) -> RuntimeError:
        return RuntimeError(
            f"shard workers {shards} did not reply within {self.timeout_s:.1f}s"
        )

    @staticmethod
    def _checked(shard: int, reply):
        """Translate a worker's error replies; pass healthy ones through."""
        if isinstance(reply, BaseException):  # reading it failed
            raise reply
        if reply[0] == "error":
            raise RuntimeError(f"shard worker {shard} failed: {reply[1]}")
        return reply

    async def _recv_all_async(self, workers: _ProcessSet, cycle: int) -> List[tuple]:
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
        fds = [conn.fileno() for conn in workers.conns]
        replies: dict = {}

        def _on_readable(shard: int) -> None:
            try:
                reply = workers.recv(shard, cycle)
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

        The *whole* cycle is shielded from caller cancellation: once the
        scatter was sent the replies are read while they are owed, and the
        cancellation surfaces to the caller at once.  The next scatter on
        the same loop — the scheduler's ``stop()`` cancels a batch in flight
        and then drains the queue — awaits that orphaned cycle (bounded by
        ``timeout_s``) instead of failing.
        """
        queries = np.ascontiguousarray(queries)
        orphan = self._scatter
        if orphan is not None and orphan.get_loop() is asyncio.get_running_loop():
            await asyncio.wait([orphan])
        if self._scatter is not None:
            raise RuntimeError(
                "ProcessPool scatters one batch at a time; another scatter "
                "is still reading its pipes"
            )
        # Raised before the cycle reads the map (see _drop).
        self._scatter = asyncio.ensure_future(
            self._search_cycle(queries, version, int(k), trace_ctx)
        )
        return await asyncio.shield(self._scatter)

    async def _search_cycle(
        self,
        queries: np.ndarray,
        version: int,
        k: int,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> List[ShardReply]:
        try:
            workers = self._resident(version)
            try:
                self._cycles += 1
                message = (self._cycles, "search", k, queries, trace_ctx)
                for shard in range(self.num_shards):
                    workers.send(shard, message)
                raw_replies = await self._recv_all_async(workers, self._cycles)
            finally:
                if self._sets.get(version) is not workers:  # dropped meanwhile
                    raise self._stale(version)
        finally:
            self._sweep(version)
            self._scatter = None
        # ("result", ids, scores, version, latency_s, span) per shard.
        return [ShardReply(shard, *raw[1:]) for shard, raw in enumerate(raw_replies)]

    def _sweep(self, version: int) -> None:
        """A scatter at ``version`` ended (the loop, guard still up): stop
        every set no batch can reach any more."""
        if version <= self._active:  # flipped: no later batch pins below it
            self._superseded.extend(
                workers for older, workers in self._sets.items() if older < version
            )
        while self._superseded:
            self._superseded.popleft().stop()

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop every worker set — refusing on the loop whose scatter is in
        flight, which could only finish if this call returned."""
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:  # a plain thread
            running = None
        scatter = self._scatter
        if scatter is not None and scatter.get_loop() is running:
            raise RuntimeError(
                "ProcessPool.close() was called on the event loop whose scatter "
                "is still in flight; await the gateway's stop_async() first"
            )
        self._closed = True
        sets, self._sets = self._sets, {}
        self._superseded.extend(sets.values())
        while self._superseded:
            self._superseded.popleft().stop()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:
            pass
