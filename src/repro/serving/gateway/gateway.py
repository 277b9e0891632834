"""The serving gateway: ANN retrieval + micro-batching + caching + telemetry.

:class:`ServingGateway` is the online front door of the reproduction's
deployment story (Sec. V-F).  One instance owns

* a :class:`~repro.serving.gateway.store.VersionedEmbeddingStore` holding
  the daily-refreshed embedding snapshots,
* a :class:`~repro.serving.gateway.index.RetrievalIndex` *derived from*
  each snapshot (built before the version flip, memoised on the snapshot and
  shared by every gateway on the store that asks for the same kind and
  parameters — the gateway itself holds no index),
* an :class:`~repro.serving.gateway.scheduler.AsyncBatchScheduler`
  coalescing concurrent requests into vectorised searches,
* an :class:`~repro.serving.gateway.cache.LRUTTLCache` keyed by
  ``(query_id, k, version)`` so hot-swaps are self-invalidating, and
* a :class:`~repro.serving.gateway.telemetry.GatewayTelemetry` recording
  QPS, latency percentiles, cache hit rate, ANN recall, queue depth,
  overload/deadline shedding and event-loop lag.

There is one request path and it is asyncio-native end to end:
:meth:`ServingGateway.search_async` submits into the scheduler and awaits
the result on the caller's event loop, with backpressure (bounded admission
queue), deadline propagation and cooperative cancellation.  The synchronous
surface — :meth:`~ServingGateway.search`, :meth:`~ServingGateway.rank`,
:meth:`~ServingGateway.rank_batch` — runs those same coroutines to
completion on a loop the gateway creates on the first such call.

Every arm of the A/B-test simulator
(:class:`~repro.serving.abtest.OnlineABExperiment`) is a gateway: the
replay awaits :meth:`ServingGateway.search_async` once per session, so
both buckets are served by the inner product, as in the paper's deployment.
"""

from __future__ import annotations

import asyncio
import threading
import time
import warnings
import weakref
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.eval.serving_metrics import recall_at_k
from repro.serving.gateway.cache import LRUTTLCache
from repro.serving.gateway.index import (
    ExactIndex,
    RetrievalIndex,
    build_index,
    needs_int8_table,
)
from repro.serving.gateway.scheduler import AsyncBatchScheduler, PendingRequest
from repro.serving.gateway.store import (
    SnapshotListener,
    StaleVersionError,
    VersionedEmbeddingStore,
)
from repro.serving.gateway.telemetry import GatewayTelemetry
from repro.serving.obs.flight import FlightRecorder
from repro.serving.obs.health import HealthSnapshot
from repro.serving.obs.tracing import BatchSpans, Tracer

#: Batches in flight (and owned scoring threads) when scoring is offloaded:
#: batch N+1 is planned and scanned while batch N is still being scanned.
#: On a 2-vCPU box (one BLAS thread per scan) ``IVFPQIndex.search`` at batch
#: 64 over 24k x 64 rows ran 13.5k queries/s on one thread, 21.9k on two and
#: 19.0k on three.  End to end, depth 2 took ``ivfpq_uniform`` ``qps`` from
#: 10.1k to 14.0k (medians of ten alternating pairs, 10 of 10 won) with p50
#: within 3 %.  Inline scoring has nothing to overlap (a task per batch cost
#: ``zipf_cached`` 6-14 % ``qps``), so it keeps 1.
PIPELINE_DEPTH = 2


class ServingGateway(SnapshotListener):
    """High-throughput request front-end over a versioned embedding store.

    The gateway subscribes to the store as a two-phase
    :class:`~repro.serving.gateway.store.SnapshotListener`: every publish —
    whether driven through :meth:`hot_swap` or directly on the store —
    builds the new version's index *before* the version flip, and the first
    batch that pins the new version drops the superseded cache entries.  The
    build never shares a lock with readers: a request pinned to version ``v``
    finds ``v``'s index with one dict lookup while ``v + 1`` is still
    building.  Subclasses (the sharded tier) override
    :meth:`_search_backend_async` and the listener hooks to swap the
    single-process index for a worker pool without touching the
    request/cache path.

    Loop-front-end knobs:

    * ``max_queue`` bounds the admission queue; ``overload`` picks the
      backpressure policy (``"reject"`` fails a submit with
      :class:`~repro.serving.gateway.scheduler.OverloadError`, ``"wait"``
      parks async submitters until a slot frees),
    * ``default_deadline_s`` gives every request a deadline unless the call
      site passes its own — requests past it are shed before scoring,
    * ``cpu_executor`` moves the CPU-bound scoring off the event loop
      (``"thread"`` for an owned pool of two workers, any
      :class:`concurrent.futures.Executor` to plug your own, ``None`` to
      score inline — the deterministic default).  Offloaded scoring keeps
      two batches in flight (:data:`PIPELINE_DEPTH`): the next batch is
      planned and handed to the executor while the previous one is still
      being scanned.  Batches may then finish out of order across a
      version flip; only batches at the newest version served fill the
      cache.

    Observability knobs:

    * ``tracing=True`` traces every request end to end (admission → queue →
      plan → score/scatter → merge → reply spans); finished traces land in
      the gateway's :class:`~repro.serving.obs.flight.FlightRecorder`,
      which always keeps slow/shed/error traces and samples 1 in
      ``trace_sample_every`` ordinary ones into a ring of 256 traces;
      ``slow_trace_ms`` is the always-keep latency threshold,
    * ``telemetry_enabled=False`` turns every telemetry record into a no-op,
    * :meth:`health` condenses the telemetry into a poll-cheap
      :class:`~repro.serving.obs.health.HealthSnapshot`, and
      :meth:`explain` renders the span tree of one request.
    """

    def __init__(self, store: VersionedEmbeddingStore, index: str = "ivf",
                 index_params: Optional[dict] = None, top_k: int = 10,
                 max_batch_size: int = 64, max_wait_s: float = 0.002,
                 cache_capacity: int = 4096,
                 max_staleness_s: Optional[float] = None,
                 max_queue: Optional[int] = None, overload: str = "wait",
                 default_deadline_s: Optional[float] = None,
                 cpu_executor=None, loop_confined: bool = False,
                 telemetry_enabled: bool = True, tracing: bool = False,
                 trace_sample_every: int = 16, slow_trace_ms: float = 50.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        # ``loop_confined`` is accepted and ignored: benchmarks/e2e/workloads.py
        # still passes it; remove with the next [benchmark] PR.
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        self.store = store
        self.index_kind = index
        self.index_params = dict(index_params or {})
        self.top_k = top_k
        self.max_staleness_s = max_staleness_s
        self.default_deadline_s = default_deadline_s
        self._clock = clock
        # What this gateway asks a snapshot to derive: gateways with equal
        # (kind, params) on one store share one built index per version.
        # Unhashable params get a private key — own build, never a wrong share.
        try:
            self._index_key = ("index", index,
                               frozenset(self.index_params.items()))
        except TypeError:
            self._index_key = ("index", object())
        self._owns_cpu_executor = False
        if cpu_executor == "thread":
            cpu_executor = ThreadPoolExecutor(
                max_workers=PIPELINE_DEPTH, thread_name_prefix="gateway-score")
            self._owns_cpu_executor = True
        elif cpu_executor is not None and not isinstance(cpu_executor, Executor):
            raise ValueError(
                "cpu_executor must be None, 'thread', or a concurrent.futures"
                f".Executor, got {cpu_executor!r}")
        self._cpu_executor: Optional[Executor] = cpu_executor
        self.cache = LRUTTLCache(capacity=cache_capacity)
        self.telemetry = GatewayTelemetry(clock=clock, enabled=telemetry_enabled)
        self.flight_recorder = FlightRecorder(
            sample_every=trace_sample_every,
            slow_s=slow_trace_ms * 1e-3,
        )
        self.tracer = Tracer(clock=clock, recorder=self.flight_recorder,
                             enabled=tracing)
        # The scheduler calls back through a weak reference: the bound method
        # would make gateway -> scheduler -> gateway a cycle, so a dropped
        # gateway, its store and every index built for it would stay in
        # memory until the cyclic collector next ran.
        execute = weakref.WeakMethod(self._execute_batch_async)
        self.scheduler = AsyncBatchScheduler(
            lambda batch: execute()(batch), max_batch_size=max_batch_size,
            max_wait_s=max_wait_s, clock=clock, max_queue=max_queue,
            overload=overload, telemetry=self.telemetry, tracer=self.tracer,
        )
        if cpu_executor is not None:
            self.scheduler.max_in_flight = PIPELINE_DEPTH
        # Synchronous callers (search / rank / rank_batch) run the request
        # coroutines on a loop made on the first such call; they take turns
        # on the lock because a loop runs one ``run_until_complete`` at a time.
        self._sync_loop: Optional[asyncio.AbstractEventLoop] = None
        self._sync_lock = threading.Lock()
        # The newest version a batch of this gateway pinned (its boot version
        # until the first batch); it only moves forward, and
        # ``_execute_batch_pinned`` alone reads and writes it.
        self._served_version = store.version
        # Subscribing prepares the current snapshot eagerly, so the first
        # request never pays an index build.
        self.store.subscribe(self)

    # ------------------------------------------------------------------ #
    # Two-phase snapshot listener (index lifecycle)
    # ------------------------------------------------------------------ #
    def prepare(self, snapshot) -> None:
        """Build the new version's search structures before the flip."""
        self._index_for(snapshot)

    def _index_for(self, snapshot) -> RetrievalIndex:
        """The index built from exactly this snapshot's service matrix.

        The index is memoised on the snapshot, so a batch that pinned
        snapshot ``v`` mid-hot-swap searches the version-``v`` index — never
        a mixed-version pairing — after one lock-free dict lookup, and the
        index lives exactly as long as its snapshot is pinned: an aborted
        publish leaves nothing to retire.
        """
        return snapshot.derived(self._index_key, self._build_index)

    def _build_index(self, snapshot) -> RetrievalIndex:
        """Restore or build this gateway's kind of index for ``snapshot``."""
        index = self._restore_index(snapshot)
        if index is not None:
            return index
        return build_index(self.index_kind, snapshot.all_services(),
                           **self._params_for(snapshot))

    def _params_for(self, snapshot) -> dict:
        """This gateway's index params, plus the snapshot's int8 table if
        they need it."""
        params = dict(self.index_params)
        if needs_int8_table(self.index_kind, params):
            params["int8_table"] = snapshot.int8_table()
        return params

    def _restore_index(self, snapshot) -> Optional[RetrievalIndex]:
        """A persisted index payload for this snapshot, or ``None``.

        Only ``ivfpq`` carries expensive trained state worth persisting.  A
        missing payload, or one built with other params than this
        gateway's, is the normal cold-build path; a *damaged* one raises
        the snapshot layer's typed integrity error, which is surfaced as a
        warning here and answered with an in-memory rebuild — warm start is
        an optimisation, never a correctness dependency.
        """
        durable = snapshot.durable
        if durable is None or self.index_kind != "ivfpq":
            return None
        from repro.serving.snapshot import SnapshotError, SnapshotNotFoundError

        params = self._params_for(snapshot)
        try:
            return durable.load_index(
                self.index_kind, int8_table=params.pop("int8_table", None),
                params=params)
        except SnapshotNotFoundError:
            return None
        except (SnapshotError, ValueError) as error:
            warnings.warn(
                f"persisted {self.index_kind} payload for store "
                f"v{snapshot.version} is unusable ({error}); rebuilding the "
                f"index in memory",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    def persist_index(self, kind: Optional[str] = None) -> str:
        """Persist the current version's trained index beside its manifest.

        A later ``deploy_gateway(warm_start=...)`` then restores the index
        payload (coarse centroids, slot layout, PQ codebooks) instead of
        re-running k-means.  Requires the current snapshot to have been
        published durably (store ``durable_dir``).
        """
        snapshot = self.store.snapshot()
        durable = snapshot.durable
        if durable is None:
            raise ValueError(
                "persist_index needs a durably-published snapshot — construct "
                "the store with durable_dir= (or publish(durable_dir=...))"
            )
        return durable.save_index(self._index_for(snapshot), kind or self.index_kind)

    async def _search_backend_async(self, snapshot, query_matrix: np.ndarray,
                                    k: int, spans: Optional[BatchSpans] = None
                                    ) -> Tuple[np.ndarray, np.ndarray]:
        """One vectorised top-k search at exactly ``snapshot``'s version.

        The single-process backend answers from the snapshot's index; the
        sharded subclass overrides this with a scatter/gather over its
        worker pool.  The CPU-bound scan is pushed through ``cpu_executor``
        when one is configured, so the event loop keeps admitting and
        timing out requests while numpy scans the catalogue; without one it
        runs inline (deterministic).  ``spans`` (when the batch carries
        traced requests) receives a ``score`` span covering the scan.
        """
        index = self._index_for(snapshot)
        offloaded = self._cpu_executor is not None
        started = self._clock() if spans is not None else 0.0
        if offloaded:
            result = await asyncio.get_running_loop().run_in_executor(
                self._cpu_executor, index.search, query_matrix, k)
        else:
            result = index.search(query_matrix, k)
        if spans is not None:
            spans.add("score", started, self._clock(),
                      queries=query_matrix.shape[0], k=k, offloaded=offloaded)
        return result

    # ------------------------------------------------------------------ #
    # Request path (async; the sync surface runs it on the gateway's loop)
    # ------------------------------------------------------------------ #
    def _run(self, coro):
        """Run one request coroutine to completion for a synchronous caller.

        Refuses — before anything is admitted — when the calling thread is
        already inside a running event loop: that caller must ``await`` the
        ``*_async`` form instead.
        """
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            coro.close()
            raise RuntimeError(
                "the synchronous gateway surface cannot run inside a running "
                "event loop; await search_async / rank_async / "
                "rank_batch_async instead")
        with self._sync_lock:
            if self._sync_loop is None:
                self._sync_loop = asyncio.new_event_loop()
            return self._sync_loop.run_until_complete(self._settle(coro))

    async def _settle(self, coro):
        """Await ``coro``, dispatching what it enqueues without delay.

        A synchronous caller is the only submitter on this loop, so no
        later arrival could join its batch: waiting out ``max_wait_s``
        would only add latency.  The drive task is stopped before
        returning, which leaves the scheduler idle and free to rebind to a
        caller's own loop.
        """
        task = asyncio.ensure_future(coro)
        try:
            await asyncio.sleep(0)  # the task runs up to its first wait
            while not task.done():
                await self.scheduler.flush()
                await asyncio.sleep(0)
            return task.result()
        finally:
            await self.scheduler.stop()

    def search(self, query_id: int, k: Optional[int] = None,
               deadline_s: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Synchronous :meth:`search_async`: ``(ids, scores)`` for one query."""
        return self._run(self.search_async(query_id, k, deadline_s=deadline_s))

    def rank(self, query_id: int, k: Optional[int] = None) -> List[int]:
        """Synchronous :meth:`rank_async`: the ranked ids for one query."""
        return self._run(self.rank_async(query_id, k))

    def rank_batch(self, query_ids: Sequence[int],
                   k: Optional[int] = None) -> List[List[int]]:
        """Synchronous :meth:`rank_batch_async`."""
        return self._run(self.rank_batch_async(query_ids, k))

    async def search_async(self, query_id: int, k: Optional[int] = None,
                           deadline_s: Optional[float] = None
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Async single search: admit, batch, score, gather — on one loop.

        Backpressure applies at admission (``max_queue`` / ``overload``),
        the request inherits ``default_deadline_s`` unless ``deadline_s``
        overrides it, and awaiting caller cancellation propagates into the
        scheduler: a request cancelled before its batch executes is dropped
        without being scored.
        """
        pending = await self.submit_async(query_id, k, deadline_s=deadline_s)
        try:
            return await pending.wait()
        except asyncio.CancelledError:
            pending.cancel()
            raise

    async def submit_async(self, query_id: int, k: Optional[int] = None,
                           deadline_s: Optional[float] = None) -> PendingRequest:
        """Admit one request and return its :class:`PendingRequest` handle.

        The replica-handle form of :meth:`search_async`: a fleet front-end
        admits here, grafts its own routing span onto ``pending.trace``,
        and awaits ``pending.wait()`` itself — so failover logic owns the
        wait without re-implementing admission.  Raises ``OverloadError``
        at admission like ``search_async`` does.
        """
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        pending = await self.scheduler.submit(
            query_id, k if k is not None else self.top_k, deadline_s=deadline_s)
        self.scheduler.start()  # idempotent: the drive task for the current loop
        return pending

    async def rank_async(self, query_id: int, k: Optional[int] = None,
                         deadline_s: Optional[float] = None) -> List[int]:
        """:meth:`search_async` without the scores: the ranked ids."""
        ids, _ = await self.search_async(query_id, k, deadline_s=deadline_s)
        return [int(service_id) for service_id in ids]

    async def rank_batch_async(self, query_ids: Sequence[int],
                               k: Optional[int] = None) -> List[List[int]]:
        """Rank many queries concurrently; the scheduler batches them.

        Every request settles before the first failure (if any) is raised,
        so no request of the call is left running behind the caller's back.
        """
        ranked = await asyncio.gather(
            *(self.rank_async(query_id, k) for query_id in query_ids),
            return_exceptions=True)
        for outcome in ranked:
            if isinstance(outcome, BaseException):
                raise outcome
        return ranked

    async def stop_async(self) -> None:
        """Stop the drive task on the current loop, draining the queue.

        Completes (or sheds, per deadline) everything already admitted; the
        next ``submit_async`` restarts the drive task.  A fleet retires a
        replica gracefully this way — drain, then stop routing to it —
        without failing in-flight requests the way ``close()`` would.
        """
        await self.scheduler.stop()

    # ------------------------------------------------------------------ #
    # Batch execution (the scheduler's executor)
    # ------------------------------------------------------------------ #
    async def _execute_batch_async(self, batch: Sequence[PendingRequest]) -> List:
        """Scheduler executor with version re-pinning.

        The batch pins one snapshot and is answered entirely at its version.
        If two hot-swaps complete between the pin and the backend search (the
        workers then no longer hold the pinned version's tables), the batch
        re-pins the fresh snapshot and re-executes — still never mixing
        versions — instead of failing the requests.
        """
        last_error: Optional[BaseException] = None
        for _ in range(3):
            snapshot = self.store.snapshot(self.max_staleness_s)
            try:
                return await self._execute_batch_pinned(batch, snapshot)
            except StaleVersionError as error:
                last_error = error
        raise last_error

    async def _execute_batch_pinned(
            self, batch: Sequence[PendingRequest],
            snapshot) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Cache lookups + one vectorised search, all at ``snapshot``'s version.

        Duplicate ``(query_id, k)`` pairs inside the batch are coalesced into
        a single backend search; ``telemetry.backend_queries`` counts the
        de-duplicated lookups so the saving is observable.  A request with an
        unknown query id or invalid k fails alone (its result is an exception)
        instead of failing the whole batch; a request cancelled while its
        batch was in flight is skipped — its slot is never scored.

        Batch-level work (cache planning, the backend search) happens once
        per batch, so its spans are recorded once into a
        :class:`~repro.serving.obs.tracing.BatchSpans` and grafted into
        every traced request at collect time.

        The first batch pinned to a newer version drops the superseded
        version's cache entries (their keys carry the version, so none
        could be served anyway) and counts the swap — here, on the thread
        that owns the cache, not on the publisher's.  With two batches in
        flight an older-version batch can finish after that: its answers
        stand, but it caches nothing (no later batch could hit those
        entries, and they would evict live ones).
        """
        if snapshot.version > self._served_version:
            self.cache.invalidate_version(self._served_version)
            self.telemetry.record_swap(snapshot.version)
            self._served_version = snapshot.version
        spans = None
        if self.tracer.enabled and any(
            pending.trace is not None and not pending.cancelled
            for pending in batch
        ):
            spans = BatchSpans(self._clock, self.tracer.batch_context())
        planned_at = self._clock() if spans is not None else 0.0
        resolved, hit_keys, misses = self._plan_batch(batch, snapshot)
        if spans is not None:
            spans.add("plan", planned_at, self._clock(), batch=len(batch),
                      cache_hits=len(hit_keys), backend_queries=len(misses),
                      version=snapshot.version)
        if misses:
            query_matrix = snapshot.query([query_id for query_id, _ in misses])
            max_k = max(k for _, k in misses)
            ids, scores = await self._search_backend_async(
                snapshot, query_matrix, max_k, spans=spans)
            current = snapshot.version == self._served_version
            for row, (query_id, k) in enumerate(misses):
                valid = ids[row, :k] >= 0
                value = (ids[row, :k][valid].copy(), scores[row, :k][valid].copy())
                resolved[(query_id, k)] = value
                if current:
                    self.cache.put((query_id, k, snapshot.version), value)
        return self._collect_results(batch, resolved, hit_keys, misses, spans)

    def _plan_batch(self, batch: Sequence[PendingRequest], snapshot):
        """Resolve each request from the cache or mark it a backend miss."""
        resolved: Dict[Tuple[int, int], object] = {}
        hit_keys = set()
        for pending in batch:
            if pending.cancelled:
                continue
            key = (pending.query_id, pending.k)
            if key in resolved:
                continue
            if not 0 <= pending.query_id < snapshot.num_queries:
                resolved[key] = IndexError(
                    f"query id {pending.query_id} out of range "
                    f"[0, {snapshot.num_queries}) in store v{snapshot.version}"
                )
                continue
            if pending.k <= 0:
                resolved[key] = ValueError("k must be positive")
                continue
            cached = self.cache.get((key[0], key[1], snapshot.version))
            if cached is not None:
                resolved[key] = cached
                hit_keys.add(key)
        misses = [
            (pending.query_id, pending.k)
            for pending in batch
            if not pending.cancelled
            and (pending.query_id, pending.k) not in resolved
        ]
        misses = list(dict.fromkeys(misses))  # preserve order, drop duplicates
        return resolved, hit_keys, misses

    def _collect_results(self, batch: Sequence[PendingRequest], resolved,
                         hit_keys, misses, spans=None) -> List:
        """Telemetry + one result (or per-request exception) per batch slot."""
        now = self._clock()
        self.telemetry.record_batch(len(batch), backend_queries=len(misses))
        results: List[object] = []
        for pending in batch:
            key = (pending.query_id, pending.k)
            value = resolved.get(key)
            if pending.cancelled or value is None:
                # The slot was never scored; the scheduler discards the
                # placeholder because a cancelled request cannot complete.
                results.append(asyncio.CancelledError("request cancelled"))
                continue
            self.telemetry.record_request(max(0.0, now - pending.enqueued_at),
                                          cache_hit=key in hit_keys)
            if spans is not None and pending.trace is not None:
                spans.graft_into(pending.trace)
            results.append(value)
        return results

    # ------------------------------------------------------------------ #
    # Hot-swap (the daily embedding refresh, Sec. V-F / Fig. 9)
    # ------------------------------------------------------------------ #
    def hot_swap(self, query_embeddings: np.ndarray,
                 service_embeddings: np.ndarray) -> int:
        """Publish a new embedding version and rebuild the ANN index.

        The heavy lifting happens through the two-phase listener protocol:
        :meth:`prepare` builds the new index while the old version still
        serves, then the store flips the reference.  The cache is keyed by
        version, so a superseded entry can never be served; the next batch
        drops them.
        """
        return self.store.publish(query_embeddings, service_embeddings)

    def hot_swap_from_model(self, model) -> int:
        return self.hot_swap(model.query_embeddings(), model.service_embeddings())

    # ------------------------------------------------------------------ #
    # Quality probe + reporting
    # ------------------------------------------------------------------ #
    def recall_probe(self, k: int = 10, num_queries: int = 128, seed: int = 0) -> float:
        """ANN recall@k against the exact scan on a sample of stored queries."""
        snapshot = self.store.snapshot()
        rng = np.random.default_rng(seed)
        sample_size = min(num_queries, snapshot.num_queries)
        query_ids = rng.choice(snapshot.num_queries, size=sample_size, replace=False)
        query_matrix = snapshot.query(query_ids)
        exact_ids, _ = ExactIndex().build(snapshot.all_services()).search(query_matrix, k)
        approx_ids, _ = self._run(
            self._search_backend_async(snapshot, query_matrix, k))
        recall = recall_at_k(approx_ids, exact_ids, k)
        self.telemetry.record_recall(recall, k)
        return recall

    def summary(self) -> Dict[str, float]:
        """Telemetry summary enriched with store/cache/index state."""
        summary = self.telemetry.summary()
        summary["store_version"] = float(self.store.version)
        summary["cache_size"] = float(len(self.cache))
        return summary

    def health(self) -> HealthSnapshot:
        """The poll-cheap per-replica health signal (fleet-router feed)."""
        return self.telemetry.health()

    def explain(self, request) -> str:
        """Span tree of one request / trace / trace id, via the recorder."""
        return self.flight_recorder.explain(request)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Detach from the store's publish protocol and close the sync loop.

        A store can outlive the gateways serving it; without unsubscribing,
        every future publish would keep building indexes for a gateway
        nobody queries any more.  The owned scoring threads are joined.
        """
        self.store.unsubscribe(self)
        with self._sync_lock:
            loop, self._sync_loop = self._sync_loop, None
        if loop is not None:
            loop.close()
        if self._owns_cpu_executor and self._cpu_executor is not None:
            self._cpu_executor.shutdown()
            self._cpu_executor = None

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def deploy_gateway(model=None, index: str = "ivf", index_params: Optional[dict] = None,
                   num_shards: int = 1, quantization: Sequence[str] = (),
                   workers: str = "auto", warm_start: Optional[str] = None,
                   durable_dir: Optional[str] = None,
                   keep_last: Optional[int] = None,
                   remote_peer: Optional[Tuple[str, int]] = None,
                   **gateway_kwargs) -> ServingGateway:
    """Export a trained model's embeddings behind a full serving gateway.

    ``quantization=("int8",)`` publishes an int8 service table with every
    snapshot so it hot-swaps with the fp arrays; pick ``index="ivfpq"`` /
    ``"int8"`` to also *search* through quantized codes (both reuse the
    published int8 table).

    With ``num_shards > 1`` the one-call deployment becomes the sharded
    tier: a :class:`~repro.serving.sharded.ShardedGateway` runs one
    :class:`~repro.serving.sharded.ShardWorker` per contiguous store shard
    behind the same request path, with ``workers`` choosing the execution
    backend (``"process"`` / ``"thread"`` / ``"serial"`` / ``"auto"``).

    ``warm_start`` boots the store from an on-disk snapshot directory
    (:meth:`VersionedEmbeddingStore.restore`): tables and quantized codes
    are mmapped straight off the manifest's chunks — no re-quantization, no
    codebook training — and the shard layout comes from the manifest.  A
    corrupt or missing snapshot raises the snapshot layer's typed error; if
    ``model`` is also given, the gateway warns and falls back to the
    in-memory rebuild instead.  ``remote_peer=(host, port)`` points at a
    peer :class:`~repro.serving.snapshot.SnapshotServer`: the peer's live
    snapshot is replicated into ``warm_start`` over the wire *before* the
    restore, so a brand-new host with an **empty** directory boots
    bit-identical to the source fleet (failed replication falls back the
    same way a damaged local snapshot does).  ``durable_dir`` makes a
    model-built store publish durably from its first version;
    ``keep_last=N`` bounds the on-disk retention to the newest ``N``
    versions (plus whatever the manifest pointer references) by pruning
    after every activate.

    Either tier exposes the asyncio-native front-end: ``await
    gateway.search_async(query_id)`` from any event loop, with admission
    control, deadlines and cancellation configured through
    ``gateway_kwargs`` (``max_queue`` / ``overload`` /
    ``default_deadline_s`` / ``cpu_executor``).
    """
    if remote_peer is not None and warm_start is None:
        raise ValueError("remote_peer needs a warm_start directory to hydrate into")
    store = None
    if warm_start is not None:
        from repro.serving.snapshot import SnapshotError

        try:
            store = VersionedEmbeddingStore.restore(warm_start, remote=remote_peer)
        except SnapshotError as error:
            if model is None:
                raise
            warnings.warn(
                f"warm start from {warm_start!r} failed ({error}); rebuilding "
                f"the store from the model in memory",
                RuntimeWarning,
                stacklevel=2,
            )
    if store is None:
        if model is None:
            raise ValueError("deploy_gateway needs a model, a warm_start dir, or both")
        store = VersionedEmbeddingStore.from_model(
            model, num_shards=num_shards, quantization=quantization,
            durable_dir=durable_dir, keep_last=keep_last,
        )
    elif num_shards not in (1, store.num_shards):
        raise ValueError(
            f"warm-started snapshot was published with {store.num_shards} "
            f"shard(s); num_shards={num_shards} conflicts with its layout"
        )
    if store.num_shards > 1:
        from repro.serving.sharded import ShardedGateway

        return ShardedGateway(store, index=index, index_params=index_params,
                              workers=workers, **gateway_kwargs)
    return ServingGateway(store, index=index, index_params=index_params, **gateway_kwargs)
