"""Versioned, shard-aware embedding store with atomic hot-swap.

The production platform (Sec. V-F / Fig. 9) refreshes the exported query and
service embeddings once per day while serving traffic continuously.  Arrays
replaced in place on refresh would let a concurrent reader observe a *torn*
read — queries from version ``v`` scored against services from ``v+1``.
This store rules that out:

* every publish builds an immutable :class:`EmbeddingSnapshot` (arrays are
  marked read-only) and swaps a single reference under a lock, so readers
  always see a fully consistent ``(queries, services, version)`` triple;
* service embeddings are split into contiguous shards, the layout a
  multi-process serving tier would use; lookups route ids to shards;
* stale-read protection: each snapshot records its publish time and
  :meth:`VersionedEmbeddingStore.snapshot` can reject snapshots older than
  a staleness budget (the "embeddings must be at most a day old" contract);
* the snapshot dtype is configurable (``float32`` by default — half the
  resident size of ``float64`` with no measurable recall impact), and
  the store can additionally publish an **int8 service table**
  (:func:`repro.serving.quant.quantize_int8`) alongside the fp arrays: the
  compressed replica is built *inside* the snapshot, so it hot-swaps
  atomically with the embeddings it mirrors and stays row-aligned with the
  shard layout (without one a snapshot quantizes its own on first use:
  :meth:`EmbeddingSnapshot.int8_table`);
* **two-phase publish**: subscribed :class:`SnapshotListener`\\ s (the
  gateway's index builder, the sharded tier's worker pool) get
  ``prepare(snapshot)`` *before* the version flip and ``activate(snapshot)``
  after it.  Every consumer has the new version's search structures ready
  by the time any reader can observe the new version, so a query routed at
  snapshot ``v`` can always be answered entirely at ``v`` — across every
  shard worker — and no request ever sees a mixed-version pairing.

Readers look rows up on a pinned :class:`EmbeddingSnapshot`, never on the
store, so one lookup never mixes two versions.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.quant import Int8Table, quantize_int8


class StaleReadError(RuntimeError):
    """Raised when the freshest published snapshot exceeds the staleness budget."""


class StaleVersionError(LookupError):
    """A version-pinned search raced two hot-swaps and its tables are gone.

    Workers retain the current version and its predecessor, so this only
    fires when at least two publishes completed between a batch pinning its
    snapshot and the scatter reaching a worker.  The gateway's request path
    treats it as retryable: re-pin the fresh snapshot and re-execute — the
    batch is then answered entirely at the newer version, never mixed.
    """


class SnapshotListener:
    """Two-phase hot-swap protocol for snapshot consumers.

    ``prepare(snapshot)`` is called while the *previous* version is still
    current: build every search structure the new version needs (indexes,
    shard worker tables) but keep serving the old version.  A raised
    exception aborts the publish — the store keeps the old version and calls
    :meth:`retire` for the aborted one on every listener already prepared.

    ``activate(snapshot)`` is called after the store's reference flip: the
    new version is now the one readers observe, so older versions may be
    retired (workers keep the immediately preceding one for requests that
    pinned it mid-flip).

    ``retire(version)`` drops any state held for ``version`` (abort path).
    Structures memoised on the snapshot itself
    (:meth:`EmbeddingSnapshot.derived`) need no retiring: the store drops
    the dead snapshot and they go with it.

    All three hooks run on the publisher's thread and touch nothing a
    request loop owns (scheduler, result cache, telemetry).
    """

    def prepare(self, snapshot: "EmbeddingSnapshot") -> None:  # pragma: no cover
        """Build structures for ``snapshot`` without serving it yet."""

    def activate(self, snapshot: "EmbeddingSnapshot") -> None:  # pragma: no cover
        """``snapshot`` is now current; retire versions older than its
        predecessor."""

    def retire(self, version: int) -> None:  # pragma: no cover
        """Drop any state held for an aborted ``version``."""


# A refresh (publish, hydrate) is most of a second of k-means, hashing and
# file writes beside a request loop that wakes every millisecond or two for a
# fraction of one.  Where the two share a core (one-core hosts, and guests
# whose scheduler keeps a process's threads on the core that woke them) a
# woken thread of *equal* priority waits for the running one to use up its
# slice: measured on the fleet tier, 15 waits of 5-6 ms per publish, and the
# 95th percentile of the requests that arrive during a publish at 7.7 ms
# against 4.8 ms at the lowest priority, where the loop runs as soon as it
# wakes.  The refresh is no slower for it while the loop leaves the core idle.
# A thread may always lower its own priority but needs a privilege to raise it
# again, hence a thread of its own instead of renicing the caller.
def _lower_priority() -> None:
    """Drop the calling thread to the lowest scheduling priority (Linux, whose
    ``setpriority`` takes a thread id; a no-op elsewhere)."""
    if sys.platform.startswith("linux"):
        try:
            os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)
        except OSError:  # a sandbox that forbids it: keep the caller's priority
            pass


def _in_background(refresh):
    """Make ``refresh`` run to completion on a thread of the lowest
    scheduling priority; its result or exception is the caller's."""

    @functools.wraps(refresh)
    def wrapper(*args, **kwargs):
        with ThreadPoolExecutor(1, "store-refresh", _lower_priority) as pool:
            return pool.submit(refresh, *args, **kwargs).result()

    return wrapper


def _freeze(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    array = np.array(array, dtype=dtype, copy=True)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class EmbeddingSnapshot:
    """One immutable published version of the embedding tables.

    ``int8`` is the int8 service table the store published with this
    version (``None`` when it publishes none).  :meth:`int8_table` is the
    one table every int8-scoring index searches — row-aligned with
    ``services``, so a shard takes its ``rows(lo, hi)`` and service ids
    carry over unchanged.

    Search structures computed from this version's tables (a gateway's ANN
    index) are memoised *on the snapshot* through :meth:`derived`, so they
    live exactly as long as something pins the snapshot, and every consumer
    of one store that asks for the same structure shares one build.
    """

    version: int
    published_at: float
    queries: np.ndarray
    services: np.ndarray
    shard_bounds: Tuple[int, ...]  # len = num_shards + 1, contiguous ranges
    int8: Optional[Int8Table] = None
    # Durable location of this version on disk (snapshot.DurableRef), set
    # when the store publishes with a ``durable_dir``.  A gateway saves and
    # restores its trained index payload (IVF-PQ) beside the manifest
    # through it.
    durable: Optional[object] = None
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _derived_lock: threading.RLock = field(default_factory=threading.RLock,
                                           init=False, repr=False, compare=False)

    def derived(self, key: Hashable,
                build: Callable[["EmbeddingSnapshot"], object]) -> object:
        """``build(self)``, computed at most once per ``key`` (single flight).

        A hit is one dict lookup and takes no lock, so a reader of this
        version never waits on anyone.  Only a miss takes this snapshot's
        own lock: concurrent first callers of one key wait for a single
        build instead of each running their own, and nobody holding another
        version's snapshot is involved.  The lock is reentrant: a ``build``
        may derive what it needs (an index its :meth:`int8_table`).  A
        ``build`` that raises stores nothing.  The value must be safe to
        share — read-only once built.
        """
        try:
            return self._derived[key]
        except KeyError:
            pass
        with self._derived_lock:
            if key not in self._derived:
                self._derived[key] = build(self)
            return self._derived[key]

    @property
    def num_queries(self) -> int:
        return self.queries.shape[0]

    @property
    def num_services(self) -> int:
        return self.services.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.queries.shape[1]

    @property
    def num_shards(self) -> int:
        return len(self.shard_bounds) - 1

    def query(self, query_ids: Sequence[int]) -> np.ndarray:
        return self.queries[np.asarray(query_ids, dtype=np.int64)]

    def service(self, service_ids: Sequence[int]) -> np.ndarray:
        return self.services[np.asarray(service_ids, dtype=np.int64)]

    def all_services(self) -> np.ndarray:
        return self.services

    def int8_table(self) -> Int8Table:
        """The int8 copy of ``services`` every int8-scoring index searches:
        the published table, else one quantized from ``services`` on first
        use and memoised here (never written to disk)."""
        if self.int8 is not None:
            return self.int8
        return self.derived("int8", lambda snapshot: quantize_int8(
            np.asarray(snapshot.services, dtype=np.float64)))

    def shard_of(self, service_id: int) -> int:
        """Shard index owning ``service_id`` (contiguous range layout)."""
        if not 0 <= service_id < self.num_services:
            raise IndexError(f"service id {service_id} out of range")
        return int(np.searchsorted(self.shard_bounds, service_id, side="right") - 1)

    def shard(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(service_ids, embeddings)`` of one shard (views, zero copy)."""
        lo, hi = self.shard_bounds[index], self.shard_bounds[index + 1]
        return np.arange(lo, hi, dtype=np.int64), self.services[lo:hi]

    def age(self, now: float) -> float:
        return max(0.0, now - self.published_at)


class VersionedEmbeddingStore:
    """Thread-safe store of embedding snapshots with atomic publish.

    ``dtype`` sets the fp snapshot precision (default ``float32``).
    ``quantization=("int8",)`` publishes an int8 service table with every
    snapshot; ``"int8"`` is the only kind (PQ and OPQ codes belong to the
    IVF-PQ index that searches them: ``index_params={"rotation": "opq"}``).
    The int8 table freezes the global query-quantization step from the
    snapshot's query table, so the end-to-end integer scoring path ranks
    bit-identically on every replica.

    ``keep_last=N`` (with a ``durable_dir``) bounds on-disk retention:
    after each durable publish activates, :func:`~repro.serving.snapshot.
    prune` garbage-collects manifests and chunks beyond the newest ``N``
    versions.
    """

    def __init__(self, query_embeddings: np.ndarray, service_embeddings: np.ndarray,
                 num_shards: int = 1, version: int = 0,
                 dtype: np.dtype = np.float32,
                 quantization: Sequence[str] = (),
                 clock: Callable[[], float] = time.monotonic,
                 durable_dir: Optional[str] = None,
                 durable_rows_per_chunk: Optional[int] = None,
                 keep_last: Optional[int] = None) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if keep_last is not None and keep_last < 1:
            raise ValueError("keep_last must be None or >= 1")
        self.num_shards = num_shards
        self.dtype = np.dtype(dtype)
        if not np.issubdtype(self.dtype, np.floating):
            raise ValueError(f"snapshot dtype must be floating, got {self.dtype}")
        self.quantization = tuple(quantization)
        for kind in self.quantization:
            if kind != "int8":
                raise ValueError(
                    f"unknown quantization kind {kind!r}: the store publishes "
                    f"only 'int8' (PQ / OPQ codes live in the ivfpq index)"
                )
        self._clock = clock
        self._lock = threading.Lock()
        self._listeners: List[SnapshotListener] = []
        self.durable_dir = durable_dir
        self.durable_rows_per_chunk = durable_rows_per_chunk
        self.keep_last = keep_last
        initial = self._make_snapshot(query_embeddings, service_embeddings, version)
        if durable_dir is not None:
            initial, _ = self._persist(initial, durable_dir, flip=True)
        self._current = initial

    # ------------------------------------------------------------------ #
    # Two-phase snapshot listeners
    # ------------------------------------------------------------------ #
    def subscribe(self, listener: SnapshotListener) -> None:
        """Register a two-phase hot-swap consumer.

        The listener is immediately prepared + activated for the current
        snapshot, so subscribing and publishing cannot interleave into a
        version the listener never built.
        """
        with self._lock:
            current = self._current
            if listener not in self._listeners:
                listener.prepare(current)
                listener.activate(current)
                self._listeners.append(listener)

    def unsubscribe(self, listener: SnapshotListener) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    # ------------------------------------------------------------------ #
    # Publish (atomic hot-swap)
    # ------------------------------------------------------------------ #
    def _make_snapshot(self, query_embeddings: np.ndarray, service_embeddings: np.ndarray,
                       version: int) -> EmbeddingSnapshot:
        queries = _freeze(query_embeddings, self.dtype)
        services = _freeze(service_embeddings, self.dtype)
        if queries.ndim != 2 or services.ndim != 2:
            raise ValueError("embeddings must be 2-D arrays")
        if queries.shape[1] != services.shape[1]:
            raise ValueError("query and service embeddings must share the same dimensionality")
        shards = min(self.num_shards, max(1, services.shape[0]))
        bounds = tuple(int(b) for b in np.linspace(0, services.shape[0], shards + 1).round())
        int8 = None
        if "int8" in self.quantization:
            # Freeze the global query-quantization step into the table:
            # every replica hydrating this version then scores the integer
            # path with the same step (bit-identical ranking).
            int8 = quantize_int8(services, queries=queries)
        return EmbeddingSnapshot(
            version=version,
            published_at=self._clock(),
            queries=queries,
            services=services,
            shard_bounds=bounds,
            int8=int8,
        )

    def _persist(self, snapshot: EmbeddingSnapshot, durable_dir: str,
                 *, flip: bool) -> Tuple[EmbeddingSnapshot, object]:
        """Write ``snapshot`` to the chunked on-disk format (delta-aware).

        Returns the snapshot with its :class:`snapshot.DurableRef` attached
        plus the write report.  With ``flip=False`` the version is durable
        but not yet *live* — :meth:`_swap_in` flips the ``MANIFEST``
        pointer at the same moment the in-memory reference flips.
        """
        import dataclasses

        from repro.serving import snapshot as snapshot_io

        report = snapshot_io.write_snapshot(
            snapshot, durable_dir,
            rows_per_chunk=self.durable_rows_per_chunk,
            flip=flip,
            extra_meta={
                "dtype": self.dtype.str,
                "rows_per_chunk": self.durable_rows_per_chunk,
                "keep_last": self.keep_last,
            },
        )
        ref = snapshot_io.DurableRef(
            root=str(durable_dir), manifest_rel=report.manifest_rel,
            version=report.version,
        )
        return dataclasses.replace(snapshot, durable=ref), report

    def _swap_in(self, replacement: EmbeddingSnapshot,
                 durable_root: Optional[str] = None,
                 report: Optional[object] = None) -> int:
        """Two-phase flip of a fully-constructed snapshot (lock held).

        Every listener ``prepare``\\ s the new version first (old version
        still serving everywhere), then the in-memory reference — and, for
        a durable publish, the on-disk ``MANIFEST`` pointer — flips, then
        every listener ``activate``\\ s.  If any ``prepare`` fails the
        publish aborts: prepared listeners ``retire`` the dead version, the
        orphan manifest is deleted, and both the in-memory reference and
        the pointer keep naming the last good version.
        """
        prepared: List[SnapshotListener] = []
        try:
            for listener in self._listeners:
                listener.prepare(replacement)
                prepared.append(listener)
        except BaseException:
            for listener in prepared:
                listener.retire(replacement.version)
            if durable_root is not None and report is not None:
                from repro.serving import snapshot as snapshot_io

                snapshot_io.abandon_snapshot(durable_root, report)
            raise
        self._current = replacement
        if durable_root is not None and report is not None:
            from repro.serving import snapshot as snapshot_io

            snapshot_io.flip_pointer(durable_root, report.manifest_rel)
        for listener in self._listeners:
            listener.activate(replacement)
        if durable_root is not None and self.keep_last is not None:
            # Retention: with every durable publish activated, garbage-
            # collect manifests (and now-unreferenced chunks) beyond the
            # newest ``keep_last`` versions.  Runs after the activates so a
            # listener hydrating mid-flip never races a deleted chunk.
            from repro.serving import snapshot as snapshot_io

            snapshot_io.prune(durable_root, keep_versions=self.keep_last)
        return replacement.version

    @_in_background
    def publish(self, query_embeddings: np.ndarray, service_embeddings: np.ndarray,
                durable_dir: Optional[str] = None) -> int:
        """Swap in a new embedding version; readers never see a torn pair.

        The snapshot — including any quantized service tables — is fully
        constructed *before* the reference swap, and the swap itself is a
        single assignment under the lock, so an interleaved
        :meth:`snapshot` returns either the old or the new version in its
        entirety, never a mixed fp/quantized pairing.

        Subscribed listeners run the two-phase flip around that swap (see
        :meth:`_swap_in`); an aborted publish keeps the old snapshot
        current everywhere, including on disk.

        ``durable_dir`` (or the store-level ``durable_dir``) additionally
        persists the version to the chunked snapshot format *before* any
        listener prepares — a listener that restores a persisted index
        payload through ``snapshot.durable`` (the gateway's IVF-PQ
        ``load_index``) can rely on the chunks and manifest existing — and
        atomically flips the ``MANIFEST`` pointer at the reference flip, so
        a crash anywhere in between recovers to the last good version.
        """
        with self._lock:
            version = self._current.version + 1
            replacement = self._make_snapshot(query_embeddings, service_embeddings, version)
            if replacement.embedding_dim != self._current.embedding_dim:
                raise ValueError("publish must keep the embedding dimensionality")
            root = durable_dir if durable_dir is not None else self.durable_dir
            report = None
            if root is not None:
                replacement, report = self._persist(replacement, root, flip=False)
            return self._swap_in(replacement, root, report)

    @_in_background
    def hydrate(self, durable_dir: Optional[str] = None, verify: bool = True,
                remote: Optional[Tuple[str, int]] = None) -> int:
        """Adopt the newest on-disk version when it is newer than ours.

        The disk snapshot is mmapped (zero copy, no re-quantization) and
        run through the same two-phase listener flip as a publish.  A
        replica that was dead through a publish calls this on revive to
        catch up from the manifest instead of the wire.  Returns the
        current version either way.

        ``remote`` is a ``(host, port)`` of a peer
        :class:`~repro.serving.snapshot.SnapshotServer`: the peer's live
        version is pulled into the durable directory first (resumable,
        chunk-verified, delta-economic — see
        :mod:`repro.serving.snapshot.transport`), then adopted through the
        same flip.  A host whose directory is *empty* hydrates entirely
        over the wire, bit-identical to the source.
        """
        root = durable_dir if durable_dir is not None else self.durable_dir
        if root is None:
            raise ValueError("hydrate needs a durable_dir (none configured)")
        from repro.serving import snapshot as snapshot_io

        if remote is not None:
            snapshot_io.SnapshotFetcher(remote, root).fetch()
        durable = snapshot_io.open_snapshot(root, verify=verify)
        with self._lock:
            if durable.version <= self._current.version:
                return self._current.version
            replacement = durable.to_snapshot(published_at=self._clock())
            if replacement.embedding_dim != self._current.embedding_dim:
                raise ValueError("hydrate must keep the embedding dimensionality")
            return self._swap_in(replacement)

    def publish_from_model(self, model) -> int:
        """Daily refresh path: re-export embeddings from a trained model."""
        return self.publish(model.query_embeddings(), model.service_embeddings())

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def snapshot(self, max_staleness_s: Optional[float] = None) -> EmbeddingSnapshot:
        """The current snapshot; optionally enforce a staleness budget."""
        current = self._current  # single reference read — atomic in CPython
        if max_staleness_s is not None:
            age = current.age(self._clock())
            if age > max_staleness_s:
                raise StaleReadError(
                    f"snapshot v{current.version} is {age:.3f}s old "
                    f"(budget {max_staleness_s:.3f}s); run the daily refresh"
                )
        return current

    @property
    def version(self) -> int:
        return self._current.version

    @property
    def num_queries(self) -> int:
        return self._current.num_queries

    @property
    def num_services(self) -> int:
        return self._current.num_services

    @property
    def embedding_dim(self) -> int:
        return self._current.embedding_dim

    @classmethod
    def restore(cls, durable_dir: str, version: Optional[int] = None,
                verify: bool = True,
                clock: Callable[[], float] = time.monotonic,
                remote: Optional[Tuple[str, int]] = None) -> "VersionedEmbeddingStore":
        """Warm-start a store from an on-disk snapshot directory.

        The fp tables and int8 codes/scales are served straight off the
        mmapped chunks — nothing is re-quantized, which (with the IVF-PQ
        sidecar a gateway restores) is what makes a warm boot orders of
        magnitude faster than reconstructing the store from raw embeddings.
        Damaged or missing data raises a typed
        :class:`~repro.serving.snapshot.SnapshotError`; callers that hold
        the raw embeddings fall back to an in-memory rebuild.

        ``remote`` pulls the peer's snapshot into ``durable_dir`` over the
        wire before opening it (see
        :mod:`repro.serving.snapshot.transport`), which is how a host with
        *no local snapshot at all* boots: an empty directory plus a peer
        address restores to a bit-identical store.

        The restored store keeps ``durable_dir`` configured, so subsequent
        publishes continue the on-disk version history (delta-writing only
        changed chunks).
        """
        from repro.serving import snapshot as snapshot_io

        if remote is not None:
            snapshot_io.SnapshotFetcher(remote, durable_dir).fetch(version)
        durable = snapshot_io.open_snapshot(durable_dir, version=version,
                                            verify=verify)
        meta = durable.meta
        store = cls.__new__(cls)
        store.num_shards = max(1, len(durable.shard_bounds) - 1)
        store.dtype = np.dtype(str(meta.get("dtype", "<f4")))
        # Not meta["quantization"]: an older manifest lists retired kinds.
        store.quantization = ("int8",) if durable.has_section("int8") else ()
        store._clock = clock
        store._lock = threading.Lock()
        store._listeners = []
        store.durable_dir = str(durable_dir)
        store.durable_rows_per_chunk = meta.get("rows_per_chunk")
        keep_last = meta.get("keep_last")
        store.keep_last = int(keep_last) if keep_last is not None else None
        store._current = durable.to_snapshot(published_at=clock())
        return store

    @classmethod
    def from_model(cls, model, num_shards: int = 1, version: int = 0,
                   dtype: np.dtype = np.float32,
                   quantization: Sequence[str] = (),
                   clock: Callable[[], float] = time.monotonic,
                   durable_dir: Optional[str] = None,
                   durable_rows_per_chunk: Optional[int] = None,
                   keep_last: Optional[int] = None) -> "VersionedEmbeddingStore":
        return cls(model.query_embeddings(), model.service_embeddings(),
                   num_shards=num_shards, version=version, dtype=dtype,
                   quantization=quantization, clock=clock,
                   durable_dir=durable_dir,
                   durable_rows_per_chunk=durable_rows_per_chunk,
                   keep_last=keep_last)
