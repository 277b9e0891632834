"""Versioned, shard-aware embedding store with atomic hot-swap.

The production platform (Sec. V-F / Fig. 9) refreshes the exported query and
service embeddings once per day while serving traffic continuously.  The
seed :class:`~repro.serving.embedding_store.EmbeddingStore` mutates its
arrays in place on refresh, which a concurrent reader can observe as a
*torn* read — queries from version ``v`` scored against services from
``v+1``.  This store fixes that:

* every publish builds an immutable :class:`EmbeddingSnapshot` (arrays are
  marked read-only) and swaps a single reference under a lock, so readers
  always see a fully consistent ``(queries, services, version)`` triple;
* service embeddings are split into contiguous shards, the layout a
  multi-process serving tier would use; lookups route ids to shards;
* stale-read protection: each snapshot records its publish time and
  :meth:`VersionedEmbeddingStore.snapshot` can reject snapshots older than
  a staleness budget (the "embeddings must be at most a day old" contract);
* the snapshot dtype is configurable (``float32`` by default — half the
  seed's ``float64`` resident size with no measurable recall impact), and
  the store can additionally publish **quantized service tables** (int8 /
  product-quantized, :mod:`repro.serving.quant`) alongside the fp arrays:
  compressed replicas are built *inside* the snapshot, so they hot-swap
  atomically with the embeddings they mirror and stay row-aligned with the
  shard layout;
* **two-phase publish**: subscribed :class:`SnapshotListener`\\ s (the
  gateway's index builder, the sharded tier's worker pool) get
  ``prepare(snapshot)`` *before* the version flip and ``activate(snapshot)``
  after it.  Every consumer has the new version's search structures ready
  by the time any reader can observe the new version, so a query routed at
  snapshot ``v`` can always be answered entirely at ``v`` — across every
  shard worker — and no request ever sees a mixed-version pairing.

The store is duck-compatible with the seed ``EmbeddingStore`` (``query`` /
``service`` / ``all_services`` / ``refresh`` / ``version``), so the existing
retrievers and :class:`~repro.serving.pipeline.ServingPipeline` work on it
unchanged.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.serving.quant import QUANTIZER_KINDS, quantize_table


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

    ``quantized`` maps a quantizer kind (``"int8"`` / ``"pq"`` / ``"opq"``)
    to the compressed service table built from exactly this version's ``services``
    matrix — row-aligned with it, so shard ranges and service ids carry
    over unchanged.

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
    quantized: Mapping[str, object] = field(default_factory=dict)
    # Durable location of this version on disk (snapshot.DurableRef), set
    # when the store publishes with a ``durable_dir``.  A gateway saves and
    # restores its trained index payload (IVF-PQ) beside the manifest
    # through it.
    durable: Optional[object] = None
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _derived_lock: threading.Lock = field(default_factory=threading.Lock,
                                          init=False, repr=False, compare=False)

    def derived(self, key: Hashable,
                build: Callable[["EmbeddingSnapshot"], object]) -> object:
        """``build(self)``, computed at most once per ``key`` (single flight).

        A hit is one dict lookup and takes no lock, so a reader of this
        version never waits on anyone.  Only a miss takes this snapshot's
        own lock: concurrent first callers of one key wait for a single
        build instead of each running their own, and nobody holding another
        version's snapshot is involved.  A ``build`` that raises stores
        nothing.  The value must be safe to share — read-only once built.
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

    def quantized_services(self, kind: str):
        """The compressed service table of one published quantizer kind."""
        try:
            return self.quantized[kind]
        except KeyError:
            published = ", ".join(sorted(self.quantized)) or "none"
            raise KeyError(
                f"no {kind!r} table published with snapshot v{self.version} "
                f"(published: {published})"
            ) from None

    def shard_of(self, service_id: int) -> int:
        """Shard index owning ``service_id`` (contiguous range layout)."""
        if not 0 <= service_id < self.num_services:
            raise IndexError(f"service id {service_id} out of range")
        return int(np.searchsorted(self.shard_bounds, service_id, side="right") - 1)

    def shard(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(service_ids, embeddings)`` of one shard (views, zero copy)."""
        lo, hi = self.shard_bounds[index], self.shard_bounds[index + 1]
        return np.arange(lo, hi, dtype=np.int64), self.services[lo:hi]

    def quantized_shard(self, kind: str, index: int):
        """``(service_ids, quantized table view)`` of one shard.

        The compressed tables are row-aligned with ``services``, so a shard
        of codes is the same contiguous row range (zero copy) — what a
        sharded tier would ship to the worker owning that range.
        """
        lo, hi = self.shard_bounds[index], self.shard_bounds[index + 1]
        table = self.quantized_services(kind)
        return np.arange(lo, hi, dtype=np.int64), table.rows(lo, hi)

    def age(self, now: float) -> float:
        return max(0.0, now - self.published_at)


class VersionedEmbeddingStore:
    """Thread-safe store of embedding snapshots with atomic publish.

    ``dtype`` sets the fp snapshot precision (default ``float32``).
    ``quantization`` names the compressed service tables to publish with
    every snapshot (any of ``"int8"`` / ``"pq"`` / ``"opq"``), with
    per-kind parameters in ``quantization_params`` (e.g. ``{"opq":
    {"num_subspaces": 8}}``).  Published int8 tables freeze the global
    query-quantization step from the snapshot's query table, so the
    end-to-end integer scoring path ranks bit-identically on every replica.

    ``keep_last=N`` (with a ``durable_dir``) bounds on-disk retention:
    after each durable publish activates, :func:`~repro.serving.snapshot.
    prune` garbage-collects manifests and chunks beyond the newest ``N``
    versions.
    """

    def __init__(self, query_embeddings: np.ndarray, service_embeddings: np.ndarray,
                 num_shards: int = 1, version: int = 0,
                 dtype: np.dtype = np.float32,
                 quantization: Sequence[str] = (),
                 quantization_params: Optional[Mapping[str, Mapping]] = None,
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
            if kind not in QUANTIZER_KINDS:
                known = ", ".join(QUANTIZER_KINDS)
                raise ValueError(f"unknown quantization kind {kind!r} (known: {known})")
        self.quantization_params = {
            kind: dict(params)
            for kind, params in (quantization_params or {}).items()
        }
        unused = set(self.quantization_params) - set(self.quantization)
        if unused:
            raise ValueError(
                f"quantization_params for kinds not being published: "
                f"{sorted(unused)} (quantization={self.quantization})"
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
        quantized = {}
        for kind in self.quantization:
            params = dict(self.quantization_params.get(kind, {}))
            if kind == "int8":
                # Freeze the global query-quantization step into the table:
                # every replica hydrating this version then scores the
                # integer path with the same step (bit-identical ranking).
                params.setdefault("queries", queries)
            quantized[kind] = quantize_table(kind, services, **params)
        return EmbeddingSnapshot(
            version=version,
            published_at=self._clock(),
            queries=queries,
            services=services,
            shard_bounds=bounds,
            quantized=quantized,
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
                "quantization": list(self.quantization),
                "quantization_params": self.quantization_params,
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
            snapshot_io.fetch_snapshot(remote, root)
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

    # Seed-store duck compatibility.
    refresh = publish

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

    def query(self, query_ids: Sequence[int]) -> np.ndarray:
        return self._current.query(query_ids)

    def service(self, service_ids: Sequence[int]) -> np.ndarray:
        return self._current.service(service_ids)

    def all_services(self) -> np.ndarray:
        return self._current.all_services()

    def quantized_services(self, kind: str):
        return self._current.quantized_services(kind)

    @classmethod
    def restore(cls, durable_dir: str, version: Optional[int] = None,
                verify: bool = True,
                clock: Callable[[], float] = time.monotonic,
                remote: Optional[Tuple[str, int]] = None) -> "VersionedEmbeddingStore":
        """Warm-start a store from an on-disk snapshot directory.

        The fp tables, int8 codes/scales, and PQ codes/codebooks are served
        straight off the mmapped chunks — nothing is re-quantized and no
        codebook is re-trained, which is what makes a warm boot orders of
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
            snapshot_io.fetch_snapshot(remote, durable_dir, version=version)
        durable = snapshot_io.open_snapshot(durable_dir, version=version,
                                            verify=verify)
        meta = durable.meta
        store = cls.__new__(cls)
        store.num_shards = max(1, len(durable.shard_bounds) - 1)
        store.dtype = np.dtype(str(meta.get("dtype", "<f4")))
        store.quantization = tuple(meta.get("quantization", ()))
        store.quantization_params = {
            kind: dict(params)
            for kind, params in (meta.get("quantization_params") or {}).items()
        }
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
                   quantization_params: Optional[Mapping[str, Mapping]] = None,
                   clock: Callable[[], float] = time.monotonic,
                   durable_dir: Optional[str] = None,
                   durable_rows_per_chunk: Optional[int] = None,
                   keep_last: Optional[int] = None) -> "VersionedEmbeddingStore":
        return cls(model.query_embeddings(), model.service_embeddings(),
                   num_shards=num_shards, version=version, dtype=dtype,
                   quantization=quantization,
                   quantization_params=quantization_params, clock=clock,
                   durable_dir=durable_dir,
                   durable_rows_per_chunk=durable_rows_per_chunk,
                   keep_last=keep_last)
