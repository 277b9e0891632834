"""Tests for the sharded serving tier: scatter/gather merging, worker
lifecycle, two-phase hot-swap atomicity, per-shard telemetry and the
process-pool backend."""

import asyncio
import concurrent.futures
import dataclasses
import gc
import multiprocessing
import os
import pathlib
import signal
import sys
import threading
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.serving.gateway import (
    ExactIndex,
    ServingGateway,
    SnapshotListener,
    StaleVersionError,
    VersionedEmbeddingStore,
    clustered_embeddings,
    deploy_gateway,
)
from repro.serving.sharded import (
    ProcessPool,
    SerialPool,
    ShardedGateway,
    ShardWorker,
    ThreadPool,
    make_pool,
    merge_top_k,
    resolve_workers,
    shard_candidate_counts,
)

NUM_QUERIES, NUM_SERVICES, DIM = 400, 3000, 32


@pytest.fixture(autouse=True)
def no_leaked_workers_or_fds():
    """Every test leaves no worker process and no open fd behind: a
    superseded worker set that is never stopped, or a pipe that is never
    closed, fails the test that leaked it.  The count is taken once earlier
    tests' garbage is collected and the spawn start method's resource
    tracker (one fd for the life of the process) is running."""
    gc.collect()
    resource_tracker.ensure_running()
    fds = len(os.listdir("/proc/self/fd"))
    yield
    assert multiprocessing.active_children() == []
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.fixture(scope="module")
def clustered():
    return clustered_embeddings(
        NUM_QUERIES, NUM_SERVICES, DIM, num_clusters=12, spread=0.18, seed=3
    )


@pytest.fixture(scope="module")
def quantized_store(clustered):
    queries, services = clustered
    return VersionedEmbeddingStore(
        queries, services, num_shards=4, quantization=("int8",)
    )


@pytest.fixture(scope="module")
def small():
    """The process-pool tests' catalogue: small enough to pickle per test."""
    return clustered_embeddings(80, 600, 16, num_clusters=6, spread=0.2, seed=5)


def single_gateway(clustered, index, **kwargs):
    queries, services = clustered
    store = VersionedEmbeddingStore(queries, services, num_shards=1,
                                    quantization=("int8",))
    return ServingGateway(store, index=index, cache_capacity=0, **kwargs)


def sharded_gateway(clustered, index, workers="serial", num_shards=4, **kwargs):
    queries, services = clustered
    store = VersionedEmbeddingStore(queries, services, num_shards=num_shards,
                                    quantization=("int8",))
    return ShardedGateway(store, index=index, workers=workers,
                          cache_capacity=0, **kwargs)


# --------------------------------------------------------------------- #
# Exact k-way merge
# --------------------------------------------------------------------- #
class TestMergeTopK:
    def test_merge_equals_single_index_top_k(self, clustered, rng):
        queries, services = clustered
        index = ExactIndex().build(services)
        expected_ids, expected_scores = index.search(queries[:16], 10)
        bounds = [0, 700, 1500, 2100, NUM_SERVICES]
        shard_ids, shard_scores = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            ids, scores = ExactIndex().build(services[lo:hi]).search(queries[:16], 10)
            shard_ids.append(np.where(ids >= 0, ids + lo, ids))
            shard_scores.append(scores)
        merged_ids, merged_scores = merge_top_k(shard_ids, shard_scores, 10)
        assert np.array_equal(merged_ids, expected_ids)
        assert np.allclose(merged_scores, expected_scores)

    def test_ties_break_by_ascending_id(self):
        ids = [np.array([[5, 3]]), np.array([[1, 9]])]
        scores = [np.array([[2.0, 1.0]]), np.array([[2.0, 1.0]])]
        merged_ids, _ = merge_top_k(ids, scores, 4)
        assert merged_ids.tolist() == [[1, 5, 3, 9]]

    def test_padding_when_k_exceeds_candidates(self):
        ids = [np.array([[4, -1]]), np.array([[7, -1]])]
        scores = [np.array([[1.0, -np.inf]]), np.array([[3.0, -np.inf]])]
        merged_ids, merged_scores = merge_top_k(ids, scores, 5)
        assert merged_ids.tolist() == [[7, 4, -1, -1, -1]]
        assert merged_scores[0, 2] == -np.inf

    def test_candidate_counts_ignore_padding(self):
        ids = [np.array([[4, -1]]), np.array([[7, 8]])]
        assert shard_candidate_counts(ids) == [1, 2]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            merge_top_k([], [], 5)
        with pytest.raises(ValueError):
            merge_top_k([np.zeros((1, 2))], [np.zeros((1, 2))], 0)


# --------------------------------------------------------------------- #
# Shard worker lifecycle
# --------------------------------------------------------------------- #
class TestShardWorker:
    def test_search_maps_global_ids(self, clustered):
        queries, services = clustered
        worker = ShardWorker(1, 0, services[1000:2000], lo=1000, index="exact")
        ids, scores = worker.search(queries[:4], 5)
        assert np.all((ids >= 1000) & (ids < 2000))
        expected, _ = ExactIndex().build(services[1000:2000]).search(queries[:4], 5)
        assert np.array_equal(ids, expected + 1000)

    def test_unknown_version_raises(self, quantized_store):
        """A version with no resident worker set is a stale-version miss."""
        snapshot = dataclasses.replace(quantized_store.snapshot(), version=3)
        pool = SerialPool(4, index="exact")
        pool.prepare(snapshot)
        pool.activate(snapshot)
        with pytest.raises(StaleVersionError, match="version 7"):
            asyncio.run(pool.search_async(7, snapshot.queries[:2], 5))

    def test_activate_keeps_predecessor_only(self, quantized_store):
        pool = SerialPool(4, index="exact")
        for version in (1, 2, 3):
            snapshot = dataclasses.replace(quantized_store.snapshot(), version=version)
            pool.prepare(snapshot)
            pool.activate(snapshot)
        assert sorted(pool._sets) == [2, 3]
        with pytest.raises(KeyError):
            pool.activate(dataclasses.replace(snapshot, version=9))
        assert sorted(pool._sets) == [2, 3]

    def test_retire_drops_version(self, quantized_store):
        snapshot = quantized_store.snapshot()
        pool = SerialPool(4, index="exact")
        pool.prepare(snapshot)
        pool.activate(snapshot)
        pool.prepare(dataclasses.replace(snapshot, version=5))
        pool.retire(5)
        assert sorted(pool._sets) == [snapshot.version]

    def test_prepare_snapshot_owns_published_tables(self, quantized_store):
        """The one handoff: a worker built from the snapshot's own shard
        views serves that row range with the published int8 rows intact."""
        snapshot = quantized_store.snapshot()
        ids, services = snapshot.shard(2)
        _, int8_rows = snapshot.quantized_shard("int8", 2)
        worker = ShardWorker(2, snapshot.version, services, int(ids[0]),
                             int8_table=int8_rows, index="int8")
        lo, hi = snapshot.shard_bounds[2], snapshot.shard_bounds[3]
        assert worker.version == snapshot.version
        assert worker.lo == lo and worker.hi == hi
        assert worker.index.table.num_vectors == hi - lo
        published = snapshot.quantized["int8"]
        assert published.query_scale is not None
        assert worker.index.table.query_scale == published.query_scale
        assert np.array_equal(worker.index.table.scales, published.scales)
        found, _ = worker.search(snapshot.queries[:4], 5)
        assert np.all((found >= lo) & (found < hi))


# --------------------------------------------------------------------- #
# Scatter/gather parity with the single-process gateway
# --------------------------------------------------------------------- #
class TestScatterGatherParity:
    @pytest.mark.parametrize("index", ["exact", "int8"])
    def test_exact_scoring_matches_single_process(self, clustered, index):
        single = single_gateway(clustered, index)
        sharded = sharded_gateway(clustered, index, workers="serial")
        query_ids = list(range(0, 120))
        assert sharded.rank_batch(query_ids, 10) == single.rank_batch(query_ids, 10)
        sharded.close()
        single.close()

    def test_thread_backend_matches_serial(self, clustered):
        serial = sharded_gateway(clustered, "exact", workers="serial")
        threaded = sharded_gateway(clustered, "exact", workers="thread")
        query_ids = list(range(64))
        assert serial.rank_batch(query_ids, 10) == threaded.rank_batch(query_ids, 10)
        serial.close()
        threaded.close()

    def test_exact_recall_probe_is_one(self, clustered):
        sharded = sharded_gateway(clustered, "exact", workers="serial")
        assert sharded.recall_probe(k=10, num_queries=128, seed=1) == 1.0
        sharded.close()

    def test_ivfpq_sharded_recall_floor(self, quantized_store):
        gateway = ShardedGateway(quantized_store, index="ivfpq",
                                 workers="serial", cache_capacity=0)
        assert gateway.recall_probe(k=10, num_queries=256, seed=2) >= 0.9
        gateway.close()

    def test_ivf_sharded_recall_floor(self, clustered):
        sharded = sharded_gateway(clustered, "ivf", workers="serial")
        assert sharded.recall_probe(k=10, num_queries=256, seed=2) >= 0.85
        sharded.close()

    def test_sharded_gateway_requires_shards(self, clustered):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services, num_shards=1)
        with pytest.raises(ValueError, match="at least 2 shards"):
            ShardedGateway(store, index="exact", workers="serial")

    def test_resolve_workers(self):
        assert resolve_workers("serial") == "serial"
        assert resolve_workers("auto") in ("thread", "process")
        with pytest.raises(ValueError):
            resolve_workers("gpu")
        with pytest.raises(ValueError):
            make_pool("nope", 2)


# --------------------------------------------------------------------- #
# Two-phase hot-swap atomicity
# --------------------------------------------------------------------- #
class RecordingListener(SnapshotListener):
    """Observes listener callbacks and the store version they ran at."""

    def __init__(self, store):
        self.store = store
        self.events = []

    def prepare(self, snapshot):
        # During prepare the *old* version must still be current.
        self.events.append(("prepare", snapshot.version, self.store.version))

    def activate(self, snapshot):
        self.events.append(("activate", snapshot.version, self.store.version))

    def retire(self, version):
        self.events.append(("retire", version, self.store.version))


class ExplodingListener(SnapshotListener):
    """Subscribes cleanly, then fails every later prepare (publish path)."""

    def prepare(self, snapshot):
        if snapshot.version > 0:
            raise RuntimeError("prepare failed on purpose")


class TestTwoPhaseHotSwap:
    def test_prepare_runs_before_flip_activate_after(self, rng):
        queries = rng.normal(size=(20, 8))
        services = rng.normal(size=(50, 8))
        store = VersionedEmbeddingStore(queries, services, num_shards=2)
        listener = RecordingListener(store)
        store.subscribe(listener)
        assert listener.events == [("prepare", 0, 0), ("activate", 0, 0)]
        store.publish(queries * 2, services * 2)
        assert listener.events[2:] == [("prepare", 1, 0), ("activate", 1, 1)]

    def test_failed_prepare_aborts_publish(self, rng):
        queries = rng.normal(size=(20, 8))
        services = rng.normal(size=(50, 8))
        store = VersionedEmbeddingStore(queries, services, num_shards=2)
        recorder = RecordingListener(store)
        store.subscribe(recorder)
        store.subscribe(ExplodingListener())
        with pytest.raises(RuntimeError, match="on purpose"):
            store.publish(queries * 2, services * 2)
        # The flip never happened and the prepared listener retired v1.
        assert store.version == 0
        assert recorder.events[-1] == ("retire", 1, 0)
        # The store still serves and can publish once the bad listener left.
        store.unsubscribe(recorder)

    def test_workers_never_serve_mixed_versions(self, clustered):
        """Concurrent publishes + reads: every batch is answered at exactly
        one version and matches that version's exact ranking."""
        queries, services = clustered
        store = VersionedEmbeddingStore(queries[:100], services[:800], num_shards=4)
        gateway = ShardedGateway(store, index="exact", workers="thread",
                                 cache_capacity=0)
        expected = {}
        for version in (0, 1, 2, 3):
            scale = 1.0 + version / 10.0
            with ServingGateway(
                    VersionedEmbeddingStore(queries[:100] * scale,
                                            services[:800] * scale, num_shards=1),
                    index="exact", cache_capacity=0) as reference:
                expected[version] = reference.rank_batch(range(32), 10)
        errors = []

        def publisher():
            try:
                for version in (1, 2, 3):
                    scale = 1.0 + version / 10.0
                    gateway.hot_swap(queries[:100] * scale, services[:800] * scale)
            except BaseException as error:  # pragma: no cover - fail loudly
                errors.append(error)

        def reader():
            try:
                for _ in range(12):
                    ranked = gateway.rank_batch(range(32), 10)
                    assert ranked in expected.values(), "mixed-version ranking"
            except BaseException as error:
                errors.append(error)

        threads = [threading.Thread(target=publisher)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        gateway.close()
        assert errors == []

    def test_predecessor_version_stays_searchable(self, clustered):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services, num_shards=4)
        gateway = ShardedGateway(store, index="exact", workers="serial",
                                 cache_capacity=0)
        old_snapshot = store.snapshot()
        gateway.hot_swap(queries * 1.5, services * 1.5)
        # A request that pinned the pre-flip snapshot still gets answers.
        ids, scores = asyncio.run(
            gateway._search_backend_async(old_snapshot, queries[:4], 10))
        expected, _ = ExactIndex().build(services).search(queries[:4], 10)
        assert np.array_equal(ids, expected)
        gateway.close()

    def test_mixed_version_gather_fails_loudly(self, clustered):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services, num_shards=4)
        gateway = ShardedGateway(store, index="exact", workers="serial",
                                 cache_capacity=0)
        stale = store.snapshot()
        gateway.hot_swap(queries * 1.5, services * 1.5)
        gateway.hot_swap(queries * 2.0, services * 2.0)  # v0 retired everywhere
        with pytest.raises(Exception, match="version"):
            asyncio.run(gateway._search_backend_async(stale, queries[:2], 5))
        gateway.close()

    @pytest.mark.parametrize("workers", ["serial", "process"])
    def test_failed_prepare_leaves_nothing_behind(self, small, monkeypatch, workers):
        """One shard's build fails: the publish raises, the pool keeps
        exactly the old version's set, no child of the new set survives, and
        the old version still answers (regression: shards built before the
        failure kept the dead version resident)."""
        from repro.serving.gateway import index as index_module

        queries, services = small
        store = VersionedEmbeddingStore(queries, services, num_shards=2)
        _, shard_one = store.snapshot().shard(1)
        monkeypatch.setitem(index_module._INDEX_REGISTRY, _ShardOneFailsIndex.name,
                            _ShardOneFailsIndex)
        monkeypatch.setattr(_ShardOneFailsIndex, "marker", -shard_one[0])
        gateway = ShardedGateway(store, index=_ShardOneFailsIndex.name,
                                 workers=workers, cache_capacity=0)
        try:
            children = {child.pid for child in multiprocessing.active_children()}
            with pytest.raises(RuntimeError, match="on purpose"):
                store.publish(queries, -services)
            assert store.version == 0
            assert sorted(gateway.pool._sets) == [0]
            alive = {child.pid for child in multiprocessing.active_children()}
            assert alive == children
            oracle, _ = ExactIndex().build(services).search(queries[:20], 5)
            assert gateway.rank_batch(range(20), 5) == oracle.tolist()
        finally:
            gateway.close()


class _ShardOneFailsIndex(ExactIndex):
    """Exact scan whose build fails when its first row is the marker (the
    first row of shard 1 in the next version)."""

    name = "shard-one-fails"
    marker = None

    def build(self, services):
        if np.array_equal(services[0], self.marker):
            raise RuntimeError("shard 1 build failed on purpose")
        return super().build(services)


# --------------------------------------------------------------------- #
# Process pool backend
# --------------------------------------------------------------------- #
class TestProcessPool:
    def test_process_matches_serial_and_survives_hot_swap(self, small):
        queries, services = small
        results = {}
        for workers in ("serial", "process"):
            store = VersionedEmbeddingStore(queries, services, num_shards=3,
                                            quantization=("int8",))
            gateway = ShardedGateway(store, index="exact", workers=workers,
                                     cache_capacity=0)
            before = gateway.rank_batch(range(40), 10)
            gateway.hot_swap(queries * 1.2, services * 1.2)
            after = gateway.rank_batch(range(40), 10)
            assert gateway.store.version == 1
            results[workers] = (before, after)
            gateway.close()
        assert results["process"] == results["serial"]

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    @pytest.mark.parametrize("index", ["int8", "ivfpq"])
    def test_process_matches_serial_bit_for_bit_on_quantized_indexes(
            self, small, tmp_path, index, durable):
        """The published int8 rows (global ``scales`` AND the frozen
        ``query_scale``) must reach a process worker exactly as they reach
        an in-process one, whichever store published them (regression: the
        shared-memory handoff dropped ``query_scale``, so the in-memory
        ``int8`` cell ranked differently per backend)."""
        queries, services = small

        def search_all(gateway):
            async def scenario():
                found = await asyncio.gather(
                    *(gateway.search_async(q, 10) for q in range(len(queries))))
                await gateway.stop_async()
                return found
            return asyncio.run(scenario())

        results = {}
        for workers in ("serial", "process"):
            store = VersionedEmbeddingStore(
                queries, services, num_shards=3, quantization=("int8",),
                durable_dir=str(tmp_path / workers) if durable else None)
            gateway = ShardedGateway(store, index=index, workers=workers,
                                     cache_capacity=0)
            try:
                before = search_all(gateway)
                gateway.hot_swap(queries * 1.2, services * 1.2)
                results[workers] = before + search_all(gateway)
            finally:
                gateway.close()
        assert len(results["serial"]) == 2 * len(queries)
        for (ids, scores), (want_ids, want_scores) in zip(
                results["process"], results["serial"]):
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(scores, want_scores)

    def test_worker_error_propagates(self, small):
        queries, services = small
        store = VersionedEmbeddingStore(queries, services, num_shards=2)
        pool = ProcessPool(2, index="exact", timeout_s=30.0)
        pool.prepare(store.snapshot())
        pool.activate(store.snapshot())
        # A never-prepared version is a stale-version miss on every worker —
        # and must not desynchronise the reply pipes for later commands.
        with pytest.raises(StaleVersionError, match="version 99"):
            asyncio.run(pool.search_async(99, queries[:2], 5))
        replies = asyncio.run(pool.search_async(0, queries[:2], 5))
        assert [reply.version for reply in replies] == [0, 0]
        pool.close()
        pool.close()  # idempotent

    # A failed ``Connection.send`` leaves its pickle buffer (a BytesIO and the
    # memoryview exporting it) in the error's traceback; collected as cyclic
    # garbage they may finalize in the wrong order, which CPython reports as
    # an unraisable BufferError.  Collect it here, where it is expected.
    @pytest.mark.filterwarnings(
        "ignore:Exception ignored in. <_io.BytesIO:pytest.PytestUnraisableExceptionWarning")
    def test_killed_worker_is_a_typed_error_and_close_still_returns(self, small):
        """A worker process dying is named, not a bare ``BrokenPipeError``:
        searches fail at once with the shard's number until the next publish
        replaces the broken set, and ``close()`` reaps the rest."""
        queries, services = small
        store = VersionedEmbeddingStore(queries, services, num_shards=2)
        gateway = ShardedGateway(store, index="exact", workers="process",
                                 cache_capacity=0, search_timeout_s=30.0)
        try:
            assert len(gateway.rank(0, 5)) == 5
            victim = gateway.pool._sets[0].processes[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()  # its death is observed, not slept for
            # "is gone", not "did not reply within": the typed path, not
            # the timeout, is what failed the request.
            for _ in range(2):
                with pytest.raises(RuntimeError, match="shard worker 1 is gone"):
                    gateway.rank(1, 5)
            assert store.version == 0
            gateway.hot_swap(queries * 1.1, services * 1.1)
            assert len(gateway.rank(1, 5)) == 5
            assert len(multiprocessing.active_children()) == 2
        finally:
            gateway.close()
        gc.collect()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the store lowers its refresh thread on Linux only")
    def test_a_publish_forks_workers_at_the_pool_owners_priority(self, small):
        """A publish forks the new set from the store's refresh thread, which
        runs at the lowest priority; its workers serve at the priority of the
        thread that built the pool wherever the host lets a process raise its
        own priority back (elsewhere they keep the inherited one)."""
        mine = os.getpriority(os.PRIO_PROCESS, 0)

        def can_raise_back():
            os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)
            try:
                os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), mine)
                return True
            except OSError:
                return False

        with concurrent.futures.ThreadPoolExecutor(1) as probe:
            expected = mine if probe.submit(can_raise_back).result() else 19
        queries, services = small
        store = VersionedEmbeddingStore(queries, services, num_shards=2)
        gateway = ShardedGateway(store, index="exact", workers="process",
                                 cache_capacity=0)
        try:
            store.publish(queries * 1.1, services * 1.1)
            assert len(gateway.rank(0, 5)) == 5  # the first scatter at v1
            workers = gateway.pool._sets[1].processes
            assert [os.getpriority(os.PRIO_PROCESS, worker.pid)
                    for worker in workers] == [expected] * 2
        finally:
            gateway.close()

    def test_process_pool_leaves_no_segments_children_or_shm_import(self, small):
        """Boot -> publish -> close leaves ``/dev/shm`` and the child set as
        found, and the serving tree cannot leak a segment by construction:
        nothing in it imports ``multiprocessing.shared_memory``."""
        shm = pathlib.Path("/dev/shm")

        def segments():
            return set(os.listdir(shm)) if shm.is_dir() else set()

        queries, services = small
        segments_before = segments()
        children_before = multiprocessing.active_children()
        store = VersionedEmbeddingStore(queries, services, num_shards=3,
                                        quantization=("int8",))
        gateway = ShardedGateway(store, index="int8", workers="process",
                                 cache_capacity=0)
        assert len(multiprocessing.active_children()) == len(children_before) + 3
        gateway.hot_swap(queries * 1.2, services * 1.2)
        assert len(gateway.rank(0, 5)) == 5
        gateway.close()
        assert segments() - segments_before == set()
        assert multiprocessing.active_children() == children_before

        import repro.serving

        serving_root = pathlib.Path(repro.serving.__file__).parent
        assert [
            str(path) for path in sorted(serving_root.rglob("*.py"))
            if "shared_memory" in path.read_text()
        ] == []

    def test_pool_factory_kinds(self):
        assert isinstance(make_pool("serial", 2), SerialPool)
        pool = make_pool("thread", 2)
        assert isinstance(pool, ThreadPool)
        pool.close()

    def test_spawn_fallback_matches_serial_on_int8(self, small, monkeypatch):
        """Where fork is unavailable the pool spawns its workers, and the
        same arguments reach them pickled: ids and scores equal the serial
        pool's."""
        get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        queries, services = small
        snapshot = VersionedEmbeddingStore(queries, services[:200], num_shards=2,
                                           quantization=("int8",)).snapshot()
        pool = ProcessPool(2, index="int8")
        serial = SerialPool(2, index="int8")
        try:
            assert pool._context.get_start_method() == "spawn"
            replies = []
            for each in (pool, serial):
                each.prepare(snapshot)
                each.activate(snapshot)
                replies.append(asyncio.run(each.search_async(0, queries[:16], 5)))
        finally:
            pool.close()
        for got, want in zip(*replies):
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.scores, want.scores)

    def test_concurrent_producers_and_swaps_on_process_backend(self, small):
        """Pipe I/O must stay paired while producer tasks on one loop
        dispatch batches and a publisher *thread* runs the two-phase flip
        (regression: interleaved sends/recvs handed searches the prepare
        replies)."""
        import time

        queries, services = small
        store = VersionedEmbeddingStore(queries, services, num_shards=3,
                                        quantization=("int8",))
        gateway = ShardedGateway(store, index="exact", workers="process",
                                 max_batch_size=16, max_wait_s=0.002,
                                 cache_capacity=128)
        errors, answered = [], []

        async def producer(offset):
            for query_id in range(offset, 60, 3):
                ids, _ = await gateway.search_async(query_id, 5)
                assert len(ids) == 5
                answered.append(query_id)

        def swapper():
            try:
                for version in (1, 2):
                    time.sleep(0.02)
                    gateway.hot_swap(queries * (1 + version / 10),
                                     services * (1 + version / 10))
            except BaseException as error:
                errors.append(error)

        async def scenario():
            publisher = threading.Thread(target=swapper)
            publisher.start()
            await asyncio.gather(*(producer(i) for i in range(3)))
            while publisher.is_alive():
                await asyncio.sleep(0.005)
            publisher.join()
            await gateway.stop_async()

        asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
        assert errors == []
        assert len(answered) == 60
        assert store.version == 2
        assert gateway.recall_probe(k=5, num_queries=64, seed=3) == 1.0
        gateway.close()


class _GatedExactIndex(ExactIndex):
    """Exact scan whose worker parks on a fork-inherited event when the
    batch starts with the marker query — unless its table cannot score the
    batch at all (wrong width), in which case it fails at once."""

    name = "gated-exact"
    gate = None
    marker = None

    def search(self, queries, k):
        if (np.array_equal(queries[0], self.marker)
                and queries.shape[1] == self._services.shape[1]):
            self.gate.wait(30.0)
        return super().search(queries, k)


class _ParkedBuildIndex(ExactIndex):
    """Exact scan whose build, when its first row is the marker (the next
    version's first row), says so and parks on a fork-inherited event."""

    name = "parked-build-exact"
    gate = None
    entered = None
    marker = None

    def build(self, services):
        if np.array_equal(services[0], self.marker):
            self.entered.set()
            self.gate.wait(30.0)
        return super().build(services)


class TestProcessPoolScatter:
    """The request half of ``ProcessPool``: a scatter stays on the loop,
    drains what it is owed, and never answers with another cycle's reply."""

    @pytest.fixture()
    def snapshot(self, small):
        queries, services = small
        return VersionedEmbeddingStore(queries, services, num_shards=2).snapshot()

    @pytest.fixture()
    def pools(self, small, snapshot, monkeypatch):
        """(process pool over the gated index, serial reference pool)."""
        from repro.serving.gateway import index as index_module

        queries, _ = small
        monkeypatch.setitem(index_module._INDEX_REGISTRY, _GatedExactIndex.name,
                            _GatedExactIndex)
        monkeypatch.setattr(_GatedExactIndex, "gate",
                            multiprocessing.get_context("fork").Event())
        monkeypatch.setattr(_GatedExactIndex, "marker", queries[0])
        pool = ProcessPool(2, index=_GatedExactIndex.name, timeout_s=30.0)
        serial = SerialPool(2, index="exact")
        try:
            for each in (pool, serial):
                each.prepare(snapshot)
                each.activate(snapshot)
            yield pool, serial
        finally:
            _GatedExactIndex.gate.set()  # never leave a worker parked
            pool.close()

    @staticmethod
    def answers(replies):
        return [(reply.shard, reply.version, reply.ids.tolist(), reply.scores.tolist())
                for reply in replies]

    def expected(self, serial, queries):
        return self.answers(asyncio.run(serial.search_async(0, queries, 3)))

    def test_timed_out_scatter_does_not_answer_the_next_one(self, small, pools):
        """A reply that arrives after its cycle timed out is dropped by its
        cycle number, not returned as the next cycle's answer (regression:
        same version, well-formed, wrong query — nothing downstream could
        tell).  The timeout costs exactly one failed batch."""
        queries, _ = small
        pool, serial = pools
        pool.timeout_s = 0.2
        with pytest.raises(RuntimeError, match="did not reply within") as raised:
            asyncio.run(pool.search_async(0, queries[:2], 3))
        pool.timeout_s = 30.0
        # Release the parked workers only once the next scatter is on the
        # pipes, so their late replies are queued ahead of its answers.
        workers = pool._sets[0]
        send, sends = workers.send, []

        def send_then_release(shard, message):
            send(shard, message)
            sends.append(shard)
            if len(sends) == pool.num_shards:
                _GatedExactIndex.gate.set()

        workers.send = send_then_release
        got = self.answers(asyncio.run(pool.search_async(0, queries[2:4], 3)))
        assert sends == [0, 1]
        assert got == self.expected(serial, queries[2:4])
        # ... and nothing is left over for the cycle after it either.
        got = self.answers(asyncio.run(pool.search_async(0, queries[4:6], 3)))
        assert got == self.expected(serial, queries[4:6])
        # The timeout named every shard that still owed its reply.
        assert "shard workers [0, 1] did not reply within 0.2s" in str(raised.value)

    def test_contended_scatter_waits_off_the_loop(self, small, monkeypatch):
        """Readers do not feel a process-pool publish: while the new worker
        set's build is parked, searches on the old version all complete
        (regression: ``prepare`` held the pipes' lock across the build, so
        every scatter waited for the publish).  Once the publish lands and
        one scatter ran at the new version, only the new set is alive."""
        from repro.serving.gateway import index as index_module

        queries, services = small
        fork = multiprocessing.get_context("fork")
        monkeypatch.setitem(index_module._INDEX_REGISTRY, _ParkedBuildIndex.name,
                            _ParkedBuildIndex)
        monkeypatch.setattr(_ParkedBuildIndex, "gate", fork.Event())
        monkeypatch.setattr(_ParkedBuildIndex, "entered", fork.Event())
        expected = [  # v1 negates the catalogue: every ranking changes
            ExactIndex().build(table).search(queries[:20], 5)[0].tolist()
            for table in (services, -services)
        ]
        store = VersionedEmbeddingStore(queries, services, num_shards=2)
        _, shard_zero = store.snapshot().shard(0)
        monkeypatch.setattr(_ParkedBuildIndex, "marker", -shard_zero[0])
        gateway = ShardedGateway(store, index=_ParkedBuildIndex.name,
                                 workers="process", cache_capacity=0,
                                 max_batch_size=8, max_wait_s=0.001)
        errors = []

        def publisher():
            try:
                store.publish(queries, -services)
            except BaseException as error:
                errors.append(error)

        async def scenario():
            thread = threading.Thread(target=publisher)
            thread.start()
            try:
                while not _ParkedBuildIndex.entered.is_set():
                    await asyncio.sleep(0.001)
                searches = [asyncio.ensure_future(gateway.search_async(q, 5))
                            for q in range(20)]
                # The bound only turns a stalled scatter into a failure.
                done, _ = await asyncio.wait(searches, timeout=20.0)
                during = [(len(done), not _ParkedBuildIndex.gate.is_set(),
                           thread.is_alive())]
            finally:
                _ParkedBuildIndex.gate.set()
            while thread.is_alive():
                await asyncio.sleep(0.005)
            thread.join()
            parked = [ids.tolist() for ids, _ in await asyncio.gather(*searches)]
            ids, _ = await gateway.search_async(0, 5)  # the first scatter at v1
            children = len(multiprocessing.active_children())
            await gateway.stop_async()
            return during, parked, ids.tolist(), children

        try:
            during, parked, after, children = asyncio.run(
                asyncio.wait_for(scenario(), timeout=60.0))
        finally:
            gateway.close()
        assert during == [(20, True, True)]
        assert errors == [] and store.version == 1
        assert parked == expected[0]
        assert after == expected[1][0]
        assert children == gateway.num_shards

    def test_steady_state_scatters_start_no_thread_and_leave_no_reader(self, small):
        """A ``sharded_process``-shaped gateway answers on the loop thread
        alone: no default-executor (``asyncio_N``) thread is ever created,
        and every cycle unregisters its pipe readers."""
        queries, services = small
        store = VersionedEmbeddingStore(queries, services, num_shards=2)
        gateway = ShardedGateway(store, index="exact", workers="process",
                                 cache_capacity=0, max_batch_size=64,
                                 max_wait_s=0.002)
        threads_before = {thread.name for thread in threading.enumerate()}

        async def scenario():
            loop = asyncio.get_running_loop()
            readers_left = []
            for start in range(0, 60, 6):
                await asyncio.gather(
                    *(gateway.search_async(q, 5) for q in range(start, start + 6)))
                readers_left += [loop.remove_reader(conn.fileno())
                                 for conn in gateway.pool._sets[0].conns]
            names = {thread.name for thread in threading.enumerate()}
            await gateway.stop_async()
            return readers_left, names

        try:
            readers_left, names = asyncio.run(scenario())
        finally:
            gateway.close()
        assert readers_left == [False] * 20
        assert names == threads_before
        assert gateway.telemetry.health().requests == 60

    def test_cancelled_caller_leaves_a_drained_pool(self, small, pools):
        """Cancelling the caller mid-scatter surfaces ``CancelledError``;
        the shielded cycle still reads its replies and frees the pipes."""
        queries, _ = small
        pool, serial = pools

        async def scenario():
            scatter = asyncio.ensure_future(pool.search_async(0, queries[:2], 3))
            while pool._scatter is None:  # sent: the workers are parked
                await asyncio.sleep(0)
            scatter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await scatter
            still_held = pool._scatter is not None
            _GatedExactIndex.gate.set()
            replies = await pool.search_async(0, queries[2:4], 3)
            return still_held, self.answers(replies)

        still_held, got = asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
        assert still_held  # the cycle outlived its caller
        assert pool._scatter is None
        assert got == self.expected(serial, queries[2:4])

    def test_stop_mid_scatter_drains_the_queue_behind_it(self, small, monkeypatch):
        """``stop_async()`` cancels the batch on the pipes and drains the
        queue: the drained batch waits for the cancelled batch's cycle to
        read what it is owed instead of failing on the in-flight guard."""
        from repro.serving.gateway import index as index_module

        queries, services = small
        store = VersionedEmbeddingStore(queries, services, num_shards=2)
        monkeypatch.setitem(index_module._INDEX_REGISTRY, _GatedExactIndex.name,
                            _GatedExactIndex)
        monkeypatch.setattr(_GatedExactIndex, "gate",
                            multiprocessing.get_context("fork").Event())
        monkeypatch.setattr(_GatedExactIndex, "marker", store.snapshot().queries[0])
        gateway = ShardedGateway(store, index=_GatedExactIndex.name,
                                 workers="process", cache_capacity=0)
        oracle, _ = ExactIndex().build(services).search(queries[1:5], 5)

        async def scenario():
            first = asyncio.ensure_future(gateway.search_async(0, 5))
            while gateway.pool._scatter is None:  # on the pipes, parked
                await asyncio.sleep(0)
            rest = [asyncio.ensure_future(gateway.search_async(q, 5))
                    for q in range(1, 5)]
            await asyncio.sleep(0)
            stopping = asyncio.ensure_future(gateway.stop_async())
            while gateway.scheduler.in_flight_count != len(rest):
                await asyncio.sleep(0)  # the drained batch waits on the first
            _GatedExactIndex.gate.set()
            await stopping
            return await asyncio.gather(first, *rest, return_exceptions=True)

        try:
            outcomes = asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
        finally:
            _GatedExactIndex.gate.set()
            gateway.close()
        assert isinstance(outcomes[0], asyncio.CancelledError)
        assert [ids.tolist() for ids, _ in outcomes[1:]] == oracle.tolist()

    def test_one_failing_shard_still_drains_the_other(
            self, small, snapshot, pools, monkeypatch):
        """Shard 0 answers ``error`` at once while shard 1 still owes its
        ``result``: the error is held back until both pipes were read."""
        from repro.serving.sharded import pool as pool_module

        queries, services = small
        pool, serial = pools
        # Version 7: shard 0's table cannot score a query, shard 1's is real.
        payloads = [(7, np.zeros((4, queries.shape[1] + 1)), 0, None),
                    (7, services[300:], 300, None)]
        monkeypatch.setattr(pool_module, "_shard_payload",
                            lambda _snapshot, shard: payloads[shard])
        pool.prepare(dataclasses.replace(snapshot, version=7))
        reads = []
        for workers in pool._sets.values():
            def recording_recv(shard, *rest, recv=workers.recv):
                reads.append(shard)
                return recv(shard, *rest)

            workers.recv = recording_recv

        async def scenario():
            scatter = asyncio.ensure_future(pool.search_async(7, queries[:2], 3))
            while reads != [0]:  # the error frame has been read ...
                await asyncio.sleep(0.001)
            for _ in range(5):
                await asyncio.sleep(0)
            held_back = not scatter.done() and pool._scatter is not None
            _GatedExactIndex.gate.set()  # ... and shard 1 answers only now
            with pytest.raises(RuntimeError, match="shard worker 0 failed"):
                await scatter
            replies = await pool.search_async(0, queries[2:4], 3)
            return held_back, self.answers(replies)

        held_back, got = asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
        assert held_back
        assert reads == [0, 1, 0, 1] or reads == [0, 1, 1, 0]
        assert got == self.expected(serial, queries[2:4])

    def test_close_on_the_scattering_loop_refuses_instead_of_parking_it(
            self, small, pools):
        """``close()`` from a coroutine whose loop still has a scatter in
        flight would wait on a lock only that loop can release."""
        queries, _ = small
        pool, _ = pools

        async def scenario():
            scatter = asyncio.ensure_future(pool.search_async(0, queries[:2], 3))
            while pool._scatter is None:
                await asyncio.sleep(0)
            with pytest.raises(RuntimeError, match=r"stop_async\(\)"):
                pool.close()
            _GatedExactIndex.gate.set()
            await scatter

        asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
        pool.close()  # nothing in flight: closes (the fixture's is a no-op)
        assert pool._closed

    def test_set_retired_under_a_scatter_is_a_stale_version(
            self, small, snapshot, pools):
        """The publisher drops the set a scatter is still reading (an aborted
        publish's): the scatter surfaces ``StaleVersionError`` — which the
        gateway re-pins on — never "is gone", and stops that set as it ends."""
        queries, _ = small
        pool, serial = pools
        pool.prepare(dataclasses.replace(snapshot, version=1))  # never flipped
        doomed = pool._sets[1]

        async def scenario():
            sent = pool._cycles + 1
            scatter = asyncio.ensure_future(pool.search_async(1, queries[:2], 3))
            while pool._cycles != sent:  # on the pipes: the workers are parked
                await asyncio.sleep(0)
            await asyncio.to_thread(pool.retire, 1)
            deferred = not doomed.stopped
            _GatedExactIndex.gate.set()
            with pytest.raises(StaleVersionError, match="version 1"):
                await scatter
            return deferred, self.answers(await pool.search_async(0, queries[2:4], 3))

        deferred, got = asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
        assert deferred and doomed.stopped
        assert sorted(pool._sets) == [0]
        assert got == self.expected(serial, queries[2:4])
        assert len(multiprocessing.active_children()) == pool.num_shards

    def test_publish_beside_a_search_stream_answers_at_one_version(self, small):
        """One real ``store.publish`` on a publisher thread beside a stream
        of ``search_async`` calls: every answer is wholly v0's or wholly
        v1's, none fails, and the request ledger closes."""
        queries, services = small
        expected = [  # v1 negates the catalogue: every ranking changes
            ExactIndex().build(table).search(queries, 5)[0].tolist()
            for table in (services, -services)
        ]
        store = VersionedEmbeddingStore(queries, services, num_shards=2)
        gateway = ShardedGateway(store, index="exact", workers="process",
                                 cache_capacity=0, max_batch_size=8,
                                 max_wait_s=0.001)
        errors = []

        def publisher():
            try:
                store.publish(queries, -services)
            except BaseException as error:
                errors.append(error)

        async def scenario():
            thread = threading.Thread(target=publisher)
            served = []
            for round_number in range(12):
                if round_number == 2:
                    thread.start()
                found = await asyncio.gather(
                    *(gateway.search_async(q, 5) for q in range(len(queries))))
                served += [(q, ids.tolist()) for q, (ids, _) in enumerate(found)]
            while thread.is_alive():
                await asyncio.sleep(0.005)
            thread.join()
            found = await asyncio.gather(
                *(gateway.search_async(q, 5) for q in range(len(queries))))
            await gateway.stop_async()
            return served, [ids.tolist() for ids, _ in found]

        try:
            served, after = asyncio.run(asyncio.wait_for(scenario(), timeout=120.0))
        finally:
            gateway.close()
        assert errors == []
        assert store.version == 1
        for query_id, ids in served:
            assert ids in (expected[0][query_id], expected[1][query_id])
        assert after == expected[1]
        health = gateway.telemetry.health()
        assert health.requests == 13 * len(queries)
        assert health.overload_rejections == health.deadline_misses == 0
        assert health.cancelled_requests == 0


# --------------------------------------------------------------------- #
# Per-shard telemetry
# --------------------------------------------------------------------- #
class TestPerShardTelemetry:
    def test_shard_breakdown_sums_to_gateway_totals(self, clustered):
        gateway = sharded_gateway(clustered, "exact", workers="serial")
        gateway.rank_batch(range(96), 10)
        telemetry = gateway.telemetry
        rows = telemetry.shard_rows()
        assert len(rows) == gateway.num_shards == telemetry.num_shards
        # Every backend query is scattered to every shard ...
        assert sum(row["queries"] for row in rows) == (
            gateway.num_shards * telemetry.backend_queries
        )
        # ... and the gathered candidates decompose per shard.
        assert sum(row["candidates"] for row in rows) == telemetry.gathered_candidates
        # Exact scans always fill their k slots: the merge ranked
        # num_shards * k candidates per backend query.
        assert telemetry.gathered_candidates == (
            gateway.num_shards * 10 * telemetry.backend_queries
        )
        for row in rows:
            assert row["batches"] == rows[0]["batches"]
            assert row["busy_s"] > 0 and row["qps"] > 0
            assert row["p95_ms"] >= row["p50_ms"] >= 0
        summary = gateway.summary()
        assert summary["num_shards"] == gateway.num_shards
        assert summary["gathered_candidates"] == telemetry.gathered_candidates
        gateway.close()

    def test_scheduler_execution_stats(self, clustered):
        gateway = sharded_gateway(clustered, "exact", workers="serial")
        gateway.rank_batch(range(40), 10)
        stats = gateway.scheduler.stats()
        assert stats["batches_dispatched"] >= 1
        assert stats["requests_dispatched"] == 40
        assert stats["p95_execute_ms"] >= stats["p50_execute_ms"] > 0
        gateway.close()

    def test_unsharded_gateway_has_no_shard_rows(self, clustered):
        single = single_gateway(clustered, "exact")
        single.rank_batch(range(8), 5)
        assert single.telemetry.shard_rows() == []
        assert single.telemetry.num_shards == 0
        single.close()


# --------------------------------------------------------------------- #
# Pipeline + one-call deployment
# --------------------------------------------------------------------- #
class TestPipelineAndDeploy:
    def test_deploy_gateway_num_shards_routes_to_sharded(self, tiny_scenario):
        from repro.models.baselines.lightgcn import LightGCN

        model = LightGCN(tiny_scenario.graph, embedding_dim=8, seed=0)
        sharded = deploy_gateway(model, index="exact", num_shards=4,
                                 workers="serial", cache_capacity=0)
        assert isinstance(sharded, ShardedGateway)
        single = deploy_gateway(model, index="exact", cache_capacity=0)
        assert not isinstance(single, ShardedGateway)
        assert sharded.rank(0, 5) == single.rank(0, 5)
        version = sharded.hot_swap_from_model(model)
        assert version == 1
        sharded.close()
        single.close()
