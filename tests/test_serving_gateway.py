"""Tests for the serving gateway: ANN recall, batching, caching, hot-swap."""

import asyncio
import gc
import inspect
import threading
import time
import weakref

import numpy as np
import pytest

from repro.eval.serving_metrics import recall_at_k, summarize_gateway
from repro.serving.gateway import (
    AsyncBatchScheduler,
    ExactIndex,
    IVFIndex,
    LRUTTLCache,
    ServingGateway,
    StaleReadError,
    VersionedEmbeddingStore,
    build_index,
    clustered_embeddings,
    deploy_gateway,
    index_kinds,
    zipf_query_ids,
)
from repro.serving.obs import sample_percentiles_ms

# Every test stops the threads it starts: see conftest.py.
pytestmark = pytest.mark.usefixtures("no_leaked_threads_or_pins")


class FakeClock:
    """Manually advanced clock for deadline / staleness tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def clustered():
    """Seeded synthetic store with cluster structure (the ANN-friendly regime)."""
    return clustered_embeddings(400, 3000, 32, num_clusters=12, spread=0.18, seed=3)


@pytest.fixture(scope="module")
def exact_top10(clustered):
    queries, services = clustered
    ids, _ = ExactIndex().build(services).search(queries, 10)
    return ids


# --------------------------------------------------------------------- #
# ANN indexes
# --------------------------------------------------------------------- #
class TestIndexes:
    def test_exact_index_matches_brute_force(self, clustered):
        queries, services = clustered
        index = ExactIndex().build(services)
        ids, scores = index.search(queries[:8], 5)
        expected = np.argsort(-(queries[:8] @ services.T), axis=1)[:, :5]
        assert np.array_equal(ids, expected)
        assert np.all(np.diff(scores, axis=1) <= 1e-12)

    def test_ivf_recall_at_10(self, clustered, exact_top10):
        queries, services = clustered
        index = IVFIndex(seed=0).build(services)
        ids, _ = index.search(queries, 10)
        assert recall_at_k(ids, exact_top10, 10) >= 0.9

    def test_ivf_lists_cover_catalogue(self, clustered):
        _, services = clustered
        index = IVFIndex(num_lists=20, seed=0).build(services)
        members = np.concatenate([index.cell_members(c) for c in range(index.num_cells)])
        assert sorted(members.tolist()) == list(range(services.shape[0]))

    def test_search_pads_when_k_exceeds_candidates(self):
        services = np.eye(4)
        index = ExactIndex().build(services)
        ids, scores = index.search(np.ones((1, 4)), 9)
        assert ids.shape == (1, 9)
        assert np.all(ids[0, :4] >= 0) and np.all(ids[0, 4:] == -1)
        assert np.all(np.isneginf(scores[0, 4:]))

    def test_build_index_registry(self, clustered):
        _, services = clustered
        assert index_kinds()[0] == "exact"
        for kind in index_kinds():
            assert build_index(kind, services).num_services == services.shape[0]
        with pytest.raises(ValueError):
            build_index("annoy", services)

    def test_every_kind_searches_with_queries_and_k_only(self):
        """One search surface: no kind takes a side channel beside (queries, k)."""
        from repro.serving.gateway import index as index_module

        for kind in index_kinds():
            search = index_module._INDEX_REGISTRY[kind].search
            assert list(inspect.signature(search).parameters) == [
                "self", "queries", "k"], kind

    def test_invalid_k_rejected(self, clustered):
        _, services = clustered
        with pytest.raises(ValueError):
            ExactIndex().build(services).search(np.ones((1, 32)), 0)


# --------------------------------------------------------------------- #
# Versioned store
# --------------------------------------------------------------------- #
class TestVersionedStore:
    def test_snapshots_are_immutable(self, rng):
        store = VersionedEmbeddingStore(rng.normal(size=(6, 4)), rng.normal(size=(9, 4)))
        snapshot = store.snapshot()
        with pytest.raises(ValueError):
            snapshot.queries[0, 0] = 1.0
        with pytest.raises(ValueError):
            snapshot.services[0, 0] = 1.0

    def test_publish_bumps_version_and_keeps_old_snapshot_readable(self, rng):
        store = VersionedEmbeddingStore(rng.normal(size=(6, 4)), rng.normal(size=(9, 4)))
        pinned = store.snapshot()
        assert store.publish(rng.normal(size=(6, 4)), rng.normal(size=(9, 4))) == 1
        assert store.version == 1
        assert pinned.version == 0  # pinned readers keep a consistent view
        assert pinned.num_services == 9

    def test_sharding_routes_ids(self, rng):
        store = VersionedEmbeddingStore(rng.normal(size=(4, 4)), rng.normal(size=(10, 4)),
                                        num_shards=3)
        snapshot = store.snapshot()
        assert snapshot.num_shards == 3
        all_ids = np.concatenate(
            [snapshot.shard(index)[0] for index in range(snapshot.num_shards)]
        )
        assert all_ids.tolist() == list(range(10))
        for service_id in range(10):
            shard = snapshot.shard_of(service_id)
            ids, vectors = snapshot.shard(shard)
            position = service_id - ids[0]
            assert np.array_equal(vectors[position], snapshot.service([service_id])[0])

    def test_stale_read_protection(self, rng):
        clock = FakeClock()
        store = VersionedEmbeddingStore(rng.normal(size=(4, 4)), rng.normal(size=(5, 4)),
                                        clock=clock)
        assert store.snapshot(max_staleness_s=1.0).version == 0
        clock.advance(2.0)
        with pytest.raises(StaleReadError):
            store.snapshot(max_staleness_s=1.0)
        store.publish(rng.normal(size=(4, 4)), rng.normal(size=(5, 4)))
        assert store.snapshot(max_staleness_s=1.0).version == 1

    def test_dimension_checks(self, rng):
        store = VersionedEmbeddingStore(rng.normal(size=(4, 4)), rng.normal(size=(5, 4)))
        with pytest.raises(ValueError):
            store.publish(rng.normal(size=(4, 8)), rng.normal(size=(5, 8)))
        with pytest.raises(ValueError):
            VersionedEmbeddingStore(rng.normal(size=(4, 4)), rng.normal(size=(5, 3)))

    def test_version_atomicity_under_interleaved_reads(self):
        """Readers must never observe queries from one version paired with
        services from another, no matter how publishes interleave."""
        dim = 8

        def tables(version):
            return (np.full((5, dim), float(version)), np.full((7, dim), float(version)))

        store = VersionedEmbeddingStore(*tables(0))
        torn = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                snapshot = store.snapshot()
                query_fill = snapshot.queries[0, 0]
                service_fill = snapshot.services[0, 0]
                if query_fill != service_fill or snapshot.version != int(query_fill):
                    torn.append((snapshot.version, query_fill, service_fill))
                # Yield each iteration: a publish hops to its own thread, and
                # four readers that never yield make every hop wait out whole
                # GIL switch intervals (18 s of hand-overs over 199 publishes).
                time.sleep(0)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for version in range(1, 200):
            store.publish(*tables(version))
        stop.set()
        for thread in threads:
            thread.join()
        assert torn == []
        assert store.version == 199


# --------------------------------------------------------------------- #
# Micro-batch scheduler
# --------------------------------------------------------------------- #
class TestBatchScheduler:
    """Batch and deadline triggers, driven with ``poll`` under a FakeClock."""

    @staticmethod
    def make(max_batch_size=4, max_wait_s=0.010):
        clock = FakeClock()
        batches = []

        def executor(batch):
            batches.append([(pending.query_id, pending.k) for pending in batch])
            return [pending.query_id * 10 for pending in batch]

        scheduler = AsyncBatchScheduler(executor, max_batch_size=max_batch_size,
                                        max_wait_s=max_wait_s, clock=clock)
        return scheduler, clock, batches

    def test_full_batch_dispatches_immediately(self):
        async def scenario():
            scheduler, _, batches = self.make(max_batch_size=3)
            handles = [await scheduler.submit(query_id, 5) for query_id in range(3)]
            assert await scheduler.poll() == 3  # size trigger: no clock advance
            assert len(batches) == 1 and len(batches[0]) == 3  # one coalesced call
            assert [await handle.wait() for handle in handles] == [0, 10, 20]
            assert scheduler.pending_count == 0

        asyncio.run(scenario())

    def test_deadline_semantics(self):
        async def scenario():
            scheduler, clock, _ = self.make(max_batch_size=8, max_wait_s=0.010)
            handle = await scheduler.submit(1, 5)
            assert await scheduler.poll() == 0 and not handle.done  # before the deadline
            clock.advance(0.005)
            assert await scheduler.poll() == 0 and not handle.done  # within budget
            clock.advance(0.006)
            assert await scheduler.poll() == 1 and handle.done  # past max_wait
            assert await handle.wait() == 10

        asyncio.run(scenario())

    def test_deadline_is_of_the_oldest_request(self):
        async def scenario():
            scheduler, clock, batches = self.make(max_batch_size=8, max_wait_s=0.010)
            await scheduler.submit(1, 5)
            clock.advance(0.009)
            await scheduler.submit(2, 5)  # young request must not reset the deadline
            clock.advance(0.002)
            assert await scheduler.poll() == 2
            assert batches == [[(1, 5), (2, 5)]]

        asyncio.run(scenario())

    def test_flush_ignores_deadline(self):
        async def scenario():
            scheduler, _, _ = self.make(max_batch_size=8, max_wait_s=10.0)
            handle = await scheduler.submit(3, 2)
            assert await scheduler.flush() == 1
            assert await handle.wait() == 30

        asyncio.run(scenario())

    def test_executor_error_propagates_to_all_waiters(self):
        def executor(batch):
            raise RuntimeError("backend down")

        async def scenario():
            scheduler = AsyncBatchScheduler(executor, max_batch_size=2,
                                            clock=FakeClock())
            first, second = await scheduler.submit(0, 1), await scheduler.submit(1, 1)
            assert await scheduler.poll() == 2
            for handle in (first, second):
                with pytest.raises(RuntimeError, match="backend down"):
                    await handle.wait()

        asyncio.run(scenario())

    def test_background_thread_honours_deadline(self):
        """Producers on other threads hand coroutines to a loop thread they
        own; the drive task there flushes on the deadline, not on size."""
        done = threading.Event()

        def executor(batch):
            done.set()
            return [None] * len(batch)

        scheduler = AsyncBatchScheduler(executor, max_batch_size=64, max_wait_s=0.002)

        async def one_request():
            pending = await scheduler.submit(0, 1)
            scheduler.start()
            return await pending.wait()

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            served = asyncio.run_coroutine_threadsafe(one_request(), loop)
            assert served.result(timeout=5.0) is None
            assert done.is_set()  # flushed by the drive task, not by size
        finally:
            asyncio.run_coroutine_threadsafe(scheduler.stop(), loop).result(timeout=5.0)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5.0)
            loop.close()
        assert not thread.is_alive()

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            AsyncBatchScheduler(lambda batch: [], max_batch_size=0)
        with pytest.raises(ValueError):
            AsyncBatchScheduler(lambda batch: [], max_wait_s=-1.0)


# --------------------------------------------------------------------- #
# Result cache
# --------------------------------------------------------------------- #
class TestLRUTTLCache:
    def test_lru_eviction(self):
        cache = LRUTTLCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes recency
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_ttl_expiry(self):
        # Entries carry no age (the version key bounds staleness): an entry
        # survives until capacity eviction or ``invalidate_version``
        # removes it.
        for removed in ("ttl_s", "clock"):
            with pytest.raises(TypeError):
                LRUTTLCache(capacity=8, **{removed: 1.0})
        cache = LRUTTLCache(capacity=2)
        cache.put((1, 5, 0), "old")
        for _ in range(1_000):
            assert cache.get((1, 5, 0)) == "old"
        cache.put((2, 5, 0), "v0")
        cache.put((3, 5, 1), "v1")  # evicts the least recently used entry
        assert cache.get((1, 5, 0)) is None and cache.evictions == 1
        assert cache.invalidate_version(0) == 1
        assert cache.get((2, 5, 0)) is None
        assert cache.get((3, 5, 1)) == "v1" and len(cache) == 1

    def test_zero_capacity_disables_caching(self):
        cache = LRUTTLCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None and len(cache) == 0

    def test_invalidate_version(self):
        cache = LRUTTLCache(capacity=8)
        cache.put((1, 10, 0), "v0")
        cache.put((1, 10, 1), "v1")
        assert cache.invalidate_version(0) == 1
        assert cache.get((1, 10, 0)) is None
        assert cache.get((1, 10, 1)) == "v1"


# --------------------------------------------------------------------- #
# Gateway end-to-end
# --------------------------------------------------------------------- #
class TestServingGateway:
    @staticmethod
    def make_gateway(clustered, **kwargs):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services, num_shards=4)
        defaults = dict(index="ivf", top_k=10, max_batch_size=16)
        defaults.update(kwargs)
        return ServingGateway(store, **defaults)

    def test_gateway_recall_probe(self, clustered):
        with self.make_gateway(clustered) as gateway:
            assert gateway.recall_probe(k=10, num_queries=128, seed=0) >= 0.9
            assert gateway.telemetry.recall_at_k >= 0.9

    def test_rank_matches_index_search(self, clustered):
        queries, services = clustered
        expected, _ = IVFIndex(seed=0).build(services).search(queries[[7]], 10)
        with self.make_gateway(clustered) as gateway:
            assert gateway.rank(7) == [int(i) for i in expected[0] if i >= 0]

    def test_batch_coalesces_duplicate_queries(self, clustered):
        with self.make_gateway(clustered) as gateway:
            results = gateway.rank_batch([5, 9, 5, 9, 5], k=6)
            summary = gateway.summary()
        assert results[0] == results[2] == results[4]
        assert summary["requests"] == 5
        assert summary["backend_queries"] == 2  # five requests, two unique lookups

    def test_repeat_requests_hit_cache(self, clustered):
        with self.make_gateway(clustered) as gateway:
            first = gateway.rank(3)
            second = gateway.rank(3)
            assert first == second
            assert gateway.cache.hits == 1
            assert gateway.summary()["cache_hit_rate"] == 0.5

    def test_cache_invalidation_on_hot_swap(self, clustered):
        queries, services = clustered
        with self.make_gateway(clustered) as gateway:
            before = gateway.rank(0)
            assert gateway.cache.hits == 0
            # New embeddings concentrate every query on service 0: any cached
            # pre-swap result would be visibly stale.
            new_queries = np.ones_like(queries)
            new_services = np.zeros_like(services)
            new_services[0] = 1.0
            version = gateway.hot_swap(new_queries, new_services)
            assert version == 1
            after = gateway.rank(0)
            assert after != before and after[0] == 0
            assert gateway.cache.hits == 0  # the stale entry was never served
            assert gateway.summary()["hot_swaps"] == 1

    def test_bad_request_fails_alone_not_its_batch(self, clustered):
        gateway = self.make_gateway(clustered, max_batch_size=8)

        async def scenario():
            good = await gateway.submit_async(3)
            bad = await gateway.submit_async(10**6)  # out of range
            await gateway.stop_async()  # drains: both rode one batch
            ids, _ = await good.wait()
            assert len(ids) == 10  # the bad neighbour did not poison the batch
            with pytest.raises(IndexError, match="out of range"):
                await bad.wait()

        with gateway:
            asyncio.run(scenario())
        assert gateway.scheduler.batches_dispatched == 1

    def test_stale_read_budget_enforced(self, clustered):
        queries, services = clustered
        clock = FakeClock()
        store = VersionedEmbeddingStore(queries, services, clock=clock)
        with ServingGateway(store, index="exact", max_staleness_s=60.0,
                            clock=clock) as gateway:
            assert gateway.rank(1)
            clock.advance(120.0)
            with pytest.raises(StaleReadError):
                gateway.rank(1)
            gateway.hot_swap(queries, services)  # the daily refresh clears the condition
            assert gateway.rank(1)

    def test_deploy_gateway_from_model(self, tiny_scenario):
        from repro.models import LightGCN

        model = LightGCN(tiny_scenario.graph, embedding_dim=8, seed=0)
        with deploy_gateway(model, index="exact", top_k=4) as gateway:
            ranked = gateway.rank(0)
            assert len(ranked) == 4
            assert all(0 <= sid < tiny_scenario.dataset.num_services for sid in ranked)
            assert gateway.hot_swap_from_model(model) == 1

    def test_gateway_is_a_valid_ab_ranker(self, tiny_scenario):
        from repro.models import LightGCN
        from repro.serving.abtest import (
            ABExperimentConfig,
            BucketRouter,
            OnlineABExperiment,
        )

        model = LightGCN(tiny_scenario.graph, embedding_dim=8, seed=0)
        with deploy_gateway(model, index="ivf", top_k=3) as gateway:
            router = BucketRouter({"control": 0.5, "treatment": 0.5},
                                  arms={"control": gateway, "treatment": gateway})
            report = OnlineABExperiment(
                tiny_scenario.dataset, tiny_scenario.oracle, router,
                ABExperimentConfig(num_days=1, sessions_per_day=50, top_k=3,
                                   seed=0),
            ).run()
        assert report.daily["control"][0].impressions > 0

    def test_pipeline_ann_scoring_mode(self, clustered, exact_top10):
        """ANN ranking is the gateway's job; ``ExactIndex`` is the exact scan."""
        queries, services = clustered
        with ServingGateway(VersionedEmbeddingStore(queries, services),
                            index="ivf") as gateway:
            ranked = gateway.rank(3, 5)
        assert len(ranked) == 5
        overlap = len(set(ranked) & set(exact_top10[3, :5].tolist()))
        assert overlap >= 4  # ANN tracks the exact scan closely here
        # candidate restriction is an exact scan over the subset's rows
        candidates = np.array([1, 2, 3])
        positions, _ = ExactIndex().build(services[candidates]).search(queries[3], 2)
        assert set(candidates[positions[0]].tolist()) <= {1, 2, 3}
        with pytest.raises(ValueError, match="unknown index kind"):
            ServingGateway(VersionedEmbeddingStore(queries, services), index="ann")

    def test_dropped_gateway_is_freed_without_the_cycle_collector(self, clustered):
        """A closed gateway's store and indexes go as soon as it is dropped.

        Left to the cyclic collector, a process that boots a deployment
        again would hold every earlier index until the next collection, and
        its memory high-water mark would depend on when that ran.
        """
        gateway = self.make_gateway(clustered, index="ivfpq", cpu_executor="thread")
        assert gateway.rank(3)
        gateway.close()
        store = weakref.ref(gateway.store)
        gc.collect()
        gc.disable()
        try:
            del gateway
            assert store() is None
        finally:
            gc.enable()


# --------------------------------------------------------------------- #
# Serving metrics + workload helpers
# --------------------------------------------------------------------- #
class TestServingMetrics:
    def test_recall_at_k_handles_padding(self):
        exact = np.array([[1, 2, 3], [4, 5, 6]])
        approx = np.array([[1, 2, -1], [6, 5, 4]])
        assert recall_at_k(approx, exact, 3) == pytest.approx((2 / 3 + 1.0) / 2)
        with pytest.raises(ValueError):
            recall_at_k(approx, exact, 0)

    def test_latency_percentiles(self):
        stats = sample_percentiles_ms([0.001] * 99 + [0.101])
        assert stats["p50_ms"] == pytest.approx(1.0)
        assert stats["p99_ms"] > 1.0
        assert np.isnan(sample_percentiles_ms([])["p50_ms"])

    def test_summaries_round_trip(self, clustered):
        with TestServingGateway.make_gateway(clustered) as gateway:
            gateway.rank_batch(range(10))
            gateway.recall_probe(k=10, num_queries=32)
            summary = summarize_gateway("ivf", gateway)
            row = summary.as_row()
            assert row["mode"] == "ivf" and row["requests"] == 10
            assert row["qps"] > 0 and row["recall_at_k"] >= 0.9
            with pytest.raises(ValueError):
                summarize_gateway("ivf", gateway, elapsed_s=0.0)

    def test_zipf_stream_is_heavy_tailed(self):
        stream = zipf_query_ids(1000, 20_000, exponent=1.1, seed=0)
        assert stream.min() >= 0 and stream.max() < 1000
        _, counts = np.unique(stream, return_counts=True)
        top_share = np.sort(counts)[::-1][:10].sum() / stream.size
        assert top_share > 0.15  # ten hottest queries carry a large share

    def test_clustered_embeddings_shapes_and_determinism(self):
        q1, s1 = clustered_embeddings(10, 20, 8, seed=5)
        q2, s2 = clustered_embeddings(10, 20, 8, seed=5)
        assert q1.shape == (10, 8) and s1.shape == (20, 8)
        assert np.array_equal(q1, q2) and np.array_equal(s1, s2)
