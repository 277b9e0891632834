"""An index is derived from a snapshot, not owned by a gateway.

Covers what that buys: a reader pinned to version ``v`` never waits for the
build of ``v + 1``, gateways asking one store for the same ``(kind, params)``
share one build per version, and an index lives exactly as long as its
snapshot is pinned.  Every wait is an ``Event`` with a timeout — no sleeps.
"""

import asyncio
import gc
import os
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.serving.gateway.gateway as gateway_module
from repro.serving.gateway import (
    ServingGateway,
    SnapshotListener,
    VersionedEmbeddingStore,
    build_index,
    clustered_embeddings,
)
from repro.serving.quant import quantize_int8

TIMEOUT_S = 30.0


@pytest.fixture(scope="module")
def clustered():
    return clustered_embeddings(64, 600, 16, num_clusters=6, spread=0.2, seed=5)


@pytest.fixture
def builds(monkeypatch):
    """Every ``build_index`` call the gateways make: ``(kind, weakref)``."""
    calls = []
    real = gateway_module.build_index

    def recording(kind, services, **params):
        index = real(kind, services, **params)
        calls.append((kind, weakref.ref(index)))
        return index

    monkeypatch.setattr(gateway_module, "build_index", recording)
    return calls


def exact_answers(store, query_ids, k=10):
    """What an exact scan of the store's *current* tables answers."""
    snapshot = store.snapshot()
    scores = snapshot.query(query_ids) @ snapshot.all_services().T
    ids = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return ids, np.take_along_axis(scores, ids, axis=1)


class TestReadersNeverWaitForTheNextBuild:
    def test_old_version_answers_while_new_build_is_blocked(
            self, clustered, monkeypatch):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services)
        gateway = ServingGateway(store, index="exact", cache_capacity=0)
        query_ids = list(range(24))
        old_ids, old_scores = exact_answers(store, query_ids)

        entered, release = threading.Event(), threading.Event()
        real = gateway_module.build_index

        def gated(kind, table, **params):
            entered.set()
            assert release.wait(TIMEOUT_S)
            return real(kind, table, **params)

        monkeypatch.setattr(gateway_module, "build_index", gated)
        publisher = threading.Thread(
            target=store.publish, args=(queries, -services))

        async def read():
            return await asyncio.gather(
                *(gateway.search_async(query_id) for query_id in query_ids))

        def matches(answers, ids, scores):
            return all(
                np.array_equal(got_ids, ids[row])
                and np.allclose(got_scores, scores[row])
                for row, (got_ids, got_scores) in enumerate(answers))

        async def scenario():
            publisher.start()
            assert await asyncio.to_thread(entered.wait, TIMEOUT_S)
            # v1's build is parked inside the publisher thread; v0 answers.
            during = await asyncio.wait_for(read(), TIMEOUT_S)
            assert publisher.is_alive() and store.version == 0
            assert matches(during, old_ids, old_scores)
            release.set()
            flipping = []
            while publisher.is_alive():
                flipping.append(await read())
            await asyncio.to_thread(publisher.join, TIMEOUT_S)
            assert not publisher.is_alive() and store.version == 1
            new_ids, new_scores = exact_answers(store, query_ids)
            assert matches(await read(), new_ids, new_scores)
            # Around the flip each batch is wholly one version, never mixed.
            for answers in flipping:
                assert (matches(answers, old_ids, old_scores)
                        or matches(answers, new_ids, new_scores))
            await gateway.stop_async()

        try:
            asyncio.run(scenario())
        finally:
            release.set()
            publisher.join(TIMEOUT_S)
            gateway.close()


class TestOneBuildPerStoreVersion:
    def test_derived_is_single_flight_under_contention(self, clustered):
        queries, services = clustered
        snapshot = VersionedEmbeddingStore(queries, services).snapshot()
        built = []
        start = threading.Barrier(8)

        def build(of):
            built.append(of.version)  # a lost update would build twice
            return object()

        def worker(results, key):
            start.wait(TIMEOUT_S)
            for _ in range(200):
                results.append(snapshot.derived(key, build))

        results = {key: [] for key in ("a", "b")}
        threads = [
            threading.Thread(target=worker, args=(results[key], key))
            for key in ("a", "b") for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(TIMEOUT_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert built == [0, 0]  # once per key, handed the snapshot itself
        for values in results.values():
            assert len(values) == 800 and len(set(map(id, values))) == 1

        def failing(_snapshot):
            raise RuntimeError("build failed on purpose")

        with pytest.raises(RuntimeError, match="on purpose"):
            snapshot.derived("c", failing)
        # A failed build stores nothing: the next caller builds afresh.
        assert snapshot.derived("c", build) is snapshot.derived("c", build)

    def test_equal_kind_and_params_share_one_build(self, clustered, builds):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services)
        params = {"num_lists": 12, "num_probes": 4}
        first = ServingGateway(store, index="ivf", index_params=params)
        second = ServingGateway(store, index="ivf", index_params=dict(params))
        other = ServingGateway(store, index="ivf",
                               index_params={"num_lists": 12, "num_probes": 5})
        try:
            assert [kind for kind, _ in builds] == ["ivf", "ivf"]
            snapshot = store.snapshot()
            assert first._index_for(snapshot) is second._index_for(snapshot)
            assert first._index_for(snapshot) is not other._index_for(snapshot)
            store.publish(queries, services[::-1])
            assert len(builds) == 4  # one per distinct params, not per gateway
            # Sharing changes no answer: same as an index built on its own.
            snapshot = store.snapshot()
            probe = snapshot.query(range(32))
            for gateway in (first, second, other):
                expected, _ = build_index(
                    "ivf", snapshot.all_services(), **gateway.index_params
                ).search(probe, 10)
                got = gateway.rank_batch(range(32))
                assert got == [[int(i) for i in row] for row in expected]
        finally:
            for gateway in (first, second, other):
                gateway.close()

    def test_unhashable_params_build_privately(self, clustered, builds):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services)
        table = quantize_int8(services)  # frozen dataclass of arrays: no hash
        gateways = [
            ServingGateway(store, index="int8",
                           index_params={"int8_table": table})
            for _ in range(2)
        ]
        try:
            assert len(builds) == 2
            snapshot = store.snapshot()
            assert (gateways[0]._index_for(snapshot)
                    is not gateways[1]._index_for(snapshot))
            assert gateways[0].rank(3) == gateways[1].rank(3)
        finally:
            for gateway in gateways:
                gateway.close()

    def test_shortlist_counts_stay_with_the_calling_gateway(self, clustered):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services)
        params = {"num_subspaces": 4, "num_lists": 12}
        busy = ServingGateway(store, index="ivfpq", index_params=params,
                              cache_capacity=0)
        idle = ServingGateway(store, index="ivfpq", index_params=params,
                              cache_capacity=0)
        alone = ServingGateway(VersionedEmbeddingStore(queries, services),
                               index="ivfpq", index_params=params,
                               cache_capacity=0)
        try:
            snapshot = store.snapshot()
            assert busy._index_for(snapshot) is idle._index_for(snapshot)
            for gateway in (busy, alone):
                gateway.rank_batch(range(40))
            # The sharing gateway counts what an unshared one counts ...
            assert busy.summary()["backend_queries"] == 40
            for key in ("requests", "backend_queries"):
                assert busy.summary()[key] == alone.summary()[key]
                # ... and none of it lands on the gateway that sat idle.
                assert idle.summary()[key] == 0
        finally:
            for gateway in (busy, idle, alone):
                gateway.close()


class ExplodingListener(SnapshotListener):
    """Subscribes cleanly, then fails every later prepare (publish path)."""

    def prepare(self, snapshot):
        if snapshot.version > 0:
            raise RuntimeError("prepare failed on purpose")


class TestIndexLivesAsLongAsItsSnapshot:
    def test_aborted_publish_leaves_no_index_behind(self, clustered, builds):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services)
        gateway = ServingGateway(store, index="ivf")
        store.subscribe(ExplodingListener())  # prepares second, after the build
        try:
            before = gateway.rank(5)
            with pytest.raises(RuntimeError, match="on purpose"):
                store.publish(queries, -services)
            assert len(builds) == 2  # v1's index was built, then the abort
            gc.collect()
            assert builds[1][1]() is None
            assert store.version == 0 and gateway.rank(5) == before
        finally:
            gateway.close()

    def test_index_dies_with_its_last_pin(self, clustered, builds):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services)
        gateway = ServingGateway(store, index="ivf")
        try:
            pinned = store.snapshot()
            store.publish(queries, -services)
            store.publish(queries, services[::-1])
            # Two flips later the pinned version still has its own index.
            gc.collect()
            assert builds[0][1]() is gateway._index_for(pinned)
            assert len(builds) == 3
            # v1 has no reader left; v0 goes when its pin does.
            assert builds[1][1]() is None
            del pinned
            gc.collect()
            assert builds[0][1]() is None
            assert builds[2][1]() is not None
        finally:
            gateway.close()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="per-thread scheduling priority is a Linux call")
class TestRefreshRunsAtBackgroundPriority:
    """A publish builds on a thread of the lowest priority, so the request
    loop it shares a core with runs the moment it wakes; the caller's own
    priority is never touched (it could not be raised again)."""

    class Recorder(SnapshotListener):
        def __init__(self):
            self.seen = []

        def prepare(self, snapshot):
            self.seen.append((
                threading.current_thread().name,
                os.getpriority(os.PRIO_PROCESS, threading.get_native_id())))

    def test_publish_prepares_below_the_callers_priority(self, clustered):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services)
        recorder = self.Recorder()
        me = threading.current_thread().name
        mine = os.getpriority(os.PRIO_PROCESS, threading.get_native_id())
        store.subscribe(recorder)  # boot is not a refresh: the caller's thread
        assert store.publish(queries, -services) == 1
        assert recorder.seen == [(me, mine), ("store-refresh_0", 19)]
        assert os.getpriority(os.PRIO_PROCESS, threading.get_native_id()) == mine
        assert "store-refresh_0" not in {t.name for t in threading.enumerate()}
