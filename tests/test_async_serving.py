"""Tests for the asyncio-native request path.

Covers the :class:`~repro.serving.gateway.scheduler.AsyncBatchScheduler`
failure modes the loop front-end introduces (overload rejection under a
bounded queue, await-slot backpressure, cancellation mid-batch, deadline
misses, graceful shutdown with in-flight futures), the gateway's async
surface (``search_async`` parity with the sync wrappers, the sync → async →
sync handover on one gateway, end-to-end deadline and overload shedding,
cache and telemetry touched by the request loop's thread only), and the
sharded tier's scatter/gather across all three worker backends.
"""

import asyncio
import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serving.gateway import (
    AsyncBatchScheduler,
    DeadlineExceededError,
    ExactIndex,
    GatewayTelemetry,
    LRUTTLCache,
    OverloadError,
    ServingGateway,
    VersionedEmbeddingStore,
    clustered_embeddings,
)
from repro.serving.sharded import ShardedGateway

# The file drives ``cpu_executor="thread"``: ``close()`` must join every
# owned scoring thread.
pytestmark = pytest.mark.usefixtures("no_leaked_threads_or_pins")


class FakeClock:
    """Manually advanced clock for deadline semantics without sleeping."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def clustered():
    return clustered_embeddings(200, 1500, 32, num_clusters=10, spread=0.2, seed=5)


class GatedExecutor(ThreadPoolExecutor):
    """A scoring executor that holds every call until the test sets that
    call's gate (``gates`` lists them in submission order)."""

    def __init__(self, workers=2):
        super().__init__(max_workers=workers, thread_name_prefix="gated-score")
        self.gates = []

    def submit(self, fn, /, *args, **kwargs):
        gate = threading.Event()
        self.gates.append(gate)

        def held():
            gate.wait(30.0)
            return fn(*args, **kwargs)

        return super().submit(held)

    def shutdown(self, *args, **kwargs):
        for gate in self.gates:
            gate.set()
        super().shutdown(*args, **kwargs)


async def until(condition):
    """Yield to the loop until ``condition()`` holds (no sleeping)."""
    while not condition():
        await asyncio.sleep(0)


def make_scheduler(max_batch_size=4, max_wait_s=0.010, **kwargs):
    clock = FakeClock()
    batches = []

    def executor(batch):
        batches.append([(pending.query_id, pending.k) for pending in batch])
        return [pending.query_id * 10 for pending in batch]

    scheduler = AsyncBatchScheduler(
        executor,
        max_batch_size=max_batch_size,
        max_wait_s=max_wait_s,
        clock=clock,
        **kwargs,
    )
    return scheduler, clock, batches


# --------------------------------------------------------------------- #
# AsyncBatchScheduler core semantics
# --------------------------------------------------------------------- #
class TestAsyncBatchScheduler:
    def test_poll_honours_batch_and_deadline_triggers(self):
        async def scenario():
            scheduler, clock, batches = make_scheduler(max_batch_size=3)
            handle = await scheduler.submit(1, 5)
            assert await scheduler.poll() == 0 and not handle.done
            clock.advance(0.011)  # past the oldest request's wait deadline
            assert await scheduler.poll() == 1 and handle.done
            assert await handle.wait() == 10
            handles = [await scheduler.submit(q, 5) for q in (2, 3, 4)]
            assert await scheduler.poll() == 3  # full batch, no deadline needed
            assert [await h.wait() for h in handles] == [20, 30, 40]
            assert batches == [[(1, 5)], [(2, 5), (3, 5), (4, 5)]]

        asyncio.run(scenario())

    def test_overload_rejection_under_bounded_queue(self):
        async def scenario():
            scheduler, _, _ = make_scheduler(
                max_batch_size=8, max_queue=2, overload="reject"
            )
            await scheduler.submit(0, 1)
            await scheduler.submit(1, 1)
            with pytest.raises(OverloadError):
                await scheduler.submit(2, 1)
            assert scheduler.overload_rejections == 1
            assert scheduler.stats()["overload_rejections"] == 1.0
            # Draining frees the slots; admission recovers.
            await scheduler.flush()
            await scheduler.submit(4, 1)
            await scheduler.flush()

        asyncio.run(scenario())

    def test_await_slot_backpressure_policy(self):
        async def scenario():
            scheduler, _, _ = make_scheduler(
                max_batch_size=2, max_queue=2, overload="wait"
            )
            await scheduler.submit(1, 1)
            await scheduler.submit(2, 1)
            parked = asyncio.ensure_future(scheduler.submit(3, 1))
            await asyncio.sleep(0)
            assert not parked.done()  # queue full: the submitter is parked
            await scheduler.flush()  # dispatch frees slots and wakes it
            handle = await parked
            await scheduler.flush()
            assert await handle.wait() == 30
            assert scheduler.overload_rejections == 0

        asyncio.run(scenario())

    def test_admission_is_fifo_under_sustained_overload(self):
        """A woken waiter holds a reserved slot: fresh submitters park
        behind existing waiters instead of stealing the freed capacity."""

        async def scenario():
            scheduler, _, _ = make_scheduler(
                max_batch_size=2, max_wait_s=60.0, max_queue=2, overload="wait"
            )
            await scheduler.submit(1, 1)
            await scheduler.submit(2, 1)
            early = [asyncio.ensure_future(scheduler.submit(q, 1)) for q in (3, 4)]
            await asyncio.sleep(0)
            assert not any(task.done() for task in early)
            await scheduler.flush()  # frees 2 slots, reserved for the parked pair
            late = asyncio.ensure_future(scheduler.submit(5, 1))
            await asyncio.sleep(0)
            # The latecomer parked; the two early waiters got the slots.
            assert all(task.done() for task in early) and not late.done()
            assert [p.query_id for p in scheduler._queue] == [3, 4]
            await scheduler.flush()
            await asyncio.sleep(0)
            assert late.done()
            await scheduler.flush()
            assert scheduler._reserved == 0 and not scheduler._waiters

        asyncio.run(scenario())

    def test_cancelled_request_slot_is_not_scored(self):
        async def scenario():
            scheduler, _, batches = make_scheduler(max_batch_size=8)
            first = await scheduler.submit(1, 5)
            doomed = await scheduler.submit(2, 5)
            last = await scheduler.submit(3, 5)
            assert doomed.cancel()
            await scheduler.flush()
            # The cancelled slot never reached the executor.
            assert batches == [[(1, 5), (3, 5)]]
            assert await first.wait() == 10 and await last.wait() == 30
            assert doomed.cancelled and scheduler.cancelled_requests == 1
            with pytest.raises(asyncio.CancelledError):
                await doomed.wait()

        asyncio.run(scenario())

    def test_deadline_miss_accounting(self):
        async def scenario():
            scheduler, clock, batches = make_scheduler(max_batch_size=8)
            missed = await scheduler.submit(1, 5, deadline_s=0.005)
            alive = await scheduler.submit(2, 5, deadline_s=10.0)
            clock.advance(0.006)  # past the first request's deadline
            await scheduler.flush()
            assert batches == [[(2, 5)]]  # the missed slot was shed unscored
            with pytest.raises(DeadlineExceededError):
                await missed.wait()
            assert await alive.wait() == 20
            assert scheduler.deadline_misses == 1
            assert scheduler.stats()["deadline_misses"] == 1.0

        asyncio.run(scenario())

    def test_graceful_shutdown_drains_in_flight_futures(self):
        async def scenario():
            scheduler, _, _ = make_scheduler(max_batch_size=8, max_wait_s=60.0)
            scheduler.start()
            handles = [await scheduler.submit(q, 1) for q in range(3)]
            assert not any(handle.done for handle in handles)
            await scheduler.stop()  # drain: every in-flight future completes
            assert [await handle.wait() for handle in handles] == [0, 10, 20]
            assert scheduler._drive_task is None

        asyncio.run(scenario())

    def test_stop_releases_parked_admission_waiters(self):
        """Shutdown must not strand submitters parked on a full queue: the
        queued work drains and the parked submits fail with CancelledError
        instead of hanging forever."""

        async def scenario():
            scheduler, _, _ = make_scheduler(
                max_batch_size=2, max_wait_s=60.0, max_queue=2, overload="wait"
            )
            queued = [await scheduler.submit(q, 1) for q in (1, 2)]
            parked = [asyncio.ensure_future(scheduler.submit(q, 1)) for q in (3, 4)]
            await asyncio.sleep(0)
            assert not any(task.done() for task in parked)
            await asyncio.wait_for(scheduler.stop(), timeout=2.0)
            assert [await handle.wait() for handle in queued] == [10, 20]
            for task in parked:
                assert task.done()
                with pytest.raises(asyncio.CancelledError):
                    task.result()
            assert scheduler.pending_count == 0 and not scheduler._waiters

        asyncio.run(scenario())

    def test_stop_drains_granted_but_unconsumed_slots(self):
        """A waiter woken with a reserved slot but not yet resumed when
        stop() runs must still be admitted and drained, not stranded."""

        async def scenario():
            scheduler, _, _ = make_scheduler(
                max_batch_size=2, max_wait_s=60.0, max_queue=2, overload="wait"
            )
            await scheduler.submit(1, 1)
            await scheduler.submit(2, 1)
            granted = asyncio.ensure_future(scheduler.submit(3, 1))
            await asyncio.sleep(0)  # parked behind the full queue
            await scheduler.flush()  # wakes the waiter: slot granted, no tick yet
            assert scheduler._reserved == 1 and not granted.done()
            await asyncio.wait_for(scheduler.stop(), timeout=2.0)
            handle = await granted
            assert await handle.wait() == 30
            assert scheduler._reserved == 0 and scheduler.pending_count == 0

        asyncio.run(scenario())

    def test_deadline_includes_admission_wait(self):
        """Time parked on a full queue counts against the deadline: a
        request admitted after its deadline already passed is shed."""

        async def scenario():
            scheduler, clock, batches = make_scheduler(
                max_batch_size=2, max_wait_s=60.0, max_queue=2, overload="wait"
            )
            await scheduler.submit(1, 1)
            await scheduler.submit(2, 1)
            parked = asyncio.ensure_future(scheduler.submit(3, 1, deadline_s=0.005))
            await asyncio.sleep(0)
            clock.advance(0.010)  # the park alone exceeds the deadline
            await scheduler.flush()  # admits the parked request...
            await asyncio.sleep(0)
            stale = await parked
            await scheduler.flush()  # ...and sheds it before scoring
            with pytest.raises(DeadlineExceededError):
                await stale.wait()
            assert all((3, 1) not in batch for batch in batches)
            assert scheduler.deadline_misses == 1

        asyncio.run(scenario())

    def test_drive_task_flushes_deadline_without_polling(self):
        async def scenario():
            done = asyncio.Event()

            def executor(batch):
                done.set()
                return [None] * len(batch)

            scheduler = AsyncBatchScheduler(
                executor, max_batch_size=64, max_wait_s=0.002
            )
            scheduler.start()
            handle = await scheduler.submit(0, 1)
            await asyncio.wait_for(done.wait(), timeout=2.0)
            assert await handle.wait() is None
            await scheduler.stop()

        asyncio.run(scenario())

    def test_stop_fails_a_batch_cancelled_before_its_first_step(self):
        """A batch task that ``stop()`` cancels before it ever ran still
        settles every request it took from the queue."""
        async def scenario():
            scheduler, _, batches = make_scheduler()
            scheduler.max_in_flight = 2
            handles = [await scheduler.submit(q, 1) for q in range(3)]
            scheduler._launch(scheduler._take())
            assert scheduler.in_flight_count == 3
            await scheduler.stop()
            outcomes = await asyncio.gather(*(handle.wait() for handle in handles),
                                            return_exceptions=True)
            return scheduler, batches, outcomes

        scheduler, batches, outcomes = asyncio.run(scenario())
        assert batches == []  # never scored
        assert all(isinstance(o, asyncio.CancelledError) for o in outcomes)
        assert scheduler.in_flight_count == 0

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            AsyncBatchScheduler(lambda batch: [], max_queue=0)
        with pytest.raises(ValueError):
            AsyncBatchScheduler(lambda batch: [], overload="drop-newest")


# --------------------------------------------------------------------- #
# Gateway async surface
# --------------------------------------------------------------------- #
class TestAsyncGateway:
    @staticmethod
    def make_gateway(clustered, **kwargs):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services, num_shards=4)
        defaults = dict(index="exact", top_k=10, max_batch_size=16)
        defaults.update(kwargs)
        return ServingGateway(store, **defaults)

    def test_search_async_matches_sync_wrapper(self, clustered):
        gateway = self.make_gateway(clustered)
        expected = gateway.rank(7)

        async def scenario():
            ranked = await gateway.rank_async(7)
            await gateway.stop_async()
            return ranked

        assert asyncio.run(scenario()) == expected
        gateway.close()

    def test_sync_path_routes_through_the_async_core(self, clustered):
        """One batching implementation: a sync call's batch is dispatched
        (and counted) by the gateway's AsyncBatchScheduler."""
        gateway = self.make_gateway(clustered)
        gateway.search(3)
        assert isinstance(gateway.scheduler, AsyncBatchScheduler)
        assert gateway.scheduler.batches_dispatched == 1
        assert gateway.scheduler.requests_dispatched == 1
        gateway.close()

    def test_sync_then_async_then_sync_on_one_gateway(self, clustered):
        """The scheduler rebinds between the gateway's own loop and a
        caller's loop whenever it is idle, and every hop answers like the
        exact oracle."""
        queries, services = clustered
        oracle, _ = ExactIndex().build(services).search(queries[:6], 10)
        expected = [[int(i) for i in row] for row in oracle]
        gateway = self.make_gateway(clustered, cache_capacity=0)
        ids, _ = gateway.search(0)
        assert ids.tolist() == expected[0]

        async def scenario():
            ids, _ = await gateway.search_async(1)
            return ids.tolist()  # no stop_async: the run's teardown ends the drive task

        assert asyncio.run(scenario()) == expected[1]
        assert gateway.rank_batch(range(2, 6)) == expected[2:6]
        assert gateway.scheduler.requests_dispatched == 6
        gateway.close()

    def test_sync_call_inside_a_running_loop_is_refused_before_admission(
        self, clustered
    ):
        """A sync call from a coroutine must fail without enqueueing: a
        phantom request would be scored with the next batch and counted."""
        gateway = self.make_gateway(clustered, cache_capacity=0)

        async def scenario():
            for call in (lambda: gateway.search(0), lambda: gateway.rank(0),
                         lambda: gateway.rank_batch([0, 1])):
                with pytest.raises(RuntimeError, match="search_async"):
                    call()
            assert gateway.scheduler.pending_count == 0
            await gateway.search_async(1)
            await gateway.stop_async()

        asyncio.run(scenario())
        assert gateway.summary()["requests"] == 1
        assert gateway.scheduler.requests_dispatched == 1
        gateway.close()

    def test_concurrent_sync_callers_and_close_leaves_nothing_behind(
        self, clustered
    ):
        """Threads calling ``rank`` take turns on the gateway's loop; after
        ``close()`` no thread, child process or open loop survives."""
        queries, services = clustered
        oracle, _ = ExactIndex().build(services).search(queries[:40], 10)
        store = VersionedEmbeddingStore(queries, services, num_shards=2)
        threads_before = set(threading.enumerate())
        gateway = ShardedGateway(store, index="exact", workers="process",
                                 top_k=10, cache_capacity=0)
        answers, errors = {}, []

        def caller(offset):
            try:
                for query_id in range(offset, 40, 4):
                    answers[query_id] = gateway.rank(query_id)
            except BaseException as error:
                errors.append(error)

        callers = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in callers)
        assert errors == []
        assert [answers[q] for q in range(40)] == [
            [int(i) for i in row] for row in oracle
        ]
        loop = gateway._sync_loop
        workers = {process.pid for each in gateway.pool._sets.values()
                   for process in each.processes}
        gateway.close()
        assert loop.is_closed() and gateway._sync_loop is None
        alive = {child.pid for child in multiprocessing.active_children()}
        assert workers and not workers & alive
        for thread in set(threading.enumerate()) - threads_before:
            thread.join(timeout=5.0)  # the closed loop's executor threads exit
        assert set(threading.enumerate()) <= threads_before

    def test_search_async_coalesces_concurrent_requests(self, clustered):
        gateway = self.make_gateway(clustered, max_wait_s=0.001)

        async def scenario():
            results = await asyncio.gather(
                *(gateway.search_async(q) for q in (5, 9, 5, 9, 5))
            )
            await gateway.stop_async()
            return results

        results = asyncio.run(scenario())
        assert np.array_equal(results[0][0], results[2][0])
        assert gateway.summary()["requests"] == 5
        assert gateway.summary()["backend_queries"] == 2
        gateway.close()

    def test_search_async_holds_a_multiple_of_the_batch_width_in_flight(
        self, clustered
    ):
        """With the executor parked on an event, five batch widths of
        requests sit admitted on one loop (one batch executing, four
        queued), none is shed, and all are answered once it is released."""
        width = 8
        gateway = self.make_gateway(
            clustered, max_batch_size=width, max_wait_s=0.0,
            max_queue=4 * width, overload="wait", cache_capacity=0,
        )
        scheduler = gateway.scheduler
        score = scheduler.executor

        async def scenario():
            release = asyncio.Event()

            async def gated(batch):
                await release.wait()
                return await score(batch)

            scheduler.executor = gated
            tasks = [
                asyncio.ensure_future(gateway.search_async(q))
                for q in range(5 * width)
            ]
            held = -1
            while held != scheduler.pending_count + scheduler.in_flight_count:
                held = scheduler.pending_count + scheduler.in_flight_count
                for _ in range(3):  # let admission run until nothing moves
                    await asyncio.sleep(0)
            release.set()
            results = await asyncio.gather(*tasks)
            await gateway.stop_async()
            return held, results

        held, results = asyncio.run(scenario())
        assert held == 5 * width
        assert [ids.tolist() for ids, _ in results] == [
            gateway.rank(q) for q in range(5 * width)
        ]
        assert gateway.telemetry.overload_rejections == 0
        assert gateway.telemetry.deadline_misses == 0
        gateway.close()

    def test_deadline_shed_end_to_end(self, clustered):
        clock = FakeClock()
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services, clock=clock)
        gateway = ServingGateway(
            store, index="exact", default_deadline_s=0.005, max_wait_s=60.0,
            clock=clock,
        )

        async def scenario():
            pending = await gateway.submit_async(1)
            clock.advance(0.006)
            await gateway.stop_async()  # drains: the request is shed, not scored
            with pytest.raises(DeadlineExceededError):
                await pending.wait()

        asyncio.run(scenario())
        assert gateway.telemetry.deadline_misses == 1
        assert gateway.telemetry.backend_queries == 0  # shed before scoring
        # A fresh request with a fresh deadline is served normally.
        assert len(gateway.rank(1)) == 10
        gateway.close()

    def test_overload_reject_end_to_end(self, clustered):
        gateway = self.make_gateway(
            clustered, max_batch_size=64, max_wait_s=60.0, max_queue=2,
            overload="reject",
        )

        async def scenario():
            await gateway.submit_async(0)
            await gateway.submit_async(1)
            with pytest.raises(OverloadError):
                await gateway.submit_async(2)
            await gateway.stop_async()

        asyncio.run(scenario())
        assert gateway.telemetry.overload_rejections == 1
        assert gateway.summary()["queue_depth_max"] == 2.0
        gateway.close()

    def test_sync_rank_batch_parks_on_a_full_queue_instead_of_shedding(
        self, clustered
    ):
        """The sync surface is the async path: under ``overload="wait"`` a
        batch wider than the admission queue parks and completes."""
        gateway = self.make_gateway(
            clustered, max_batch_size=4, max_queue=4, overload="wait",
            cache_capacity=0,
        )
        ranked = gateway.rank_batch(range(12))
        assert ranked == [gateway.rank(q) for q in range(12)]
        assert gateway.telemetry.overload_rejections == 0
        assert gateway.summary()["queue_depth_max"] <= 4.0
        gateway.close()

    def test_caller_cancellation_drops_the_request_unscored(self, clustered):
        gateway = self.make_gateway(clustered, max_wait_s=60.0)

        async def scenario():
            task = asyncio.ensure_future(gateway.search_async(5))
            await asyncio.sleep(0)  # admitted, parked behind the 60s deadline
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            await gateway.stop_async()  # drains the queue: slot is skipped

        asyncio.run(scenario())
        assert gateway.scheduler.cancelled_requests == 1
        assert gateway.telemetry.backend_queries == 0
        assert gateway.telemetry.cancelled_requests == 1
        gateway.close()

    def test_loop_confined_mode_drops_locks_and_cache_hit_never_blocks(
        self, clustered
    ):
        # There is one mode: the keyword is accepted (the benchmark passes
        # it) and builds the same lock-free gateway either way.
        plain = self.make_gateway(clustered, loop_confined=False)
        gateway = self.make_gateway(clustered, loop_confined=True)
        for one, other in ((plain, gateway), (plain.cache, gateway.cache),
                           (plain.telemetry, gateway.telemetry)):
            assert vars(one).keys() == vars(other).keys()
            assert "_lock" not in vars(other)
        assert not hasattr(gateway, "loop_confined")
        plain.close()

        async def scenario():
            first, _ = await gateway.search_async(3)

            def exploding_backend(*args, **kwargs):
                raise AssertionError("cache hit must not reach the backend")

            gateway._search_backend_async = exploding_backend
            # The hit resolves inline on the loop: no backend, no executor
            # hop, no lock — a bounded await proves it cannot block.
            second, _ = await asyncio.wait_for(gateway.search_async(3), timeout=2.0)
            await gateway.stop_async()
            return first, second

        first, second = asyncio.run(scenario())
        assert np.array_equal(first, second)
        assert gateway.cache.hits == 1
        gateway.close()

    @pytest.mark.parametrize(
        "kwargs",
        [dict(index="ivf"), dict(index="ivfpq", cpu_executor="thread")],
        ids=["ivf-inline", "ivfpq-offloaded"],
    )
    def test_only_the_request_loop_touches_cache_and_telemetry(
        self, clustered, kwargs, monkeypatch
    ):
        """A publisher on its own thread and scoring on ``gateway-score``
        leave every cache and telemetry mutation to the loop's thread."""
        queries, services = clustered
        seen = []  # (mutator, ident of the thread that called it)

        def recorded(owner, name):
            method = getattr(owner, name)

            def wrapper(*args, **kw):
                seen.append((name, threading.get_ident()))
                return method(*args, **kw)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("get", "put", "invalidate_version", "clear"):
            recorded(LRUTTLCache, name)
        for name in vars(GatewayTelemetry):
            if name.startswith("record_"):
                recorded(GatewayTelemetry, name)
        gateway = self.make_gateway(clustered, **kwargs)

        async def scenario():
            loop = asyncio.get_running_loop()
            go, flipped = threading.Event(), asyncio.Event()

            def publish_twice():
                for scale in (1.5, 2.0):
                    go.wait()
                    go.clear()
                    gateway.hot_swap(queries * scale, services)
                    loop.call_soon_threadsafe(flipped.set)

            threading.Thread(target=publish_twice, daemon=True).start()
            for old_version in (0, 1):
                go.set()  # the flip lands somewhere inside this traffic
                await asyncio.gather(
                    flipped.wait(), *(gateway.search_async(q) for q in range(24)))
                flipped.clear()
                await gateway.search_async(0)  # pins old_version + 1
                assert gateway.store.version == old_version + 1
                assert [key for key in gateway.cache._entries
                        if key[-1] == old_version] == []
            await gateway.stop_async()

        asyncio.run(scenario())
        summary = gateway.summary()
        gateway.close()
        called = {name for name, _ in seen}
        assert {"put", "invalidate_version", "record_swap",
                "record_request"} <= called
        here = threading.get_ident()  # asyncio.run ran the loop on this thread
        assert sorted({name for name, ident in seen if ident != here}) == []
        assert summary["hot_swaps"] == 2

    def test_cpu_executor_offloads_scoring_off_the_loop(self, clustered):
        gateway = self.make_gateway(clustered, cpu_executor="thread")
        reference = self.make_gateway(clustered)
        expected = reference.rank(11)
        reference.close()

        async def scenario():
            ranked = await gateway.rank_async(11)
            await gateway.stop_async()
            return ranked

        assert asyncio.run(scenario()) == expected
        gateway.close()

    @pytest.mark.parametrize("tier, cpu_executor, depth", [
        ("single", None, 1),
        ("single", "thread", 2),
        ("sharded", "thread", 1),
    ])
    def test_offloaded_scoring_keeps_two_batches_in_flight(
        self, clustered, tier, cpu_executor, depth
    ):
        """With every batch held, the drive task has ``depth`` batches in
        the executor at once, never more: two when scoring is offloaded,
        one when it runs inline or scatters through a shard pool."""
        width = 4
        kwargs = dict(max_batch_size=width, max_wait_s=0.0, cache_capacity=0,
                      cpu_executor=cpu_executor)
        if tier == "single":
            gateway = self.make_gateway(clustered, **kwargs)
        else:
            gateway = TestShardedAsync.make_sharded(clustered, "thread", **kwargs)
        scheduler = gateway.scheduler
        score = scheduler.executor
        inside = [0, 0]  # [now, peak]

        async def scenario():
            release = asyncio.Event()

            async def counted(batch):
                inside[0] += 1
                inside[1] = max(inside)
                try:
                    await release.wait()
                    return await score(batch)
                finally:
                    inside[0] -= 1

            scheduler.executor = counted
            tasks = [asyncio.ensure_future(gateway.search_async(q))
                     for q in range(4 * width)]
            await until(lambda: inside[0] == depth)
            for _ in range(20):  # nothing else gets in while they are held
                await asyncio.sleep(0)
            held = (inside[1], scheduler.in_flight_count, scheduler.pending_count)
            release.set()
            results = await asyncio.gather(*tasks)
            await gateway.stop_async()
            return held, results

        try:
            held, results = asyncio.run(asyncio.wait_for(scenario(), 30.0))
            assert held == (depth, depth * width, (4 - depth) * width)
            assert [ids.tolist() for ids, _ in results] == [
                gateway.rank(q) for q in range(4 * width)
            ]
        finally:
            gateway.close()

    def test_two_batches_straddle_a_version_flip(self, clustered):
        """Batch A pins v0 and is held on a scoring thread; v1 is published;
        batch B pins v1 and finishes first.  Each batch answers entirely at
        its own version, the served version never moves back, and A's late
        v0 answers never reach the cache, where they would evict B's."""
        queries, services = clustered
        flipped = services[::-1].copy()
        ids = list(range(4))
        oracle = [
            ExactIndex().build(table).search(queries[ids], 10)[0].tolist()
            for table in (services, flipped)
        ]
        executor = GatedExecutor()
        gateway = self.make_gateway(clustered, max_batch_size=len(ids),
                                    max_wait_s=0.0, cache_capacity=len(ids),
                                    cpu_executor=executor)
        served = []

        async def batch_of(query_ids):
            return [asyncio.ensure_future(gateway.search_async(q))
                    for q in query_ids]

        async def scenario():
            first = await batch_of(ids)
            await until(lambda: len(executor.gates) == 1)
            gateway.hot_swap(queries, flipped)
            second = await batch_of(ids)
            await until(lambda: len(executor.gates) == 2)
            served.append(gateway._served_version)
            executor.gates[1].set()
            late = await asyncio.gather(*second)
            served.append(gateway._served_version)
            executor.gates[0].set()
            early = await asyncio.gather(*first)
            served.append(gateway._served_version)
            cached = sorted(gateway.cache._entries)
            hits = gateway.cache.hits
            again = await asyncio.gather(*(await batch_of(ids)))
            await gateway.stop_async()
            return early, late, cached, gateway.cache.hits - hits, again

        try:
            early, late, cached, hits, again = asyncio.run(
                asyncio.wait_for(scenario(), 30.0))
        finally:
            gateway.close()
            executor.shutdown()
        assert [answer.tolist() for answer, _ in early] == oracle[0]
        assert [answer.tolist() for answer, _ in late] == oracle[1]
        assert [answer.tolist() for answer, _ in again] == oracle[1]
        assert served == [1, 1, 1]
        assert cached == [(q, 10, 1) for q in ids]
        assert hits == len(ids)  # B's entries survived A's late finish
        assert gateway.summary()["hot_swaps"] == 1

    def test_stop_cancels_both_batches_in_flight(self, clustered):
        """``stop_async()`` with two held batches: both are cancelled, the
        queued batch behind them is still answered, and every request is
        accounted for exactly once."""
        width = 4
        executor = GatedExecutor()
        gateway = self.make_gateway(clustered, max_batch_size=width,
                                    max_wait_s=0.0, cache_capacity=0,
                                    cpu_executor=executor)
        scheduler = gateway.scheduler

        async def scenario():
            tasks = [asyncio.ensure_future(gateway.search_async(q))
                     for q in range(3 * width)]
            await until(lambda: len(executor.gates) == 2)
            held = (scheduler.in_flight_count, scheduler.pending_count)
            stopping = asyncio.ensure_future(gateway.stop_async())
            await until(lambda: len(executor.gates) == 3)  # the drain's batch
            for gate in executor.gates:
                gate.set()
            await stopping
            return held, await asyncio.gather(*tasks, return_exceptions=True)

        try:
            held, outcomes = asyncio.run(asyncio.wait_for(scenario(), 30.0))
        finally:
            gateway.close()
            executor.shutdown()
        assert held == (2 * width, width)
        cancelled = [isinstance(o, asyncio.CancelledError) for o in outcomes]
        answered = [isinstance(o, tuple) for o in outcomes]
        assert cancelled == [True] * (2 * width) + [False] * width
        assert answered == [False] * (2 * width) + [True] * width
        assert gateway.summary()["requests"] == width
        assert scheduler.in_flight_count == 0 and scheduler._batches == {}

    def test_rejects_bogus_cpu_executor(self, clustered):
        with pytest.raises(ValueError):
            self.make_gateway(clustered, cpu_executor="gpu")


# --------------------------------------------------------------------- #
# Sharded tier: async scatter/gather
# --------------------------------------------------------------------- #
class TestShardedAsync:
    @staticmethod
    def make_sharded(clustered, workers, **kwargs):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services, num_shards=4)
        defaults = dict(index="exact", top_k=10, max_batch_size=16,
                        cache_capacity=0)
        defaults.update(kwargs)
        return ShardedGateway(store, workers=workers, **defaults)

    @pytest.mark.parametrize("workers", ["serial", "thread"])
    def test_async_scatter_gather_matches_sync(self, clustered, workers):
        gateway = self.make_sharded(clustered, workers)
        expected = gateway.rank_batch(range(12), 10)

        async def scenario():
            ranked = await asyncio.gather(
                *(gateway.rank_async(q) for q in range(12))
            )
            await gateway.stop_async()
            return ranked

        assert asyncio.run(scenario()) == expected
        gateway.close()

    def test_process_pool_async_pipe_readers_match_serial(self, clustered):
        """The loop-reader framed-pipe cycle returns exactly what the
        in-process serial backend returns — per shard, per version."""
        serial = self.make_sharded(clustered, "serial")
        expected = serial.rank_batch(range(8), 10)
        serial.close()
        gateway = self.make_sharded(clustered, "process")

        async def scenario():
            ranked = await asyncio.gather(
                *(gateway.rank_async(q) for q in range(8))
            )
            await gateway.stop_async()
            return ranked

        assert asyncio.run(scenario()) == expected
        # The sync surface drives the same pool from the gateway's own loop.
        assert gateway.rank_batch(range(8), 10) == expected
        gateway.close()

    def test_async_search_survives_hot_swap(self, clustered):
        queries, services = clustered
        gateway = self.make_sharded(clustered, "serial")

        async def scenario():
            before = await gateway.rank_async(0)
            gateway.hot_swap(queries * 1.1, services * 1.1)
            after = await gateway.rank_async(0)
            await gateway.stop_async()
            return before, after

        before, after = asyncio.run(scenario())
        assert before == after  # scaling both tables preserves the ranking
        assert gateway.store.version == 1
        gateway.close()
