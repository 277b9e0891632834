"""Loop-front-end telemetry as seen from the gateway's *sync* surface.

Queue-depth, overload, deadline-miss, cancellation and event-loop-lag
metrics live in :class:`GatewayTelemetry`; the async suite covers them on a
caller's event loop.  ``search`` / ``rank`` / ``rank_batch`` run the very
same coroutines on the gateway's own loop — these tests pin down that every
one of those ``summary()`` fields is populated on that path too, and (on the
scheduler driven step by step under a fake clock) that ``scheduler.stats()``
agrees with the telemetry.
"""

import asyncio

import pytest

from repro.serving.gateway import (
    AsyncBatchScheduler,
    DeadlineExceededError,
    GatewayTelemetry,
    OverloadError,
    ServingGateway,
    VersionedEmbeddingStore,
    clustered_embeddings,
)


class FakeClock:
    """Manually advanced clock for deadline semantics without sleeping."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TickingClock(FakeClock):
    """Every reading moves time on by ``step``: a synchronous call ages."""

    def __init__(self, step: float) -> None:
        super().__init__()
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def make_scheduler(max_batch_size=8, max_wait_s=0.05, **kwargs):
    clock = FakeClock()
    telemetry = GatewayTelemetry(clock=clock)

    def executor(batch):
        return [pending.query_id * 10 for pending in batch]

    scheduler = AsyncBatchScheduler(
        executor,
        max_batch_size=max_batch_size,
        max_wait_s=max_wait_s,
        clock=clock,
        telemetry=telemetry,
        **kwargs,
    )
    return scheduler, telemetry, clock


@pytest.fixture(scope="module")
def embeddings():
    return clustered_embeddings(60, 300, 16, num_clusters=6, seed=9)


def make_gateway(embeddings, clock=None, **kwargs):
    queries, services = embeddings
    clock = clock if clock is not None else FakeClock()
    store = VersionedEmbeddingStore(queries, services, clock=clock)
    return ServingGateway(store, index="exact", top_k=5, max_batch_size=64,
                          cache_capacity=0, clock=clock, **kwargs)


class TestSyncFacadeTelemetry:
    def test_overload_rejection_populates_summary(self, embeddings):
        gateway = make_gateway(embeddings, max_queue=2, overload="reject")
        with pytest.raises(OverloadError):
            gateway.rank_batch([1, 2, 3])
        summary = gateway.summary()
        assert summary["overload_rejections"] == 1.0
        assert summary["queue_depth_max"] == 2.0
        gateway.close()

    def test_queue_depth_mean_and_max_from_sync_submits(self, embeddings):
        gateway = make_gateway(embeddings)
        gateway.rank_batch(range(3))
        summary = gateway.summary()
        assert summary["queue_depth_max"] == 3.0
        assert summary["queue_depth_mean"] == pytest.approx(2.0)  # (1+2+3)/3
        gateway.close()

    def test_deadline_miss_counted_and_raised_via_poll(self):
        async def scenario():
            scheduler, telemetry, clock = make_scheduler(max_wait_s=0.01)
            expired = await scheduler.submit(1, 5, deadline_s=0.05)
            alive = await scheduler.submit(2, 5, deadline_s=10.0)
            clock.advance(0.1)
            await scheduler.poll()
            with pytest.raises(DeadlineExceededError):
                await expired.wait()
            assert await alive.wait() == 20
            assert telemetry.summary()["deadline_misses"] == 1.0
            assert scheduler.stats()["deadline_misses"] == 1.0

        asyncio.run(scenario())

    def test_cancellation_counted_and_slot_never_scored(self):
        async def scenario():
            scheduler, telemetry, _ = make_scheduler()
            doomed = await scheduler.submit(1, 5)
            alive = await scheduler.submit(2, 5)
            assert doomed.cancel()
            await scheduler.flush()
            assert await alive.wait() == 20
            assert telemetry.summary()["cancelled_requests"] == 1.0
            assert scheduler.stats()["cancelled_requests"] == 1.0

        asyncio.run(scenario())

    def test_background_drive_records_loop_lag(self):
        # The frozen FakeClock keeps the queued request below both dispatch
        # triggers, so the drive task's deadline sleep fires over and over —
        # each timeout is one loop-lag sample.
        async def scenario():
            scheduler, telemetry, clock = make_scheduler(max_wait_s=0.005)
            scheduler.start()
            pending = await scheduler.submit(1, 5)
            for _ in range(1000):
                if telemetry.loop_lag_samples >= 1:
                    break
                await asyncio.sleep(0.005)
            assert telemetry.loop_lag_samples >= 1
            assert telemetry.summary()["loop_lag_max_ms"] >= 0.0
            clock.advance(1.0)  # past max_wait: the drive task dispatches
            assert await asyncio.wait_for(pending.wait(), timeout=5.0) == 10
            await scheduler.stop()

        asyncio.run(scenario())

    def test_stats_and_summary_agree_on_shed_counters(self):
        async def scenario():
            scheduler, telemetry, clock = make_scheduler(
                max_queue=2, overload="reject")
            await scheduler.submit(1, 5, deadline_s=0.01)
            doomed = await scheduler.submit(2, 5)
            with pytest.raises(OverloadError):
                await scheduler.submit(3, 5)
            assert doomed.cancel()
            clock.advance(0.5)
            await scheduler.flush()
            summary = telemetry.summary()
            stats = scheduler.stats()
            for key in ("overload_rejections", "deadline_misses",
                        "cancelled_requests"):
                assert summary[key] == stats[key] == 1.0
            assert summary["queue_depth_max"] == stats["max_queue_depth"]

        asyncio.run(scenario())


class TestSyncGatewayTelemetry:
    """Shedding end to end through the gateway's sync surface."""

    def test_gateway_sync_path_reports_shed_and_depth(self, embeddings):
        gateway = make_gateway(embeddings, clock=TickingClock(0.01),
                               max_queue=2, overload="reject")
        try:
            # Aged past its deadline between admission and batch formation.
            with pytest.raises(DeadlineExceededError):
                gateway.search(0, deadline_s=0.005)
            with pytest.raises(OverloadError):
                gateway.rank_batch([1, 2, 3])
            summary = gateway.summary()
            assert summary["overload_rejections"] == 1.0
            assert summary["deadline_misses"] == 1.0
            assert summary["queue_depth_max"] == 2.0
            assert summary["requests"] == 2.0  # only the live requests scored
        finally:
            gateway.close()
