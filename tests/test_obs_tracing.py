"""Tests for end-to-end request tracing, the flight recorder and the
health surface (``repro.serving.obs``).

The acceptance path: a sharded process-pool request traced end to end
produces one span tree — admission → queue → scatter (one re-anchored
``shard_worker`` child per shard, pid-tagged from the worker process) →
merge → reply — with monotonic, root-bounded timings.  Around it, the
unit-level contracts: deterministic ids, batch-span grafting, the flight
recorder's tail-sampling keep rules, ``explain()`` and ``health()``.
"""

import asyncio
import os

import numpy as np
import pytest

from repro.serving.gateway import (
    OverloadError,
    ServingGateway,
    VersionedEmbeddingStore,
    clustered_embeddings,
)
from repro.serving.obs.flight import FlightRecorder
from repro.serving.obs.tracing import (
    STATUS_OK,
    STATUS_SHED,
    BatchSpans,
    Tracer,
    worker_span,
)
from repro.serving.sharded import ShardedGateway

NUM_QUERIES, NUM_SERVICES, DIM, NUM_SHARDS = 120, 800, 24, 4


@pytest.fixture(scope="module")
def clustered():
    return clustered_embeddings(
        NUM_QUERIES, NUM_SERVICES, DIM, num_clusters=8, spread=0.2, seed=9
    )


def traced_sharded_gateway(clustered, workers):
    queries, services = clustered
    store = VersionedEmbeddingStore(
        queries, services, num_shards=NUM_SHARDS
    )
    return ShardedGateway(
        store,
        index="exact",
        workers=workers,
        top_k=5,
        max_batch_size=16,
        cache_capacity=0,
        tracing=True,
        trace_sample_every=1,
        slow_trace_ms=0.0,
    )


def drive_async(gateway, query_ids):
    async def run():
        await asyncio.gather(
            *(gateway.search_async(int(q)) for q in query_ids)
        )
        await gateway.stop_async()

    asyncio.run(run())


def assert_end_to_end_trace(trace, expect_foreign_pid):
    """The acceptance criterion: one coherent span tree per request."""
    root = trace.root
    assert root.name == "request"
    assert trace.status == STATUS_OK

    admission = trace.find("admission")
    queue = trace.find("queue")
    scatter = trace.find("scatter")
    merge = trace.find("merge")
    reply = trace.find("reply")
    for span in (admission, queue, scatter, merge, reply):
        assert span is not None, trace.format()

    workers = trace.find_all("shard_worker")
    assert len(workers) == NUM_SHARDS
    assert {w.attrs["shard"] for w in workers} == set(range(NUM_SHARDS))
    assert all(w.parent_id == scatter.span_id for w in workers)
    if expect_foreign_pid:
        assert all(w.attrs["pid"] != os.getpid() for w in workers)
    else:
        assert all(w.attrs["pid"] == os.getpid() for w in workers)

    eps = 1e-9
    # Children never escape their parent's window: the re-anchored worker
    # spans sit inside the observed scatter window, every stage span sits
    # inside the request root.
    for w in workers:
        assert scatter.start_s - eps <= w.start_s
        assert w.end_s <= scatter.end_s + eps
        assert w.duration_s >= 0.0
    for span in trace.spans()[1:]:
        assert root.start_s - eps <= span.start_s
        assert span.end_s <= root.end_s + eps

    # Monotonic stage ordering along the request's lifecycle.
    assert admission.start_s == pytest.approx(root.start_s)
    assert admission.end_s <= queue.start_s + eps
    assert queue.end_s <= scatter.start_s + eps
    assert scatter.end_s <= merge.start_s + eps
    assert merge.end_s <= reply.start_s + eps
    assert reply.end_s == pytest.approx(root.end_s)


class TestEndToEndTracing:
    def test_sharded_process_pool_trace(self, clustered):
        gateway = traced_sharded_gateway(clustered, workers="process")
        try:
            drive_async(gateway, range(32))
            traces = [
                t
                for t in gateway.flight_recorder.dump()
                if t.status == STATUS_OK
            ]
            assert len(traces) == 32  # sample_every=1 + slow_s=0 keep all
            for trace in traces:
                assert_end_to_end_trace(trace, expect_foreign_pid=True)
        finally:
            gateway.close()

    def test_sharded_thread_pool_trace(self, clustered):
        gateway = traced_sharded_gateway(clustered, workers="thread")
        try:
            drive_async(gateway, range(16))
            trace = gateway.flight_recorder.slowest()
            assert trace is not None
            assert_end_to_end_trace(trace, expect_foreign_pid=False)
        finally:
            gateway.close()

    def test_trace_carries_tag_and_explain_renders(self, clustered):
        gateway = traced_sharded_gateway(clustered, workers="serial")
        try:

            async def run():
                await gateway.search_async(3)
                await gateway.stop_async()

            asyncio.run(run())
            trace = gateway.flight_recorder.dump()[-1]
            assert trace.query_id == 3 and not hasattr(trace, "tag")
            rendered = gateway.explain(trace)
            # The header line names the query and the terminal status.
            header = rendered.splitlines()[0]
            assert "query=3 " in header and "status=ok " in header
            assert "tag=" not in rendered
            for name in ("request", "admission", "queue", "scatter",
                         "shard_worker", "merge", "reply"):
                assert f"- {name} " in rendered or rendered.startswith(
                    "trace"
                ) and name == "request"
        finally:
            gateway.close()

    def test_shed_requests_are_traced_and_always_kept(self, clustered):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services, num_shards=1)
        # sample_every / slow_s are tuned so only not-ok traces qualify:
        # what the recorder keeps, admission control shed.
        gateway = ServingGateway(
            store,
            index="exact",
            top_k=5,
            max_batch_size=4,
            cache_capacity=0,
            max_queue=2,
            overload="reject",
            tracing=True,
            trace_sample_every=1_000_000,
            slow_trace_ms=1e9,
        )
        try:

            async def flood():
                results = await asyncio.gather(
                    *(gateway.search_async(int(q) % NUM_QUERIES)
                      for q in range(64)),
                    return_exceptions=True,
                )
                await gateway.stop_async()
                return results

            results = asyncio.run(flood())
            rejected = [
                r for r in results if isinstance(r, OverloadError)
            ]
            assert rejected, "the flood should overflow max_queue=2"
            kept = gateway.flight_recorder.dump()
            assert kept and all(t.status == STATUS_SHED for t in kept)
            assert gateway.flight_recorder.stats()["kept_not_ok"] == len(
                kept
            )
        finally:
            gateway.close()

    def test_health_snapshot_from_live_gateway(self, clustered):
        gateway = traced_sharded_gateway(clustered, workers="serial")
        try:
            drive_async(gateway, range(8))
            health = gateway.health()
            as_dict = health.as_dict()
            assert as_dict["requests"] == 8.0
            assert as_dict["shed_rate"] == 0.0
            assert health.p99_ms >= health.p50_ms >= 0.0
            assert not health.overloaded(shed_budget=0.5)
            assert health.overloaded(p99_budget_ms=-1.0)
        finally:
            gateway.close()


class TestTracerAndSpans:
    def test_ids_are_deterministic_and_seeded(self):
        def ids(seed):
            tracer = Tracer(clock=lambda: 0.0, seed=seed)
            return [
                tracer.start_request(i).trace_id for i in range(10)
            ] + [tracer.batch_context()]

        assert ids(7) == ids(7)
        assert ids(7) != ids(8)
        assert len(set(ids(7))) == 11  # no collisions in the stream

    def test_disabled_tracer_mints_nothing(self):
        tracer = Tracer(clock=lambda: 0.0, enabled=False)
        assert tracer.start_request(1) is None
        assert tracer.traces_started == 0

    def test_finish_is_idempotent_and_records_once(self):
        recorder = FlightRecorder(capacity=4, sample_every=1, slow_s=None)
        tracer = Tracer(clock=lambda: 0.0, recorder=recorder)
        trace = tracer.start_request(1)
        trace.finish(STATUS_OK, end_s=1.0)
        trace.finish(STATUS_SHED, end_s=9.0)
        trace.finish_ok(9.0)
        assert trace.status == STATUS_OK
        assert trace.duration_s == 1.0
        assert tracer.traces_finished == 1
        assert len(recorder) == 1

    def test_batch_spans_graft_by_reference_with_per_trace_ids(self):
        tracer = Tracer(clock=lambda: 0.0)
        first = tracer.start_request(1, start_s=0.0)
        second = tracer.start_request(2, start_s=0.0)
        spans = BatchSpans(lambda: 0.0, tracer.batch_context())
        plan = spans.add("plan", 0.0, 1.0, batch=2)
        spans.add("score", 1.0, 2.0, parent=plan, k=5)
        spans.graft_into(first)
        spans.graft_into(second)
        first.finish_ok(3.0)
        second.finish_ok(3.0)

        for trace in (first, second):
            plan_span = trace.find("plan")
            score_span = trace.find("score")
            assert plan_span.attrs == {"batch": 2}
            assert plan_span.parent_id == trace.root.span_id
            assert score_span.parent_id == plan_span.span_id
        # Shared events, per-trace span identity.
        assert first.trace_id != second.trace_id
        assert first.find("plan").span_id != second.find("plan").span_id

    def test_worker_span_reports_pid_and_context(self):
        ctx = (12345, 67890)
        span = worker_span(ctx, shard=2, start_s=1.0, end_s=1.5, queries=8)
        assert span["name"] == "shard_worker"
        assert span["parent_id"] == 67890
        assert span["shard"] == 2
        assert span["attrs"]["pid"] == os.getpid()
        assert span["attrs"]["queries"] == 8

    def test_format_orders_siblings_by_start_time(self):
        tracer = Tracer(clock=lambda: 0.0)
        trace = tracer.start_request("q", start_s=0.0)
        trace.add_span("late", 2.0, 3.0)
        trace.admission_end_s = 0.5
        trace.queue_depth = 1
        trace.finish_ok(3.0)
        rendered = trace.format()
        lines = [line.strip() for line in rendered.splitlines()]
        # admission (starts at 0.0) must print before "late" (starts 2.0)
        # even though it was synthesised after the direct record.
        assert lines.index("- admission 500.000ms (queue_depth=1)") < (
            lines.index("- late 1000.000ms")
        )


class TestFlightRecorder:
    def _trace(self, tracer, status=STATUS_OK, duration=0.0):
        trace = tracer.start_request(0, start_s=0.0)
        trace.finish(status, end_s=duration)
        return trace

    def test_keep_rules(self):
        recorder = FlightRecorder(capacity=64, sample_every=4, slow_s=1.0)
        tracer = Tracer(clock=lambda: 0.0, recorder=recorder)
        for _ in range(8):
            self._trace(tracer)  # ordinary: kept 1-in-4
        self._trace(tracer, status=STATUS_SHED)  # always kept
        self._trace(tracer, duration=2.0)  # slow: always kept
        stats = recorder.stats()
        assert stats["kept_sampled"] == 2.0  # seen counters 0 and 4
        assert stats["kept_not_ok"] == 1.0
        assert stats["kept_slow"] == 1.0
        assert stats["seen"] == 10.0
        assert len(recorder) == 4

    def test_ring_is_bounded_and_drops_oldest(self):
        recorder = FlightRecorder(capacity=8, sample_every=1, slow_s=None)
        tracer = Tracer(clock=lambda: 0.0, recorder=recorder)
        traces = [self._trace(tracer, duration=i) for i in range(50)]
        assert len(recorder) == 8
        assert recorder.dump() == traces[-8:]
        assert recorder.slowest() is traces[-1]

    def test_find_and_explain_fallbacks(self):
        recorder = FlightRecorder(capacity=8, sample_every=1, slow_s=None)
        tracer = Tracer(clock=lambda: 0.0, recorder=recorder)
        trace = self._trace(tracer)
        assert recorder.find(trace.trace_id) is trace
        assert recorder.find(1234) is None
        assert "not in the flight recorder" in recorder.explain(1234)
        assert "no trace attached" in recorder.explain(object())
        assert recorder.explain(trace).startswith("trace ")

    def test_clear_resets_all_state(self):
        recorder = FlightRecorder(capacity=8, sample_every=1, slow_s=None)
        tracer = Tracer(clock=lambda: 0.0, recorder=recorder)
        self._trace(tracer)
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.seen == 0
        assert recorder.stats()["kept_sampled"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(sample_every=0)


class TestTracedGatewayStaysExact:
    def test_tracing_does_not_change_results(self, clustered):
        queries, services = clustered
        plain = ShardedGateway(
            VersionedEmbeddingStore(
                queries, services, num_shards=NUM_SHARDS
            ),
            index="exact",
            workers="serial",
            top_k=5,
            cache_capacity=0,
        )
        traced = traced_sharded_gateway(clustered, workers="serial")
        try:
            expected = [plain.search(i, 5) for i in range(12)]
            drive = []

            async def run():
                for i in range(12):
                    drive.append(await traced.search_async(i))
                await traced.stop_async()

            asyncio.run(run())
            for (ids_a, scores_a), (ids_b, scores_b) in zip(
                expected, drive
            ):
                np.testing.assert_array_equal(ids_a, ids_b)
                np.testing.assert_allclose(scores_a, scores_b)
        finally:
            plain.close()
            traced.close()
