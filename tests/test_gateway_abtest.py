"""Tests for the gateway-backed A/B tier (``repro.serving.abtest``).

Covers the deterministic bucket router (hash stability across instances
and salts, split-fraction accuracy, string ids, arm routing), the request
ledger the arms' telemetry keeps (every offered request counted exactly
once as answered, shed or cancelled, through the scheduler and gateway
layers), and the end-to-end :class:`OnlineABExperiment` (CTR report, seed
determinism, completion-order independence, single-process vs sharded arm
parity, async/sync ranking parity, shed sessions).
"""

import asyncio

import numpy as np
import pytest

from repro.serving.abtest import (
    ABExperimentConfig,
    BucketRouter,
    OnlineABExperiment,
    close_arms,
)
from repro.serving.gateway import (
    AsyncBatchScheduler,
    GatewayTelemetry,
    OverloadError,
    ServingGateway,
    VersionedEmbeddingStore,
)
from repro.serving.sharded import ShardedGateway

# Every test stops the threads it starts: see conftest.py.
pytestmark = pytest.mark.usefixtures("no_leaked_threads_or_pins")

DIM = 8
NUM_QUERIES = 40
NUM_SERVICES = 30
GOOD_SERVICES = np.arange(NUM_SERVICES // 2)  # the high-click half


class StubDataset:
    """Duck-typed stand-in: uniform query traffic over NUM_QUERIES ids."""

    num_queries = NUM_QUERIES

    def query_frequencies(self):
        return np.ones(NUM_QUERIES)


class StubOracle:
    """Clicks love the first half of the catalogue, shun the second."""

    def click_probability(self, query_ids, service_ids):
        return np.where(np.isin(service_ids, GOOD_SERVICES), 0.8, 0.05)

    def conversion_probability(self, query_ids, service_ids):
        return np.full(len(np.asarray(service_ids)), 0.5)


def make_embeddings(rank_good_first: bool, seed: int = 0):
    """Queries on axis 0; services scored high on the chosen half."""
    rng = np.random.default_rng(seed)
    queries = np.tile(np.eye(DIM)[0], (NUM_QUERIES, 1))
    services = rng.normal(0.0, 0.01, size=(NUM_SERVICES, DIM))
    services[:, 0] = 0.0
    favoured = GOOD_SERVICES if rank_good_first else np.arange(
        NUM_SERVICES // 2, NUM_SERVICES)
    services[favoured, 0] = 1.0
    return queries, services


def make_gateway(rank_good_first: bool, num_shards: int = 1, seed: int = 0,
                 **kwargs):
    queries, services = make_embeddings(rank_good_first, seed=seed)
    store = VersionedEmbeddingStore(queries, services, num_shards=max(1, num_shards))
    if num_shards > 1:
        return ShardedGateway(store, index="exact", workers="serial",
                              top_k=5, cache_capacity=0, **kwargs)
    return ServingGateway(store, index="exact", top_k=5, cache_capacity=0,
                          **kwargs)


def make_router(control_gateway=None, treatment_gateway=None,
                split=0.5, salt=7):
    control_gateway = control_gateway or make_gateway(rank_good_first=False)
    treatment_gateway = treatment_gateway or make_gateway(rank_good_first=True)
    return BucketRouter(
        {"control": 1.0 - split, "treatment": split},
        arms={"control": control_gateway, "treatment": treatment_gateway},
        salt=salt,
    )


def ledger(report) -> list:
    """Every bucket's per-day click counters, in bucket order."""
    return [(m.impressions, m.clicks, m.conversions)
            for bucket in report.buckets for m in report.daily[bucket]]


def offered(telemetry) -> float:
    """Answered + shed + cancelled: every request the telemetry saw."""
    summary = telemetry.summary()
    return (summary["requests"] + summary["overload_rejections"]
            + summary["deadline_misses"] + summary["cancelled_requests"])


def run_experiment(router, **config_kwargs) -> tuple:
    defaults = dict(num_days=2, sessions_per_day=150, top_k=5, seed=3)
    defaults.update(config_kwargs)
    experiment = OnlineABExperiment(StubDataset(), StubOracle(), router,
                                    ABExperimentConfig(**defaults))
    report = experiment.run()
    return experiment, report


# --------------------------------------------------------------------- #
# BucketRouter
# --------------------------------------------------------------------- #
class TestBucketRouter:
    def test_split_validation(self):
        with pytest.raises(ValueError):
            BucketRouter({})
        with pytest.raises(ValueError):
            BucketRouter({"a": 0.5, "b": 0.6})
        with pytest.raises(ValueError):
            BucketRouter({"a": 1.2, "b": -0.2})

    def test_assignment_deterministic_across_instances(self):
        ids = np.arange(5_000)
        first = BucketRouter({"control": 0.9, "treatment": 0.1}, salt=42)
        second = BucketRouter({"control": 0.9, "treatment": 0.1}, salt=42)
        np.testing.assert_array_equal(first.assign_indices(ids),
                                      second.assign_indices(ids))

    def test_salt_rebuckets_the_population(self):
        ids = np.arange(5_000)
        base = BucketRouter({"a": 0.5, "b": 0.5}, salt=1).assign_indices(ids)
        other = BucketRouter({"a": 0.5, "b": 0.5}, salt=2).assign_indices(ids)
        assert not np.array_equal(base, other)
        # Roughly half the population moves under an independent re-split.
        moved = (base != other).mean()
        assert 0.3 < moved < 0.7

    def test_split_fractions_respected(self):
        ids = np.arange(50_000)
        router = BucketRouter({"control": 0.9, "treatment": 0.1}, salt=0)
        counts = np.bincount(router.assign_indices(ids), minlength=2)
        assert counts[0] / len(ids) == pytest.approx(0.9, abs=0.01)
        assert counts[1] / len(ids) == pytest.approx(0.1, abs=0.01)

    def test_scalar_assign_matches_vectorised(self):
        router = BucketRouter({"a": 0.3, "b": 0.7}, salt=5)
        ids = list(range(64))
        assert [router.assign(i) for i in ids] == router.assign_many(ids)

    def test_string_session_ids_hash_deterministically(self):
        router = BucketRouter({"a": 0.5, "b": 0.5}, salt="exp-42")
        users = [f"user-{i}" for i in range(200)]
        assert router.assign_many(users) == router.assign_many(users)
        assert {"a", "b"} == set(router.assign_many(users))

    def test_route_returns_bucket_and_arm(self):
        control, treatment = object(), object()
        router = BucketRouter({"control": 0.5, "treatment": 0.5},
                              arms={"control": control, "treatment": treatment},
                              salt=3)
        bucket, arm = router.route(123)
        assert arm is (control if bucket == "control" else treatment)
        with pytest.raises(KeyError):
            router.arm("nope")

    def test_arms_must_match_split_buckets(self):
        with pytest.raises(ValueError):
            BucketRouter({"control": 0.5, "treatment": 0.5},
                         arms={"control": object()})

    def test_router_without_arms_refuses_routing(self):
        router = BucketRouter({"a": 1.0})
        with pytest.raises(ValueError):
            router.arm("a")
        assert router.unique_arms() == []


# --------------------------------------------------------------------- #
# The request ledger (scheduler + gateway layers)
# --------------------------------------------------------------------- #
class TestBucketTelemetryTags:
    """Each request is counted exactly once: answered + shed + cancelled
    = offered, in ``summary()`` and ``health()`` alike."""

    def test_tagged_sync_requests_land_in_bucket_rows(self):
        gateway = make_gateway(rank_good_first=True)
        try:
            for query_id in range(6):
                gateway.search(query_id)
            assert gateway.summary()["requests"] == 6.0
            assert gateway.health().requests == 6.0
            assert offered(gateway.telemetry) == 6.0
            assert np.isfinite(gateway.summary()["p99_ms"])
            # A request carries no tag: passing one is a TypeError, and
            # nothing was admitted for it.
            with pytest.raises(TypeError):
                gateway.search(0, tag="treatment")
            assert offered(gateway.telemetry) == 6.0
        finally:
            gateway.close()

    def test_untagged_requests_keep_bucket_rows_empty(self):
        gateway = make_gateway(rank_good_first=True)
        try:
            gateway.search(0)
            assert gateway.summary()["requests"] == 1.0
            assert not hasattr(gateway.telemetry, "bucket_rows")
            # The exposition holds gateway-level families only.
            assert "gateway_bucket" not in gateway.telemetry.export_prometheus()
        finally:
            gateway.close()

    def test_aa_test_on_one_gateway_separates_tags(self):
        gateway = make_gateway(rank_good_first=True)
        try:

            async def drive():
                await asyncio.gather(*[
                    gateway.search_async(i) for i in range(10)
                ])
                await gateway.stop_async()

            asyncio.run(drive())
            health = gateway.health()
            assert gateway.summary()["requests"] == 10.0
            assert health.requests == 10.0 and health.shed_rate == 0.0
            assert offered(gateway.telemetry) == 10.0
        finally:
            gateway.close()

    def test_overload_and_deadline_shed_attributed_to_tag(self):
        clock_now = [0.0]
        telemetry = GatewayTelemetry(clock=lambda: clock_now[0])
        scheduler = AsyncBatchScheduler(
            lambda batch: [0 for _ in batch],
            max_batch_size=8, max_wait_s=0.01, max_queue=2,
            overload="reject", clock=lambda: clock_now[0],
            telemetry=telemetry,
        )

        async def drive():
            await scheduler.submit(0, 5, deadline_s=0.05)
            await scheduler.submit(1, 5)
            with pytest.raises(OverloadError):
                await scheduler.submit(2, 5)
            clock_now[0] = 1.0  # expire the first request's deadline
            await scheduler.flush()

        asyncio.run(drive())
        # Answered-request latency is recorded by the gateway layer; at the
        # raw scheduler level each shed event is counted once.
        summary = telemetry.summary()
        assert summary["overload_rejections"] == 1.0
        assert summary["deadline_misses"] == 1.0
        assert scheduler.overload_rejections == 1
        assert scheduler.deadline_misses == 1
        health = telemetry.health()
        assert health.overload_rejections + health.deadline_misses == 2.0

    def test_cancelled_requests_attributed_to_tag(self):
        telemetry = GatewayTelemetry()
        scheduler = AsyncBatchScheduler(
            lambda batch: [0 for _ in batch],
            max_batch_size=8, max_wait_s=0.01, telemetry=telemetry,
        )

        async def drive():
            doomed = await scheduler.submit(0, 5)
            survivor = await scheduler.submit(1, 5)
            doomed.cancel()
            await scheduler.flush()
            return survivor

        survivor = asyncio.run(drive())
        assert survivor.done and not survivor.cancelled
        assert telemetry.summary()["cancelled_requests"] == 1.0
        assert telemetry.health().cancelled_requests == 1.0
        assert scheduler.cancelled_requests == 1
        # Requests are recorded by the gateway layer: one offered request
        # at this level, the cancelled one.
        assert offered(telemetry) == 1.0


# --------------------------------------------------------------------- #
# OnlineABExperiment end-to-end
# --------------------------------------------------------------------- #
class TestOnlineABExperiment:
    def test_joint_report_quality_and_cost(self):
        router = make_router(split=0.5)
        try:
            _, report = run_experiment(router)
            assert len(report.days) == 2
            # Both buckets received traffic and produced impressions.
            assert report.sessions["control"] > 0
            assert report.sessions["treatment"] > 0
            for bucket in report.buckets:
                assert all(day.impressions > 0 for day in report.daily[bucket])
            # The constructed quality gap shows up as a positive CTR delta.
            assert all(value > 0 for value in report.ctr_improvement())
            assert all(np.isfinite(value) for value in report.ctr_improvement())
            assert report.ab_result().absolute_ctr_gain() > 0
            # Each arm answered exactly the sessions routed to it.
            for bucket in report.buckets:
                arm = router.arm(bucket)
                assert arm.summary()["requests"] == report.sessions[bucket]
                assert report.shed[bucket] == 0
            rows = report.joint_rows()
            assert len(rows) == 2 and "ctr_improvement_pct" in rows[0]
        finally:
            close_arms(router)

    def test_deterministic_at_one_seed(self):
        outcomes = []
        for _ in range(2):
            router = make_router(split=0.5)
            try:
                _, report = run_experiment(router)
                outcomes.append((ledger(report), dict(report.sessions)))
            finally:
                close_arms(router)
        assert outcomes[0] == outcomes[1]

    def test_telemetry_sums_to_gateway_totals(self):
        # Under admission control some sessions are shed; answered plus
        # shed still accounts for every session routed.
        router = make_router(
            control_gateway=make_gateway(False, max_queue=8, overload="reject"),
            treatment_gateway=make_gateway(True),
            split=0.3,
        )
        try:
            _, report = run_experiment(router)
            arms = router.unique_arms()
            answered = sum(arm.summary()["requests"] for arm in arms)
            shed = sum(arm.summary()["overload_rejections"]
                       + arm.summary()["deadline_misses"] for arm in arms)
            assert answered + shed == sum(report.sessions.values())
            assert shed == sum(report.shed.values())
            assert report.shed["control"] > 0 and report.shed["treatment"] == 0
        finally:
            close_arms(router)

    def test_shared_gateway_aa_experiment(self):
        gateway = make_gateway(rank_good_first=True)
        router = BucketRouter({"control": 0.5, "treatment": 0.5},
                              arms={"control": gateway, "treatment": gateway},
                              salt=11)
        try:
            _, report = run_experiment(router)
            assert report.sessions["control"] > 0
            assert report.sessions["treatment"] > 0
            # One shared arm answered both buckets' sessions, once each.
            assert (gateway.summary()["requests"] + sum(report.shed.values())
                    == sum(report.sessions.values()))
            assert offered(gateway.telemetry) == sum(report.sessions.values())
            # Both buckets were served.
            for bucket in report.buckets:
                assert all(day.impressions > 0 for day in report.daily[bucket])
        finally:
            gateway.close()

    def test_sharded_arms_reproduce_single_process_ctr(self):
        # Exact per-shard scans + exact merge are bit-identical to the
        # single-process index, and clicks are seeded per session — so the
        # whole CTR ledger must match between deployments.
        ledgers = []
        for num_shards in (1, 3):
            router = make_router(
                control_gateway=make_gateway(False, num_shards=num_shards),
                treatment_gateway=make_gateway(True, num_shards=num_shards),
            )
            try:
                _, report = run_experiment(router)
                ledgers.append(ledger(report))
            finally:
                close_arms(router)
        assert ledgers[0] == ledgers[1]

    def test_poisson_paced_replay_matches_burst_ctr(self):
        # A two-day burst replay is reproducible, and its quality ledger
        # does not depend on the order completions land in: batches of one
        # complete session by session, while offloaded scoring keeps two
        # batches in flight on worker threads.
        ledgers = []
        for arm_kwargs in ({}, {}, {"max_batch_size": 1},
                           {"max_batch_size": 7, "cpu_executor": "thread"}):
            router = make_router(
                control_gateway=make_gateway(False, **arm_kwargs),
                treatment_gateway=make_gateway(True, **arm_kwargs),
                split=0.5,
            )
            try:
                _, report = run_experiment(router, num_days=2,
                                           sessions_per_day=80)
                ledgers.append((ledger(report), dict(report.sessions)))
            finally:
                close_arms(router)
        assert all(entry == ledgers[0] for entry in ledgers[1:])

    def test_async_routing_matches_sync_ranking(self):
        gateway = make_gateway(rank_good_first=True)
        try:

            async def ranked_async():
                ids, _ = await gateway.search_async(3, k=5)
                await gateway.stop_async()
                return list(ids)

            async_ids = asyncio.run(ranked_async())
            sync_ids, _ = gateway.search(3, k=5)
            assert async_ids == list(sync_ids)
        finally:
            gateway.close()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ABExperimentConfig(num_days=0)
        with pytest.raises(ValueError):
            ABExperimentConfig(sessions_per_day=0)
        with pytest.raises(ValueError):
            ABExperimentConfig(top_k=9)  # beyond the default position bias
        # Every day is one burst: there is no pacing or deadline to set.
        for removed in ("rate_qps", "deadline_s", "load_shape",
                        "spike_factor", "spike_start", "spike_width"):
            with pytest.raises(TypeError):
                ABExperimentConfig(**{removed: 1.0})

    def test_experiment_requires_arms_and_known_roles(self):
        armless = BucketRouter({"control": 0.5, "treatment": 0.5})
        with pytest.raises(ValueError):
            OnlineABExperiment(StubDataset(), StubOracle(), armless)
        router = make_router()
        try:
            with pytest.raises(ValueError):
                OnlineABExperiment(
                    StubDataset(), StubOracle(), router,
                    ABExperimentConfig(control="nope"),
                )
        finally:
            close_arms(router)

    def test_payload_and_summary_are_json_ready(self):
        # What Fig. 10 writes to its results file — the joint rows, both
        # improvement series and the shed counts — round-trips through JSON
        # without numpy scalars.
        import json

        router = make_router(split=0.5)
        try:
            _, report = run_experiment(router, num_days=1, sessions_per_day=60)
            payload = {
                "rows": report.joint_rows(),
                "ctr_improvement_pct": report.ctr_improvement(),
                "valid_ctr_improvement_pct": report.valid_ctr_improvement(),
                "sessions_shed": [float(report.shed[bucket])
                                  for bucket in report.buckets],
            }
            assert json.loads(json.dumps(payload)) == payload
            assert report.buckets == ("control", "treatment")
            assert len(payload["rows"]) == 1
            assert report.sessions["control"] + report.sessions["treatment"] == 60
            assert np.isfinite(report.ab_result().absolute_ctr_gain())
        finally:
            close_arms(router)

    def test_shed_sessions_produce_no_impressions(self):
        # Arms whose every request carries a zero deadline shed each
        # session before scoring: quality collapses to zero impressions
        # while the shed counters fill.
        router = make_router(
            control_gateway=make_gateway(False, default_deadline_s=0.0),
            treatment_gateway=make_gateway(True, default_deadline_s=0.0),
            split=0.5,
        )
        try:
            _, report = run_experiment(router, num_days=1, sessions_per_day=40)
            assert sum(report.shed.values()) == 40
            for bucket in report.buckets:
                assert all(day.impressions == 0 for day in report.daily[bucket])
                arm = router.arm(bucket)
                assert arm.summary()["deadline_misses"] == report.shed[bucket]
                assert arm.summary()["requests"] == 0.0
        finally:
            close_arms(router)
