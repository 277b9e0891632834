"""Tests for the gateway-backed A/B tier (``repro.serving.abtest``).

Covers the deterministic bucket router (hash stability across instances
and salts, split-fraction accuracy, string ids, arm routing), the
per-bucket telemetry tags threaded through the scheduler/gateway layers
(tagged request/shed attribution, sums-to-totals decomposition, A/A
separability on one shared gateway), and the end-to-end
:class:`OnlineABExperiment` (joint CTR + cost report, seed determinism,
single-process vs sharded arm parity, async/sync ranking parity).
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


def run_experiment(router, **config_kwargs) -> tuple:
    defaults = dict(num_days=2, sessions_per_day=150, top_k=5,
                    rate_qps=None, seed=3)
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
# Per-bucket telemetry tags (scheduler + gateway layers)
# --------------------------------------------------------------------- #
class TestBucketTelemetryTags:
    def test_tagged_sync_requests_land_in_bucket_rows(self):
        gateway = make_gateway(rank_good_first=True)
        try:
            for query_id in range(6):
                gateway.search(query_id, tag="control" if query_id % 2 else "treatment")
            rows = {row["bucket"]: row for row in gateway.telemetry.bucket_rows()}
            assert rows["control"]["requests"] == 3.0
            assert rows["treatment"]["requests"] == 3.0
            assert sum(row["requests"] for row in rows.values()) == (
                gateway.summary()["requests"]
            )
            assert np.isfinite(rows["control"]["p99_ms"])
        finally:
            gateway.close()

    def test_untagged_requests_keep_bucket_rows_empty(self):
        gateway = make_gateway(rank_good_first=True)
        try:
            gateway.search(0)
            assert gateway.telemetry.bucket_rows() == []
            assert gateway.summary()["requests"] == 1.0
        finally:
            gateway.close()

    def test_aa_test_on_one_gateway_separates_tags(self):
        gateway = make_gateway(rank_good_first=True)
        try:

            async def drive():
                await asyncio.gather(*[
                    gateway.search_async(i, tag="a" if i < 4 else "b")
                    for i in range(10)
                ])
                await gateway.stop_async()

            asyncio.run(drive())
            rows = {row["bucket"]: row for row in gateway.telemetry.bucket_rows()}
            assert rows["a"]["requests"] == 4.0
            assert rows["b"]["requests"] == 6.0
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
            await scheduler.submit(0, 5, deadline_s=0.05, tag="treatment")
            await scheduler.submit(1, 5, tag="control")
            with pytest.raises(OverloadError):
                await scheduler.submit(2, 5, tag="treatment")
            clock_now[0] = 1.0  # expire the first request's deadline
            await scheduler.flush()

        asyncio.run(drive())
        rows = {row["bucket"]: row for row in telemetry.bucket_rows()}
        # Answered-request latency is recorded by the gateway layer; at the
        # raw scheduler level only the shed events carry tags — and both
        # land on the bucket that actually suffered them.
        assert rows["treatment"]["overload_rejections"] == 1.0
        assert rows["treatment"]["deadline_misses"] == 1.0
        assert "control" not in rows
        summary = telemetry.summary()
        assert summary["overload_rejections"] == 1.0
        assert summary["deadline_misses"] == 1.0

    def test_cancelled_requests_attributed_to_tag(self):
        telemetry = GatewayTelemetry()
        scheduler = AsyncBatchScheduler(
            lambda batch: [0 for _ in batch],
            max_batch_size=8, max_wait_s=0.01, telemetry=telemetry,
        )

        async def drive():
            doomed = await scheduler.submit(0, 5, tag="treatment")
            await scheduler.submit(1, 5, tag="control")
            doomed.cancel()
            await scheduler.flush()

        asyncio.run(drive())
        rows = {row["bucket"]: row for row in telemetry.bucket_rows()}
        assert rows["treatment"]["cancelled_requests"] == 1.0
        assert telemetry.summary()["cancelled_requests"] == 1.0


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
            # Cost rows: one per bucket, finite latency, routed counts match.
            cost = {row["bucket"]: row for row in report.cost_rows()}
            assert set(cost) == {"control", "treatment"}
            for bucket, row in cost.items():
                assert row["requests"] == report.sessions[bucket]
                assert np.isfinite(row["p99_ms"])
                assert row["qps"] > 0
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
                outcomes.append((
                    [(m.impressions, m.clicks, m.conversions)
                     for bucket in report.buckets for m in report.daily[bucket]],
                    dict(report.sessions),
                ))
            finally:
                close_arms(router)
        assert outcomes[0] == outcomes[1]

    def test_telemetry_sums_to_gateway_totals(self):
        router = make_router(split=0.3)
        try:
            _, report = run_experiment(router)
            bucket_requests = sum(row["requests"] for row in report.cost)
            gateway_requests = sum(
                gateway.summary()["requests"] for gateway in router.unique_arms()
            )
            assert bucket_requests == gateway_requests
            assert bucket_requests == sum(report.sessions.values())
        finally:
            close_arms(router)

    def test_shared_gateway_aa_experiment(self):
        gateway = make_gateway(rank_good_first=True)
        router = BucketRouter({"control": 0.5, "treatment": 0.5},
                              arms={"control": gateway, "treatment": gateway},
                              salt=11)
        try:
            _, report = run_experiment(router)
            cost = {row["bucket"]: row for row in report.cost_rows()}
            assert set(cost) == {"control", "treatment"}
            assert cost["control"]["requests"] == report.sessions["control"]
            assert cost["treatment"]["requests"] == report.sessions["treatment"]
            # One shared arm: the telemetry decomposes one gateway's totals.
            assert (cost["control"]["requests"] + cost["treatment"]["requests"]
                    == gateway.summary()["requests"])
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
                ledgers.append([
                    (m.impressions, m.clicks, m.conversions)
                    for bucket in report.buckets for m in report.daily[bucket]
                ])
            finally:
                close_arms(router)
        assert ledgers[0] == ledgers[1]

    def test_poisson_paced_replay_matches_burst_ctr(self):
        # Open-loop pacing changes *when* requests land, not what they
        # return or how sessions click — the quality ledger is identical.
        ledgers = []
        for rate_qps in (None, 5_000.0):
            router = make_router(split=0.5)
            try:
                _, report = run_experiment(router, num_days=1,
                                           sessions_per_day=80,
                                           rate_qps=rate_qps)
                ledgers.append([
                    (m.impressions, m.clicks, m.conversions)
                    for bucket in report.buckets for m in report.daily[bucket]
                ])
            finally:
                close_arms(router)
        assert ledgers[0] == ledgers[1]

    def test_async_routing_matches_sync_ranking(self):
        gateway = make_gateway(rank_good_first=True)
        try:

            async def ranked_async():
                ids, _ = await gateway.search_async(3, k=5, tag="treatment")
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
            ABExperimentConfig(rate_qps=-1.0)
        with pytest.raises(ValueError):
            ABExperimentConfig(top_k=9)  # beyond the default position bias

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
        import json

        router = make_router(split=0.5)
        try:
            _, report = run_experiment(router, num_days=1, sessions_per_day=60)
            payload = report.as_payload()
            json.dumps(payload)  # must round-trip without numpy scalars
            assert payload["buckets"] == ["control", "treatment"]
            assert len(payload["joint_rows"]) == 1
            assert len(payload["cost_rows"]) == 2
            assert payload["sessions"]["control"] + payload["sessions"]["treatment"] == 60
            summary = report.summary()
            assert summary["sessions_total"] == 60.0
            assert np.isfinite(summary["absolute_ctr_gain_pp"])
            assert summary["replay_wall_s"] > 0
        finally:
            close_arms(router)

    def test_shed_sessions_produce_no_impressions(self):
        # A deadline of zero sheds every session before scoring: quality
        # collapses to zero impressions while the shed counters fill — the
        # serving-cost/quality coupling the joint report exists to expose.
        router = make_router(split=0.5)
        try:
            _, report = run_experiment(router, num_days=1, sessions_per_day=40,
                                       deadline_s=0.0)
            assert sum(report.shed.values()) == 40
            for bucket in report.buckets:
                assert all(day.impressions == 0 for day in report.daily[bucket])
            cost = {row["bucket"]: row for row in report.cost_rows()}
            assert sum(row["deadline_misses"] for row in cost.values()) == 40
        finally:
            close_arms(router)
