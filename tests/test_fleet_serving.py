"""Tests for the replicated gateway fleet (``repro.serving.fleet``).

Covers the shared hashing primitive (rendezvous determinism, balance,
weights, and the BucketRouter refit cross-check), the health policy's
hysteresis state machine, the router's routing/fallback/failover
semantics, the chaos controller (kill / stall / slow, seeded storms),
trace grafting, and the fleet-as-A/B-arm integration.  The randomized
minimal-disruption and no-double-count properties live in
``tests/test_fleet_properties.py``.
"""

import asyncio
import gc
import weakref

import numpy as np
import pytest

from repro.serving.abtest import (
    ABExperimentConfig,
    BucketRouter,
    OnlineABExperiment,
)
from repro.serving.fleet import (
    ChaosController,
    ChaosEvent,
    FleetReplica,
    FleetRouter,
    FleetUnavailableError,
    HealthPolicy,
    ReplicaHealth,
    deploy_fleet,
    rendezvous_choose,
    rendezvous_rank,
)
from repro.serving.gateway import (
    DeadlineExceededError,
    OverloadError,
    ServingGateway,
    VersionedEmbeddingStore,
    flash_crowd_gaps,
    poisson_gaps,
)
from repro.serving.obs.health import HealthSnapshot
from repro.serving.obs.ids import ids_to_u64, key_to_u64, mix64, splitmix64

# Every test stops the threads it starts: see conftest.py.
pytestmark = pytest.mark.usefixtures("no_leaked_threads_or_pins")

DIM = 8
NUM_QUERIES = 40
NUM_SERVICES = 30


def make_store(seed: int = 0, num_queries: int = NUM_QUERIES) -> VersionedEmbeddingStore:
    rng = np.random.default_rng(seed)
    queries = rng.normal(size=(num_queries, DIM))
    services = rng.normal(size=(NUM_SERVICES, DIM))
    return VersionedEmbeddingStore(queries, services)


def make_fleet(num_replicas: int = 3, store=None, policy=None,
               max_failovers: int = 1, fleet_salt: int = 0,
               **gateway_kwargs) -> FleetRouter:
    store = store if store is not None else make_store()
    gateway_kwargs.setdefault("index", "exact")
    gateway_kwargs.setdefault("top_k", 5)
    gateway_kwargs.setdefault("max_batch_size", 8)
    gateway_kwargs.setdefault("max_wait_s", 0.001)
    gateway_kwargs.setdefault("cache_capacity", 0)
    gateways = {
        f"replica-{i}": ServingGateway(store, **gateway_kwargs)
        for i in range(num_replicas)
    }
    return FleetRouter(gateways, policy=policy, salt=fleet_salt,
                       max_failovers=max_failovers)


def run(coro):
    return asyncio.run(coro)


async def drive_fleet(fleet, session_ids, deadline_s=None, tag=None):
    """Drive sessions through the fleet; returns (answered, shed, missed)."""
    answered = shed = missed = 0
    for session_id in session_ids:
        try:
            await fleet.search_async(int(session_id) % NUM_QUERIES,
                                     deadline_s=deadline_s, tag=tag,
                                     session_id=int(session_id))
        except OverloadError:
            shed += 1
        except DeadlineExceededError:
            missed += 1
        else:
            answered += 1
    return answered, shed, missed


# --------------------------------------------------------------------- #
# Rendezvous hashing
# --------------------------------------------------------------------- #
class TestRendezvousHashing:
    def test_deterministic_and_salt_sensitive(self):
        nodes = ["a", "b", "c", "d"]
        picks = [rendezvous_choose(key, nodes) for key in range(200)]
        again = [rendezvous_choose(key, nodes) for key in range(200)]
        assert picks == again
        salted = [rendezvous_choose(key, nodes, salt=99) for key in range(200)]
        assert picks != salted

    def test_roughly_balanced(self):
        nodes = ["a", "b", "c", "d"]
        counts = {node: 0 for node in nodes}
        for key in range(8_000):
            counts[rendezvous_choose(key, nodes)] += 1
        for node in nodes:
            assert 0.8 * 2_000 < counts[node] < 1.2 * 2_000

    def test_rank_head_is_choice(self):
        nodes = ["a", "b", "c"]
        for key in range(100):
            assert rendezvous_rank(key, nodes)[0] == rendezvous_choose(key, nodes)

    def test_minimal_disruption_on_removal(self):
        nodes = ["a", "b", "c", "d"]
        keys = list(range(2_000))
        before = {key: rendezvous_choose(key, nodes) for key in keys}
        survivors = [node for node in nodes if node != "b"]
        for key in keys:
            after = rendezvous_choose(key, survivors)
            if before[key] != "b":
                assert after == before[key]

    def test_weights_skew_placement(self):
        nodes = ["small", "big"]
        counts = {node: 0 for node in nodes}
        for key in range(9_000):
            counts[rendezvous_choose(key, nodes, weights=[1.0, 2.0])] += 1
        share = counts["big"] / 9_000
        assert 0.60 < share < 0.73  # expected 2/3

    def test_validation(self):
        with pytest.raises(ValueError):
            rendezvous_choose(1, [])
        with pytest.raises(ValueError):
            rendezvous_choose(1, ["a", "b"], weights=[1.0])
        with pytest.raises(ValueError):
            rendezvous_rank(1, ["a"], weights=[0.0])


class TestSharedPrimitiveRefit:
    def test_bucket_fractions_match_legacy_formula(self):
        """The mix64 refit reproduces the pre-refactor hash bit for bit."""
        ids = np.arange(5_000)
        for salt in (0, 7, 42, "exp-2022-10"):
            router = BucketRouter({"control": 0.9, "treatment": 0.1}, salt=salt)
            # The legacy formula, inlined: finalise the salt, xor, finalise.
            legacy_salt = splitmix64(np.asarray([key_to_u64(salt)],
                                                dtype=np.uint64))[0]
            legacy = splitmix64(ids_to_u64(ids) ^ legacy_salt)
            expected = legacy.astype(np.float64) / float(2**64)
            np.testing.assert_array_equal(router.fractions(ids), expected)

    def test_bucket_assignments_pinned_at_fixed_seed(self):
        """Frozen assignments: a hash change would re-bucket real logs."""
        router = BucketRouter({"control": 0.9, "treatment": 0.1}, salt=42)
        assignments = router.assign_many([0, 1, 2, 3, 4, 17, 1234, 99999])
        assert assignments == [
            "control", "treatment", "control", "treatment",
            "control", "treatment", "control", "control",
        ]

    def test_mix64_matches_scalar_and_vector(self):
        from repro.serving.obs.ids import mix64_int

        values = np.arange(100, dtype=np.uint64)
        vector = mix64(values, salt=123)
        for value, mixed in zip(values, vector):
            assert mix64_int(int(value), 123) == int(mixed)


# --------------------------------------------------------------------- #
# Health policy + hysteresis
# --------------------------------------------------------------------- #
class TestHealthPolicy:
    def test_soft_score_terms(self):
        policy = HealthPolicy(queue_budget=10.0, shed_budget=0.5)
        assert policy.soft_score(0, 10, 0) == 0.0
        assert policy.soft_score(5, 10, 0) == pytest.approx(0.5)
        assert policy.soft_score(0, 5, 5) == pytest.approx(1.0)  # 50% shed
        assert policy.soft_score(20, 0, 0) == pytest.approx(2.0)

    def test_hysteresis_band_must_have_width(self):
        with pytest.raises(ValueError):
            HealthPolicy(eject_score=1.0, readmit_score=1.0)

    def test_eject_requires_consecutive_bad_probes(self):
        policy = HealthPolicy(eject_after=2, readmit_after=2)
        health = ReplicaHealth()
        assert health.observe(policy, 2.0, 0.0) == ""
        assert health.observe(policy, 0.0, 0.0) == ""  # streak broken
        assert health.observe(policy, 2.0, 0.0) == ""
        assert health.observe(policy, 2.0, 0.0) == "eject"
        assert not health.up
        assert health.reason == "degraded"

    def test_readmit_requires_consecutive_good_probes(self):
        policy = HealthPolicy(eject_after=1, readmit_after=2,
                              readmit_score=0.5)
        health = ReplicaHealth()
        assert health.observe(policy, 2.0, 0.0) == "eject"
        assert health.observe(policy, 0.0, 0.0) == ""
        assert health.observe(policy, 0.8, 0.0) == ""  # in-band: resets
        assert health.observe(policy, 0.0, 0.0) == ""
        assert health.observe(policy, 0.0, 0.0) == "readmit"
        assert health.up and health.reason == ""

    def test_observe_allow_eject_false_suppresses_soft_ejection(self):
        policy = HealthPolicy(eject_after=2)
        health = ReplicaHealth()
        for _ in range(5):
            assert health.observe(policy, 2.0, 0.0, allow_eject=False) == ""
        assert health.up
        assert health.bad_streak == policy.eject_after  # stays saturated
        # The first bad probe after the guard lifts ejects immediately.
        assert health.observe(policy, 2.0, 0.0) == "eject"

    def test_mark_dead_is_immediate_and_idempotent(self):
        health = ReplicaHealth()
        assert health.mark_dead() is True
        assert health.mark_dead() is False  # already ejected: counted once
        assert health.reason == "dead"

    def test_pressure_is_worst_budget_utilisation(self):
        snapshot = HealthSnapshot(
            requests=100, qps=10.0, p50_ms=1.0, p99_ms=50.0,
            queue_depth_mean=8.0, queue_depth_max=16.0,
            loop_lag_mean_ms=1.0, loop_lag_max_ms=2.0,
            overload_rejections=0, deadline_misses=0,
            cancelled_requests=0, shed_rate=0.0)
        assert snapshot.pressure(p99_budget_ms=100.0, queue_budget=16.0,
                                 loop_lag_budget_ms=100.0) == pytest.approx(0.5)
        # Unconfigured budgets contribute nothing.
        assert snapshot.pressure() == 0.0


# --------------------------------------------------------------------- #
# Fleet routing
# --------------------------------------------------------------------- #
class TestFleetRouting:
    def test_sessions_are_sticky(self):
        fleet = make_fleet(3)
        first = {key: fleet.route(key)[0].name for key in range(300)}
        second = {key: fleet.route(key)[0].name for key in range(300)}
        assert first == second
        assert len(set(first.values())) == 3  # all replicas own traffic
        fleet.close()

    def test_route_matches_shared_rendezvous_helper(self):
        fleet = make_fleet(3)
        names = [replica.name for replica in fleet.replicas]
        for key in range(200):
            replica, policy = fleet.route(key)
            assert policy == "rendezvous"
            assert replica.name == rendezvous_choose(key, names)
        fleet.close()

    def test_ejection_moves_only_owned_sessions(self):
        fleet = make_fleet(3)
        before = {key: fleet.route(key)[0].name for key in range(500)}
        victim = "replica-1"
        fleet.replica(victim).health.mark_dead()
        for key in range(500):
            after = fleet.route(key)[0].name
            if before[key] != victim:
                assert after == before[key]
            else:
                assert after != victim
        fleet.close()

    def test_no_eligible_replica_is_an_explicit_shed(self):
        fleet = make_fleet(2)
        for replica in fleet.replicas:
            replica.health.mark_dead()
        with pytest.raises(FleetUnavailableError):
            fleet.route(1)
        # FleetUnavailableError is an OverloadError: existing drivers and
        # the A/B cost ledger account it as shed traffic unchanged.
        assert issubclass(FleetUnavailableError, OverloadError)
        fleet.close()

    def test_pressured_owner_falls_back_to_least_loaded(self):
        fleet = make_fleet(2, policy=HealthPolicy(fallback_pressure=1.0))
        owner, _ = fleet.route(7)
        owner.health.last_pressure = 2.0  # over budget, still in the set
        replica, policy = fleet.route(7)
        assert policy == "least_loaded"
        assert replica.name != owner.name
        owner.health.last_pressure = 0.0
        replica, policy = fleet.route(7)
        assert policy == "rendezvous" and replica.name == owner.name
        fleet.close()

    def test_degradation_never_ejects_the_last_replica(self):
        policy = HealthPolicy(queue_budget=1.0, eject_after=1,
                              readmit_after=1, probe_interval_s=1000.0)
        fleet = make_fleet(2, policy=policy)
        try:
            fleet.replica("replica-0").kill()
            fleet.check_replicas(force=True)  # dead probe ejects replica-0
            survivor = fleet.replica("replica-1")
            core = survivor.gateway.scheduler
            # Fake a backlog far past queue_budget (no drive task runs
            # here, so the sentinel entries are never dispatched).
            core._queue.extend([object()] * 8)
            for _ in range(3):
                fleet.check_replicas(force=True)
            # Eject-worthy score, but the fleet refuses to go empty.
            assert survivor.health.up
            assert [r.name for r in fleet.eligible()] == ["replica-1"]
            # The guard lifts the moment another replica rejoins: one pass
            # readmits replica-0 and immediately ejects the saturated one.
            fleet.replica("replica-0").revive()
            transitions = fleet.check_replicas(force=True)
            assert ("replica-0", "readmit") in transitions
            assert ("replica-1", "eject") in transitions
            core._queue.clear()
        finally:
            fleet.close()

    def test_search_answers_and_counts(self):
        fleet = make_fleet(3)

        async def scenario():
            answered, shed, missed = await drive_fleet(fleet, range(120))
            assert (answered, shed, missed) == (120, 0, 0)
            await fleet.stop_async()

        run(scenario())
        summary = fleet.summary()
        assert summary["requests"] == 120.0
        assert summary["failovers"] == 0.0
        routed = {row["replica"]: row["routed"] for row in fleet.replica_rows()}
        assert sum(routed.values()) == 120.0
        assert all(count > 0 for count in routed.values())
        fleet.close()


# --------------------------------------------------------------------- #
# Failover
# --------------------------------------------------------------------- #
class TestFailover:
    def test_dead_replica_fails_over_and_is_ejected(self):
        # A long probe interval keeps the ejection path passive: the death
        # must be discovered by the failed attempt itself, not by a probe.
        fleet = make_fleet(3, policy=HealthPolicy(probe_interval_s=1000.0))
        victim = fleet.route(0)[0]  # owner of session 0

        async def scenario():
            await fleet.search_async(5, session_id=999_999)  # initial probe
            victim.kill()
            ids, _scores = await fleet.search_async(0, session_id=0)
            assert len(ids) > 0
            await fleet.stop_async()

        run(scenario())
        assert not victim.health.up and victim.health.reason == "dead"
        summary = fleet.summary()
        assert summary["failovers"] == 1.0
        assert summary["ejections"] == 1.0
        assert summary["requests"] == 2.0  # each request answered once
        fleet.close()

    def test_failover_carries_remaining_deadline_budget(self):
        fleet = make_fleet(3, policy=HealthPolicy(probe_interval_s=1000.0))
        victim = fleet.route(0)[0]
        granted = []

        def wrap(replica):
            original = replica.submit_async

            def capture(query_id, k=None, deadline_s=None, tag=None,
                        _original=original):
                granted.append(deadline_s)
                return _original(query_id, k, deadline_s=deadline_s, tag=tag)

            replica.submit_async = capture

        async def scenario():
            await fleet.search_async(5, session_id=999_999)  # initial probe
            victim.kill()
            for replica in fleet.replicas:
                if replica is not victim:
                    wrap(replica)
            await fleet.search_async(0, session_id=0, deadline_s=5.0)
            await fleet.stop_async()

        run(scenario())
        assert len(granted) == 1
        # The retry's budget is what remains of the original 5 s, not a
        # fresh 5 s: time burned on the dead attempt is not granted back.
        assert granted[0] is not None and 0.0 < granted[0] < 5.0
        fleet.close()

    def test_exhausted_deadline_is_a_deadline_miss_not_a_retry(self):
        fleet = make_fleet(2)

        async def scenario():
            with pytest.raises(DeadlineExceededError):
                await fleet.search_async(0, session_id=0, deadline_s=-1.0)
            await fleet.stop_async()

        run(scenario())
        assert fleet.summary()["deadline_misses"] == 1.0
        fleet.close()

    def test_at_most_once_reexecution(self):
        fleet = make_fleet(3, max_failovers=1)
        for replica in fleet.replicas:
            replica.kill()

        async def scenario():
            with pytest.raises(FleetUnavailableError):
                await fleet.search_async(0, session_id=0)
            await fleet.stop_async()

        run(scenario())
        # All replicas dead at admission: first route hits a dead replica,
        # one failover is attempted, then the request sheds explicitly.
        summary = fleet.summary()
        assert summary["unavailable"] == 1.0
        assert summary["failovers"] <= 1.0
        fleet.close()

    def test_storm_with_kill_loses_nothing(self):
        fleet = make_fleet(3)
        victim = fleet.route(0)[0]

        async def scenario():
            answered, shed, missed = await drive_fleet(fleet, range(100))
            victim.kill()
            answered2, shed2, missed2 = await drive_fleet(
                fleet, range(100, 300))
            await fleet.stop_async()
            return answered + answered2, shed + shed2, missed + missed2

        answered, shed, missed = run(scenario())
        assert answered + shed + missed == 300  # every request accounted
        assert missed == 0 and shed == 0  # two healthy replicas absorb it
        assert fleet.summary()["requests"] == float(answered)
        fleet.close()

    @pytest.mark.parametrize("fault", ["stall", "slow"])
    def test_storm_with_a_limping_replica_loses_nothing(self, fault):
        """A mid-storm pipeline freeze or 4x slow-roll, not a death: every
        request of a concurrent burst ends answered or on a typed shed (an
        untyped error or a hang fails the gather), each answer is counted
        once, and the fleet still reports a finite tail."""
        fleet = make_fleet(3, max_queue=64, overload="reject")
        victim = fleet.route(0)[0]

        async def burst(session_ids):
            outcomes = await asyncio.wait_for(asyncio.gather(*(
                drive_fleet(fleet, [session_id], deadline_s=0.05)
                for session_id in session_ids)), timeout=30.0)
            return [sum(column) for column in zip(*outcomes)]

        async def scenario():
            before = await burst(range(60))
            if fault == "stall":
                victim.stall(0.2)
            else:
                victim.slow(4.0)
            during = await burst(range(60, 260))
            await fleet.stop_async()
            return [a + b for a, b in zip(before, during)]

        answered, shed, missed = run(scenario())
        assert answered + shed + missed == 260  # every request accounted
        assert answered > 0
        if fault == "stall":
            assert missed > 0  # the freeze outlasts the deadline of its queue
        summary = fleet.summary()
        assert summary["requests"] == float(answered)
        assert np.isfinite(summary["p99_ms"])
        fleet.close()


# --------------------------------------------------------------------- #
# Chaos controller
# --------------------------------------------------------------------- #
class TestChaosController:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            ChaosEvent(at_s=0.0, action="explode", replica="replica-0")
        with pytest.raises(ValueError):
            ChaosEvent(at_s=-1.0, action="kill", replica="replica-0")
        fleet = make_fleet(2)
        with pytest.raises(KeyError):
            ChaosController(fleet, [ChaosEvent(0.0, "kill", "nope")])
        fleet.close()

    def test_seeded_storm_is_reproducible(self):
        fleet_a = make_fleet(3)
        fleet_b = make_fleet(3)
        plan_a = ChaosController.seeded_storm(
            fleet_a, seed=5, storm_s=2.0, actions=("kill", "stall", "slow"))
        plan_b = ChaosController.seeded_storm(
            fleet_b, seed=5, storm_s=2.0, actions=("kill", "stall", "slow"))
        assert plan_a.events == plan_b.events
        other = ChaosController.seeded_storm(
            fleet_a, seed=6, storm_s=2.0, actions=("kill", "stall", "slow"))
        assert plan_a.events != other.events
        for event in plan_a.events:
            assert 0.5 <= event.at_s <= 1.5  # mid-storm by construction
        fleet_a.close()
        fleet_b.close()

    def test_tick_applies_due_events_in_order(self):
        now = [0.0]
        fleet = make_fleet(2)
        controller = ChaosController(
            fleet,
            [ChaosEvent(1.0, "kill", "replica-0"),
             ChaosEvent(2.0, "revive", "replica-0")],
            clock=lambda: now[0])
        controller.arm()
        assert controller.tick() == 0
        assert not fleet.replica("replica-0").dead
        now[0] = 1.5
        assert controller.tick() == 1
        assert fleet.replica("replica-0").dead
        now[0] = 2.5
        assert controller.tick() == 1
        assert not fleet.replica("replica-0").dead
        assert controller.exhausted
        assert [row["action"] for row in controller.log()] == ["kill", "revive"]
        fleet.close()

    def test_stall_ejects_then_readmits(self):
        # Probes fire only when forced (long interval), so the state
        # machine advances exactly when the test says it does.
        policy = HealthPolicy(queue_budget=4.0, probe_interval_s=1000.0,
                              eject_after=2, readmit_after=2)
        fleet = make_fleet(2, policy=policy,
                           max_queue=256, overload="reject")
        victim = fleet.route(0)[0]

        async def scenario():
            victim.stall(0.25)
            # Submit a burst at the stalled owner: its batch pipeline is
            # blocked, so its queue builds and probes see it.
            tasks = [
                asyncio.ensure_future(
                    fleet.search_async(i % NUM_QUERIES, session_id=0,
                                       deadline_s=2.0))
                for i in range(16)
            ]
            await asyncio.sleep(0.05)
            assert victim.queue_depth >= 4  # pipeline blocked behind stall
            fleet.check_replicas(force=True)
            fleet.check_replicas(force=True)
            assert not victim.health.up
            assert victim.health.reason == "degraded"
            await asyncio.gather(*tasks, return_exceptions=True)
            # After the stall clears and the queue drains, consecutive
            # clean probes readmit the replica.
            await asyncio.sleep(0.25)
            fleet.check_replicas(force=True)
            fleet.check_replicas(force=True)
            assert victim.health.up
            await fleet.stop_async()

        run(scenario())
        summary = fleet.summary()
        assert summary["ejections"] >= 1.0
        assert summary["readmissions"] >= 1.0
        fleet.close()

    def test_slow_roll_stretches_service_time(self):
        fleet = make_fleet(1)
        replica = fleet.replicas[0]

        async def timed(label):
            started = fleet.clock()
            await fleet.search_async(1, session_id=1)
            return fleet.clock() - started

        async def scenario():
            baseline = await timed("fast")
            replica.slow(50.0)
            slowed = await timed("slow")
            await fleet.stop_async()
            return baseline, slowed

        baseline, slowed = run(scenario())
        assert slowed > baseline
        fleet.close()


# --------------------------------------------------------------------- #
# Observability integration
# --------------------------------------------------------------------- #
class TestFleetObservability:
    def test_fleet_router_span_is_grafted_into_the_trace(self):
        fleet = make_fleet(2, tracing=True, trace_sample_every=1)

        async def scenario():
            await fleet.search_async(3, session_id=3)
            await fleet.stop_async()

        run(scenario())
        traces = [
            trace
            for replica in fleet.replicas
            for trace in replica.gateway.flight_recorder.dump()
        ]
        assert len(traces) == 1
        spans = {span.name: span for span in traces[0].spans()}
        assert "fleet_router" in spans
        assert spans["fleet_router"].attrs["policy"] == "rendezvous"
        assert spans["fleet_router"].attrs["attempt"] == 0
        assert spans["fleet_router"].attrs["replica"] in (
            "replica-0", "replica-1")
        fleet.close()

    def test_bucket_rows_attribute_fleet_traffic_by_tag(self):
        fleet = make_fleet(2)

        async def scenario():
            for session in range(40):
                tag = "treatment" if session % 4 == 0 else "control"
                await fleet.search_async(session % NUM_QUERIES,
                                         session_id=session, tag=tag)
            await fleet.stop_async()

        run(scenario())
        rows = {row["bucket"]: row for row in fleet.telemetry.bucket_rows()}
        assert rows["treatment"]["requests"] == 10
        assert rows["control"]["requests"] == 30
        fleet.close()


# --------------------------------------------------------------------- #
# Fleet as an A/B arm
# --------------------------------------------------------------------- #
class _StubDataset:
    num_queries = NUM_QUERIES

    def query_frequencies(self):
        return np.ones(NUM_QUERIES)


class _StubOracle:
    def click_probability(self, query_ids, service_ids):
        return np.full(len(np.asarray(service_ids)), 0.4)

    def conversion_probability(self, query_ids, service_ids):
        return np.full(len(np.asarray(service_ids)), 0.5)


class TestFleetAsABArm:
    def _run(self, treatment, **config_kwargs):
        control = ServingGateway(make_store(), index="exact", top_k=5,
                                 cache_capacity=0)
        router = BucketRouter(
            {"control": 0.5, "treatment": 0.5},
            arms={"control": control, "treatment": treatment}, salt=7)
        defaults = dict(num_days=1, sessions_per_day=120, top_k=5,
                        rate_qps=None, seed=3)
        defaults.update(config_kwargs)
        experiment = OnlineABExperiment(
            _StubDataset(), _StubOracle(), router,
            ABExperimentConfig(**defaults))
        return experiment.run()

    def test_fleet_arm_serves_its_bucket(self):
        fleet = make_fleet(2)
        report = self._run(fleet)
        assert report.sessions["treatment"] > 0
        assert report.shed == {"control": 0, "treatment": 0}
        # The fleet's bucket_rows land in the cost report like a gateway's.
        fleet_rows = [row for row in report.cost
                      if row.get("bucket") == "treatment"]
        assert fleet_rows and fleet_rows[0]["requests"] == float(
            report.sessions["treatment"])
        fleet.close()

    def test_fleet_arm_with_mid_storm_kill_counts_impressions_once(self):
        fleet = make_fleet(3)
        victim = fleet.replicas[0]
        controller = ChaosController(
            fleet, [ChaosEvent(0.0, "kill", victim.name)])
        controller.arm()
        report = self._run(fleet)
        day = report.daily["treatment"][0]
        answered = report.sessions["treatment"] - report.shed["treatment"]
        # Exactly top_k impressions per answered session — a double-served
        # failover would double a session's impressions and break this.
        assert day.impressions == 5 * answered
        assert report.shed["treatment"] == 0  # the fleet absorbed the kill
        assert not victim.health.up
        fleet.close()


# --------------------------------------------------------------------- #
# Load shapes
# --------------------------------------------------------------------- #
class TestLoadShapes:
    def test_poisson_gaps_seeded(self):
        np.testing.assert_array_equal(poisson_gaps(100, 50.0, seed=4),
                                      poisson_gaps(100, 50.0, seed=4))
        assert not np.array_equal(poisson_gaps(100, 50.0, seed=4),
                                  poisson_gaps(100, 50.0, seed=5))

    def test_flash_crowd_degenerates_to_poisson(self):
        np.testing.assert_array_equal(
            flash_crowd_gaps(500, 80.0, spike_factor=1.0, seed=2),
            poisson_gaps(500, 80.0, seed=2))

    def test_flash_crowd_spike_window_is_faster(self):
        gaps = flash_crowd_gaps(4_000, 100.0, spike_factor=10.0,
                                spike_start=0.45, spike_width=0.1, seed=0)
        spike = gaps[1_800:2_200].mean()
        base = gaps[:1_800].mean()
        assert base / spike > 5.0  # 10x rate => ~10x smaller gaps

    def test_flash_crowd_validation(self):
        with pytest.raises(ValueError):
            flash_crowd_gaps(10, 100.0, spike_factor=0.5)
        with pytest.raises(ValueError):
            flash_crowd_gaps(10, 100.0, spike_start=0.95, spike_width=0.1)

    def test_ab_config_flash_crowd_replay(self):
        config = ABExperimentConfig(
            num_days=1, sessions_per_day=80, top_k=5, rate_qps=2_000.0,
            load_shape="flash_crowd", spike_factor=5.0, seed=3)
        control = ServingGateway(make_store(), index="exact", top_k=5,
                                 cache_capacity=0)
        router = BucketRouter({"control": 0.5, "treatment": 0.5},
                              arms={"control": control, "treatment": control},
                              salt=7)
        report = OnlineABExperiment(_StubDataset(), _StubOracle(), router,
                                    config).run()
        assert sum(report.sessions.values()) == 80


# --------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------- #
class TestFleetLifecycle:
    def test_deploy_fleet_shares_one_store(self):
        class StubModel:
            def query_embeddings(self):
                return np.random.default_rng(0).normal(size=(NUM_QUERIES, DIM))

            def service_embeddings(self):
                return np.random.default_rng(1).normal(size=(NUM_SERVICES, DIM))

        fleet = deploy_fleet(StubModel(), num_replicas=3, index="exact",
                             top_k=5, cache_capacity=0)
        stores = {id(replica.gateway.store) for replica in fleet.replicas}
        assert len(stores) == 1
        assert len(fleet.replicas) == 3

        async def scenario():
            ids, _ = await fleet.search_async(1, session_id=1)
            assert len(ids) == 5
            await fleet.stop_async()

        run(scenario())
        fleet.close()

    def test_drain_completes_queued_work(self):
        fleet = make_fleet(2)

        async def scenario():
            tasks = [
                asyncio.ensure_future(
                    fleet.search_async(i % NUM_QUERIES, session_id=i))
                for i in range(30)
            ]
            await fleet.stop_async()
            results = await asyncio.gather(*tasks)
            assert len(results) == 30

        run(scenario())
        fleet.close()

    def test_closed_fleet_is_freed_without_the_cycle_collector(self):
        """A closed fleet's gateways and store go as soon as it is dropped.

        The chaos wrapper sits in each gateway's ``__dict__``; holding its
        replica or the gateway's own backend strongly would keep every
        gateway, store and index alive until the cyclic collector ran.
        """
        fleet = make_fleet(2)

        async def scenario():
            await fleet.search_async(1, session_id=1)
            await fleet.stop_async()

        run(scenario())
        fleet.close()
        gateways = [weakref.ref(replica.gateway) for replica in fleet.replicas]
        store = weakref.ref(fleet.replicas[0].gateway.store)
        gc.collect()
        gc.disable()
        try:
            del fleet
            assert [gateway() for gateway in gateways] == [None, None]
            assert store() is None
        finally:
            gc.enable()

    def test_gateway_outliving_its_replica_serves_unwrapped(self):
        store = make_store()
        gateway = ServingGateway(store, index="exact", top_k=5,
                                 cache_capacity=0)
        try:
            expected = gateway.rank(2)
            replica = FleetReplica("gone", gateway)
            replica.kill()
            del replica
            assert gateway.rank(2) == expected
        finally:
            gateway.close()

    def test_replica_weight_validation(self):
        with pytest.raises(ValueError):
            make_fleet(0)
        store = make_store()
        with pytest.raises(ValueError):
            FleetRouter({"a": ServingGateway(store, index="exact")},
                        max_failovers=-1)
