"""The fleet front-end: rendezvous routing, failover, explicit shed.

:class:`FleetRouter` stands in front of N :class:`FleetReplica` gateways
and exposes the same async request surface a single gateway does
(``search_async`` / ``rank_async`` / ``stop_async`` / ``close`` plus a
``telemetry`` with ``bucket_rows()``), so anything that serves through a
gateway — the A/B tier, the load drivers, the example — can serve through
a fleet unchanged.

Routing, per request:

1. **Rendezvous primary.**  The session key (``session_id``, defaulting
   to the query id) picks its owner by highest-random-weight hash over
   the replicas currently in the serving set.  Sticky and coordination
   free: the same session lands on the same replica until the serving set
   changes, and an ejection moves *only* the ejected replica's sessions.
2. **Least-loaded fallback.**  If the owner's cumulative pressure (p99 /
   queue depth / loop lag / shed rate against the policy budgets) is at or
   above ``fallback_pressure``, the request is redirected to the eligible
   replica with the lowest ``(instantaneous queue, pressure)`` — hot
   sessions spill before they brown out their owner.
3. **Bounded retry-on-failover.**  ``ReplicaDeadError`` (at admission or
   from an in-flight batch) marks the replica dead and re-routes the
   request over the remaining replicas; ``OverloadError`` re-routes
   without marking.  At most ``max_failovers`` re-executions (default 1 —
   at-most-once re-execution), each excluding every replica already
   attempted, and the *remaining* deadline budget rides along: time spent
   on a dead attempt is not granted back.
4. **Explicit shed.**  A request that exhausts its retries or finds no
   eligible replica raises :class:`FleetUnavailableError` — a subclass of
   ``OverloadError``, so every existing driver and the A/B cost ledger
   account it as shed traffic.  Nothing is silently dropped: every
   admitted request ends in exactly one reply, one deadline miss, or one
   explicit shed.

Health probes run lazily on this same path every ``probe_interval_s``
(see :mod:`repro.serving.fleet.health`), and an attached chaos controller
is ticked per request, so storms interleave with live traffic.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serving.fleet.health import HealthPolicy
from repro.serving.fleet.replica import FleetReplica, ReplicaDeadError
from repro.serving.gateway.gateway import ServingGateway
from repro.serving.gateway.scheduler import DeadlineExceededError, OverloadError
from repro.serving.gateway.store import VersionedEmbeddingStore
from repro.serving.gateway.telemetry import GatewayTelemetry
from repro.serving.obs.ids import key_to_u64, mix64_int
from repro.serving.obs.metrics import MetricsRegistry

__all__ = ["FleetRouter", "FleetUnavailableError", "deploy_fleet"]


class FleetUnavailableError(OverloadError):
    """No eligible replica could serve the request (explicit shed)."""


class FleetRouter:
    """Health-aware front-end over a set of named gateway replicas.

    ``replicas`` is a mapping of name -> :class:`ServingGateway` (or a
    plain sequence, auto-named ``replica-0..N-1``).  ``salt`` decorrelates
    the rendezvous placement of independent fleets over identical replica
    names; ``weights`` (per name) skew placement toward bigger replicas.
    """

    def __init__(
        self,
        replicas: Union[Mapping[str, ServingGateway], Sequence[ServingGateway]],
        policy: Optional[HealthPolicy] = None,
        salt: int = 0,
        weights: Optional[Mapping[str, float]] = None,
        max_failovers: int = 1,
        default_deadline_s: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        if not isinstance(replicas, Mapping):
            replicas = {f"replica-{i}": g for i, g in enumerate(replicas)}
        if not replicas:
            raise ValueError("a fleet needs at least one replica")
        if max_failovers < 0:
            raise ValueError("max_failovers must be >= 0")
        self.policy = policy if policy is not None else HealthPolicy()
        self.max_failovers = int(max_failovers)
        self.default_deadline_s = default_deadline_s
        self.clock = clock
        self.salt = int(salt)
        self._replicas: Dict[str, FleetReplica] = {}
        for name, gateway in replicas.items():
            weight = 1.0 if weights is None else float(weights.get(name, 1.0))
            self._replicas[name] = FleetReplica(
                name, gateway, salt=self.salt, weight=weight, clock=clock)
        #: Attached chaos controller (set by ChaosController's constructor).
        self.chaos = None
        self._last_probe_at = -math.inf
        self.telemetry = GatewayTelemetry(clock=clock)
        self.metrics = MetricsRegistry()
        self._routed = self.metrics.family(
            "counter", "fleet_routed_total",
            help="Requests answered, by serving replica",
            label_names=("replica",))
        self._fallbacks = self.metrics.counter(
            "fleet_fallback_routes_total",
            help="Requests redirected off their rendezvous owner by pressure")
        self._failovers = self.metrics.counter(
            "fleet_failovers_total",
            help="Retries after a dead or overloaded attempt")
        self._ejections = self.metrics.family(
            "counter", "fleet_ejections_total",
            help="Replicas removed from the serving set, by reason",
            label_names=("reason",))
        self._readmissions = self.metrics.counter(
            "fleet_readmissions_total",
            help="Replicas returned to the serving set")
        self._unavailable = self.metrics.counter(
            "fleet_unavailable_total",
            help="Requests shed because no eligible replica remained")

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    @property
    def replicas(self) -> List[FleetReplica]:
        return list(self._replicas.values())

    def replica(self, name: str) -> FleetReplica:
        try:
            return self._replicas[name]
        except KeyError:
            raise KeyError(f"no replica named {name!r} in this fleet") from None

    def eligible(self) -> List[FleetReplica]:
        """Replicas currently in the serving set."""
        return [r for r in self._replicas.values() if r.health.up]

    # ------------------------------------------------------------------ #
    # Routing policy (pure, synchronous — tested directly)
    # ------------------------------------------------------------------ #
    def rank(self, session_key: object,
             replicas: Optional[Sequence[FleetReplica]] = None
             ) -> List[FleetReplica]:
        """Rendezvous preference order for a session over ``replicas``.

        Defaults to the full fleet (membership ignored) — the property
        tests compare this against the serving-set order to check minimal
        disruption.
        """
        pool = list(self._replicas.values()) if replicas is None else list(replicas)
        key_u64 = key_to_u64(session_key)
        scored = [
            (-self._score(key_u64, replica), index, replica)
            for index, replica in enumerate(pool)
        ]
        scored.sort(key=lambda item: (item[0], item[1]))
        return [replica for _, _, replica in scored]

    def route(self, session_key: object,
              exclude: Sequence[str] = ()) -> Tuple[FleetReplica, str]:
        """Pick the serving replica: ``(replica, "rendezvous"|"least_loaded")``.

        Raises :class:`FleetUnavailableError` when no eligible replica
        remains outside ``exclude``.
        """
        excluded = set(exclude)
        pool = [r for r in self.eligible() if r.name not in excluded]
        if not pool:
            raise FleetUnavailableError(
                f"no eligible replica for session {session_key!r} "
                f"(excluded: {sorted(excluded) or 'none'})")
        key_u64 = key_to_u64(session_key)
        owner = max(pool, key=lambda r: self._score(key_u64, r))
        if len(pool) > 1:
            pressure = self._pressure(owner)
            if pressure >= self.policy.fallback_pressure:
                fallback = min(
                    pool, key=lambda r: (r.queue_depth, self._pressure(r), r.name))
                if fallback is not owner:
                    return fallback, "least_loaded"
        return owner, "rendezvous"

    def _score(self, key_u64: int, replica: FleetReplica) -> float:
        h = mix64_int(key_u64, replica.salt)
        u = (h + 0.5) / 2.0**64
        return -replica.weight / math.log(u)

    def _pressure(self, replica: FleetReplica) -> float:
        """Routing pressure: cached cumulative pressure + live queue term."""
        queue_term = (replica.queue_depth / self.policy.queue_budget
                      if self.policy.queue_budget > 0 else 0.0)
        return max(replica.health.last_pressure, queue_term)

    # ------------------------------------------------------------------ #
    # Health probing (lazy, on the request path; explicit for tests)
    # ------------------------------------------------------------------ #
    def check_replicas(self, force: bool = False) -> List[Tuple[str, str]]:
        """Probe every replica once; returns ``[(name, transition), ...]``.

        Called from the request path at most once per
        ``policy.probe_interval_s`` (pass ``force=True`` to probe now).
        Dead probes eject immediately; soft scores run through the
        hysteresis tracker.  A dead replica that has been revived re-enters
        through the same readmission streak as a degraded one.

        A soft (degradation) ejection is never allowed to empty the
        serving set: the last replica standing keeps serving — and
        shedding — however bad its score, because an empty fleet answers
        nothing at all.  Death still ejects unconditionally; a fleet of
        corpses has nothing to protect.
        """
        now = self.clock()
        if not force and now - self._last_probe_at < self.policy.probe_interval_s:
            return []
        self._last_probe_at = now
        transitions: List[Tuple[str, str]] = []
        for name, replica in self._replicas.items():
            health = replica.health
            try:
                answered, shed, snapshot = replica.probe()
            except ReplicaDeadError:
                if health.mark_dead():
                    self._ejections.labels("dead").inc()
                    transitions.append((name, "eject"))
                continue
            score = self.policy.soft_score(
                replica.queue_depth,
                answered - health.last_answered,
                shed - health.last_shed)
            health.last_answered = answered
            health.last_shed = shed
            health.last_probe_at = now
            others_up = any(
                other.health.up
                for other in self._replicas.values()
                if other is not replica
            )
            moved = health.observe(
                self.policy, score, self.policy.pressure(snapshot),
                allow_eject=others_up or not health.up)
            if moved == "eject":
                self._ejections.labels("degraded").inc()
                transitions.append((name, "eject"))
            elif moved == "readmit":
                self._readmissions.inc()
                transitions.append((name, "readmit"))
        return transitions

    def _mark_dead(self, replica: FleetReplica) -> None:
        """Passive death detection: an attempt failed with ReplicaDeadError."""
        if replica.health.mark_dead():
            self._ejections.labels("dead").inc()

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    async def search_async(self, query_id: int, k: Optional[int] = None,
                           deadline_s: Optional[float] = None,
                           tag: Optional[str] = None,
                           session_id: Optional[object] = None
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """One fleet search: route, failover if needed, reply or shed.

        ``session_id`` is the routing key (sticky placement); it defaults
        to ``query_id`` so plain gateway callers stay session-sticky per
        query.  All gateway semantics carry through: ``OverloadError`` /
        ``DeadlineExceededError`` on shed, telemetry attributed to ``tag``.
        """
        entered = self.clock()
        if self.chaos is not None:
            self.chaos.tick()
        self.check_replicas()
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        deadline_at = entered + deadline_s if deadline_s is not None else None
        session_key = session_id if session_id is not None else query_id
        attempted: List[str] = []
        while True:
            if deadline_at is not None:
                remaining = deadline_at - self.clock()
                if remaining <= 0.0:
                    self.telemetry.record_deadline_miss(tag=tag)
                    raise DeadlineExceededError(
                        f"fleet deadline exhausted after "
                        f"{len(attempted)} attempt(s)")
            else:
                remaining = None
            try:
                replica, route_policy = self.route(session_key, exclude=attempted)
            except FleetUnavailableError:
                self._unavailable.inc()
                self.telemetry.record_overload(tag=tag)
                raise
            attempted.append(replica.name)
            if route_policy == "least_loaded":
                self._fallbacks.inc()
            try:
                result = await self._attempt(
                    replica, route_policy, query_id, k, remaining, tag,
                    entered, attempt=len(attempted) - 1)
            except ReplicaDeadError:
                self._mark_dead(replica)
                failover_error: Exception = ReplicaDeadError(
                    f"replica {replica.name!r} died serving the request")
            except FleetUnavailableError:
                raise
            except OverloadError:
                failover_error = OverloadError(
                    f"replica {replica.name!r} shed the request at admission")
            except DeadlineExceededError:
                self.telemetry.record_deadline_miss(tag=tag)
                raise
            else:
                self.telemetry.record_request(
                    self.clock() - entered, cache_hit=False, tag=tag)
                self._routed.labels(replica.name).inc()
                return result
            if len(attempted) > self.max_failovers:
                self._unavailable.inc()
                self.telemetry.record_overload(tag=tag)
                raise FleetUnavailableError(
                    f"request exhausted {self.max_failovers} failover(s); "
                    f"attempted {attempted}") from failover_error
            self._failovers.inc()

    async def _attempt(self, replica: FleetReplica, route_policy: str,
                       query_id: int, k: Optional[int],
                       deadline_s: Optional[float], tag: Optional[str],
                       entered: float, attempt: int):
        """One admission + wait on one replica (failover unit)."""
        pending = await replica.submit_async(
            query_id, k, deadline_s=deadline_s, tag=tag)
        if pending.trace is not None:
            pending.trace.add_span(
                "fleet_router", entered, self.clock(),
                replica=replica.name, attempt=attempt, policy=route_policy)
        try:
            return await pending.wait()
        except asyncio.CancelledError:
            pending.cancel()
            self.telemetry.record_cancelled(tag=tag)
            raise

    async def rank_async(self, query_id: int, k: Optional[int] = None,
                         deadline_s: Optional[float] = None,
                         tag: Optional[str] = None,
                         session_id: Optional[object] = None) -> List[int]:
        """Async ranker protocol (the A/B simulator's arm contract)."""
        ids, _ = await self.search_async(
            query_id, k, deadline_s=deadline_s, tag=tag, session_id=session_id)
        return [int(service_id) for service_id in ids]

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def replica_rows(self) -> List[Dict[str, object]]:
        """One row per replica: membership, routed share, health signals."""
        rows = []
        for name, replica in self._replicas.items():
            health = replica.health
            try:
                snapshot = replica.gateway.health().as_dict()
            except Exception:  # pragma: no cover - defensive
                snapshot = {}
            rows.append({
                "replica": name,
                "state": health.state,
                "reason": health.reason,
                "routed": float(self._routed.labels(name).value),
                "queue_depth": float(replica.queue_depth),
                "score": health.last_score,
                "pressure": health.last_pressure,
                "transitions": health.transitions,
                "requests": snapshot.get("requests", 0.0),
                "p99_ms": snapshot.get("p99_ms", float("nan")),
                "shed_rate": snapshot.get("shed_rate", 0.0),
            })
        return rows

    def summary(self) -> Dict[str, float]:
        """Fleet-level serving summary + router counters."""
        summary = self.telemetry.summary()
        summary.update({
            "replicas": float(len(self._replicas)),
            "eligible_replicas": float(len(self.eligible())),
            "failovers": float(self._failovers.value),
            "fallback_routes": float(self._fallbacks.value),
            "ejections": float(sum(
                counter.value for _, counter in self._ejections.items())),
            "readmissions": float(self._readmissions.value),
            "unavailable": float(self._unavailable.value),
        })
        return summary

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def stop_async(self) -> None:
        """Drain every replica on the current loop: queued work finishes,
        the drive tasks stop, the replicas stay up for the next submit."""
        for replica in self._replicas.values():
            await replica.stop_async()

    def close(self) -> None:
        for replica in self._replicas.values():
            replica.close()

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def deploy_fleet(model, num_replicas: int = 3, policy: Optional[HealthPolicy] = None,
                 salt: int = 0, max_failovers: int = 1,
                 default_deadline_s: Optional[float] = None,
                 store: Optional[VersionedEmbeddingStore] = None,
                 **gateway_kwargs) -> FleetRouter:
    """Build a fleet of N gateways over one shared versioned store.

    The replicas share the store (embeddings are read-only snapshots, and
    a daily hot-swap's two-phase flip reaches every replica at once) but
    each owns its scheduler, cache, telemetry, and — by default — a
    dedicated single-thread scoring executor (``cpu_executor="thread"``):
    numpy releases the GIL during the scan, so per-replica executor
    threads are what makes in-process replicas scale on multi-core hosts.
    ``gateway_kwargs`` are forwarded to every :class:`ServingGateway`.
    """
    if num_replicas < 1:
        raise ValueError("num_replicas must be >= 1")
    if store is None:
        store = VersionedEmbeddingStore.from_model(model)
    gateway_kwargs.setdefault("cpu_executor", "thread")
    replicas = {
        f"replica-{index}": ServingGateway(store, **gateway_kwargs)
        for index in range(num_replicas)
    }
    return FleetRouter(
        replicas, policy=policy, salt=salt, max_failovers=max_failovers,
        default_deadline_s=default_deadline_s)
