"""One gateway replica as seen by the fleet: handle, lifecycle, faults.

:class:`FleetReplica` wraps a :class:`~repro.serving.gateway.ServingGateway`
with the three things the router needs and the gateway itself does not
know about:

* a stable **identity** (name + precomputed rendezvous salt);
* **membership state** (:class:`~repro.serving.fleet.health.ReplicaHealth`,
  driven by the router's probe cadence);
* an injectable **fault surface** for the chaos controller.  Faults are
  installed by wrapping the gateway's ``_search_backend_async`` — the one
  backend hook, which the sharded tier overrides — so a killed replica fails
  whole in-flight batches exactly the way a dead process would (the
  scheduler propagates the executor's exception to every request of the
  batch), a stalled replica blocks its batch pipeline (queue builds,
  deadlines shed), and a slow-rolled replica stretches its service time by
  a factor.

:class:`ReplicaDeadError` derives from ``ConnectionError``: it is the
in-process stand-in for a broken connection to a replica process, and the
router treats it exactly like one — mark dead, eject, fail over.
"""

from __future__ import annotations

import asyncio
import time
import weakref
from typing import Callable, Optional, Tuple

import numpy as np

from repro.serving.fleet.hashing import node_salt
from repro.serving.fleet.health import ReplicaHealth
from repro.serving.gateway.gateway import ServingGateway
from repro.serving.gateway.scheduler import PendingRequest
from repro.serving.obs.health import HealthSnapshot

__all__ = ["FleetReplica", "ReplicaDeadError"]


class ReplicaDeadError(ConnectionError):
    """The replica's process is gone (or chaos says it is)."""


class FleetReplica:
    """A named gateway replica with health state and a chaos fault surface."""

    def __init__(self, name: str, gateway: ServingGateway, salt: int = 0,
                 weight: float = 1.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if weight <= 0.0:
            raise ValueError("replica weight must be positive")
        self.name = str(name)
        self.gateway = gateway
        self.weight = float(weight)
        #: Precomputed rendezvous salt — mix once, score per request.
        self.salt = node_salt(self.name, salt)
        self.health = ReplicaHealth()
        self._clock = clock
        # Chaos fault state (all cleared by revive()).
        self._dead = False
        self._stalled_until = 0.0
        self._slow_factor = 1.0
        self._wrap_backend()

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    async def submit_async(self, query_id: int, k: Optional[int] = None,
                           deadline_s: Optional[float] = None) -> PendingRequest:
        """Admit one request on this replica (raises if known-dead).

        Admission-time death is cheap to detect here; death *after*
        admission surfaces as ``ReplicaDeadError`` from ``pending.wait()``
        when the batch hits the fault-wrapped backend.
        """
        if self._dead:
            raise ReplicaDeadError(f"replica {self.name!r} is dead")
        return await self.gateway.submit_async(query_id, k, deadline_s=deadline_s)

    # ------------------------------------------------------------------ #
    # Probe surface (what the router's health policy reads)
    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Admitted work not yet answered: queued **plus** executing batch.

        The in-flight term matters for stall detection — the drive loop is
        serial, so a stalled batch *drains* the queue into itself and the
        bare ``pending_count`` of a frozen replica reads zero.
        """
        scheduler = self.gateway.scheduler
        return scheduler.pending_count + scheduler.in_flight_count

    def probe(self) -> Tuple[float, float, HealthSnapshot]:
        """One health probe: ``(answered_total, shed_total, snapshot)``.

        Raises :class:`ReplicaDeadError` when the replica is dead — a dead
        process answers no probes.  Totals are cumulative; the router's
        tracker turns them into windowed deltas.
        """
        if self._dead:
            raise ReplicaDeadError(f"replica {self.name!r} is dead")
        snapshot = self.gateway.health()
        shed = (snapshot.overload_rejections + snapshot.deadline_misses
                + snapshot.cancelled_requests)
        return snapshot.requests, shed, snapshot

    # ------------------------------------------------------------------ #
    # Chaos fault surface (driven by fleet.chaos.ChaosController)
    # ------------------------------------------------------------------ #
    def kill(self) -> None:
        """Drop dead: every queued or future batch fails ``ReplicaDeadError``."""
        self._dead = True

    def stall(self, duration_s: float) -> None:
        """Freeze the batch pipeline for ``duration_s`` (GC pause / hung IO).

        The stall is served *inside* the executor boundary, so the drive
        task blocks on the stalled batch: queued requests pile up behind it
        and shed on their deadlines — the realistic failure shape.
        """
        self._stalled_until = max(self._stalled_until,
                                  self._clock() + float(duration_s))

    def slow(self, factor: float) -> None:
        """Stretch every batch's service time by ``factor`` (degraded host)."""
        if factor < 1.0:
            raise ValueError("slow factor must be >= 1.0")
        self._slow_factor = float(factor)

    def revive(self, warm_start: Optional[str] = None,
               remote_peer: Optional[Tuple[str, int]] = None) -> int:
        """Clear every fault (process restarted, host recovered).

        ``warm_start`` additionally re-hydrates the replica's store from an
        on-disk snapshot directory: a replica that was dead through one or
        more publishes catches up from the durable manifest (mmapped, no
        re-quantization) instead of waiting for the next wire publish.  The
        hydration runs the store's normal two-phase listener flip, so the
        replica's gateway rebuilds or restores its index before any request
        can observe the revived version.  Returns the store version the
        replica is serving after revival.

        ``remote_peer=(host, port)`` first replicates the peer
        :class:`~repro.serving.snapshot.SnapshotServer`'s live snapshot
        into ``warm_start`` over the wire — a revived host whose local
        directory was lost (or never existed) catches up from a healthy
        peer instead of a disk it no longer has.
        """
        self._dead = False
        self._stalled_until = 0.0
        self._slow_factor = 1.0
        if remote_peer is not None and warm_start is None:
            raise ValueError("remote_peer needs a warm_start directory to hydrate into")
        if warm_start is not None:
            return self.gateway.store.hydrate(warm_start, remote=remote_peer)
        return self.gateway.store.version

    @property
    def dead(self) -> bool:
        return self._dead

    @property
    def faulted(self) -> bool:
        return (self._dead or self._slow_factor > 1.0
                or self._clock() < self._stalled_until)

    def _wrap_backend(self) -> None:
        # The wrapper lives in the gateway's ``__dict__``, so it holds the
        # replica and the gateway's own backend weakly: strong references
        # would make gateway -> wrapper -> gateway a cycle, and a closed
        # fleet would keep its gateways, stores and indexes in memory until
        # the cyclic collector next ran.  Once the replica is gone the
        # wrapper passes straight through.
        replica_ref = weakref.ref(self)
        original_ref = weakref.WeakMethod(self.gateway._search_backend_async)

        async def chaotic_backend(
            snapshot, query_matrix: np.ndarray, k: int, spans=None
        ) -> Tuple[np.ndarray, np.ndarray]:
            replica, original = replica_ref(), original_ref()
            if replica is None:
                return await original(snapshot, query_matrix, k, spans=spans)
            if replica._dead:
                raise ReplicaDeadError(f"replica {replica.name!r} is dead")
            now = replica._clock()
            if now < replica._stalled_until:
                await asyncio.sleep(replica._stalled_until - now)
                if replica._dead:  # killed while stalled
                    raise ReplicaDeadError(f"replica {replica.name!r} is dead")
            if replica._slow_factor > 1.0:
                started = replica._clock()
                result = await original(snapshot, query_matrix, k, spans=spans)
                elapsed = replica._clock() - started
                await asyncio.sleep(elapsed * (replica._slow_factor - 1.0))
                return result
            return await original(snapshot, query_matrix, k, spans=spans)

        self.gateway._search_backend_async = chaotic_backend

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def stop_async(self) -> None:
        await self.gateway.stop_async()

    def close(self) -> None:
        self.gateway.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FleetReplica({self.name!r}, state={self.health.state!r}, "
                f"queue={self.queue_depth})")
