"""The replicated serving fleet: the step from "a server" to "a service".

Every earlier layer of the stack scales *within* one gateway process —
batching, sharding, quantization, admission control.  This package scales
*across* gateways: N replicas over one shared versioned store behind a
:class:`FleetRouter` front-end, so one stalled event loop or dead process
degrades capacity instead of taking the tier down.

=================  ====================================================
module             contents
=================  ====================================================
``fleet.hashing``  rendezvous (highest-random-weight) hashing on the
                   shared ``obs.ids.mix64`` primitive
``fleet.health``   ``HealthPolicy`` budgets + per-replica hysteresis
                   state machine (eject slow/dead, readmit shy)
``fleet.replica``  ``FleetReplica`` — gateway handle with identity,
                   membership state, and the chaos fault surface
``fleet.router``   ``FleetRouter`` — sticky rendezvous routing,
                   least-loaded fallback, bounded retry-on-failover,
                   explicit shed; ``deploy_fleet`` convenience
``fleet.chaos``    seeded ``ChaosController`` — kill / stall / slow-roll
                   replicas mid-storm, reproducibly
=================  ====================================================

A fleet exposes the gateway's async surface (``search_async`` /
``rank_async`` / ``stop_async`` / ``telemetry.summary()``), so A/B arms,
the load drivers, and the example serve through it unchanged.
"""

from repro.serving.fleet.chaos import ChaosController, ChaosEvent
from repro.serving.fleet.hashing import (
    node_salt,
    rendezvous_choose,
    rendezvous_rank,
    rendezvous_score,
)
from repro.serving.fleet.health import HealthPolicy, ReplicaHealth
from repro.serving.fleet.replica import FleetReplica, ReplicaDeadError
from repro.serving.fleet.router import (
    FleetRouter,
    FleetUnavailableError,
    deploy_fleet,
)

__all__ = [
    "ChaosController",
    "ChaosEvent",
    "FleetReplica",
    "FleetRouter",
    "FleetUnavailableError",
    "HealthPolicy",
    "ReplicaDeadError",
    "ReplicaHealth",
    "deploy_fleet",
    "node_salt",
    "rendezvous_choose",
    "rendezvous_rank",
    "rendezvous_score",
]
