"""The four workloads: what is deployed, what traffic it sees, and why.

Only the stack's front-door names are imported here (the store, the two
gateways, the fleet router and its health policy, the snapshot server and
fetcher); every other layer is reached through them, so a refactor below
the front door cannot break the end-to-end path.

Segment sizes are constants of the benchmark, sized on a 2-core box
(py3.11, numpy 2.x, one BLAS thread) for about 1.6 s per closed and 1.8-2.5 s
per open segment at ``--seconds 20``; ``--seconds`` scales them, never the
number of segments.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

TOP_K = 10
CLIENTS = 256
DEADLINE_S = 5.0
PROBE_QUERIES = 2048
#: ``--seconds`` at which the segment sizes below apply unscaled.
NOMINAL_SECONDS = 20
#: An open segment never has fewer samples: 40 must lie beyond its p99.
MIN_OPEN_SAMPLES = 4000

#: Request-path settings shared by every gateway of every workload.
GATEWAY_KWARGS = dict(
    top_k=TOP_K,
    max_wait_s=0.002,
    max_queue=512,
    overload="wait",
    default_deadline_s=DEADLINE_S,
    loop_confined=True,
    telemetry_enabled=True,
    tracing=False,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    num_services: int
    num_queries: int
    dim: int
    traffic: str  # "uniform" | "zipf"
    closed_requests: int
    open_rate: float
    open_requests: int
    #: None: answers must equal the oracle id for id.
    recall_floor: Optional[float]
    #: Seconds into every open segment at which a full publish starts.
    publish_offset_s: Optional[float] = None


# Recall floors are the seed-0 value minus 0.02; they live here because
# BENCHMARK.json has no key that could carry them.
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="ivfpq_uniform",
        why="tail traffic, cache off: the IVF-PQ kernel (probe, ADC gather, "
        "int8 refine) does most of the work; a kernel gain must show here",
        num_services=24_000,
        num_queries=8_000,
        dim=64,
        traffic="uniform",
        closed_requests=19_000,
        open_rate=3_000.0,
        open_requests=5_400,
        recall_floor=0.752,
    ),
    Workload(
        name="zipf_cached",
        why="head traffic, working set 4x the cache, plain IVF: per-request Python "
        "in gateway/scheduler/cache is over half the time; an IVF-PQ or pipe gain "
        "must show nothing",
        num_services=12_000,
        num_queries=2_000,
        dim=48,
        traffic="zipf",
        closed_requests=52_000,
        open_rate=4_000.0,
        open_requests=7_200,
        recall_floor=0.877,
    ),
    Workload(
        name="sharded_process",
        why="two worker processes over small exact shards: scatter, pipe "
        "framing, fd wake-ups and merge dominate; answers must equal the oracle",
        num_services=12_000,
        num_queries=2_000,
        dim=48,
        traffic="uniform",
        closed_requests=13_000,
        open_rate=2_000.0,
        open_requests=4_000,
        recall_floor=None,
    ),
    Workload(
        name="fleet_refresh",
        why="writes beside reads: wire-hydrated store, two replicas behind the "
        "router, a durable publish (two IVF rebuilds) inside every open segment",
        num_services=24_000,
        num_queries=2_000,
        dim=48,
        traffic="zipf",
        closed_requests=24_000,
        open_rate=2_000.0,
        open_requests=8_400,
        recall_floor=0.866,
        publish_offset_s=0.5,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


class Deployment:
    """One booted deployment: the request target plus what to tear down."""

    def __init__(self, target, gateways: List, store, session_ids: bool,
                 closers: List[Callable[[], None]]) -> None:
        self.target = target
        self.gateways = gateways
        self.store = store
        self.session_ids = session_ids
        self._closers = closers

    def call(self, index: int, query_id: int):
        """One request through the public request path."""
        if self.session_ids:
            return self.target.search_async(query_id, session_id=index)
        return self.target.search_async(query_id)

    async def stop(self) -> None:
        await self.target.stop_async()

    def close(self) -> None:
        self.target.close()
        for closer in self._closers:
            closer()


def boot(workload: Workload, queries: np.ndarray, services: np.ndarray,
         workdir: str) -> Deployment:
    """Construct the workload's deployment (the timed part of ``setup_s``)."""
    from repro.serving.gateway import ServingGateway, VersionedEmbeddingStore

    if workload.name == "ivfpq_uniform":
        store = VersionedEmbeddingStore(queries, services)
        gateway = ServingGateway(
            store, index="ivfpq", cache_capacity=0, max_batch_size=64,
            cpu_executor="thread", **GATEWAY_KWARGS)
        return Deployment(gateway, [gateway], store, False, [])
    if workload.name == "zipf_cached":
        store = VersionedEmbeddingStore(queries, services)
        gateway = ServingGateway(
            store, index="ivf", cache_capacity=512, max_batch_size=64,
            **GATEWAY_KWARGS)
        return Deployment(gateway, [gateway], store, False, [])
    if workload.name == "sharded_process":
        from repro.serving.sharded import ShardedGateway

        store = VersionedEmbeddingStore(
            queries, services, num_shards=2)
        gateway = ShardedGateway(
            store, index="exact", workers="process", cache_capacity=0,
            max_batch_size=64, **GATEWAY_KWARGS)
        return Deployment(gateway, [gateway], store, False, [])
    if workload.name == "fleet_refresh":
        return _boot_fleet(queries, services, workdir)
    raise KeyError(workload.name)


def _boot_fleet(queries: np.ndarray, services: np.ndarray,
                workdir: str) -> Deployment:
    """Source store -> snapshot server -> cold fetch -> restore -> fleet."""
    from repro.serving.fleet import FleetRouter, HealthPolicy
    from repro.serving.gateway import ServingGateway, VersionedEmbeddingStore
    from repro.serving.snapshot import SnapshotFetcher, SnapshotServer

    source_dir = tempfile.mkdtemp(prefix="source-", dir=workdir)
    host_dir = tempfile.mkdtemp(prefix="host-", dir=workdir)
    closers: List[Callable[[], None]] = [
        lambda: shutil.rmtree(source_dir, ignore_errors=True),
        lambda: shutil.rmtree(host_dir, ignore_errors=True),
    ]
    try:
        VersionedEmbeddingStore(
            queries, services, quantization=("int8",), durable_dir=source_dir)
        server = SnapshotServer(source_dir)
        closers.insert(0, server.stop)
        SnapshotFetcher(server.start(), host_dir).fetch()
        store = VersionedEmbeddingStore.restore(host_dir)
        gateways = [
            ServingGateway(store, index="ivf", cache_capacity=512,
                           max_batch_size=32, **GATEWAY_KWARGS)
            for _ in range(2)
        ]
        # Both replicas live in this process and stall together during a
        # publish; budgets sit at the admission bound and the deadline so
        # the router keeps routing instead of ejecting its whole fleet.
        policy = HealthPolicy(
            queue_budget=float(GATEWAY_KWARGS["max_queue"]),
            p99_budget_ms=DEADLINE_S * 1e3,
            loop_lag_budget_ms=DEADLINE_S * 1e3,
        )
        fleet = FleetRouter(gateways, policy=policy, default_deadline_s=DEADLINE_S)
    except BaseException:
        for closer in closers:
            closer()
        raise
    return Deployment(fleet, gateways, store, True, closers)
