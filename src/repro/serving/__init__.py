"""Online serving substrate (Fig. 9 of the paper).

The production deployment runs a hybrid offline–online pipeline:

1. **Data processing** — node-feature and relation extractors build the
   service-search graph (here: :mod:`repro.serving.feature_extractor` wrapping
   the graph builder);
2. **Offline training** — GARCIA is trained and its query/service embeddings
   are exported daily to an embedding store;
3. **Online serving** — a request looks up the query embedding, retrieves the
   top-K services by inner product (the MLP head of Eq. 12 is replaced by an
   inner product for latency reasons, Sec. V-F.1) and returns the ranked list.

The high-throughput production variant of step 3 lives in
:mod:`repro.serving.gateway`: approximate (IVF / IVF-PQ) and int8
retrieval indexes, a versioned embedding store with atomic daily hot-swap,
an asyncio-native micro-batching request scheduler (bounded admission
queue, per-request deadlines, cooperative cancellation — the gateway's
synchronous ``search`` / ``rank`` / ``rank_batch`` run the same coroutines
to completion) plus an LRU+TTL result cache, and serving telemetry.  Its
scale-out deployment lives in :mod:`repro.serving.sharded`: one worker per
store shard (serial / thread / process backends) behind a scatter/gather
gateway with exact top-K merging and per-shard telemetry; the scatter
overlaps per-shard work on the event loop.  The
experimentation tier lives in :mod:`repro.serving.abtest`: deterministic
bucketed traffic routing over gateway arms with joint CTR + serving-cost
reporting (the paper's Fig. 10 bucket test replayed *through* the serving
stack).  The replicated tier lives in :mod:`repro.serving.fleet`: a
health-aware :class:`FleetRouter` front-end over N gateway replicas
(rendezvous session routing, least-loaded fallback, hysteretic
ejection/readmission, bounded retry-on-failover) plus a seeded chaos
controller that proves no request is lost when a replica dies, stalls,
or slow-rolls mid-storm.  The observability substrate lives in
:mod:`repro.serving.obs`:
a bounded metrics core (counters / gauges / log-bucketed histograms with
Prometheus + JSON export), end-to-end request tracing from the gateway
through shard workers, and a tail-sampling flight recorder with a
poll-cheap health snapshot.  The durability substrate lives in
:mod:`repro.serving.snapshot`: a chunked, checksummed, content-addressed
on-disk format for store versions (fp tables, int8 scales/codes, PQ
codebooks/codes, trained index payloads) behind an atomically-flipped
manifest pointer — publishes write only changed chunks, and replicas and
gateways warm-start by mmapping the manifest's chunks read-only instead
of re-quantizing.  See
``src/repro/serving/README.md`` for the layer map.
"""

from repro.serving.abtest import (
    ABExperimentConfig,
    BucketRouter,
    GatewayABReport,
    OnlineABExperiment,
)
from repro.serving.embedding_store import EmbeddingStore
from repro.serving.feature_extractor import NodeFeatureExtractor, RelationExtractor
from repro.serving.fleet import (
    ChaosController,
    FleetRouter,
    FleetUnavailableError,
    HealthPolicy,
    ReplicaDeadError,
    deploy_fleet,
)
from repro.serving.gateway import (
    ServingGateway,
    VersionedEmbeddingStore,
    deploy_gateway,
)
from repro.serving.obs import (
    FlightRecorder,
    HealthSnapshot,
    MetricsRegistry,
    Tracer,
)
from repro.serving.pipeline import ServingPipeline, deploy_model
from repro.serving.ranking import RankedService, RankingModule
from repro.serving.retrieval import InnerProductRetriever, ModelScoringRetriever
from repro.serving.sharded import ShardedGateway
from repro.serving.snapshot import (
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    open_snapshot,
    write_snapshot,
)

__all__ = [
    "ABExperimentConfig",
    "BucketRouter",
    "ChaosController",
    "EmbeddingStore",
    "FleetRouter",
    "FleetUnavailableError",
    "FlightRecorder",
    "GatewayABReport",
    "HealthPolicy",
    "HealthSnapshot",
    "MetricsRegistry",
    "OnlineABExperiment",
    "ReplicaDeadError",
    "InnerProductRetriever",
    "ModelScoringRetriever",
    "NodeFeatureExtractor",
    "Tracer",
    "RankedService",
    "RankingModule",
    "RelationExtractor",
    "ServingGateway",
    "ServingPipeline",
    "ShardedGateway",
    "SnapshotError",
    "SnapshotIntegrityError",
    "SnapshotNotFoundError",
    "VersionedEmbeddingStore",
    "deploy_fleet",
    "deploy_gateway",
    "deploy_model",
    "open_snapshot",
    "write_snapshot",
]
