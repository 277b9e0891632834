"""High-throughput serving gateway (paper Sec. V-F, "online deployment").

The paper deploys GARCIA behind an industrial inference platform: the MLP
click head is replaced by an inner product "for latency reasons"
(Sec. V-F.1), query/service embeddings are re-exported **daily** (Fig. 9),
and the online tier answers heavy user traffic from the exported tables.
This package is that serving tier for the reproduction, mapped component by
component onto the paper's deployment:

=====================  =======================================================
Paper (Sec. V-F)        Gateway component
=====================  =======================================================
Inner-product head      :mod:`~repro.serving.gateway.index` —
(latency-motivated      :class:`RetrievalIndex` with an exact scan plus the
MIPS retrieval)         pure-numpy :class:`IVFIndex` (k-means coarse
                        quantizer) and the quantized indexes from
                        :mod:`repro.serving.quant` (:class:`IVFPQIndex`
                        coarse cells + PQ residual codes, :class:`Int8Index`
                        int8 exact scan)
Daily embedding         :mod:`~repro.serving.gateway.store` —
refresh (Fig. 9)        :class:`VersionedEmbeddingStore`, shard-aware with
                        atomic hot-swap, stale-read protection, and
                        an int8 snapshot table published alongside the fp
                        arrays
Online serving under    :mod:`~repro.serving.gateway.scheduler` —
heavy traffic           :class:`AsyncBatchScheduler` micro-batching on one
                        event loop with a max-wait deadline;
                        :mod:`~repro.serving.gateway.cache` —
                        :class:`LRUTTLCache` keyed by (query, k, version)
Deployment metrics      :mod:`~repro.serving.gateway.telemetry` —
(CTR uplift aside)      QPS, p50/p95/p99 latency, cache hit rate and ANN
                        recall@K against the exact scan
=====================  =======================================================

:class:`ServingGateway` ties the pieces together and speaks the same
``rank(query_id, k)`` protocol as the seed pipeline, so the A/B simulator
and the case-study tooling work on top of it unchanged.  The request path is
``await gateway.search_async(...)``; ``search`` / ``rank`` / ``rank_batch``
run that same path to completion for synchronous callers.
"""

from repro.serving.gateway.cache import LRUTTLCache
from repro.serving.gateway.gateway import ServingGateway, deploy_gateway
from repro.serving.gateway.index import (
    ExactIndex,
    IVFIndex,
    RetrievalIndex,
    build_index,
    index_kinds,
)
from repro.serving.gateway.scheduler import (
    AsyncBatchScheduler,
    DeadlineExceededError,
    OverloadError,
    PendingRequest,
)
from repro.serving.gateway.store import (
    EmbeddingSnapshot,
    SnapshotListener,
    StaleReadError,
    StaleVersionError,
    VersionedEmbeddingStore,
)
from repro.serving.gateway.telemetry import GatewayTelemetry
from repro.serving.gateway.workload import (
    clustered_embeddings,
    flash_crowd_gaps,
    poisson_gaps,
    zipf_query_ids,
)
from repro.serving.quant.ivfpq import Int8Index, IVFPQIndex

__all__ = [
    "AsyncBatchScheduler",
    "DeadlineExceededError",
    "EmbeddingSnapshot",
    "ExactIndex",
    "GatewayTelemetry",
    "IVFIndex",
    "IVFPQIndex",
    "Int8Index",
    "LRUTTLCache",
    "OverloadError",
    "PendingRequest",
    "RetrievalIndex",
    "ServingGateway",
    "SnapshotListener",
    "StaleReadError",
    "StaleVersionError",
    "VersionedEmbeddingStore",
    "build_index",
    "clustered_embeddings",
    "deploy_gateway",
    "flash_crowd_gaps",
    "index_kinds",
    "poisson_gaps",
    "zipf_query_ids",
]
