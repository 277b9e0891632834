"""Sharded multi-process serving tier (the ROADMAP's scale-out item).

The :class:`~repro.serving.gateway.store.VersionedEmbeddingStore` already
lays service embeddings — and their quantized replicas — out in contiguous,
row-aligned shards.  This package puts one worker per shard behind the
gateway:

* :mod:`~repro.serving.sharded.worker` — :class:`ShardWorker`: one shard's
  retrieval index of any registered kind at one version, built from the
  shard's fp rows (and its published int8 rows) and never changed after;
* :mod:`~repro.serving.sharded.merge` — :func:`merge_top_k`: exact
  vectorised k-way merging of per-shard top-K candidate lists, preserving
  single-process results bit for bit for exact scoring backends;
* :mod:`~repro.serving.sharded.pool` — serial / thread / process execution
  backends behind one :class:`WorkerPool` surface whose only scatter is the
  coroutine ``search_async``.  A publish builds a fresh worker set per
  version beside the serving one (blue/green) and the pool's
  ``{version: set}`` map alone decides what is resident; every backend
  builds a shard's worker from the same arguments (the snapshot's own row
  views — by reference in process, inherited by a forked worker process),
  so the in-process backends are bit-identical to the process one, which is
  what keeps tests and CI deterministic;
* :mod:`~repro.serving.sharded.gateway` — :class:`ShardedGateway`: the
  PR-1 request path (micro-batching, caching, telemetry, staleness) with a
  scatter/gather backend and per-shard telemetry breakdowns.

``deploy_gateway(model, num_shards=4)`` is the one-call entry point: it
builds the sharded store, subscribes the worker pool to the store's
two-phase publish protocol, and returns a gateway whose every search is
pinned to one snapshot version across all shards.
"""

from repro.serving.sharded.gateway import ShardedGateway
from repro.serving.sharded.merge import merge_top_k, shard_candidate_counts
from repro.serving.sharded.pool import (
    WORKER_KINDS,
    ProcessPool,
    SerialPool,
    ShardReply,
    ThreadPool,
    WorkerPool,
    make_pool,
    resolve_workers,
)
from repro.serving.sharded.worker import ShardWorker

__all__ = [
    "ProcessPool",
    "SerialPool",
    "ShardReply",
    "ShardWorker",
    "ShardedGateway",
    "ThreadPool",
    "WORKER_KINDS",
    "WorkerPool",
    "make_pool",
    "merge_top_k",
    "resolve_workers",
    "shard_candidate_counts",
]
