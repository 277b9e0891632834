"""The serving names ``benchmarks/e2e`` reaches into must keep resolving.

``python -m benchmarks.e2e --check`` lists a seam that no longer resolves
under ``seams_missing`` but does not fail, so a rename under ``src/`` could
silently zero a layer's attribution in the benchmark that judges every PR,
and a constructor keyword it passes could vanish and crash it at boot.
These tests fail instead.
"""

import asyncio
import importlib

import pytest

from benchmarks.e2e.tracing import SEAMS
from benchmarks.e2e.workloads import GATEWAY_KWARGS
from repro.serving.gateway import (
    ServingGateway,
    VersionedEmbeddingStore,
    clustered_embeddings,
)
from repro.serving.sharded import ShardedGateway


@pytest.mark.parametrize(
    "spec", SEAMS, ids=[f"{spec.module}.{spec.attribute}" for spec in SEAMS])
def test_every_traced_seam_resolves(spec):
    target = importlib.import_module(spec.module)
    for part in spec.attribute.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.mark.parametrize("index", ["ivf", "ivfpq"])
def test_gateway_exposes_what_the_layer_report_reads(index):
    queries, services = clustered_embeddings(40, 400, 16, num_clusters=4, seed=2)
    gateway = ServingGateway(VersionedEmbeddingStore(queries, services),
                             index=index, top_k=5)
    try:
        # tracing.install_executor: the scheduler's executor is re-assignable.
        scheduler = gateway.scheduler
        batches = []
        original = scheduler.executor

        async def counted(batch):
            batches.append(len(batch))
            return await original(batch)

        scheduler.executor = counted

        async def scenario():
            await asyncio.gather(*(gateway.search_async(q) for q in range(8)))
            await gateway.stop_async()

        asyncio.run(scenario())
        assert sum(batches) == 8
        # layers.final_reads: the counters behind the per-layer metrics.
        assert scheduler.stats()["max_queue_depth"] >= 1.0
        summary = gateway.summary()
        expected = ["requests", "cache_hit_rate", "overload_rejections",
                    "deadline_misses"]
        assert [key for key in expected if key not in summary] == []
        assert summary["requests"] == 8.0
    finally:
        gateway.close()


def test_gateways_accept_every_keyword_the_workloads_pass():
    """The constructor calls of ``benchmarks/e2e/workloads.py``, in small."""
    queries, services = clustered_embeddings(40, 400, 16, num_clusters=4, seed=2)
    store = VersionedEmbeddingStore(queries, services)
    sharded_store = VersionedEmbeddingStore(queries, services, num_shards=2)
    for build, case_store, kwargs in (
        (ServingGateway, store,
         dict(index="ivfpq", cpu_executor="thread", cache_capacity=0)),
        (ServingGateway, store, dict(index="ivf", cache_capacity=512)),
        (ShardedGateway, sharded_store,
         dict(index="exact", workers="serial", cache_capacity=0)),
    ):
        with build(case_store, max_batch_size=64, **kwargs,
                   **GATEWAY_KWARGS) as gateway:
            ids, _ = gateway.search(3)
            assert len(ids) == GATEWAY_KWARGS["top_k"]
