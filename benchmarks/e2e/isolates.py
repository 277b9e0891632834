"""Layer isolates: what the traced run cannot see from outside.

Each isolate drives one layer with null neighbours and rides along in the
traced run of the workload it explains:

* ``iso.index.us_per_query.<kind>`` — an index kernel fed pre-batched
  64-query blocks of the workload's own tables, no gateway around it
  (``ivfpq`` + ``int8`` on ``ivfpq_uniform``, ``ivf`` on ``zipf_cached``,
  ``exact`` on ``sharded_process``);
* ``iso.scheduler.null_executor_us_per_req`` — the batching scheduler with
  a no-op executor: pure admission + batching + reply (``zipf_cached``);
* ``iso.sharded.pool.roundtrip_us`` — a process pool over 16-row shards:
  the pure pipe round trip (``sharded_process``).

An isolate whose entry point no longer resolves is skipped and listed under
``seams_missing``, like a traced seam.
"""

from __future__ import annotations

import asyncio
import statistics
from typing import Dict

import numpy as np

from .drivers import clock

BLOCK = 64
INDEX_KINDS = {
    "ivfpq_uniform": ("ivfpq", "int8"),
    "zipf_cached": ("ivf",),
    "sharded_process": ("exact",),
}


def for_workload(run) -> Dict[str, float]:
    """The isolates assigned to this run's workload."""
    values: Dict[str, float] = {}
    name = run.workload.name
    steps = [
        (f"iso.index.us_per_query.{kind}",
         lambda kind=kind: index_us_per_query(run, kind))
        for kind in INDEX_KINDS.get(name, ())
    ]
    if name == "zipf_cached":
        steps.append(("iso.scheduler.null_executor_us_per_req",
                      lambda: null_scheduler_us_per_req(run)))
    if name == "sharded_process":
        steps.append(("iso.sharded.pool.roundtrip_us",
                      lambda: pool_roundtrip_us(run)))
    for metric, step in steps:
        try:
            values[metric] = step()
        except (ImportError, AttributeError, TypeError) as error:
            run.tracer.missing.append(f"{metric}: {type(error).__name__}: {error}")
    return values


def index_us_per_query(run, kind: str) -> float:
    """Median time per query of ``kind`` over 64-query blocks."""
    from repro.serving.gateway import build_index

    index = build_index(kind, run.services)
    blocks = max(8, int(60 * run.scale))
    rng = np.random.default_rng(run.seed)
    per_query = []
    for _ in range(blocks):
        rows = rng.integers(run.num_queries, size=BLOCK)
        block = run.queries[rows]
        started = clock()
        index.search(block, 10)
        per_query.append((clock() - started) / BLOCK)
    return statistics.median(per_query) * 1e6


def null_scheduler_us_per_req(run) -> float:
    """Closed loop of 256 callers over a scheduler whose executor is a no-op."""
    from repro.serving.gateway import AsyncBatchScheduler

    scheduler = AsyncBatchScheduler(
        lambda batch: [None] * len(batch), max_batch_size=64, max_wait_s=0.002,
        max_queue=512, overload="wait")
    total = max(2_000, int(60_000 * run.scale))
    feed = iter(range(total))

    async def client() -> None:
        for query_id in feed:
            pending = await scheduler.submit(query_id, 10)
            scheduler.start()
            await pending.wait()

    async def drive() -> float:
        started = clock()
        await asyncio.gather(*(client() for _ in range(256)))
        elapsed = clock() - started
        await scheduler.stop()
        return elapsed

    return run.loop.run_until_complete(drive()) / total * 1e6


def pool_roundtrip_us(run) -> float:
    """Median scatter/gather round trip over two 16-row shards, one query."""
    from repro.serving.gateway import VersionedEmbeddingStore
    from repro.serving.sharded import make_pool

    store = VersionedEmbeddingStore(run.queries[:64], run.services[:32], num_shards=2)
    snapshot = store.snapshot()
    pool = make_pool("process", 2, index="exact")
    try:
        pool.prepare(snapshot)
        pool.activate(snapshot)
        query = snapshot.query([0])
        rounds = max(100, int(1_500 * run.scale))

        async def drive() -> float:
            trips = []
            for _ in range(rounds):
                started = clock()
                await pool.search_async(snapshot.version, query, 10)
                trips.append(clock() - started)
            return statistics.median(trips)

        return run.loop.run_until_complete(drive()) * 1e6
    finally:
        pool.close()
