"""The sharded serving gateway: scatter/gather top-K over a worker pool.

:class:`ShardedGateway` is the multi-worker deployment of the PR-1 gateway:
the same micro-batching scheduler, result cache, staleness contract and
telemetry, but the backend search scatters every de-duplicated micro-batch
to one :class:`~repro.serving.sharded.worker.ShardWorker` per contiguous
store shard, gathers the per-shard top-K candidate lists and merges them
exactly (:func:`~repro.serving.sharded.merge.merge_top_k`).  For exact
scoring backends (``exact`` / ``int8``) the merged result is bit-identical
to the single-process gateway's; for the ANN kinds each shard builds its own
index over its rows, and recall stays governed by the same per-shard
probe/refine knobs.

Hot-swaps ride the store's two-phase listener protocol: a publish builds
the new version's worker set *before* the store's reference flip, beside the
set still serving (blue/green), and every search is pinned to the snapshot
version the batch observed — the pool answers it from that version's set
alone, each reply echoes the version its shard served, and a mismatch fails
the batch loudly rather than blending table generations.  Per-shard latency,
query and gather-width breakdowns land in
:meth:`~repro.serving.gateway.telemetry.GatewayTelemetry.shard_rows`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.serving.gateway.gateway import ServingGateway
from repro.serving.gateway.store import VersionedEmbeddingStore
from repro.serving.sharded.merge import merge_top_k
from repro.serving.sharded.pool import make_pool, resolve_workers


class ShardedGateway(ServingGateway):
    """Scatter/gather request front-end over one worker per store shard."""

    def __init__(
        self,
        store: VersionedEmbeddingStore,
        index: str = "ivf",
        index_params: Optional[dict] = None,
        workers: str = "auto",
        search_timeout_s: float = 60.0,
        **gateway_kwargs,
    ) -> None:
        snapshot = store.snapshot()
        if snapshot.num_shards < 2:
            raise ValueError(
                "ShardedGateway needs a store with at least 2 shards; "
                "use ServingGateway (or deploy_gateway(num_shards=1)) instead"
            )
        self.workers = resolve_workers(workers)
        self.pool = make_pool(
            self.workers,
            snapshot.num_shards,
            index=index,
            index_params=index_params,
            timeout_s=search_timeout_s,
        )
        try:
            super().__init__(
                store, index=index, index_params=index_params, **gateway_kwargs
            )
        except BaseException:
            self.pool.close()
            raise

    # ------------------------------------------------------------------ #
    # Two-phase snapshot listener: delegate the table lifecycle to the pool
    # ------------------------------------------------------------------ #
    def prepare(self, snapshot) -> None:
        """The pool builds the new version's worker set before the store flips."""
        self.pool.prepare(snapshot)

    def activate(self, snapshot) -> None:
        """Flip happened: the pool drops the sets no batch can pin any more."""
        self.pool.activate(snapshot)

    def retire(self, version: int) -> None:
        """Aborted publish: the pool stops the never-flipped set."""
        self.pool.retire(version)

    # ------------------------------------------------------------------ #
    # Scatter/gather backend search
    # ------------------------------------------------------------------ #
    async def _search_backend_async(
        self, snapshot, query_matrix: np.ndarray, k: int, spans=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scatter the batch to all shards, gather, exact-merge the top-K.

        Shard work overlaps via the event loop (executor futures for the
        thread backend, pipe-fd readers for the process backend).  Each
        reply carries the version the shard actually served; anything other
        than exactly the pinned snapshot version on every shard is a
        consistency violation and fails the batch.  When ``spans`` is a
        traced batch, the pool receives the pipe-portable trace context and
        every reply carries a worker-side child span.
        """
        trace_ctx = spans.pipe_context() if spans is not None else None
        t0 = spans.clock() if spans is not None else 0.0
        replies = await self.pool.search_async(
            snapshot.version, query_matrix, k, trace_ctx=trace_ctx
        )
        t1 = spans.clock() if spans is not None else 0.0
        return self._merge_replies(
            snapshot, query_matrix.shape[0], replies, k,
            spans=spans, window=(t0, t1),
        )

    def _merge_replies(
        self, snapshot, num_queries: int, replies, k: int, spans=None, window=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        served = {reply.version for reply in replies}
        if served != {snapshot.version}:
            raise RuntimeError(
                f"mixed-version gather: pinned v{snapshot.version}, "
                f"shards served {sorted(served)}"
            )
        for reply in replies:
            self.telemetry.record_shard(
                reply.shard,
                reply.latency_s,
                queries=num_queries,
                candidates=int((reply.ids >= 0).sum()),
            )
        if spans is not None:
            t0, t1 = window
            scatter = spans.add("scatter", t0, t1, shards=len(replies))
            for reply in replies:
                if reply.span is None:
                    continue
                # Worker clocks are not ours: keep the measured duration,
                # anchor the child at the scatter start, clamp to the
                # observed window so parents always contain children.
                duration = reply.span["end_s"] - reply.span["start_s"]
                spans.add(
                    "shard_worker",
                    t0,
                    min(t0 + max(duration, 0.0), t1),
                    parent=scatter,
                    shard=reply.span["shard"],
                    **reply.span["attrs"],
                )
            m0 = spans.clock()
        merged = merge_top_k(
            [reply.ids for reply in replies],
            [reply.scores for reply in replies],
            k,
        )
        if spans is not None:
            spans.add("merge", m0, spans.clock(), shards=len(replies), k=k)
        return merged

    # ------------------------------------------------------------------ #
    # Reporting / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return self.pool.num_shards

    def summary(self) -> Dict[str, float]:
        summary = super().summary()
        summary["num_shards"] = float(self.num_shards)
        return summary

    def close(self) -> None:
        """Unsubscribe from the store and shut the worker pool down."""
        super().close()
        self.pool.close()
