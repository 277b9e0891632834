"""One shard's serving state: one version's retrieval index over one row range.

A :class:`ShardWorker` answers top-K queries for one contiguous row range
``[lo, hi)`` of the service catalogue at exactly one published version, from
a per-shard :class:`~repro.serving.gateway.index.RetrievalIndex` of any
registered kind (``exact`` / ``ivf`` / ``int8`` / ``ivfpq``), built once, at
construction, from exactly what the pool hands it:

* the shard's fp embedding rows (``EmbeddingSnapshot.shard`` — a zero-copy
  view in the in-process backends, the same pages inherited copy-on-write by
  a forked process worker),
* the shard's rows of the snapshot's int8 table for a kind that scores
  against one (``snapshot.int8_table().rows(lo, hi)``) — they keep its
  *global* per-dimension scales and ``query_scale``, which is what makes
  sharded ``int8`` scoring bit-identical to the single-process scan on
  every backend, whether or not the store publishes the table.

A worker never changes version: a publish builds a fresh worker per shard (a
fresh *set*), and which versions are resident is the pool's decision alone
(:class:`~repro.serving.sharded.pool.WorkerPool`).  A request that pinned
snapshot ``v`` mid-hot-swap is answered by ``v``'s set on every shard or
fails loudly, never from a mixed pairing.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.serving.gateway.index import build_index


class ShardWorker:
    """One shard's index at one version: built once, searched many times."""

    def __init__(
        self,
        shard: int,
        version: int,
        services: np.ndarray,
        lo: int,
        int8_table=None,
        index: str = "exact",
        index_params: Optional[dict] = None,
    ) -> None:
        """Build ``version``'s index from this shard's rows.

        ``services`` holds only the shard's rows (global ids ``lo .. lo +
        len(services)``).  ``int8_table``, when given, is the shard's rows of
        the snapshot's int8 table and reaches the index as its
        ``int8_table`` parameter — the pool decides whether the kind takes
        one.
        """
        if shard < 0:
            raise ValueError("shard must be non-negative")
        services = np.asarray(services)
        if services.ndim != 2:
            raise ValueError("services must be a (shard_rows, dim) matrix")
        params = dict(index_params or {})
        if int8_table is not None:
            params["int8_table"] = int8_table
        self.shard = shard
        self.version = version
        self.lo = int(lo)
        self.hi = self.lo + services.shape[0]
        self.index = build_index(index, services, **params)

    def search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` of this shard, with global ids (``-1`` pads stay ``-1``)."""
        ids, scores = self.index.search(queries, k)
        return np.where(ids >= 0, ids + self.lo, ids), scores
