"""One shard's serving state: a per-shard retrieval index per version.

A :class:`ShardWorker` answers top-K queries for one contiguous row range
``[lo, hi)`` of the service catalogue from a per-shard
:class:`~repro.serving.gateway.index.RetrievalIndex` of any registered kind
(``exact`` / ``ivf`` / ``int8`` / ``ivfpq``), built by :meth:`prepare` from
exactly what the pool hands it:

* the shard's fp embedding rows (``EmbeddingSnapshot.shard`` — a zero-copy
  view in the in-process backends, its pickled copy in the process backend),
* the shard's published int8 rows, when the store publishes them
  (``EmbeddingSnapshot.quantized_shard("int8", ...)``) — they keep the
  *global* per-dimension scales and the frozen ``query_scale``, which is
  what makes sharded ``int8`` scoring bit-identical to the single-process
  scan on every backend.

Workers are versioned like the store: :meth:`prepare` builds a new version's
index while older versions keep serving, :meth:`activate` retires
everything older than the flipped version's predecessor, and :meth:`search`
answers *at an explicit version* — a request that pinned snapshot ``v``
mid-hot-swap is answered from ``v``'s tables on every shard or fails loudly,
never from a mixed pairing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.serving.gateway.index import RetrievalIndex, build_index
from repro.serving.gateway.store import StaleVersionError


@dataclass
class ShardVersion:
    """One published version's index over ``[lo, hi)``, owned by one worker."""

    version: int
    lo: int
    hi: int
    index: RetrievalIndex

    @property
    def num_services(self) -> int:
        return self.hi - self.lo

    @property
    def nbytes(self) -> int:
        """Resident bytes of the shard's index (it owns the tables it scans)."""
        return int(self.index.nbytes)


class ShardWorker:
    """Owns one shard's per-version retrieval indexes."""

    def __init__(
        self,
        shard: int,
        index: str = "exact",
        index_params: Optional[dict] = None,
    ) -> None:
        if shard < 0:
            raise ValueError("shard must be non-negative")
        self.shard = shard
        self.index_kind = index
        self.index_params = dict(index_params or {})
        self._lock = threading.Lock()
        self._versions: Dict[int, ShardVersion] = {}

    # ------------------------------------------------------------------ #
    # Two-phase version lifecycle
    # ------------------------------------------------------------------ #
    def prepare(
        self,
        version: int,
        services: np.ndarray,
        lo: int,
        int8_table=None,
    ) -> None:
        """Build ``version``'s index from this shard's rows; serve it on demand.

        ``services`` holds only the shard's rows (global ids ``lo .. lo +
        len(services)``).  When the published ``int8_table`` rows are passed
        and the index kind can consume them (``int8`` scans them, ``ivfpq``
        refines against them), they are shared instead of re-quantized —
        preserving the global scales and with them exact parity with the
        single-process quantized scan.
        """
        services = np.asarray(services)
        if services.ndim != 2:
            raise ValueError("services must be a (shard_rows, dim) matrix")
        params = dict(self.index_params)
        if self.index_kind in ("int8", "ivfpq") and int8_table is not None:
            params.setdefault("int8_table", int8_table)
        index = build_index(self.index_kind, services, **params)
        entry = ShardVersion(
            version=version,
            lo=int(lo),
            hi=int(lo) + services.shape[0],
            index=index,
        )
        with self._lock:
            self._versions[version] = entry

    def activate(self, version: int) -> None:
        """``version`` flipped to current: keep it and its predecessor only.

        The predecessor stays resident so a request that pinned the previous
        snapshot right before the flip can still be answered at its version.
        """
        with self._lock:
            if version not in self._versions:
                raise KeyError(f"shard {self.shard} never prepared version {version}")
            for stale in [v for v in self._versions if v < version - 1]:
                del self._versions[stale]

    def retire(self, version: int) -> None:
        """Drop one version's tables (aborted publish path)."""
        with self._lock:
            self._versions.pop(version, None)

    # ------------------------------------------------------------------ #
    # Query path
    # ------------------------------------------------------------------ #
    def search(
        self, version: int, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` of this shard at exactly ``version``, with global ids.

        Raises :class:`~repro.serving.gateway.store.StaleVersionError` when
        the version is not resident here — the request path re-pins the
        fresh snapshot and retries rather than silently blending table
        generations.
        """
        entry = self._versions.get(version)
        if entry is None:
            known = sorted(self._versions) or ["none"]
            raise StaleVersionError(
                f"shard {self.shard} holds no tables for version {version} "
                f"(resident: {known})"
            )
        ids, scores = entry.index.search(queries, k)
        return np.where(ids >= 0, ids + entry.lo, ids), scores

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def versions(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._versions))

    def version_state(self, version: int) -> ShardVersion:
        entry = self._versions.get(version)
        if entry is None:
            raise KeyError(f"shard {self.shard} holds no version {version}")
        return entry

    def nbytes(self, version: int) -> int:
        return self.version_state(version).nbytes
