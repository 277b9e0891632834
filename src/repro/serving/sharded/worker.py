"""One shard's serving state: its tables and its per-shard retrieval index.

A :class:`ShardWorker` owns everything needed to answer top-K queries for one
contiguous row range ``[lo, hi)`` of the service catalogue:

* the shard's fp embedding rows (a zero-copy view of the snapshot in the
  in-process backends, a shared-memory copy in the process backend),
* the shard's published quantized tables, when the store publishes them —
  the int8 rows keep the *global* per-dimension scales, which is what makes
  sharded ``int8`` scoring bit-identical to the single-process scan,
* a per-shard :class:`~repro.serving.gateway.index.RetrievalIndex` of any
  registered kind (``exact`` / ``ivf`` / ``int8`` / ``ivfpq``).

Workers are versioned like the store: :meth:`prepare` builds a new version's
tables and index while older versions keep serving, :meth:`activate` retires
everything older than the flipped version's predecessor, and :meth:`search`
answers *at an explicit version* — a request that pinned snapshot ``v``
mid-hot-swap is answered from ``v``'s tables on every shard or fails loudly,
never from a mixed pairing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.serving.gateway.index import RetrievalIndex, build_index
from repro.serving.gateway.store import StaleVersionError


@dataclass
class ShardVersion:
    """One published version's tables + index, owned by one shard worker."""

    version: int
    lo: int
    hi: int
    index: RetrievalIndex
    tables: Dict[str, object] = field(default_factory=dict)

    @property
    def num_services(self) -> int:
        return self.hi - self.lo

    @property
    def nbytes(self) -> int:
        """Resident bytes of the shard's index plus owned quantized tables."""
        total = int(self.index.nbytes)
        for kind, table in self.tables.items():
            if kind != "fp":  # fp rows are snapshot views, not worker-owned
                total += int(table.nbytes)
        return total


class ShardWorker:
    """Owns one shard's fp/int8/PQ tables and a per-shard retrieval index."""

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
        pq_table=None,
        opq_table=None,
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
        tables: Dict[str, object] = {"fp": services}
        if int8_table is not None:
            tables["int8"] = int8_table
        if pq_table is not None:
            tables["pq"] = pq_table
        if opq_table is not None:
            tables["opq"] = opq_table
        entry = ShardVersion(
            version=version,
            lo=int(lo),
            hi=int(lo) + services.shape[0],
            index=index,
            tables=tables,
        )
        with self._lock:
            self._versions[version] = entry

    def prepare_snapshot(self, snapshot) -> None:
        """Prepare from a store snapshot (zero-copy in-process handoff)."""
        ids, services = snapshot.shard(self.shard)
        lo = int(ids[0]) if ids.size else int(snapshot.shard_bounds[self.shard])
        quantized = getattr(snapshot, "quantized", {})
        lo_bound = snapshot.shard_bounds[self.shard]
        hi_bound = snapshot.shard_bounds[self.shard + 1]
        int8_table = quantized.get("int8")
        pq_table = quantized.get("pq")
        opq_table = quantized.get("opq")
        self.prepare(
            snapshot.version,
            services,
            lo,
            int8_table=(
                int8_table.rows(lo_bound, hi_bound) if int8_table is not None else None
            ),
            pq_table=(
                pq_table.rows(lo_bound, hi_bound) if pq_table is not None else None
            ),
            opq_table=(
                opq_table.rows(lo_bound, hi_bound) if opq_table is not None else None
            ),
        )

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
