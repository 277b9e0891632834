"""Approximate nearest-neighbour retrieval indexes for the serving gateway.

The paper's deployment (Sec. V-F.1) replaces the MLP click head with an
inner product so that online retrieval reduces to a maximum-inner-product
search (MIPS) over the exported service embeddings.  The seed substrate
performs that search as an exact brute-force scan; at production catalogue
sizes the scan dominates request latency, so the gateway offers a
pure-numpy approximate index beside it, behind a common
:class:`RetrievalIndex` interface:

* :class:`ExactIndex` — the reference brute-force scan, vectorised over a
  whole micro-batch of queries (one BLAS matmul instead of per-request
  matvecs);
* :class:`IVFIndex` — an inverted-file index: a k-means coarse quantizer
  partitions the catalogue into lists and each query only scans the
  ``num_probes`` lists whose centroids score highest, cutting the scanned
  fraction to roughly ``num_probes / num_lists``.

The quantized indexes from :mod:`repro.serving.quant.ivfpq`
(:class:`~repro.serving.quant.ivfpq.IVFPQIndex` coarse cells + product-
quantized residual codes, :class:`~repro.serving.quant.ivfpq.Int8Index`
int8 exact scan) register under the same interface as ``"ivfpq"`` and
``"int8"``; :func:`build_index` loads them on demand.

All indexes are immutable once built and ``search`` writes nothing to them:
an index is built once per published snapshot, memoised on that snapshot and
shared by every gateway asking for the same kind and parameters, which keeps
index state trivially consistent with the store version it was built from.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.serving.quant.kmeans import kmeans


class RetrievalIndex:
    """Common interface: batched top-K maximum-inner-product search.

    ``search`` takes a ``(batch, dim)`` query matrix and returns
    ``(ids, scores)`` arrays of shape ``(batch, k)``.  Rows with fewer than
    ``k`` reachable candidates are padded with id ``-1`` and score ``-inf``.
    """

    name: str = "base"

    def build(self, services: np.ndarray) -> "RetrievalIndex":
        raise NotImplementedError

    def search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    @property
    def num_services(self) -> int:
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        """Resident bytes of everything the index needs at serving time."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_queries(queries: np.ndarray, k: int) -> np.ndarray:
        if k <= 0:
            raise ValueError("k must be positive")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.ndim != 2:
            raise ValueError("queries must be a (batch, dim) matrix")
        return queries

    @staticmethod
    def _top_k(ids: np.ndarray, scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k of one candidate row, ties broken by ascending id, padded to k.

        The id tie-break makes results independent of candidate order, so a
        sharded scatter/gather merge (which gathers candidates shard-major)
        reproduces the single-index ranking bit for bit.
        """
        limit = min(k, scores.size)
        out_ids = np.full(k, -1, dtype=np.int64)
        out_scores = np.full(k, -np.inf)
        if limit == 0:
            return out_ids, out_scores
        top = np.argpartition(-scores, limit - 1)[:limit]
        order = top[np.lexsort((ids[top], -scores[top]))]
        out_ids[:limit] = ids[order]
        out_scores[:limit] = scores[order]
        return out_ids, out_scores

    @staticmethod
    def _batched_top_k(ids: np.ndarray, scores: np.ndarray,
                       k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k of every row of a ``(batch, n)`` score matrix at once.

        One ``argpartition`` + one ``lexsort`` over the whole batch replaces
        the per-row python loop — the loop dominated dense-scan latency at
        micro-batch sizes.  Semantics match :meth:`_top_k` exactly: sorted
        descending, ties broken by ascending id, ``(-1, -inf)`` padding.
        """
        batch, width = scores.shape
        limit = min(k, width)
        out_ids = np.full((batch, k), -1, dtype=np.int64)
        out_scores = np.full((batch, k), -np.inf)
        if limit == 0:
            return out_ids, out_scores
        if limit < width:
            keep = np.argpartition(-scores, limit - 1, axis=1)[:, :limit]
        else:
            keep = np.tile(np.arange(width, dtype=np.int64), (batch, 1))
        kept_scores = np.take_along_axis(scores, keep, axis=1)
        kept_ids = ids[keep]
        order = np.lexsort((kept_ids, -kept_scores), axis=1)
        out_ids[:, :limit] = np.take_along_axis(kept_ids, order, axis=1)
        out_scores[:, :limit] = np.take_along_axis(kept_scores, order, axis=1)
        return out_ids, out_scores


class ExactIndex(RetrievalIndex):
    """Brute-force batched MIPS — the recall=1 baseline the ANN indexes race."""

    name = "exact"

    def __init__(self) -> None:
        self._services: Optional[np.ndarray] = None

    def build(self, services: np.ndarray) -> "ExactIndex":
        services = np.asarray(services, dtype=np.float64)
        if services.ndim != 2:
            raise ValueError("services must be a (num_services, dim) matrix")
        self._services = services
        return self

    @property
    def num_services(self) -> int:
        if self._services is None:
            raise RuntimeError("index not built")
        return self._services.shape[0]

    @property
    def nbytes(self) -> int:
        if self._services is None:
            raise RuntimeError("index not built")
        return int(self._services.nbytes)

    def search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._services is None:
            raise RuntimeError("index not built")
        queries = self._check_queries(queries, k)
        scores = queries @ self._services.T  # one matmul for the whole batch
        all_ids = np.arange(self._services.shape[0], dtype=np.int64)
        return self._batched_top_k(all_ids, scores, k)


class IVFIndex(RetrievalIndex):
    """Inverted-file index with a k-means coarse quantizer (pure numpy).

    ``build`` clusters the catalogue into ``num_lists`` cells; ``search``
    scores each query against the centroids, probes the ``num_probes`` best
    cells and scans only their members.  The scan itself is organised
    *list-major*: for every probed cell one ``(members, probing queries)``
    matmul is issued, so the python-level loop is bounded by ``num_lists``
    rather than by the batch size — essential for micro-batched serving.
    """

    name = "ivf"

    def __init__(self, num_lists: Optional[int] = None, num_probes: Optional[int] = None,
                 kmeans_iters: int = 8, seed: int = 0) -> None:
        if num_lists is not None and num_lists <= 0:
            raise ValueError("num_lists must be positive")
        if num_probes is not None and num_probes <= 0:
            raise ValueError("num_probes must be positive")
        self.num_lists = num_lists
        self.num_probes = num_probes
        self.kmeans_iters = kmeans_iters
        self.seed = seed
        self._num_services = 0
        self._centroids: Optional[np.ndarray] = None
        self._half_sq_norms: Optional[np.ndarray] = None
        self._list_ids: List[np.ndarray] = []
        self._list_vectors: List[np.ndarray] = []

    # ------------------------------------------------------------------ #
    # Build: k-means coarse quantizer
    # ------------------------------------------------------------------ #
    def build(self, services: np.ndarray) -> "IVFIndex":
        services = np.asarray(services, dtype=np.float64)
        if services.ndim != 2:
            raise ValueError("services must be a (num_services, dim) matrix")
        num_services = services.shape[0]
        num_lists = self.num_lists or max(1, int(round(np.sqrt(num_services))))
        num_lists = min(num_lists, num_services)
        centroids, assignment = kmeans(
            services, num_lists, iters=max(1, self.kmeans_iters), rng=self.seed
        )
        # Drop cells that ended empty so every stored list is scannable.
        self._list_ids, self._list_vectors, kept = [], [], []
        for cell in range(num_lists):
            ids = np.nonzero(assignment == cell)[0].astype(np.int64)
            if ids.size == 0:
                continue
            kept.append(cell)
            self._list_ids.append(ids)
            self._list_vectors.append(np.ascontiguousarray(services[ids]))
        self._centroids = centroids[kept]
        self._half_sq_norms = 0.5 * np.sum(self._centroids ** 2, axis=1)
        # The inverted lists hold a full copy of every vector; keeping the
        # original table too would double resident memory for no reader.
        self._num_services = num_services
        return self

    @property
    def num_services(self) -> int:
        if self._centroids is None:
            raise RuntimeError("index not built")
        return self._num_services

    @property
    def num_cells(self) -> int:
        return len(self._list_ids)

    @property
    def nbytes(self) -> int:
        if self._centroids is None:
            raise RuntimeError("index not built")
        return int(
            sum(vectors.nbytes for vectors in self._list_vectors)
            + sum(ids.nbytes for ids in self._list_ids)
            + self._centroids.nbytes
        )

    def cell_members(self, cell: int) -> np.ndarray:
        """Service ids stored in one inverted list (diagnostics/tests)."""
        return self._list_ids[cell]

    # ------------------------------------------------------------------ #
    # Search: probe best cells, list-major candidate scoring
    # ------------------------------------------------------------------ #
    def search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._centroids is None:
            raise RuntimeError("index not built")
        queries = self._check_queries(queries, k)
        batch = queries.shape[0]
        cells = self.num_cells
        # Default probe count ~ sqrt(cells): scans ~sqrt(num_services) of the
        # catalogue at bench scale yet degrades gracefully on tiny catalogues.
        probes = min(self.num_probes or max(1, int(round(np.sqrt(cells)))), cells)
        affinity = queries @ self._centroids.T - self._half_sq_norms
        if probes < cells:
            probed = np.argpartition(-affinity, probes - 1, axis=1)[:, :probes]
        else:
            probed = np.tile(np.arange(cells), (batch, 1))
        probe_mask = np.zeros((batch, cells), dtype=bool)
        np.put_along_axis(probe_mask, probed, True, axis=1)

        cand_ids: List[List[np.ndarray]] = [[] for _ in range(batch)]
        cand_scores: List[List[np.ndarray]] = [[] for _ in range(batch)]
        for cell in range(cells):
            rows = np.nonzero(probe_mask[:, cell])[0]
            if rows.size == 0:
                continue
            # (members, probing queries) in one matmul; loop count <= num_cells.
            scores = self._list_vectors[cell] @ queries[rows].T
            ids = self._list_ids[cell]
            for column, row in enumerate(rows):
                cand_ids[row].append(ids)
                cand_scores[row].append(scores[:, column])

        out_ids = np.empty((batch, k), dtype=np.int64)
        out_scores = np.empty((batch, k))
        for row in range(batch):
            ids = np.concatenate(cand_ids[row]) if cand_ids[row] else np.zeros(0, dtype=np.int64)
            scores = np.concatenate(cand_scores[row]) if cand_scores[row] else np.zeros(0)
            out_ids[row], out_scores[row] = self._top_k(ids, scores, k)
        return out_ids, out_scores


_INDEX_REGISTRY = {
    ExactIndex.name: ExactIndex,
    IVFIndex.name: IVFIndex,
}


def _register_quantized_indexes() -> None:
    """Pull the quantized indexes into the registry (import-cycle-free).

    :mod:`repro.serving.quant.ivfpq` subclasses :class:`RetrievalIndex`, so
    it imports this module; loading it lazily here (rather than at module
    top) lets either import order work.
    """
    from repro.serving.quant.ivfpq import Int8Index, IVFPQIndex

    _INDEX_REGISTRY.setdefault(IVFPQIndex.name, IVFPQIndex)
    _INDEX_REGISTRY.setdefault(Int8Index.name, Int8Index)


def build_index(kind: str, services: np.ndarray, **params) -> RetrievalIndex:
    """Build a retrieval index by registry name
    (``exact`` / ``ivf`` / ``ivfpq`` / ``int8``)."""
    if kind not in _INDEX_REGISTRY:
        _register_quantized_indexes()
    try:
        factory = _INDEX_REGISTRY[kind]
    except KeyError:
        known = ", ".join(sorted(_INDEX_REGISTRY))
        raise ValueError(f"unknown index kind {kind!r} (known: {known})") from None
    return factory(**params).build(services)


def index_kinds() -> Tuple[str, ...]:
    """Registered index names, exact scan first."""
    _register_quantized_indexes()
    return tuple(sorted(_INDEX_REGISTRY, key=lambda name: (name != "exact", name)))
