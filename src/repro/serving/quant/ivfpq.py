"""Quantized retrieval indexes: IVF-PQ (coarse cells + ADC scan) and int8.

:class:`IVFPQIndex` is the classic IVFADC layout mapped onto the gateway's
:class:`~repro.serving.gateway.index.RetrievalIndex` protocol: a k-means
coarse quantizer partitions the catalogue into inverted lists (like the fp
:class:`~repro.serving.gateway.index.IVFIndex`), but the lists store *PQ
codes of the residuals* ``x - centroid`` instead of float vectors.  A query
scores a probed cell as

    q . x_hat  =  q . centroid  +  ADC(q, residual code)

so the scan touches a few bytes per candidate — an order of magnitude less
memory traffic than the fp scan — and never reconstructs the catalogue.
An optional refinement stage (IVFADC+R) re-scores a fixed ADC shortlist
(the best ``refine_factor * k`` candidates per query) against a symmetric
int8 table, recovering most of the PQ reconstruction loss for one byte per
dimension.

Two deviations from the textbook layout keep the pure-numpy scan fast:

* **Balanced cells.**  The coarse assignment is capacity-constrained (no
  cell takes more than ``ceil(slack * n / num_lists)`` members,
  most-confident points claim their nearest cell first), and every cell is
  laid out with as many slots as the fullest one holds, so a probe set
  expands to a *rectangular* ``(batch, probes * cell_size)`` candidate
  block — the entire micro-batch is scored with one flat gather and one
  BLAS matvec, no ragged scatter and no per-cell python loop.  Cells are
  not equal-size: the slots a cell does not fill are padding (24 % of the
  slots at 24,000 services in 465 cells with the default ``slack=1.3``).
  Capped lists also bound worst-case scan cost, which is what a latency SLO
  actually needs (and what a sharded tier wants shipped per shard).
* **Sentinel LUT column.**  Padding slots point at an extra always ``-inf``
  column appended to each query's ADC table, so padding is masked by the
  same sum that scores real candidates.

Like every gateway index both classes are immutable once built — ``search``
writes nothing to the index, so one built index can serve every gateway on a
store — and the daily hot-swap (Sec. V-F / Fig. 9) rebuilds them from the
freshly published snapshot.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.serving.gateway.index import RetrievalIndex
from repro.serving.quant.kmeans import ASSIGN_BLOCK_ROWS, grouped_mean, kmeans
from repro.serving.quant.opq import OPQQuantizer
from repro.serving.quant.pq import ProductQuantizer
from repro.serving.quant.scalar import Int8Table, quantize_int8


class Int8Index(RetrievalIndex):
    """Brute-force MIPS over an int8 service table (recall ~1, memory / 4).

    ``int8_table`` lets a caller that already holds the catalogue's int8
    codes share them instead of re-quantizing: every gateway and shard
    worker passes its snapshot's
    :meth:`~repro.serving.gateway.store.EmbeddingSnapshot.int8_table`.

    Scoring is integer end to end: the folded query is quantized to int8
    too and scored with :meth:`Int8Table.scores_int`.
    """

    name = "int8"

    @classmethod
    def takes_int8_table(cls, params) -> bool:
        return True

    def __init__(self, chunk: int = 8192,
                 int8_table: Optional[Int8Table] = None) -> None:
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        self.chunk = chunk
        self._prebuilt = int8_table
        self._table: Optional[Int8Table] = None

    def build(self, services: np.ndarray) -> "Int8Index":
        services = np.asarray(services)
        if services.ndim != 2:
            raise ValueError("services must be a (num_services, dim) matrix")
        self._table = _int8_table_for(services, self._prebuilt)
        return self

    @property
    def num_services(self) -> int:
        if self._table is None:
            raise RuntimeError("index not built")
        return self._table.num_vectors

    @property
    def nbytes(self) -> int:
        if self._table is None:
            raise RuntimeError("index not built")
        return self._table.nbytes

    @property
    def table(self) -> Int8Table:
        if self._table is None:
            raise RuntimeError("index not built")
        return self._table

    def search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._table is None:
            raise RuntimeError("index not built")
        queries = self._check_queries(queries, k)
        scores = self._table.scores_int(queries, chunk=self.chunk)
        all_ids = np.arange(self._table.num_vectors, dtype=np.int64)
        return self._batched_top_k(all_ids, scores, k)


class IVFPQIndex(RetrievalIndex):
    """Balanced inverted-file index over PQ residual codes (IVFADC+R).

    ``build`` clusters the catalogue into ``num_lists`` capacity-capped
    cells (at most ``ceil(slack * n / num_lists)`` members each; every cell
    gets ``cell_size`` slots, its members followed by padding), trains one
    shared :class:`ProductQuantizer` on the residuals and lays the codes
    out slot-major.  ``search`` probes the ``num_probes`` best
    cells per query (same affinity rule as the fp IVF index) and scores the
    whole batch's probed candidates with a single ADC gather.

    ``refine="int8"`` (the default) re-scores a ``refine_factor * k``
    shortlist against an int8 copy of the catalogue before the final top-k:
    PQ codes rank the scan cheaply, int8 fixes the near-tie ordering PQ
    blurs.  ``refine=None`` disables the stage (and the int8 table's
    memory).  ``int8_table`` shares an already-quantized copy (a
    snapshot's ``int8_table()``) instead of re-quantizing at build.

    ``rotation="opq"`` trains the residual codebooks through an OPQ learned
    rotation (:class:`~repro.serving.quant.opq.OPQQuantizer`, ``opq_iters``
    alternation rounds) — same scan loop, better codes.
    """

    name = "ivfpq"

    @classmethod
    def takes_int8_table(cls, params) -> bool:
        return params.get("refine", "int8") == "int8"

    def __init__(self, num_lists: Optional[int] = None, num_probes: Optional[int] = None,
                 num_subspaces: int = 8, num_centroids: int = 256,
                 kmeans_iters: int = 8, pq_kmeans_iters: int = 10,
                 refine: Optional[str] = "int8", refine_factor: int = 8,
                 slack: float = 1.3, int8_table: Optional[Int8Table] = None,
                 seed: int = 0, rotation: Optional[str] = None,
                 opq_iters: int = 4) -> None:
        if num_lists is not None and num_lists <= 0:
            raise ValueError("num_lists must be positive")
        if num_probes is not None and num_probes <= 0:
            raise ValueError("num_probes must be positive")
        if refine not in (None, "int8"):
            raise ValueError("refine must be None or 'int8'")
        if refine_factor <= 0:
            raise ValueError("refine_factor must be positive")
        if slack < 1.0:
            raise ValueError("slack must be >= 1")
        if rotation not in (None, "opq"):
            raise ValueError("rotation must be None or 'opq'")
        if opq_iters < 0:
            raise ValueError("opq_iters must be >= 0")
        self.num_lists = num_lists
        self.num_probes = num_probes
        self.num_subspaces = num_subspaces
        self.num_centroids = num_centroids
        self.kmeans_iters = kmeans_iters
        self.pq_kmeans_iters = pq_kmeans_iters
        self.refine = refine
        self.refine_factor = refine_factor
        self.slack = slack
        self.rotation = rotation
        self.opq_iters = opq_iters
        self._prebuilt_int8 = int8_table
        self.seed = seed
        self._pq: Optional[ProductQuantizer] = None
        self._refine_table: Optional[Int8Table] = None
        self._centroids: Optional[np.ndarray] = None     # (cells, dim) float32
        self._half_sq_norms: Optional[np.ndarray] = None
        self._slot_ids: Optional[np.ndarray] = None      # (cells * size,) int32, -1 pads
        self._slot_codes: Optional[np.ndarray] = None    # (cells * size, M) uint8
        self._slot_flat_codes: Optional[np.ndarray] = None  # pre-offset LUT positions
        self._cell_size = 0
        self._sum_ones: Optional[np.ndarray] = None
        self._num_services = 0

    # ------------------------------------------------------------------ #
    # Build: balanced coarse cells + residual PQ, slot-major layout
    # ------------------------------------------------------------------ #
    def build(self, services: np.ndarray) -> "IVFPQIndex":
        services = np.asarray(services, dtype=np.float64)
        if services.ndim != 2:
            raise ValueError("services must be a (num_services, dim) matrix")
        num_services = services.shape[0]
        # Finer default cells than the fp IVF (3x sqrt(n)): byte codes make
        # small lists cheap to scan, and finer granularity buys coverage per
        # scanned slot (the probe default scales to match, ~1.3 sqrt(cells)).
        num_lists = self.num_lists or max(1, int(round(3 * np.sqrt(num_services))))
        num_lists = min(num_lists, num_services)
        centroids, _ = kmeans(
            services, num_lists, iters=max(1, self.kmeans_iters), rng=self.seed
        )
        assignment = _balanced_assign(services, centroids, self.slack)
        # Re-fit centroids on the balanced membership so residuals (and the
        # probing affinity) reflect the lists actually being scanned.
        means, counts = grouped_mean(services, assignment, num_lists)
        live = counts > 0
        centroids[live] = means[live]
        residuals = services - centroids[assignment]
        if self.rotation == "opq":
            pq: ProductQuantizer = OPQQuantizer(
                num_subspaces=self.num_subspaces,
                num_centroids=self.num_centroids,
                kmeans_iters=self.pq_kmeans_iters, seed=self.seed,
                opq_iters=self.opq_iters,
            ).fit(residuals)
        else:
            pq = ProductQuantizer(
                num_subspaces=self.num_subspaces,
                num_centroids=self.num_centroids,
                kmeans_iters=self.pq_kmeans_iters, seed=self.seed,
            ).fit(residuals)
        codes = pq.encode(residuals)

        # Slot-major layout: cell c owns slots [c * size, (c + 1) * size);
        # unused slots hold id -1 and point at the sentinel LUT column.
        size = int(np.max(np.bincount(assignment, minlength=num_lists)))
        num_subspaces, num_centroids = pq.num_subspaces, pq.codebooks_.shape[1]
        sentinel = num_subspaces * num_centroids  # the appended -inf column
        flat_dtype = np.int16 if sentinel + 1 <= np.iinfo(np.int16).max else np.int32
        self._slot_ids = np.full(num_lists * size, -1, dtype=np.int32)
        self._slot_codes = np.zeros((num_lists * size, num_subspaces), dtype=np.uint8)
        self._slot_flat_codes = np.full(
            (num_lists * size, num_subspaces), sentinel, dtype=flat_dtype
        )
        offsets = np.arange(num_subspaces, dtype=np.int64) * num_centroids
        order = np.argsort(assignment, kind="stable")
        fill = np.concatenate([
            np.arange(cell * size, cell * size + count)
            for cell, count in zip(*np.unique(assignment, return_counts=True))
        ])
        self._slot_ids[fill] = order.astype(np.int32)
        self._slot_codes[fill] = codes[order]
        self._slot_flat_codes[fill] = (
            codes[order].astype(np.int64) + offsets
        ).astype(flat_dtype)
        self._cell_size = size
        self._centroids = centroids.astype(np.float32)
        self._half_sq_norms = 0.5 * np.sum(self._centroids ** 2, axis=1)
        self._sum_ones = np.ones(num_subspaces, dtype=np.float32)
        self._pq = pq
        self._num_services = num_services
        self._refine_table = (_int8_table_for(services, self._prebuilt_int8)
                              if self.refine == "int8" else None)
        return self

    @property
    def num_services(self) -> int:
        if self._pq is None:
            raise RuntimeError("index not built")
        return self._num_services

    @property
    def num_cells(self) -> int:
        return 0 if self._centroids is None else self._centroids.shape[0]

    @property
    def cell_size(self) -> int:
        """Slots per cell: the fullest cell's member count (the rest pad)."""
        return self._cell_size

    @property
    def quantizer(self) -> ProductQuantizer:
        if self._pq is None:
            raise RuntimeError("index not built")
        return self._pq

    @property
    def code_nbytes(self) -> int:
        """Bytes held by the byte codes alone (the shippable table)."""
        if self._slot_codes is None:
            raise RuntimeError("index not built")
        return int(self._slot_codes.nbytes)

    @property
    def nbytes(self) -> int:
        """Full resident size: codes, gather structures, codebooks,
        centroids, and the int8 refinement table when enabled."""
        if self._pq is None:
            raise RuntimeError("index not built")
        return int(
            self._slot_codes.nbytes
            + self._slot_flat_codes.nbytes
            + self._slot_ids.nbytes
            + self._pq.codebooks_.nbytes
            + self._centroids.nbytes
            + (self._refine_table.nbytes if self._refine_table is not None else 0)
        )

    def cell_members(self, cell: int) -> np.ndarray:
        """Service ids stored in one inverted list (diagnostics/tests)."""
        slots = self._slot_ids[cell * self._cell_size:(cell + 1) * self._cell_size]
        return slots[slots >= 0].astype(np.int64)

    # ------------------------------------------------------------------ #
    # Durable state (snapshot index payloads)
    # ------------------------------------------------------------------ #
    def export_state(self) -> Tuple[dict, dict]:
        """The trained state worth persisting: ``(meta, arrays)``.

        Covers everything expensive to recompute — coarse centroids (cell
        k-means), the slot-major layout (balanced assignment), residual PQ
        codebooks (per-subspace k-means) and codes.  Derived gather
        structures (``_half_sq_norms``, ``_slot_flat_codes``, ``_sum_ones``)
        are cheap vectorised transforms and are rebuilt on restore.
        """
        if self._pq is None:
            raise RuntimeError("index not built")
        meta = {
            "name": self.name,
            "cell_size": int(self._cell_size),
            "num_services": int(self._num_services),
            "num_subspaces": int(self._pq.num_subspaces),
            "num_centroids": int(self._pq.num_centroids),
            "kmeans_iters": int(self.kmeans_iters),
            "pq_kmeans_iters": int(self.pq_kmeans_iters),
            "seed": int(self.seed),
            "refine": self.refine,
            "refine_factor": int(self.refine_factor),
            "slack": float(self.slack),
            "dim": int(self._pq.dim_),
            "padded_dim": int(self._pq.padded_dim_),
            "rotation": self.rotation,
            "opq_iters": int(self.opq_iters),
        }
        arrays = {
            "centroids": self._centroids,
            "slot_ids": self._slot_ids,
            "slot_codes": self._slot_codes,
            "codebooks": self._pq.codebooks_,
        }
        if self.rotation == "opq":
            arrays["rotation"] = self._pq.rotation_
        return meta, arrays

    @classmethod
    def from_state(cls, meta: dict, arrays: dict,
                   int8_table: Optional[Int8Table] = None,
                   params: Optional[dict] = None) -> Optional["IVFPQIndex"]:
        """Rebuild a serving-ready index from persisted state — no k-means.

        ``params`` are the caller's index params.  ``num_probes``,
        ``refine`` and ``refine_factor`` override the persisted values at
        search time; any other param that differs from the persisted build
        (``num_lists``, ``seed``, ``rotation``, ...) asks for a different
        index, and the result is ``None``.  ``int8_table`` supplies the
        refinement table when the restored index uses ``refine="int8"``.
        """
        params = dict(params or {})
        search_time = {key: params.pop(key) for key in
                       ("num_probes", "refine", "refine_factor") if key in params}
        num_lists = params.pop("num_lists", None)
        built = {
            "num_subspaces": int(meta["num_subspaces"]),
            "num_centroids": int(meta["num_centroids"]),
            "kmeans_iters": int(meta.get("kmeans_iters", 8)),
            "pq_kmeans_iters": int(meta.get("pq_kmeans_iters", 10)),
            "slack": float(meta.get("slack", 1.3)),
            "seed": int(meta.get("seed", 0)),
            "rotation": meta.get("rotation"),
            "opq_iters": int(meta.get("opq_iters", 4)),
        }
        centroids = np.ascontiguousarray(arrays["centroids"], dtype=np.float32)
        slot_ids = np.asarray(arrays["slot_ids"], dtype=np.int32)
        slot_codes = np.asarray(arrays["slot_codes"], dtype=np.uint8)
        codebooks = np.ascontiguousarray(arrays["codebooks"], dtype=np.float32)
        cell_size = int(meta["cell_size"])
        num_services = int(meta["num_services"])
        num_subspaces = built["num_subspaces"]
        cells = centroids.shape[0]
        if (any(key not in built or built[key] != value
                for key, value in params.items())
                or num_lists is not None
                and min(num_lists, num_services) != cells):
            return None
        index = cls(
            num_probes=search_time.get("num_probes"),
            refine=search_time.get("refine", meta.get("refine")),
            refine_factor=int(search_time.get("refine_factor",
                                              meta.get("refine_factor", 8))),
            **built,
        )
        if (
            codebooks.ndim != 3
            or codebooks.shape[0] != num_subspaces
            or slot_codes.shape != (cells * cell_size, num_subspaces)
            or slot_ids.shape != (cells * cell_size,)
        ):
            raise ValueError(
                f"persisted IVF-PQ state is inconsistent: cells={cells}, "
                f"cell_size={cell_size}, slot_ids={slot_ids.shape}, "
                f"slot_codes={slot_codes.shape}, codebooks={codebooks.shape}"
            )

        pq_params = dict(num_subspaces=num_subspaces,
                         num_centroids=built["num_centroids"],
                         kmeans_iters=built["pq_kmeans_iters"],
                         seed=built["seed"])
        if built["rotation"] == "opq":
            rotation_matrix = arrays.get("rotation")
            if rotation_matrix is None:
                raise ValueError(
                    "persisted index used rotation='opq' but no rotation "
                    "array was stored"
                )
            rotation_matrix = np.ascontiguousarray(
                rotation_matrix, dtype=np.float32
            )
            padded_dim = int(meta["padded_dim"])
            if rotation_matrix.shape != (padded_dim, padded_dim):
                raise ValueError(
                    f"rotation matrix shape {rotation_matrix.shape} does not "
                    f"match padded dim {padded_dim}"
                )
            pq: ProductQuantizer = OPQQuantizer(
                **pq_params, opq_iters=built["opq_iters"])
            pq.rotation_ = rotation_matrix
        else:
            pq = ProductQuantizer(**pq_params)
        pq.dim_ = int(meta["dim"])
        pq.padded_dim_ = int(meta["padded_dim"])
        pq.codebooks_ = codebooks

        fitted_centroids = codebooks.shape[1]
        sentinel = num_subspaces * fitted_centroids
        flat_dtype = np.int16 if sentinel + 1 <= np.iinfo(np.int16).max else np.int32
        offsets = np.arange(num_subspaces, dtype=np.int64) * fitted_centroids
        flat = (slot_codes.astype(np.int64) + offsets).astype(flat_dtype)
        flat[slot_ids < 0] = sentinel

        index._pq = pq
        index._centroids = centroids
        index._half_sq_norms = 0.5 * np.sum(centroids ** 2, axis=1)
        index._slot_ids = slot_ids
        index._slot_codes = slot_codes
        index._slot_flat_codes = flat
        index._cell_size = cell_size
        index._sum_ones = np.ones(num_subspaces, dtype=np.float32)
        index._num_services = num_services
        if index.refine == "int8" and (
                int8_table is None
                or int8_table.codes.shape != (num_services, pq.dim_)):
            raise ValueError(
                f"a refine='int8' restore needs the snapshot's "
                f"({num_services}, {pq.dim_}) int8_table, got "
                f"{None if int8_table is None else int8_table.codes.shape}")
        index._refine_table = int8_table if index.refine == "int8" else None
        return index

    # ------------------------------------------------------------------ #
    # Search: rectangular probe expansion + one ADC gather + batched top-k
    # ------------------------------------------------------------------ #
    def search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` per query row; the index itself is left untouched."""
        if self._pq is None or self._centroids is None:
            raise RuntimeError("index not built")
        queries = self._check_queries(queries, k).astype(np.float32)
        batch = queries.shape[0]
        cells = self.num_cells
        size = self._cell_size
        probes = min(self.num_probes or max(1, int(round(1.3 * np.sqrt(cells)))), cells)

        # Per-query ADC tables, flattened with the sentinel -inf column so
        # padding slots mask themselves during the scoring sum.
        tables = self._pq.adc_tables(queries)
        table_width = tables.shape[1] * tables.shape[2] + 1
        tables_flat = np.empty((batch, table_width), dtype=np.float32)
        tables_flat[:, :-1] = tables.reshape(batch, -1)
        tables_flat[:, -1] = -np.inf

        q_dot_c = queries @ self._centroids.T
        affinity = q_dot_c - self._half_sq_norms
        if probes < cells:
            probed = np.argpartition(-affinity, probes - 1, axis=1)[:, :probes]
        else:
            probed = np.tile(np.arange(cells), (batch, 1))
        # Cell-sorted probes: ascending cell ids turn the block gather below
        # into forward memory sweeps over the slot-major code layout.
        probed.sort(axis=1)

        # Balanced cells make the candidate block rectangular: cell c owns
        # slot block [c * size, (c + 1) * size), so indexing the 3-D code
        # view by ``probed`` copies whole blocks (one memcpy per probe), and
        # one flat gather + one BLAS matvec scores the entire micro-batch.
        codes_3d = self._slot_flat_codes.reshape(cells, size, -1)
        gather_pos = (
            (np.arange(batch, dtype=np.int32) * np.int32(table_width))[:, None, None, None]
            + codes_3d[probed]
        )
        scores = (
            tables_flat.ravel().take(gather_pos).reshape(batch, probes * size, -1)
            @ self._sum_ones
        )
        # Coarse term q.centroid, identical across a probed cell's slots —
        # added as a broadcast over the (batch, probes, size) view instead
        # of materializing a repeated (batch, probes * size) copy.
        probed_dots = np.take_along_axis(q_dot_c, probed, axis=1)
        scores_by_cell = scores.reshape(batch, probes, size)
        scores_by_cell += probed_dots[:, :, None]

        refining = self._refine_table is not None
        shortlist_size = k * self.refine_factor if refining else k
        width = scores.shape[1]
        if shortlist_size < width:
            keep = np.argpartition(-scores, shortlist_size - 1,
                                   axis=1)[:, :shortlist_size]
        else:
            keep = np.tile(np.arange(width, dtype=np.int64), (batch, 1))
        # Map kept columns back to slots (cheap: shortlist-sized only).
        short_cells = np.take_along_axis(probed, keep // size, axis=1)
        short_ids = self._slot_ids[short_cells * size + keep % size]
        if refining:
            short_scores = self._refine_shortlist(queries, short_ids)
        else:
            short_scores = np.take_along_axis(scores, keep, axis=1)
        return _batched_rank(short_ids, short_scores, k)

    def _refine_shortlist(self, queries: np.ndarray,
                          short_ids: np.ndarray) -> np.ndarray:
        """Re-score the ADC shortlist against the int8 table (IVFADC+R).

        The re-score is integer end-to-end: the folded query is quantized
        to int8 (:meth:`Int8Table.quantize_queries`), so candidate scores
        are exact integer dot products scaled back once — identical
        arithmetic to :meth:`Int8Table.scores_int`, and deterministic
        across replicas when the table carries a published ``query_scale``.
        """
        refine = self._refine_table
        codes = refine.codes[np.maximum(short_ids, 0)].astype(np.float32)
        if refine.dim * 127 * 127 < 2 ** 24:
            q8, qscale = refine.quantize_queries(queries)
            rescored = np.matmul(codes, q8[:, :, None])[:, :, 0]
            rescored *= qscale[:, None]
        else:  # pragma: no cover - only reachable past dim 1040
            scaled_queries = queries * refine.scales
            rescored = np.matmul(codes, scaled_queries[:, :, None])[:, :, 0]
        rescored[short_ids < 0] = -np.inf
        return rescored


def _int8_table_for(services: np.ndarray,
                    table: Optional[Int8Table]) -> Int8Table:
    """``table`` checked against ``services``, else ``services`` quantized."""
    if table is None:
        return quantize_int8(services)
    if table.codes.shape != services.shape:
        raise ValueError(f"prebuilt int8 table shape {table.codes.shape} "
                         f"does not match services {services.shape}")
    return table


def _balanced_assign(points: np.ndarray, centroids: np.ndarray,
                     slack: float) -> np.ndarray:
    """Capacity-constrained nearest-centroid assignment.

    Every cell receives at most ``ceil(slack * n / cells)`` members — the
    scan block stays rectangular (bounding worst-case latency) while only
    points past the slack actually spill.  Points claim cells in decreasing
    order of how much they prefer their best cell over their runner-up, so
    the points a spill would hurt most are placed first and the spilled
    remainder land in near-equivalent cells.

    Preferences and margins are computed one ``ASSIGN_BLOCK_ROWS`` row
    block at a time (the block size :func:`~repro.serving.quant.kmeans.assign`
    uses), so the only full-size temporary is the ``(n, cells)`` preference
    table, kept as int16 while cell ids fit.
    """
    num_points, num_cells = points.shape[0], centroids.shape[0]
    capacity = np.full(
        num_cells,
        max(1, int(np.ceil(slack * num_points / num_cells))),
        dtype=np.int64,
    )
    half_sq_norms = 0.5 * np.sum(centroids ** 2, axis=1)
    preference = np.empty(
        (num_points, num_cells),
        dtype=np.int16 if num_cells <= np.iinfo(np.int16).max else np.int32,
    )
    margin = np.zeros(num_points, dtype=np.result_type(points, centroids))
    for start in range(0, num_points, ASSIGN_BLOCK_ROWS):
        stop = start + ASSIGN_BLOCK_ROWS
        cost = points[start:stop] @ centroids.T
        cost -= half_sq_norms
        np.negative(cost, out=cost)  # the negated affinity
        preference[start:stop] = np.argsort(cost, axis=1)
        if num_cells > 1:
            # Best minus runner-up affinity: the two smallest costs.
            cost.partition(1, axis=1)
            margin[start:stop] = cost[:, 1] - cost[:, 0]
    assignment = np.empty(num_points, dtype=np.int64)
    for point in np.argsort(-margin):
        for cell in preference[point]:
            if capacity[cell] > 0:
                assignment[point] = cell
                capacity[cell] -= 1
                break
    return assignment


def _batched_rank(ids: np.ndarray, scores: np.ndarray, k: int
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Final sorted top-k with ``(-1, -inf)`` padding, batched over rows."""
    if scores.shape[1] > 4 * k:
        # Pre-select ~4k columns by partition before the full sort: the
        # sort then runs on a 4k-wide block instead of the whole shortlist.
        part = np.argpartition(-scores, 4 * k - 1, axis=1)[:, :4 * k]
        ids = np.take_along_axis(ids, part, axis=1)
        scores = np.take_along_axis(scores, part, axis=1)
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    top_ids = np.take_along_axis(ids, order, axis=1).astype(np.int64)
    top_scores = np.take_along_axis(scores, order, axis=1).astype(np.float64)
    top_ids[~np.isfinite(top_scores)] = -1
    if top_ids.shape[1] < k:  # fewer candidates than k: pad to width k
        pad = k - top_ids.shape[1]
        top_ids = np.pad(top_ids, ((0, 0), (0, pad)), constant_values=-1)
        top_scores = np.pad(top_scores, ((0, 0), (0, pad)), constant_values=-np.inf)
    out_scores = np.where(top_ids >= 0, top_scores, -np.inf)
    return top_ids, out_scores
