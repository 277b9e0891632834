"""Symmetric int8 scalar quantization with per-dimension scales.

The daily-refresh serving contract (Sec. V-F / Fig. 9) re-exports the full
service table every day; at production catalogue sizes the table's resident
size — not the scoring FLOPs — caps how many services one shard can hold.
Symmetric int8 quantization stores each embedding entry in one byte:

    code[i, d] = clip(round(x[i, d] / scale[d]), -127, 127)

with ``scale[d] = max_i |x[i, d]| / 127`` chosen per dimension, so the
round-trip error is bounded by ``scale[d] / 2`` elementwise.  Scoring never
decompresses the table: folding the scales into the query once,

    q' = q * scale        =>        q . decode(code) == q' . code,

turns maximum-inner-product search over the quantized table into a plain
matmul against the int8 codes.

:meth:`Int8Table.scores_int` goes one step further and quantizes the folded
query itself to int8, so the hot matmul runs over integer operands end to
end (int8 x int8 products accumulated in int32).  The extra rounding error
is bounded per score by ``qscale / 2 * ||code_row||_1`` where ``qscale`` is
the query quantization step — see :meth:`Int8Table.quantize_queries`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class Int8Quantizer:
    """Per-dimension symmetric linear quantizer onto the int8 range."""

    def __init__(self) -> None:
        self.scales_: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        if self.scales_ is None:
            raise RuntimeError("quantizer not fitted")
        return self.scales_.shape[0]

    def fit(self, vectors: np.ndarray) -> "Int8Quantizer":
        vectors = _check_matrix(vectors)
        peaks = np.max(np.abs(vectors), axis=0)
        scales = peaks / 127.0
        scales[scales == 0.0] = 1.0  # constant-zero dims decode to exact zero
        self.scales_ = scales.astype(np.float32)
        return self

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """``(n, dim)`` float matrix -> ``(n, dim)`` int8 code matrix."""
        vectors = _check_matrix(vectors)
        if self.scales_ is None:
            raise RuntimeError("quantizer not fitted")
        if vectors.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        codes = np.rint(vectors / self.scales_)
        return np.clip(codes, -127, 127).astype(np.int8)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct float32 embeddings from int8 codes."""
        if self.scales_ is None:
            raise RuntimeError("quantizer not fitted")
        return np.asarray(codes, dtype=np.float32) * self.scales_


@dataclass(frozen=True)
class Int8Table:
    """An int8-coded service table, row-aligned with the fp table it mirrors.

    ``query_scale`` optionally freezes the *query* quantization step used by
    the integer scoring path.  The store computes it at publish time from
    the snapshot's query table, so every replica — warm-started gateways,
    fleet revivals, shard workers — quantizes queries identically and ranks
    bit-identically.  When ``None`` the step is derived per query.
    """

    codes: np.ndarray   # (num_vectors, dim) int8, read-only
    scales: np.ndarray  # (dim,) float32
    query_scale: Optional[float] = None

    kind = "int8"

    @property
    def num_vectors(self) -> int:
        return self.codes.shape[0]

    @property
    def dim(self) -> int:
        return self.codes.shape[1]

    @property
    def nbytes(self) -> int:
        """Resident size of the compressed table (codes + scales).

        Includes the transposed code copy once the integer path has
        materialized it (see :attr:`codes_t`).
        """
        cached = self.__dict__.get("_codes_t")
        extra = 0 if cached is None else int(cached.nbytes)
        return int(self.codes.nbytes + self.scales.nbytes) + extra

    @property
    def codes_t(self) -> np.ndarray:
        """``(dim, num_vectors)`` contiguous transpose, built lazily.

        The integer path streams columns of this layout through BLAS; a
        per-chunk strided transpose measures slower than one up-front copy.
        Cached on first use (a benign race under threads — both winners
        produce identical read-only arrays).
        """
        cached = self.__dict__.get("_codes_t")
        if cached is None:
            cached = np.ascontiguousarray(self.codes.T)
            cached.setflags(write=False)
            object.__setattr__(self, "_codes_t", cached)
        return cached

    def decode(self, ids: Optional[np.ndarray] = None) -> np.ndarray:
        codes = self.codes if ids is None else self.codes[np.asarray(ids, dtype=np.int64)]
        return codes.astype(np.float32) * self.scales

    def scores(self, queries: np.ndarray, chunk: int = 8192) -> np.ndarray:
        """``(batch, num_vectors)`` inner products against the decoded table.

        The scales are folded into the queries, and one preallocated float32
        scratch buffer receives each widened code chunk — peak temp memory
        stays bounded regardless of table size and no per-chunk allocation
        hits the hot loop.
        """
        queries = _check_matrix(queries).astype(np.float32) * self.scales
        out = np.empty((queries.shape[0], self.num_vectors), dtype=np.float32)
        chunk = max(1, chunk)
        scratch = np.empty(
            (min(chunk, max(1, self.num_vectors)), self.dim), dtype=np.float32
        )
        for lo in range(0, self.num_vectors, chunk):
            hi = min(lo + chunk, self.num_vectors)
            widened = scratch[:hi - lo]
            np.copyto(widened, self.codes[lo:hi], casting="unsafe")
            out[:, lo:hi] = queries @ widened.T
        return out

    def quantize_queries(self, queries: np.ndarray) -> tuple:
        """Quantize scale-folded queries to int8: ``(q8, qscale)``.

        ``q8`` holds integer code values in a float32 carrier (so it can
        ride BLAS); ``qscale`` is the per-query step such that
        ``(q8[i] . codes[j]) * qscale[i]`` approximates the float-folded
        score.  Rounding moves each folded coordinate by at most
        ``qscale / 2``, so the documented error bound per score is

            |scores_int - scores|  <=  qscale / 2 * ||codes[j]||_1.

        With :attr:`query_scale` set the step is the published global one
        (deterministic across replicas); otherwise it is ``peak / 127`` of
        each folded query row.
        """
        folded = _check_matrix(queries).astype(np.float32) * self.scales
        if self.query_scale is not None:
            qscale = np.full(
                folded.shape[0], np.float32(self.query_scale), dtype=np.float32
            )
        else:
            peaks = np.max(np.abs(folded), axis=1) if folded.size else np.zeros(folded.shape[0])
            qscale = np.where(peaks > 0, peaks / 127.0, 1.0).astype(np.float32)
        q8 = np.clip(np.rint(folded / qscale[:, None]), -127.0, 127.0)
        return q8.astype(np.float32), qscale

    def scores_int(self, queries: np.ndarray, chunk: int = 8192) -> np.ndarray:
        """Integer-arithmetic scores: int8 query x int8 codes, exact sums.

        Both operands are int8 code values, so every product is an integer
        with magnitude <= 127**2 and a dot product over ``dim`` terms is an
        integer below ``dim * 127**2``.  While that stays under ``2**24``
        (dim <= 1040) every partial sum is exactly representable in float32,
        so the accumulation is carried in float32 — bit-identical to an
        int32 accumulator but running on BLAS; wider tables fall back to a
        true int32 matmul.  The query scale multiplies back in once at the
        end.
        """
        q8, qscale = self.quantize_queries(queries)
        out = np.empty((q8.shape[0], self.num_vectors), dtype=np.float32)
        codes_t = self.codes_t
        chunk = max(1, chunk)
        qcol = qscale[:, None]
        if self.dim * 127 * 127 < 2 ** 24:
            scratch = np.empty(
                (self.dim, min(chunk, max(1, self.num_vectors))), dtype=np.float32
            )
            for lo in range(0, self.num_vectors, chunk):
                hi = min(lo + chunk, self.num_vectors)
                widened = scratch[:, :hi - lo]
                np.copyto(widened, codes_t[:, lo:hi], casting="unsafe")
                block = out[:, lo:hi]
                np.matmul(q8, widened, out=block)
                # Scale back while the block is cache-hot: one pass over a
                # cold (batch, num_vectors) matrix measures ~8-13% slower.
                block *= qcol
        else:  # pragma: no cover - only reachable past dim 1040
            out[:] = q8.astype(np.int32) @ codes_t.astype(np.int32)
            out *= qcol
        return out

    def rows(self, lo: int, hi: int) -> "Int8Table":
        """A zero-copy view of one contiguous row range (shard layout)."""
        return Int8Table(
            codes=self.codes[lo:hi], scales=self.scales,
            query_scale=self.query_scale,
        )


def quantize_int8(vectors: np.ndarray,
                  queries: Optional[np.ndarray] = None) -> Int8Table:
    """Fit + encode one float table into an immutable :class:`Int8Table`.

    When ``queries`` is given, the global query quantization step
    (``max |q . scales| / 127`` over the query table) is frozen into the
    table so the integer scoring path is deterministic across replicas.
    """
    quantizer = Int8Quantizer().fit(vectors)
    codes = quantizer.encode(vectors)
    codes.setflags(write=False)
    scales = quantizer.scales_.copy()
    scales.setflags(write=False)
    query_scale = None
    if queries is not None:
        folded = _check_matrix(queries).astype(np.float32) * scales
        peak = float(np.max(np.abs(folded))) if folded.size else 0.0
        # Frozen at float32 precision: the snapshot stores the scale as a
        # float32 chunk, so this keeps the in-memory table bit-identical
        # to every restored replica.
        query_scale = float(np.float32(peak / 127.0)) if peak > 0.0 else 1.0
    return Int8Table(codes=codes, scales=scales, query_scale=query_scale)


def _check_matrix(vectors: np.ndarray) -> np.ndarray:
    vectors = np.asarray(vectors)
    if vectors.ndim == 1:
        vectors = vectors[None, :]
    if vectors.ndim != 2:
        raise ValueError("expected a (n, dim) matrix")
    return vectors
