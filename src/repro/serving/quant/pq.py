"""Product quantization: sub-space codebooks + asymmetric-distance scoring.

Product quantization (PQ) splits the embedding dimension into ``M``
sub-spaces and learns a small k-means codebook (``K <= 256`` centroids, so a
code fits one byte) independently per sub-space; a vector is stored as its
``M`` nearest-centroid ids — one byte per sub-space instead of 4–8 bytes per
*dimension*.  With ``dim = 48`` and ``M = 8`` the service table shrinks 24x
against float32 while the codebooks stay a few kilobytes.

Scoring is *asymmetric* (ADC): the query stays full-precision and is scored
against reconstructed codes without decompressing the table.  For the
paper's MIPS retrieval (Sec. V-F.1, inner-product head) the identity

    q . decode(code) == sum_m  <q_m, codebook_m[code_m]>

means one ``(M, K)`` lookup table of query/centroid inner products per query
turns scoring a candidate into ``M`` table lookups and adds — no float
reconstruction of the catalogue, which is what lets IVF-PQ scan probed cells
straight over the byte codes (:mod:`repro.serving.quant.ivfpq`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.serving.quant.kmeans import assign, kmeans


class ProductQuantizer:
    """k-means-trained sub-space codebooks with uint8 codes."""

    def __init__(self, num_subspaces: int = 8, num_centroids: int = 256,
                 kmeans_iters: int = 10, seed: int = 0,
                 init: str = "kmeans++") -> None:
        if num_subspaces <= 0:
            raise ValueError("num_subspaces must be positive")
        if not 1 < num_centroids <= 256:
            raise ValueError("num_centroids must be in (1, 256] so codes fit uint8")
        self.num_subspaces = num_subspaces
        self.num_centroids = num_centroids
        self.kmeans_iters = kmeans_iters
        self.seed = seed
        self.init = init
        self.dim_: Optional[int] = None
        self.padded_dim_: Optional[int] = None
        self.codebooks_: Optional[np.ndarray] = None  # (M, K, dsub) float32

    # ------------------------------------------------------------------ #
    # Train / encode / decode
    # ------------------------------------------------------------------ #
    @property
    def subspace_dim(self) -> int:
        if self.padded_dim_ is None:
            raise RuntimeError("quantizer not fitted")
        return self.padded_dim_ // self.num_subspaces

    def fit(self, vectors: np.ndarray) -> "ProductQuantizer":
        """Per-sub-space k-means over the (zero-padded) training matrix."""
        vectors = self._pad(np.asarray(vectors, dtype=np.float32), fit=True)
        rng = np.random.default_rng(self.seed)
        num_centroids = min(self.num_centroids, vectors.shape[0])
        dsub = self.subspace_dim
        codebooks = np.zeros(
            (self.num_subspaces, num_centroids, dsub), dtype=np.float32
        )
        for m in range(self.num_subspaces):
            sub = vectors[:, m * dsub:(m + 1) * dsub].astype(np.float64)
            centroids, _ = kmeans(sub, num_centroids, iters=self.kmeans_iters,
                                  rng=rng, init=self.init)
            codebooks[m] = centroids.astype(np.float32)
        self.codebooks_ = codebooks
        return self

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """``(n, dim)`` float matrix -> ``(n, M)`` uint8 code matrix."""
        if self.codebooks_ is None:
            raise RuntimeError("quantizer not fitted")
        vectors = self._pad(np.asarray(vectors, dtype=np.float32))
        dsub = self.subspace_dim
        codes = np.empty((vectors.shape[0], self.num_subspaces), dtype=np.uint8)
        for m in range(self.num_subspaces):
            sub = vectors[:, m * dsub:(m + 1) * dsub]
            codes[:, m] = assign(sub, self.codebooks_[m]).astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct float32 embeddings (padding stripped) from codes."""
        if self.codebooks_ is None:
            raise RuntimeError("quantizer not fitted")
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != self.num_subspaces:
            raise ValueError(f"codes must be (n, {self.num_subspaces})")
        dsub = self.subspace_dim
        out = np.empty((codes.shape[0], self.padded_dim_), dtype=np.float32)
        for m in range(self.num_subspaces):
            out[:, m * dsub:(m + 1) * dsub] = self.codebooks_[m][codes[:, m]]
        return out[:, :self.dim_]

    # ------------------------------------------------------------------ #
    # Asymmetric-distance (ADC) scoring
    # ------------------------------------------------------------------ #
    def adc_tables(self, queries: np.ndarray) -> np.ndarray:
        """Per-query inner-product lookup tables, shape ``(batch, M, K)``.

        ``tables[q, m, c] = <query_q sub-vector m, codebook_m[c]>`` — scoring
        any candidate then costs ``M`` lookups + adds, independent of dim.
        """
        if self.codebooks_ is None:
            raise RuntimeError("quantizer not fitted")
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        queries = self._pad(queries)
        dsub = self.subspace_dim
        num_centroids = self.codebooks_.shape[1]
        tables = np.empty(
            (queries.shape[0], self.num_subspaces, num_centroids), dtype=np.float32
        )
        for m in range(self.num_subspaces):
            tables[:, m, :] = queries[:, m * dsub:(m + 1) * dsub] @ self.codebooks_[m].T
        return tables

    def adc_scores(self, tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """``(batch, n)`` scores of every query table against every code row."""
        if self.codebooks_ is None:
            raise RuntimeError("quantizer not fitted")
        codes = np.asarray(codes)
        out = np.zeros((tables.shape[0], codes.shape[0]), dtype=np.float32)
        for m in range(self.num_subspaces):
            out += tables[:, m, codes[:, m]]
        return out

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _pad(self, vectors: np.ndarray, fit: bool = False) -> np.ndarray:
        """Zero-pad columns so dim divides evenly into sub-spaces.

        Padded coordinates are identically zero for every training point, so
        learned centroids are zero there and padded queries contribute
        nothing to any inner product.
        """
        if vectors.ndim != 2:
            raise ValueError("expected a (n, dim) matrix")
        if fit:
            self.dim_ = vectors.shape[1]
            self.padded_dim_ = -(-vectors.shape[1] // self.num_subspaces) * self.num_subspaces
        elif vectors.shape[1] != self.dim_:
            raise ValueError(f"expected dim {self.dim_}, got {vectors.shape[1]}")
        if vectors.shape[1] == self.padded_dim_:
            return vectors
        padded = np.zeros((vectors.shape[0], self.padded_dim_), dtype=vectors.dtype)
        padded[:, :vectors.shape[1]] = vectors
        return padded
