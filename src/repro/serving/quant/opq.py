"""OPQ: an orthonormal rotation learned on top of product quantization.

PQ's reconstruction error depends on how the embedding axes are cut into
sub-spaces: correlated or unevenly-scaled coordinates that share a sub-space
waste codebook capacity while easy sub-spaces idle.  Optimized Product
Quantization (OPQ, Ge et al. CVPR'13) learns an orthonormal rotation ``R``
so the *rotated* table quantizes better, solving

    min_{R, codebooks}  || X R^T - PQ(X R^T) ||_F^2     s.t.  R^T R = I

by alternating minimization.  With ``R`` fixed, the codebooks are the
ordinary per-sub-space k-means of :class:`ProductQuantizer` (the seeded
``kmeans.py`` Lloyd loop).  With the codebooks and codes fixed, the best
rotation is an orthogonal Procrustes problem solved exactly by one SVD:

    M = X^T X_hat = U S V^T      =>      R = V U^T

where ``X_hat`` is the PQ reconstruction of the rotated data.  ``R`` starts
from an eigen-allocation init: principal directions of the table, dealt to
sub-spaces so the variance each sub-space must encode is balanced (the
"parametric" OPQ warm start, which contributes most of the win on
near-Gaussian embeddings).

Because ``R`` is orthonormal, inner products survive the rotation —

    q . decode(code) == (R q) . codebook_reconstruction(code)

— so MIPS scoring rotates the query once inside ``adc_tables`` and reuses
the untouched ADC machinery (and the IVF-PQ scan loop) unchanged.  The
learned ``(padded_dim, padded_dim)`` float32 matrix persists in the IVF-PQ
index's sidecar payload (``IVFPQIndex(rotation="opq").export_state()``), so
warm-started gateways and fleet replicas serve rotated codes without
re-running the alternation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.serving.quant.pq import ProductQuantizer


class OPQQuantizer(ProductQuantizer):
    """A :class:`ProductQuantizer` with a learned orthonormal pre-rotation.

    Drop-in: ``fit``/``encode``/``decode``/``adc_tables``/``adc_scores``
    keep their contracts, the rotation is applied internally in padded
    space.  ``opq_iters`` controls the alternating-minimization rounds
    (0 keeps the eigen-allocation init); ``opq_init`` is ``"eigen"`` or
    ``"identity"``.
    """

    def __init__(self, num_subspaces: int = 8, num_centroids: int = 256,
                 kmeans_iters: int = 10, seed: int = 0,
                 init: str = "kmeans++", opq_iters: int = 4,
                 opq_init: str = "eigen") -> None:
        super().__init__(num_subspaces=num_subspaces,
                         num_centroids=num_centroids,
                         kmeans_iters=kmeans_iters, seed=seed, init=init)
        if opq_iters < 0:
            raise ValueError("opq_iters must be >= 0")
        if opq_init not in ("eigen", "identity"):
            raise ValueError("opq_init must be 'eigen' or 'identity'")
        self.opq_iters = opq_iters
        self.opq_init = opq_init
        self.rotation_: Optional[np.ndarray] = None  # (pdim, pdim) float32

    # ------------------------------------------------------------------ #
    # Rotation plumbing (hooks used by the base encode/decode/adc paths)
    # ------------------------------------------------------------------ #
    def rotate(self, vectors: np.ndarray) -> np.ndarray:
        """Apply the learned rotation: ``(n, dim)`` -> ``(n, padded_dim)``."""
        if self.rotation_ is None:
            raise RuntimeError("quantizer not fitted")
        vectors = self._pad(np.asarray(vectors, dtype=np.float32))
        return vectors @ self.rotation_.T

    def _project(self, padded: np.ndarray) -> np.ndarray:
        if self.rotation_ is None:
            raise RuntimeError("quantizer not fitted")
        return np.asarray(padded, dtype=np.float32) @ self.rotation_.T

    def _unproject(self, padded: np.ndarray) -> np.ndarray:
        if self.rotation_ is None:
            raise RuntimeError("quantizer not fitted")
        return padded @ self.rotation_

    # ------------------------------------------------------------------ #
    # Training: eigen-allocation init + alternating k-means / Procrustes
    # ------------------------------------------------------------------ #
    def fit(self, vectors: np.ndarray) -> "OPQQuantizer":
        padded = self._pad(np.asarray(vectors, dtype=np.float32), fit=True)
        data = padded.astype(np.float64)
        rotation = self._init_rotation(data)
        for _ in range(self.opq_iters):
            rotated = (data @ rotation.T).astype(np.float32)
            self._fit_padded(rotated)
            codes = self._assign_padded(rotated)
            # Procrustes step: the orthonormal R closest (in Frobenius
            # sense) to mapping the data onto its fixed reconstruction.
            reconstructed = self._reconstruct_projected(codes).astype(np.float64)
            u, _, vt = np.linalg.svd(data.T @ reconstructed)
            rotation = vt.T @ u.T
        self.rotation_ = np.ascontiguousarray(rotation, dtype=np.float32)
        # Final codebooks must match the final rotation exactly.
        self._fit_padded((data @ rotation.T).astype(np.float32))
        return self

    def _init_rotation(self, data: np.ndarray) -> np.ndarray:
        pdim = self.padded_dim_
        if self.opq_init == "identity":
            return np.eye(pdim)
        # Eigen-allocation: deal principal directions to sub-spaces greedily
        # so each sub-space carries a balanced share of the (log) variance.
        cov = (data.T @ data) / max(1, data.shape[0])
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(-eigvals)
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
        dsub = pdim // self.num_subspaces
        buckets: list[list[int]] = [[] for _ in range(self.num_subspaces)]
        loads = np.zeros(self.num_subspaces)
        for direction in range(pdim):
            open_buckets = [
                b for b in range(self.num_subspaces) if len(buckets[b]) < dsub
            ]
            target = min(open_buckets, key=lambda b: loads[b])
            buckets[target].append(direction)
            loads[target] += np.log(max(float(eigvals[direction]), 1e-12))
        slots = [direction for bucket in buckets for direction in bucket]
        # Row j of R is the principal direction assigned to rotated slot j.
        return eigvecs[:, slots].T.copy()
