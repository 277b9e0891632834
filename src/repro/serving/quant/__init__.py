"""Quantized embedding subsystem for the serving tier (Sec. V-F).

The daily-refresh deployment (Sec. V-F / Fig. 9) re-exports the full
query/service tables once per day and serves every request from them; at
millions of services the *resident table size* — not scoring compute — is
what caps a shard.  This package compresses the service tables while keeping
maximum-inner-product retrieval exact enough to pass the gateway's recall@K
telemetry:

* :mod:`~repro.serving.quant.scalar` — symmetric int8 with per-dimension
  scales (4x vs float32, recall ~1);
* :mod:`~repro.serving.quant.pq` — product quantization: k-means sub-space
  codebooks, byte codes, and asymmetric-distance (ADC) lookup tables that
  score queries against codes without decompressing;
* :mod:`~repro.serving.quant.ivfpq` — the quantized retrieval indexes
  (:class:`IVFPQIndex`, :class:`Int8Index`) registered with the gateway's
  :func:`~repro.serving.gateway.index.build_index`;
* :mod:`~repro.serving.quant.kmeans` — the seeded Lloyd iteration shared by
  every quantizer (and by the fp IVF coarse quantizer).

The :class:`~repro.serving.gateway.store.VersionedEmbeddingStore` publishes
one :func:`quantize_int8` table alongside the fp snapshot, so quantized
replicas hot-swap atomically with the embeddings they mirror.  PQ codes
live only inside the :class:`IVFPQIndex` that searches them.
"""

from __future__ import annotations

from repro.serving.quant.kmeans import kmeans
from repro.serving.quant.pq import ProductQuantizer
from repro.serving.quant.scalar import Int8Quantizer, Int8Table, quantize_int8


# The index classes import the gateway's RetrievalIndex base, which itself
# imports this package for the shared k-means — resolve them lazily (PEP 562)
# so either import order works.
def __getattr__(name):
    if name in ("IVFPQIndex", "Int8Index"):
        from repro.serving.quant import ivfpq

        return getattr(ivfpq, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Int8Index",
    "Int8Quantizer",
    "Int8Table",
    "IVFPQIndex",
    "ProductQuantizer",
    "kmeans",
    "quantize_int8",
]
