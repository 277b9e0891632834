"""Serving-side evaluation: ANN recall, load-test and memory-footprint
reports.

The offline metrics in :mod:`repro.eval.metrics` grade ranking *quality*
(AUC, NDCG, CTR); this module grades the serving *system* — how faithfully,
how fast, and (since the quantized-table subsystem,
:mod:`repro.serving.quant`) how *small* the gateway answers.  It is shared
by the gateway's own recall probe, the serving tests and the
online-serving example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np


def recall_at_k(approx_ids: np.ndarray, exact_ids: np.ndarray, k: int) -> float:
    """Mean per-query overlap between approximate and exact top-k id sets.

    Both arguments are ``(num_queries, >=k)`` id matrices; ``-1`` entries
    (padding for rows with fewer than k reachable candidates) are ignored.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    approx_ids = np.asarray(approx_ids)
    exact_ids = np.asarray(exact_ids)
    if approx_ids.ndim == 1:
        approx_ids = approx_ids[None, :]
    if exact_ids.ndim == 1:
        exact_ids = exact_ids[None, :]
    if approx_ids.shape[0] != exact_ids.shape[0]:
        raise ValueError("approx and exact id matrices must have the same number of rows")
    overlaps = []
    for approx_row, exact_row in zip(approx_ids, exact_ids):
        exact_set = set(int(i) for i in exact_row[:k] if i >= 0)
        approx_set = set(int(i) for i in approx_row[:k] if i >= 0)
        overlaps.append(len(exact_set & approx_set) / k)
    return float(np.mean(overlaps)) if overlaps else float("nan")


@dataclass
class LoadTestSummary:
    """Headline numbers of one load-test run through one retrieval mode."""

    mode: str
    requests: int
    elapsed_s: float
    qps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    recall_at_k: float
    cache_hit_rate: float = 0.0
    mean_batch_size: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        """One table/JSON row (extras appended after the fixed columns)."""
        row: Dict[str, object] = {
            "mode": self.mode,
            "requests": self.requests,
            "elapsed_s": self.elapsed_s,
            "qps": self.qps,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "recall_at_k": self.recall_at_k,
            "cache_hit_rate": self.cache_hit_rate,
            "mean_batch_size": self.mean_batch_size,
        }
        row.update(self.extras)
        return row


def summarize_gateway(mode: str, gateway,
                      elapsed_s: Optional[float] = None) -> LoadTestSummary:
    """Build a :class:`LoadTestSummary` straight from a gateway's telemetry.

    ``elapsed_s`` overrides the telemetry's first-to-last-request span with
    an externally measured wall-clock duration.

    The telemetry keeps histograms, not raw latency lists, so the summary
    is assembled from :meth:`GatewayTelemetry.summary` — percentiles are
    bucket-interpolated within the documented relative-error bound.
    """
    stats = gateway.telemetry.summary()
    requests = int(stats["requests"])
    elapsed = gateway.telemetry.elapsed_s if elapsed_s is None else float(elapsed_s)
    if elapsed <= 0:
        raise ValueError("elapsed_s must be positive")
    return LoadTestSummary(
        mode=mode,
        requests=requests,
        elapsed_s=elapsed,
        qps=requests / elapsed,
        p50_ms=stats["p50_ms"],
        p95_ms=stats["p95_ms"],
        p99_ms=stats["p99_ms"],
        recall_at_k=stats["recall_at_k"],
        cache_hit_rate=stats["cache_hit_rate"],
        mean_batch_size=stats["mean_batch_size"],
        extras={"backend_queries": stats["backend_queries"],
                "store_version": float(gateway.store.version)},
    )


# --------------------------------------------------------------------- #
# Memory footprint / compression reporting
# --------------------------------------------------------------------- #
def memory_footprint(table) -> int:
    """Resident bytes of a service table or retrieval index.

    Accepts anything with an ``nbytes`` attribute — a plain numpy table,
    the store's int8 table (:class:`~repro.serving.quant.scalar.Int8Table`)
    or a built :class:`~repro.serving.gateway.index.RetrievalIndex` (an
    :class:`~repro.serving.quant.ivfpq.IVFPQIndex` counts its PQ codes,
    codebooks and refinement table).
    """
    nbytes = getattr(table, "nbytes", None)
    if nbytes is None:
        raise TypeError(f"{type(table).__name__} has no nbytes")
    return int(nbytes)


def compression_report(baseline_table, variants: Mapping[str, object],
                       exact_ids: Optional[np.ndarray] = None,
                       variant_ids: Optional[Mapping[str, np.ndarray]] = None,
                       k: int = 10) -> List[Dict[str, object]]:
    """Memory-vs-recall rows for compressed variants of one service table.

    ``baseline_table`` is the uncompressed reference (typically the fp
    snapshot's ``services`` array); ``variants`` maps a label to the
    compressed table or index.  When ``exact_ids`` (the exact top-k matrix)
    and per-variant ``variant_ids`` are supplied, each row also reports
    recall@k, making the memory/quality trade-off one table.
    """
    baseline_bytes = memory_footprint(baseline_table)
    if baseline_bytes <= 0:
        raise ValueError("baseline table must occupy at least one byte")
    rows: List[Dict[str, object]] = [{
        "table": "baseline",
        "bytes": baseline_bytes,
        "compression_x": 1.0,
        "recall_at_k": 1.0 if exact_ids is not None else float("nan"),
    }]
    for label, table in variants.items():
        nbytes = memory_footprint(table)
        recall = float("nan")
        if exact_ids is not None and variant_ids and label in variant_ids:
            recall = recall_at_k(variant_ids[label], exact_ids, k)
        rows.append({
            "table": label,
            "bytes": nbytes,
            "compression_x": baseline_bytes / nbytes,
            "recall_at_k": recall,
        })
    return rows
