"""Serving telemetry: bounded histograms, QPS, cache and recall tracking.

The gateway records one sample per answered request (latency, cache
hit/miss), one sample per dispatched batch (its size), every hot-swap, and
the latest ANN recall probe.  :meth:`GatewayTelemetry.summary` condenses
those into the numbers the bench and the example report: QPS, p50/p95/p99
latency in milliseconds, cache hit rate, mean batch size and recall@K.

Everything is built on :mod:`repro.serving.obs.metrics`: latencies land in
fixed-boundary log-bucketed histograms, totals in counters, so memory is
O(buckets) regardless of traffic — ten million requests cost the same as
ten — and ``summary()`` never re-sorts request history.  Percentiles are
bucket-interpolated with a bounded relative error
(:data:`~repro.serving.obs.metrics.RELATIVE_ERROR_BOUND`, ≈ 15.5% at the
default 16 buckets/decade) against the nearest-rank order statistic.

The sharded tier adds a per-shard dimension: every scattered micro-batch
records one :meth:`GatewayTelemetry.record_shard` sample per worker (shard
wall time, queries scored, candidates contributed to the gather), and
:meth:`GatewayTelemetry.shard_rows` condenses them into per-shard
latency/QPS breakdowns whose totals add up to the gateway-level counters.

The asyncio-native request path adds the loop-front-end dimension: queue
depth at admission (the backpressure signal), overload rejections and
deadline misses (the two ways a request is shed before scoring), cancelled
requests, and event-loop lag (how late the drive task's deadline sleeps
fire — the canary for CPU work blocking the loop).

The experimentation tier (:mod:`repro.serving.abtest`) adds a *bucket*
dimension: a request may carry a tag (its experiment bucket), every
``record_request`` / shed event is then also attributed to that tag, and
:meth:`GatewayTelemetry.bucket_rows` condenses the tagged samples into
per-bucket QPS / latency-percentile / shed-count breakdowns whose totals
add up to the gateway-level counters.  Distinct tags and shards are capped
(``max_tags`` / ``max_shards``): past the cap, new keys collapse into one
explicit ``__overflow__`` row so totals stay exact while cardinality stays
bounded.

Two export surfaces carry the same numbers as ``summary()``:
:meth:`GatewayTelemetry.export_prometheus` (text exposition) and
:meth:`GatewayTelemetry.export_json`; :meth:`GatewayTelemetry.health`
condenses the fleet-router signal into a
:class:`~repro.serving.obs.health.HealthSnapshot` cheap enough to poll
per-request.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional

from repro.serving.obs.health import HealthSnapshot
from repro.serving.obs.metrics import (
    DEFAULT_LATENCY_BOUNDARIES,
    OVERFLOW_LABEL,
    POW2_BOUNDARIES,
    MetricsRegistry,
)

#: Shard id reported for the overflow row once ``max_shards`` is exceeded.
OVERFLOW_SHARD = -1


class GatewayTelemetry:
    """Bounded counters and histograms behind the gateway's metrics.

    ``enabled=False`` turns every ``record_*`` into an early return.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        enabled: bool = True,
        max_tags: int = 64,
        max_shards: int = 256,
        latency_boundaries=None,
    ) -> None:
        self._clock = clock
        self.enabled = enabled
        self.max_tags = max_tags
        self.max_shards = max_shards
        self._latency_boundaries = (
            DEFAULT_LATENCY_BOUNDARIES
            if latency_boundaries is None
            else tuple(latency_boundaries)
        )
        self.reset()

    def reset(self) -> None:
        self._started_at: Optional[float] = None
        self._last_request_at: Optional[float] = None
        registry = MetricsRegistry()
        self.registry = registry
        bounds = self._latency_boundaries
        self._latency = registry.histogram(
            "gateway_request_latency_seconds",
            help="End-to-end latency of answered requests.",
            boundaries=bounds,
        )
        self._batch_size = registry.histogram(
            "gateway_batch_size",
            help="Dispatched micro-batch sizes.",
            boundaries=POW2_BOUNDARIES,
        )
        self._queue_depth = registry.histogram(
            "gateway_queue_depth",
            help="Queue depth observed at admission.",
            boundaries=POW2_BOUNDARIES,
        )
        self._loop_lag = registry.histogram(
            "gateway_loop_lag_seconds",
            help="How late the drive task's deadline sleeps fired.",
            boundaries=bounds,
        )
        self._cache_hits = registry.counter(
            "gateway_cache_hits_total", help="Result-cache hits."
        )
        self._cache_misses = registry.counter(
            "gateway_cache_misses_total", help="Result-cache misses."
        )
        self._backend_queries = registry.counter(
            "gateway_backend_queries_total",
            help="De-duplicated queries scored by the backend.",
        )
        self._swaps = registry.counter(
            "gateway_hot_swaps_total",
            help="Version changes this gateway served across (flips with "
            "no request between them count once).",
        )
        self._gathered = registry.counter(
            "gateway_gathered_candidates_total",
            help="Real top-K entries gathered across shards.",
        )
        self._overloads = registry.counter(
            "gateway_overload_rejections_total",
            help="Requests shed by admission control.",
        )
        self._deadline_misses = registry.counter(
            "gateway_deadline_misses_total",
            help="Requests shed by deadline expiry before scoring.",
        )
        self._cancelled = registry.counter(
            "gateway_cancelled_requests_total",
            help="Requests cancelled by the caller before scoring.",
        )
        self._tag_latency = registry.family(
            "histogram",
            "gateway_bucket_latency_seconds",
            help="Per-experiment-bucket request latency.",
            label_names=("bucket",),
            boundaries=bounds,
        )
        self._tag_hits = registry.family(
            "counter",
            "gateway_bucket_cache_hits_total",
            label_names=("bucket",),
        )
        self._tag_overloads = registry.family(
            "counter",
            "gateway_bucket_overload_rejections_total",
            label_names=("bucket",),
        )
        self._tag_deadline_misses = registry.family(
            "counter",
            "gateway_bucket_deadline_misses_total",
            label_names=("bucket",),
        )
        self._tag_cancelled = registry.family(
            "counter",
            "gateway_bucket_cancelled_requests_total",
            label_names=("bucket",),
        )
        self._shard_latency = registry.family(
            "histogram",
            "gateway_shard_latency_seconds",
            help="Per-shard scatter wall time.",
            label_names=("shard",),
            boundaries=bounds,
        )
        self._shard_queries = registry.family(
            "counter",
            "gateway_shard_queries_total",
            label_names=("shard",),
        )
        self._shard_candidates = registry.family(
            "counter",
            "gateway_shard_candidates_total",
            label_names=("shard",),
        )
        self.last_swap_version: Optional[int] = None
        self.recall_at_k: Optional[float] = None
        self.recall_k: Optional[int] = None
        # Bounded key interners: one admission decision shared by every
        # per-tag / per-shard family, so a capped tag lands in the same
        # overflow row everywhere.
        self._tag_keys: Dict[str, str] = {}
        self._shard_keys: Dict[int, int] = {}
        self.tag_first_at: Dict[str, float] = {}
        self.tag_last_at: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Bounded key admission
    # ------------------------------------------------------------------ #
    def _tag_key(self, tag: str) -> str:
        key = self._tag_keys.get(tag)
        if key is None:
            key = tag if len(self._tag_keys) < self.max_tags else OVERFLOW_LABEL
            self._tag_keys[tag] = key
        return key

    def _shard_key(self, shard: int) -> int:
        key = self._shard_keys.get(shard)
        if key is None:
            key = (
                shard
                if len(self._shard_keys) < self.max_shards
                else OVERFLOW_SHARD
            )
            self._shard_keys[shard] = key
        return key

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_request(
        self, latency_s: float, cache_hit: bool, tag: Optional[str] = None
    ) -> None:
        if not self.enabled:
            return
        now = self._clock()
        if self._started_at is None:
            self._started_at = now - latency_s
        self._last_request_at = now
        self._latency.observe(latency_s)
        if cache_hit:
            self._cache_hits.inc()
        else:
            self._cache_misses.inc()
        if tag is not None:
            key = self._tag_key(tag)
            self._tag_latency.labels(key).observe(latency_s)
            if cache_hit:
                self._tag_hits.labels(key).inc()
            self.tag_first_at.setdefault(key, now - latency_s)
            self.tag_last_at[key] = now

    def record_batch(self, size: int, backend_queries: int) -> None:
        if not self.enabled:
            return
        self._batch_size.observe(int(size))
        self._backend_queries.inc(int(backend_queries))

    def record_swap(self, version: int) -> None:
        if not self.enabled:
            return
        self._swaps.inc()
        self.last_swap_version = int(version)

    def record_recall(self, recall: float, k: int) -> None:
        if not self.enabled:
            return
        self.recall_at_k = float(recall)
        self.recall_k = int(k)

    def record_shard(
        self, shard: int, latency_s: float, queries: int, candidates: int
    ) -> None:
        """One shard's share of one scattered micro-batch.

        ``queries`` is how many backend queries the shard scored (every
        shard scores the whole de-duplicated batch) and ``candidates`` how
        many real top-K entries it contributed to the gather, so summing
        either across shards reproduces the gateway-level totals.
        """
        if not self.enabled:
            return
        shard = int(shard)
        key = self._shard_key(shard)
        self._shard_latency.labels(key).observe(latency_s)
        self._shard_queries.labels(key).inc(int(queries))
        self._shard_candidates.labels(key).inc(int(candidates))
        self._gathered.inc(int(candidates))

    # Loop-front-end events (admission control, deadlines, the drive task).
    def record_overload(self, tag: Optional[str] = None) -> None:
        if not self.enabled:
            return
        self._overloads.inc()
        if tag is not None:
            self._tag_overloads.labels(self._tag_key(tag)).inc()

    def record_deadline_miss(self, tag: Optional[str] = None) -> None:
        if not self.enabled:
            return
        self._deadline_misses.inc()
        if tag is not None:
            self._tag_deadline_misses.labels(self._tag_key(tag)).inc()

    def record_cancelled(self, tag: Optional[str] = None) -> None:
        if not self.enabled:
            return
        self._cancelled.inc()
        if tag is not None:
            self._tag_cancelled.labels(self._tag_key(tag)).inc()

    def record_queue_depth(self, depth: int) -> None:
        """Queue depth observed at one admission."""
        if not self.enabled:
            return
        self._queue_depth.observe(depth)

    def record_loop_lag(self, lag_s: float) -> None:
        """How late one deadline sleep fired (event-loop scheduling lag)."""
        if not self.enabled:
            return
        self._loop_lag.observe(float(lag_s))

    # ------------------------------------------------------------------ #
    # Counter views (the pre-histogram attribute surface)
    # ------------------------------------------------------------------ #
    @property
    def cache_hits(self) -> int:
        return self._cache_hits.value

    @property
    def cache_misses(self) -> int:
        return self._cache_misses.value

    @property
    def backend_queries(self) -> int:
        return self._backend_queries.value

    @property
    def swaps(self) -> int:
        return self._swaps.value

    @property
    def gathered_candidates(self) -> int:
        return self._gathered.value

    @property
    def overload_rejections(self) -> int:
        return self._overloads.value

    @property
    def deadline_misses(self) -> int:
        return self._deadline_misses.value

    @property
    def cancelled_requests(self) -> int:
        return self._cancelled.value

    @property
    def queue_depth_samples(self) -> int:
        return self._queue_depth.count

    @property
    def queue_depth_max(self) -> float:
        return self._queue_depth.max if self._queue_depth.count else 0

    @property
    def loop_lag_samples(self) -> int:
        return self._loop_lag.count

    @property
    def loop_lag_s_max(self) -> float:
        return self._loop_lag.max if self._loop_lag.count else 0.0

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    @property
    def requests(self) -> int:
        return self._latency.count

    @property
    def elapsed_s(self) -> float:
        if self._started_at is None or self._last_request_at is None:
            return 0.0
        return max(self._last_request_at - self._started_at, 1e-12)

    @property
    def qps(self) -> float:
        return self.requests / self.elapsed_s if self.requests else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def queue_depth_mean(self) -> float:
        if not self._queue_depth.count:
            return 0.0
        return self._queue_depth.mean

    @property
    def loop_lag_mean_s(self) -> float:
        if not self._loop_lag.count:
            return 0.0
        return self._loop_lag.mean

    def latency_ms(self, percentile: float) -> float:
        """Bucket-interpolated latency percentile in milliseconds."""
        return self._latency.percentile(percentile) * 1e3

    @property
    def num_shards(self) -> int:
        """Shards that recorded at least one scatter sample (0 = unsharded)."""
        return len(self._shard_latency._children)

    def shard_rows(self) -> List[Dict[str, float]]:
        """Per-shard latency/QPS breakdown rows (one dict per shard).

        ``busy_s`` is the shard's summed scan wall time; ``qps`` relates the
        queries it scored to that busy time, so near-uniform shard layouts
        (the balanced IVF-PQ cells) show up as near-uniform rows.  The
        overflow row (shard id :data:`OVERFLOW_SHARD`) absorbs shards past
        the ``max_shards`` cap.
        """
        rows = []
        for (label,), hist in self._shard_latency.items():
            shard = OVERFLOW_SHARD if label == OVERFLOW_LABEL else int(label)
            busy_s = hist.sum
            queries_counter = self._shard_queries.get(label)
            queries = queries_counter.value if queries_counter else 0
            candidates = self._shard_candidates.get(label)
            rows.append(
                {
                    "shard": float(shard),
                    "batches": float(hist.count),
                    "queries": float(queries),
                    "candidates": float(candidates.value if candidates else 0),
                    "busy_s": busy_s,
                    "qps": queries / busy_s if busy_s > 0 else 0.0,
                    "p50_ms": hist.percentile(50) * 1e3,
                    "p95_ms": hist.percentile(95) * 1e3,
                }
            )
        rows.sort(key=lambda row: row["shard"])
        return rows

    @property
    def tags(self) -> List[str]:
        """Every tag that recorded at least one event (sorted)."""
        seen = {key for (key,), _ in self._tag_latency.items()}
        for family in (
            self._tag_overloads,
            self._tag_deadline_misses,
            self._tag_cancelled,
        ):
            seen.update(key for (key,), _ in family.items())
        return sorted(seen)

    def bucket_rows(self) -> List[Dict[str, float]]:
        """Per-tag (experiment-bucket) serving-cost rows, one dict per tag.

        A tag's ``qps`` relates its answered requests to the span between
        its own first and last request, so two buckets sharing one gateway
        report the rates *their* traffic actually sustained.  Summing
        ``requests`` / ``deadline_misses`` / ``overload_rejections`` /
        ``cancelled`` across rows reproduces the gateway-level counters
        whenever every request carried a tag; tags past the ``max_tags``
        cap share one explicit ``__overflow__`` row.
        """
        rows = []
        for tag in self.tags:
            hist = self._tag_latency.get(tag)
            requests = hist.count if hist else 0
            if requests:
                span = max(self.tag_last_at[tag] - self.tag_first_at[tag], 1e-12)
                qps = requests / span
                p50 = hist.percentile(50) * 1e3
                p95 = hist.percentile(95) * 1e3
                p99 = hist.percentile(99) * 1e3
            else:
                qps = 0.0
                p50 = p95 = p99 = float("nan")
            hits_counter = self._tag_hits.get(tag)
            hits = hits_counter.value if hits_counter else 0

            def _count(family, key=tag):
                counter = family.get(key)
                return float(counter.value if counter else 0)

            rows.append(
                {
                    "bucket": tag,
                    "requests": float(requests),
                    "qps": qps,
                    "p50_ms": p50,
                    "p95_ms": p95,
                    "p99_ms": p99,
                    "cache_hit_rate": hits / requests if requests else 0.0,
                    "deadline_misses": _count(self._tag_deadline_misses),
                    "overload_rejections": _count(self._tag_overloads),
                    "cancelled_requests": _count(self._tag_cancelled),
                }
            )
        return rows

    def summary(self) -> Dict[str, float]:
        """One flat dict of the headline serving metrics."""
        mean_batch = self._batch_size.mean if self._batch_size.count else 0.0
        return {
            "requests": float(self.requests),
            "qps": self.qps,
            "p50_ms": self.latency_ms(50),
            "p95_ms": self.latency_ms(95),
            "p99_ms": self.latency_ms(99),
            "cache_hit_rate": self.cache_hit_rate,
            "mean_batch_size": float(mean_batch),
            "backend_queries": float(self.backend_queries),
            "hot_swaps": float(self.swaps),
            "recall_at_k": (
                float("nan") if self.recall_at_k is None else self.recall_at_k
            ),
            "gathered_candidates": float(self.gathered_candidates),
            "overload_rejections": float(self.overload_rejections),
            "deadline_misses": float(self.deadline_misses),
            "cancelled_requests": float(self.cancelled_requests),
            "queue_depth_mean": float(self.queue_depth_mean),
            "queue_depth_max": float(self.queue_depth_max),
            "loop_lag_mean_ms": float(self.loop_lag_mean_s * 1e3),
            "loop_lag_max_ms": float(self.loop_lag_s_max * 1e3),
        }

    # ------------------------------------------------------------------ #
    # Health / exports
    # ------------------------------------------------------------------ #
    def health(self) -> HealthSnapshot:
        """The fleet-router signal, assembled in O(buckets) time."""
        requests = self.requests
        overloads = self.overload_rejections
        misses = self.deadline_misses
        cancelled = self.cancelled_requests
        shed = overloads + misses
        offered = requests + shed
        return HealthSnapshot(
            requests=float(requests),
            qps=self.qps,
            p50_ms=self.latency_ms(50),
            p99_ms=self.latency_ms(99),
            queue_depth_mean=float(self.queue_depth_mean),
            queue_depth_max=float(self.queue_depth_max),
            loop_lag_mean_ms=float(self.loop_lag_mean_s * 1e3),
            loop_lag_max_ms=float(self.loop_lag_s_max * 1e3),
            overload_rejections=float(overloads),
            deadline_misses=float(misses),
            cancelled_requests=float(cancelled),
            shed_rate=shed / offered if offered else 0.0,
        )

    def export_prometheus(self) -> str:
        """Prometheus text exposition of every metric family."""
        return self.registry.render_prometheus()

    def export_json(self) -> Dict[str, object]:
        """JSON document: raw metric families plus the derived summary.

        The ``metrics`` section carries the same bucket counts and totals
        the text exposition renders; the ``summary`` section repeats
        :meth:`summary` so a scraper can cross-check the derived numbers
        against the raw ones.
        """
        doc: Dict[str, object] = {"metrics": self.registry.to_json(),
                                  "summary": self.summary()}
        for key, value in doc["summary"].items():
            if isinstance(value, float) and math.isnan(value):
                doc["summary"][key] = None
        return doc
