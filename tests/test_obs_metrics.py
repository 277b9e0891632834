"""Tests for the bounded metrics core (``repro.serving.obs.metrics``) and
the histogram-backed :class:`GatewayTelemetry` built on top of it.

The properties pinned down here are the ones the observability layer
advertises: bucket-interpolated percentiles stay within the documented
relative-error bound of the exact order statistic, snapshot merging
commutes with observation (merge-of-snapshots == snapshot-of-merged),
label cardinality is capped by an explicit overflow series, telemetry
memory is O(buckets) regardless of traffic, and the Prometheus / JSON
export surfaces carry exactly the numbers ``summary()`` derives.
"""

import math

import numpy as np
import pytest

from repro.serving.gateway import GatewayTelemetry
from repro.serving.obs.metrics import (
    DEFAULT_LATENCY_BOUNDARIES,
    OVERFLOW_LABEL,
    RELATIVE_ERROR_BOUND,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    log_boundaries,
    sample_percentiles_ms,
)
from repro.serving.gateway.telemetry import OVERFLOW_SHARD


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _random_samples(rng, distribution, size):
    if distribution == "lognormal":
        values = rng.lognormal(mean=-6.0, sigma=1.5, size=size)
    elif distribution == "exponential":
        values = rng.exponential(scale=0.01, size=size)
    elif distribution == "uniform":
        values = rng.uniform(1e-5, 2.0, size=size)
    elif distribution == "bimodal":
        fast = rng.lognormal(mean=-8.0, sigma=0.4, size=size // 2)
        slow = rng.lognormal(mean=-2.0, sigma=0.6, size=size - size // 2)
        values = np.concatenate([fast, slow])
    else:  # pragma: no cover - guard against typos in the parametrize list
        raise AssertionError(distribution)
    # Keep every sample strictly inside the default boundary range so the
    # documented bound applies (outside it the clamp rules take over).
    return np.clip(values, 2e-6, 50.0)


class TestBucketPercentiles:
    @pytest.mark.parametrize(
        "distribution", ["lognormal", "exponential", "uniform", "bimodal"]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_percentiles_within_documented_bound(self, distribution, seed):
        rng = np.random.default_rng(seed)
        values = _random_samples(rng, distribution, size=2_000)
        histogram = Histogram()
        for value in values:
            histogram.observe(float(value))
        for q in (50.0, 95.0, 99.0):
            # The estimator targets the nearest-rank order statistic,
            # which is exactly numpy's inverted_cdf quantile.
            exact = float(np.percentile(values, q, method="inverted_cdf"))
            estimate = histogram.percentile(q)
            relative_error = abs(estimate - exact) / exact
            assert relative_error <= RELATIVE_ERROR_BOUND * (1 + 1e-9), (
                f"{distribution} seed={seed} p{q}: estimate {estimate:.6g} "
                f"vs exact {exact:.6g} (rel err {relative_error:.4f})"
            )

    def test_degenerate_stream_is_exact(self):
        histogram = Histogram()
        for _ in range(100):
            histogram.observe(0.0125)
        for q in (1.0, 50.0, 99.9):
            assert histogram.percentile(q) == pytest.approx(0.0125)

    def test_all_zero_stream_stays_finite(self):
        # FakeClock-driven tests observe literal zeros, which fall below
        # the lowest boundary; the min/max clamp keeps the estimate exact.
        histogram = Histogram()
        for _ in range(10):
            histogram.observe(0.0)
        assert histogram.percentile(50) == 0.0
        assert histogram.percentile(99) == 0.0

    def test_empty_histogram_is_nan(self):
        assert math.isnan(Histogram().percentile(50))
        assert math.isnan(Histogram().mean)

    def test_mean_and_extremes_are_exact(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(1e-4, 1.0, size=500)
        histogram = Histogram()
        for value in values:
            histogram.observe(float(value))
        assert histogram.mean == pytest.approx(float(values.mean()))
        assert histogram.min == pytest.approx(float(values.min()))
        assert histogram.max == pytest.approx(float(values.max()))


class TestSnapshotMerge:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merge_of_snapshots_equals_snapshot_of_merged(self, seed):
        rng = np.random.default_rng(seed)
        values = _random_samples(rng, "lognormal", size=1_500)
        chunks = np.array_split(values, 3)

        merged_stream = Histogram()
        for value in values:
            merged_stream.observe(float(value))
        expected = merged_stream.snapshot()

        parts = []
        for chunk in chunks:
            histogram = Histogram()
            for value in chunk:
                histogram.observe(float(value))
            parts.append(histogram.snapshot())
        combined = parts[0].merge(parts[1]).merge(parts[2])

        assert combined.counts == expected.counts  # exact ints
        assert combined.count == expected.count
        assert combined.min == expected.min
        assert combined.max == expected.max
        assert combined.sum == pytest.approx(expected.sum)
        for q in (50.0, 95.0, 99.0):
            assert combined.percentile(q) == pytest.approx(
                expected.percentile(q)
            )

    def test_merge_rejects_mismatched_boundaries(self):
        a = Histogram(log_boundaries(1e-6, 1.0)).snapshot()
        b = Histogram(log_boundaries(1e-6, 10.0)).snapshot()
        with pytest.raises(ValueError):
            a.merge(b)


class TestBoundaries:
    def test_log_boundaries_geometry(self):
        bounds = log_boundaries(1e-6, 64.0, per_decade=16)
        assert bounds == DEFAULT_LATENCY_BOUNDARIES
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        step = 10.0 ** (1.0 / 16.0)
        assert all(r == pytest.approx(step) for r in ratios)
        assert bounds[-1] >= 64.0

    def test_log_boundaries_validation(self):
        with pytest.raises(ValueError):
            log_boundaries(0.0, 1.0)
        with pytest.raises(ValueError):
            log_boundaries(1.0, 1.0)
        with pytest.raises(ValueError):
            log_boundaries(1e-6, 1.0, per_decade=0)

    def test_histogram_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0, 2.0))


class TestRegistry:
    def test_counter_gauge_histogram_exposition(self):
        registry = MetricsRegistry()
        registry.counter("demo_total", help="A demo counter.").inc(3)
        registry.gauge("demo_gauge").set(2.5)
        hist = registry.histogram("demo_seconds", boundaries=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(9.0)

        text = registry.render_prometheus()
        assert "# HELP demo_total A demo counter." in text
        assert "# TYPE demo_total counter" in text
        assert "demo_total 3" in text
        assert "demo_gauge 2.5" in text
        # le-cumulative semantics: <=1.0 sees one, <=2.0 sees two, +Inf all.
        assert 'demo_seconds_bucket{le="1.0"} 1' in text
        assert 'demo_seconds_bucket{le="2.0"} 2' in text
        assert 'demo_seconds_bucket{le="+Inf"} 3' in text
        assert "demo_seconds_count 3" in text

        doc = registry.to_json()
        assert doc["demo_total"]["series"][0]["value"] == 3
        series = doc["demo_seconds"]["series"][0]
        assert series["counts"] == [1, 1, 1]
        assert series["count"] == 3

    def test_family_overflow_caps_cardinality(self):
        registry = MetricsRegistry()
        family = registry.family(
            "counter", "tagged_total", label_names=("tag",), max_series=3
        )
        for index in range(10):
            family.labels(f"tag-{index}").inc()
        assert family.series_count == 3
        assert family.overflowed
        overflow = family.get(OVERFLOW_LABEL)
        assert overflow.value == 7  # totals stay exact
        total = sum(child.value for _, child in family.items())
        assert total == 10

    def test_conflicting_registration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("metric_total")
        with pytest.raises(ValueError):
            registry.family("gauge", "metric_total")


class TestSharedPercentileHelper:
    def test_matches_numpy_linear_interpolation(self):
        rng = np.random.default_rng(11)
        latencies = rng.uniform(1e-4, 0.1, size=333)
        result = sample_percentiles_ms(latencies, percentiles=(50, 95, 99))
        for q in (50, 95, 99):
            expected = float(np.percentile(latencies, q) * 1e3)
            assert result[f"p{q}_ms"] == pytest.approx(expected)

    def test_empty_is_nan(self):
        result = sample_percentiles_ms([])
        assert set(result) == {"p50_ms", "p95_ms", "p99_ms"}
        assert all(math.isnan(value) for value in result.values())


def _drive_telemetry(telemetry, clock, rounds):
    """A fixed per-round recording mix over a bounded tag/shard universe."""
    for index in range(rounds):
        clock.advance(0.001)
        telemetry.record_queue_depth(index % 7)
        telemetry.record_batch(size=8, backend_queries=6)
        telemetry.record_loop_lag(0.0002)
        for shard in range(4):
            telemetry.record_shard(
                shard, latency_s=0.002, queries=6, candidates=5
            )
        telemetry.record_request(
            0.004, cache_hit=index % 3 == 0, tag=("a", "b")[index % 2]
        )
        if index % 11 == 0:
            telemetry.record_overload(tag="a")
        if index % 13 == 0:
            telemetry.record_deadline_miss(tag="b")


def _container_sizes(telemetry):
    """Every bounded container's size: must not grow with traffic."""
    sizes = {
        "tag_keys": len(telemetry._tag_keys),
        "shard_keys": len(telemetry._shard_keys),
        "families": len(telemetry.registry.families()),
    }
    for family in telemetry.registry.families():
        sizes[f"{family.name}.series"] = len(family._children)
        for key, child in family.items():
            if hasattr(child, "counts"):
                sizes[f"{family.name}{key}.buckets"] = len(child.counts)
    return sizes


class TestTelemetryBoundedMemory:
    def test_no_per_request_growth(self):
        clock = FakeClock()
        telemetry = GatewayTelemetry(clock=clock)
        _drive_telemetry(telemetry, clock, rounds=200)
        before = _container_sizes(telemetry)
        requests_before = telemetry.requests
        _drive_telemetry(telemetry, clock, rounds=1_000)
        after = _container_sizes(telemetry)
        assert telemetry.requests == requests_before + 1_000
        # 5x the traffic, identical container sizes: memory is
        # O(buckets + label universe), independent of request count.
        assert after == before
        # The pre-histogram implementation kept raw per-request lists;
        # their absence is the regression this test guards.
        assert not hasattr(telemetry, "latencies_s")
        assert not hasattr(telemetry, "latencies")

    def test_tag_overflow_row_bounds_cardinality(self):
        clock = FakeClock()
        telemetry = GatewayTelemetry(clock=clock, max_tags=2)
        for index in range(40):
            clock.advance(0.001)
            telemetry.record_request(
                0.002, cache_hit=False, tag=f"bucket-{index % 8}"
            )
        rows = {row["bucket"]: row for row in telemetry.bucket_rows()}
        assert set(rows) == {"bucket-0", "bucket-1", OVERFLOW_LABEL}
        assert sum(row["requests"] for row in rows.values()) == 40
        assert rows[OVERFLOW_LABEL]["requests"] == 30
        # The interner remembers every tag string it admitted or spilled,
        # but the metric families stay capped.
        assert telemetry._tag_latency.series_count == 2

    def test_shard_overflow_row_bounds_cardinality(self):
        clock = FakeClock()
        telemetry = GatewayTelemetry(clock=clock, max_shards=2)
        for shard in range(6):
            telemetry.record_shard(
                shard, latency_s=0.001, queries=4, candidates=3
            )
        rows = {row["shard"]: row for row in telemetry.shard_rows()}
        assert set(rows) == {0.0, 1.0, float(OVERFLOW_SHARD)}
        assert sum(row["queries"] for row in rows.values()) == 24
        assert rows[float(OVERFLOW_SHARD)]["batches"] == 4


class TestTelemetryExportRoundTrip:
    def _recorded_telemetry(self):
        clock = FakeClock()
        telemetry = GatewayTelemetry(clock=clock)
        rng = np.random.default_rng(5)
        for latency in rng.lognormal(mean=-6.0, sigma=1.0, size=400):
            clock.advance(0.0005)
            telemetry.record_request(float(latency), cache_hit=False)
        telemetry.record_batch(size=16, backend_queries=12)
        telemetry.record_overload()
        return telemetry

    def test_json_export_reconstructs_summary_percentiles(self):
        telemetry = self._recorded_telemetry()
        summary = telemetry.summary()
        doc = telemetry.export_json()
        assert doc["summary"]["requests"] == summary["requests"]
        assert doc["summary"]["p99_ms"] == summary["p99_ms"]
        assert doc["summary"]["recall_at_k"] is None  # NaN -> JSON null

        series = doc["metrics"]["gateway_request_latency_seconds"]["series"][0]
        rebuilt = HistogramSnapshot(
            boundaries=tuple(series["boundaries"]),
            counts=tuple(series["counts"]),
            count=series["count"],
            sum=series["sum"],
            min=series["min"],
            max=series["max"],
        )
        # A scraper holding only the raw JSON buckets recomputes the very
        # same quantiles summary() reports.
        for q, key in ((50, "p50_ms"), (95, "p95_ms"), (99, "p99_ms")):
            assert rebuilt.percentile(q) * 1e3 == pytest.approx(summary[key])
        assert rebuilt.count == summary["requests"]

    def test_prometheus_export_matches_summary_totals(self):
        telemetry = self._recorded_telemetry()
        summary = telemetry.summary()
        values = {}
        for line in telemetry.export_prometheus().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            values[name] = float(value)
        assert values["gateway_request_latency_seconds_count"] == (
            summary["requests"]
        )
        assert values["gateway_backend_queries_total"] == (
            summary["backend_queries"]
        )
        assert values["gateway_overload_rejections_total"] == (
            summary["overload_rejections"]
        )
        assert values['gateway_request_latency_seconds_bucket{le="+Inf"}'] == (
            summary["requests"]
        )
