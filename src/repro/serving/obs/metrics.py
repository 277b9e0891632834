"""Bounded metrics core: counters, gauges, log-bucketed histograms.

Everything the gateway records at request rate lands here, and every
structure is O(buckets) — observing ten million requests costs exactly the
same memory as observing ten.  The pieces:

* :class:`Counter` / :class:`Gauge` — monotonic totals and point-in-time
  values.
* :class:`Histogram` — fixed-boundary log-bucketed distribution with
  Prometheus ``le`` (cumulative upper-bound) semantics.  Percentiles are
  bucket-interpolated against the nearest-rank order statistic; because
  consecutive boundaries grow by ``g = 10 ** (1 / per_decade)``, the
  estimate lands in the same bucket as the true order statistic and the
  relative error is bounded by ``g - 1`` (≈ 15.5% at the default 16
  buckets per decade) for values inside the boundary range.  Values
  outside the range clamp into the underflow/overflow bucket, whose span
  is tightened by the observed min/max.
* :class:`HistogramSnapshot` — an immutable copy that merges with any
  snapshot sharing the same boundaries; merge-of-snapshots equals
  snapshot-of-merged observation streams (bucket counts are exact ints).
* :class:`MetricFamily` / :class:`MetricsRegistry` — labeled series with
  an optional ``max_series`` cap: once distinct label sets hit the cap,
  new ones collapse into an explicit ``__overflow__`` series instead of
  growing the dict without bound.  The registry renders Prometheus text
  exposition and a JSON document carrying the same numbers.

:func:`sample_percentiles_ms` is the one shared exact-percentile helper
(numpy linear interpolation over raw samples) used by the load benches and
eval summaries that still hold full latency lists.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Label value absorbing series beyond a family's ``max_series`` cap.
OVERFLOW_LABEL = "__overflow__"


def log_boundaries(
    lo: float, hi: float, per_decade: int = 16
) -> Tuple[float, ...]:
    """Geometric bucket boundaries from ``lo`` up to (at least) ``hi``.

    Consecutive boundaries differ by a factor of ``10 ** (1 / per_decade)``,
    which is what bounds the bucket-interpolated percentile's relative
    error at ``10 ** (1 / per_decade) - 1``.
    """
    if lo <= 0.0 or hi <= lo:
        raise ValueError("log_boundaries needs 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    steps = math.ceil(math.log10(hi / lo) * per_decade)
    return tuple(lo * 10.0 ** (i / per_decade) for i in range(steps + 1))


#: Default latency boundaries: 1µs .. ~64s at 16 buckets/decade.
DEFAULT_LATENCY_BOUNDARIES = log_boundaries(1e-6, 64.0, per_decade=16)

#: Documented relative error bound for percentiles over the default grid.
RELATIVE_ERROR_BOUND = 10.0 ** (1.0 / 16.0) - 1.0

#: Power-of-two boundaries for small-integer distributions (batch sizes,
#: queue depths): exact sums keep means exact, max tracks the true max.
POW2_BOUNDARIES = tuple(float(2**i) for i in range(17))


def _bucket_percentile(
    boundaries: Sequence[float],
    counts: Sequence[int],
    total: int,
    vmin: float,
    vmax: float,
    percentile: float,
) -> float:
    """Interpolated value of the nearest-rank order statistic.

    Walks the cumulative counts to the bucket holding the ``ceil(q/100 * n)``
    order statistic, then interpolates linearly inside that bucket.  The
    bucket edges are tightened by the observed min/max, so degenerate
    streams (all zeros under a fake clock) stay finite and exact.
    """
    if total <= 0:
        return math.nan
    rank = max(1, min(total, math.ceil(percentile / 100.0 * total)))
    cumulative = 0
    last = len(boundaries)
    for idx, count in enumerate(counts):
        if not count:
            continue
        if cumulative + count >= rank:
            lo = boundaries[idx - 1] if idx else vmin
            hi = boundaries[idx] if idx < last else vmax
            lo = max(lo, vmin)
            hi = min(hi, vmax)
            if hi <= lo:
                return lo
            fraction = (rank - cumulative) / count
            return lo + fraction * (hi - lo)
        cumulative += count
    return vmax


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value that can go up or down."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable histogram state; mergeable across identical boundaries."""

    boundaries: Tuple[float, ...]
    counts: Tuple[int, ...]
    count: int
    sum: float
    min: float
    max: float

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Combine two snapshots observed over the same bucket grid."""
        if self.boundaries != other.boundaries:
            raise ValueError("cannot merge snapshots with different boundaries")
        return HistogramSnapshot(
            boundaries=self.boundaries,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            count=self.count + other.count,
            sum=self.sum + other.sum,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )

    def percentile(self, percentile: float) -> float:
        return _bucket_percentile(
            self.boundaries, self.counts, self.count, self.min, self.max, percentile
        )

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan


class Histogram:
    """Fixed-boundary histogram with Prometheus ``le`` bucket semantics.

    Bucket ``i`` counts observations ``boundaries[i-1] < v <= boundaries[i]``;
    one extra overflow bucket catches everything above the last boundary.
    """

    kind = "histogram"
    __slots__ = ("boundaries", "counts", "count", "sum", "min", "max")

    def __init__(self, boundaries: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(
            float(b)
            for b in (DEFAULT_LATENCY_BOUNDARIES if boundaries is None else boundaries)
        )
        if len(bounds) < 1 or any(
            b <= a for a, b in zip(bounds, bounds[1:])
        ):
            raise ValueError("boundaries must be non-empty and strictly increasing")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, percentile: float) -> float:
        return _bucket_percentile(
            self.boundaries, self.counts, self.count, self.min, self.max, percentile
        )

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            boundaries=self.boundaries,
            counts=tuple(self.counts),
            count=self.count,
            sum=self.sum,
            min=self.min,
            max=self.max,
        )


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric with labeled children and a bounded series count.

    ``labels(*values)`` returns (creating on first touch) the child series
    for one label-value tuple.  Once ``max_series`` distinct tuples exist,
    further tuples collapse into one explicit overflow child labeled
    :data:`OVERFLOW_LABEL` on every axis — totals stay exact, cardinality
    stays bounded, and the overflow is visible rather than silent.
    """

    __slots__ = (
        "kind",
        "name",
        "help",
        "label_names",
        "max_series",
        "boundaries",
        "_children",
        "_overflow_key",
    )

    def __init__(
        self,
        kind: str,
        name: str,
        help: str = "",
        label_names: Tuple[str, ...] = (),
        max_series: Optional[int] = None,
        boundaries: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in _METRIC_TYPES:
            raise ValueError(f"unknown metric kind: {kind!r}")
        self.kind = kind
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.max_series = max_series
        self.boundaries = boundaries
        self._children: Dict[Tuple[str, ...], object] = {}
        self._overflow_key = (OVERFLOW_LABEL,) * len(self.label_names)

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self.boundaries)
        return _METRIC_TYPES[self.kind]()

    def labels(self, *values) -> object:
        key = tuple(str(v) for v in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label values, "
                f"got {len(key)}"
            )
        child = self._children.get(key)
        if child is None:
            if (
                self.max_series is not None
                and key != self._overflow_key
                and self.series_count >= self.max_series
            ):
                key = self._overflow_key
                child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    def get(self, *values) -> Optional[object]:
        """The child for a label tuple, or ``None`` if never touched."""
        return self._children.get(tuple(str(v) for v in values))

    @property
    def series_count(self) -> int:
        """Distinct non-overflow series currently tracked."""
        if self._overflow_key in self._children:
            return len(self._children) - 1
        return len(self._children)

    @property
    def overflowed(self) -> bool:
        return self._overflow_key in self._children

    def items(self) -> List[Tuple[Tuple[str, ...], object]]:
        return sorted(self._children.items())


class MetricsRegistry:
    """Named metric families plus Prometheus/JSON exposition."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def family(
        self,
        kind: str,
        name: str,
        help: str = "",
        label_names: Tuple[str, ...] = (),
        max_series: Optional[int] = None,
        boundaries: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != tuple(label_names):
                raise ValueError(f"metric {name!r} already registered differently")
            return existing
        family = MetricFamily(
            kind,
            name,
            help=help,
            label_names=tuple(label_names),
            max_series=max_series,
            boundaries=boundaries,
        )
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self.family("counter", name, help=help).labels()

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self.family("gauge", name, help=help).labels()

    def histogram(
        self,
        name: str,
        help: str = "",
        boundaries: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self.family(
            "histogram", name, help=help, boundaries=boundaries
        ).labels()

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        return list(self._families.values())

    # ------------------------------------------------------------------ #
    # Exposition
    # ------------------------------------------------------------------ #
    def render_prometheus(self) -> str:
        """Prometheus text exposition (``# HELP`` / ``# TYPE`` + series)."""
        lines: List[str] = []
        for family in self._families.values():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.items():
                pairs = list(zip(family.label_names, key))
                if family.kind == "histogram":
                    cumulative = 0
                    for boundary, count in zip(child.boundaries, child.counts):
                        cumulative += count
                        lines.append(
                            f"{family.name}_bucket"
                            f"{_label_str(pairs + [('le', _fmt(boundary))])}"
                            f" {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_label_str(pairs + [('le', '+Inf')])} {child.count}"
                    )
                    lines.append(
                        f"{family.name}_sum{_label_str(pairs)} {_fmt(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_label_str(pairs)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_label_str(pairs)} {_fmt(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    def to_json(self) -> Dict[str, dict]:
        """The same numbers as the text exposition, JSON-serialisable."""
        doc: Dict[str, dict] = {}
        for family in self._families.values():
            series = []
            for key, child in family.items():
                labels = dict(zip(family.label_names, key))
                if family.kind == "histogram":
                    series.append(
                        {
                            "labels": labels,
                            "boundaries": list(child.boundaries),
                            "counts": list(child.counts),
                            "count": child.count,
                            "sum": child.sum,
                            "min": child.min if child.count else None,
                            "max": child.max if child.count else None,
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})
            doc[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "series": series,
            }
        return doc


def _label_str(pairs: List[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return (
        str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


def sample_percentiles_ms(
    latencies_s: Iterable[float],
    percentiles: Sequence[float] = (50, 95, 99),
) -> Dict[str, float]:
    """Exact percentiles (milliseconds) over raw latency samples.

    The one exact-percentile definition the serving stack shares;
    NaN-filled when the sample list is empty.
    """
    values = np.asarray(list(latencies_s), dtype=np.float64)
    if values.size == 0:
        return {f"p{int(p)}_ms": math.nan for p in percentiles}
    return {
        f"p{int(p)}_ms": float(np.percentile(values, p) * 1e3)
        for p in percentiles
    }
