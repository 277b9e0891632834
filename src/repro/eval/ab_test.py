"""Simulated online A/B (bucket) testing.

The paper deploys GARCIA in the Alipay service-search scenario and runs a
seven-day bucket test against the production baseline, reporting the relative
improvement of CTR and Valid CTR per day (Fig. 10).  This module reproduces
the *measurement*: a population of simulated users issues queries according
to the dataset's traffic distribution, each bucket's ranker returns a top-K
list, and the ground-truth :class:`~repro.data.synthetic.ClickOracle` decides
clicks and in-service conversions.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.data.schema import ServiceSearchDataset
from repro.data.synthetic import ClickOracle


@dataclass
class ABTestConfig:
    """Parameters of the simulated bucket test."""

    num_days: int = 7
    sessions_per_day: int = 3000
    top_k: int = 5
    #: Position-bias discounts applied to the click probability of each slot.
    position_bias: Sequence[float] = (1.0, 0.75, 0.55, 0.4, 0.3)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_days <= 0 or self.sessions_per_day <= 0 or self.top_k <= 0:
            raise ValueError("num_days, sessions_per_day and top_k must be positive")
        if len(self.position_bias) < self.top_k:
            raise ValueError("position_bias must cover every slot of the top-K list")


def date_label(start_date: str, offset: int) -> str:
    """``YYYY/MM/DD`` label ``offset`` days after ``start_date``.

    Real calendar arithmetic, so a test window crossing a month (or year)
    boundary still labels every day with a date that exists.
    """
    year, month, day = (int(part) for part in start_date.split("/"))
    date = datetime.date(year, month, day) + datetime.timedelta(days=offset)
    return f"{date.year:04d}/{date.month:02d}/{date.day:02d}"


@dataclass
class BucketDailyMetrics:
    """One bucket's raw counters for one day."""

    impressions: int = 0
    clicks: int = 0
    conversions: int = 0

    @property
    def ctr(self) -> float:
        return self.clicks / self.impressions if self.impressions else float("nan")

    @property
    def valid_ctr(self) -> float:
        return self.conversions / self.impressions if self.impressions else float("nan")


def simulate_impressions(
    oracle: ClickOracle,
    query_id: int,
    ranked: Sequence[int],
    position_bias: Sequence[float],
    rng: np.random.Generator,
    metrics: BucketDailyMetrics,
) -> None:
    """Score one session's top-K list against the click oracle.

    One impression per shown slot; the oracle's click probability is
    discounted by the slot's position bias, and a conversion requires a
    click first.  The counters accumulate into ``metrics`` — shared by the
    offline replay (:class:`OnlineABTest`) and the gateway-backed
    experiment (:class:`repro.serving.abtest.OnlineABExperiment`), so the
    two backends cannot drift in how a session becomes clicks.
    """
    shown = np.asarray(ranked, dtype=np.int64)
    if shown.size == 0:
        return
    bias = np.asarray(position_bias[: shown.size], dtype=np.float64)
    query_column = np.full(shown.size, query_id)
    clicks_p = oracle.click_probability(query_column, shown) * bias
    clicked = rng.random(shown.size) < clicks_p
    conversions_p = oracle.conversion_probability(query_column, shown)
    converted = clicked & (rng.random(shown.size) < conversions_p)
    metrics.impressions += int(shown.size)
    metrics.clicks += int(clicked.sum())
    metrics.conversions += int(converted.sum())


@dataclass
class ABTestResult:
    """Per-day metrics of both buckets plus relative improvements (Fig. 10)."""

    days: List[str]
    baseline: List[BucketDailyMetrics]
    treatment: List[BucketDailyMetrics]

    def ctr_improvement(self) -> List[float]:
        """Relative CTR improvement (%) of the treatment bucket per day."""
        return [
            100.0 * (t.ctr - b.ctr) / b.ctr if b.ctr else float("nan")
            for b, t in zip(self.baseline, self.treatment)
        ]

    def valid_ctr_improvement(self) -> List[float]:
        """Relative Valid-CTR improvement (%) per day."""
        return [
            100.0 * (t.valid_ctr - b.valid_ctr) / b.valid_ctr if b.valid_ctr else float("nan")
            for b, t in zip(self.baseline, self.treatment)
        ]

    def absolute_ctr_gain(self) -> float:
        """Absolute CTR improvement in percentage points, aggregated over days."""
        base_clicks = sum(b.clicks for b in self.baseline)
        base_impressions = sum(b.impressions for b in self.baseline)
        treat_clicks = sum(t.clicks for t in self.treatment)
        treat_impressions = sum(t.impressions for t in self.treatment)
        return 100.0 * (treat_clicks / treat_impressions - base_clicks / base_impressions)

    def absolute_valid_ctr_gain(self) -> float:
        """Absolute Valid-CTR improvement in percentage points."""
        base = sum(b.conversions for b in self.baseline) / sum(b.impressions for b in self.baseline)
        treat = sum(t.conversions for t in self.treatment) / sum(t.impressions for t in self.treatment)
        return 100.0 * (treat - base)

    def as_rows(self) -> List[Dict[str, object]]:
        rows = []
        for day, ctr_gain, valid_gain in zip(self.days, self.ctr_improvement(), self.valid_ctr_improvement()):
            rows.append(
                {
                    "day": day,
                    "ctr_improvement_pct": round(ctr_gain, 3),
                    "valid_ctr_improvement_pct": round(valid_gain, 3),
                }
            )
        return rows


class OnlineABTest:
    """Replay simulated traffic against two rankers and compare buckets.

    A *ranker* is anything exposing ``rank(query_id, k) -> sequence of service
    ids``: a trained model (:meth:`repro.models.base.RankingModel.rank`, its
    click head over the whole catalogue) or a serving gateway
    (:func:`repro.serving.gateway.deploy_gateway`, the inner product of the
    exported embeddings).
    """

    def __init__(self, dataset: ServiceSearchDataset, oracle: ClickOracle,
                 config: ABTestConfig = ABTestConfig()) -> None:
        self.dataset = dataset
        self.oracle = oracle
        self.config = config
        frequencies = dataset.query_frequencies().astype(np.float64)
        total = frequencies.sum()
        if total <= 0:
            raise ValueError("dataset has no query traffic to replay")
        self._traffic = frequencies / total

    def run(self, baseline_ranker, treatment_ranker, start_date: str = "2022/10/01") -> ABTestResult:
        """Run the bucket test and return per-day metrics for both buckets."""
        rng = np.random.default_rng(self.config.seed)
        days = [date_label(start_date, offset) for offset in range(self.config.num_days)]
        baseline_days: List[BucketDailyMetrics] = []
        treatment_days: List[BucketDailyMetrics] = []
        for _ in range(self.config.num_days):
            query_sample = rng.choice(
                self.dataset.num_queries, size=self.config.sessions_per_day, p=self._traffic
            )
            # Users are split into two buckets; both see the same query mix in
            # expectation but are served by different rankers.
            assignment = rng.random(len(query_sample)) < 0.5
            baseline_days.append(
                self._run_bucket(baseline_ranker, query_sample[assignment], rng)
            )
            treatment_days.append(
                self._run_bucket(treatment_ranker, query_sample[~assignment], rng)
            )
        return ABTestResult(days=days, baseline=baseline_days, treatment=treatment_days)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _run_bucket(self, ranker, query_ids: np.ndarray, rng: np.random.Generator) -> BucketDailyMetrics:
        metrics = BucketDailyMetrics()
        top_k = self.config.top_k
        for query_id in query_ids:
            ranked = np.asarray(ranker.rank(int(query_id), top_k), dtype=np.int64)
            simulate_impressions(self.oracle, int(query_id), ranked[:top_k],
                                 self.config.position_bias, rng, metrics)
        return metrics
