"""Click accounting for the simulated online A/B (bucket) test.

The paper deploys GARCIA in the Alipay service-search scenario and runs a
seven-day bucket test against the production baseline, reporting the relative
improvement of CTR and Valid CTR per day (Fig. 10).  This module holds the
*measurement*: the ground-truth :class:`~repro.data.synthetic.ClickOracle`
turns a session's top-K list into impressions, clicks and in-service
conversions (:func:`simulate_impressions`), gives any ranking's expected CTR
without sampling (:func:`expected_ctr`), and :class:`ABTestResult` holds the
per-day counters of both buckets.  The one simulator that replays traffic is
:class:`repro.serving.abtest.OnlineABExperiment`, which routes every session
through a serving gateway, as the paper's deployment serves it.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.data.synthetic import ClickOracle


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
    click first.  The counters accumulate into ``metrics``; the gateway
    replay (:class:`repro.serving.abtest.OnlineABExperiment`) calls this once
    per served session, and :func:`expected_ctr` is its expectation.
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


def expected_ctr(
    oracle: ClickOracle,
    ranked: np.ndarray,
    traffic: np.ndarray,
    position_bias: Sequence[float],
) -> float:
    """Expected CTR of a ranking under the click oracle, with no sampling.

    ``ranked`` is a ``(num_queries, K)`` matrix whose row ``q`` is the list
    shown for query ``q``; ``traffic`` weighs the queries (normalised here,
    so raw query frequencies, or frequencies times a tail mask, both work).
    The result is ``sum_q traffic[q] * sum_slot p(q, s_slot) * bias[slot] / K``:
    the click rate that :func:`simulate_impressions` samples, in expectation.
    """
    shown = np.asarray(ranked, dtype=np.int64)
    weights = np.asarray(traffic, dtype=np.float64)
    if len(position_bias) < shown.shape[1]:
        raise ValueError("position_bias must cover every slot of the top-K list")
    query_column = np.repeat(np.arange(shown.shape[0]), shown.shape[1])
    clicks_p = oracle.click_probability(query_column, shown.reshape(-1)).reshape(shown.shape)
    per_query = clicks_p @ np.asarray(position_bias[: shown.shape[1]], dtype=np.float64)
    return float(weights @ per_query / (weights.sum() * shown.shape[1]))


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
