"""Gateway-backed online A/B experimentation (Fig. 10 at serving scale).

The paper's headline production evidence is a week-long bucket test: a
fraction of live traffic is routed to GARCIA's bucket, the rest stays on
the deployed baseline, and the daily relative CTR / Valid-CTR improvement
is reported (+0.79 pp CTR aggregated).  This module is the one simulator
of that test (Fig. 10 runs it, ``experiments/fig10_online_ab.py``), and it
reproduces the *deployment shape*: buckets are real serving configurations
behind the gateway tier, and traffic is routed by deterministic session-id
hashing.

Three pieces:

* :class:`BucketRouter` — config-driven traffic splits (e.g. 90/10
  control/treatment) with a deterministic, salt-mixed splitmix64 hash of
  the session/user id, so the same id lands in the same bucket on every
  rerun, every process, and every replay of the log.  Each bucket routes
  to its own *arm* — any gateway-like object (single-process, sharded, a
  replicated fleet behind a :class:`repro.serving.fleet.FleetRouter`, or
  one shared gateway for an A/A test; arms may serve different models or
  the same model under different index/quantization/replication
  configurations).
* :class:`OnlineABExperiment` — replays day-partitioned session streams
  through ``search_async``, each day as one open-loop burst, and scores
  the returned top-K list against the click oracle with a per-session
  seeded RNG — so the CTR outcome is independent of async completion
  order and reproducible from one seed.  Clicks accumulate through
  :func:`repro.eval.ab_test.simulate_impressions`, whose expectation is
  :func:`repro.eval.ab_test.expected_ctr`.
* :class:`GatewayABReport` — the outcome: per-day CTR / Valid-CTR
  improvement (via :class:`repro.eval.ab_test.ABTestResult`) plus the
  sessions routed to, and shed by, each bucket.

Sessions shed by an arm's own admission control (``max_queue``) or
deadline (``default_deadline_s``) produce *no impressions*: an
under-provisioned bucket loses quality, and ``shed`` says how much traffic
it lost.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.eval.ab_test import (
    ABTestResult,
    BucketDailyMetrics,
    date_label,
    simulate_impressions,
)
from repro.serving.gateway import DeadlineExceededError, OverloadError
from repro.serving.obs.ids import ids_to_u64, key_to_u64, mix64, mix64_int

#: Position-bias discounts applied per top-K slot (the one copy: Fig. 10's
#: replay and its expected-CTR notes both read it through the config).
DEFAULT_POSITION_BIAS: Tuple[float, ...] = (1.0, 0.75, 0.55, 0.4, 0.3)

_SPLIT_TOLERANCE = 1e-6


class BucketRouter:
    """Deterministic session-id hashing into config-driven traffic buckets.

    ``splits`` maps bucket name to its traffic fraction (must sum to 1);
    ``arms`` (optional) maps each bucket to the gateway serving it — two
    buckets may share one gateway object (an A/A test), or each may own a
    different model / index / quantization configuration.  ``salt``
    decorrelates experiments: the same user population re-buckets
    independently under a new salt.
    """

    def __init__(self, splits: Mapping[str, float],
                 arms: Optional[Mapping[str, object]] = None,
                 salt=0) -> None:
        if not splits:
            raise ValueError("splits must name at least one bucket")
        fractions = np.asarray(list(splits.values()), dtype=np.float64)
        if np.any(fractions <= 0):
            raise ValueError("every bucket's traffic fraction must be positive")
        if abs(float(fractions.sum()) - 1.0) > _SPLIT_TOLERANCE:
            raise ValueError(
                f"traffic fractions must sum to 1.0, got {float(fractions.sum()):.6f}"
            )
        self.buckets: Tuple[str, ...] = tuple(splits)
        self.splits: Dict[str, float] = {
            name: float(fraction) for name, fraction in splits.items()
        }
        # Upper cumulative boundaries; the last is forced to 1.0 so no
        # float-sum gap can leave a fraction unassigned.
        self._boundaries = np.cumsum(fractions)
        self._boundaries[-1] = 1.0
        # Finalise the raw salt once; per-id hashing is then one shared
        # mix64 (identical to the fleet's rendezvous primitive).
        self._salt = mix64_int(key_to_u64(salt))
        if arms is not None and set(arms) != set(self.buckets):
            raise ValueError(
                f"arms must be keyed exactly by the split buckets "
                f"{sorted(self.buckets)}, got {sorted(arms)}"
            )
        self.arms: Optional[Dict[str, object]] = dict(arms) if arms else None

    def fractions(self, session_ids: Sequence) -> np.ndarray:
        """Deterministic uniform-[0, 1) hash fraction per session id."""
        hashed = mix64(ids_to_u64(session_ids), self._salt)
        return hashed.astype(np.float64) / float(2**64)

    def assign_indices(self, session_ids: Sequence) -> np.ndarray:
        """Bucket *index* (into :attr:`buckets`) per session id."""
        indices = np.searchsorted(self._boundaries, self.fractions(session_ids),
                                  side="right")
        return np.minimum(indices, len(self.buckets) - 1)

    def assign_many(self, session_ids: Sequence) -> List[str]:
        """Bucket name per session id (vectorised hashing)."""
        return [self.buckets[index] for index in self.assign_indices(session_ids)]

    def assign(self, session_id) -> str:
        """The bucket one session id deterministically lands in."""
        return self.buckets[int(self.assign_indices([session_id])[0])]

    def arm(self, bucket: str):
        """The gateway serving one bucket (requires ``arms``)."""
        if self.arms is None:
            raise ValueError("this router was built without arms to route to")
        try:
            return self.arms[bucket]
        except KeyError:
            raise KeyError(
                f"unknown bucket {bucket!r} (known: {sorted(self.buckets)})"
            ) from None

    def route(self, session_id) -> Tuple[str, object]:
        """``(bucket, gateway)`` for one session id."""
        bucket = self.assign(session_id)
        return bucket, self.arm(bucket)

    def unique_arms(self) -> List[object]:
        """Distinct gateway objects across buckets (shared arms deduped)."""
        if self.arms is None:
            return []
        seen: Dict[int, object] = {}
        for bucket in self.buckets:
            gateway = self.arms[bucket]
            seen.setdefault(id(gateway), gateway)
        return list(seen.values())


@dataclass
class ABExperimentConfig:
    """Parameters of one gateway-backed bucket test."""

    num_days: int = 7
    sessions_per_day: int = 5_000
    top_k: int = 5
    position_bias: Sequence[float] = DEFAULT_POSITION_BIAS
    seed: int = 0
    control: str = "control"
    treatment: str = "treatment"
    start_date: str = "2022/10/01"

    def __post_init__(self) -> None:
        if self.num_days <= 0 or self.sessions_per_day <= 0 or self.top_k <= 0:
            raise ValueError("num_days, sessions_per_day and top_k must be positive")
        if len(self.position_bias) < self.top_k:
            raise ValueError("position_bias must cover every slot of the top-K list")


@dataclass
class GatewayABReport:
    """CTR outcome of one bucket test, with the traffic each bucket saw."""

    days: List[str]
    buckets: Tuple[str, ...]
    control: str
    treatment: str
    #: Per-bucket, per-day click counters (index-aligned with ``days``).
    daily: Dict[str, List[BucketDailyMetrics]]
    #: Sessions routed to each bucket (traffic-split ground truth).
    sessions: Dict[str, int]
    #: Sessions shed before scoring (overload + deadline), per bucket.
    shed: Dict[str, int]

    def ab_result(self) -> ABTestResult:
        """The control/treatment slice in the Fig. 10 result shape."""
        return ABTestResult(
            days=list(self.days),
            baseline=list(self.daily[self.control]),
            treatment=list(self.daily[self.treatment]),
        )

    def ctr_improvement(self) -> List[float]:
        return self.ab_result().ctr_improvement()

    def valid_ctr_improvement(self) -> List[float]:
        return self.ab_result().valid_ctr_improvement()

    def joint_rows(self) -> List[Dict[str, object]]:
        """One row per day: both buckets' CTR plus the relative deltas."""
        result = self.ab_result()
        ctr_gains = result.ctr_improvement()
        valid_gains = result.valid_ctr_improvement()
        rows = []
        for index, day in enumerate(self.days):
            control = self.daily[self.control][index]
            treatment = self.daily[self.treatment][index]
            rows.append({
                "day": day,
                f"{self.control}_ctr": round(control.ctr, 4),
                f"{self.treatment}_ctr": round(treatment.ctr, 4),
                "ctr_improvement_pct": round(ctr_gains[index], 3),
                "valid_ctr_improvement_pct": round(valid_gains[index], 3),
                f"{self.control}_impressions": control.impressions,
                f"{self.treatment}_impressions": treatment.impressions,
            })
        return rows


class OnlineABExperiment:
    """Replay bucketed session traffic through the gateway tier, open-loop.

    ``dataset`` supplies the query-traffic distribution
    (``query_frequencies``), ``oracle`` decides clicks, and ``router`` maps
    hashed session ids to the gateways serving each bucket.  Each day's
    sessions are submitted together through ``search_async`` (one burst:
    nothing waits on a completion before the next submit), and one run
    yields the Fig. 10 CTR series.

    Determinism: bucket assignment is a pure hash of (salt, session id);
    query sampling derives from ``config.seed``; and each session's click
    draw is seeded by ``(seed, day, session id)`` — the CTR outcome does
    not depend on the order async completions land in.  With unbounded
    admission and no deadline on the arms the whole report is reproducible
    from one seed; with shedding enabled, *which* sessions are shed is
    timing-dependent.
    """

    def __init__(self, dataset, oracle, router: BucketRouter,
                 config: Optional[ABExperimentConfig] = None) -> None:
        config = config if config is not None else ABExperimentConfig()
        if router.arms is None:
            raise ValueError("OnlineABExperiment needs a router with arms "
                             "(bucket -> gateway)")
        for role in (config.control, config.treatment):
            if role not in router.buckets:
                raise ValueError(
                    f"config names bucket {role!r} but the router only splits "
                    f"{sorted(router.buckets)}"
                )
        self.dataset = dataset
        self.oracle = oracle
        self.router = router
        self.config = config
        frequencies = dataset.query_frequencies().astype(np.float64)
        total = frequencies.sum()
        if total <= 0:
            raise ValueError("dataset has no query traffic to replay")
        self._traffic = frequencies / total

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #
    def run(self, start_date: Optional[str] = None) -> GatewayABReport:
        """Run every day's replay and assemble the report."""
        config = self.config
        start = config.start_date if start_date is None else start_date
        days = [date_label(start, offset) for offset in range(config.num_days)]
        rng = np.random.default_rng(config.seed)
        daily: Dict[str, List[BucketDailyMetrics]] = {
            bucket: [] for bucket in self.router.buckets
        }
        sessions: Dict[str, int] = {bucket: 0 for bucket in self.router.buckets}
        shed: Dict[str, int] = {bucket: 0 for bucket in self.router.buckets}
        next_session_id = 0
        for day_index in range(config.num_days):
            query_ids = rng.choice(
                len(self._traffic), size=config.sessions_per_day, p=self._traffic
            )
            session_ids = np.arange(
                next_session_id, next_session_id + config.sessions_per_day,
                dtype=np.int64,
            )
            next_session_id += config.sessions_per_day
            bucket_indices = self.router.assign_indices(session_ids)
            metrics = {bucket: BucketDailyMetrics() for bucket in self.router.buckets}
            day_shed = {bucket: 0 for bucket in self.router.buckets}
            asyncio.run(
                self._replay_day(day_index, session_ids, query_ids,
                                 bucket_indices, metrics, day_shed)
            )
            for position, bucket in enumerate(self.router.buckets):
                daily[bucket].append(metrics[bucket])
                sessions[bucket] += int((bucket_indices == position).sum())
                shed[bucket] += day_shed[bucket]
        return GatewayABReport(
            days=days,
            buckets=self.router.buckets,
            control=config.control,
            treatment=config.treatment,
            daily=daily,
            sessions=sessions,
            shed=shed,
        )

    async def _replay_day(self, day_index: int, session_ids: np.ndarray,
                          query_ids: np.ndarray, bucket_indices: np.ndarray,
                          metrics: Dict[str, BucketDailyMetrics],
                          day_shed: Dict[str, int]) -> None:
        """One day's burst replay on a fresh event loop."""
        config = self.config
        buckets = self.router.buckets

        async def one_session(session_id: int, query_id: int, bucket: str) -> None:
            gateway = self.router.arm(bucket)
            try:
                ids, _ = await gateway.search_async(int(query_id), k=config.top_k)
            except (OverloadError, DeadlineExceededError):
                day_shed[bucket] += 1
                return
            click_rng = np.random.default_rng(
                (config.seed, day_index, int(session_id))
            )
            simulate_impressions(
                self.oracle, int(query_id), np.asarray(ids)[: config.top_k],
                config.position_bias, click_rng, metrics[bucket],
            )

        try:
            await asyncio.gather(*(
                one_session(session_id, query_id, buckets[bucket_index])
                for session_id, query_id, bucket_index
                in zip(session_ids, query_ids, bucket_indices)
            ))
        finally:
            # Each day runs under its own asyncio.run loop; stop every arm's
            # drive task — even when a session errored — so the scheduler is
            # idle (and rebindable) at loop exit instead of pinned to a loop
            # that is about to close.
            for gateway in self.router.unique_arms():
                await gateway.stop_async()


def close_arms(router: BucketRouter) -> None:
    """Close every distinct arm gateway behind a router (idempotent helper)."""
    for gateway in router.unique_arms():
        gateway.close()


__all__ = [
    "ABExperimentConfig",
    "BucketRouter",
    "GatewayABReport",
    "OnlineABExperiment",
    "close_arms",
    "DEFAULT_POSITION_BIAS",
]
