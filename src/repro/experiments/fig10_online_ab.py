"""Fig. 10 — online A/B test: relative CTR and Valid-CTR improvement.

The paper's bucket test compares GARCIA against the deployed baseline (a
KGAT-augmented Wide&Deep model) over seven days, reporting the daily relative
improvement of CTR and Valid CTR; aggregated, GARCIA gains +0.79 pp CTR and
+0.60 pp Valid CTR.  The reproduction trains both models offline and replays
simulated user traffic through the ground-truth click oracle, with two
backends that rank with different scorers:

* ``backend="pipeline"`` (the original replay) ranks with each model's own
  Eq. 12 click head (:meth:`~repro.models.base.RankingModel.rank`, the whole
  catalogue scored by ``model.predict``) and drives the offline
  :class:`~repro.eval.ab_test.OnlineABTest` simulator;
* ``backend="gateway"`` deploys each bucket behind its own serving gateway,
  which ranks by the inner product of the exported embeddings (Sec. V-F.1),
  and replays day-partitioned session streams *through the serving stack*
  (:class:`~repro.serving.abtest.OnlineABExperiment`): sessions are hashed
  into buckets deterministically, requests flow open-loop through
  ``search_async`` tagged with their bucket, and the result reports the CTR
  deltas alongside per-bucket serving cost (QPS, p99, shed sessions) from
  the same run.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.eval.ab_test import ABTestConfig, OnlineABTest
from repro.experiments.common import ExperimentResult, ExperimentSettings, build_model, scenario_for, train_model


def run(
    settings: Optional[ExperimentSettings] = None,
    dataset: str = "Sep. A",
    baseline_model: str = "KGAT",
    num_days: int = 7,
    sessions_per_day: int = 500,
    top_k: int = 5,
    backend: str = "pipeline",
    treatment_fraction: float = 0.5,
    rate_qps: Optional[float] = None,
    control_index: str = "exact",
    treatment_index: str = "exact",
) -> ExperimentResult:
    """Simulated seven-day bucket test of GARCIA vs the deployed baseline.

    With ``backend="gateway"`` the buckets are real gateway deployments:
    ``treatment_fraction`` sets the traffic split (the paper buckets a small
    slice of live traffic), ``control_index`` / ``treatment_index`` pick
    each arm's retrieval configuration, and ``rate_qps`` paces the open-loop
    Poisson arrivals (``None`` submits each day as one burst).
    """
    if backend not in ("pipeline", "gateway"):
        raise ValueError(f"unknown backend {backend!r} (pipeline or gateway)")
    settings = settings if settings is not None else ExperimentSettings()
    scenario = scenario_for(dataset, settings)

    baseline = build_model(baseline_model, scenario, settings)
    train_model(baseline, scenario, settings)
    garcia = build_model("GARCIA", scenario, settings)
    train_model(garcia, scenario, settings)

    if backend == "gateway":
        return _run_gateway(
            scenario, baseline, garcia, baseline_model, num_days,
            sessions_per_day, top_k, settings, treatment_fraction, rate_qps,
            control_index, treatment_index,
        )

    ab_config = ABTestConfig(num_days=num_days, sessions_per_day=sessions_per_day,
                             top_k=top_k, seed=settings.seed)
    ab_test = OnlineABTest(scenario.dataset, scenario.oracle, config=ab_config)
    outcome = ab_test.run(baseline, garcia, start_date="2022/10/01")

    result = ExperimentResult(
        experiment_id="fig10",
        title="Fig. 10: online A/B test — relative CTR and Valid-CTR improvement per day",
        notes=(
            f"absolute CTR gain: {outcome.absolute_ctr_gain():.3f} pp, "
            f"absolute Valid-CTR gain: {outcome.absolute_valid_ctr_gain():.3f} pp "
            f"(baseline bucket: {baseline_model})"
        ),
    )
    result.rows.extend(outcome.as_rows())
    result.series["ctr_improvement_pct"] = outcome.ctr_improvement()
    result.series["valid_ctr_improvement_pct"] = outcome.valid_ctr_improvement()
    return result


def _run_gateway(scenario, baseline, garcia, baseline_model: str, num_days: int,
                 sessions_per_day: int, top_k: int, settings,
                 treatment_fraction: float, rate_qps: Optional[float],
                 control_index: str, treatment_index: str) -> ExperimentResult:
    """The gateway-backed bucket test: CTR and serving cost from one run."""
    from repro.serving.abtest import (
        ABExperimentConfig,
        BucketRouter,
        OnlineABExperiment,
    )
    from repro.serving.gateway import deploy_gateway

    if not 0.0 < treatment_fraction < 1.0:
        raise ValueError("treatment_fraction must be in (0, 1)")
    # Validate the experiment parameters BEFORE deploying any gateway, so a
    # bad config cannot leak live schedulers/subscriptions.
    config = ABExperimentConfig(
        num_days=num_days, sessions_per_day=sessions_per_day, top_k=top_k,
        rate_qps=rate_qps, seed=settings.seed,
    )
    arms = {}
    try:
        arms["control"] = deploy_gateway(baseline, index=control_index,
                                         top_k=top_k, cache_capacity=0)
        arms["treatment"] = deploy_gateway(garcia, index=treatment_index,
                                           top_k=top_k, cache_capacity=0)
        router = BucketRouter(
            {"control": 1.0 - treatment_fraction,
             "treatment": treatment_fraction},
            arms=arms,
            salt=settings.seed,
        )
        experiment = OnlineABExperiment(scenario.dataset, scenario.oracle,
                                        router, config)
        report = experiment.run(start_date="2022/10/01")
    finally:
        for gateway in arms.values():
            gateway.close()

    outcome = report.ab_result()
    cost = {row["bucket"]: row for row in report.cost_rows()}
    result = ExperimentResult(
        experiment_id="fig10_gateway",
        title=("Fig. 10 (gateway backend): bucketed traffic through the "
               "serving stack — CTR deltas and per-bucket cost per day"),
        notes=(
            f"absolute CTR gain: {outcome.absolute_ctr_gain():.3f} pp, "
            f"absolute Valid-CTR gain: {outcome.absolute_valid_ctr_gain():.3f} pp "
            f"(baseline bucket: {baseline_model}, "
            f"split {1.0 - treatment_fraction:.0%}/{treatment_fraction:.0%}); "
            f"serving cost: control {cost['control'].get('qps', 0.0):,.0f} QPS "
            f"p99 {cost['control'].get('p99_ms', float('nan')):.2f} ms / "
            f"treatment {cost['treatment'].get('qps', 0.0):,.0f} QPS "
            f"p99 {cost['treatment'].get('p99_ms', float('nan')):.2f} ms, "
            f"{int(report.summary()['sessions_shed_total'])} sessions shed"
        ),
    )
    result.rows.extend(report.joint_rows())
    result.series["ctr_improvement_pct"] = report.ctr_improvement()
    result.series["valid_ctr_improvement_pct"] = report.valid_ctr_improvement()
    result.series["control_p99_ms"] = [cost["control"].get("p99_ms", float("nan"))]
    result.series["treatment_p99_ms"] = [cost["treatment"].get("p99_ms", float("nan"))]
    return result


def check(result: ExperimentResult) -> List[str]:
    """Shape gates of a default run: one message per failed gate.

    Structural only: at tiny training scale the day-level sign fluctuates
    with the training schedule and seed.
    """
    failures = []
    improvements = result.series["ctr_improvement_pct"]
    valid = result.series["valid_ctr_improvement_pct"]
    if len(result.rows) != 7:
        failures.append(f"expected 7 daily rows, got {len(result.rows)}")
    if not all(np.isfinite(value) for value in improvements + valid):
        failures.append("an improvement is not finite (a bucket saw no traffic)")
    if not all(abs(value) < 100.0 for value in improvements):
        failures.append("a daily CTR improvement is out of the sane range")
    return failures
