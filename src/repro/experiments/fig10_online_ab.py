"""Fig. 10 — online A/B test: relative CTR and Valid-CTR improvement.

The paper's bucket test compares GARCIA against the deployed baseline (a
KGAT-augmented Wide&Deep model) over seven days, reporting the daily relative
improvement of CTR and Valid CTR; aggregated, GARCIA gains +0.79 pp CTR and
+0.60 pp Valid CTR.  Both arms of that deployment are served by the inner
product of the exported embeddings (Sec. V-F.1), and so are both arms here:
the reproduction trains both models offline, deploys each behind its own
exact serving gateway, and replays day-partitioned session streams through
the serving stack (:class:`~repro.serving.abtest.OnlineABExperiment`).
Sessions hash deterministically into a 50/50 split, each day's requests are
submitted as one open-loop burst through ``search_async``, and the click
oracle scores every returned top-K list.

The notes also give each arm's expected CTR
(:func:`~repro.eval.ab_test.expected_ctr`) under two scorers: the inner
product the gateway serves and the model's own Eq. 12 click head
(:meth:`~repro.models.base.RankingModel.rank`), which no deployment serves.
The gap between the two gains is how much more the baseline loses than
GARCIA when its head is dropped.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.eval.ab_test import expected_ctr
from repro.experiments.common import ExperimentResult, ExperimentSettings, build_model, scenario_for, train_model
from repro.serving.abtest import ABExperimentConfig, BucketRouter, OnlineABExperiment
from repro.serving.gateway import deploy_gateway


def run(
    settings: Optional[ExperimentSettings] = None,
    dataset: str = "Sep. A",
    baseline_model: str = "KGAT",
    num_days: int = 7,
    sessions_per_day: int = 500,
    top_k: int = 5,
) -> ExperimentResult:
    """Simulated seven-day bucket test of GARCIA vs the deployed baseline."""
    settings = settings if settings is not None else ExperimentSettings()
    # Checked before either model trains: a bad config costs nothing.
    config = ABExperimentConfig(num_days=num_days, sessions_per_day=sessions_per_day,
                                top_k=top_k, seed=settings.seed)
    scenario = scenario_for(dataset, settings)
    models = {"control": build_model(baseline_model, scenario, settings)}
    train_model(models["control"], scenario, settings)
    models["treatment"] = build_model("GARCIA", scenario, settings)
    train_model(models["treatment"], scenario, settings)

    queries = list(range(scenario.dataset.num_queries))
    traffic = scenario.dataset.query_frequencies()

    def arm_ctr(ranked) -> float:
        return 100.0 * expected_ctr(scenario.oracle, np.asarray(ranked), traffic,
                                    config.position_bias)

    arms = {}
    try:
        for bucket, model in models.items():
            arms[bucket] = deploy_gateway(model, index="exact", top_k=top_k, cache_capacity=0)
        router = BucketRouter({"control": 0.5, "treatment": 0.5}, arms=arms, salt=settings.seed)
        report = OnlineABExperiment(scenario.dataset, scenario.oracle, router, config).run()
        served = {bucket: arm_ctr(gateway.rank_batch(queries, top_k))
                  for bucket, gateway in arms.items()}
    finally:
        for gateway in arms.values():
            gateway.close()
    head = {bucket: arm_ctr([model.rank(query_id, top_k) for query_id in queries])
            for bucket, model in models.items()}

    outcome = report.ab_result()
    served_gain = served["treatment"] - served["control"]
    head_gain = head["treatment"] - head["control"]
    result = ExperimentResult(
        experiment_id="fig10",
        title=("Fig. 10: online A/B test through the serving gateway — "
               "relative CTR and Valid-CTR improvement per day"),
        notes=(
            f"absolute CTR gain: {outcome.absolute_ctr_gain():.3f} pp, "
            f"absolute Valid-CTR gain: {outcome.absolute_valid_ctr_gain():.3f} pp "
            f"(baseline bucket: {baseline_model}, split 50/50, both arms exact inner product); "
            f"expected CTR by inner product: {baseline_model} {served['control']:.3f} % / "
            f"GARCIA {served['treatment']:.3f} % (gain {served_gain:+.3f} pp), "
            f"by click head: {baseline_model} {head['control']:.3f} % / "
            f"GARCIA {head['treatment']:.3f} % (gain {head_gain:+.3f} pp); "
            f"dropping the click head moves {baseline_model} by "
            f"{served['control'] - head['control']:+.3f} pp and GARCIA by "
            f"{served['treatment'] - head['treatment']:+.3f} pp, so the served gain is the "
            f"head gain plus {served_gain - head_gain:+.3f} pp of {baseline_model} "
            f"losing more than GARCIA"
        ),
    )
    result.rows.extend(report.joint_rows())
    result.series["ctr_improvement_pct"] = report.ctr_improvement()
    result.series["valid_ctr_improvement_pct"] = report.valid_ctr_improvement()
    result.series["sessions_shed"] = [float(report.shed[bucket]) for bucket in report.buckets]
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
    if any(result.series["sessions_shed"]):
        # Admission is unbounded, so a shed session means the CTR was
        # measured on a different traffic mix than the seed drew.
        failures.append(f"sessions were shed: {result.series['sessions_shed']}")
    return failures
