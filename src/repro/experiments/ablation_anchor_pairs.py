"""Extra ablation: anchor-pair mining criteria.

Not a figure in the paper, but the mining criteria (semantic relevance +
shared correlations + exposure) are a design choice worth ablating: this
driver compares KTCL coverage and the resulting tail AUC as the
shared-correlation requirement is tightened.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.eval.evaluator import Evaluator
from repro.experiments.common import ExperimentResult, ExperimentSettings, build_model, scenario_for, train_model
from repro.models.garcia.anchor_pairs import coverage, mine_anchor_pairs


def run(settings: Optional[ExperimentSettings] = None,
        thresholds: Sequence[int] = (0, 1, 2, 3)) -> ExperimentResult:
    """Mine anchor pairs on Sep. A and train GARCIA once per threshold."""
    settings = settings if settings is not None else ExperimentSettings()
    scenario = scenario_for("Sep. A", settings)
    evaluator = Evaluator()
    result = ExperimentResult(
        experiment_id="ablation_anchor_pairs",
        title="Ablation: anchor-pair mining shared-attribute threshold",
    )
    for min_shared in thresholds:
        pairs = mine_anchor_pairs(
            scenario.dataset, scenario.head_tail, scenario.forest,
            min_shared_attributes=min_shared,
        )
        config = settings.garcia_config(anchor_min_shared_attributes=max(min_shared, 0))
        model = build_model("GARCIA", scenario, settings, garcia_config=config)
        train_model(model, scenario, settings)
        report = evaluator.evaluate(model, scenario.splits.test, scenario.head_tail)
        result.rows.append(
            {
                "min_shared_attributes": min_shared,
                "anchor_coverage": round(coverage(pairs, scenario.head_tail), 4),
                "tail_auc": report.tail.auc,
                "overall_auc": report.overall.auc,
            }
        )
    return result


def check(result: ExperimentResult) -> List[str]:
    """Shape gates of a default run: one message per failed gate."""
    failures = []
    coverages = [row["anchor_coverage"] for row in result.rows]
    # Stricter sharing requirements can only reduce coverage.
    if not all(a >= b for a, b in zip(coverages, coverages[1:])):
        failures.append(f"anchor coverage grows with the threshold: {coverages}")
    if not all(np.isfinite(row["overall_auc"]) for row in result.rows):
        failures.append("an overall AUC is not finite")
    return failures
