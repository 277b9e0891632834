"""Fig. 7 — impact of the number of intention-tree levels H.

The paper varies H from 1 to 5 and includes GARCIA without any intention
information as a reference line.  The finding to reproduce: using the
intention tree beats the no-intention reference, and deeper trees generally
help (with small fluctuations attributed to taxonomy noise).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.eval.evaluator import Evaluator
from repro.experiments.common import ExperimentResult, ExperimentSettings, build_model, scenario_for, train_model


def run(settings: Optional[ExperimentSettings] = None,
        levels: Sequence[int] = (1, 2, 3, 4, 5),
        dataset: str = "Sep. A") -> ExperimentResult:
    """Sweep the intention-tree depth H plus a no-intention reference run."""
    settings = settings if settings is not None else ExperimentSettings()
    scenario = scenario_for(dataset, settings)
    evaluator = Evaluator()
    result = ExperimentResult(
        experiment_id="fig7",
        title="Fig. 7: impact of the number of intention-tree levels H",
    )

    # Reference: GARCIA without the intention granularity at all (red line).
    reference_config = settings.garcia_config().without("ig")
    model = build_model("GARCIA", scenario, settings, garcia_config=reference_config)
    train_model(model, scenario, settings)
    reference = evaluator.evaluate(model, scenario.splits.test, scenario.head_tail,
                                   dataset_name=dataset, model_name="no-intention")
    result.rows.append(
        {
            "dataset": dataset,
            "H": "none",
            "tail_auc": reference.tail.auc,
            "overall_auc": reference.overall.auc,
        }
    )

    max_depth = int(scenario.forest.levels.max())
    for level in levels:
        effective = min(int(level), max_depth)
        config = settings.garcia_config(intention_levels=effective)
        model = build_model("GARCIA", scenario, settings, garcia_config=config)
        train_model(model, scenario, settings)
        report = evaluator.evaluate(model, scenario.splits.test, scenario.head_tail,
                                    dataset_name=dataset, model_name=f"H={level}")
        result.rows.append(
            {
                "dataset": dataset,
                "H": int(level),
                "tail_auc": report.tail.auc,
                "overall_auc": report.overall.auc,
            }
        )
    return result


def check(result: ExperimentResult) -> List[str]:
    """Shape gates of a default run: one message per failed gate."""
    failures = []
    depths = [row["H"] for row in result.rows]
    if depths != ["none", 1, 2, 3, 4, 5]:
        failures.append(f"H column {depths} is not ['none', 1, 2, 3, 4, 5]")
    if not all(np.isfinite(row["overall_auc"]) for row in result.rows):
        failures.append("an overall AUC is not finite")
    return failures
