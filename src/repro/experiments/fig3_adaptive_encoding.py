"""Fig. 3 — ablation of the adaptive (dual head/tail) encoding.

GARCIA-Share replaces the two individual GNN encoders with a single shared
encoder over the full graph.  The paper finds GARCIA ≥ GARCIA-Share, with a
clear margin on two of the three industrial windows, on both the tail slice
and overall.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.data.industrial import INDUSTRIAL_DATASETS
from repro.experiments.common import ExperimentResult, ExperimentSettings, scenario_for, train_and_evaluate


def run(settings: Optional[ExperimentSettings] = None,
        datasets: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Compare GARCIA against GARCIA-Share on tail and overall AUC."""
    settings = settings if settings is not None else ExperimentSettings()
    dataset_names = list(datasets) if datasets is not None else list(INDUSTRIAL_DATASETS)
    result = ExperimentResult(
        experiment_id="fig3",
        title="Fig. 3: adaptive encoding ablation (GARCIA vs GARCIA-Share)",
    )
    for dataset_name in dataset_names:
        scenario = scenario_for(dataset_name, settings)
        for variant, config in (
            ("GARCIA-Share", settings.garcia_config(share_encoder=True)),
            ("GARCIA", settings.garcia_config(share_encoder=False)),
        ):
            _, report = train_and_evaluate("GARCIA", scenario, settings, garcia_config=config)
            result.rows.append(
                {
                    "dataset": dataset_name,
                    "variant": variant,
                    "tail_auc": report.tail.auc,
                    "overall_auc": report.overall.auc,
                }
            )
    return result


def check(result: ExperimentResult) -> List[str]:
    """Shape gates of a default run: one message per failed gate."""
    failures = []
    if len(result.rows) != 3 * 2:
        failures.append(f"expected 6 (window, variant) rows, got {len(result.rows)}")
    if not all(np.isfinite(row["overall_auc"]) for row in result.rows):
        failures.append("an overall AUC is not finite")
    return failures
