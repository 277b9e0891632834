"""Fig. 4 — ablation of the multi-granularity contrastive learning module.

Variants compared on the industrial datasets (head / tail / overall AUC):

* ``GARCIA w.o. ALL``  — no contrastive pre-training at all,
* ``GARCIA w.o. IG&SE`` — only KTCL active,
* ``GARCIA w.o. IG``   — KTCL + SECL,
* ``GARCIA w.o. SE``   — KTCL + IGCL,
* ``GARCIA``           — the full model.

The paper's finding: removing everything hurts the most, and every individual
granularity contributes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.data.industrial import INDUSTRIAL_DATASETS
from repro.experiments.common import ExperimentResult, ExperimentSettings, scenario_for, train_and_evaluate
from repro.models.garcia.config import GarciaConfig


def variant_configs(settings: ExperimentSettings) -> List[Tuple[str, GarciaConfig]]:
    """The five ablation variants of Fig. 4, in plotting order."""
    base = settings.garcia_config()
    return [
        ("GARCIA w.o. ALL", base.without("all")),
        ("GARCIA w.o. IG&SE", base.without("ig", "se")),
        ("GARCIA w.o. IG", base.without("ig")),
        ("GARCIA w.o. SE", base.without("se")),
        ("GARCIA", base),
    ]


def run(settings: Optional[ExperimentSettings] = None,
        datasets: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Head / tail / overall AUC of every contrastive-granularity ablation."""
    settings = settings if settings is not None else ExperimentSettings()
    dataset_names = list(datasets) if datasets is not None else list(INDUSTRIAL_DATASETS)
    result = ExperimentResult(
        experiment_id="fig4",
        title="Fig. 4: multi-granularity contrastive learning ablation",
    )
    for dataset_name in dataset_names:
        scenario = scenario_for(dataset_name, settings)
        for variant_name, config in variant_configs(settings):
            _, report = train_and_evaluate("GARCIA", scenario, settings, garcia_config=config)
            result.rows.append(
                {
                    "dataset": dataset_name,
                    "variant": variant_name,
                    "tail_auc": report.tail.auc,
                    "head_auc": report.head.auc,
                    "overall_auc": report.overall.auc,
                }
            )
    return result


def check(result: ExperimentResult) -> List[str]:
    """Shape gates of a default run: one message per failed gate."""
    failures = []
    if len(result.rows) != 3 * 5:
        failures.append(f"expected 15 (window, variant) rows, got {len(result.rows)}")
    datasets = {row["dataset"] for row in result.rows}
    full_better = 0
    for dataset in datasets:
        rows = {row["variant"]: row for row in result.rows if row["dataset"] == dataset}
        if rows["GARCIA"]["overall_auc"] >= rows["GARCIA w.o. ALL"]["overall_auc"] - 0.02:
            full_better += 1
    if full_better < 2:
        failures.append(f"GARCIA >= w.o. ALL - 0.02 on only {full_better} windows")
    return failures
