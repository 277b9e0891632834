"""Table III — AUC comparison of all models on every dataset.

For each of the six datasets the paper reports head / tail / overall AUC of
Wide&Deep, LightGCN, KGAT, SGL, SimGCL and GARCIA, plus GARCIA's improvement
over the best baseline.  The shapes to reproduce: GNN models beat Wide&Deep,
GARCIA is best overall, and its largest margins appear on the tail slice.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.common import (
    ALL_MODEL_NAMES,
    ExperimentResult,
    ExperimentSettings,
    all_dataset_names,
    scenario_for,
    train_and_evaluate,
)


def run(
    settings: Optional[ExperimentSettings] = None,
    datasets: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Train and evaluate every (dataset, model) pair and tabulate AUC."""
    settings = settings if settings is not None else ExperimentSettings()
    dataset_names = list(datasets) if datasets is not None else all_dataset_names()
    model_names = list(models) if models is not None else list(ALL_MODEL_NAMES)
    result = ExperimentResult(
        experiment_id="table3",
        title="Table III: AUC on head / tail / overall slices",
    )
    for dataset_name in dataset_names:
        scenario = scenario_for(dataset_name, settings)
        per_model: Dict[str, Dict[str, float]] = {}
        for model_name in model_names:
            _, report = train_and_evaluate(model_name, scenario, settings)
            per_model[model_name] = {
                "head": report.head.auc,
                "tail": report.tail.auc,
                "overall": report.overall.auc,
            }
            result.rows.append(
                {
                    "dataset": dataset_name,
                    "model": model_name,
                    "head_auc": report.head.auc,
                    "tail_auc": report.tail.auc,
                    "overall_auc": report.overall.auc,
                }
            )
        result.rows.extend(_improvement_rows(dataset_name, per_model))
    return result


def _improvement_rows(dataset_name: str, per_model: Dict[str, Dict[str, float]]) -> List[Dict[str, object]]:
    """GARCIA's relative improvement over the best baseline per slice (the
    "(v.s. best)" row of Table III)."""
    if "GARCIA" not in per_model or len(per_model) < 2:
        return []
    rows = []
    improvements: Dict[str, object] = {"dataset": dataset_name, "model": "GARCIA vs best baseline (%)"}
    for slice_name in ("head", "tail", "overall"):
        baseline_values = [
            metrics[slice_name] for name, metrics in per_model.items() if name != "GARCIA"
        ]
        best_baseline = max(baseline_values)
        garcia_value = per_model["GARCIA"][slice_name]
        improvements[f"{slice_name}_auc"] = round(
            100.0 * (garcia_value - best_baseline) / best_baseline, 2
        )
    rows.append(improvements)
    return rows


def check(result: ExperimentResult) -> List[str]:
    """Shape gates of a default run: one message per failed gate."""
    failures = []
    model_rows = [row for row in result.rows if "vs best" not in str(row["model"])]
    if len(model_rows) != 6 * 6:
        failures.append(f"expected 36 (dataset, model) rows, got {len(model_rows)}")
    if not all(np.isfinite(row["overall_auc"]) for row in model_rows):
        failures.append("an overall AUC is not finite")
    # GNN models beat the non-graph Wide&Deep on overall AUC for a majority
    # of datasets (the paper's first key observation).
    datasets = {row["dataset"] for row in model_rows}
    gnn_wins = 0
    for dataset in datasets:
        rows = {row["model"]: row for row in model_rows if row["dataset"] == dataset}
        best_gnn = max(rows[m]["overall_auc"] for m in ("LightGCN", "KGAT", "GARCIA"))
        if best_gnn > rows["Wide&Deep"]["overall_auc"]:
            gnn_wins += 1
    if gnn_wins < len(datasets) // 2:
        failures.append(f"a GNN beats Wide&Deep on only {gnn_wins} datasets")
    return failures
