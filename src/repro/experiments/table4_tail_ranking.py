"""Table IV — GAUC and NDCG@10 on tail queries (industrial datasets).

The paper reports, for every model and industrial dataset, the tail-query
GAUC and NDCG@10 together with the relative improvement over LightGCN (the
reference row).  The reproduction target is the ordering: GARCIA > KGAT ≈
SGL ≈ SimGCL > LightGCN > Wide&Deep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.industrial import INDUSTRIAL_DATASETS
from repro.experiments.common import (
    ALL_MODEL_NAMES,
    ExperimentResult,
    ExperimentSettings,
    scenario_for,
    train_and_evaluate,
)

REFERENCE_MODEL = "LightGCN"


def run(
    settings: Optional[ExperimentSettings] = None,
    datasets: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Tail-query GAUC / NDCG@10 with improvement ratios over LightGCN."""
    settings = settings if settings is not None else ExperimentSettings()
    dataset_names = list(datasets) if datasets is not None else list(INDUSTRIAL_DATASETS)
    model_names = list(models) if models is not None else list(ALL_MODEL_NAMES)
    if REFERENCE_MODEL not in model_names:
        model_names = [REFERENCE_MODEL] + model_names
    result = ExperimentResult(
        experiment_id="table4",
        title="Table IV: tail-query GAUC and NDCG@10 (improvement vs LightGCN)",
    )
    for dataset_name in dataset_names:
        scenario = scenario_for(dataset_name, settings)
        tail_metrics: Dict[str, Dict[str, float]] = {}
        for model_name in model_names:
            _, report = train_and_evaluate(model_name, scenario, settings)
            tail_metrics[model_name] = {"gauc": report.tail.gauc, "ndcg": report.tail.ndcg}
        reference = tail_metrics[REFERENCE_MODEL]
        for model_name in model_names:
            metrics = tail_metrics[model_name]
            result.rows.append(
                {
                    "dataset": dataset_name,
                    "model": model_name,
                    "tail_gauc": metrics["gauc"],
                    "gauc_vs_lightgcn_pct": _relative(metrics["gauc"], reference["gauc"]),
                    "tail_ndcg10": metrics["ndcg"],
                    "ndcg_vs_lightgcn_pct": _relative(metrics["ndcg"], reference["ndcg"]),
                }
            )
    return result


def _relative(value: float, reference: float) -> float:
    if reference == 0 or reference != reference:  # zero or NaN
        return float("nan")
    return round(100.0 * (value - reference) / reference, 2)


def check(result: ExperimentResult) -> List[str]:
    """Shape gates of a default run: one message per failed gate."""
    failures = []
    if len(result.rows) != 3 * 6:
        failures.append(f"expected 18 (window, model) rows, got {len(result.rows)}")
    for row in result.rows:
        name = f"{row['dataset']} / {row['model']}"
        if row["model"] == "LightGCN" and row["gauc_vs_lightgcn_pct"] != 0.0:
            failures.append(f"{name}: the reference is not at 0 %")
        if not (np.isfinite(row["tail_gauc"]) or np.isnan(row["tail_gauc"])):
            failures.append(f"{name}: tail GAUC is infinite")
    return failures
