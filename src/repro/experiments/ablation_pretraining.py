"""Extra ablation: pre-training vs training from scratch.

The paper motivates the pre-training → fine-tuning schema (Sec. IV-C) but
does not plot it separately; this driver compares fine-tuning with and
without the contrastive pre-training stage under the same fine-tuning
schedule.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.eval.evaluator import Evaluator
from repro.experiments.common import ExperimentResult, ExperimentSettings, build_model, scenario_for
from repro.training import TrainerConfig
from repro.training.finetuner import train_garcia

SCHEDULES: Tuple[Tuple[str, int], ...] = (("no pre-training", 0), ("with pre-training", 2))


def run(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    """Train GARCIA on Sep. A once per ``(label, pretrain_epochs)`` schedule."""
    settings = settings if settings is not None else ExperimentSettings()
    scenario = scenario_for("Sep. A", settings)
    evaluator = Evaluator()
    result = ExperimentResult(
        experiment_id="ablation_pretraining",
        title="Ablation: contrastive pre-training vs fine-tuning from scratch",
    )
    for label, pretrain_epochs in SCHEDULES:
        model = build_model("GARCIA", scenario, settings)
        train_garcia(
            model,
            scenario.splits.train,
            pretrain_config=TrainerConfig(
                num_epochs=pretrain_epochs,
                learning_rate=settings.learning_rate,
                batch_size=settings.batch_size,
                seed=settings.seed,
                eval_every=0,
            ),
            finetune_config=settings.trainer_config(),
        )
        report = evaluator.evaluate(model, scenario.splits.test, scenario.head_tail)
        result.rows.append(
            {
                "schedule": label,
                "pretrain_epochs": pretrain_epochs,
                "tail_auc": report.tail.auc,
                "overall_auc": report.overall.auc,
            }
        )
    return result


def check(result: ExperimentResult) -> List[str]:
    """Shape gates of a default run: one message per failed gate."""
    failures = []
    if len(result.rows) != 2:
        failures.append(f"expected 2 schedule rows, got {len(result.rows)}")
    if not all(np.isfinite(row["overall_auc"]) for row in result.rows):
        failures.append("an overall AUC is not finite")
    return failures
