"""Fig. 8 — sensitivity of the contrastive temperature τ.

The paper sweeps τ ∈ {0.05, 0.1, 0.3, 0.5, 0.7, 1.0}; the optimum is τ = 0.1
and large temperatures hurt because the softmax becomes too flat to separate
positives from negatives.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.experiments.common import ExperimentResult, ExperimentSettings
from repro.experiments.sweep import sweep_garcia_hyperparameter

DEFAULT_VALUES = (0.05, 0.1, 0.3, 0.5, 0.7, 1.0)


def run(settings: Optional[ExperimentSettings] = None,
        values: Sequence[float] = DEFAULT_VALUES,
        dataset: str = "Sep. A") -> ExperimentResult:
    """Sweep τ and report tail / overall AUC."""
    return sweep_garcia_hyperparameter(
        experiment_id="fig8",
        title="Fig. 8: sensitivity of the contrastive temperature tau",
        parameter_name="tau",
        values=values,
        make_config=lambda s, value: s.garcia_config(temperature=float(value)),
        settings=settings,
        dataset=dataset,
        track_steps=False,
    )


def check(result: ExperimentResult) -> List[str]:
    """Shape gates of a default run: one message per failed gate."""
    failures = []
    taus = [row["tau"] for row in result.rows]
    if taus != list(DEFAULT_VALUES):
        failures.append(f"tau grid {taus} is not {list(DEFAULT_VALUES)}")
    if not all(np.isfinite(row["tail_auc"]) for row in result.rows):
        failures.append("a tail AUC is not finite")
    return failures
