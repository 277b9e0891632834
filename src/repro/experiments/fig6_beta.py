"""Fig. 6 — sensitivity of the IGCL weight β.

The paper sweeps β ∈ {0.0, 0.01, 0.02, 0.03, 0.04, 0.05}; β = 0 (no IGCL) is
the worst and the optimum sits around 0.01–0.04.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.experiments.common import ExperimentResult, ExperimentSettings
from repro.experiments.sweep import sweep_garcia_hyperparameter

DEFAULT_VALUES = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)


def run(settings: Optional[ExperimentSettings] = None,
        values: Sequence[float] = DEFAULT_VALUES,
        dataset: str = "Sep. A") -> ExperimentResult:
    """Sweep β and report tail / overall AUC (plus per-epoch step curves)."""
    return sweep_garcia_hyperparameter(
        experiment_id="fig6",
        title="Fig. 6: sensitivity of the IGCL balance factor beta",
        parameter_name="beta",
        values=values,
        make_config=lambda s, value: s.garcia_config(beta=float(value)),
        settings=settings,
        dataset=dataset,
    )


def check(result: ExperimentResult) -> List[str]:
    """Shape gates of a default run: one message per failed gate."""
    failures = []
    betas = [row["beta"] for row in result.rows]
    if betas != list(DEFAULT_VALUES):
        failures.append(f"beta grid {betas} is not {list(DEFAULT_VALUES)}")
    if not all(np.isfinite(row["tail_auc"]) for row in result.rows):
        failures.append("a tail AUC is not finite")
    return failures
