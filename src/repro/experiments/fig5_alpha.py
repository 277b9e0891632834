"""Fig. 5 — sensitivity of the SECL weight α.

The paper sweeps α ∈ {0.0, 0.1, 0.2, 0.3, 0.4, 0.5} and plots tail / overall
AUC against training steps on Sep. A.  Findings to reproduce: α = 0 (no SECL)
is the worst and very large α degrades performance, with the optimum around
0.1–0.3.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.experiments.common import ExperimentResult, ExperimentSettings
from repro.experiments.sweep import sweep_garcia_hyperparameter

DEFAULT_VALUES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def run(settings: Optional[ExperimentSettings] = None,
        values: Sequence[float] = DEFAULT_VALUES,
        dataset: str = "Sep. A") -> ExperimentResult:
    """Sweep α and report tail / overall AUC (plus per-epoch step curves)."""
    return sweep_garcia_hyperparameter(
        experiment_id="fig5",
        title="Fig. 5: sensitivity of the SECL balance factor alpha",
        parameter_name="alpha",
        values=values,
        make_config=lambda s, value: s.garcia_config(alpha=float(value)),
        settings=settings,
        dataset=dataset,
    )


def check(result: ExperimentResult) -> List[str]:
    """Shape gates of a default run: one message per failed gate."""
    failures = []
    alphas = [row["alpha"] for row in result.rows]
    if alphas != list(DEFAULT_VALUES):
        failures.append(f"alpha grid {alphas} is not {list(DEFAULT_VALUES)}")
    if not all(np.isfinite(row["overall_auc"]) for row in result.rows):
        failures.append("an overall AUC is not finite")
    # Per-epoch step curves are recorded for every alpha value.
    if not any(key.endswith("/tail_auc") for key in result.series):
        failures.append("no per-epoch tail AUC curve was recorded")
    return failures
