"""Table II — service-search graph and intention-tree statistics.

The paper reports node and edge counts of the head and tail graph views plus
the size of the intention forest for every dataset.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.common import ExperimentResult, ExperimentSettings, all_dataset_names, scenario_for


def run(settings: Optional[ExperimentSettings] = None,
        datasets: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Compute Table II rows for the selected datasets (default: all six)."""
    settings = settings if settings is not None else ExperimentSettings()
    names = list(datasets) if datasets is not None else all_dataset_names()
    result = ExperimentResult(
        experiment_id="table2",
        title="Table II: service-search graph and intention-tree statistics",
    )
    for name in names:
        scenario = scenario_for(name, settings)
        stats = scenario.graph.statistics(
            intention_nodes=scenario.forest.num_intentions,
            intention_edges=scenario.forest.num_edges,
        )
        result.rows.append(stats.as_row())
    return result


def check(result: ExperimentResult) -> List[str]:
    """Shape gates of a default run: one message per failed gate."""
    failures = []
    if len(result.rows) != 6:
        failures.append(f"expected 6 dataset rows, got {len(result.rows)}")
    for row in result.rows:
        if not row["tail_nodes"] > row["head_nodes"]:
            failures.append(f"{row['dataset']}: tail nodes <= head nodes")
        if not row["tail_edges"] > row["head_edges"]:
            failures.append(f"{row['dataset']}: tail edges <= head edges")
        if not row["intention_nodes"] > 0:
            failures.append(f"{row['dataset']}: no intention nodes")
    return failures
