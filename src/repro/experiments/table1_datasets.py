"""Table I — dataset statistics.

For every dataset the paper reports the head/tail query shares, the head/tail
search-PV shares (industrial datasets only) and the chronological split
sizes.  This driver regenerates those statistics for the synthetic stand-ins.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.common import ExperimentResult, ExperimentSettings, all_dataset_names, scenario_for


def run(settings: Optional[ExperimentSettings] = None,
        datasets: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Compute Table I rows for the selected datasets (default: all six)."""
    settings = settings if settings is not None else ExperimentSettings()
    names = list(datasets) if datasets is not None else all_dataset_names()
    result = ExperimentResult(
        experiment_id="table1",
        title="Table I: dataset statistics (head/tail query and search-PV shares, split sizes)",
    )
    for name in names:
        scenario = scenario_for(name, settings)
        stats = scenario.dataset.statistics(
            head_query_ids=scenario.head_tail.head_array(),
            splits=scenario.splits.sizes,
        )
        result.rows.append(stats.as_row())
    return result


def check(result: ExperimentResult) -> List[str]:
    """Shape gates of a default run: one message per failed gate."""
    failures = []
    if len(result.rows) != 6:
        failures.append(f"expected 6 dataset rows, got {len(result.rows)}")
    # Industrial windows: the head share of page views far exceeds the head
    # share of queries (the long-tail phenomenon the paper builds on).
    for row in result.rows[:3]:
        if not row["pv_head_pct"] > 4 * row["queries_head_pct"]:
            failures.append(f"{row['dataset']}: head PV share <= 4x head query share")
    if not any(row["dataset"] == "Sep. A" for row in result.rows):
        failures.append("Sep. A is missing")
    return failures
