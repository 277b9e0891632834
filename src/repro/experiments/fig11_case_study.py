"""Fig. 11 — case study: ranked lists for tail queries, baseline vs GARCIA.

The paper shows the top-5 services returned for two representative long-tail
queries by the deployed baseline and by GARCIA, annotating each service with
its MAU and authoritative rating; GARCIA's lists contain markedly
higher-quality services.  The reproduction picks the tail queries with the
most test exposure, ranks them with both trained models' click heads
(:meth:`~repro.models.base.RankingModel.rank`) and reports the per-slot MAU /
rating together with the mean quality of each list.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.experiments.common import ExperimentResult, ExperimentSettings, build_model, scenario_for, train_model


def _representative_tail_queries(scenario, num_queries: int) -> List[int]:
    """Tail queries with the highest traffic (still far below the head)."""
    frequencies = scenario.dataset.query_frequencies()
    tail_ids = scenario.head_tail.tail_array()
    order = tail_ids[np.argsort(-frequencies[tail_ids], kind="stable")]
    return [int(query_id) for query_id in order[:num_queries]]


def run(
    settings: Optional[ExperimentSettings] = None,
    dataset: str = "Sep. A",
    baseline_model: str = "KGAT",
    num_case_queries: int = 2,
    top_k: int = 5,
) -> ExperimentResult:
    """Produce the per-slot ranking comparison of Fig. 11."""
    settings = settings if settings is not None else ExperimentSettings()
    scenario = scenario_for(dataset, settings)

    baseline = build_model(baseline_model, scenario, settings)
    train_model(baseline, scenario, settings)
    garcia = build_model("GARCIA", scenario, settings)
    train_model(garcia, scenario, settings)

    result = ExperimentResult(
        experiment_id="fig11",
        title="Fig. 11: case study — top-5 services for representative tail queries",
    )
    for query_id in _representative_tail_queries(scenario, num_case_queries):
        query = scenario.dataset.query_by_id(query_id)
        for system_name, model in (("BASELINE", baseline), ("GARCIA", garcia)):
            services = [scenario.dataset.service_by_id(s) for s in model.rank(query_id, top_k)]
            for position, service in enumerate(services, start=1):
                result.rows.append(
                    {
                        "query": query.text,
                        "query_id": query_id,
                        "system": system_name,
                        "rank": position,
                        "service": service.name,
                        "mau": service.mau,
                        "rating": service.rating,
                    }
                )
            mean_quality = float(np.mean([service.quality_score() for service in services]))
            result.series[f"query{query_id}/{system_name}/mean_quality"] = [mean_quality]
    return result


def check(result: ExperimentResult) -> List[str]:
    """Shape gates of a default run: one message per failed gate."""
    failures = []
    garcia = [v[0] for k, v in result.series.items() if k.endswith("GARCIA/mean_quality")]
    baseline = [v[0] for k, v in result.series.items() if k.endswith("BASELINE/mean_quality")]
    if len(result.rows) != 2 * 2 * 5:  # two queries × two systems × top-5
        failures.append(f"expected 20 ranked rows, got {len(result.rows)}")
    if len(garcia) != 2 or len(baseline) != 2:
        failures.append("expected one mean quality per query and system")
    if not all(np.isfinite(value) for value in garcia + baseline):
        failures.append("a mean quality is not finite")
    return failures
