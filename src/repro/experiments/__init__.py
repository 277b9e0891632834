"""Experiment drivers: one module per table / figure of the paper.

Each driver exposes a ``run(settings)`` function returning an
:class:`~repro.experiments.common.ExperimentResult` whose rows/series mirror
what the paper reports, and a ``check(result)`` function returning the
shape gates a default run fails (empty when it passes).  Run one by its id
(its module name) with ``python -m repro.experiments <id>``; see
:mod:`repro.experiments.__main__`.
"""

from repro.experiments import (
    ablation_anchor_pairs,
    ablation_pretraining,
    fig10_online_ab,
    fig11_case_study,
    fig3_adaptive_encoding,
    fig4_mgcl_ablation,
    fig5_alpha,
    fig6_beta,
    fig7_tree_depth,
    fig8_temperature,
    table1_datasets,
    table2_graphs,
    table3_auc,
    table4_tail_ranking,
)
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    all_dataset_names,
    build_model,
    scenario_for,
    train_and_evaluate,
    train_model,
)

#: Every driver by its id, the module name ``python -m repro.experiments`` takes.
EXPERIMENTS = {
    module.__name__.rpartition(".")[2]: module
    for module in (
        table1_datasets,
        table2_graphs,
        table3_auc,
        table4_tail_ranking,
        fig3_adaptive_encoding,
        fig4_mgcl_ablation,
        fig5_alpha,
        fig6_beta,
        fig7_tree_depth,
        fig8_temperature,
        fig10_online_ab,
        fig11_case_study,
        ablation_anchor_pairs,
        ablation_pretraining,
    )
}

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "ExperimentSettings",
    "scenario_for",
    "build_model",
    "train_model",
    "train_and_evaluate",
    "all_dataset_names",
    "table1_datasets",
    "table2_graphs",
    "table3_auc",
    "table4_tail_ranking",
    "fig3_adaptive_encoding",
    "fig4_mgcl_ablation",
    "fig5_alpha",
    "fig6_beta",
    "fig7_tree_depth",
    "fig8_temperature",
    "fig10_online_ab",
    "fig11_case_study",
    "ablation_anchor_pairs",
    "ablation_pretraining",
]
