"""Tests for the experiment drivers (one per table / figure of the paper).

These run the drivers at the smallest possible scale — the goal is to verify
the plumbing (rows, columns, variants, series) rather than the scientific
shapes, which each driver's ``check`` gates on a default-scale run of
``python -m repro.experiments <id>``.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import (
    EXPERIMENTS,
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
from repro.experiments.__main__ import main
from repro.experiments.common import (
    ALL_MODEL_NAMES,
    ExperimentSettings,
    all_dataset_names,
    build_model,
    dataset_config,
    scenario_for,
    train_and_evaluate,
)


FAST = ExperimentSettings(
    scale="tiny",
    embedding_dim=8,
    pretrain_epochs=1,
    finetune_epochs=1,
    learning_rate=5e-3,
    seed=0,
)


@pytest.fixture(scope="module")
def sep_a_scenario():
    return scenario_for("Sep. A", FAST)


FIG10_FAST_ARGS = dict(baseline_model="LightGCN", num_days=2, sessions_per_day=120, top_k=3)


@pytest.fixture(scope="module")
def fig10_fast():
    return fig10_online_ab.run(FAST, **FIG10_FAST_ARGS)


class TestCommonHelpers:
    def test_all_dataset_names(self):
        names = all_dataset_names()
        assert len(names) == 6
        assert "Sep. A" in names and "Software" in names
        assert len(all_dataset_names(include_amazon=False)) == 3

    def test_dataset_config_resolution(self):
        assert dataset_config("Sep. B", "tiny").name == "Sep. B"
        assert dataset_config("Music", "tiny").name == "Music"
        with pytest.raises(ValueError):
            dataset_config("Unknown", "tiny")

    def test_build_model_knows_every_table3_name(self, sep_a_scenario):
        for name in ALL_MODEL_NAMES:
            model = build_model(name, sep_a_scenario, FAST)
            assert model.graph is sep_a_scenario.graph
        with pytest.raises(ValueError):
            build_model("DeepFM", sep_a_scenario, FAST)

    def test_garcia_config_uses_experiment_dimensions(self):
        config = FAST.garcia_config(alpha=0.3)
        assert config.embedding_dim == FAST.embedding_dim
        assert config.alpha == pytest.approx(0.3)

    def test_train_and_evaluate_returns_report(self, sep_a_scenario):
        _, report = train_and_evaluate("LightGCN", sep_a_scenario, FAST)
        assert 0.0 <= report.overall.auc <= 1.0


class TestTableDrivers:
    def test_table1_rows(self):
        result = table1_datasets.run(FAST, datasets=["Sep. A", "Software"])
        assert len(result.rows) == 2
        assert {"dataset", "queries_head_pct", "pv_head_pct"} <= set(result.rows[0])
        assert result.rows[0]["pv_head_pct"] > result.rows[0]["queries_head_pct"]

    def test_table2_rows(self):
        result = table2_graphs.run(FAST, datasets=["Sep. A"])
        row = result.rows[0]
        assert row["head_edges"] >= 0 and row["tail_edges"] > 0
        assert row["intention_nodes"] > 0

    def test_table3_structure_with_two_models(self):
        result = table3_auc.run(FAST, datasets=["Sep. A"], models=["LightGCN", "GARCIA"])
        model_rows = [row for row in result.rows if row["model"] in ("LightGCN", "GARCIA")]
        assert len(model_rows) == 2
        assert all(0.0 <= row["overall_auc"] <= 1.0 for row in model_rows)
        improvement_rows = [row for row in result.rows if "vs best" in str(row["model"])]
        assert len(improvement_rows) == 1

    def test_table4_reports_lightgcn_reference(self):
        result = table4_tail_ranking.run(FAST, datasets=["Sep. A"], models=["LightGCN", "Wide&Deep"])
        reference_rows = [row for row in result.rows if row["model"] == "LightGCN"]
        assert reference_rows[0]["gauc_vs_lightgcn_pct"] == pytest.approx(0.0)
        assert {"tail_gauc", "tail_ndcg10"} <= set(result.rows[0])


class TestFigureDrivers:
    def test_fig3_compares_share_and_adaptive(self):
        result = fig3_adaptive_encoding.run(FAST, datasets=["Sep. A"])
        variants = {row["variant"] for row in result.rows}
        assert variants == {"GARCIA", "GARCIA-Share"}

    def test_fig4_contains_all_variants(self):
        result = fig4_mgcl_ablation.run(FAST, datasets=["Sep. A"])
        variants = [row["variant"] for row in result.rows]
        assert variants == [
            "GARCIA w.o. ALL", "GARCIA w.o. IG&SE", "GARCIA w.o. IG", "GARCIA w.o. SE", "GARCIA",
        ]
        assert all("head_auc" in row for row in result.rows)

    def test_fig5_sweep_rows_and_series(self):
        result = fig5_alpha.run(FAST, values=(0.0, 0.1))
        assert [row["alpha"] for row in result.rows] == [0.0, 0.1]
        assert "alpha=0.1/tail_auc" in result.series
        assert len(result.series["alpha=0.1/tail_auc"]) == FAST.finetune_epochs

    def test_fig7_includes_reference_and_levels(self):
        result = fig7_tree_depth.run(FAST, levels=(1, 2))
        h_values = [row["H"] for row in result.rows]
        assert h_values[0] == "none"
        assert set(h_values[1:]) == {1, 2}

    def test_fig10_ab_test_rows_and_notes(self, fig10_fast):
        assert len(fig10_fast.rows) == 2
        assert "ctr_improvement_pct" in fig10_fast.rows[0]
        assert "absolute CTR gain" in fig10_fast.notes
        assert "by inner product" in fig10_fast.notes and "by click head" in fig10_fast.notes
        assert len(fig10_fast.series["ctr_improvement_pct"]) == 2

    def test_fig10_gateway_backend_reports_ctr_and_cost(self, fig10_fast):
        """Both buckets' CTR, and no wall-clock cost: the result is compared
        value for value against its tracked file.  A shed session fails."""
        assert "control_ctr" in fig10_fast.rows[0] and "treatment_ctr" in fig10_fast.rows[0]
        assert fig10_fast.rows[0]["control_impressions"] > 0
        assert fig10_fast.rows[0]["treatment_impressions"] > 0
        assert "QPS" not in fig10_fast.notes and "p99" not in fig10_fast.notes
        assert set(fig10_fast.series) == {
            "ctr_improvement_pct", "valid_ctr_improvement_pct", "sessions_shed",
        }
        assert fig10_fast.series["sessions_shed"] == [0.0, 0.0]
        assert not any("shed" in failure for failure in fig10_online_ab.check(fig10_fast))
        shed = replace(fig10_fast, series={**fig10_fast.series, "sessions_shed": [1.0, 0.0]})
        assert any("shed" in failure for failure in fig10_online_ab.check(shed))

    def test_fig10_rejects_unknown_backend(self, monkeypatch):
        """A bad config is rejected before either model trains."""
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was checked")

        monkeypatch.setattr(fig10_online_ab, "train_model", no_training)
        with pytest.raises(ValueError, match="positive"):
            fig10_online_ab.run(FAST, num_days=0)

    def test_fig10_two_runs_are_identical(self, fig10_fast):
        """What CI compares against the tracked file repeats run to run."""
        again = fig10_online_ab.run(FAST, **FIG10_FAST_ARGS)
        assert again.rows == fig10_fast.rows
        assert again.series == fig10_fast.series
        assert again.notes == fig10_fast.notes

    def test_fig11_case_study_lists(self):
        result = fig11_case_study.run(
            FAST, baseline_model="LightGCN", num_case_queries=1, top_k=3
        )
        systems = {row["system"] for row in result.rows}
        assert systems == {"BASELINE", "GARCIA"}
        assert len(result.rows) == 6  # 1 query × 2 systems × top-3
        assert all(row["rank"] in (1, 2, 3) for row in result.rows)
        assert any("mean_quality" in key for key in result.series)


    def test_fig6_sweep_rows(self):
        result = fig6_beta.run(FAST, values=(0.02,))
        assert [row["beta"] for row in result.rows] == [0.02]
        assert "beta=0.02/tail_auc" in result.series

    def test_fig8_sweep_rows_without_step_curves(self):
        result = fig8_temperature.run(FAST, values=(1.0,))
        assert [row["tau"] for row in result.rows] == [1.0]
        assert result.series == {}


class TestAblationDrivers:
    def test_anchor_pair_coverage_shrinks_with_the_threshold(self):
        result = ablation_anchor_pairs.run(FAST, thresholds=(0, 3))
        assert [row["min_shared_attributes"] for row in result.rows] == [0, 3]
        assert ablation_anchor_pairs.check(result) == []

    def test_pretraining_compares_two_schedules(self):
        result = ablation_pretraining.run(FAST)
        assert [row["pretrain_epochs"] for row in result.rows] == [0, 2]
        assert ablation_pretraining.check(result) == []

    def test_pretraining_runs_both_stages_at_the_settings_seed(self, monkeypatch):
        seeds = []
        monkeypatch.setattr(
            ablation_pretraining, "train_garcia",
            lambda model, train, pretrain_config, finetune_config:
                seeds.append((pretrain_config.seed, finetune_config.seed)),
        )
        ablation_pretraining.run(replace(FAST, seed=3))
        assert seeds == [(3, 3), (3, 3)]


class TestRunner:
    def test_every_driver_module_is_registered(self):
        package = Path(table1_datasets.__file__).parent
        helpers = {"__init__", "__main__", "common", "sweep"}
        modules = {path.stem for path in package.glob("*.py")} - helpers
        assert set(EXPERIMENTS) == modules
        for driver in EXPERIMENTS.values():
            assert callable(driver.run) and callable(driver.check)

    def test_runner_writes_the_default_run(self, tmp_path):
        out = tmp_path / "table1.json"
        assert main(["table1_datasets", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "table1_datasets"
        assert {"cpu_count", "OPENBLAS_NUM_THREADS"} <= set(payload["host"])
        [run] = payload["runs"]
        assert run["seed"] == 0
        assert run["rows"] == table1_datasets.run(ExperimentSettings()).rows

    def test_runner_runs_each_seed(self, tmp_path):
        out = tmp_path / "table1.json"
        assert main(["table1_datasets", "--seeds", "0", "1", "--out", str(out)]) == 0
        runs = json.loads(out.read_text())["runs"]
        assert [run["seed"] for run in runs] == [0, 1]
        assert runs[1]["rows"] == table1_datasets.run(ExperimentSettings(seed=1)).rows

    def test_a_failed_check_fails_the_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(table1_datasets, "check", lambda result: ["too few rows"])
        out = tmp_path / "table1.json"
        assert main(["table1_datasets", "--out", str(out)]) == 1
        assert "too few rows" in capsys.readouterr().err
        assert out.is_file()  # the JSON is written before the gates are judged
