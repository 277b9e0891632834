"""Tests for the per-slice evaluator, the reporting helpers and the A/B
test's click accounting, driven through the gateway replay."""

import numpy as np
import pytest

from repro.eval.ab_test import date_label, expected_ctr
from repro.eval.evaluator import Evaluator
from repro.eval.reporting import format_float_table, format_table
from repro.models import LightGCN
from repro.serving.abtest import (
    DEFAULT_POSITION_BIAS,
    ABExperimentConfig,
    BucketRouter,
    OnlineABExperiment,
)
from repro.serving.gateway import ServingGateway, VersionedEmbeddingStore, deploy_gateway


class OracleModel:
    """Scores pairs with the ground-truth click probability (upper bound)."""

    name = "oracle"

    def __init__(self, oracle):
        self._oracle = oracle

    def predict(self, query_ids, service_ids):
        return self._oracle.click_probability(query_ids, service_ids)


class RandomModel:
    name = "random"

    def __init__(self, seed=0):
        self._rng = np.random.default_rng(seed)

    def predict(self, query_ids, service_ids):
        return self._rng.random(len(query_ids))


def click_matrix(oracle):
    """``P[q, s]``: the oracle's click probability of every pair."""
    num_queries, num_services = oracle.relevance.shape
    queries, services = np.divmod(np.arange(num_queries * num_services), num_services)
    return oracle.click_probability(queries, services).reshape(num_queries, num_services)


def oracle_gateway(oracle, sign=1.0, top_k=3):
    """An exact gateway over ``queries = eye(Q)`` and ``services = sign * P.T``:
    its inner product is the click probability (``sign=-1`` ranks worst first)."""
    probabilities = click_matrix(oracle)
    store = VersionedEmbeddingStore(np.eye(len(probabilities)), sign * probabilities.T)
    return ServingGateway(store, index="exact", top_k=top_k, cache_capacity=0)


def run_ab(scenario, control, treatment, **config):
    """A 50/50 gateway replay of ``control`` vs ``treatment``."""
    router = BucketRouter({"control": 0.5, "treatment": 0.5},
                          arms={"control": control, "treatment": treatment})
    return OnlineABExperiment(scenario.dataset, scenario.oracle, router,
                              ABExperimentConfig(**config)).run()


class TestEvaluator:
    def test_oracle_beats_random(self, tiny_scenario):
        evaluator = Evaluator()
        oracle_report = evaluator.evaluate(
            OracleModel(tiny_scenario.oracle), tiny_scenario.splits.test, tiny_scenario.head_tail
        )
        random_report = evaluator.evaluate(
            RandomModel(), tiny_scenario.splits.test, tiny_scenario.head_tail
        )
        assert oracle_report.overall.auc > random_report.overall.auc
        assert oracle_report.overall.auc > 0.7
        assert abs(random_report.overall.auc - 0.5) < 0.1

    def test_report_has_all_slices(self, tiny_scenario):
        report = Evaluator().evaluate(
            OracleModel(tiny_scenario.oracle), tiny_scenario.splits.test, tiny_scenario.head_tail
        )
        assert set(report.slices) == {"head", "tail", "overall"}
        assert report.head.num_interactions + report.tail.num_interactions == report.overall.num_interactions
        row = report.as_row()
        assert {"model", "head_auc", "tail_auc", "overall_auc"} <= set(row)

    def test_model_name_defaults_to_attribute(self, tiny_scenario):
        report = Evaluator().evaluate(
            OracleModel(tiny_scenario.oracle), tiny_scenario.splits.test, tiny_scenario.head_tail
        )
        assert report.model_name == "oracle"

    def test_empty_interactions_rejected(self, tiny_scenario):
        with pytest.raises(ValueError):
            Evaluator().evaluate(RandomModel(), [], tiny_scenario.head_tail)

    def test_batched_scoring_matches_single_shot(self, tiny_scenario):
        model = OracleModel(tiny_scenario.oracle)
        small_batches = Evaluator(batch_size=7)
        one_shot = Evaluator(batch_size=10_000)
        a = small_batches.evaluate(model, tiny_scenario.splits.test, tiny_scenario.head_tail)
        b = one_shot.evaluate(model, tiny_scenario.splits.test, tiny_scenario.head_tail)
        assert a.overall.auc == pytest.approx(b.overall.auc)

    def test_invalid_ndcg_k(self):
        with pytest.raises(ValueError):
            Evaluator(ndcg_k=0)


class TestReporting:
    def test_format_table_alignment_and_headers(self):
        rows = [{"model": "GARCIA", "auc": 0.93}, {"model": "LightGCN", "auc": 0.91}]
        text = format_table(rows, title="Table")
        assert "Table" in text and "model" in text and "GARCIA" in text
        assert len(text.splitlines()) == 5

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="T")

    def test_format_float_table_rounds(self):
        text = format_float_table([{"value": 0.123456789}], precision=3)
        assert "0.123" in text and "0.1235" not in text


@pytest.mark.usefixtures("no_leaked_threads_or_pins")
class TestABTest:
    def test_better_ranker_wins(self, tiny_scenario):
        with oracle_gateway(tiny_scenario.oracle, -1.0) as bad, \
                oracle_gateway(tiny_scenario.oracle) as good:
            report = run_ab(tiny_scenario, bad, good,
                            num_days=3, sessions_per_day=300, top_k=3, seed=1)
        outcome = report.ab_result()
        assert outcome.absolute_ctr_gain() > 0
        assert all(improvement > 0 for improvement in outcome.ctr_improvement())
        assert len(outcome.days) == 3
        assert outcome.days[0] == "2022/10/01"

    def test_identical_rankers_give_small_difference(self, tiny_scenario):
        with oracle_gateway(tiny_scenario.oracle) as gateway:
            report = run_ab(tiny_scenario, gateway, gateway,
                            num_days=2, sessions_per_day=400, top_k=3, seed=2)
        assert abs(report.ab_result().absolute_ctr_gain()) < 5.0

    def test_as_rows_structure(self, tiny_scenario):
        with oracle_gateway(tiny_scenario.oracle, top_k=2) as gateway:
            rows = run_ab(tiny_scenario, gateway, gateway,
                          num_days=2, sessions_per_day=100, top_k=2, seed=0).joint_rows()
        assert len(rows) == 2
        assert {"day", "ctr_improvement_pct", "valid_ctr_improvement_pct"} <= set(rows[0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ABExperimentConfig(num_days=0)
        with pytest.raises(ValueError):
            ABExperimentConfig(top_k=10, position_bias=(1.0, 0.5))

    def test_date_labels_cross_month_and_year_boundaries(self):
        assert date_label("2022/10/28", 0) == "2022/10/28"
        assert date_label("2022/10/28", 4) == "2022/11/01"
        assert date_label("2022/12/30", 3) == "2023/01/02"

    def test_metrics_are_counted(self, tiny_scenario):
        with oracle_gateway(tiny_scenario.oracle) as gateway:
            report = run_ab(tiny_scenario, gateway, gateway,
                            num_days=1, sessions_per_day=200, top_k=3, seed=3)
        bucket = report.ab_result().baseline[0]
        assert bucket.impressions > 0
        assert 0 <= bucket.clicks <= bucket.impressions
        assert 0 <= bucket.conversions <= bucket.clicks

    def test_sampled_ctr_lies_near_expected_ctr(self, tiny_scenario):
        """A seeded replay's CTR is within 4 binomial standard errors of
        :func:`expected_ctr` for the oracle's top-K and a model's inner product."""
        dataset, top_k = tiny_scenario.dataset, 3
        model = LightGCN(tiny_scenario.graph, embedding_dim=8, seed=0)
        with oracle_gateway(tiny_scenario.oracle, top_k=top_k) as oracle_arm, \
                deploy_gateway(model, index="exact", top_k=top_k, cache_capacity=0) as model_arm:
            report = run_ab(tiny_scenario, model_arm, oracle_arm,
                            num_days=2, sessions_per_day=500, top_k=top_k, seed=0)
            for bucket, arm in (("control", model_arm), ("treatment", oracle_arm)):
                ranked = arm.rank_batch(range(dataset.num_queries), top_k)
                expected = expected_ctr(tiny_scenario.oracle, ranked,
                                        dataset.query_frequencies(), DEFAULT_POSITION_BIAS)
                impressions = sum(day.impressions for day in report.daily[bucket])
                sampled = sum(day.clicks for day in report.daily[bucket]) / impressions
                standard_error = np.sqrt(expected * (1.0 - expected) / impressions)
                assert abs(sampled - expected) < 4.0 * standard_error, bucket

    def test_oracle_top_k_maximises_expected_ctr(self, tiny_scenario):
        """Rearrangement: the most clickable services, most clickable first."""
        oracle, top_k = tiny_scenario.oracle, 3
        traffic = tiny_scenario.dataset.query_frequencies()
        order = np.argsort(-click_matrix(oracle), axis=1, kind="stable")
        model = LightGCN(tiny_scenario.graph, embedding_dim=8, seed=0)
        rng = np.random.default_rng(0)
        rivals = {
            "reversed top-K": order[:, top_k - 1::-1],
            "next K": order[:, 1:top_k + 1],
            "worst": order[:, :-top_k - 1:-1],
            "click head": [model.rank(query_id, top_k) for query_id in range(len(order))],
            "random": [rng.permutation(order.shape[1])[:top_k] for _ in range(len(order))],
        }
        best = expected_ctr(oracle, order[:, :top_k], traffic, DEFAULT_POSITION_BIAS)
        for name, ranked in rivals.items():
            assert expected_ctr(oracle, np.asarray(ranked), traffic,
                                DEFAULT_POSITION_BIAS) < best, name
        with pytest.raises(ValueError):
            expected_ctr(oracle, order[:, :10], traffic, DEFAULT_POSITION_BIAS)
