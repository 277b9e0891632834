"""End-to-end integration tests: data → graph → training → evaluation → serving.

These follow the exact workflow of the README quickstart and check the
qualitative claims the reproduction is expected to preserve:

* trained models beat random ranking by a clear margin,
* GARCIA's full pipeline (pre-train → fine-tune → deploy) runs and serves,
* the trained model ranks better-quality tail lists than an untrained
  embedding table,
* the scorer the gateway serves is not yet the one the paper evaluates.
"""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticConfig
from repro.eval import Evaluator
from repro.experiments.common import ExperimentSettings, build_model, scenario_for, train_model
from repro.models.garcia.config import GarciaConfig
from repro.models.garcia.model import build_garcia
from repro.pipeline import prepare_scenario
from repro.serving import deploy_gateway
from repro.training import TrainerConfig
from repro.training.finetuner import train_garcia


@pytest.fixture(scope="module")
def trained_garcia(tiny_scenario):
    config = GarciaConfig(embedding_dim=16, num_gnn_layers=2, intention_levels=3, seed=0)
    model = build_garcia(
        tiny_scenario.dataset, tiny_scenario.graph, tiny_scenario.forest,
        tiny_scenario.head_tail, config,
    )
    train_garcia(
        model,
        tiny_scenario.splits.train,
        pretrain_config=TrainerConfig(num_epochs=1, learning_rate=5e-3, eval_every=0),
        finetune_config=TrainerConfig(num_epochs=4, learning_rate=5e-3, eval_every=0),
    )
    return model


class TestOfflineQuality:
    def test_garcia_beats_random_ranking(self, tiny_scenario, trained_garcia):
        evaluator = Evaluator()
        report = evaluator.evaluate(
            trained_garcia, tiny_scenario.splits.test, tiny_scenario.head_tail
        )
        assert report.overall.auc > 0.62
        assert report.head.auc > 0.6

    def test_predictions_deterministic_after_training(self, tiny_scenario, trained_garcia):
        batch = tiny_scenario.splits.test[:20]
        query_ids = np.array([i.query_id for i in batch])
        service_ids = np.array([i.service_id for i in batch])
        first = trained_garcia.predict(query_ids, service_ids)
        second = trained_garcia.predict(query_ids, service_ids)
        assert np.allclose(first, second)

    def test_scenario_reproducibility(self):
        config = SyntheticConfig(num_queries=60, num_services=20, num_interactions=800,
                                 total_page_views=4_000, seed=5)
        first = prepare_scenario(config)
        second = prepare_scenario(config)
        assert np.allclose(first.graph.adjacency, second.graph.adjacency)
        assert first.head_tail.head_query_ids == second.head_tail.head_query_ids


class TestServingIntegration:
    def test_deploy_and_rank(self, tiny_scenario, trained_garcia):
        tail_query = int(tiny_scenario.head_tail.tail_array()[0])
        with deploy_gateway(trained_garcia, index="exact", top_k=5,
                            cache_capacity=0) as gateway:
            served = gateway.rank(tail_query)
        for ranked in (trained_garcia.rank(tail_query, 5), served):
            assert len(ranked) == 5
            assert len(set(ranked)) == 5

    def test_trained_model_ranks_relevant_services_higher(self, tiny_scenario, trained_garcia):
        """Averaged over tail queries, the oracle relevance of the trained
        model's top-5 exceeds the relevance of a random top-5."""
        oracle = tiny_scenario.oracle
        rng = np.random.default_rng(0)
        tail_queries = tiny_scenario.head_tail.tail_array()[:40]
        trained_relevance, random_relevance = [], []
        for query_id in tail_queries:
            ranked = trained_garcia.rank(int(query_id), 5)
            trained_relevance.append(oracle.relevance[query_id, ranked].mean())
            random_pick = rng.choice(tiny_scenario.dataset.num_services, size=5, replace=False)
            random_relevance.append(oracle.relevance[query_id, random_pick].mean())
        assert np.mean(trained_relevance) > np.mean(random_relevance)

    def test_ab_test_on_trained_vs_untrained(self, tiny_scenario, trained_garcia):
        """Ranked by its click head, trained GARCIA has the higher expected
        CTR over every query.  Served by inner product it does not: the
        untrained model's random embeddings score higher (71.3 % vs 65.1 %
        at top-3), since only the head was trained to rank."""
        from repro.eval.ab_test import expected_ctr
        from repro.models import LightGCN
        from repro.serving.abtest import DEFAULT_POSITION_BIAS

        untrained = LightGCN(tiny_scenario.graph, embedding_dim=16, seed=3)
        queries = range(tiny_scenario.dataset.num_queries)
        ctr = {
            name: expected_ctr(tiny_scenario.oracle,
                               np.array([model.rank(query_id, 3) for query_id in queries]),
                               tiny_scenario.dataset.query_frequencies(),
                               DEFAULT_POSITION_BIAS)
            for name, model in (("untrained", untrained), ("trained", trained_garcia))
        }
        assert ctr["trained"] > ctr["untrained"]


class TestServedScorerGap:
    def test_exact_gateway_top10_differs_from_click_head(self):
        """The gateway does not serve the scorer the paper evaluates.

        ``model.rank`` ranks with Eq. 12's MLP click head, as Tables III / IV
        and Fig. 11 do; every gateway index ranks by the inner product of
        the exported embeddings (Sec. V-F.1), and so do both arms of
        Fig. 10, whose notes give the two scorers' expected CTR.  For
        GARCIA trained at ``tiny`` scale, seed 0, the two top-10 lists of a
        Sep. A tail query overlap by 0.74 on average.  This pins the gap;
        it becomes an equality check once the gateway serves the click head
        itself (an ``index="head"`` kind) or the model is trained with a
        dot-product head.
        """
        settings = ExperimentSettings(seed=0)
        scenario = scenario_for("Sep. A", settings)
        model = build_model("GARCIA", scenario, settings)
        train_model(model, scenario, settings)
        tail = [int(query_id) for query_id in scenario.head_tail.tail_array()]
        with deploy_gateway(model, index="exact", cache_capacity=0) as gateway:
            served = gateway.rank_batch(tail, 10)
        overlap = [len(set(model.rank(query_id, 10)) & set(ids)) / 10
                   for query_id, ids in zip(tail, served)]
        assert np.mean(overlap) < 1.0
