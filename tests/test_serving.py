"""Tests for the serving substrate: the versioned store, the exact
inner-product scan, a model's own click-head ranking, and the extractors."""

import numpy as np
import pytest

from repro.experiments.common import ALL_MODEL_NAMES, ExperimentSettings, build_model
from repro.graph.builder import GraphBuildConfig
from repro.models import LightGCN
from repro.serving import (
    NodeFeatureExtractor,
    RelationExtractor,
    VersionedEmbeddingStore,
    deploy_gateway,
)
from repro.serving.abtest import ABExperimentConfig, BucketRouter, OnlineABExperiment
from repro.serving.gateway import ExactIndex


@pytest.fixture()
def store(rng):
    return VersionedEmbeddingStore(rng.normal(size=(20, 8)), rng.normal(size=(15, 8)))


@pytest.fixture()
def model(tiny_scenario):
    return LightGCN(tiny_scenario.graph, embedding_dim=8, seed=0)


def exact_search(store, query_id, k):
    """Exact inner-product top-k of one query over the store's snapshot."""
    snapshot = store.snapshot()
    index = ExactIndex().build(snapshot.all_services())
    ids, scores = index.search(snapshot.query([query_id]), k)
    return ids[0], scores[0]


def head_scores(model, query_id):
    """The click head's score of every service in the catalogue."""
    services = np.arange(model.graph.num_services)
    return model.predict(np.full(len(services), query_id), services)


class TestEmbeddingStore:
    def test_lookup_shapes(self, store):
        snapshot = store.snapshot()
        assert snapshot.query([0, 3]).shape == (2, 8)
        assert snapshot.service([1]).shape == (1, 8)
        assert store.num_queries == 20 and store.num_services == 15
        assert store.embedding_dim == 8
        # Readers look rows up on a snapshot, never on the store.
        for name in ("query", "service", "all_services"):
            assert not hasattr(store, name)

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            VersionedEmbeddingStore(rng.normal(size=(5, 8)), rng.normal(size=(5, 4)))
        with pytest.raises(ValueError):
            VersionedEmbeddingStore(rng.normal(size=(5,)), rng.normal(size=(5, 4)))

    def test_refresh_bumps_version(self, store, rng):
        version = store.publish(rng.normal(size=(20, 8)), rng.normal(size=(15, 8)))
        assert version == 1 and store.version == 1
        assert not hasattr(store, "refresh")

    def test_refresh_must_keep_dimension(self, store, rng):
        with pytest.raises(ValueError):
            store.publish(rng.normal(size=(20, 16)), rng.normal(size=(15, 16)))


class TestRetriever:
    def test_matches_brute_force_inner_product(self, store):
        snapshot = store.snapshot()
        brute = snapshot.services.astype(np.float64) @ snapshot.queries[2].astype(np.float64)
        ids, scores = exact_search(store, 2, 5)
        assert list(ids) == list(np.argsort(-brute)[:5])
        assert np.all(np.diff(scores) <= 1e-12)

    def test_candidate_restriction(self, store):
        # A candidate subset is an exact scan over its rows; positions map back.
        candidates = np.array([1, 4, 7])
        snapshot = store.snapshot()
        index = ExactIndex().build(snapshot.service(candidates))
        positions, _ = index.search(snapshot.query([0]), 3)
        assert sorted(candidates[positions[0]].tolist()) == [1, 4, 7]

    def test_k_larger_than_catalogue(self, store):
        ids, scores = exact_search(store, 0, 100)
        num_services = store.num_services
        assert sorted(ids[:num_services].tolist()) == list(range(num_services))
        assert np.all(ids[num_services:] == -1)
        assert np.all(np.isneginf(scores[num_services:]))

    def test_normalized_mode_equals_cosine_ranking(self, store):
        # Publish unit-norm tables and the inner product is the cosine.
        snapshot = store.snapshot()
        queries = snapshot.queries.astype(np.float64)
        services = snapshot.services.astype(np.float64)
        cosine = services @ queries[1] / (
            np.linalg.norm(services, axis=1) * np.linalg.norm(queries[1])
        )
        unit = VersionedEmbeddingStore(
            queries / np.linalg.norm(queries, axis=1, keepdims=True),
            services / np.linalg.norm(services, axis=1, keepdims=True),
        )
        ids, _ = exact_search(unit, 1, 4)
        assert list(ids) == list(np.argsort(-cosine)[:4])

    def test_invalid_k_and_empty_candidates(self, store):
        with pytest.raises(ValueError):
            exact_search(store, 0, 0)
        empty = ExactIndex().build(np.zeros((0, 8)))
        ids, scores = empty.search(store.snapshot().query([0]), 3)
        assert ids.tolist() == [[-1, -1, -1]] and np.all(np.isneginf(scores))


class TestRankingModule:
    def test_rank_and_metadata(self, tiny_scenario, model):
        ranked = model.rank(0, 5)
        services = [tiny_scenario.dataset.service_by_id(s) for s in ranked]
        assert len(set(ranked)) == 5
        assert [service.service_id for service in services] == ranked
        assert all(service.mau >= 0 and 1 <= service.rating <= 5 for service in services)

    def test_average_quality_requires_dataset(self, tiny_scenario, model):
        # A list's quality is its services' dataset metadata (Fig. 11's
        # mean_quality series).
        dataset = tiny_scenario.dataset
        quality = np.mean([dataset.service_by_id(s).quality_score() for s in model.rank(0, 5)])
        catalogue = [service.quality_score() for service in dataset.services]
        assert min(catalogue) <= quality <= max(catalogue)

    def test_invalid_top_k(self, model):
        with pytest.raises(ValueError):
            model.rank(0, 0)


class TestModelScoringRetriever:
    def test_matches_model_predictions(self, model):
        assert model.rank(3, 5) == np.argsort(-head_scores(model, 3))[:5].tolist()

    def test_candidate_restriction_and_validation(self, tiny_scenario, model):
        # rank takes no candidate subset: it covers the whole catalogue.
        num_services = tiny_scenario.dataset.num_services
        assert sorted(model.rank(0, num_services)) == list(range(num_services))
        with pytest.raises(ValueError):
            model.rank(0, -1)

    @pytest.mark.parametrize("name", ALL_MODEL_NAMES)
    def test_rank_contract(self, tiny_scenario, name):
        """Every family's rank is a stable descending argsort of its predict
        (Wide&Deep's adds wide cross features), clipped to the catalogue."""
        model = build_model(name, tiny_scenario, ExperimentSettings(embedding_dim=8))
        num_services = tiny_scenario.dataset.num_services
        for query_id in (0, 3, tiny_scenario.dataset.num_queries - 1):
            order = np.argsort(-head_scores(model, query_id), kind="stable").tolist()
            for k in (1, 5, num_services):
                assert model.rank(query_id, k) == order[:k]
            everything = model.rank(query_id, num_services + 7)
            assert everything == order
            assert sorted(everything) == list(range(num_services))
        for k in (0, -3):
            with pytest.raises(ValueError):
                model.rank(0, k)


class TestPipelineScoringModes:
    def test_deploy_model_defaults_to_model_scoring(self, model):
        """A model ranks with its click head; a gateway serves the inner
        product of the exported embeddings."""
        head_order = np.argsort(-head_scores(model, 3), kind="stable")
        assert model.rank(3, 3) == head_order[:3].tolist()
        with deploy_gateway(model, index="exact", top_k=3, cache_capacity=0) as gateway:
            served = gateway.rank(3)
            expected, _ = exact_search(gateway.store, 3, 3)
        assert served == expected.tolist()

    def test_invalid_scoring_mode_rejected(self, model):
        with pytest.raises(ValueError, match="unknown index kind"):
            deploy_gateway(model, index="bm25")
        with pytest.raises(ValueError):
            deploy_gateway()  # neither a model nor a warm start


class TestPipelineAndExtractors:
    def test_deploy_model_round_trip(self, tiny_scenario, model):
        ranked = model.rank(0, 4)
        assert len(ranked) == 4
        assert all(0 <= service_id < tiny_scenario.dataset.num_services for service_id in ranked)
        assert model.rank(0, 2) == ranked[:2]

    def test_pipeline_refresh_from_model(self, model):
        store = VersionedEmbeddingStore.from_model(model)
        assert store.publish_from_model(model) == 1

    def test_node_feature_extractor(self, tiny_scenario):
        extractor = NodeFeatureExtractor(tiny_scenario.dataset)
        query_features = extractor.query_features()
        service_features = extractor.service_features()
        assert query_features["city"].shape == (tiny_scenario.dataset.num_queries,)
        assert service_features["mau"].shape == (tiny_scenario.dataset.num_services,)
        assert np.all(service_features["rating"] >= 1)

    def test_relation_extractor_builds_equivalent_graph(self, tiny_scenario):
        extractor = RelationExtractor(tiny_scenario.dataset, GraphBuildConfig())
        graph = extractor.build_graph(tiny_scenario.splits.train, tiny_scenario.head_tail)
        assert graph.num_edges == tiny_scenario.graph.num_edges
        summary = extractor.relation_summary(graph)
        assert summary.num_interaction_pairs > 0
        assert summary.num_correlation_pairs > 0

    def test_pipeline_is_a_valid_ab_ranker(self, tiny_scenario, model):
        """A model's deployment serves both arms of the A/B replay."""
        with deploy_gateway(model, index="exact", top_k=3, cache_capacity=0) as gateway:
            router = BucketRouter({"control": 0.5, "treatment": 0.5},
                                  arms={"control": gateway, "treatment": gateway})
            report = OnlineABExperiment(
                tiny_scenario.dataset, tiny_scenario.oracle, router,
                ABExperimentConfig(num_days=1, sessions_per_day=50, top_k=3,
                                   seed=0),
            ).run()
        assert report.daily["control"][0].impressions > 0
