"""Tests for PR 9: OPQ learned rotation + end-to-end int8 integer scoring.

Covers the OPQ quantizer contracts (orthonormal rotation across seeds, a
recall win over plain PQ on correlated data), the integer scoring path's
documented error bound and chunking invariance, the frozen query scale's
propagation through shard views and durable snapshots, IVF-PQ's read-only
search (repeatable answers, an index left untouched, the same telemetry as
every other kind), the IVF-PQ rotation round-trip through persisted
state, and the acceptance contract: a warm-started gateway and a revived
fleet replica serve rotated, integer-scored codes bit-identically to the
in-memory trainer.
"""

import numpy as np
import pytest

from repro.serving.fleet import FleetReplica
from repro.serving.gateway import (
    ExactIndex,
    IVFPQIndex,
    ServingGateway,
    VersionedEmbeddingStore,
    clustered_embeddings,
)
from repro.serving.quant import (
    OPQQuantizer,
    OPQTable,
    quantize_int8,
    quantize_opq,
    quantize_pq,
    quantize_table,
)
from repro.eval.serving_metrics import recall_at_k


@pytest.fixture(scope="module")
def clustered():
    return clustered_embeddings(200, 1500, 32, num_clusters=10, spread=0.2,
                                seed=7)


@pytest.fixture(scope="module")
def correlated(clustered):
    """The clustered workload pushed through one fixed mixing matrix.

    Clustered synthetic data is nearly isotropic per subspace, where a
    learned rotation cannot help; a dense mix correlates the dimensions
    (unequal variance directions straddling subspace boundaries), which is
    the regime OPQ exists for.
    """
    queries, services = clustered
    rng = np.random.default_rng(11)
    mix = rng.normal(size=(32, 32)).astype(np.float32)
    mix *= np.geomspace(1.0, 8.0, 32, dtype=np.float32)
    return (queries @ mix.T).astype(np.float32), (services @ mix.T).astype(np.float32)


# --------------------------------------------------------------------- #
# OPQ quantizer
# --------------------------------------------------------------------- #
class TestOPQQuantizer:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rotation_is_orthonormal_across_seeds(self, correlated, seed):
        _, services = correlated
        quantizer = OPQQuantizer(num_subspaces=4, num_centroids=32,
                                 seed=seed).fit(services)
        rotation = quantizer.rotation_
        pdim = rotation.shape[0]
        assert rotation.shape == (pdim, pdim)
        identity = rotation @ rotation.T
        assert np.allclose(identity, np.eye(pdim), atol=1e-4)
        # |det| == 1 rules out any scaling hiding inside the rotation.
        assert abs(abs(np.linalg.det(rotation.astype(np.float64))) - 1.0) < 1e-3

    def test_fit_is_deterministic(self, correlated):
        _, services = correlated
        a = OPQQuantizer(num_subspaces=4, num_centroids=32, seed=3).fit(services)
        b = OPQQuantizer(num_subspaces=4, num_centroids=32, seed=3).fit(services)
        assert np.array_equal(a.rotation_, b.rotation_)
        assert np.array_equal(a.codebooks_, b.codebooks_)

    def test_rotated_recall_beats_plain_pq_on_correlated_data(self, correlated):
        queries, services = correlated
        probe = queries[:128]
        exact_ids, _ = ExactIndex().build(services).search(probe, 10)
        plain = quantize_pq(services, num_subspaces=4, num_centroids=32)
        rotated = quantize_opq(services, num_subspaces=4, num_centroids=32)
        plain_ids = np.argsort(-plain.scores(probe), axis=1)[:, :10]
        rotated_ids = np.argsort(-rotated.scores(probe), axis=1)[:, :10]
        plain_recall = recall_at_k(plain_ids, exact_ids, 10)
        rotated_recall = recall_at_k(rotated_ids, exact_ids, 10)
        assert rotated_recall >= plain_recall

    def test_opq_table_is_registered_and_sliceable(self, correlated):
        _, services = correlated
        table = quantize_table("opq", services, num_subspaces=4,
                               num_centroids=32)
        assert isinstance(table, OPQTable) and table.kind == "opq"
        shard = table.rows(100, 300)
        assert isinstance(shard, OPQTable)
        assert shard.quantizer is table.quantizer
        assert np.array_equal(shard.codes, table.codes[100:300])

    def test_zero_iters_keeps_the_eigen_init(self, correlated):
        _, services = correlated
        quantizer = OPQQuantizer(num_subspaces=4, num_centroids=32,
                                 opq_iters=0).fit(services)
        rotation = quantizer.rotation_
        assert np.allclose(rotation @ rotation.T,
                           np.eye(rotation.shape[0]), atol=1e-4)


# --------------------------------------------------------------------- #
# Integer int8 scoring
# --------------------------------------------------------------------- #
class TestIntegerScoring:
    def test_scores_int_within_documented_bound(self, clustered):
        queries, services = clustered
        table = quantize_int8(services)
        probe = queries[:64]
        float_scores = table.scores(probe)
        int_scores = table.scores_int(probe)
        _, qscale = table.quantize_queries(probe)
        # |scores_int - scores| <= qscale / 2 * ||code_row||_1 per score.
        code_l1 = np.abs(table.codes.astype(np.float32)).sum(axis=1)
        bound = qscale[:, None] / 2.0 * code_l1[None, :]
        assert np.all(np.abs(int_scores - float_scores) <= bound + 1e-4)

    def test_scores_int_chunking_is_invariant(self, clustered):
        queries, services = clustered
        table = quantize_int8(services)
        probe = queries[:16]
        whole = table.scores_int(probe, chunk=10_000)
        chunked = table.scores_int(probe, chunk=257)
        assert np.array_equal(whole, chunked)

    def test_frozen_query_scale_propagates_and_determinises(self, clustered):
        queries, services = clustered
        table = quantize_int8(services, queries=queries)
        assert table.query_scale is not None and table.query_scale > 0
        shard = table.rows(200, 900)
        assert shard.query_scale == table.query_scale
        # Sharded integer scores must equal the global scan's columns —
        # only the frozen global step makes that hold for every probe.
        probe = queries[:8]
        assert np.array_equal(table.scores_int(probe)[:, 200:900],
                              shard.scores_int(probe))
        _, qscale = table.quantize_queries(probe)
        assert np.all(qscale == np.float32(table.query_scale))

    def test_fresh_table_nbytes_excludes_lazy_transpose(self, clustered):
        _, services = clustered
        table = quantize_int8(services)
        base = table.codes.nbytes + table.scales.nbytes
        assert table.nbytes == base
        table.codes_t  # materialize the integer path's layout
        assert table.nbytes == base + table.codes_t.nbytes


# --------------------------------------------------------------------- #
# IVF-PQ: rotation, read-only search, state round-trip
# --------------------------------------------------------------------- #
class TestIVFPQRotation:
    def test_shrink_parity_and_stats(self, clustered):
        """A shared index is read-only: searching leaves every attribute
        as built, and the same batch searched again answers the same."""
        queries, services = clustered
        index = IVFPQIndex(num_subspaces=4, rotation="opq",
                           refine_factor=12).build(services)
        built = {name: np.copy(value) if isinstance(value, np.ndarray) else value
                 for name, value in vars(index).items()}
        probe = queries[:96]
        first_ids, first_scores = index.search(probe, 10)
        again_ids, again_scores = index.search(probe, 10)
        assert np.array_equal(first_ids, again_ids)
        assert np.array_equal(first_scores, again_scores)
        assert vars(index).keys() == built.keys()
        for name, value in vars(index).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, built[name]), name
            else:
                assert value is built[name], name

    @pytest.mark.parametrize("refine", [None, "int8"])
    def test_opq_rotation_does_not_regress_index_recall(self, correlated,
                                                        refine):
        """Same byte budget, same cells, same shortlist depth: the rotated
        codebooks rank the raw ADC scan strictly better on correlated data,
        and the int8 refinement never turns that into a loss."""
        queries, services = correlated
        exact_ids, _ = ExactIndex().build(services).search(queries, 10)
        recall = {}
        for rotation in (None, "opq"):
            index = IVFPQIndex(num_subspaces=4, rotation=rotation, seed=0,
                               refine=refine).build(services)
            ids, _ = index.search(queries, 10)
            recall[rotation] = recall_at_k(ids, exact_ids, 10)
        if refine is None:
            assert recall["opq"] > recall[None]
        else:
            assert recall["opq"] >= recall[None]

    def test_rotation_state_round_trip_is_bit_identical(self, clustered):
        queries, services = clustered
        table = quantize_int8(services, queries=queries)
        index = IVFPQIndex(num_subspaces=4, rotation="opq", seed=2,
                           int8_table=table).build(services)
        meta, arrays = index.export_state()
        assert meta["rotation"] == "opq"
        assert arrays["rotation"].shape[0] == arrays["rotation"].shape[1]
        restored = IVFPQIndex.from_state(meta, dict(arrays), int8_table=table)
        probe = queries[:32]
        ids_a, scores_a = index.search(probe, 10)
        ids_b, scores_b = restored.search(probe, 10)
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(scores_a, scores_b)

    def test_refined_scores_match_scores_int_arithmetic(self, clustered):
        """The refinement runs the *same* integer arithmetic as scores_int.

        Every partial sum in both paths is an exact integer below 2**24, so
        float32 accumulation order cannot matter and the refined scores
        must equal a full integer scan gathered at the returned ids.
        """
        queries, services = clustered
        table = quantize_int8(services, queries=queries)
        index = IVFPQIndex(num_subspaces=4, int8_table=table).build(services)
        probe = queries[:32]
        ids, scores = index.search(probe, 10)
        full = table.scores_int(probe)
        gathered = np.take_along_axis(full, np.maximum(ids, 0), axis=1)
        valid = ids >= 0
        assert np.array_equal(scores[valid],
                              gathered[valid].astype(np.float64))


# --------------------------------------------------------------------- #
# Store + snapshot round-trip, retention, acceptance
# --------------------------------------------------------------------- #
class TestDurableRoundTrip:
    @pytest.fixture()
    def durable_store(self, tmp_path, clustered):
        queries, services = clustered
        store = VersionedEmbeddingStore(
            queries, services, num_shards=2,
            quantization=("int8", "opq"),
            quantization_params={"opq": dict(num_subspaces=4,
                                             num_centroids=32)},
            durable_dir=str(tmp_path / "snap"),
        )
        return store, tmp_path / "snap"

    def test_opq_and_query_scale_survive_restore(self, durable_store):
        store, root = durable_store
        snapshot = store.snapshot()
        restored = VersionedEmbeddingStore.restore(str(root))
        revived = restored.snapshot()
        original_opq = snapshot.quantized["opq"]
        revived_opq = revived.quantized["opq"]
        assert np.array_equal(original_opq.codes, revived_opq.codes)
        assert np.array_equal(original_opq.quantizer.rotation_,
                              revived_opq.quantizer.rotation_)
        assert np.array_equal(original_opq.quantizer.codebooks_,
                              revived_opq.quantizer.codebooks_)
        original_int8 = snapshot.quantized["int8"]
        revived_int8 = revived.quantized["int8"]
        assert revived_int8.query_scale == original_int8.query_scale
        probe = snapshot.queries[:8]
        assert np.array_equal(original_int8.scores_int(probe),
                              revived_int8.scores_int(probe))

    def test_keep_last_prunes_old_versions(self, tmp_path, clustered):
        queries, services = clustered
        store = VersionedEmbeddingStore(
            queries, services, durable_dir=str(tmp_path / "snap"),
            keep_last=2,
        )
        for step in range(1, 4):
            store.publish(queries + np.float32(0.001 * step), services)
        manifests = sorted(
            path.name
            for path in (tmp_path / "snap" / "manifests").glob("v*.json")
            if "-index-" not in path.name
        )
        assert manifests == ["v2.json", "v3.json"]
        # The pointer target survived the prune and still restores.
        restored = VersionedEmbeddingStore.restore(str(tmp_path / "snap"))
        assert restored.version == 3
        assert restored.keep_last == 2

    def test_keep_last_validates_and_persists(self, tmp_path, clustered):
        queries, services = clustered
        with pytest.raises(ValueError):
            VersionedEmbeddingStore(queries, services, keep_last=0)
        store = VersionedEmbeddingStore(
            queries, services, durable_dir=str(tmp_path / "snap"), keep_last=3,
        )
        restored = VersionedEmbeddingStore.restore(str(tmp_path / "snap"))
        assert restored.keep_last == store.keep_last == 3

    def test_warm_gateway_and_revived_replica_bit_identical(self, durable_store):
        store, root = durable_store
        params = {"num_subspaces": 4, "rotation": "opq"}
        gateway = ServingGateway(store, index="ivfpq", index_params=params,
                                 cache_capacity=0)
        expected = [gateway.rank(query_id, 10) for query_id in range(12)]
        gateway.persist_index()
        gateway.close()

        warm_store = VersionedEmbeddingStore.restore(str(root))
        warm = ServingGateway(warm_store, index="ivfpq", cache_capacity=0)
        try:
            restored = warm._restore_index(warm_store.snapshot())
            assert restored is not None
            assert restored.rotation == "opq"
            assert [warm.rank(query_id, 10) for query_id in range(12)] == expected
        finally:
            warm.close()

        replica = FleetReplica(
            "lazarus",
            ServingGateway(VersionedEmbeddingStore.restore(str(root)),
                           index="ivfpq", cache_capacity=0),
        )
        try:
            replica.kill()
            replica.revive(warm_start=str(root))
            assert [replica.gateway.rank(query_id, 10)
                    for query_id in range(12)] == expected
        finally:
            replica.close()

    def test_gateway_telemetry_surfaces_shortlist_counts(self, clustered):
        """An IVF-PQ gateway reports exactly the keys every other kind does."""
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services)
        ivfpq = ServingGateway(store, index="ivfpq",
                               index_params={"num_subspaces": 4,
                                             "refine_factor": 12},
                               cache_capacity=0)
        exact = ServingGateway(store, index="exact", cache_capacity=0)
        try:
            for gateway in (ivfpq, exact):
                for query_id in range(24):
                    gateway.rank(query_id, 10)
            assert ivfpq.summary()["requests"] == 24
            assert ivfpq.summary().keys() == exact.summary().keys()
        finally:
            ivfpq.close()
            exact.close()
