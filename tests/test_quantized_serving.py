"""Tests for the quantized embedding subsystem (repro.serving.quant).

Covers the quantizers themselves (round-trip error bounds, ADC identities),
the recall floors the ROADMAP demands (int8 >= 0.95, PQ >= 0.85 vs the
exact scan), the quantized retrieval indexes behind the gateway registry,
and the versioned store publishing quantized snapshots that hot-swap with
the fp tables.
"""

import numpy as np
import pytest

from repro.eval.serving_metrics import (
    compression_report,
    memory_footprint,
    recall_at_k,
)
from repro.serving import ServingPipeline
from repro.serving.embedding_store import EmbeddingStore
from repro.serving.gateway import (
    ExactIndex,
    Int8Index,
    IVFPQIndex,
    ServingGateway,
    VersionedEmbeddingStore,
    build_index,
    clustered_embeddings,
    index_kinds,
)
from repro.serving.quant import (
    Int8Quantizer,
    ProductQuantizer,
    kmeans,
    quantize_int8,
    quantize_pq,
    quantize_table,
)
from repro.serving.quant.kmeans import grouped_mean


@pytest.fixture(scope="module")
def clustered():
    """Seeded synthetic store with cluster structure (the ANN-friendly regime)."""
    return clustered_embeddings(400, 3000, 32, num_clusters=12, spread=0.18, seed=3)


@pytest.fixture(scope="module")
def exact_top10(clustered):
    queries, services = clustered
    ids, _ = ExactIndex().build(services).search(queries, 10)
    return ids


@pytest.fixture(scope="module")
def small():
    """A smaller, lower-dim workload where plain PQ stays accurate."""
    return clustered_embeddings(300, 800, 16, num_clusters=10, spread=0.25, seed=3)


# --------------------------------------------------------------------- #
# Shared k-means
# --------------------------------------------------------------------- #
class TestKMeans:
    def test_clusters_cover_points_and_are_deterministic(self, clustered):
        _, services = clustered
        centroids, assignment = kmeans(services[:500], 8, iters=5, rng=0)
        assert centroids.shape == (8, services.shape[1])
        assert assignment.shape == (500,) and set(assignment) <= set(range(8))
        centroids2, assignment2 = kmeans(services[:500], 8, iters=5, rng=0)
        assert np.array_equal(centroids, centroids2)
        assert np.array_equal(assignment, assignment2)

    def test_clamps_k_and_validates(self):
        points = np.eye(3)
        centroids, assignment = kmeans(points, 10, iters=2, rng=1)
        assert centroids.shape[0] == 3 and sorted(assignment) == [0, 1, 2]
        with pytest.raises(ValueError):
            kmeans(points, 0)
        with pytest.raises(ValueError):
            kmeans(points[0], 2)
        with pytest.raises(ValueError):
            kmeans(points, 2, init="farthest-point")

    @staticmethod
    def _reference_kmeans(points, num_clusters, iters, rng):
        """The per-cell mask loop ``kmeans`` ran before the grouped mean."""
        from repro.serving.quant.kmeans import _kmeanspp_init

        centroids = _kmeanspp_init(points, num_clusters, rng)
        for _ in range(iters):
            affinity = points @ centroids.T - 0.5 * np.sum(centroids ** 2, axis=1)
            assignment = np.argmax(affinity, axis=1)
            for cell in range(num_clusters):
                members = assignment == cell
                if np.any(members):
                    centroids[cell] = points[members].mean(axis=0)
                else:
                    centroids[cell] = points[rng.integers(points.shape[0])]
        return centroids, assignment

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grouped_mean_update_equals_per_cell_loop(self, clustered, dtype):
        _, services = clustered
        # Same arithmetic in the same order, so equality is exact; the
        # duplicate-heavy input empties cells and takes the re-seed path.
        duplicates = np.repeat(services[:6], 30, axis=0)
        for points, cells in ((services[:1500], 40), (duplicates, 16)):
            points = points.astype(dtype)
            rng, reference_rng = (np.random.default_rng(4) for _ in range(2))
            centroids, assignment = kmeans(points, cells, iters=6, rng=rng)
            expected, expected_assignment = self._reference_kmeans(
                points, cells, 6, reference_rng)
            assert centroids.dtype == dtype
            assert np.array_equal(centroids, expected)
            assert np.array_equal(assignment, expected_assignment)
            # Empty cells drew from the generator exactly as the loop did.
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_grouped_mean_reports_empty_groups(self):
        points = np.arange(12, dtype=np.float64).reshape(6, 2)
        means, counts = grouped_mean(points, np.array([2, 0, 2, 2, 0, 0]), 4)
        assert counts.tolist() == [3, 0, 3, 0]
        assert np.array_equal(means[[0, 2]],
                              [points[[1, 4, 5]].mean(axis=0),
                               points[[0, 2, 3]].mean(axis=0)])
        assert not means[[1, 3]].any()

    def test_kmeanspp_init_is_deterministic_and_spreads_seeds(self, clustered):
        _, services = clustered
        pp1, _ = kmeans(services[:500], 12, iters=4, rng=0, init="kmeans++")
        pp2, _ = kmeans(services[:500], 12, iters=4, rng=0, init="kmeans++")
        assert np.array_equal(pp1, pp2)
        # On clustered data D²-weighted seeding must not collapse: the final
        # centroids stay pairwise distinct.
        gram = pp1 @ pp1.T
        sq = np.diag(gram)
        dist2 = sq[:, None] + sq[None, :] - 2 * gram
        np.fill_diagonal(dist2, np.inf)
        assert dist2.min() > 1e-8

    def test_kmeanspp_raw_adc_recall_does_not_regress(self, clustered, exact_top10):
        """Raw (un-refined) ADC scan recall with kmeans++ codebooks must not
        regress against the random-init codebooks it replaces."""
        queries, services = clustered
        probe = queries[:256]
        recalls = {}
        for init in ("random", "kmeans++"):
            table = quantize_pq(services, num_subspaces=8, seed=0, init=init)
            ids = np.argsort(-table.scores(probe), axis=1)[:, :10]
            recalls[init] = recall_at_k(ids, exact_top10[:256], 10)
        assert recalls["kmeans++"] >= recalls["random"] - 0.01


# --------------------------------------------------------------------- #
# int8 scalar quantization
# --------------------------------------------------------------------- #
class TestInt8:
    def test_round_trip_error_bounded_by_half_scale(self, clustered):
        _, services = clustered
        quantizer = Int8Quantizer().fit(services)
        decoded = quantizer.decode(quantizer.encode(services))
        bound = quantizer.scales_ / 2 + 1e-6
        assert np.all(np.abs(decoded - services) <= bound)

    def test_scale_folding_identity(self, clustered):
        queries, services = clustered
        table = quantize_int8(services)
        folded = (queries[:8].astype(np.float32) * table.scales) \
            @ table.codes.astype(np.float32).T
        direct = queries[:8].astype(np.float32) @ table.decode().T
        assert np.allclose(folded, direct, atol=1e-3)

    def test_zero_column_decodes_to_exact_zero(self):
        vectors = np.random.default_rng(0).normal(size=(50, 4))
        vectors[:, 2] = 0.0
        table = quantize_int8(vectors)
        assert np.all(table.decode()[:, 2] == 0.0)

    def test_table_memory_and_views(self, clustered):
        _, services = clustered
        table = quantize_int8(services)
        assert table.nbytes == services.size + 4 * services.shape[1]
        assert table.nbytes * 4 < services.astype(np.float32).nbytes * 1.01
        view = table.rows(100, 200)
        assert view.codes.base is not None  # zero copy
        assert np.array_equal(view.decode(), table.decode()[100:200])
        with pytest.raises(ValueError):
            table.codes[0, 0] = 1  # frozen

    def test_scores_chunking_matches_unchunked(self, clustered):
        queries, services = clustered
        table = quantize_int8(services)
        chunked = table.scores(queries[:16], chunk=100)
        whole = table.scores(queries[:16], chunk=10 ** 9)
        assert np.allclose(chunked, whole)

    def test_int8_recall_floor(self, clustered, exact_top10):
        queries, services = clustered
        ids, _ = Int8Index().build(services).search(queries, 10)
        assert recall_at_k(ids, exact_top10, 10) >= 0.95


# --------------------------------------------------------------------- #
# Product quantization
# --------------------------------------------------------------------- #
class TestProductQuantizer:
    def test_codes_shape_and_dtype(self, small):
        _, services = small
        pq = ProductQuantizer(num_subspaces=8, seed=0).fit(services)
        codes = pq.encode(services)
        assert codes.shape == (services.shape[0], 8) and codes.dtype == np.uint8

    def test_adc_equals_decoded_inner_product(self, small):
        queries, services = small
        pq = ProductQuantizer(num_subspaces=8, seed=0).fit(services)
        codes = pq.encode(services[:60])
        tables = pq.adc_tables(queries[:5])
        adc = pq.adc_scores(tables, codes)
        direct = queries[:5].astype(np.float32) @ pq.decode(codes).T
        assert np.allclose(adc, direct, atol=1e-4)

    def test_more_subspaces_reduce_reconstruction_error(self, clustered):
        _, services = clustered
        errors = []
        for m in (4, 16):
            pq = ProductQuantizer(num_subspaces=m, seed=0).fit(services)
            decoded = pq.decode(pq.encode(services))
            errors.append(float(np.mean((decoded - services) ** 2)))
        assert errors[1] < errors[0]

    def test_dim_padding_round_trips(self):
        vectors = np.random.default_rng(1).normal(size=(300, 18))  # 18 % 8 != 0
        pq = ProductQuantizer(num_subspaces=8, seed=0).fit(vectors)
        decoded = pq.decode(pq.encode(vectors))
        assert decoded.shape == vectors.shape
        assert np.mean((decoded - vectors) ** 2) < np.mean(vectors ** 2)

    def test_small_catalogues_clamp_codebook(self):
        vectors = np.random.default_rng(2).normal(size=(9, 8))
        pq = ProductQuantizer(num_subspaces=4, num_centroids=256, seed=0).fit(vectors)
        assert pq.codebooks_.shape[1] == 9
        assert np.allclose(pq.decode(pq.encode(vectors)), vectors, atol=1e-5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ProductQuantizer(num_subspaces=0)
        with pytest.raises(ValueError):
            ProductQuantizer(num_centroids=1)
        with pytest.raises(ValueError):
            ProductQuantizer(num_centroids=512)  # would overflow uint8 codes

    def test_pq_recall_floor(self, small):
        queries, services = small
        exact_ids, _ = ExactIndex().build(services).search(queries, 10)
        table = quantize_pq(services, num_subspaces=8)
        ids = np.argsort(-table.scores(queries), axis=1)[:, :10]
        assert recall_at_k(ids, exact_ids, 10) >= 0.85

    def test_pq_table_memory(self, clustered):
        _, services = clustered
        table = quantize_pq(services, num_subspaces=8)
        assert table.nbytes < services.astype(np.float32).nbytes / 4
        # One byte per subspace per row; everything else is the codebook, a
        # constant in the catalogue size (32x under this float64 fixture).
        assert table.codes.nbytes == services.shape[0] * 8
        with pytest.raises(ValueError):
            table.codes[0, 0] = 1  # frozen


# --------------------------------------------------------------------- #
# Quantized retrieval indexes
# --------------------------------------------------------------------- #
class TestIVFPQIndex:
    def test_recall_floor_with_refinement(self, clustered, exact_top10):
        queries, services = clustered
        ids, _ = IVFPQIndex(seed=0).build(services).search(queries, 10)
        assert recall_at_k(ids, exact_top10, 10) >= 0.9

    def test_refinement_lifts_recall(self, clustered, exact_top10):
        queries, services = clustered
        plain, _ = IVFPQIndex(seed=0, refine=None).build(services).search(queries, 10)
        refined, _ = IVFPQIndex(seed=0).build(services).search(queries, 10)
        assert (recall_at_k(refined, exact_top10, 10)
                > recall_at_k(plain, exact_top10, 10))

    def test_balanced_cells_partition_catalogue(self, clustered):
        _, services = clustered
        index = IVFPQIndex(seed=0, num_lists=16).build(services[:500])
        members = np.concatenate([index.cell_members(c) for c in range(index.num_cells)])
        assert sorted(members) == list(range(500))
        sizes = [index.cell_members(c).size for c in range(index.num_cells)]
        assert max(sizes) <= index.cell_size

    def test_pads_when_k_exceeds_candidates(self, clustered):
        queries, services = clustered
        index = IVFPQIndex(seed=0, num_lists=4, num_subspaces=4).build(services[:9])
        ids, scores = index.search(queries[0], 20)
        assert ids.shape == (1, 20)
        valid = ids[0] >= 0
        assert set(ids[0][valid]) <= set(range(9))
        assert np.all(np.isneginf(scores[0][~valid]))

    def test_memory_footprint_beats_fp_table(self, clustered):
        _, services = clustered
        index = IVFPQIndex(seed=0).build(services)
        assert index.nbytes < services.nbytes / 2          # even with refine table
        assert index.code_nbytes < services.nbytes / 20    # shippable codes alone

    def test_sorted_scores_and_ids_valid(self, clustered):
        queries, services = clustered
        ids, scores = IVFPQIndex(seed=0).build(services).search(queries[:32], 10)
        assert np.all(np.diff(scores, axis=1) <= 1e-6)
        assert np.all(ids >= 0) and np.all(ids < services.shape[0])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            IVFPQIndex(num_lists=0)
        with pytest.raises(ValueError):
            IVFPQIndex(refine="fp64")
        with pytest.raises(ValueError):
            IVFPQIndex(refine_factor=0)
        with pytest.raises(ValueError):
            IVFPQIndex(slack=0.5)

    def test_registry_knows_quantized_kinds(self, clustered):
        _, services = clustered
        kinds = index_kinds()
        assert "ivfpq" in kinds and "int8" in kinds and kinds[0] == "exact"
        index = build_index("ivfpq", services[:300], num_lists=8)
        assert index.num_services == 300
        assert build_index("int8", services[:300]).num_services == 300


# --------------------------------------------------------------------- #
# Versioned store: dtype + quantized snapshots
# --------------------------------------------------------------------- #
class TestQuantizedStore:
    def test_default_dtype_is_float32(self, clustered):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services)
        snapshot = store.snapshot()
        assert snapshot.services.dtype == np.float32
        assert snapshot.queries.dtype == np.float32

    def test_dtype_override_and_validation(self, clustered):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services, dtype=np.float64)
        assert store.snapshot().services.dtype == np.float64
        with pytest.raises(ValueError):
            VersionedEmbeddingStore(queries, services, dtype=np.int32)

    def test_publishes_quantized_tables(self, clustered):
        queries, services = clustered
        store = VersionedEmbeddingStore(
            queries, services, quantization=("int8", "pq"),
            quantization_params={"pq": {"num_subspaces": 8}},
        )
        snapshot = store.snapshot()
        int8_table = snapshot.quantized_services("int8")
        pq_table = snapshot.quantized_services("pq")
        assert int8_table.num_vectors == pq_table.num_vectors == snapshot.num_services
        assert pq_table.quantizer.num_subspaces == 8
        with pytest.raises(ValueError):
            int8_table.codes[0, 0] = 1  # immutable like the fp arrays
        with pytest.raises(KeyError):
            snapshot.quantized_services("fp8")
        with pytest.raises(ValueError):
            VersionedEmbeddingStore(queries, services, quantization=("fp8",))
        with pytest.raises(ValueError):  # params for a kind never published
            VersionedEmbeddingStore(
                queries, services, quantization=("int8",),
                quantization_params={"pq": {"num_subspaces": 8}},
            )

    def test_quantized_shard_row_alignment(self, clustered):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services, num_shards=4,
                                        quantization=("int8",))
        snapshot = store.snapshot()
        for shard in range(snapshot.num_shards):
            ids, view = snapshot.quantized_shard("int8", shard)
            lo, hi = snapshot.shard_bounds[shard], snapshot.shard_bounds[shard + 1]
            assert np.array_equal(ids, np.arange(lo, hi))
            full = snapshot.quantized_services("int8")
            assert np.array_equal(view.codes, full.codes[lo:hi])

    def test_hot_swap_rebuilds_quantized_tables(self, clustered):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services, quantization=("int8",))
        before = store.snapshot()
        table_before = before.quantized_services("int8")
        version = store.publish(queries, services * 0.5)
        after = store.snapshot()
        table_after = after.quantized_services("int8")
        assert after.version == version != before.version
        assert table_after is not table_before
        # the rebuilt codes track the *new* fp table, the old snapshot is intact
        assert np.allclose(table_after.decode(), after.services, atol=0.05)
        assert np.array_equal(table_before.codes, before.quantized_services("int8").codes)


# --------------------------------------------------------------------- #
# Gateway + pipeline integration
# --------------------------------------------------------------------- #
class TestQuantizedGateway:
    @staticmethod
    def make_gateway(clustered, **kwargs):
        queries, services = clustered
        store = VersionedEmbeddingStore(queries, services, num_shards=2,
                                        quantization=("int8", "pq"))
        defaults = dict(index="ivfpq", top_k=10, max_batch_size=16)
        defaults.update(kwargs)
        return ServingGateway(store, **defaults)

    def test_gateway_serves_through_ivfpq(self, clustered):
        gateway = self.make_gateway(clustered)
        assert gateway.recall_probe(k=10, num_queries=128) >= 0.9
        ranked = gateway.rank(7, 10)
        assert len(ranked) == 10 and len(set(ranked)) == 10

    def test_cache_invalidated_when_quantized_snapshot_published(self, clustered):
        queries, services = clustered
        gateway = self.make_gateway(clustered, cache_capacity=64)
        first = gateway.rank(3)
        again = gateway.rank(3)
        assert first == again and gateway.telemetry.cache_hits >= 1
        rng = np.random.default_rng(9)
        gateway.hot_swap(queries, rng.normal(size=services.shape))
        assert gateway.store.snapshot().quantized_services("int8") is not None
        swapped = gateway.rank(3)
        assert swapped != first  # new embeddings, not a stale cached result
        assert len(gateway.cache) <= 1 + 1  # old-version entries dropped

    def test_gateway_reuses_published_int8_table(self, clustered):
        for kind, getter in (("int8", lambda idx: idx.table),
                             ("ivfpq", lambda idx: idx._refine_table)):
            gateway = self.make_gateway(clustered, index=kind)
            snapshot = gateway.store.snapshot()
            index = gateway._index_for(snapshot)
            # shared object, not a second quantization of the same catalogue
            assert getter(index) is snapshot.quantized_services("int8")

    def test_prebuilt_table_shape_mismatch_rejected(self, clustered):
        _, services = clustered
        table = quantize_int8(services[:100])
        with pytest.raises(ValueError):
            Int8Index(int8_table=table).build(services)
        with pytest.raises(ValueError):
            IVFPQIndex(int8_table=table, seed=0).build(services)

    def test_pipeline_quantized_scoring_modes(self, clustered):
        queries, services = clustered
        exact = ServingPipeline(EmbeddingStore(queries, services),
                                top_k=5, scoring="inner_product")
        for kind in ("ivfpq", "int8"):
            with ServingGateway(VersionedEmbeddingStore(queries, services),
                                index=kind) as gateway:
                ranked = gateway.rank(3, 5)
            overlap = len(set(ranked) & set(exact.rank(3)))
            assert overlap >= 4, kind


# --------------------------------------------------------------------- #
# Memory/compression reporting
# --------------------------------------------------------------------- #
class TestCompressionReport:
    def test_report_rows(self, clustered, exact_top10):
        queries, services = clustered
        int8_table = quantize_int8(services)
        ids, _ = Int8Index().build(services).search(queries, 10)
        rows = compression_report(
            services, {"int8": int8_table},
            exact_ids=exact_top10, variant_ids={"int8": ids}, k=10,
        )
        by_table = {row["table"]: row for row in rows}
        assert by_table["baseline"]["compression_x"] == 1.0
        assert by_table["int8"]["compression_x"] > 7.9  # fixture is float64
        assert by_table["int8"]["recall_at_k"] >= 0.95

    def test_memory_footprint_validation(self):
        assert memory_footprint(np.zeros((4, 4))) == 128
        with pytest.raises(TypeError):
            memory_footprint(object())

    def test_quantize_table_factory(self, small):
        _, services = small
        assert quantize_table("int8", services).kind == "int8"
        assert quantize_table("pq", services, num_subspaces=4).kind == "pq"
        with pytest.raises(ValueError):
            quantize_table("fp4", services)
        with pytest.raises(ValueError):
            quantize_table("int8", services, num_subspaces=4)
