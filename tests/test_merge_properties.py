"""Property-style randomized parity tests for ``serving.sharded.merge``.

The sharded tier's correctness contract is that the vectorised k-way merge
of per-shard top-K lists is *bit-identical* to a single-process argsort
over the concatenated catalogue (score descending, ties broken by
ascending global id, ``(-1, -inf)`` padding).  These tests drive that
contract with randomized workloads — random seeds, shard counts, uneven
shard boundaries, heavy duplicate-score ties, and the k > rows-per-shard
edge cases — against an independently written reference.
"""

import numpy as np
import pytest

from repro.serving.gateway.index import ExactIndex, IVFIndex
from repro.serving.quant import Int8Index, quantize_int8
from repro.serving.sharded.merge import merge_top_k, shard_candidate_counts


def reference_top_k(scores: np.ndarray, k: int):
    """Single-process reference: per-row sort by (-score, id), then pad.

    Written as a plain per-row python sort — deliberately *not* sharing any
    code with the vectorised implementations it checks.
    """
    batch, num_services = scores.shape
    out_ids = np.full((batch, k), -1, dtype=np.int64)
    out_scores = np.full((batch, k), -np.inf, dtype=np.float64)
    for row in range(batch):
        order = sorted(range(num_services),
                       key=lambda sid: (-scores[row, sid], sid))[:k]
        out_ids[row, : len(order)] = order
        out_scores[row, : len(order)] = scores[row, order]
    return out_ids, out_scores


def shard_lists(scores: np.ndarray, bounds, k: int):
    """Each shard's local top-K (global ids, padded) from the score matrix."""
    shard_ids, shard_scores = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ids, block = reference_top_k(scores[:, lo:hi], k)
        real = ids >= 0
        ids = np.where(real, ids + lo, -1)  # local -> global ids
        shard_ids.append(ids)
        shard_scores.append(block)
    return shard_ids, shard_scores


def random_bounds(rng: np.random.Generator, num_services: int, num_shards: int):
    """Random uneven (but non-empty) contiguous shard boundaries."""
    cuts = rng.choice(np.arange(1, num_services), size=num_shards - 1,
                      replace=False)
    return [0, *sorted(int(cut) for cut in cuts), num_services]


class TestMergeRandomizedParity:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("num_shards", [2, 3, 5, 8])
    def test_merge_matches_single_process_argsort(self, seed, num_shards):
        rng = np.random.default_rng(seed)
        num_services = int(rng.integers(num_shards + 1, 60))
        batch = int(rng.integers(1, 7))
        k = int(rng.integers(1, 12))
        # A tiny discrete score alphabet forces duplicate scores within and
        # ACROSS shards, so the ascending-id tie-break is genuinely load
        # bearing in almost every merged row.
        scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=(batch, num_services))
        bounds = random_bounds(rng, num_services, num_shards)
        shard_ids, shard_scores = shard_lists(scores, bounds, k)
        merged_ids, merged_scores = merge_top_k(shard_ids, shard_scores, k)
        expect_ids, expect_scores = reference_top_k(scores, k)
        np.testing.assert_array_equal(merged_ids, expect_ids)
        np.testing.assert_array_equal(merged_scores, expect_scores)

    @pytest.mark.parametrize("seed", range(5))
    def test_k_larger_than_rows_per_shard(self, seed):
        # Every shard holds fewer rows than k, so each contributes padding
        # and the merge must still recover the exact global list.
        rng = np.random.default_rng(100 + seed)
        num_services, num_shards, k = 11, 4, 7
        scores = rng.normal(size=(3, num_services)).round(1)
        bounds = random_bounds(rng, num_services, num_shards)
        assert max(hi - lo for lo, hi in zip(bounds[:-1], bounds[1:])) < k
        shard_ids, shard_scores = shard_lists(scores, bounds, k)
        merged_ids, merged_scores = merge_top_k(shard_ids, shard_scores, k)
        expect_ids, expect_scores = reference_top_k(scores, k)
        np.testing.assert_array_equal(merged_ids, expect_ids)
        np.testing.assert_array_equal(merged_scores, expect_scores)

    def test_k_larger_than_whole_catalogue_pads(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=(2, 5))
        bounds = [0, 2, 5]
        k = 9
        shard_ids, shard_scores = shard_lists(scores, bounds, k)
        merged_ids, merged_scores = merge_top_k(shard_ids, shard_scores, k)
        expect_ids, expect_scores = reference_top_k(scores, k)
        np.testing.assert_array_equal(merged_ids, expect_ids)
        np.testing.assert_array_equal(merged_scores, expect_scores)
        assert (merged_ids[:, 5:] == -1).all()
        assert np.isneginf(merged_scores[:, 5:]).all()

    def test_all_scores_tied_orders_by_ascending_id(self):
        scores = np.ones((4, 20))
        bounds = [0, 4, 9, 20]
        k = 6
        shard_ids, shard_scores = shard_lists(scores, bounds, k)
        merged_ids, _ = merge_top_k(shard_ids, shard_scores, k)
        np.testing.assert_array_equal(
            merged_ids, np.tile(np.arange(k, dtype=np.int64), (4, 1))
        )

    def test_single_shard_is_identity(self):
        rng = np.random.default_rng(11)
        scores = rng.choice([0.0, 0.5], size=(3, 16))
        shard_ids, shard_scores = shard_lists(scores, [0, 16], 5)
        merged_ids, merged_scores = merge_top_k(shard_ids, shard_scores, 5)
        np.testing.assert_array_equal(merged_ids, shard_ids[0])
        np.testing.assert_array_equal(merged_scores, shard_scores[0])

    def test_padding_only_shard_never_outranks_real_candidates(self):
        # A shard reporting nothing but (-1, -inf) padding (e.g. its rows
        # were all filtered) must not displace any real candidate: a raw -1
        # id sorted ascending would otherwise win every -inf tie.
        real_ids = np.asarray([[3, 9]], dtype=np.int64)
        real_scores = np.asarray([[0.5, 0.5]])
        pad_ids = np.full((1, 2), -1, dtype=np.int64)
        pad_scores = np.full((1, 2), -np.inf)
        merged_ids, merged_scores = merge_top_k(
            [pad_ids, real_ids], [pad_scores, real_scores], 3
        )
        np.testing.assert_array_equal(merged_ids, [[3, 9, -1]])
        np.testing.assert_array_equal(merged_scores, [[0.5, 0.5, -np.inf]])
        assert shard_candidate_counts([pad_ids, real_ids]) == [0, 2]

    @pytest.mark.parametrize("seed", range(4))
    def test_candidate_counts_sum_to_gather_width(self, seed):
        rng = np.random.default_rng(200 + seed)
        scores = rng.normal(size=(2, 30)).round(1)
        bounds = random_bounds(rng, 30, 3)
        k = 40  # > catalogue: every shard contributes all rows + padding
        shard_ids, _ = shard_lists(scores, bounds, k)
        counts = shard_candidate_counts(shard_ids)
        assert sum(counts) == 2 * 30  # batch x real candidates


class TestIndexTiesAtTheCut:
    """Real indexes keep the (score desc, id asc) contract at the k-th
    position too, so a tie group that straddles the cut answers the same
    single-process, sharded and in the reference."""

    @staticmethod
    def catalogue():
        # 20 vectors, each present 3 times (ids i, i + 20, i + 40), with
        # small-integer entries: every inner product is exact, so copies
        # tie exactly in any summation order.
        rng = np.random.default_rng(17)
        base = rng.integers(-4, 5, size=(20, 8)).astype(np.float64)
        queries = rng.integers(-4, 5, size=(16, 8)).astype(np.float64)
        return queries, np.tile(base, (3, 1))

    @pytest.mark.parametrize("kind", ["exact", "int8", "ivf"])
    def test_single_index_equals_reference_and_merge(self, kind):
        queries, services = self.catalogue()
        k, bounds = 10, [0, 30, 60]
        table = quantize_int8(services)  # one table, sliced per shard
        if kind == "exact":
            scores = queries @ services.T

            def make(lo, hi):
                return ExactIndex().build(services[lo:hi])
        elif kind == "int8":
            scores = table.scores_int(queries)

            def make(lo, hi):
                return Int8Index(int8_table=table.rows(lo, hi)).build(
                    services[lo:hi])
        else:
            scores = queries @ services.T

            def make(lo, hi):  # every list probed: an exact scan
                return IVFIndex(num_lists=4, num_probes=4).build(
                    services[lo:hi])
        expect_ids, expect_scores = reference_top_k(scores, k)
        ranked = -np.sort(-scores, axis=1)
        assert (ranked[:, k - 1] == ranked[:, k]).sum() >= 8  # ties at the cut
        single_ids, single_scores = make(0, 60).search(queries, k)
        shard_ids, shard_scores = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            ids, block = make(lo, hi).search(queries, k)
            shard_ids.append(np.where(ids >= 0, ids + lo, ids))
            shard_scores.append(block)
        merged_ids, merged_scores = merge_top_k(shard_ids, shard_scores, k)
        np.testing.assert_array_equal(single_ids, expect_ids)
        np.testing.assert_array_equal(single_scores, expect_scores)
        np.testing.assert_array_equal(merged_ids, expect_ids)
        np.testing.assert_array_equal(merged_scores, expect_scores)
