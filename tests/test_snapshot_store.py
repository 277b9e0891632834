"""Durable chunked snapshots: format round-trips, crash safety, warm start.

The crash-safety contract under test: a truncated chunk, a flipped
checksum byte, a manifest pointing at a missing chunk, and a kill between
chunk write and manifest-pointer flip must all fail loudly with a typed
error — and the directory must still recover to the last good version.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.serving.gateway.index as index_module
import repro.serving.gateway.store as store_module
import repro.serving.quant.ivfpq as ivfpq_module
import repro.serving.quant.pq as pq_module
from repro.serving.fleet.replica import FleetReplica
from repro.serving.gateway.gateway import ServingGateway, deploy_gateway
from repro.serving.gateway.store import VersionedEmbeddingStore
from repro.serving.quant.ivfpq import IVFPQIndex
from repro.serving.sharded import ShardedGateway
from repro.serving.snapshot import (
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    content_id,
    open_chunk,
    open_snapshot,
    prune,
    read_pointer,
    write_chunk,
    write_snapshot,
)
import repro.serving.snapshot.format as format_module
from repro.serving.snapshot.format import HEADER_SIZE, ChunkRef, write_bytes_atomic
from repro.serving.snapshot.manifest import load_manifest, manifest_rel, write_manifest

DIM = 16


@pytest.fixture()
def embeddings():
    rng = np.random.default_rng(11)
    queries = rng.normal(size=(60, DIM)).astype(np.float32)
    services = rng.normal(size=(400, DIM)).astype(np.float32)
    return queries, services


@pytest.fixture()
def durable_store(tmp_path, embeddings):
    queries, services = embeddings
    store = VersionedEmbeddingStore(
        queries, services, num_shards=4,
        quantization=("int8",),
        durable_dir=str(tmp_path),
    )
    return store, tmp_path


def _corrupt_payload_byte(directory: Path) -> Path:
    """Flip one payload byte in every chunk file under ``directory``."""
    chunks = sorted((directory / "chunks").glob("*.chunk"))
    assert chunks, "no chunks on disk"
    for chunk in chunks:
        raw = bytearray(chunk.read_bytes())
        raw[HEADER_SIZE + 3] ^= 0xFF
        chunk.write_bytes(raw)
    return chunks[0]


# --------------------------------------------------------------------- #
# Chunk container format
# --------------------------------------------------------------------- #
class TestChunkFormat:
    def test_round_trip_is_bit_identical_and_read_only(self, tmp_path):
        array = np.arange(48, dtype=np.float32).reshape(12, 4)
        ref, written = write_chunk(tmp_path, array)
        assert written
        view = open_chunk(tmp_path, ref)
        assert np.array_equal(view, array)
        assert view.dtype == array.dtype
        assert not view.flags.writeable  # mmapped ACCESS_READ, zero copy
        with pytest.raises((ValueError, RuntimeError)):
            view[0, 0] = 1.0

    def test_content_addressing_dedups_identical_payloads(self, tmp_path):
        array = np.ones((8, 3), dtype=np.int8)
        ref1, written1 = write_chunk(tmp_path, array)
        ref2, written2 = write_chunk(tmp_path, array.copy())
        assert written1 and not written2
        assert ref1 == ref2
        assert len(list((tmp_path / "chunks").glob("*.chunk"))) == 1

    def test_content_id_depends_on_shape_and_dtype(self):
        data = np.arange(12, dtype=np.float32)
        assert content_id(data) != content_id(data.reshape(3, 4))
        assert content_id(data) != content_id(data.astype(np.float64))

    def test_truncated_chunk_raises_typed_error(self, tmp_path):
        ref, _ = write_chunk(tmp_path, np.arange(100, dtype=np.float64))
        path = tmp_path / "chunks" / f"{ref.chunk_id}.chunk"
        path.write_bytes(path.read_bytes()[:-32])
        with pytest.raises(SnapshotIntegrityError, match="truncated"):
            open_chunk(tmp_path, ref)

    def test_truncated_mid_header_raises_typed_error(self, tmp_path):
        ref, _ = write_chunk(tmp_path, np.arange(10, dtype=np.int32))
        path = tmp_path / "chunks" / f"{ref.chunk_id}.chunk"
        path.write_bytes(path.read_bytes()[: HEADER_SIZE // 2])
        with pytest.raises(SnapshotIntegrityError, match="header"):
            open_chunk(tmp_path, ref)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        ref, _ = write_chunk(tmp_path, np.arange(100, dtype=np.float32))
        path = tmp_path / "chunks" / f"{ref.chunk_id}.chunk"
        raw = bytearray(path.read_bytes())
        raw[HEADER_SIZE + 5] ^= 0x01
        path.write_bytes(raw)
        with pytest.raises(SnapshotIntegrityError, match="checksum"):
            open_chunk(tmp_path, ref)

    def test_flipped_header_byte_fails_header_crc(self, tmp_path):
        ref, _ = write_chunk(tmp_path, np.arange(100, dtype=np.float32))
        path = tmp_path / "chunks" / f"{ref.chunk_id}.chunk"
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0x04  # inside the nbytes field
        path.write_bytes(raw)
        with pytest.raises(SnapshotIntegrityError):
            open_chunk(tmp_path, ref)

    def test_a_file_is_written_in_bounded_slices(self, tmp_path, monkeypatch):
        """No single ``write`` call is longer than ``WRITE_SLICE``: a thread
        sharing the core (the request loop) runs between calls, not inside one."""
        sizes = []

        def recording_open(path, mode):
            handle = open(path, mode)
            write = handle.write

            def counted(data):
                sizes.append(len(data))
                return write(data)

            handle.write = counted
            return handle

        monkeypatch.setattr(format_module, "open", recording_open, raising=False)
        monkeypatch.setattr(format_module, "WRITE_SLICE", 256)
        payload = bytes(range(256)) * 4 + b"x"
        write_bytes_atomic(tmp_path / "blob", payload)
        assert sizes == [256, 256, 256, 256, 1]
        assert (tmp_path / "blob").read_bytes() == payload
        write_bytes_atomic(tmp_path / "empty", b"")
        assert (tmp_path / "empty").read_bytes() == b""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blob", "empty"]

    def test_missing_chunk_raises_typed_error(self, tmp_path):
        ref = ChunkRef(chunk_id="ab" * 16, dtype="<f4", shape=(2, 2),
                       nbytes=16, crc32=0)
        with pytest.raises(SnapshotIntegrityError, match="missing"):
            open_chunk(tmp_path, ref)


# --------------------------------------------------------------------- #
# Snapshot round-trip + delta publish
# --------------------------------------------------------------------- #
class TestSnapshotRoundTrip:
    def test_restore_is_bit_identical(self, durable_store):
        store, root = durable_store
        snap = store.snapshot()
        restored = VersionedEmbeddingStore.restore(str(root))
        back = restored.snapshot()
        assert back.version == snap.version
        assert back.shard_bounds == snap.shard_bounds
        assert np.array_equal(back.queries, snap.queries)
        assert np.array_equal(back.services, snap.services)
        assert np.array_equal(back.int8.codes, snap.int8.codes)
        assert np.array_equal(back.int8.scales, snap.int8.scales)
        assert back.int8.query_scale == snap.int8.query_scale
        assert restored.quantization == store.quantization
        assert restored.num_shards == store.num_shards

    def test_manifest_with_retired_pq_sections_opens_fp_and_int8(
            self, durable_store, embeddings):
        """A manifest that still lists ``pq`` / ``opq`` sections restores
        with its fp and int8 tables, and the restored store keeps
        publishing."""
        store, root = durable_store
        rel = read_pointer(root)
        manifest = load_manifest(root, rel)
        codes = manifest["sections"]["int8"]["arrays"]["codes"]
        manifest["sections"]["pq"] = {"meta": {"num_subspaces": 4},
                                      "arrays": {"codes": codes}}
        manifest["sections"]["opq"] = {"meta": {"num_subspaces": 4},
                                       "arrays": {"codes": codes}}
        manifest["meta"]["quantization"] = ["int8", "opq", "pq"]
        write_manifest(root, manifest, rel)
        restored = VersionedEmbeddingStore.restore(str(root))
        assert restored.quantization == ("int8",)
        back = restored.snapshot()
        assert back.int8 is not None
        assert np.array_equal(back.services, store.snapshot().services)
        queries, services = embeddings
        assert restored.publish(queries + 1.0, services) == 1
        assert set(open_snapshot(root).manifest["sections"]) == {"fp", "int8"}
        assert open_snapshot(root).meta["quantization"] == ["int8"]

    def test_restored_arrays_are_zero_copy_read_only(self, durable_store):
        _, root = durable_store
        back = VersionedEmbeddingStore.restore(str(root)).snapshot()
        assert not back.services.flags.writeable
        assert not back.queries.flags.writeable
        # a single-chunk array is a direct view over the chunk mmap
        assert back.services.base is not None

    def test_delta_publish_writes_only_changed_chunks(self, durable_store,
                                                      embeddings):
        store, root = durable_store
        queries, services = embeddings
        report = store._persist(store.snapshot(), str(root), flip=False)[1]
        assert report.chunks_written == 0  # everything already on disk
        # changing only the queries leaves every service-side chunk shared
        store.publish(queries + 0.5, services)
        snap = store.snapshot()
        report = store._persist(snap, str(root), flip=False)[1]
        assert report.chunks_written == 0
        manifest = open_snapshot(root).manifest
        v0 = open_snapshot(root, version=0).manifest
        for section in ("fp", "int8"):
            for name, refs in manifest["sections"][section]["arrays"].items():
                if (section, name) in (("fp", "queries"),
                                       ("int8", "query_scale")):
                    # The query table changed, and the frozen integer-path
                    # query scale is derived from it.
                    assert refs != v0["sections"][section]["arrays"][name]
                else:
                    assert refs == v0["sections"][section]["arrays"][name]

    def test_write_snapshot_reports_delta_counts(self, tmp_path, embeddings):
        queries, services = embeddings
        store = VersionedEmbeddingStore(queries, services, num_shards=2)
        first = write_snapshot(store.snapshot(), tmp_path)
        assert first.chunks_written == 2 and first.chunks_shared == 0
        again = write_snapshot(store.snapshot(), tmp_path)
        assert again.chunks_written == 0 and again.chunks_shared == 2

    def test_row_chunked_arrays_reassemble_and_hydrate_ranges(self, tmp_path,
                                                              embeddings):
        queries, services = embeddings
        store = VersionedEmbeddingStore(queries, services, num_shards=4,
                                        quantization=("int8",))
        snap = store.snapshot()
        write_snapshot(snap, tmp_path, rows_per_chunk=96)
        durable = open_snapshot(tmp_path)
        back = durable.to_snapshot(published_at=0.0)
        assert np.array_equal(back.services, snap.services)
        # A shard's rows are the reopened snapshot's own views: the range
        # straddles 96-row chunk boundaries and still lines up.
        lo, hi = snap.shard_bounds[1], snap.shard_bounds[2]
        assert back.shard_bounds == snap.shard_bounds
        ids, rows = back.shard(1)
        assert (ids[0], ids[-1] + 1) == (lo, hi)
        assert np.array_equal(rows, snap.services[lo:hi])
        int8 = back.int8_table().rows(lo, hi)
        published = snap.int8
        assert np.array_equal(int8.codes, published.codes[lo:hi])
        assert np.array_equal(int8.scales, published.scales)
        assert int8.query_scale == published.query_scale

    def test_open_missing_directory_raises_not_found(self, tmp_path):
        with pytest.raises(SnapshotNotFoundError):
            open_snapshot(tmp_path / "nowhere")

    def test_prune_keeps_live_versions(self, durable_store, embeddings):
        store, root = durable_store
        queries, services = embeddings
        for step in range(1, 4):
            store.publish(queries + step, services)
        removed = prune(root, keep_versions=2)
        assert removed["manifests"] >= 1
        live = open_snapshot(root)
        assert live.version == 3
        assert np.array_equal(live.to_snapshot(published_at=0.0).queries,
                              store.snapshot().queries)
        with pytest.raises(SnapshotNotFoundError):
            open_snapshot(root, version=0)


# --------------------------------------------------------------------- #
# Crash safety: every failure recovers to the last good version
# --------------------------------------------------------------------- #
class TestCrashSafety:
    def test_kill_between_chunk_write_and_pointer_flip(self, durable_store,
                                                       embeddings):
        store, root = durable_store
        queries, services = embeddings
        good = store.snapshot()
        # Simulate the crash window: v1's chunks and manifest are fully
        # durable but the process dies before the MANIFEST pointer flips.
        doomed = store._make_snapshot(queries + 1.0, services, version=1)
        write_snapshot(doomed, root, flip=False)
        assert (root / manifest_rel(1)).exists()
        assert read_pointer(root) == manifest_rel(0)
        recovered = VersionedEmbeddingStore.restore(str(root))
        assert recovered.version == good.version == 0
        assert np.array_equal(recovered.snapshot().queries, good.queries)

    def test_aborted_publish_keeps_pointer_and_deletes_orphan_manifest(
            self, durable_store, embeddings):
        store, root = durable_store
        queries, services = embeddings

        class FailingListener:
            def prepare(self, snapshot):
                raise RuntimeError("prepare failed")

            def activate(self, snapshot):  # pragma: no cover
                pass

            def retire(self, version):
                pass

        listener = FailingListener()
        store._listeners.append(listener)  # subscribe() would prepare now
        with pytest.raises(RuntimeError, match="prepare failed"):
            store.publish(queries + 2.0, services)
        store._listeners.remove(listener)
        assert store.version == 0
        assert read_pointer(root) == manifest_rel(0)
        assert not (root / manifest_rel(1)).exists()
        # the store still publishes fine afterwards
        assert store.publish(queries + 3.0, services) == 1
        assert read_pointer(root) == manifest_rel(1)

    def test_truncated_chunk_recovers_to_last_good_version(
            self, durable_store, embeddings):
        store, root = durable_store
        queries, services = embeddings
        store.publish(queries + 1.0, services)
        # truncate a chunk that only v1 references (its new query table)
        v1_refs = open_snapshot(root).manifest["sections"]["fp"]["arrays"]["queries"]
        v0_refs = open_snapshot(root, version=0).manifest["sections"]["fp"]["arrays"]["queries"]
        assert v1_refs != v0_refs
        path = root / "chunks" / f"{v1_refs[0]['chunk']}.chunk"
        path.write_bytes(path.read_bytes()[: HEADER_SIZE + 8])
        with pytest.raises(SnapshotIntegrityError, match="truncated"):
            VersionedEmbeddingStore.restore(str(root))
        recovered = VersionedEmbeddingStore.restore(str(root), version=0)
        assert recovered.version == 0
        assert np.array_equal(recovered.snapshot().queries,
                              queries.astype(np.float32))

    def test_flipped_checksum_byte_raises_typed_error(self, durable_store):
        _, root = durable_store
        _corrupt_payload_byte(root)
        with pytest.raises(SnapshotIntegrityError, match="checksum"):
            VersionedEmbeddingStore.restore(str(root))

    def test_manifest_pointing_at_missing_chunk(self, durable_store):
        _, root = durable_store
        for chunk in (root / "chunks").glob("*.chunk"):
            chunk.unlink()
        with pytest.raises(SnapshotIntegrityError, match="missing"):
            VersionedEmbeddingStore.restore(str(root))

    def test_torn_manifest_raises_typed_error(self, durable_store):
        _, root = durable_store
        path = root / manifest_rel(0)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises((SnapshotIntegrityError, SnapshotNotFoundError)):
            open_snapshot(root)

    def test_empty_pointer_raises_typed_error(self, durable_store):
        _, root = durable_store
        (root / "MANIFEST").write_text("")
        with pytest.raises(SnapshotIntegrityError, match="pointer"):
            open_snapshot(root)


# --------------------------------------------------------------------- #
# End-to-end warm start: gateway, process pool, fleet replica
# --------------------------------------------------------------------- #
class TestWarmStartServing:
    def test_warm_started_gateway_serves_bit_identical_results(
            self, durable_store):
        store, root = durable_store
        cold = ServingGateway(store, index="int8", cache_capacity=0)
        warm = deploy_gateway(warm_start=str(root), index="int8",
                              cache_capacity=0)
        try:
            assert isinstance(warm, ShardedGateway)  # manifest says 4 shards
            for query_id in range(10):
                assert cold.rank(query_id, 8) == warm.rank(query_id, 8)
        finally:
            cold.close()
            warm.close()

    def test_process_pool_hydrates_shards_from_manifest(self, durable_store):
        """Process workers fed a durable store's mmapped rows (the one
        pickled handoff) rank like serial workers over the restored store."""
        store, root = durable_store
        disk = ShardedGateway(store, index="int8", workers="process",
                              cache_capacity=0)
        ref_store = VersionedEmbeddingStore.restore(str(root))
        ref = ShardedGateway(ref_store, index="int8", workers="serial",
                             cache_capacity=0)
        try:
            wanted = list(range(12))
            assert disk.rank_batch(wanted, k=8) == ref.rank_batch(wanted, k=8)
        finally:
            disk.close()
            ref.close()

    def test_replica_revive_catches_up_from_manifest(self, durable_store,
                                                     embeddings):
        store, root = durable_store
        queries, services = embeddings
        stale_store = VersionedEmbeddingStore.restore(str(root))
        replica = FleetReplica(
            "r0", ServingGateway(stale_store, index="exact", cache_capacity=0))
        try:
            replica.kill()
            store.publish(queries + 1.0, services)  # publish while dead
            assert replica.gateway.store.version == 0
            assert replica.revive(warm_start=str(root)) == 1
            assert not replica.faulted
            assert np.array_equal(replica.gateway.store.snapshot().queries,
                                  store.snapshot().queries)
        finally:
            replica.close()

    def test_revive_without_warm_start_only_clears_faults(self, durable_store):
        store, root = durable_store
        replica = FleetReplica(
            "r1", ServingGateway(store, index="exact", cache_capacity=0))
        try:
            replica.kill()
            assert replica.revive() == store.version
            assert not replica.faulted
        finally:
            replica.close()

    def test_corrupt_snapshot_falls_back_to_model_rebuild(self, durable_store,
                                                          embeddings):
        _, root = durable_store
        queries, services = embeddings
        _corrupt_payload_byte(root)

        class FakeModel:
            def query_embeddings(self):
                return queries

            def service_embeddings(self):
                return services

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gateway = deploy_gateway(FakeModel(), warm_start=str(root),
                                     index="exact", cache_capacity=0)
        try:
            assert any("warm start" in str(w.message) for w in caught)
            assert gateway.rank(0, 5)
        finally:
            gateway.close()

    def test_corrupt_snapshot_without_model_raises(self, durable_store):
        _, root = durable_store
        _corrupt_payload_byte(root)
        with pytest.raises(SnapshotError):
            deploy_gateway(warm_start=str(root))

    def test_warm_start_shard_conflict_raises(self, durable_store):
        _, root = durable_store
        with pytest.raises(ValueError, match="shard"):
            deploy_gateway(warm_start=str(root), num_shards=2)


# --------------------------------------------------------------------- #
# Persisted index payloads
# --------------------------------------------------------------------- #
class TestIndexPayloads:
    def test_persisted_ivfpq_restores_bit_identical(self, durable_store):
        store, root = durable_store
        snap = store.snapshot()
        index = IVFPQIndex(num_subspaces=4, seed=5,
                           int8_table=snap.int8).build(snap.services)
        snap.durable.save_index(index, "ivfpq")
        restored = snap.durable.load_index("ivfpq", int8_table=snap.int8)
        queries = snap.queries[:16]
        ids_a, scores_a = index.search(queries, 10)
        ids_b, scores_b = restored.search(queries, 10)
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(scores_a, scores_b)

    def test_gateway_persist_and_warm_restore_index(self, durable_store,
                                                    monkeypatch):
        store, root = durable_store
        # Every fit in the serving tree goes through one of these names:
        # k-means (coarse cells, PQ codebooks) and the table quantizers.
        fits = []

        def counting(real):
            def counted(*args, **kwargs):
                fits.append(real.__name__)
                return real(*args, **kwargs)
            return counted

        for module, name in ((index_module, "kmeans"), (pq_module, "kmeans"),
                             (ivfpq_module, "kmeans"),
                             (ivfpq_module, "quantize_int8"),
                             (store_module, "quantize_int8")):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
        gateway = ServingGateway(store, index="ivfpq",
                                 index_params={"num_subspaces": 4},
                                 cache_capacity=0)
        expected = [gateway.rank(query_id, 8) for query_id in range(6)]
        gateway.persist_index()
        gateway.close()
        assert fits  # the cold boot trained its cells and codebooks
        fits.clear()
        warm_store = VersionedEmbeddingStore.restore(str(root))
        warm = ServingGateway(warm_store, index="ivfpq", cache_capacity=0)
        try:
            # the restored payload, not a re-trained index, answered these
            restored = warm._restore_index(warm_store.snapshot())
            assert restored is not None
            assert [warm.rank(query_id, 8) for query_id in range(6)] == expected
            # ... which is all of "warm start is fast": boot, restore and
            # serving ran no quantizer or k-means fit at all.
            assert fits == []
        finally:
            warm.close()

    def test_damaged_index_payload_warns_and_rebuilds(self, durable_store):
        store, root = durable_store
        gateway = ServingGateway(store, index="ivfpq",
                                 index_params={"num_subspaces": 4},
                                 cache_capacity=0)
        gateway.persist_index()
        gateway.close()
        sidecar = root / "manifests" / "v0-index-ivfpq.json"
        raw = sidecar.read_bytes()
        sidecar.write_bytes(raw.replace(b'"cell_size"', b'"cell_sizX"', 1))
        warm_store = VersionedEmbeddingStore.restore(str(root))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warm = ServingGateway(warm_store, index="ivfpq",
                                  index_params={"num_subspaces": 4},
                                  cache_capacity=0)
        try:
            assert any("rebuilding" in str(w.message) for w in caught)
            assert warm.rank(0, 8)
        finally:
            warm.close()

    def test_payload_restores_on_a_store_without_an_int8_table(
            self, tmp_path, embeddings):
        """The default store publishes no int8 table; its persisted IVF-PQ
        payload refines against the table the snapshot derives and is
        restored, not re-trained (regression: every warm boot warned the
        payload was unusable and rebuilt)."""
        queries, services = embeddings
        store = VersionedEmbeddingStore(queries, services,
                                        durable_dir=str(tmp_path))
        with ServingGateway(store, index="ivfpq", cache_capacity=0,
                            index_params={"num_subspaces": 4}) as gateway:
            expected = [gateway.search(query_id, 8) for query_id in range(6)]
            gateway.persist_index()
        warm_store = VersionedEmbeddingStore.restore(str(tmp_path))
        assert warm_store.quantization == ()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with ServingGateway(warm_store, index="ivfpq",
                                cache_capacity=0) as warm:
                assert warm._restore_index(warm_store.snapshot()) is not None
                found = [warm.search(query_id, 8) for query_id in range(6)]
        for (ids, scores), (want_ids, want_scores) in zip(found, expected):
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(scores, want_scores)

    @pytest.mark.parametrize("params, opq_era, restores", [
        ({"num_probes": 3, "refine_factor": 4}, False, True),
        ({}, True, False),
        ({"num_lists": 20}, False, False),
        ({"num_subspaces": 4}, False, False),
        ({"seed": 7}, False, False),
    ], ids=["search-time", "rotation", "num_lists", "num_subspaces", "seed"])
    def test_explicit_build_params_are_not_overridden_by_the_payload(
            self, durable_store, monkeypatch, params, opq_era, restores):
        """Search-time params override a restored payload; a build param it
        was not built with asks for another index, which is built — with
        no damaged-payload warning (regression: the payload was served).

        An OPQ-era payload (meta ``rotation="opq"`` plus a ``rotation``
        array; its codes live in a rotated space, stood in for here by
        reversed codebooks) is never served as plain PQ: it is cold-built
        the same way, and answers like a fresh plain build."""
        store, root = durable_store
        if opq_era:
            plain_export = IVFPQIndex.export_state

            def opq_era_export(index):
                meta, arrays = plain_export(index)
                pdim = meta["padded_dim"]
                rotation = np.linalg.qr(np.random.default_rng(3).normal(
                    size=(pdim, pdim)))[0].astype(np.float32)
                return ({**meta, "rotation": "opq", "opq_iters": 4},
                        {**arrays, "rotation": rotation,
                         "codebooks": arrays["codebooks"][:, ::-1].copy()})

            monkeypatch.setattr(IVFPQIndex, "export_state", opq_era_export)
        with ServingGateway(store, index="ivfpq", cache_capacity=0) as gateway:
            gateway.persist_index()
        monkeypatch.undo()
        warm_store = VersionedEmbeddingStore.restore(str(root))
        snapshot = warm_store.snapshot()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with ServingGateway(warm_store, index="ivfpq", index_params=params,
                                cache_capacity=0) as warm:
                assert (warm._restore_index(snapshot) is not None) == restores
                index = warm._index_for(snapshot)
                found = [warm.search(query_id, 8) for query_id in range(8)]
        fresh = IVFPQIndex(**params, int8_table=snapshot.int8_table()).build(
            snapshot.all_services())
        for query_id, (ids, scores) in enumerate(found):
            want_ids, want_scores = fresh.search(snapshot.query([query_id]), 8)
            assert np.array_equal(ids, want_ids[0])
            assert np.array_equal(scores, want_scores[0])
        for key, value in params.items():
            assert (index.num_cells if key == "num_lists"
                    else getattr(index, key)) == value

    def test_persist_index_requires_durable_snapshot(self, embeddings):
        queries, services = embeddings
        store = VersionedEmbeddingStore(queries, services)
        gateway = ServingGateway(store, index="ivf", cache_capacity=0)
        try:
            with pytest.raises(ValueError, match="durabl"):
                gateway.persist_index()
        finally:
            gateway.close()
