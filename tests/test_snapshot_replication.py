"""Fault-matrix tier for wire snapshot replication.

The wire path (``repro.serving.snapshot.transport``) is only trustworthy
under systematic damage, so this tier drives every fault the protocol
claims to survive — {kill between chunk N and N+1, truncated chunk frame,
flipped payload byte, server death mid-fetch, fetch racing a concurrent
publish} — against both a **cold** host (empty durable dir) and a
**partially-hydrated** host (a previous fetch died mid-stream).  Every
case must either complete bit-identically to the source directory or fail
with a typed :class:`ReplicationError`, leaving the local directory at
its last good version (mirroring the PR 8 crash-safety contract).
"""

import socket
import threading

import numpy as np
import pytest

from repro.serving.fleet.replica import FleetReplica
from repro.serving.gateway.gateway import deploy_gateway
from repro.serving.gateway.store import VersionedEmbeddingStore
from repro.serving.snapshot import (
    ReplicationError,
    ReplicationIntegrityError,
    ReplicationProtocolError,
    ReplicationUnavailableError,
    SnapshotError,
    SnapshotFetcher,
    SnapshotIntegrityError,
    SnapshotServer,
    list_versions,
    pin_version,
    pinned_versions,
    prune,
    read_pointer,
    unpin_version,
)
from repro.serving.snapshot.transport import (
    FRAME_DATA,
    FRAME_ERR,
    FRAME_META,
    PeerConnection,
    recv_frame,
    send_frame,
)

DIM = 8


class KilledFetch(RuntimeError):
    """Stands in for a process death between two landed chunks."""


class TinyModel:
    """The smallest model ``deploy_gateway`` can rebuild a store from."""

    def query_embeddings(self):
        return np.zeros((4, DIM), dtype=np.float32)

    def service_embeddings(self):
        return np.eye(DIM, dtype=np.float32)


class StubPeer:
    """A raw-socket peer that answers every request with the same frames.

    ``chunk_filter`` only reaches chunk payloads; this stub can put any
    bytes in any frame, which is how the malformed-reply rows are made.
    """

    def __init__(self, *frames):
        self.frames = frames  # (kind, payload) pairs, sent in order
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def address(self):
        return self._listener.getsockname()[:2]

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stopping.set()
        self._thread.join(timeout=5.0)
        self._listener.close()

    def _serve(self):
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(5.0)
                try:
                    while True:
                        recv_frame(conn)
                        for kind, payload in self.frames:
                            send_frame(conn, kind, payload)
                except (ReplicationError, OSError):
                    pass  # the client hung up


# --------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------- #
def make_source(tmp_path, seed=7, keep_last=None, versions=1):
    """A durable source store with enough chunks for mid-fetch faults."""
    rng = np.random.default_rng(seed)
    src = tmp_path / "src"
    src.mkdir(exist_ok=True)
    queries = rng.standard_normal((24, DIM)).astype(np.float32)
    services = rng.standard_normal((96, DIM)).astype(np.float32)
    store = VersionedEmbeddingStore(
        queries, services, num_shards=2, quantization=("int8",),
        durable_dir=str(src), durable_rows_per_chunk=32, keep_last=keep_last,
    )
    for _ in range(versions - 1):
        services = services.copy()
        services[:8] += rng.standard_normal((8, DIM)).astype(np.float32)
        store.publish(queries, services)
    return store, src


def kill_after(n):
    """Observer that raises once ``n`` chunks have landed durably."""
    seen = {"count": 0}

    def observer(chunk_id, nbytes):
        seen["count"] += 1
        if seen["count"] >= n:
            raise KilledFetch(f"process died after chunk {n}")

    return observer


def counting_filter(counts):
    """Server-side transfer counter: the honest wire-level tally."""

    def chunk_filter(chunk_id, raw):
        counts[chunk_id] = counts.get(chunk_id, 0) + 1
        return raw

    return chunk_filter


def dir_files(root):
    """Relative path -> bytes for every file under a durable dir."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def assert_bit_identical(src, dst):
    """The destination holds byte-for-byte what the source holds."""
    src_files, dst_files = dir_files(src), dir_files(dst)
    assert set(src_files) == set(dst_files)
    for rel, payload in src_files.items():
        assert dst_files[rel] == payload, f"{rel} differs after replication"


def assert_live_version_identical(src, dst):
    """The destination's live version closure is byte-for-byte the source's.

    Replication moves *versions*, not directory history — a source that
    kept older manifests on disk ships only its live manifest, sidecars,
    and referenced chunks.
    """
    from repro.serving.snapshot import load_manifest
    from repro.serving.snapshot.manifest import MANIFEST_DIR, _referenced_chunks

    rel = read_pointer(src)
    assert read_pointer(dst) == rel
    manifest = load_manifest(src, rel)
    version = int(manifest["version"])
    wanted = [rel] + [
        f"{MANIFEST_DIR}/{p.name}"
        for p in sorted((src / MANIFEST_DIR).glob(f"v{version}-index-*.json"))
    ]
    chunk_ids = set(_referenced_chunks(manifest))
    for side in wanted[1:]:
        chunk_ids |= _referenced_chunks(load_manifest(src, side))
    wanted += [f"chunks/{chunk_id}.chunk" for chunk_id in sorted(chunk_ids)]
    for member in wanted:
        assert (dst / member).read_bytes() == (src / member).read_bytes(), (
            f"{member} differs after replication"
        )


def make_host(kind, tmp_path, server):
    """A destination dir in one of the matrix's host states."""
    dst = tmp_path / f"dst_{kind}"
    dst.mkdir(exist_ok=True)
    if kind == "partial":
        # A previous hydration died between chunk 1 and chunk 2: some
        # chunks landed, no manifest, no pointer — the resume case.
        fetcher = SnapshotFetcher(server.address, dst, observer=kill_after(1))
        with pytest.raises(KilledFetch):
            fetcher.fetch()
        assert any(dst.glob("chunks/*.chunk"))
        assert not (dst / "MANIFEST").exists()
    return dst


def assert_last_good_state(dst, before):
    """A failed fetch must leave the dir exactly as it found it, modulo
    extra *verified* chunks (which are harmless and enable the resume)."""
    after = dir_files(dst)
    for rel, payload in before.items():
        assert after.get(rel) == payload, f"{rel} changed across a failed fetch"
    for rel in after:
        if rel not in before:
            assert rel.startswith("chunks/"), f"unexpected non-chunk file {rel}"
    if "MANIFEST" not in before:
        assert not (dst / "MANIFEST").exists()


HOST_STATES = ["cold", "partial"]


# --------------------------------------------------------------------- #
# Round trip
# --------------------------------------------------------------------- #
class TestReplicationRoundTrip:
    def test_cold_fetch_is_bit_identical(self, tmp_path):
        _store, src = make_source(tmp_path)
        dst = tmp_path / "dst"
        dst.mkdir()
        with SnapshotServer(src) as server:
            report = SnapshotFetcher(server.address, dst).fetch()
        assert report.flipped and report.chunks_fetched > 0
        assert_bit_identical(src, dst)
        assert read_pointer(dst) == read_pointer(src)

    def test_refetch_transfers_nothing(self, tmp_path):
        _store, src = make_source(tmp_path)
        dst = tmp_path / "dst"
        dst.mkdir()
        counts = {}
        with SnapshotServer(src, chunk_filter=counting_filter(counts)) as server:
            SnapshotFetcher(server.address, dst).fetch()
            first = dict(counts)
            report = SnapshotFetcher(server.address, dst).fetch()
        assert report.chunks_fetched == 0 and report.bytes_fetched == 0
        assert counts == first, "an already-hydrated host re-transferred chunks"

    def test_delta_fetch_moves_only_changed_chunks(self, tmp_path):
        store, src = make_source(tmp_path)
        dst = tmp_path / "dst"
        dst.mkdir()
        with SnapshotServer(src) as server:
            cold = SnapshotFetcher(server.address, dst).fetch()
            snapshot = store.snapshot()
            services = np.asarray(snapshot.services).copy()
            services[:4] += 0.25  # touches one service chunk per shard table
            store.publish(np.asarray(snapshot.queries).copy(), services)
            delta = SnapshotFetcher(server.address, dst).fetch()
        assert delta.version == cold.version + 1
        assert 0 < delta.chunks_fetched < cold.chunks_fetched
        assert 0 < delta.bytes_fetched < 0.5 * cold.bytes_fetched
        assert delta.chunks_already_local > 0
        assert_bit_identical(src, dst)

    def test_hydrated_store_restores_identically(self, tmp_path):
        _store, src = make_source(tmp_path)
        dst = tmp_path / "dst"
        dst.mkdir()
        with SnapshotServer(src) as server:
            SnapshotFetcher(server.address, dst).fetch()
        a = VersionedEmbeddingStore.restore(str(src)).snapshot()
        b = VersionedEmbeddingStore.restore(str(dst)).snapshot()
        assert a.version == b.version
        assert np.array_equal(np.asarray(a.queries), np.asarray(b.queries))
        assert np.array_equal(np.asarray(a.services), np.asarray(b.services))
        assert a.shard_bounds == b.shard_bounds
        int8_a, int8_b = a.quantized["int8"], b.quantized["int8"]
        assert np.array_equal(np.asarray(int8_a.codes), np.asarray(int8_b.codes))

    def test_empty_disk_gateway_boots_from_peer(self, tmp_path):
        store, src = make_source(tmp_path)
        dst = tmp_path / "dst"
        dst.mkdir()
        with SnapshotServer(src) as server:
            gateway = deploy_gateway(warm_start=str(dst),
                                     remote_peer=server.address)
        try:
            assert gateway.store.version == store.version
            ids, _scores = gateway.search(3, k=5)
            assert len(ids) == 5
        finally:
            gateway.close()
        assert_bit_identical(src, dst)

    def test_remote_peer_requires_warm_start_dir(self, tmp_path):
        with pytest.raises(ValueError, match="warm_start"):
            deploy_gateway(remote_peer=("127.0.0.1", 1))

    def test_replica_revives_over_the_wire(self, tmp_path):
        store, src = make_source(tmp_path, versions=2)
        boot = tmp_path / "boot"
        boot.mkdir()
        with SnapshotServer(src) as server:
            gateway = deploy_gateway(warm_start=str(boot),
                                     remote_peer=server.address)
            try:
                replica = FleetReplica("r1", gateway)
                replica.kill()
                fresh = tmp_path / "fresh"
                fresh.mkdir()
                version = replica.revive(warm_start=str(fresh),
                                         remote_peer=server.address)
            finally:
                gateway.close()
        assert version == store.version
        assert_live_version_identical(src, fresh)

    def test_fetch_never_moves_a_host_backwards(self, tmp_path):
        store, src = make_source(tmp_path, versions=3)
        dst = tmp_path / "dst"
        dst.mkdir()
        with SnapshotServer(src) as server:
            SnapshotFetcher(server.address, dst).fetch()
            newer = read_pointer(dst)
            report = SnapshotFetcher(server.address, dst).fetch(version=0)
        assert report.version == 0 and report.flipped is False
        assert read_pointer(dst) == newer


# --------------------------------------------------------------------- #
# Fault matrix
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("host", HOST_STATES)
class TestFaultMatrix:
    def test_kill_between_chunks_then_resume(self, tmp_path, host):
        _store, src = make_source(tmp_path)
        counts = {}
        with SnapshotServer(src, chunk_filter=counting_filter(counts)) as server:
            dst = make_host(host, tmp_path, server)
            before = dir_files(dst)
            fetcher = SnapshotFetcher(server.address, dst,
                                      observer=kill_after(2))
            with pytest.raises(KilledFetch):
                fetcher.fetch()
            assert_last_good_state(dst, before)
            landed = {path.stem for path in dst.glob("chunks/*.chunk")}
            # The resume transfers nothing that already landed durably.
            SnapshotFetcher(server.address, dst).fetch()
        assert_bit_identical(src, dst)
        for chunk_id in landed:
            assert counts.get(chunk_id, 0) <= 1, (
                f"chunk {chunk_id} crossed the wire twice across a resume"
            )

    def test_truncated_chunk_frame_fails_typed(self, tmp_path, host):
        _store, src = make_source(tmp_path)

        def truncate(chunk_id, raw):
            return raw[: len(raw) - 9]

        with SnapshotServer(src) as setup_server:
            dst = make_host(host, tmp_path, setup_server)
        before = dir_files(dst)
        with SnapshotServer(src, chunk_filter=truncate) as server:
            fetcher = SnapshotFetcher(server.address, dst, retries=2,
                                      backoff_s=0.01)
            with pytest.raises(ReplicationIntegrityError):
                fetcher.fetch()
        assert dir_files(dst) == before  # nothing unverified may land

    def test_flipped_payload_byte_fails_typed(self, tmp_path, host):
        _store, src = make_source(tmp_path)

        def flip_bit(chunk_id, raw):
            body = bytearray(raw)
            body[-1] ^= 0x40  # damage the payload, keep the length
            return bytes(body)

        with SnapshotServer(src) as setup_server:
            dst = make_host(host, tmp_path, setup_server)
        before = dir_files(dst)
        with SnapshotServer(src, chunk_filter=flip_bit) as server:
            fetcher = SnapshotFetcher(server.address, dst, retries=2,
                                      backoff_s=0.01)
            with pytest.raises(ReplicationIntegrityError):
                fetcher.fetch()
        assert dir_files(dst) == before

    def test_server_death_mid_fetch_fails_typed(self, tmp_path, host):
        _store, src = make_source(tmp_path)
        server = SnapshotServer(src)
        server.start()
        try:
            dst = make_host(host, tmp_path, server)
            before = dir_files(dst)

            def die(chunk_id, nbytes):
                server.stop()

            fetcher = SnapshotFetcher(server.address, dst, retries=2,
                                      backoff_s=0.01, observer=die)
            with pytest.raises(ReplicationUnavailableError):
                fetcher.fetch()
        finally:
            server.stop()
        assert_last_good_state(dst, before)

    def test_fetch_racing_concurrent_publish(self, tmp_path, host):
        store, src = make_source(tmp_path, keep_last=1)
        with SnapshotServer(src) as server:
            dst = make_host(host, tmp_path, server)
            pinned_version = store.version
            published = {"done": False}

            def publish_midway(chunk_id, nbytes):
                if published["done"]:
                    return
                published["done"] = True
                snapshot = store.snapshot()
                services = np.asarray(snapshot.services).copy() + 0.5
                store.publish(np.asarray(snapshot.queries).copy(), services)

            fetcher = SnapshotFetcher(server.address, dst,
                                      observer=publish_midway)
            report = fetcher.fetch()
            assert published["done"], "the racing publish never ran"
            assert report.version == pinned_version
            # The fetched (old) version must be complete and openable even
            # though keep_last=1 pruning ran on the source mid-stream.
            restored = VersionedEmbeddingStore.restore(str(dst),
                                                       version=pinned_version)
            assert restored.version == pinned_version
            # A follow-up fetch converges on the new live version.
            SnapshotFetcher(server.address, dst).fetch()
        assert read_pointer(dst) == read_pointer(src)

    def test_transient_fault_heals_within_retries(self, tmp_path, host):
        _store, src = make_source(tmp_path)
        failed = {"done": False}

        def fail_once(chunk_id, raw):
            if not failed["done"]:
                failed["done"] = True
                return raw[: len(raw) // 2]
            return raw

        with SnapshotServer(src) as setup_server:
            dst = make_host(host, tmp_path, setup_server)
        failed["done"] = False
        with SnapshotServer(src, chunk_filter=fail_once) as server:
            report = SnapshotFetcher(server.address, dst, retries=3,
                                     backoff_s=0.01).fetch()
        assert report.retries >= 1
        assert_bit_identical(src, dst)


# --------------------------------------------------------------------- #
# Error taxonomy
# --------------------------------------------------------------------- #
class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(ReplicationError, SnapshotError)
        assert issubclass(ReplicationIntegrityError, SnapshotIntegrityError)
        assert issubclass(ReplicationUnavailableError, ConnectionError)

    def test_unreachable_peer_is_typed(self, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        fetcher = SnapshotFetcher(("127.0.0.1", free_port), tmp_path,
                                  retries=2, backoff_s=0.01)
        with pytest.raises(ReplicationUnavailableError):
            fetcher.fetch()

    def test_missing_version_is_typed(self, tmp_path):
        _store, src = make_source(tmp_path)
        dst = tmp_path / "dst"
        dst.mkdir()
        with SnapshotServer(src) as server:
            fetcher = SnapshotFetcher(server.address, dst, retries=2,
                                      backoff_s=0.01)
            with pytest.raises(ReplicationError):
                fetcher.fetch(version=99)
        assert not (dst / "MANIFEST").exists()

    def test_failed_wire_boot_falls_back_to_model(self, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        dst = tmp_path / "dst"
        dst.mkdir()
        with pytest.warns(RuntimeWarning, match="warm start"):
            gateway = deploy_gateway(model=TinyModel(), warm_start=str(dst),
                                     remote_peer=("127.0.0.1", free_port))
        try:
            assert gateway.store.num_services == DIM
        finally:
            gateway.close()


MALFORMED_REPLIES = {
    "err-body-not-json": [(FRAME_ERR, b"\xff\xfe not json")],
    "err-body-json-list": [(FRAME_ERR, b'["protocol", "rejected"]')],
    "meta-body-json-list": [(FRAME_META, b'[{"data": true}]')],
    "nbytes-not-an-integer": [(FRAME_META, b'{"data": true, "nbytes": "three"}'),
                              (FRAME_DATA, b"abc")],
}
each_malformed_reply = pytest.mark.parametrize(
    "reply", list(MALFORMED_REPLIES.values()), ids=list(MALFORMED_REPLIES))


class TestMalformedPeerReplies:
    """Whatever bytes a peer sends back, the failure stays a ReplicationError."""

    @each_malformed_reply
    def test_request_raises_protocol_error(self, reply):
        with StubPeer(*reply) as peer:
            conn = PeerConnection(peer.address, timeout_s=5.0)
            try:
                with pytest.raises(ReplicationProtocolError):
                    conn.request({"op": "manifest"})
            finally:
                conn.close(polite=False)

    @each_malformed_reply
    def test_fetch_fails_typed_and_lands_nothing(self, tmp_path, reply):
        with StubPeer(*reply) as peer:
            fetcher = SnapshotFetcher(peer.address, tmp_path, retries=2,
                                      backoff_s=0.01, timeout_s=5.0)
            with pytest.raises(ReplicationUnavailableError,
                               match="manifest fetch"):
                fetcher.fetch()
        assert not (tmp_path / "MANIFEST").exists()

    def test_malformed_peer_boot_falls_back_to_model(self, tmp_path):
        dst = tmp_path / "dst"
        dst.mkdir()
        with StubPeer(*MALFORMED_REPLIES["err-body-json-list"]) as peer:
            with pytest.warns(RuntimeWarning, match="warm start"):
                gateway = deploy_gateway(model=TinyModel(), warm_start=str(dst),
                                         remote_peer=peer.address)
        try:
            assert gateway.store.num_services == DIM
        finally:
            gateway.close()


# --------------------------------------------------------------------- #
# Prune / pin interaction (regression for prune-during-fetch)
# --------------------------------------------------------------------- #
class TestPruneDuringFetch:
    def test_pin_shields_version_from_prune(self, tmp_path):
        store, src = make_source(tmp_path, versions=3)
        pin_version(src, 0)
        try:
            prune(src, keep_versions=1)
            assert 0 in list_versions(src)
            restored = VersionedEmbeddingStore.restore(str(src), version=0)
            assert restored.version == 0
        finally:
            unpin_version(src, 0)
        prune(src, keep_versions=1)
        assert 0 not in list_versions(src)

    def test_unpin_is_refcounted(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        pin_version(src, 5)
        pin_version(src, 5)
        unpin_version(src, 5)
        assert pinned_versions(src) == {5}
        unpin_version(src, 5)
        assert pinned_versions(src) == set()
        unpin_version(src, 5)  # idempotent past zero
        assert pinned_versions(src) == set()

    def test_server_pins_release_after_fetch(self, tmp_path):
        _store, src = make_source(tmp_path)
        dst = tmp_path / "dst"
        dst.mkdir()
        with SnapshotServer(src) as server:
            SnapshotFetcher(server.address, dst).fetch()
            assert server.pinned_count() == 0
        assert pinned_versions(src) == set()

    def test_keep_last_prune_spares_mid_stream_manifest(self, tmp_path):
        store, src = make_source(tmp_path, keep_last=1)
        dst = tmp_path / "dst"
        dst.mkdir()
        streamed = store.version
        with SnapshotServer(src) as server:

            def publish_twice(chunk_id, nbytes):
                if store.version != streamed:
                    return
                snapshot = store.snapshot()
                queries = np.asarray(snapshot.queries).copy()
                services = np.asarray(snapshot.services).copy()
                store.publish(queries, services + 0.25)
                store.publish(queries, services + 0.75)

            report = SnapshotFetcher(server.address, dst,
                                     observer=publish_twice).fetch()
            assert store.version == streamed + 2  # both prunes really ran
            assert report.version == streamed
        # Once the session unpinned, the old version is prunable again.
        prune(src, keep_versions=1)
        assert list_versions(src) == [streamed + 2]
