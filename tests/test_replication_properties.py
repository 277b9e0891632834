"""Randomized properties of wire snapshot replication.

Two invariants hold for *any* publish history, not just the curated cases
in the fault-matrix tier, so they are checked here over randomized publish
sequences:

* **delta economics** — the set of chunk ids a fetch moves over the wire
  is exactly the set difference between the peer's live content ids and
  what the local chunk store already holds (content addressing makes the
  transfer plan a set subtraction, never a heuristic);
* **resume economics** — across any sequence of mid-fetch kills and
  resumes, no chunk that landed durably ever crosses the wire twice
  (counted by a server-side transport wrapper, the honest tally).
"""

import numpy as np
import pytest

from repro.serving.gateway.store import VersionedEmbeddingStore
from repro.serving.snapshot import SnapshotFetcher, SnapshotServer, load_manifest
from repro.serving.snapshot.manifest import (
    MANIFEST_DIR,
    _referenced_chunks,
    read_pointer,
)

# Every test stops its servers and peers: see conftest.py.
pytestmark = pytest.mark.usefixtures("no_leaked_threads_or_pins")

DIM = 8


class KilledFetch(RuntimeError):
    pass


def make_store(root, rng, num_services):
    queries = rng.standard_normal((12, DIM)).astype(np.float32)
    services = rng.standard_normal((num_services, DIM)).astype(np.float32)
    return VersionedEmbeddingStore(
        queries, services, num_shards=2, quantization=("int8",),
        durable_dir=str(root), durable_rows_per_chunk=16,
    )


def random_publish(store, rng):
    """Perturb a random slice of the service table and publish it."""
    snapshot = store.snapshot()
    queries = np.asarray(snapshot.queries).copy()
    services = np.asarray(snapshot.services).copy()
    rows = rng.integers(0, services.shape[0], size=rng.integers(1, 24))
    services[rows] += rng.standard_normal((rows.size, DIM)).astype(np.float32)
    store.publish(queries, services)


def live_content_ids(root):
    """Chunk ids the live manifest (and its index sidecars) reference."""
    rel = read_pointer(root)
    manifest = load_manifest(root, rel)
    ids = set(_referenced_chunks(manifest))
    version = int(manifest["version"])
    for path in (root / MANIFEST_DIR).glob(f"v{version}-index-*.json"):
        ids |= _referenced_chunks(load_manifest(root, f"{MANIFEST_DIR}/{path.name}"))
    return ids


def local_chunk_ids(root):
    return {path.stem for path in root.glob("chunks/*.chunk")}


def counting_filter(counts):
    def chunk_filter(chunk_id, raw):
        counts[chunk_id] = counts.get(chunk_id, 0) + 1
        return raw

    return chunk_filter


@pytest.mark.parametrize("seed", range(4))
def test_fetched_set_is_exactly_the_content_id_difference(tmp_path, seed):
    rng = np.random.default_rng(100 + seed)
    src = tmp_path / "src"
    src.mkdir()
    dst = tmp_path / "dst"
    dst.mkdir()
    store = make_store(src, rng, num_services=int(rng.integers(48, 96)))
    for _ in range(int(rng.integers(0, 3))):
        random_publish(store, rng)

    counts = {}
    with SnapshotServer(src, chunk_filter=counting_filter(counts)) as server:
        for _round in range(3):
            expected = live_content_ids(src) - local_chunk_ids(dst)
            counts.clear()
            report = SnapshotFetcher(server.address, dst).fetch()
            assert set(counts) == expected, (
                "wire transfer set diverged from the content-id set difference"
            )
            assert report.chunks_fetched == len(expected)
            assert all(n == 1 for n in counts.values())
            # Mutate the source for the next round's delta.
            for _ in range(int(rng.integers(1, 3))):
                random_publish(store, rng)


@pytest.mark.parametrize("seed", range(4))
def test_resume_never_retransfers_a_landed_chunk(tmp_path, seed):
    rng = np.random.default_rng(200 + seed)
    src = tmp_path / "src"
    src.mkdir()
    dst = tmp_path / "dst"
    dst.mkdir()
    store = make_store(src, rng, num_services=int(rng.integers(64, 128)))
    for _ in range(int(rng.integers(0, 2))):
        random_publish(store, rng)

    counts = {}
    with SnapshotServer(src, chunk_filter=counting_filter(counts)) as server:
        total = len(live_content_ids(src))
        assert total >= 3, "store too small to exercise mid-fetch kills"
        # Kill the fetch at random points until one run survives; every
        # landed chunk must cross the wire exactly once across the whole
        # kill/resume history.
        for _attempt in range(32):
            kill_at = int(rng.integers(1, total))
            state = {"landed": 0}

            def killer(chunk_id, nbytes, state=state, kill_at=kill_at):
                state["landed"] += 1
                if state["landed"] >= kill_at:
                    raise KilledFetch()

            fetcher = SnapshotFetcher(server.address, dst, observer=killer)
            try:
                fetcher.fetch()
                break
            except KilledFetch:
                continue
        else:
            SnapshotFetcher(server.address, dst).fetch()

    assert local_chunk_ids(dst) >= live_content_ids(src)
    assert read_pointer(dst) == read_pointer(src)
    retransferred = {cid: n for cid, n in counts.items() if n > 1}
    assert not retransferred, (
        f"chunks crossed the wire more than once: {retransferred}"
    )
