"""Durable chunked snapshot format with mmap warm-start.

A store version on disk is a set of content-addressed, checksummed chunk
files (:mod:`~repro.serving.snapshot.format`) behind a versioned manifest
and an atomically-flipped ``MANIFEST`` pointer
(:mod:`~repro.serving.snapshot.manifest`);
:mod:`~repro.serving.snapshot.codec` maps
:class:`~repro.serving.gateway.store.EmbeddingSnapshot` — fp tables and
int8 scales/codes (with the frozen integer-scoring query scale), kinds
registered in :data:`~repro.serving.snapshot.format.SECTION_ARRAYS` — onto
that container, and trained index payloads (IVF-PQ cells, PQ codebooks and
codes) into sidecar manifests beside it.
``write_snapshot`` publishes a delta (only chunks absent from the store hit
disk); ``open_snapshot`` mmaps everything read-only so a replica
warm-starts without re-quantizing or re-training anything.
"""

from repro.serving.snapshot.codec import (
    DurableRef,
    DurableSnapshot,
    WriteReport,
    abandon_snapshot,
    export_index_state,
    latest_version,
    open_snapshot,
    restore_index_state,
    write_snapshot,
)
from repro.serving.snapshot.format import (
    CHECKSUM_ALGO,
    FORMAT_VERSION,
    SECTION_ARRAYS,
    ChunkRef,
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    content_id,
    open_chunk,
    write_chunk,
)
from repro.serving.snapshot.manifest import (
    POINTER_NAME,
    flip_pointer,
    list_versions,
    load_manifest,
    pin_version,
    pinned_versions,
    prune,
    read_pointer,
    unpin_version,
)
from repro.serving.snapshot.transport import (
    FetchReport,
    ReplicationError,
    ReplicationIntegrityError,
    ReplicationProtocolError,
    ReplicationUnavailableError,
    SnapshotFetcher,
    SnapshotServer,
)

__all__ = [
    "CHECKSUM_ALGO",
    "ChunkRef",
    "DurableRef",
    "DurableSnapshot",
    "FORMAT_VERSION",
    "FetchReport",
    "POINTER_NAME",
    "ReplicationError",
    "ReplicationIntegrityError",
    "ReplicationProtocolError",
    "ReplicationUnavailableError",
    "SECTION_ARRAYS",
    "SnapshotError",
    "SnapshotFetcher",
    "SnapshotIntegrityError",
    "SnapshotNotFoundError",
    "SnapshotServer",
    "WriteReport",
    "abandon_snapshot",
    "content_id",
    "export_index_state",
    "flip_pointer",
    "latest_version",
    "list_versions",
    "load_manifest",
    "open_chunk",
    "open_snapshot",
    "pin_version",
    "pinned_versions",
    "prune",
    "read_pointer",
    "restore_index_state",
    "unpin_version",
    "write_chunk",
    "write_snapshot",
]
