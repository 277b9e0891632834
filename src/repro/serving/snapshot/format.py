"""Chunked on-disk container for store versions.

Each chunk is one file holding a single ndarray payload behind a
struct-packed, checksummed header (in the spirit of the ``ManHeader`` /
``ManFile`` manifest reader exemplar):

``````
offset  size  field
0       8     magic            b"RSNPCHK1"
8       2     format version   (u16)
10      2     flags            (u16, reserved)
12      4     payload crc32    (u32)
16      8     payload nbytes   (u64)
24      8     dtype            (numpy dtype ``.str``, NUL padded)
32      2     ndim             (u16, <= 4)
34      32    shape            (4 x u64, unused dims 0)
66      16    chunk id         (blake2b-128 of dtype+shape+payload)
82      4     header crc32     (u32 over bytes [0, 82))
86      10    pad              (zeros; header is 96 bytes total)
``````

Chunks are content addressed: the chunk id doubles as the file name, so a
chunk that already exists on disk never needs to be rewritten — successive
store versions share every unchanged table and a delta publish writes only
the new chunks.  Writes go to a temp file in the same directory followed by
``os.replace`` + directory fsync, so a crash mid-write never leaves a
half-written chunk under its final name.

Checksums use ``zlib.crc32``: the container has no compiled CRC32C
(Castagnoli) extension and a pure-Python CRC32C would cost ~1 s/MB, which
would erase the warm-start win the format exists to provide.  The manifest
records the algorithm (``"crc32"``) so a CRC32C codepath can be added
behind the same header field later.

Reads mmap the chunk file ``ACCESS_READ`` and expose the payload as a
zero-copy, read-only ndarray view — warm boot never copies a table.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

MAGIC = b"RSNPCHK1"
FORMAT_VERSION = 1
CHECKSUM_ALGO = "crc32"
MAX_NDIM = 4

# magic, version, flags, payload crc, nbytes, dtype, ndim, shape[4], id, hdr crc
_HEADER = struct.Struct("<8sHHIQ8sH4Q16sI10x")
HEADER_SIZE = _HEADER.size  # 96
_HEADER_CRC_OFFSET = HEADER_SIZE - 14  # start of the header-crc field

CHUNK_DIR = "chunks"
CHUNK_SUFFIX = ".chunk"

#: Registry of known snapshot chunk kinds: ``section -> array names`` a
#: version manifest may reference.  The codec validates every section it
#: writes against this table so an unregistered kind fails loudly at
#: publish time instead of producing manifests old readers half-understand.
#:
#: * ``fp``    — the full-precision query/service tables;
#: * ``int8``  — symmetric int8 codes + per-dimension scales, plus the
#:   optional frozen ``query_scale`` step (a 1-element float32 chunk) that
#:   makes the end-to-end integer scoring path bit-identical on every
#:   replica that hydrates the version.
#:
#: PQ codebooks and codes are not snapshot sections: they belong to the
#: IVF-PQ index and persist in its sidecar manifest.  An older manifest's
#: ``pq`` / ``opq`` sections are skipped: the codec reads only these kinds.
SECTION_ARRAYS = {
    "fp": ("queries", "services"),
    "int8": ("codes", "scales", "query_scale"),
}


class SnapshotError(RuntimeError):
    """Base class for durable-snapshot failures."""


class SnapshotNotFoundError(SnapshotError):
    """No manifest/pointer (or requested version) exists in the directory."""


class SnapshotIntegrityError(SnapshotError):
    """A chunk or manifest is corrupt, truncated, or missing on disk."""


@dataclass(frozen=True)
class ChunkRef:
    """Manifest-side description of one chunk file."""

    chunk_id: str  # 32 hex chars (blake2b-128)
    dtype: str  # numpy dtype ``.str`` (e.g. "<f4", "|u1")
    shape: Tuple[int, ...]
    nbytes: int
    crc32: int

    def to_json(self) -> dict:
        return {
            "chunk": self.chunk_id,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "nbytes": self.nbytes,
            "crc32": self.crc32,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ChunkRef":
        try:
            return cls(
                chunk_id=str(obj["chunk"]),
                dtype=str(obj["dtype"]),
                shape=tuple(int(s) for s in obj["shape"]),
                nbytes=int(obj["nbytes"]),
                crc32=int(obj["crc32"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotIntegrityError(f"malformed chunk ref: {obj!r}") from exc


def chunk_path(root: Path, chunk_id: str) -> Path:
    return Path(root) / CHUNK_DIR / f"{chunk_id}{CHUNK_SUFFIX}"


def _as_payload(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array)
    if array.ndim > MAX_NDIM:
        raise ValueError(f"chunk payloads support ndim <= {MAX_NDIM}, got {array.ndim}")
    return array


def content_id(array: np.ndarray) -> str:
    """Content address of an array: blake2b-128 over dtype, shape, payload."""
    array = _as_payload(array)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(array.dtype.str.encode("ascii"))
    digest.update(np.asarray(array.shape, dtype=np.uint64).tobytes())
    digest.update(array.tobytes())
    return digest.hexdigest()


def _pack_header(array: np.ndarray, chunk_id: str, payload_crc: int) -> bytes:
    shape = list(array.shape) + [0] * (MAX_NDIM - array.ndim)
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        0,
        payload_crc,
        array.nbytes,
        array.dtype.str.encode("ascii"),
        array.ndim,
        *shape,
        bytes.fromhex(chunk_id),
        0,
    )
    header_crc = zlib.crc32(header[:_HEADER_CRC_OFFSET])
    return (
        header[:_HEADER_CRC_OFFSET]
        + struct.pack("<I", header_crc)
        + header[_HEADER_CRC_OFFSET + 4 :]
    )


def fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


#: Bytes per ``write`` call.  A kernel that does not preempt inside a system
#: call (``PREEMPT_NONE``, the usual server build) lets another thread on the
#: core run only between calls: one call for a 4.6 MB chunk file held the
#: request loop off for 12-50 ms (the page cache takes that long to find the
#: pages on a virtual machine), 64 KiB slices for under a millisecond each,
#: and the file is written no slower.
WRITE_SLICE = 64 * 1024


def write_bytes_atomic(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via temp file + ``os.replace`` + fsync."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".tmp-{os.getpid()}-{path.name}"
    try:
        with open(tmp, "wb") as handle:
            view = memoryview(payload)
            for start in range(0, len(view), WRITE_SLICE):
                handle.write(view[start : start + WRITE_SLICE])
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    fsync_dir(path.parent)


def write_chunk(root: Path, array: np.ndarray) -> Tuple[ChunkRef, bool]:
    """Persist ``array`` as a content-addressed chunk under ``root``.

    Returns ``(ref, written)`` — ``written`` is False when an identical
    chunk already existed on disk (the delta-publish fast path).
    """
    array = _as_payload(array)
    chunk_id = content_id(array)
    payload_crc = zlib.crc32(array.tobytes())
    ref = ChunkRef(
        chunk_id=chunk_id,
        dtype=array.dtype.str,
        shape=tuple(int(s) for s in array.shape),
        nbytes=int(array.nbytes),
        crc32=payload_crc,
    )
    path = chunk_path(root, chunk_id)
    if path.exists():
        return ref, False
    write_bytes_atomic(path, _pack_header(array, chunk_id, payload_crc) + array.tobytes())
    return ref, True


def open_chunk(root: Path, ref: ChunkRef, *, verify: bool = True) -> np.ndarray:
    """mmap a chunk read-only and return a zero-copy ndarray view.

    Raises :class:`SnapshotIntegrityError` when the chunk is missing,
    truncated, or fails any checksum / header cross-check against ``ref``.
    """
    path = chunk_path(root, ref.chunk_id)
    try:
        with open(path, "rb") as handle:
            buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except FileNotFoundError as exc:
        raise SnapshotIntegrityError(
            f"manifest points at missing chunk {ref.chunk_id} ({path})"
        ) from exc
    except ValueError as exc:  # zero-byte file cannot be mapped
        raise SnapshotIntegrityError(f"chunk {ref.chunk_id} is empty ({path})") from exc
    try:
        return _view_chunk(buffer, ref, path, verify=verify)
    except SnapshotError:
        buffer.close()
        raise


def _view_chunk(
    buffer: mmap.mmap, ref: ChunkRef, path: Path, *, verify: bool
) -> np.ndarray:
    if len(buffer) < HEADER_SIZE:
        raise SnapshotIntegrityError(f"chunk {ref.chunk_id} truncated mid-header ({path})")
    fields = _HEADER.unpack(buffer[:HEADER_SIZE])
    magic, version, _flags, payload_crc, nbytes, dtype_raw, ndim = fields[:7]
    shape_raw = fields[7 : 7 + MAX_NDIM]
    chunk_id_raw, header_crc = fields[-2], fields[-1]
    if magic != MAGIC:
        raise SnapshotIntegrityError(f"chunk {ref.chunk_id} has bad magic ({path})")
    if version != FORMAT_VERSION:
        raise SnapshotIntegrityError(
            f"chunk {ref.chunk_id} has unsupported format version {version}"
        )
    if zlib.crc32(buffer[:_HEADER_CRC_OFFSET]) != header_crc:
        raise SnapshotIntegrityError(f"chunk {ref.chunk_id} header checksum mismatch")
    dtype = dtype_raw.rstrip(b"\x00").decode("ascii")
    shape = tuple(int(s) for s in shape_raw[:ndim])
    if (
        chunk_id_raw.hex() != ref.chunk_id
        or dtype != ref.dtype
        or shape != ref.shape
        or int(nbytes) != ref.nbytes
        or int(payload_crc) != ref.crc32
    ):
        raise SnapshotIntegrityError(
            f"chunk {ref.chunk_id} header disagrees with its manifest entry"
        )
    if len(buffer) != HEADER_SIZE + nbytes:
        raise SnapshotIntegrityError(
            f"chunk {ref.chunk_id} truncated: expected {HEADER_SIZE + nbytes} bytes, "
            f"found {len(buffer)}"
        )
    if verify:
        payload = memoryview(buffer)[HEADER_SIZE:]
        try:
            actual_crc = zlib.crc32(payload)
        finally:
            payload.release()
        if actual_crc != payload_crc:
            raise SnapshotIntegrityError(
                f"chunk {ref.chunk_id} payload checksum mismatch"
            )
    array = np.frombuffer(buffer, dtype=np.dtype(dtype), count=-1, offset=HEADER_SIZE)
    return array.reshape(shape)


def verify_chunk_bytes(raw: bytes, ref: ChunkRef, *, source: str = "<wire>") -> np.ndarray:
    """Validate one chunk held fully in memory against its manifest ref.

    Runs the exact header/checksum/cross-check pipeline :func:`open_chunk`
    applies to an mmapped file, but over a byte string — this is what the
    replication fetcher uses to verify a chunk *as it arrives off the
    wire*, before the bytes are allowed to land in the local chunk store.
    Returns the decoded array view; raises :class:`SnapshotIntegrityError`
    on any damage (truncation, bit flip, header/manifest disagreement).
    """
    return _view_chunk(raw, ref, Path(source), verify=True)


def write_array_chunks(
    root: Path, array: np.ndarray, *, rows_per_chunk: Optional[int] = None
) -> Tuple[list, int, int]:
    """Write an array as one chunk, or as row blocks of ``rows_per_chunk``.

    Returns ``(refs, chunks_written, bytes_written)``.  Row-chunking only
    applies to arrays with >= 1 dim; 0-d arrays always get a single chunk.
    """
    array = _as_payload(array)
    if rows_per_chunk is None or array.ndim == 0 or array.shape[0] <= rows_per_chunk:
        blocks = [array]
    else:
        blocks = [
            array[lo : lo + rows_per_chunk]
            for lo in range(0, array.shape[0], rows_per_chunk)
        ]
    refs, written, nbytes = [], 0, 0
    for block in blocks:
        ref, was_written = write_chunk(root, block)
        refs.append(ref)
        if was_written:
            written += 1
            nbytes += ref.nbytes
    return refs, written, nbytes


def open_array(root: Path, refs: Sequence[ChunkRef], *, verify: bool = True) -> np.ndarray:
    """Reassemble an array from its chunk refs.

    A single-chunk array comes back as a zero-copy mmap view; a row-chunked
    array is concatenated (one copy) since callers need one contiguous table.
    """
    views = [open_chunk(root, ref, verify=verify) for ref in refs]
    if len(views) == 1:
        return views[0]
    return np.concatenate(views, axis=0)
