"""Versioned snapshot manifests behind an atomically-flipped pointer.

Directory layout::

    <root>/
      MANIFEST                 # pointer file: relative path of the live manifest
      manifests/v<N>.json      # immutable manifest for store version N
      manifests/v<N>-index-<kind>.json   # optional persisted index payloads
      chunks/<blake2b128>.chunk          # content-addressed chunk store

A manifest file is ``{"crc32": <u32>, "manifest": {...}}`` — the checksum
covers the canonical (sorted-keys) JSON of the inner object, so a torn or
bit-flipped manifest fails loudly instead of deserialising garbage.

Publishing a version is two separable steps: :func:`write_manifest` makes
the version durable (chunks + manifest file), and :func:`flip_pointer`
atomically repoints ``MANIFEST`` (write-temp + ``os.replace`` + fsync).  A
crash between the two leaves the pointer naming the previous good version,
which is exactly the recovery contract the crash-safety tests exercise.
"""

from __future__ import annotations

import json
import threading
import zlib
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.serving.snapshot.format import (
    CHUNK_DIR,
    CHUNK_SUFFIX,
    ChunkRef,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    write_bytes_atomic,
)

POINTER_NAME = "MANIFEST"
MANIFEST_DIR = "manifests"
MANIFEST_FORMAT = "repro-snapshot"
MANIFEST_FORMAT_VERSION = 1


def manifest_rel(version: int) -> str:
    return f"{MANIFEST_DIR}/v{int(version)}.json"


def index_manifest_rel(version: int, kind: str) -> str:
    return f"{MANIFEST_DIR}/v{int(version)}-index-{kind}.json"


def _canonical(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_manifest(root: Path, manifest: dict, rel: str) -> str:
    """Write a self-checksummed manifest file at ``<root>/<rel>``."""
    body = _canonical(manifest)
    envelope = {"crc32": zlib.crc32(body), "manifest": manifest}
    write_bytes_atomic(Path(root) / rel, json.dumps(envelope, indent=2).encode("utf-8"))
    return rel


def decode_manifest(raw: bytes, source: str = "<bytes>") -> dict:
    """Decode and integrity-check one manifest envelope held in memory.

    This is the byte-level half of :func:`load_manifest`, split out so the
    replication fetcher can validate a manifest *as it arrives off the
    wire* — before anything touches the local directory.
    """
    try:
        envelope = json.loads(raw)
        manifest = envelope["manifest"]
        expected = int(envelope["crc32"])
    except (ValueError, KeyError, TypeError) as exc:
        raise SnapshotIntegrityError(f"manifest {source} is not valid JSON") from exc
    if zlib.crc32(_canonical(manifest)) != expected:
        raise SnapshotIntegrityError(f"manifest {source} failed its checksum")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise SnapshotIntegrityError(f"manifest {source} has unknown format")
    return manifest


def load_manifest(root: Path, rel: str) -> dict:
    """Load and integrity-check the manifest at ``<root>/<rel>``."""
    path = Path(root) / rel
    try:
        raw = path.read_bytes()
    except FileNotFoundError as exc:
        raise SnapshotNotFoundError(f"no manifest at {path}") from exc
    return decode_manifest(raw, source=str(path))


def flip_pointer(root: Path, rel: str) -> None:
    """Atomically repoint ``MANIFEST`` at the manifest file ``rel``."""
    write_bytes_atomic(Path(root) / POINTER_NAME, (rel + "\n").encode("utf-8"))


def read_pointer(root: Path) -> str:
    path = Path(root) / POINTER_NAME
    try:
        rel = path.read_text(encoding="utf-8").strip()
    except FileNotFoundError as exc:
        raise SnapshotNotFoundError(f"no snapshot pointer at {path}") from exc
    if not rel:
        raise SnapshotIntegrityError(f"snapshot pointer {path} is empty")
    return rel


def list_versions(root: Path) -> List[int]:
    """Store versions with a manifest file on disk, ascending."""
    mdir = Path(root) / MANIFEST_DIR
    versions = []
    if mdir.is_dir():
        for path in mdir.glob("v*.json"):
            stem = path.stem  # v<N> or v<N>-index-<kind>
            if "-" in stem:
                continue
            try:
                versions.append(int(stem[1:]))
            except ValueError:
                continue
    return sorted(versions)


def delete_manifest(root: Path, rel: str) -> None:
    """Remove an orphan manifest file (e.g. after an aborted publish)."""
    path = Path(root) / rel
    try:
        path.unlink()
    except FileNotFoundError:
        pass


# --------------------------------------------------------------------- #
# Version pins: refcounts that shield a manifest from prune
# --------------------------------------------------------------------- #
# A fetcher hydrating over the wire reads one manifest and then its chunks
# over many round trips; a concurrent publish with ``keep_last`` retention
# must not garbage-collect that version out from under the stream.  The
# registry is process-global (the server and the publishing store share a
# process in this tier) and keyed by the resolved directory, so every
# publisher pruning a directory sees the pins of every server serving it.
_PINS_LOCK = threading.Lock()
_PINS: Dict[str, Counter] = {}


def _pin_key(root: Path) -> str:
    return str(Path(root).resolve())


def pin_version(root: Path, version: int) -> None:
    """Take one refcount on ``version``: prune keeps its manifest, sidecars
    and every chunk they reference until the matching :func:`unpin_version`."""
    with _PINS_LOCK:
        _PINS.setdefault(_pin_key(root), Counter())[int(version)] += 1


def unpin_version(root: Path, version: int) -> None:
    """Release one refcount taken by :func:`pin_version` (idempotent past 0)."""
    with _PINS_LOCK:
        pins = _PINS.get(_pin_key(root))
        if pins is None:
            return
        version = int(version)
        if pins[version] > 0:
            pins[version] -= 1
        if pins[version] <= 0:
            del pins[version]
        if not pins:
            _PINS.pop(_pin_key(root), None)


def pinned_versions(root: Path) -> Set[int]:
    """Versions currently pinned under ``root`` (refcount > 0)."""
    with _PINS_LOCK:
        return set(_PINS.get(_pin_key(root), ()))


def _chunk_refs(*manifests: dict) -> Dict[str, ChunkRef]:
    """Every distinct chunk the manifests reference, in first-seen order."""
    refs: Dict[str, ChunkRef] = {}
    for manifest in manifests:
        for section in manifest.get("sections", {}).values():
            for array_refs in section.get("arrays", {}).values():
                for ref_json in array_refs:
                    ref = ChunkRef.from_json(ref_json)
                    refs.setdefault(ref.chunk_id, ref)
    return refs


def _referenced_chunks(manifest: dict) -> set:
    return set(_chunk_refs(manifest))


def prune(root: Path, keep_versions: Optional[int] = 2) -> dict:
    """Garbage-collect manifests and chunks no live version references.

    Keeps the pointer target plus the ``keep_versions`` newest manifests
    (and their index sidecars); deletes everything else, then any chunk no
    kept manifest references.  Returns ``{"manifests": n, "chunks": n}``.

    Versions pinned through :func:`pin_version` — a manifest currently
    mid-stream to a replication fetcher — are kept regardless of their
    age, along with every chunk they reference, so a long wire fetch
    always survives a concurrent retention pass.
    """
    root = Path(root)
    try:
        live_rel = read_pointer(root)
    except SnapshotNotFoundError:
        live_rel = None
    versions = list_versions(root)
    kept = set(versions[-keep_versions:]) if keep_versions else set(versions)
    kept |= pinned_versions(root) & set(versions)
    removed_manifests = 0
    referenced = set()
    mdir = root / MANIFEST_DIR
    for path in sorted(mdir.glob("v*.json")) if mdir.is_dir() else []:
        rel = f"{MANIFEST_DIR}/{path.name}"
        stem = path.stem
        base_version = int(stem.split("-")[0][1:]) if stem[1:].split("-")[0].isdigit() else None
        is_live = rel == live_rel or (base_version is not None and base_version in kept)
        if not is_live:
            path.unlink()
            removed_manifests += 1
            continue
        try:
            referenced |= _referenced_chunks(load_manifest(root, rel))
        except SnapshotIntegrityError:
            continue
    removed_chunks = 0
    cdir = root / CHUNK_DIR
    for path in sorted(cdir.glob(f"*{CHUNK_SUFFIX}")) if cdir.is_dir() else []:
        if path.stem not in referenced:
            path.unlink()
            removed_chunks += 1
    if live_rel is not None:
        # The pointer target must always survive a prune.
        assert (root / live_rel).exists()
    return {"manifests": removed_manifests, "chunks": removed_chunks}
