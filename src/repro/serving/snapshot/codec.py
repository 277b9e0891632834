"""Encode/decode store versions to the chunked on-disk snapshot format.

:func:`write_snapshot` lowers one
:class:`~repro.serving.gateway.store.EmbeddingSnapshot` into sectioned,
content-addressed chunks (fp tables, int8 scales/codes plus the frozen
query-quantization step, PQ/OPQ codebooks/codes, the learned OPQ rotation)
plus a self-checksummed manifest; :func:`open_snapshot` mmaps those chunks
read-only and rebuilds the snapshot — including its quantized tables —
without re-fitting a single quantizer, which is the whole warm-start win.

Because chunks are content addressed, ``write_snapshot`` on version ``v+1``
only touches disk for tables that actually changed: an unchanged service
catalogue (and its deterministic int8/PQ encodings) dedups to zero new
chunks and the publish reduces to one small manifest plus the atomic
pointer flip.

Index payloads (a trained :class:`~repro.serving.quant.ivfpq.IVFPQIndex`'s
coarse centroids, slot layout, and residual codebooks) ride in sidecar
manifests next to the version manifest, sharing the same chunk store — a
warm-started gateway restores its ANN index instead of re-running k-means.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.serving.snapshot.format import (
    CHECKSUM_ALGO,
    SECTION_ARRAYS,
    ChunkRef,
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    open_array,
    write_array_chunks,
)
from repro.serving.snapshot.manifest import (
    MANIFEST_FORMAT,
    MANIFEST_FORMAT_VERSION,
    delete_manifest,
    flip_pointer,
    index_manifest_rel,
    list_versions,
    load_manifest,
    manifest_rel,
    read_pointer,
    write_manifest,
)


@dataclass(frozen=True)
class WriteReport:
    """What one :func:`write_snapshot` call actually did on disk."""

    manifest_rel: str
    version: int
    chunks_written: int
    chunks_shared: int
    bytes_written: int
    flipped: bool


@dataclass(frozen=True)
class DurableRef:
    """A published version's durable location — attached to the in-memory
    snapshot so downstream consumers (gateways persisting or restoring a
    trained index payload, warm starts) can find it on disk."""

    root: str
    manifest_rel: str
    version: int

    def open(self, *, verify: bool = True) -> "DurableSnapshot":
        manifest = load_manifest(Path(self.root), self.manifest_rel)
        return DurableSnapshot(Path(self.root), manifest, self.manifest_rel,
                               verify=verify)

    def save_index(self, index, kind: str) -> str:
        """Persist a built index's payload beside this version's manifest."""
        meta, arrays = export_index_state(index)
        section: Dict[str, list] = {}
        root = Path(self.root)
        for name, array in arrays.items():
            refs, _, _ = write_array_chunks(root, array)
            section[name] = [ref.to_json() for ref in refs]
        manifest = {
            "format": MANIFEST_FORMAT,
            "format_version": MANIFEST_FORMAT_VERSION,
            "checksum_algo": CHECKSUM_ALGO,
            "version": self.version,
            "index_kind": kind,
            "meta": meta,
            "sections": {"index": {"arrays": section}},
        }
        return write_manifest(root, manifest, index_manifest_rel(self.version, kind))

    def load_index(self, kind: str, *, int8_table=None, params: Optional[Mapping] = None,
                   verify: bool = True):
        """Restore a persisted index payload for this version.

        Raises :class:`SnapshotNotFoundError` when no payload of ``kind``
        was persisted, :class:`SnapshotIntegrityError` when the payload is
        damaged — callers fall back to an in-memory rebuild either way.
        """
        root = Path(self.root)
        rel = index_manifest_rel(self.version, kind)
        manifest = load_manifest(root, rel)
        if manifest.get("index_kind") != kind or manifest.get("version") != self.version:
            raise SnapshotIntegrityError(
                f"index payload {rel} does not describe v{self.version}/{kind}"
            )
        meta = manifest["meta"]
        arrays = {
            name: open_array(root, [ChunkRef.from_json(r) for r in refs], verify=verify)
            for name, refs in manifest["sections"]["index"]["arrays"].items()
        }
        if meta.get("refine") == "int8" and int8_table is None:
            int8_table = self.open(verify=verify).int8_table()
            if int8_table is None:
                raise SnapshotIntegrityError(
                    f"index payload {rel} needs an int8 refine table but "
                    f"v{self.version} published none"
                )
        return restore_index_state(meta, arrays, int8_table=int8_table,
                                   params=params)


def _pq_meta(pq) -> dict:
    return {
        "num_subspaces": int(pq.num_subspaces),
        "num_centroids": int(pq.num_centroids),
        "kmeans_iters": int(pq.kmeans_iters),
        "seed": int(pq.seed),
        "init": str(pq.init),
        "dim": int(pq.dim_),
        "padded_dim": int(pq.padded_dim_),
    }


def _section_arrays(snapshot) -> Dict[str, Tuple[dict, Dict[str, np.ndarray]]]:
    """Decompose a snapshot into ``{section: (meta, {name: array})}``.

    Every array here becomes a content-addressed chunk; the known
    section/array kinds are registered in
    :data:`~repro.serving.snapshot.format.SECTION_ARRAYS`.
    """
    sections: Dict[str, Tuple[dict, Dict[str, np.ndarray]]] = {
        "fp": (
            {"dtype": np.asarray(snapshot.services).dtype.str},
            {"queries": np.asarray(snapshot.queries),
             "services": np.asarray(snapshot.services)},
        )
    }
    for kind, table in snapshot.quantized.items():
        if kind == "int8":
            arrays = {"codes": table.codes, "scales": table.scales}
            if table.query_scale is not None:
                # The frozen query-quantization step rides as its own tiny
                # chunk so every replica scores the integer path with the
                # exact same step (bit-identical ranking).
                arrays["query_scale"] = np.asarray(
                    [table.query_scale], dtype=np.float32
                )
            sections["int8"] = ({}, arrays)
        elif kind == "pq":
            pq = table.quantizer
            sections["pq"] = (
                _pq_meta(pq),
                {"codes": table.codes, "codebooks": pq.codebooks_},
            )
        elif kind == "opq":
            pq = table.quantizer
            meta = _pq_meta(pq)
            meta["opq_iters"] = int(pq.opq_iters)
            meta["opq_init"] = str(pq.opq_init)
            sections["opq"] = (
                meta,
                {
                    "codes": table.codes,
                    "codebooks": pq.codebooks_,
                    "rotation": pq.rotation_,
                },
            )
        else:  # pragma: no cover - future quantizer kinds
            raise SnapshotError(f"no snapshot codec for quantized table kind {kind!r}")
    return sections


def write_snapshot(snapshot, root, *, rows_per_chunk: Optional[int] = None,
                   flip: bool = True,
                   extra_meta: Optional[Mapping] = None) -> WriteReport:
    """Persist a snapshot: content-addressed chunks + manifest (+ pointer).

    Only chunks absent from the chunk store are written; ``flip=False``
    makes the version durable without making it *live* — the store's
    two-phase publish flips the pointer at its in-memory reference flip.
    """
    root = Path(root)
    chunks_written = chunks_shared = bytes_written = 0
    sections = {}
    for name, (meta, arrays) in _section_arrays(snapshot).items():
        registered = SECTION_ARRAYS.get(name)
        if registered is None or any(a not in registered for a in arrays):
            raise SnapshotError(
                f"section {name!r} with arrays {sorted(arrays)} is not in "
                f"the chunk-kind registry (snapshot.format.SECTION_ARRAYS)"
            )
        refs_by_array = {}
        for array_name, array in arrays.items():
            per_chunk = rows_per_chunk if array.ndim >= 2 else None
            refs, written, nbytes = write_array_chunks(
                root, array, rows_per_chunk=per_chunk
            )
            refs_by_array[array_name] = [ref.to_json() for ref in refs]
            chunks_written += written
            chunks_shared += len(refs) - written
            bytes_written += nbytes
        sections[name] = {"meta": meta, "arrays": refs_by_array}
    manifest = {
        "format": MANIFEST_FORMAT,
        "format_version": MANIFEST_FORMAT_VERSION,
        "checksum_algo": CHECKSUM_ALGO,
        "version": int(snapshot.version),
        "meta": {
            "num_queries": int(snapshot.num_queries),
            "num_services": int(snapshot.num_services),
            "embedding_dim": int(snapshot.embedding_dim),
            "shard_bounds": [int(b) for b in snapshot.shard_bounds],
            "quantization": sorted(snapshot.quantized),
            **(dict(extra_meta) if extra_meta else {}),
        },
        "sections": sections,
    }
    rel = write_manifest(root, manifest, manifest_rel(snapshot.version))
    if flip:
        flip_pointer(root, rel)
    return WriteReport(
        manifest_rel=rel,
        version=int(snapshot.version),
        chunks_written=chunks_written,
        chunks_shared=chunks_shared,
        bytes_written=bytes_written,
        flipped=flip,
    )


def abandon_snapshot(root, report: WriteReport) -> None:
    """Drop the manifest of an aborted publish (chunks stay; they are
    content-addressed and a later prune collects unreferenced ones)."""
    delete_manifest(Path(root), report.manifest_rel)


class DurableSnapshot:
    """A store version opened from disk: mmapped, read-only, zero-copy."""

    def __init__(self, root: Path, manifest: dict, rel: str, *,
                 verify: bool = True) -> None:
        self.root = Path(root)
        self.manifest = manifest
        self.manifest_rel = rel
        self.verify = verify

    @property
    def version(self) -> int:
        return int(self.manifest["version"])

    @property
    def meta(self) -> dict:
        return self.manifest["meta"]

    @property
    def shard_bounds(self) -> Tuple[int, ...]:
        return tuple(int(b) for b in self.meta["shard_bounds"])

    def ref(self) -> DurableRef:
        return DurableRef(root=str(self.root), manifest_rel=self.manifest_rel,
                          version=self.version)

    # ------------------------------------------------------------------ #
    # Section accessors
    # ------------------------------------------------------------------ #
    def _refs(self, section: str, array: str) -> Sequence[ChunkRef]:
        try:
            refs = self.manifest["sections"][section]["arrays"][array]
        except KeyError as exc:
            raise SnapshotIntegrityError(
                f"manifest {self.manifest_rel} lacks array {section}/{array}"
            ) from exc
        return [ChunkRef.from_json(r) for r in refs]

    def _section_meta(self, section: str) -> dict:
        return self.manifest["sections"][section].get("meta", {})

    def has_section(self, section: str) -> bool:
        return section in self.manifest.get("sections", {})

    def array(self, section: str, name: str) -> np.ndarray:
        return open_array(self.root, self._refs(section, name), verify=self.verify)

    def _query_scale(self):
        """The published int8 query-quantization step, or ``None``."""
        try:
            refs = self._refs("int8", "query_scale")
        except SnapshotIntegrityError:
            return None
        return float(open_array(self.root, refs, verify=self.verify)[0])

    def int8_table(self):
        """The version's :class:`~repro.serving.quant.scalar.Int8Table`,
        served straight off the mmapped chunks (or ``None``).

        The published ``query_scale`` chunk (when the store froze one) rides
        along, so the integer scoring path of a warm-started replica ranks
        bit-identically to the store that trained the table."""
        if not self.has_section("int8"):
            return None
        from repro.serving.quant.scalar import Int8Table

        return Int8Table(codes=self.array("int8", "codes"),
                         scales=self.array("int8", "scales"),
                         query_scale=self._query_scale())

    def pq_table(self):
        """The version's :class:`~repro.serving.quant.pq.PQTable`, with the
        codebooks mmapped and no k-means re-run (or ``None``)."""
        if not self.has_section("pq"):
            return None
        from repro.serving.quant.pq import PQTable

        meta = self._section_meta("pq")
        quantizer = _rebuild_pq(meta, self.array("pq", "codebooks"))
        return PQTable(codes=self.array("pq", "codes"), quantizer=quantizer)

    def opq_table(self):
        """The version's :class:`~repro.serving.quant.opq.OPQTable`, with
        codebooks *and* the learned rotation mmapped — no alternating
        minimization is ever re-run on a warm start (or ``None``)."""
        if not self.has_section("opq"):
            return None
        from repro.serving.quant.opq import OPQTable

        meta = self._section_meta("opq")
        quantizer = _rebuild_pq(meta, self.array("opq", "codebooks"),
                                rotation=self.array("opq", "rotation"))
        return OPQTable(codes=self.array("opq", "codes"), quantizer=quantizer)

    def to_snapshot(self, *, published_at: float):
        """Rebuild the full in-memory snapshot over mmapped arrays."""
        from repro.serving.gateway.store import EmbeddingSnapshot

        quantized = {}
        int8 = self.int8_table()
        if int8 is not None:
            quantized["int8"] = int8
        pq = self.pq_table()
        if pq is not None:
            quantized["pq"] = pq
        opq = self.opq_table()
        if opq is not None:
            quantized["opq"] = opq
        return EmbeddingSnapshot(
            version=self.version,
            published_at=published_at,
            queries=self.array("fp", "queries"),
            services=self.array("fp", "services"),
            shard_bounds=self.shard_bounds,
            quantized=quantized,
            durable=self.ref(),
        )


def open_snapshot(root, *, version: Optional[int] = None,
                  verify: bool = True) -> DurableSnapshot:
    """Open the pointer's live version (or an explicit ``version``) from
    ``root``, mmapping chunks read-only for zero-copy boot."""
    root = Path(root)
    rel = manifest_rel(version) if version is not None else read_pointer(root)
    manifest = load_manifest(root, rel)
    if version is not None and int(manifest["version"]) != int(version):
        raise SnapshotIntegrityError(
            f"manifest {rel} claims version {manifest['version']}, wanted {version}"
        )
    return DurableSnapshot(root, manifest, rel, verify=verify)


def latest_version(root) -> int:
    """The version the ``MANIFEST`` pointer currently names."""
    root = Path(root)
    return open_snapshot(root).version


# ---------------------------------------------------------------------- #
# Index payloads
# ---------------------------------------------------------------------- #
def _rebuild_pq(meta: dict, codebooks: np.ndarray,
                rotation: Optional[np.ndarray] = None):
    from repro.serving.quant.opq import OPQQuantizer
    from repro.serving.quant.pq import ProductQuantizer

    common = dict(
        num_subspaces=int(meta["num_subspaces"]),
        num_centroids=int(meta["num_centroids"]),
        kmeans_iters=int(meta.get("kmeans_iters", 10)),
        seed=int(meta.get("seed", 0)),
        init=str(meta.get("init", "kmeans++")),
    )
    if rotation is None:
        quantizer = ProductQuantizer(**common)
    else:
        quantizer = OPQQuantizer(
            **common,
            opq_iters=int(meta.get("opq_iters", 4)),
            opq_init=str(meta.get("opq_init", "eigen")),
        )
    quantizer.dim_ = int(meta["dim"])
    quantizer.padded_dim_ = int(meta["padded_dim"])
    codebooks = np.asarray(codebooks, dtype=np.float32)
    if codebooks.ndim != 3 or codebooks.shape[0] != quantizer.num_subspaces:
        raise SnapshotIntegrityError(
            f"PQ codebooks have shape {codebooks.shape}, expected "
            f"({quantizer.num_subspaces}, K, dsub)"
        )
    quantizer.codebooks_ = codebooks
    if rotation is not None:
        rotation = np.asarray(rotation, dtype=np.float32)
        pdim = quantizer.padded_dim_
        if rotation.shape != (pdim, pdim):
            raise SnapshotIntegrityError(
                f"OPQ rotation has shape {rotation.shape}, expected "
                f"({pdim}, {pdim})"
            )
        quantizer.rotation_ = rotation
    return quantizer


def export_index_state(index) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Extract the persistable state of a built index.

    Only :class:`~repro.serving.quant.ivfpq.IVFPQIndex` carries expensive
    trained state (coarse k-means + residual PQ); the cheap-to-build kinds
    rebuild from the snapshot tables in negligible time.
    """
    from repro.serving.quant.ivfpq import IVFPQIndex

    if not isinstance(index, IVFPQIndex):
        raise SnapshotError(
            f"index kind {getattr(index, 'name', type(index).__name__)!r} has no "
            f"persistable payload (only 'ivfpq' indexes need one)"
        )
    return index.export_state()


def restore_index_state(meta: dict, arrays: Mapping[str, np.ndarray], *,
                        int8_table=None, params: Optional[Mapping] = None):
    from repro.serving.quant.ivfpq import IVFPQIndex

    if meta.get("name") != "ivfpq":
        raise SnapshotIntegrityError(
            f"unsupported persisted index payload {meta.get('name')!r}"
        )
    return IVFPQIndex.from_state(meta, arrays, int8_table=int8_table,
                                 params=params)


# Re-exported so integrators only need one import site.
__all__ = [
    "DurableRef",
    "DurableSnapshot",
    "WriteReport",
    "abandon_snapshot",
    "export_index_state",
    "latest_version",
    "list_versions",
    "open_snapshot",
    "restore_index_state",
    "write_snapshot",
]
