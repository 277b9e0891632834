"""Snapshot replication over a wire: peer chunk fetch for new-host hydration.

PR 8 made store versions durable on *local* disk; this module moves them
between hosts.  A :class:`SnapshotServer` serves manifests and chunks from
a durable directory over a minimal framed protocol (length-prefixed frames
on a local TCP socket; a session sends one request and reads its whole
reply before the next, and a session that fails mid-reply is closed and
reopened rather than read again, so no reply can answer a later request),
and a :class:`SnapshotFetcher` hydrates a fresh durable directory from a
peer:

* **manifest first** — the fetcher asks for the peer's live manifest (or a
  pinned explicit version), validates its self-checksum *in memory*, and
  derives the referenced chunk set from it;
* **delta economics for free** — chunk ids are content addresses, so only
  chunks absent from the local ``chunks/`` directory cross the wire; a
  re-fetch after a small republish transfers only the changed tables;
* **checksum-verified arrival** — every chunk's bytes are run through the
  full header/CRC pipeline (:func:`~repro.serving.snapshot.format.
  verify_chunk_bytes`) against the manifest's ref *before* touching disk;
* **resumable** — verified chunks land via temp file + ``os.replace``,
  and the local ``MANIFEST`` pointer flips only after every chunk and
  manifest file is durable; a fetch killed between chunk N and N+1 leaves
  the directory at its last good version, and the next fetch re-transfers
  nothing that already landed;
* **bounded retry/backoff** — transient failures (a dropped connection, a
  corrupt frame) retry per chunk up to ``retries`` times with exponential
  backoff before surfacing as a typed :class:`ReplicationError`; a retry
  that reopens the session re-pins the version the fetch started on;
* **prune-safe serving** — every session runs on its own server thread and
  pins the version it is streaming
  (:func:`~repro.serving.snapshot.manifest.pin_version`), so a concurrent
  publish with ``keep_last`` retention never garbage-collects a manifest
  or chunk out from under a mid-flight fetch; :meth:`SnapshotServer.stop`
  joins every session, so no pin outlives it.

Error taxonomy (all :class:`~repro.serving.snapshot.format.SnapshotError`
subclasses, so existing warm-start fallbacks treat a failed wire hydration
exactly like a damaged local snapshot):

* :class:`ReplicationError` — base class for wire-path failures;
* :class:`ReplicationProtocolError` — malformed, truncated or oversized
  frames, bad magic, replies out of protocol;
* :class:`ReplicationUnavailableError` — the peer is unreachable, stalled
  past ``timeout_s``, or died mid-fetch (also a ``ConnectionError``);
* :class:`ReplicationIntegrityError` — a chunk or manifest kept failing
  its checksums after every retry (also a ``SnapshotIntegrityError``).

Frame layout (one frame per message, strictly paired request → reply)::

    offset  size  field
    0       4     magic          b"RSNW"
    4       1     frame kind     (1=REQ json, 2=META json, 3=DATA bytes,
                                  4=ERR json)
    5       8     payload nbytes (u64, bounded by MAX_FRAME_BYTES)
    13      ...   payload

A request is one REQ frame carrying a JSON body (``{"op": ...}``).  The
reply is either one ERR frame, or one META frame optionally followed by
exactly one DATA frame (``meta["data"] is True``).  Chunk DATA payloads
are the chunk *file* bytes — 96-byte checksummed header included — so the
wire inherits the container's integrity envelope instead of inventing a
second one; manifest DATA payloads are the self-checksummed manifest file
bytes for the same reason.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Set, Tuple

from repro.serving.snapshot.format import (
    SnapshotError,
    SnapshotIntegrityError,
    chunk_path,
    fsync_dir,
    verify_chunk_bytes,
    write_bytes_atomic,
)
from repro.serving.snapshot.manifest import (
    MANIFEST_DIR,
    _chunk_refs,
    decode_manifest,
    flip_pointer,
    load_manifest,
    manifest_rel,
    pin_version,
    read_pointer,
    unpin_version,
)

__all__ = [
    "FetchReport",
    "ReplicationError",
    "ReplicationIntegrityError",
    "ReplicationProtocolError",
    "ReplicationUnavailableError",
    "SnapshotFetcher",
    "SnapshotServer",
]

FRAME_MAGIC = b"RSNW"
FRAME_REQ = 1
FRAME_META = 2
FRAME_DATA = 3
FRAME_ERR = 4
_FRAME_HEADER = struct.Struct("<4sBQ")
FRAME_HEADER_SIZE = _FRAME_HEADER.size  # 13
#: Hard per-frame bound: a manifest is KBs and a chunk is a table slice —
#: anything past this is a corrupt length field, not a real payload.
MAX_FRAME_BYTES = 1 << 33


class ReplicationError(SnapshotError):
    """Base class for snapshot-replication (wire path) failures."""


class ReplicationProtocolError(ReplicationError):
    """A frame was malformed, truncated, oversized, or out of protocol."""


class ReplicationUnavailableError(ReplicationError, ConnectionError):
    """The peer is unreachable, or died mid-fetch (retries exhausted)."""


class ReplicationIntegrityError(ReplicationError, SnapshotIntegrityError):
    """A chunk or manifest failed its checksums on every retry."""


# --------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------- #
def send_frame(sock: socket.socket, kind: int, payload: bytes) -> None:
    """Write one length-prefixed frame (header + payload) to ``sock``."""
    sock.sendall(_FRAME_HEADER.pack(FRAME_MAGIC, kind, len(payload)) + payload)


def _no_delay(sock: socket.socket) -> None:
    """Turn off Nagle's algorithm on one end of a session.

    A reply is a small META write followed by its DATA write; with Nagle on,
    the second write waits for the peer's delayed ACK of the first (RFC 896
    against RFC 1122), about 40 ms per chunk.  Frames are unchanged.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    """Read exactly ``nbytes`` or raise on a mid-frame connection close."""
    parts = []
    remaining = nbytes
    while remaining:
        try:
            part = sock.recv(min(remaining, 1 << 20))
        except OSError as exc:  # socket.timeout included
            raise ReplicationUnavailableError(
                f"connection lost mid-frame ({exc})"
            ) from exc
        if not part:
            raise ReplicationProtocolError(
                f"peer closed the connection mid-frame "
                f"({nbytes - remaining} of {nbytes} bytes arrived)"
            )
        parts.append(part)
        remaining -= len(part)
    return b"".join(parts)


def recv_frame(sock: socket.socket) -> Tuple[int, bytes]:
    """Read one frame; returns ``(kind, payload)`` or raises typed errors."""
    header = _recv_exact(sock, FRAME_HEADER_SIZE)
    magic, kind, nbytes = _FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise ReplicationProtocolError(f"bad frame magic {magic!r}")
    if nbytes > MAX_FRAME_BYTES:
        raise ReplicationProtocolError(
            f"frame declares {nbytes} bytes (cap {MAX_FRAME_BYTES}); "
            f"treating as corrupt"
        )
    return kind, _recv_exact(sock, int(nbytes))


def _json_frame(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _json_object(payload: bytes, frame: str) -> dict:
    """A peer's reply body as a JSON object, or a protocol error."""
    try:
        body = json.loads(payload)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ReplicationProtocolError(f"{frame} frame is not valid JSON") from exc
    if not isinstance(body, dict):
        raise ReplicationProtocolError(f"{frame} frame is not a JSON object")
    return body


# --------------------------------------------------------------------- #
# Server
# --------------------------------------------------------------------- #
class SnapshotServer:
    """Serve a durable snapshot directory to fetching peers.

    A stdlib :class:`socketserver.ThreadingTCPServer` accepts, and every
    peer session runs on its own handler thread, speaking strictly-paired
    request/reply frames.  A session pins the version whose manifest it
    last served — one pin, swapped by a re-request, released on ``done``
    or when the session ends — so retention pruning on the served
    directory never deletes a version mid-fetch.  :meth:`stop` shuts every
    session down and joins its thread, so no pin outlives it.

    ``chunk_filter`` is a test seam: ``(chunk_id, raw_bytes) -> bytes``
    applied to every outgoing chunk payload, where fault-matrix tests
    truncate frames, flip payload bytes, or count wire transfers.
    """

    def __init__(self, root, host: str = "127.0.0.1", port: int = 0, *,
                 chunk_filter: Optional[Callable[[str, bytes], bytes]] = None,
                 timeout_s: float = 30.0) -> None:
        self.root = Path(root)
        self.chunk_filter = chunk_filter
        self.timeout_s = float(timeout_s)
        self._bind = (host, port)
        self._server: Optional[_Listener] = None
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._sessions: Set[_Session] = set()
        self._stopping = False

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and start accepting; returns ``(host, port)``."""
        if self._server is None:
            self._server = _Listener(self)
            self._stopping = False
            self._thread = threading.Thread(
                target=self._server.serve_forever, kwargs={"poll_interval": 0.2},
                name="snapshot-server", daemon=True,
            )
            self._thread.start()
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server is not started")
        host, port = self._server.server_address[:2]
        return host, port

    def stop(self) -> None:
        """Stop accepting, shut every session down and join its thread.

        Every session pin is released when this returns; a second call is
        a no-op.
        """
        server, self._server = self._server, None
        if server is None:
            return
        # Shutting the listener down wakes serve_forever's select at once on
        # Linux; elsewhere shutdown() still returns within one poll.
        try:
            server.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        server.shutdown()  # serve_forever has returned: no more accepts
        self._thread.join()
        with self._lock:
            # A session accepted just before shutdown() may not have
            # registered yet; the flag turns it away.
            self._stopping = True
            sessions = list(self._sessions)
        for session in sessions:
            try:
                session.request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        server.server_close()  # closes the listener, joins every session

    def __enter__(self) -> "SnapshotServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def pinned_count(self) -> int:
        """Live session pins (test/ops visibility)."""
        with self._lock:
            return sum(session.pinned is not None for session in self._sessions)


class _Listener(socketserver.ThreadingTCPServer):
    """The accept loop behind a :class:`SnapshotServer`."""

    allow_reuse_address = True  # what socket.create_server sets on POSIX
    # server_close() joins only non-daemon handler threads (Python 3.11
    # skips daemon ones), and SnapshotServer.stop() relies on that join.
    daemon_threads = False

    def __init__(self, owner: SnapshotServer) -> None:
        self.owner = owner
        super().__init__(owner._bind, _Session)


class _Session(socketserver.BaseRequestHandler):
    """One peer session: read a request, send its whole reply, repeat."""

    pinned: Optional[int] = None

    def setup(self) -> None:
        self.owner: SnapshotServer = self.server.owner
        self.request.settimeout(self.owner.timeout_s)
        _no_delay(self.request)

    def handle(self) -> None:
        with self.owner._lock:
            if self.owner._stopping:
                return  # accepted just before stop(): never served
            self.owner._sessions.add(self)
        while True:
            try:
                kind, payload = recv_frame(self.request)
            except ReplicationError:
                return  # the peer went away; finish() unpins
            if kind != FRAME_REQ:
                self._send_error("protocol",
                                 f"expected a request frame, got kind {kind}")
                return
            try:
                request = json.loads(payload)
                op = request["op"]
            except (ValueError, KeyError, TypeError):
                self._send_error("protocol", "malformed request body")
                return
            try:
                self._serve(op, request)
            except SnapshotError as exc:
                self._send_error("snapshot", f"{type(exc).__name__}: {exc}")
            except Exception as exc:  # keep the session alive on odd ops
                self._send_error("internal", f"{type(exc).__name__}: {exc}")

    def finish(self) -> None:
        self._unpin()
        with self.owner._lock:
            self.owner._sessions.discard(self)

    def _serve(self, op: str, request: dict) -> None:
        if op == "manifest":
            self._serve_manifest(request.get("version"))
        elif op == "file":
            self._serve_file(str(request.get("rel", "")))
        elif op == "chunk":
            self._serve_chunk(str(request.get("id", "")))
        elif op == "done":
            self._unpin()
            self._reply({"ok": True})
        else:
            self._send_error("protocol", f"unknown op {op!r}")

    def _serve_manifest(self, version: Optional[int]) -> None:
        """Pin + serve the live (or explicitly requested) version manifest."""
        root = self.owner.root
        rel = read_pointer(root) if version is None else manifest_rel(int(version))
        raw = self._read_rel(rel)
        if raw is None:
            return
        manifest = decode_manifest(raw, source=rel)  # never serve garbage
        served_version = int(manifest["version"])
        # One pin per session: re-requesting (a resume, a different
        # version) swaps the pin rather than leaking the old one.
        self._unpin()
        pin_version(root, served_version)
        self.pinned = served_version
        sidecars = sorted(
            f"{MANIFEST_DIR}/{path.name}"
            for path in (root / MANIFEST_DIR).glob(
                f"v{served_version}-index-*.json"
            )
        )
        self._reply({"rel": rel, "version": served_version,
                     "sidecars": sidecars}, raw)

    def _serve_file(self, rel: str) -> None:
        """Serve a sidecar manifest of the session's pinned version."""
        prefix = f"{MANIFEST_DIR}/v{self.pinned}-index-"
        if (self.pinned is None or not rel.startswith(prefix)
                or "/" in rel[len(prefix):]):
            self._send_error(
                "protocol", f"file {rel!r} is not a sidecar of the pinned version"
            )
            return
        raw = self._read_rel(rel)
        if raw is not None:
            self._reply({"rel": rel, "nbytes": len(raw)}, raw)

    def _serve_chunk(self, chunk_id: str) -> None:
        if len(chunk_id) != 32 or not all(c in "0123456789abcdef"
                                          for c in chunk_id):
            self._send_error("protocol", f"bad chunk id {chunk_id!r}")
            return
        try:
            raw = chunk_path(self.owner.root, chunk_id).read_bytes()
        except FileNotFoundError:
            self._send_error("not_found", f"no chunk {chunk_id} on disk")
            return
        if self.owner.chunk_filter is not None:
            raw = self.owner.chunk_filter(chunk_id, raw)
        self._reply({"id": chunk_id, "nbytes": len(raw)}, raw)

    def _read_rel(self, rel: str) -> Optional[bytes]:
        try:
            return (self.owner.root / rel).read_bytes()
        except FileNotFoundError:
            self._send_error("not_found", f"no manifest at {rel}")
            return None

    def _reply(self, meta: dict, data: Optional[bytes] = None) -> None:
        """One META frame, plus one DATA frame when there is a payload."""
        if data is not None:
            meta = {**meta, "data": True}
        send_frame(self.request, FRAME_META, _json_frame(meta))
        if data is not None:
            send_frame(self.request, FRAME_DATA, data)

    def _send_error(self, code: str, message: str) -> None:
        try:
            send_frame(self.request, FRAME_ERR,
                       _json_frame({"code": code, "message": message}))
        except OSError:
            pass

    def _unpin(self) -> None:
        pinned, self.pinned = self.pinned, None
        if pinned is not None:
            unpin_version(self.owner.root, pinned)


# --------------------------------------------------------------------- #
# Client
# --------------------------------------------------------------------- #
class PeerConnection:
    """One framed request/reply session against a :class:`SnapshotServer`."""

    def __init__(self, peer: Tuple[str, int], timeout_s: float = 30.0) -> None:
        self.peer = (str(peer[0]), int(peer[1]))
        try:
            self._sock = socket.create_connection(self.peer, timeout=timeout_s)
        except OSError as exc:
            raise ReplicationUnavailableError(
                f"cannot reach snapshot peer {self.peer[0]}:{self.peer[1]} "
                f"({exc})"
            ) from exc
        _no_delay(self._sock)

    def request(self, body: dict) -> Tuple[dict, Optional[bytes]]:
        """One paired round trip; returns ``(meta, data-or-None)``.

        Every failure is a :class:`ReplicationError` (a stall past
        ``timeout_s`` is a :class:`ReplicationUnavailableError`).
        """
        try:
            send_frame(self._sock, FRAME_REQ, _json_frame(body))
        except OSError as exc:  # socket.timeout included
            raise ReplicationUnavailableError(
                f"connection to peer {self.peer} failed ({exc})"
            ) from exc
        kind, payload = recv_frame(self._sock)
        if kind == FRAME_ERR:
            error = _json_object(payload, "ERR")
            code = error.get("code", "error")
            message = error.get("message", "")
            if code == "protocol":
                raise ReplicationProtocolError(f"peer rejected request: {message}")
            raise ReplicationError(f"peer error [{code}]: {message}")
        if kind != FRAME_META:
            raise ReplicationProtocolError(
                f"expected a META frame, got kind {kind}"
            )
        meta = _json_object(payload, "META")
        data = None
        if meta.get("data"):
            kind, data = recv_frame(self._sock)
            if kind != FRAME_DATA:
                raise ReplicationProtocolError(
                    f"expected a DATA frame, got kind {kind}"
                )
            declared = meta.get("nbytes")
            if declared is not None and (type(declared) is not int
                                         or declared != len(data)):
                raise ReplicationProtocolError(
                    f"DATA frame holds {len(data)} bytes, META declared "
                    f"{declared!r}"
                )
        return meta, data

    def close(self, *, polite: bool = True) -> None:
        if polite:
            try:
                self.request({"op": "done"})
            except ReplicationError:
                pass
        self._sock.close()


@dataclass(frozen=True)
class FetchReport:
    """What one :meth:`SnapshotFetcher.fetch` actually moved and landed."""

    peer: Tuple[str, int]
    version: int
    manifest_rel: str
    chunks_fetched: int
    chunks_already_local: int
    bytes_fetched: int
    sidecars_fetched: int
    retries: int
    flipped: bool


class SnapshotFetcher:
    """Hydrate a local durable directory from a peer's snapshot server.

    A fetch talks to the peer over one session at a time, which pins the
    fetched version there.  A session whose round trip fails is closed on
    the spot (its reply may be half read); the next retry round opens a
    fresh one that re-pins the *same* version, so a fetch never mixes two
    versions even if the peer published in between.

    ``observer`` (a test/telemetry seam) is called as
    ``observer(chunk_id, nbytes)`` after each chunk lands durably —
    raising from it models a process kill *between* chunk N and N+1.
    """

    def __init__(self, peer: Tuple[str, int], root, *, retries: int = 3,
                 backoff_s: float = 0.05, timeout_s: float = 30.0,
                 observer: Optional[Callable[[str, int], None]] = None) -> None:
        if retries < 1:
            raise ValueError("retries must be >= 1")
        self.peer = (str(peer[0]), int(peer[1]))
        self.root = Path(root)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.timeout_s = float(timeout_s)
        self.observer = observer
        self._retry_count = 0
        self._conn: Optional[PeerConnection] = None
        self._version: Optional[int] = None

    def _request(self, body: dict) -> Tuple[dict, Optional[bytes]]:
        """One round trip on the fetch's session, reopening it if it broke.

        A reopened session first re-requests the manifest of the version
        this fetch is on, so the peer pins that version again and the
        fetch never mixes two versions, even if the peer published since.
        """
        try:
            if self._conn is None:
                self._conn = PeerConnection(self.peer, timeout_s=self.timeout_s)
                if self._version is not None:
                    self._conn.request({"op": "manifest", "version": self._version})
            return self._conn.request(body)
        except ReplicationError:
            if self._conn is not None:  # its reply may be half read
                self._conn.close(polite=False)
                self._conn = None
            raise

    def _with_retries(self, body: dict, check: Callable[[dict, bytes], object],
                      what: str) -> Tuple[dict, bytes, object]:
        """``(meta, data, check(meta, data))`` of one round trip, retried.

        ``check`` verifies the payload in memory (a manifest's checksum, a
        chunk's header and CRC).  Transient failures — a dropped connection,
        a truncated frame, a failed check — retry with exponential backoff;
        the last one surfaces as :class:`ReplicationUnavailableError`, or as
        :class:`ReplicationIntegrityError` if it failed a check.
        """
        last: Optional[Exception] = None
        for round_index in range(self.retries):
            if round_index:
                self._retry_count += 1
                time.sleep(self.backoff_s * (2 ** (round_index - 1)))
            try:
                meta, data = self._request(body)
                return meta, data, check(meta, data)
            except (ReplicationUnavailableError, ReplicationProtocolError,
                    SnapshotIntegrityError) as exc:
                last = exc
        if isinstance(last, SnapshotIntegrityError):
            raise ReplicationIntegrityError(
                f"{what} kept failing integrity checks after "
                f"{self.retries} attempts: {last}"
            ) from last
        raise ReplicationUnavailableError(
            f"{what} failed after {self.retries} attempts: {last}"
        ) from last

    def fetch(self, version: Optional[int] = None) -> FetchReport:
        """Pull one version (the peer's live one by default) into ``root``.

        Ordering mirrors :func:`~repro.serving.snapshot.codec.
        write_snapshot`'s crash contract: every chunk lands (atomic
        replace), then the manifest files, then the ``MANIFEST`` pointer
        flips — so a kill anywhere leaves the directory at its last good
        version and a re-run resumes without re-transferring landed chunks.
        """
        self._retry_count = 0
        self._version = None
        body: Dict[str, object] = {"op": "manifest"}
        if version is not None:
            body["version"] = int(version)
        try:
            meta, raw, manifest = self._with_retries(
                body,
                lambda meta, raw: decode_manifest(raw, source=str(meta.get("rel"))),
                "manifest fetch",
            )
            self._version = int(manifest["version"])
            rel = str(meta["rel"])

            # Sidecar index payloads ride along so a warm start on this host
            # restores the trained index too; their manifests arrive (and are
            # validated) before their chunks are scheduled.
            sidecars: Dict[str, bytes] = {}
            manifests = [manifest]
            for sidecar_rel in map(str, meta.get("sidecars", ())):
                _meta, sidecars[sidecar_rel], decoded = self._with_retries(
                    {"op": "file", "rel": sidecar_rel},
                    lambda _meta, data: decode_manifest(data, source=sidecar_rel),
                    f"sidecar fetch ({sidecar_rel})",
                )
                manifests.append(decoded)

            refs = _chunk_refs(*manifests)
            needed = [
                ref for ref in refs.values()
                if not chunk_path(self.root, ref.chunk_id).exists()
            ]
            bytes_fetched = 0
            for ref in needed:
                _meta, data, _array = self._with_retries(
                    {"op": "chunk", "id": ref.chunk_id},
                    lambda _meta, data: verify_chunk_bytes(
                        data, ref, source=f"wire:{self.peer}"),
                    f"chunk fetch ({ref.chunk_id})",
                )
                write_bytes_atomic(chunk_path(self.root, ref.chunk_id), data)
                bytes_fetched += len(data)
                if self.observer is not None:
                    self.observer(ref.chunk_id, len(data))

            # Chunks are all durable: land the manifest files, then flip.
            for sidecar_rel, data in sidecars.items():
                write_bytes_atomic(self.root / sidecar_rel, data)
            write_bytes_atomic(self.root / rel, raw)
            flipped = self._flip_if_newer(self._version, rel)
        finally:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
        return FetchReport(
            peer=self.peer,
            version=self._version,
            manifest_rel=rel,
            chunks_fetched=len(needed),
            chunks_already_local=len(refs) - len(needed),
            bytes_fetched=bytes_fetched,
            sidecars_fetched=len(sidecars),
            retries=self._retry_count,
            flipped=flipped,
        )

    def _flip_if_newer(self, fetched_version: int, rel: str) -> bool:
        """Flip the local pointer unless it already names a newer version.

        A fetch never moves a host *backwards*: hydrating from a peer that
        lags the local directory lands the (deduped) chunks and manifest
        but leaves the newer local pointer in place.
        """
        try:
            current_rel = read_pointer(self.root)
            current_version = int(load_manifest(self.root, current_rel)["version"])
        except SnapshotError:
            current_version = None  # empty or damaged pointer: take over
        if current_version is not None and current_version > fetched_version:
            return False
        flip_pointer(self.root, rel)
        fsync_dir(self.root)
        return True
