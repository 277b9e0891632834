"""Snapshot replication over a wire: peer chunk fetch for new-host hydration.

PR 8 made store versions durable on *local* disk; this module moves them
between hosts.  A :class:`SnapshotServer` serves manifests and chunks from
a durable directory over a minimal framed protocol (length-prefixed frames
on a local TCP socket — the same strictly-paired request/reply discipline
as the sharded tier's pipes in ``sharded/pool.py``), and a
:class:`SnapshotFetcher` hydrates a fresh durable directory from a peer:

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
  backoff before surfacing as a typed :class:`ReplicationError`;
* **prune-safe serving** — the server pins the version a session is
  streaming (:func:`~repro.serving.snapshot.manifest.pin_version`), so a
  concurrent publish with ``keep_last`` retention never garbage-collects a
  manifest or chunk out from under a mid-flight fetch.

Error taxonomy (all :class:`~repro.serving.snapshot.format.SnapshotError`
subclasses, so existing warm-start fallbacks treat a failed wire hydration
exactly like a damaged local snapshot):

* :class:`ReplicationError` — base class for wire-path failures;
* :class:`ReplicationProtocolError` — malformed, truncated or oversized
  frames, bad magic, replies out of protocol;
* :class:`ReplicationUnavailableError` — the peer is unreachable or died
  mid-fetch (also a ``ConnectionError``);
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
import struct
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.serving.snapshot.format import (
    ChunkRef,
    SnapshotError,
    SnapshotIntegrityError,
    chunk_path,
    fsync_dir,
    verify_chunk_bytes,
    write_bytes_atomic,
)
from repro.serving.snapshot.manifest import (
    MANIFEST_DIR,
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
    "fetch_snapshot",
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


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    """Read exactly ``nbytes`` or raise on a mid-frame connection close."""
    parts = []
    remaining = nbytes
    while remaining:
        try:
            part = sock.recv(min(remaining, 1 << 20))
        except OSError as exc:
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

    One accept-loop thread plus one handler thread per connection; every
    session speaks strictly-paired request/reply frames.  The manifest a
    session is streaming is pinned for the session's lifetime (released on
    ``done`` or disconnect), so retention pruning on the served directory
    never deletes a version mid-fetch.

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
        self._listen_host = host
        self._listen_port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._sessions: Set[socket.socket] = set()
        self._pinned: Dict[socket.socket, int] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> Tuple[str, int]:
        """Bind, listen, and start accepting; returns ``(host, port)``."""
        if self._listener is not None:
            return self.address
        listener = socket.create_server(
            (self._listen_host, self._listen_port), reuse_port=False
        )
        listener.settimeout(0.2)
        self._listener = listener
        self._stopping.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="snapshot-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("server is not started")
        host, port = self._listener.getsockname()[:2]
        return host, port

    def stop(self) -> None:
        """Stop accepting, drop every session, release every pin."""
        self._stopping.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        with self._lock:
            sessions = list(self._sessions)
        for conn in sessions:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        # Handler threads unpin on their way out; wait for them briefly so
        # a stop() immediately followed by prune() sees no stale pins.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with self._lock:
                if not self._sessions:
                    break
            time.sleep(0.01)

    def __enter__(self) -> "SnapshotServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def pinned_count(self) -> int:
        """Live session pins (test/ops visibility)."""
        with self._lock:
            return len(self._pinned)

    # ------------------------------------------------------------------ #
    # Accept + session loops
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us: stopping
            conn.settimeout(self.timeout_s)
            with self._lock:
                self._sessions.add(conn)
            threading.Thread(
                target=self._session_loop, args=(conn,),
                name="snapshot-server-session", daemon=True,
            ).start()

    def _session_loop(self, conn: socket.socket) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    kind, payload = recv_frame(conn)
                except (ReplicationError, OSError):
                    return  # client went away; pins release in finally
                if kind != FRAME_REQ:
                    self._send_error(conn, "protocol",
                                     f"expected a request frame, got kind {kind}")
                    return
                try:
                    request = json.loads(payload)
                    op = request["op"]
                except (ValueError, KeyError, TypeError):
                    self._send_error(conn, "protocol", "malformed request body")
                    return
                try:
                    if not self._handle(conn, op, request):
                        return
                except BrokenPipeError:
                    return
                except SnapshotError as exc:
                    self._send_error(conn, "snapshot",
                                     f"{type(exc).__name__}: {exc}")
                except Exception as exc:  # keep the session alive on odd ops
                    self._send_error(conn, "internal",
                                     f"{type(exc).__name__}: {exc}")
        finally:
            self._unpin_session(conn)
            with self._lock:
                self._sessions.discard(conn)
            conn.close()

    def _handle(self, conn: socket.socket, op: str, request: dict) -> bool:
        """Serve one request; returns False when the session should end."""
        if op == "manifest":
            self._serve_manifest(conn, request.get("version"))
        elif op == "file":
            self._serve_file(conn, str(request.get("rel", "")))
        elif op == "chunk":
            self._serve_chunk(conn, str(request.get("id", "")))
        elif op == "done":
            self._unpin_session(conn)
            send_frame(conn, FRAME_META, _json_frame({"ok": True}))
        else:
            self._send_error(conn, "protocol", f"unknown op {op!r}")
        return True

    def _serve_manifest(self, conn: socket.socket,
                        version: Optional[int]) -> None:
        """Pin + serve the live (or explicitly requested) version manifest."""
        if version is None:
            rel = read_pointer(self.root)
        else:
            rel = manifest_rel(int(version))
        raw = self._read_rel(conn, rel)
        if raw is None:
            return
        manifest = decode_manifest(raw, source=rel)  # never serve garbage
        served_version = int(manifest["version"])
        # One pin per session: re-requesting (a resume, a different
        # version) swaps the pin rather than leaking the old one.
        self._unpin_session(conn)
        pin_version(self.root, served_version)
        with self._lock:
            self._pinned[conn] = served_version
        sidecars = sorted(
            f"{MANIFEST_DIR}/{path.name}"
            for path in (self.root / MANIFEST_DIR).glob(
                f"v{served_version}-index-*.json"
            )
        )
        send_frame(conn, FRAME_META, _json_frame({
            "rel": rel, "version": served_version,
            "sidecars": sidecars, "data": True,
        }))
        send_frame(conn, FRAME_DATA, raw)

    def _serve_file(self, conn: socket.socket, rel: str) -> None:
        """Serve a sidecar manifest of the session's pinned version."""
        with self._lock:
            pinned = self._pinned.get(conn)
        prefix = f"{MANIFEST_DIR}/v{pinned}-index-"
        if pinned is None or not rel.startswith(prefix) or "/" in rel[len(prefix):]:
            self._send_error(
                conn, "protocol",
                f"file {rel!r} is not a sidecar of the pinned version",
            )
            return
        raw = self._read_rel(conn, rel)
        if raw is None:
            return
        send_frame(conn, FRAME_META,
                   _json_frame({"rel": rel, "nbytes": len(raw), "data": True}))
        send_frame(conn, FRAME_DATA, raw)

    def _serve_chunk(self, conn: socket.socket, chunk_id: str) -> None:
        if len(chunk_id) != 32 or not all(c in "0123456789abcdef"
                                          for c in chunk_id):
            self._send_error(conn, "protocol", f"bad chunk id {chunk_id!r}")
            return
        try:
            raw = chunk_path(self.root, chunk_id).read_bytes()
        except FileNotFoundError:
            self._send_error(conn, "not_found", f"no chunk {chunk_id} on disk")
            return
        if self.chunk_filter is not None:
            raw = self.chunk_filter(chunk_id, raw)
        send_frame(conn, FRAME_META,
                   _json_frame({"id": chunk_id, "nbytes": len(raw),
                                "data": True}))
        send_frame(conn, FRAME_DATA, raw)

    def _read_rel(self, conn: socket.socket, rel: str) -> Optional[bytes]:
        try:
            return (self.root / rel).read_bytes()
        except FileNotFoundError:
            self._send_error(conn, "not_found", f"no manifest at {rel}")
            return None

    def _send_error(self, conn: socket.socket, code: str, message: str) -> None:
        try:
            send_frame(conn, FRAME_ERR,
                       _json_frame({"code": code, "message": message}))
        except OSError:
            pass

    def _unpin_session(self, conn: socket.socket) -> None:
        with self._lock:
            pinned = self._pinned.pop(conn, None)
        if pinned is not None:
            unpin_version(self.root, pinned)


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
        self._sock.settimeout(timeout_s)

    def request(self, body: dict) -> Tuple[dict, Optional[bytes]]:
        """One paired round trip; returns ``(meta, data-or-None)``."""
        try:
            send_frame(self._sock, FRAME_REQ, _json_frame(body))
            kind, payload = recv_frame(self._sock)
        except socket.timeout as exc:
            raise ReplicationUnavailableError(
                f"peer {self.peer} timed out mid-request"
            ) from exc
        except OSError as exc:
            raise ReplicationUnavailableError(
                f"connection to peer {self.peer} failed ({exc})"
            ) from exc
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
            try:
                kind, data = recv_frame(self._sock)
            except socket.timeout as exc:
                raise ReplicationUnavailableError(
                    f"peer {self.peer} timed out mid-payload"
                ) from exc
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

    # ------------------------------------------------------------------ #
    # Connection + retry plumbing
    # ------------------------------------------------------------------ #
    def _connect(self) -> PeerConnection:
        return PeerConnection(self.peer, timeout_s=self.timeout_s)

    def _with_retries(self, attempt: Callable[[], object], what: str):
        """Run ``attempt`` up to ``retries`` times with exponential backoff.

        Transient failures — a dropped connection, a truncated frame, a
        chunk that failed its checksum — retry; the final failure surfaces
        typed: availability errors as
        :class:`ReplicationUnavailableError`, integrity errors as
        :class:`ReplicationIntegrityError`.
        """
        last: Optional[Exception] = None
        for round_index in range(self.retries):
            if round_index:
                self._retry_count += 1
                time.sleep(self.backoff_s * (2 ** (round_index - 1)))
            try:
                return attempt()
            except (ReplicationUnavailableError, ReplicationProtocolError,
                    ConnectionError, socket.timeout) as exc:
                last = exc
            except SnapshotIntegrityError as exc:
                last = exc
        if isinstance(last, SnapshotIntegrityError):
            raise ReplicationIntegrityError(
                f"{what} kept failing integrity checks after "
                f"{self.retries} attempts: {last}"
            ) from last
        raise ReplicationUnavailableError(
            f"{what} failed after {self.retries} attempts: {last}"
        ) from last

    # ------------------------------------------------------------------ #
    # Fetch
    # ------------------------------------------------------------------ #
    def fetch(self, version: Optional[int] = None) -> FetchReport:
        """Pull one version (the peer's live one by default) into ``root``.

        Ordering mirrors :func:`~repro.serving.snapshot.codec.
        write_snapshot`'s crash contract: every chunk lands (atomic
        replace), then the manifest files, then the ``MANIFEST`` pointer
        flips — so a kill anywhere leaves the directory at its last good
        version and a re-run resumes without re-transferring landed chunks.
        """
        self._retry_count = 0
        state: Dict[str, object] = {}

        def _open_session() -> PeerConnection:
            conn = self._connect()
            try:
                body: Dict[str, object] = {"op": "manifest"}
                # A resume (or a reconnect mid-fetch) must keep fetching
                # the *same* version even if the peer's pointer moved.
                wanted = state.get("version", version)
                if wanted is not None:
                    body["version"] = int(wanted)
                meta, raw = conn.request(body)
                manifest = decode_manifest(raw, source=str(meta.get("rel")))
                state["version"] = int(manifest["version"])
                state["rel"] = str(meta["rel"])
                state["manifest"] = manifest
                state["manifest_raw"] = raw
                state["sidecars"] = [str(s) for s in meta.get("sidecars", ())]
                return conn
            except BaseException:
                conn.close(polite=False)
                raise

        conn = self._with_retries(_open_session, "manifest fetch")
        try:
            report = self._fetch_pinned(conn, state)
        finally:
            conn.close()
        return report

    def _fetch_pinned(self, conn: PeerConnection,
                      state: Dict[str, object]) -> FetchReport:
        manifest: dict = state["manifest"]  # type: ignore[assignment]
        fetched_version = int(state["version"])  # type: ignore[arg-type]
        rel = str(state["rel"])

        # Sidecar index payloads ride along so a warm start on this host
        # restores the trained index too; their manifests arrive (and are
        # validated) before their chunks are scheduled.
        sidecar_raw: Dict[str, bytes] = {}
        sidecar_manifests: List[dict] = []
        for sidecar_rel in state["sidecars"]:  # type: ignore[union-attr]
            def _one_sidecar(rel_=sidecar_rel):
                _meta, raw = self._session_request(
                    conn, state, {"op": "file", "rel": rel_}
                )
                return decode_manifest(raw, source=rel_), raw

            decoded, raw = self._with_retries(
                _one_sidecar, f"sidecar fetch ({sidecar_rel})"
            )
            sidecar_raw[sidecar_rel] = raw
            sidecar_manifests.append(decoded)

        refs = _manifest_chunk_refs([manifest, *sidecar_manifests])
        needed = [
            ref for ref in refs
            if not chunk_path(self.root, ref.chunk_id).exists()
        ]
        already_local = len(refs) - len(needed)

        bytes_fetched = 0
        for ref in needed:
            raw = self._with_retries(
                lambda ref=ref: self._fetch_one_chunk(conn, state, ref),
                f"chunk fetch ({ref.chunk_id})",
            )
            write_bytes_atomic(chunk_path(self.root, ref.chunk_id), raw)
            bytes_fetched += len(raw)
            if self.observer is not None:
                self.observer(ref.chunk_id, len(raw))

        # Chunks are all durable: land the manifest files, then flip.
        for sidecar_rel, raw in sidecar_raw.items():
            write_bytes_atomic(self.root / sidecar_rel, raw)
        write_bytes_atomic(self.root / rel, state["manifest_raw"])
        flipped = self._flip_if_newer(fetched_version, rel)
        return FetchReport(
            peer=self.peer,
            version=fetched_version,
            manifest_rel=rel,
            chunks_fetched=len(needed),
            chunks_already_local=already_local,
            bytes_fetched=bytes_fetched,
            sidecars_fetched=len(sidecar_raw),
            retries=self._retry_count,
            flipped=flipped,
        )

    def _fetch_one_chunk(self, conn: PeerConnection,
                         state: Dict[str, object], ref: ChunkRef) -> bytes:
        """One chunk round trip, verified in memory before it may land."""
        _meta, raw = self._session_request(
            conn, state, {"op": "chunk", "id": ref.chunk_id}
        )
        verify_chunk_bytes(raw, ref, source=f"wire:{self.peer}")
        return raw

    def _session_request(self, conn: PeerConnection, state: Dict[str, object],
                         body: dict) -> Tuple[dict, Optional[bytes]]:
        """One round trip on the session, reconnecting first if it broke.

        A failure mid-frame leaves the socket in an unusable state (the
        reply stream is partially consumed), so the session is marked
        broken and the *next* attempt — a retry round — rebuilds it.
        """
        self._reconnect_if_needed(conn, state)
        try:
            return conn.request(body)
        except (ReplicationError, OSError):
            state["broken"] = True
            try:
                conn._sock.close()
            except OSError:
                pass
            raise

    def _reconnect_if_needed(self, conn: PeerConnection,
                             state: Dict[str, object]) -> PeerConnection:
        """Reuse the session socket, or rebuild it after a peer restart.

        The replacement session re-requests the pinned version's manifest
        (re-pinning it on the peer) so the fetch continues at the version
        it started on, never a mix.
        """
        if conn._sock.fileno() >= 0 and state.get("broken") is not True:
            return conn
        fresh = self._connect()
        try:
            meta, raw = fresh.request(
                {"op": "manifest", "version": int(state["version"])}
            )
            decode_manifest(raw, source=str(meta.get("rel")))
        except BaseException:
            fresh.close(polite=False)
            raise
        try:
            conn._sock.close()
        except OSError:
            pass
        conn._sock = fresh._sock
        state["broken"] = False
        return conn

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


def _manifest_chunk_refs(manifests: Sequence[dict]) -> List[ChunkRef]:
    """Every distinct chunk ref the given manifests reference, stable order."""
    refs: List[ChunkRef] = []
    seen: Set[str] = set()
    for manifest in manifests:
        for section in manifest.get("sections", {}).values():
            for array_refs in section.get("arrays", {}).values():
                for ref_json in array_refs:
                    ref = ChunkRef.from_json(ref_json)
                    if ref.chunk_id not in seen:
                        seen.add(ref.chunk_id)
                        refs.append(ref)
    return refs


def fetch_snapshot(peer: Tuple[str, int], root, *, version: Optional[int] = None,
                   retries: int = 3, backoff_s: float = 0.05,
                   timeout_s: float = 30.0) -> FetchReport:
    """One-shot convenience wrapper: ``SnapshotFetcher(peer, root).fetch()``."""
    return SnapshotFetcher(peer, root, retries=retries, backoff_s=backoff_s,
                           timeout_s=timeout_s).fetch(version=version)
