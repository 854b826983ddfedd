"""Message-level simulation of the masked hybrid inference protocol.

The server evaluates linear layers on (mock-encrypted) values and, at every
non-linear layer, masks the intermediate with a fresh uniform draw and
exchanges shares with the client.  The mock cipher is the plaintext plus a
nonce tag: the simulator's contract is flow fidelity and malleation-surface
fidelity, not confidentiality.  A malicious client adds its plan's pre-side
shift to the share it returns for the non-linear computation and its
post-side shift to the share it re-encrypts, which is exactly the surface
the extraction attack exploits.

Wire format (bit-exact): length-prefixed frames with header
``<u8 tag, u32 layer id, u32 payload length>`` (little endian); tensor
payloads are little-endian float64 arrays; mock-cipher blobs carry an 8-byte
nonce tag before the float64 data.  A connection starts with a version
handshake that also announces the model input shape and class count, and
then serves sequential sessions (EncInput .. LabelResult).

Each side of a connection costs one syscall per frame.  The socket is
blocking, and its timeout is the kernel's (``SO_RCVTIMEO`` and
``SO_SNDTIMEO``), so no call polls first; a timeout ends the connection
with ``TransportError``.  A frame is sent with one ``sendall``.  It is read
with one ``recv_into`` into the transport's own buffer, header and payload
together; bytes past the frame stay there for the next one.  The buffer
starts at ``_BUFFER_BYTES`` and grows to the largest frame seen, by at
most doubling when full, so memory follows the bytes received and not the
length a header declares.

The server walks the model graph with ``model.walk``, the walk in-process
evaluation uses too; only the non-linear boundary hook differs.  Here the
hook runs one share exchange per side of the boundary, the same code for
both (mask, send, receive, check tag, layer and size, unmask), and the
client answers both share frames in one branch keyed by side, so protocol
fidelity holds by construction.  A session's masks are one uniform draw,
one value per entry of every shift boundary (``ModelGraph.shift_size``),
cut in walk order: each boundary's pre side, then its post side.  That is
the stream one draw per exchange would give.

Because masks are real-valued, unmasking re-rounds: reconstructed values can
differ from the in-process evaluation by mask-magnitude rounding (~1e-13).
Labels agree exactly except on knife-edge ties.
"""

from __future__ import annotations

import math
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .model import (
    KIND_ARGMAX,
    PRE,
    POST,
    LayerSpec,
    ModelGraph,
    QueryInput,
    ShiftSet,
    apply_nonlinear,
    walk,
)
# re-exported, not called here: perfbench/tracing.py patches apply_linear on this module
from .model import apply_linear

PROTOCOL_VERSION = 1
# every mask is uniform in [-MASK_BOUND, MASK_BOUND]: its rounding (~1e-13) stays below oracle.TIE_PROBE
MASK_BOUND = 1e3

_HEADER = struct.Struct("<BII")
_MAX_PAYLOAD = 1 << 28
# a transport's first read buffer; a larger frame grows it
_BUFFER_BYTES = 4096

TAG_HELLO = 1
TAG_HELLO_ACK = 2
TAG_ENC_INPUT = 3
TAG_MASKED_PRE = 4
TAG_NONLINEAR_SHARE = 5
TAG_ENC_POST = 6
TAG_LABEL_RESULT = 7
TAG_SESSION_ERROR = 8

_TAG_NAMES = {
    TAG_HELLO: "Hello",
    TAG_HELLO_ACK: "HelloAck",
    TAG_ENC_INPUT: "EncInput",
    TAG_MASKED_PRE: "MaskedPre",
    TAG_NONLINEAR_SHARE: "NonlinearShare",
    TAG_ENC_POST: "EncPost",
    TAG_LABEL_RESULT: "LabelResult",
    TAG_SESSION_ERROR: "SessionError",
}
# each share frame of a boundary's exchange: the side whose shift the client adds, and the client's reply frame
_REPLIES = {TAG_MASKED_PRE: (PRE, TAG_NONLINEAR_SHARE), TAG_NONLINEAR_SHARE: (POST, TAG_ENC_POST)}


class TransportError(RuntimeError):
    """Connection-level failure; the query that hit it may be retried."""


class ProtocolError(RuntimeError):
    """Malformed or out-of-order protocol message."""

    def __init__(self, message: str, layer_id: int = 0):
        super().__init__(message)
        self.layer_id = layer_id


def tag_name(tag: int) -> str:
    return _TAG_NAMES.get(tag, f"tag{tag}")


# ---------------------------------------------------------------------------
# Frame codec and transports


def encode_frame(tag: int, layer_id: int, payload: bytes) -> bytes:
    return _HEADER.pack(tag, layer_id, len(payload)) + payload


def tensor_payload(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def payload_tensor(payload: bytes, layer_id: int = 0) -> np.ndarray:
    """The float64 array of a tensor payload: a read-only view of its bytes."""
    if len(payload) % 8:
        raise ProtocolError(f"tensor payload length {len(payload)} is not a float64 array", layer_id)
    return np.frombuffer(payload, dtype="<f8")


def blob_payload(arr: np.ndarray, nonce: bytes) -> bytes:
    if len(nonce) != 8:
        raise ValueError("nonce tag must be 8 bytes")
    return nonce + tensor_payload(arr)


def payload_blob(payload: bytes, layer_id: int = 0) -> tuple[bytes, np.ndarray]:
    if len(payload) < 8:
        raise ProtocolError("blob payload shorter than its nonce tag", layer_id)
    return payload[:8], payload_tensor(payload[8:], layer_id)


class SocketTransport:
    """Frame transport over a byte stream socket (see the module docstring
    for how a frame is read and what the timeout is)."""

    def __init__(self, sock: socket.socket, timeout: float = 30.0):
        self._sock = sock
        self._timeout = timeout
        sock.settimeout(None)
        whole = int(timeout)  # a struct timeval: seconds and microseconds, each a C long
        timeval = struct.pack("ll", whole, int((timeout - whole) * 1e6))
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
        self._buf = bytearray(_BUFFER_BYTES)
        self._view = memoryview(self._buf)
        self._start = self._end = 0  # the received bytes not yet returned

    def send_frame(self, tag: int, layer_id: int, payload: bytes) -> None:
        try:
            self._sock.sendall(encode_frame(tag, layer_id, payload))
        except BlockingIOError as e:
            raise TransportError(f"send timed out after {self._timeout:g} s") from e
        except OSError as e:
            raise TransportError(f"send failed: {e}") from e

    def _fill(self, need: int) -> None:
        """Receive until ``need`` bytes are buffered past the read position;
        each pass is one ``recv_into`` of as much as the buffer holds."""
        while self._end - self._start < need:
            # the rest does not fit past the read position, and there is free space in front or none behind
            if self._start + need > len(self._buf) and (self._start or self._end == len(self._buf)):
                self._make_room(need)
            try:
                got = self._sock.recv_into(self._view[self._end :])
            except BlockingIOError as e:
                raise TransportError(f"recv timed out after {self._timeout:g} s") from e
            except OSError as e:
                raise TransportError(f"recv failed: {e}") from e
            if not got:
                raise TransportError("connection closed")
            self._end += got

    def _make_room(self, need: int) -> None:
        """Move the unread bytes to the front of the buffer, and grow it
        toward ``need`` to at most twice what it holds, so that a declared
        length alone allocates nothing."""
        pending = self._buf[self._start : self._end]
        size = min(need, max(len(self._buf), 2 * len(pending)))
        if size > len(self._buf):
            self._buf = bytearray(size)
            self._view = memoryview(self._buf)
        self._buf[: len(pending)] = pending
        self._start, self._end = 0, len(pending)

    def recv_frame(self) -> tuple[int, int, bytes]:
        self._fill(_HEADER.size)
        tag, layer_id, length = _HEADER.unpack_from(self._buf, self._start)
        if length > _MAX_PAYLOAD:
            raise ProtocolError(f"payload length {length} exceeds limit", layer_id)
        self._fill(_HEADER.size + length)
        start = self._start + _HEADER.size
        self._start = start + length
        payload = bytes(self._view[start : self._start])
        if self._start == self._end:
            self._start = self._end = 0
        return tag, layer_id, payload

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Transcripts


@dataclass
class Transcript:
    """Client-side record of one session; replayable against equal seeds."""

    session_seed: tuple
    frames: list[tuple[str, int, int, bytes]] = field(default_factory=list)

    def record(self, direction: str, tag: int, layer_id: int, payload: bytes) -> None:
        self.frames.append((direction, tag, layer_id, payload))

    def structure(self) -> list[tuple[str, str, int, int]]:
        """Shape-only view: (direction, tag name, layer id, payload length)."""
        return [(d, tag_name(t), lid, len(p)) for d, t, lid, p in self.frames]

    def client_frames(self) -> list[tuple[int, int, bytes]]:
        return [(t, lid, p) for d, t, lid, p in self.frames if d == "c2s"]


# ---------------------------------------------------------------------------
# Server side

_nonce_lock = threading.Lock()
_nonce_counter = 0


def _next_nonce() -> bytes:
    global _nonce_counter
    with _nonce_lock:
        _nonce_counter += 1
        return _nonce_counter.to_bytes(8, "little")


def _serve_session(
    model: ModelGraph,
    transport,
    rng: np.random.Generator,
    first_frame: tuple[int, int, bytes] | None = None,
) -> int:
    """Run the server side of one session and return the label it issued.

    The handler branches only on tags and sizes, never on payload values;
    payloads feed arithmetic alone, which keeps the message sequence
    identical whether or not the client shifted its shares.
    """
    frame = first_frame if first_frame is not None else transport.recv_frame()
    tag, layer_id, payload = frame
    if tag != TAG_ENC_INPUT:
        raise ProtocolError(f"expected EncInput, got {tag_name(tag)}", layer_id)
    _, x0 = payload_blob(payload, layer_id)
    if x0.size != math.prod(model.input_shape):
        raise ProtocolError("EncInput size does not match model input", layer_id)
    x0 = x0.reshape(model.input_shape)
    masks = rng.uniform(-MASK_BOUND, MASK_BOUND, size=model.shift_size)
    cut = 0

    def exchange(lid: int, value: np.ndarray, tag: int) -> np.ndarray:
        """Send ``value`` masked in a ``tag`` frame and unmask the client's
        reply (``_REPLIES``), after checking its tag, layer and size.  The
        mask is the next ``value.size`` of the session's masks."""
        nonlocal cut
        mask = masks[cut : cut + value.size].reshape(value.shape)
        cut += value.size
        transport.send_frame(tag, lid, tensor_payload(value - mask))
        reply = _REPLIES[tag][1]
        got, got_lid, payload = transport.recv_frame()
        if got != reply or got_lid != lid:
            raise ProtocolError(f"expected {tag_name(reply)} for layer {lid}", got_lid)
        share = payload_blob(payload, lid)[1] if reply == TAG_ENC_POST else payload_tensor(payload, lid)
        if share.size != value.size:
            raise ProtocolError(f"{tag_name(reply)} size mismatch on layer {lid}", lid)
        return share.reshape(value.shape) + mask

    def boundary(spec: LayerSpec, y: np.ndarray):
        y_hat = exchange(spec.id, y, TAG_MASKED_PRE)
        if spec.kind != KIND_ARGMAX:
            return exchange(spec.id, apply_nonlinear(spec, y_hat), TAG_NONLINEAR_SHARE)
        label = int(np.argmax(y_hat))
        transport.send_frame(TAG_LABEL_RESULT, spec.id, tensor_payload(np.array([float(label)])))
        return label

    return walk(model, x0, boundary, {})


def _log():
    """The module's logger.  ``logging`` is imported on first use: only a
    server logs, and the import adds about 5 ms to every import of the
    package."""
    import logging

    return logging.getLogger(__name__)


class InferenceServer:
    """Socket server running sequential sessions per connection.

    Each session draws fresh masks from a seed derived from (server seed,
    connection index, session index), so concurrent connections never share
    mask RNG state.  Masks are uniform in [-MASK_BOUND, MASK_BOUND].
    ``sessions`` counts the sessions served to the end and
    ``session_errors`` the connections ended by an error reply, each logged
    at warning level on the module's logger.  ``session_seconds`` and
    ``max_session_seconds`` are the total and the largest wall time of the
    counted sessions, from their first frame received to their label sent.
    """

    def __init__(self, model: ModelGraph, seed: int = 0):
        self.model = model
        self.seed = seed
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._stopping = threading.Event()
        self._conn_counter = 0
        self._conn_lock = threading.Lock()
        self.address: tuple[str, int] | None = None
        self.sessions = 0
        self.session_errors = 0
        self.session_seconds = 0.0
        self.max_session_seconds = 0.0

    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(16)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self.address

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._conn_lock:
                if self._stopping.is_set():
                    conn.close()
                    return
                self._conn_counter += 1
                conn_idx = self._conn_counter
                self._conns.add(conn)
            t = threading.Thread(target=self._handle_connection, args=(conn, conn_idx), daemon=True)
            t.start()
            # drop finished connection threads, so a long-running server does not grow
            self._threads = [th for th in self._threads if th.is_alive()] + [t]

    def _handle_connection(self, conn: socket.socket, conn_idx: int) -> None:
        transport = SocketTransport(conn)
        try:
            tag, _, payload = transport.recv_frame()
            if tag != TAG_HELLO:
                raise ProtocolError(f"expected Hello, got {tag_name(tag)}")
            hello = payload_tensor(payload)
            if hello.size < 1 or hello[0] != PROTOCOL_VERSION:
                raise ProtocolError(f"protocol version mismatch (server speaks {PROTOCOL_VERSION})")
            shape = self.model.input_shape
            ack = [float(PROTOCOL_VERSION), float(len(shape)), *map(float, shape), float(self.model.n_classes)]
            transport.send_frame(TAG_HELLO_ACK, 0, tensor_payload(np.array(ack)))
            session_idx = 0
            while not self._stopping.is_set():
                first = transport.recv_frame()
                t0 = time.perf_counter()
                rng = np.random.default_rng(np.random.SeedSequence((self.seed, conn_idx, session_idx)))
                _serve_session(self.model, transport, rng, first_frame=first)
                elapsed = time.perf_counter() - t0
                session_idx += 1
                with self._conn_lock:
                    self.sessions += 1
                    self.session_seconds += elapsed
                    self.max_session_seconds = max(self.max_session_seconds, elapsed)
        except TransportError as e:
            _log().debug("connection %d closed: %s", conn_idx, e)
        except Exception as e:
            with self._conn_lock:
                self.session_errors += 1
            _log().warning("connection %d ended by a session error: %s", conn_idx, e)
            layer_id = getattr(e, "layer_id", 0)
            try:
                transport.send_frame(TAG_SESSION_ERROR, layer_id, str(e).encode("utf-8"))
            except TransportError as e2:
                _log().debug("connection %d closed before its error reply: %s", conn_idx, e2)
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            transport.close()

    def stop(self) -> None:
        """Stop accepting, end every open connection and join the threads.

        Shutting a socket down wakes the thread blocked on it: the accept
        thread sees an error, a connection thread sees end of stream."""
        self._stopping.set()
        if self._listener is not None:
            _shutdown(self._listener)
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            _shutdown(conn)
        for t in self._threads:
            t.join(timeout=2.0)


def _shutdown(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # not connected, or already shut down


def serve(model: ModelGraph, host: str = "127.0.0.1", port: int = 0, seed: int = 0) -> InferenceServer:
    """Start a server and return it; ``server.address`` has the bound port."""
    server = InferenceServer(model, seed=seed)
    server.start(host, port)
    return server


# ---------------------------------------------------------------------------
# Client side


def _whole(values: np.ndarray, least: int) -> bool:
    """Whether every value is a finite integer of at least ``least``."""
    return all(v.is_integer() and v >= least for v in values.tolist())  # is_integer() is False for inf and NaN


def _client_session(
    transport, x0: np.ndarray, plan: ShiftSet, transcript: Transcript | None, n_classes: int
) -> int:
    """Drive one session as the (possibly malicious) client.

    The client needs no architecture knowledge: it answers each MaskedPre
    with its shifted share and re-encrypts each NonlinearShare after adding
    its post-side shift.  The LabelResult must name one of the model's
    ``n_classes`` classes.
    """
    def send(tag, lid, payload):
        transport.send_frame(tag, lid, payload)
        if transcript is not None:
            transcript.record("c2s", tag, lid, payload)

    def recv():
        tag, lid, payload = transport.recv_frame()
        if transcript is not None:
            transcript.record("s2c", tag, lid, payload)
        return tag, lid, payload

    send(TAG_ENC_INPUT, 0, blob_payload(np.asarray(x0, dtype=np.float64).ravel(), _next_nonce()))
    while True:
        tag, lid, payload = recv()
        if tag in _REPLIES:
            side, reply = _REPLIES[tag]
            share = payload_tensor(payload, lid)
            delta = plan.get(lid, side)
            if delta is not None:
                if delta.size != share.size:
                    raise ProtocolError(f"{side}-shift size mismatch on layer {lid}", lid)
                share = share + delta.ravel()
            send(reply, lid, tensor_payload(share) if side == PRE else blob_payload(share, _next_nonce()))
        elif tag == TAG_LABEL_RESULT:
            label = payload_tensor(payload, lid)
            if label.size != 1 or not _whole(label, 0) or label[0] >= n_classes:
                raise ProtocolError(
                    f"LabelResult on layer {lid} is not one class index below {n_classes}: {label.tolist()}", lid
                )
            return int(label[0])
        elif tag == TAG_SESSION_ERROR:
            raise ProtocolError(f"server error: {payload.decode('utf-8', 'replace')}", lid)
        else:
            raise ProtocolError(f"unexpected {tag_name(tag)} from server", lid)


class ClientConnection:
    """Handshaked connection able to run sequential inference sessions."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as e:
            raise TransportError(f"connect to {host}:{port} failed: {e}") from e
        self.transport = SocketTransport(sock, timeout)
        try:
            self.transport.send_frame(TAG_HELLO, 0, tensor_payload(np.array([float(PROTOCOL_VERSION)])))
            tag, lid, payload = self.transport.recv_frame()
            if tag == TAG_SESSION_ERROR:
                raise ProtocolError(f"handshake rejected: {payload.decode('utf-8', 'replace')}", lid)
            if tag != TAG_HELLO_ACK:
                raise ProtocolError(f"expected HelloAck, got {tag_name(tag)}", lid)
            # version, ndim, the ndim input dimensions, the class count
            ack = payload_tensor(payload)
            if ack.size and ack[0] != PROTOCOL_VERSION:
                raise ProtocolError(f"server speaks protocol version {ack[0]:g}, this client {PROTOCOL_VERSION}")
            if ack.size < 3 or ack[1] != ack.size - 3:
                raise ProtocolError(f"HelloAck of {ack.size} values does not match its declared input rank")
            if not _whole(ack[2:], 1):
                raise ProtocolError(
                    f"HelloAck input dimensions and class count are not positive integers: {ack[2:].tolist()}"
                )
        except BaseException:
            self.transport.close()
            raise
        self.input_shape = tuple(int(v) for v in ack[2:-1])
        self.n_classes = int(ack[-1])

    def infer(self, x0, plan: ShiftSet | None = None, transcript: Transcript | None = None) -> int:
        return _client_session(self.transport, np.asarray(x0), plan or ShiftSet(), transcript, self.n_classes)

    def close(self) -> None:
        self.transport.close()


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must be host:port, got {endpoint!r}")
    return host, int(port)


def connect(endpoint: str, timeout: float = 30.0) -> ClientConnection:
    host, port = parse_endpoint(endpoint)
    return ClientConnection(host, port, timeout)


class RemoteOracle:
    """Label backend for OracleHandle that queries a served model.

    Keeps one connection and runs one session per query.  A session that
    fails for any reason drops the connection, so the next query reconnects
    instead of reading the failed session's leftovers; its error is
    re-raised (TransportError is the retryable one).  Every connection
    checks the input shape and class count the server announces against
    ``skeleton``, the architecture the attack assumes, and raises
    ProtocolError naming both before any session runs.
    """

    def __init__(self, endpoint: str, skeleton: ModelGraph, timeout: float = 30.0):
        self.endpoint = endpoint
        self.skeleton = skeleton
        self.timeout = timeout
        self._conn: ClientConnection | None = None

    def __call__(self, q: QueryInput) -> int:
        if self._conn is None:
            conn = connect(self.endpoint, self.timeout)
            served = (conn.input_shape, conn.n_classes)
            expected = (self.skeleton.input_shape, self.skeleton.n_classes)
            if served != expected:
                conn.close()
                raise ProtocolError(
                    f"{self.endpoint} serves input shape {served[0]} and {served[1]} classes; "
                    f"the attacked architecture has input shape {expected[0]} and {expected[1]} classes"
                )
            self._conn = conn
        try:
            return self._conn.infer(q.x0, q.shifts)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# ---------------------------------------------------------------------------
# One-shot sessions and replay


def run_session(model: ModelGraph, x0, plan: ShiftSet | None = None, seed: int = 0) -> tuple[int, Transcript]:
    """Run one full protocol session in process and return (label, transcript).

    Client and server exchange encoded frames over a connected socket pair,
    with no listener and no handshake; the server draws its masks from
    session seed ``(seed, 0, 0)``.  The transcript records the session
    frames.  A loopback session is ``serve`` plus
    ``connect(...).infer(x0, plan, transcript)``.
    """
    seed_tuple = (seed, 0, 0)
    transcript = Transcript(session_seed=seed_tuple)
    client_sock, server_sock = socket.socketpair()
    client_t, server_t = SocketTransport(client_sock), SocketTransport(server_sock)
    errors: list[Exception] = []

    # each side closes its own end when it is done, so a peer still
    # waiting on it sees end of stream at once
    def server_main():
        rng = np.random.default_rng(np.random.SeedSequence(seed_tuple))
        try:
            _serve_session(model, server_t, rng)
        except TransportError:
            pass  # the client went away
        except Exception as e:  # surfaced by the client's side
            errors.append(e)
        finally:
            server_t.close()

    t = threading.Thread(target=server_main, daemon=True)
    t.start()
    try:
        label = _client_session(client_t, np.asarray(x0), plan or ShiftSet(), transcript, model.n_classes)
    except TransportError:
        if errors:  # the server failed, then closed its end
            raise errors[0] from None
        raise
    finally:
        client_t.close()
        t.join(timeout=10.0)
    return label, transcript


class _ReplayTransport:
    """Feeds recorded client frames to a server session and captures output."""

    def __init__(self, client_frames: list[tuple[int, int, bytes]]):
        self._frames = list(client_frames)
        self.sent: list[tuple[int, int, bytes]] = []

    def recv_frame(self) -> tuple[int, int, bytes]:
        if not self._frames:
            raise TransportError("transcript exhausted")
        return self._frames.pop(0)

    def send_frame(self, tag: int, layer_id: int, payload: bytes) -> None:
        self.sent.append((tag, layer_id, payload))


def replay_transcript(model: ModelGraph, transcript: Transcript) -> int:
    """Feed a transcript's client messages to a fresh session with the same
    seed and return the label the server issues."""
    rng = np.random.default_rng(np.random.SeedSequence(transcript.session_seed))
    feed = _ReplayTransport(transcript.client_frames())
    return _serve_session(model, feed, rng)
