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

Because masks are real-valued, unmasking re-rounds: reconstructed values can
differ from the in-process evaluation by mask-magnitude rounding (~1e-13).
Labels agree exactly except on knife-edge ties.
"""

from __future__ import annotations

import os
import queue
import socket
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from .model import (
    KIND_ADD,
    KIND_ARGMAX,
    KIND_CONV,
    KIND_FC,
    KIND_INPUT,
    KIND_RELU,
    PRE,
    POST,
    ModelGraph,
    QueryInput,
    ShiftSet,
    apply_linear,
    apply_maxpool_relu,
    apply_relu,
)

PROTOCOL_VERSION = 1
ENV_MASK_BOUND = "SHIFTEXTRACT_MASK_BOUND"
DEFAULT_MASK_BOUND = 1e3

_HEADER = struct.Struct("<BII")
_MAX_PAYLOAD = 1 << 28

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


class TransportError(RuntimeError):
    """Connection-level failure; the query that hit it may be retried."""


def _default_mask_bound() -> float:
    return float(os.environ.get(ENV_MASK_BOUND, DEFAULT_MASK_BOUND))


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
    if len(payload) % 8:
        raise ProtocolError(f"tensor payload length {len(payload)} is not a float64 array", layer_id)
    return np.frombuffer(payload, dtype="<f8").astype(np.float64)


def blob_payload(arr: np.ndarray, nonce: bytes) -> bytes:
    if len(nonce) != 8:
        raise ValueError("nonce tag must be 8 bytes")
    return nonce + tensor_payload(arr)


def payload_blob(payload: bytes, layer_id: int = 0) -> tuple[bytes, np.ndarray]:
    if len(payload) < 8:
        raise ProtocolError("blob payload shorter than its nonce tag", layer_id)
    return payload[:8], payload_tensor(payload[8:], layer_id)


class SocketTransport:
    """Frame transport over a byte stream socket."""

    def __init__(self, sock: socket.socket, timeout: float = 30.0):
        self._sock = sock
        sock.settimeout(timeout)

    def send_frame(self, tag: int, layer_id: int, payload: bytes) -> None:
        try:
            self._sock.sendall(encode_frame(tag, layer_id, payload))
        except OSError as e:
            raise TransportError(f"send failed: {e}") from e

    def _recv_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(n - len(buf))
            except OSError as e:
                raise TransportError(f"recv failed: {e}") from e
            if not chunk:
                raise TransportError("connection closed")
            buf.extend(chunk)
        return bytes(buf)

    def recv_frame(self) -> tuple[int, int, bytes]:
        tag, layer_id, length = _HEADER.unpack(self._recv_exact(_HEADER.size))
        if length > _MAX_PAYLOAD:
            raise ProtocolError(f"payload length {length} exceeds limit", layer_id)
        return tag, layer_id, self._recv_exact(length)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class MemoryTransport:
    """In-process frame transport; frames still pass through the byte codec."""

    def __init__(self, inbox: "queue.Queue[bytes]", outbox: "queue.Queue[bytes]", timeout: float = 30.0):
        self._inbox = inbox
        self._outbox = outbox
        self._timeout = timeout

    def send_frame(self, tag: int, layer_id: int, payload: bytes) -> None:
        self._outbox.put(encode_frame(tag, layer_id, payload))

    def recv_frame(self) -> tuple[int, int, bytes]:
        try:
            raw = self._inbox.get(timeout=self._timeout)
        except queue.Empty:
            raise TransportError("in-memory peer did not respond") from None
        tag, layer_id, length = _HEADER.unpack(raw[: _HEADER.size])
        body = raw[_HEADER.size :]
        if length != len(body):
            raise ProtocolError("frame length header disagrees with payload", layer_id)
        return tag, layer_id, body

    def close(self) -> None:
        pass


def memory_pair(timeout: float = 30.0) -> tuple[MemoryTransport, MemoryTransport]:
    a: "queue.Queue[bytes]" = queue.Queue()
    b: "queue.Queue[bytes]" = queue.Queue()
    return MemoryTransport(a, b, timeout), MemoryTransport(b, a, timeout)


# ---------------------------------------------------------------------------
# Transcripts


@dataclass
class Transcript:
    """Client-side record of one session; replayable against equal seeds."""

    session_seed: tuple
    frames: list[tuple[str, int, int, bytes]] = field(default_factory=list)
    mask_bound: float = DEFAULT_MASK_BOUND

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
    mask_bound: float,
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
    if x0.size != int(np.prod(model.input_shape)):
        raise ProtocolError("EncInput size does not match model input", layer_id)
    x0 = x0.reshape(model.input_shape)

    vals: dict[int, np.ndarray] = {}
    label = -1
    for spec in model.topo_order:
        kind = spec.kind
        if kind == KIND_INPUT:
            vals[spec.id] = x0
        elif kind in (KIND_CONV, KIND_FC):
            vals[spec.id] = apply_linear(spec, vals[spec.inputs[0]])
        elif kind == KIND_ADD:
            vals[spec.id] = vals[spec.inputs[0]] + vals[spec.inputs[1]]
        else:
            y = vals[spec.inputs[0]]
            r_y = rng.uniform(-mask_bound, mask_bound, size=y.shape)
            transport.send_frame(TAG_MASKED_PRE, spec.id, tensor_payload(y - r_y))
            tag, lid, payload = transport.recv_frame()
            if tag != TAG_NONLINEAR_SHARE or lid != spec.id:
                raise ProtocolError(f"expected NonlinearShare for layer {spec.id}", lid)
            share = payload_tensor(payload, lid)
            if share.size != y.size:
                raise ProtocolError("share size mismatch", lid)
            y_hat = share.reshape(y.shape) + r_y
            if kind == KIND_ARGMAX:
                label = int(np.argmax(y_hat))
                transport.send_frame(TAG_LABEL_RESULT, spec.id, tensor_payload(np.array([float(label)])))
                continue
            z = apply_relu(y_hat) if kind == KIND_RELU else apply_maxpool_relu(y_hat, spec.kernel, spec.stride)
            r_z = rng.uniform(-mask_bound, mask_bound, size=z.shape)
            transport.send_frame(TAG_NONLINEAR_SHARE, spec.id, tensor_payload(z - r_z))
            tag, lid, payload = transport.recv_frame()
            if tag != TAG_ENC_POST or lid != spec.id:
                raise ProtocolError(f"expected EncPost for layer {spec.id}", lid)
            _, z_share = payload_blob(payload, lid)
            if z_share.size != z.size:
                raise ProtocolError("EncPost size mismatch", lid)
            vals[spec.id] = z_share.reshape(z.shape) + r_z
    return label


class InferenceServer:
    """Socket server running sequential sessions per connection.

    Each session draws fresh masks from a seed derived from (server seed,
    connection index, session index), so concurrent connections never share
    mask RNG state.  The default mask bound comes from the environment
    variable SHIFTEXTRACT_MASK_BOUND, read at server start.
    """

    def __init__(self, model: ModelGraph, seed: int = 0, mask_bound: float | None = None):
        self.model = model
        self.seed = seed
        if mask_bound is None:
            mask_bound = _default_mask_bound()
        self.mask_bound = mask_bound
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._stopping = threading.Event()
        self._conn_counter = 0
        self._conn_lock = threading.Lock()
        self.address: tuple[str, int] | None = None

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
            self._threads.append(t)

    def _handle_connection(self, conn: socket.socket, conn_idx: int) -> None:
        transport = SocketTransport(conn)
        try:
            tag, _, payload = transport.recv_frame()
            if tag != TAG_HELLO:
                raise ProtocolError(f"expected Hello, got {tag_name(tag)}")
            hello = payload_tensor(payload)
            if hello.size < 1 or int(hello[0]) != PROTOCOL_VERSION:
                raise ProtocolError(f"protocol version mismatch (server speaks {PROTOCOL_VERSION})")
            shape = self.model.input_shape
            ack = [float(PROTOCOL_VERSION), float(len(shape)), *map(float, shape), float(self.model.n_classes)]
            transport.send_frame(TAG_HELLO_ACK, 0, tensor_payload(np.array(ack)))
            session_idx = 0
            while not self._stopping.is_set():
                first = transport.recv_frame()
                rng = np.random.default_rng(np.random.SeedSequence((self.seed, conn_idx, session_idx)))
                _serve_session(self.model, transport, rng, self.mask_bound, first_frame=first)
                session_idx += 1
        except TransportError:
            pass  # client went away
        except Exception as e:
            layer_id = getattr(e, "layer_id", 0)
            try:
                transport.send_frame(TAG_SESSION_ERROR, layer_id, str(e).encode("utf-8"))
            except TransportError:
                pass
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


def serve(model: ModelGraph, host: str = "127.0.0.1", port: int = 0, seed: int = 0,
          mask_bound: float | None = None) -> InferenceServer:
    """Start a server and return it; ``server.address`` has the bound port."""
    server = InferenceServer(model, seed=seed, mask_bound=mask_bound)
    server.start(host, port)
    return server


# ---------------------------------------------------------------------------
# Client side


def _client_session(transport, x0: np.ndarray, plan: ShiftSet, transcript: Transcript | None) -> int:
    """Drive one session as the (possibly malicious) client.

    The client needs no architecture knowledge: it answers each MaskedPre
    with its shifted share and re-encrypts each NonlinearShare after adding
    its post-side shift.
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
        if tag == TAG_MASKED_PRE:
            share = payload_tensor(payload, lid)
            delta = plan.get(lid, PRE)
            if delta is not None:
                if delta.size != share.size:
                    raise ProtocolError(f"pre-shift size mismatch on layer {lid}", lid)
                share = share + delta.ravel()
            send(TAG_NONLINEAR_SHARE, lid, tensor_payload(share))
        elif tag == TAG_NONLINEAR_SHARE:
            share = payload_tensor(payload, lid)
            delta = plan.get(lid, POST)
            if delta is not None:
                if delta.size != share.size:
                    raise ProtocolError(f"post-shift size mismatch on layer {lid}", lid)
                share = share + delta.ravel()
            send(TAG_ENC_POST, lid, blob_payload(share, _next_nonce()))
        elif tag == TAG_LABEL_RESULT:
            return int(payload_tensor(payload, lid)[0])
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
        self.transport.send_frame(TAG_HELLO, 0, tensor_payload(np.array([float(PROTOCOL_VERSION)])))
        tag, lid, payload = self.transport.recv_frame()
        if tag == TAG_SESSION_ERROR:
            raise ProtocolError(f"handshake rejected: {payload.decode('utf-8', 'replace')}", lid)
        if tag != TAG_HELLO_ACK:
            raise ProtocolError(f"expected HelloAck, got {tag_name(tag)}", lid)
        ack = payload_tensor(payload)
        ndim = int(ack[1])
        self.input_shape = tuple(int(v) for v in ack[2 : 2 + ndim])
        self.n_classes = int(ack[2 + ndim])

    def infer(self, x0, plan: ShiftSet | None = None, transcript: Transcript | None = None) -> int:
        return _client_session(self.transport, np.asarray(x0), plan or ShiftSet(), transcript)

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

    Keeps one connection and runs one session per query; on transport
    failure it drops the connection (the next query reconnects) and raises
    the retryable TransportError.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint
        self.timeout = timeout
        self._conn: ClientConnection | None = None

    def __call__(self, q: QueryInput) -> int:
        if self._conn is None:
            self._conn = connect(self.endpoint, self.timeout)
        try:
            return self._conn.infer(q.x0, q.shifts)
        except TransportError:
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# ---------------------------------------------------------------------------
# One-shot sessions and replay


def run_session(
    model: ModelGraph,
    x0,
    plan: ShiftSet | None = None,
    transport: str = "memory",
    seed: int = 0,
) -> tuple[int, Transcript]:
    """Run one full protocol session and return (label, transcript).

    ``transport="memory"`` exchanges encoded frames through queues;
    ``transport="socket"`` starts an ephemeral loopback server, including
    the handshake.  The transcript records the session frames only.
    """
    plan = plan or ShiftSet()
    if transport == "memory":
        seed_tuple = (seed, 0, 0)
        bound = _default_mask_bound()
        transcript = Transcript(session_seed=seed_tuple, mask_bound=bound)
        client_t, server_t = memory_pair()
        errors: list[Exception] = []

        def server_main():
            rng = np.random.default_rng(np.random.SeedSequence(seed_tuple))
            try:
                _serve_session(model, server_t, rng, bound)
            except Exception as e:  # surfaced after join
                errors.append(e)

        t = threading.Thread(target=server_main, daemon=True)
        t.start()
        label = _client_session(client_t, np.asarray(x0), plan, transcript)
        t.join(timeout=10.0)
        if errors:
            raise errors[0]
        return label, transcript
    if transport == "socket":
        server = serve(model, seed=seed)
        try:
            host, port = server.address
            conn = ClientConnection(host, port)
            try:
                # first connection on a fresh server: connection index 1, session 0
                transcript = Transcript(session_seed=(seed, 1, 0), mask_bound=server.mask_bound)
                label = conn.infer(x0, plan, transcript)
            finally:
                conn.close()
        finally:
            server.stop()
        return label, transcript
    raise ValueError(f"unknown transport {transport!r}")


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
    return _serve_session(model, feed, rng, transcript.mask_bound)
