import socket
import struct

import numpy as np
import pytest

import shiftextract.protocol as sx_protocol
from shiftextract import (
    KIND_ARGMAX,
    POST,
    PRE,
    ExperimentConfig,
    ProtocolError,
    QueryInput,
    RemoteOracle,
    ShiftSet,
    TransportError,
    apply_nonlinear,
    forward_label,
    forward_trace,
    random_model,
    run_attack,
    run_session,
    serve,
)
from shiftextract.protocol import (
    MASK_BOUND,
    PROTOCOL_VERSION,
    TAG_HELLO,
    TAG_ENC_INPUT,
    TAG_ENC_POST,
    TAG_HELLO_ACK,
    TAG_LABEL_RESULT,
    TAG_MASKED_PRE,
    TAG_NONLINEAR_SHARE,
    TAG_SESSION_ERROR,
    ClientConnection,
    SocketTransport,
    Transcript,
    _ReplayTransport,
    _client_session,
    _serve_session,
    blob_payload,
    connect,
    encode_frame,
    payload_tensor,
    replay_transcript,
    tensor_payload,
)


@pytest.fixture
def pool_model():
    return random_model("conv4x3x3-mpr2-fc8-r-fc3", (2, 4, 4), seed=3)


# the pool model, and a residual one whose Add layers the server must walk
SESSION_MODELS = pytest.mark.parametrize(
    "arch,shape",
    [("conv4x3x3-mpr2-fc8-r-fc3", (2, 4, 4)), ("conv2x3x3-r-res{conv2x3x3-r,conv2x3x3-r}-fc6-r-fc3", (2, 5, 5))],
    ids=["pool", "residual"],
)


def _random_plan(model, rng):
    s = ShiftSet()
    for lid in model.nonlinear_ids():
        if rng.random() < 0.7:
            s = s + ShiftSet({(lid, PRE): rng.standard_normal(model.pre_shape(lid))})
        if model.layer(lid).kind != KIND_ARGMAX and rng.random() < 0.7:
            s = s + ShiftSet({(lid, POST): rng.standard_normal(model.out_shape(lid))})
    return s


def _session_masks(model, session_seed):
    """Re-derive the server's per-session masks from its seed (the mask
    stream is drawn in topological layer order, pre then post)."""
    rng = np.random.default_rng(np.random.SeedSequence(session_seed))
    masks = {}
    for spec in model.topo_order:
        if spec.kind in ("ReLU", "MaxPoolReLU", "Argmax"):
            masks[(spec.id, PRE)] = rng.uniform(-MASK_BOUND, MASK_BOUND, size=model.pre_shape(spec.id))
            if spec.kind != KIND_ARGMAX:
                masks[(spec.id, POST)] = rng.uniform(-MASK_BOUND, MASK_BOUND, size=model.out_shape(spec.id))
    return masks


def _loopback_session(model, x, plan, seed):
    """One session against a fresh loopback server: (label, transcript).
    The server's first connection runs its first session from seed
    (seed, 1, 0), so the transcript replays like an in-process one."""
    server = serve(model, seed=seed)
    try:
        conn = connect("%s:%d" % server.address)
        try:
            transcript = Transcript(session_seed=(seed, 1, 0))
            return conn.infer(x, plan, transcript), transcript
        finally:
            conn.close()
    finally:
        server.stop()


def test_empty_plan_matches_plain_inference(pool_model):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 4, 4))
    label, _ = run_session(pool_model, x, seed=1)
    assert label == forward_label(pool_model, QueryInput(x))


@SESSION_MODELS
def test_functional_fidelity_random_plans(arch, shape):
    model = random_model(arch, shape, seed=3)
    rng = np.random.default_rng(1)
    for i in range(25):
        x = rng.standard_normal(shape)
        plan = _random_plan(model, rng)
        label, _ = run_session(model, x, plan, seed=i)
        assert label == forward_label(model, QueryInput(x, plan))


def test_mask_freshness(pool_model):
    x = np.ones((2, 4, 4))
    l1, t1 = run_session(pool_model, x, seed=1)
    l2, t2 = run_session(pool_model, x, seed=2)
    assert l1 == l2
    pre1 = next(p for d, t, l, p in t1.frames if t == TAG_MASKED_PRE)
    pre2 = next(p for d, t, l, p in t2.frames if t == TAG_MASKED_PRE)
    assert pre1 != pre2


def test_share_reconstruction(pool_model):
    """Every share frame unmasks, by the masks one draw per exchange gives
    (``_session_masks``), to the value the in-process evaluation holds
    there: the client's NonlinearShare to the shifted pre-side input, the
    server's MaskedPre to the input before the shift and its
    NonlinearShare to the non-linear output.  The first MaskedPre, whose
    input the server computes from the EncInput alone, is equal byte for
    byte."""
    model = pool_model
    rng = np.random.default_rng(4)
    x = rng.standard_normal(model.input_shape)
    plan = _random_plan(model, rng)
    label, transcript = run_session(model, x, plan, seed=9)
    masks = _session_masks(model, transcript.session_seed)
    tr = forward_trace(model, QueryInput(x, plan))
    shifted = lambda lid: tr.y[lid] + (0.0 if plan.get(lid, PRE) is None else plan.get(lid, PRE))
    first = model.nonlinear_ids()[0]
    checked = 0
    for d, tag, lid, payload in transcript.frames:
        if (d, tag, lid) == ("s2c", TAG_MASKED_PRE, first):
            assert payload == tensor_payload(tr.y[first] - masks[(first, PRE)])
        if tag not in (TAG_MASKED_PRE, TAG_NONLINEAR_SHARE):
            continue
        share = payload_tensor(payload)
        if d == "c2s":
            recon, want = share.reshape(model.pre_shape(lid)) + masks[(lid, PRE)], shifted(lid)
        elif tag == TAG_MASKED_PRE:
            recon, want = share.reshape(model.pre_shape(lid)) + masks[(lid, PRE)], tr.y[lid]
        else:
            want = apply_nonlinear(model.layer(lid), shifted(lid))
            recon = share.reshape(want.shape) + masks[(lid, POST)]
        assert np.abs(recon - want).max() <= 1e-12
        checked += 1
    # a MaskedPre and its reply at every boundary, a NonlinearShare at each but the Argmax
    assert checked == 3 * len(model.nonlinear_ids()) - 1


@SESSION_MODELS
def test_transcript_replay(arch, shape):
    model = random_model(arch, shape, seed=3)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(shape)
    plan = _random_plan(model, rng)
    label, transcript = run_session(model, x, plan, seed=12)
    assert replay_transcript(model, transcript) == label


def test_server_obliviousness_structure(pool_model):
    """Same seed, shifted vs unshifted: the message sequence (tags, layers,
    sizes) is identical; only payload values differ."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 4, 4))
    _, plain = run_session(pool_model, x, seed=3)
    _, shifted = run_session(pool_model, x, _random_plan(pool_model, rng), seed=3)
    assert plain.structure() == shifted.structure()


def test_socket_equals_memory(pool_model):
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 4, 4))
    plan = _random_plan(pool_model, rng)
    l_mem, _ = run_session(pool_model, x, plan, seed=77)
    l_sock, t_sock = _loopback_session(pool_model, x, plan, seed=77)
    assert l_mem == l_sock
    assert replay_transcript(pool_model, t_sock) == l_sock
    assert [e[1] for e in t_sock.structure()] == [
        "EncInput", "MaskedPre", "NonlinearShare", "NonlinearShare", "EncPost",
        "MaskedPre", "NonlinearShare", "NonlinearShare", "EncPost",
        "MaskedPre", "NonlinearShare", "LabelResult",
    ]


def test_sequential_sessions_one_connection(pool_model):
    server = serve(pool_model, seed=0)
    host, port = server.address
    try:
        conn = ClientConnection(host, port)
        x = np.ones((2, 4, 4))
        want = forward_label(pool_model, QueryInput(x))
        assert conn.infer(x) == want
        assert conn.infer(x) == want
        conn.close()
    finally:
        server.stop()


def test_malformed_frame_then_recovery(pool_model):
    server = serve(pool_model, seed=0)
    host, port = server.address
    try:
        raw = socket.create_connection((host, port), timeout=5)
        t = SocketTransport(raw, timeout=5)
        t.send_frame(TAG_HELLO, 0, tensor_payload(np.array([float(PROTOCOL_VERSION)])))
        tag, _, _ = t.recv_frame()
        assert tag == TAG_HELLO_ACK
        t.send_frame(99, 7, b"garbage")  # unknown tag mid-connection
        tag, _, _ = t.recv_frame()
        assert tag == TAG_SESSION_ERROR
        t.close()
        # the server survives for the next connection
        x = np.zeros((2, 4, 4))
        conn = connect(f"{host}:{port}")
        try:
            assert conn.infer(x) == forward_label(pool_model, QueryInput(x))
        finally:
            conn.close()
    finally:
        server.stop()


def test_version_mismatch_rejected(pool_model):
    _assert_hello_refused(pool_model, PROTOCOL_VERSION + 1.0)


def test_fractional_version_rejected(pool_model):
    """A fractional Hello version is refused, not truncated to the server's."""
    _assert_hello_refused(pool_model, PROTOCOL_VERSION + 0.5)


def _assert_hello_refused(model, version):
    server = serve(model, seed=0)
    host, port = server.address
    try:
        raw = socket.create_connection((host, port), timeout=5)
        t = SocketTransport(raw, timeout=5)
        t.send_frame(TAG_HELLO, 0, tensor_payload(np.array([version])))
        tag, _, payload = t.recv_frame()
        assert tag == TAG_SESSION_ERROR
        assert b"version" in payload
        t.close()
    finally:
        server.stop()


def test_client_shape_validation(pool_model):
    """A client-side ProtocolError ends the in-process session: the server
    thread waiting for the client's share sees end of stream, and the other
    way round."""
    import threading
    import time

    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 4, 4))
    bad_plan = ShiftSet({(2, PRE): np.zeros(3)})  # wrong size for that boundary
    before = set(threading.enumerate())
    with pytest.raises(ProtocolError):
        run_session(pool_model, x, bad_plan, seed=0)
    deadline = time.perf_counter() + 1.0
    while [t for t in threading.enumerate() if t not in before] and time.perf_counter() < deadline:
        time.sleep(0.01)
    assert [t for t in threading.enumerate() if t not in before] == []
    # a server-side rejection reaches the client at once, as the server's error
    with pytest.raises(ProtocolError, match="EncInput size"):
        run_session(pool_model, np.zeros(3), seed=0)


@pytest.mark.parametrize("arch, shape, served", [
    ("fc4-r-fc4", (3,), r"input shape \(3,\) and 3 classes; .* input shape \(3,\) and 4 classes$"),
    ("fc4-r-fc3", (5,), r"input shape \(3,\) and 3 classes; .* input shape \(5,\) and 3 classes$"),
], ids=["classes", "input-shape"])
def test_endpoint_attack_checks_the_handshake(monkeypatch, arch, shape, served):
    """An attack whose architecture does not match the served model's
    announced input shape or class count stops at the handshake, with both
    sides named, before the server runs any session."""
    sessions = []
    real = sx_protocol._serve_session
    monkeypatch.setattr(sx_protocol, "_serve_session", lambda *a, **k: sessions.append(1) or real(*a, **k))
    server = serve(random_model("fc4-r-fc3", (3,), seed=1), seed=1)
    try:
        cfg = ExperimentConfig(arch=arch, input_shape=shape, backend="endpoint",
                               endpoint="%s:%d" % server.address)
        with pytest.raises(ProtocolError, match=served):
            run_attack(cfg)
    finally:
        server.stop()
    assert sessions == []


def test_failed_session_does_not_poison_the_next_query():
    """A query the client rejects mid-session leaves the server waiting on
    that session; the oracle drops the connection, so the next valid query
    runs on a fresh one and gets the in-process label."""
    model = random_model("fc4-r-fc3", (3,), seed=1)
    server = serve(model, seed=1)
    oracle = RemoteOracle("%s:%d" % server.address, model.skeleton())
    try:
        with pytest.raises(ProtocolError, match="pre-shift size mismatch on layer 2"):
            oracle(QueryInput(np.zeros(3), ShiftSet({(2, PRE): np.zeros(7)})))
        x = np.random.default_rng(0).standard_normal(3)
        assert oracle(QueryInput(x)) == forward_label(model, QueryInput(x))
    finally:
        oracle.close()
        server.stop()


@pytest.mark.parametrize(
    "reply",
    [
        encode_frame(TAG_SESSION_ERROR, 0, b"busy"),
        encode_frame(TAG_MASKED_PRE, 0, b""),
        # declares a rank-3 input shape but carries no dimensions
        encode_frame(TAG_HELLO_ACK, 0, tensor_payload(np.array([float(PROTOCOL_VERSION), 3.0, 2.0]))),
        # input dimensions and class count must be positive integers
        *(encode_frame(TAG_HELLO_ACK, 0, tensor_payload(np.array([float(PROTOCOL_VERSION), 1.0, *sizes])))
          for sizes in ([float("nan"), 3.0], [4.0, float("nan")], [2.5, 3.0], [0.0, 3.0], [4.0, -3.0])),
    ],
    ids=["rejected", "wrong-tag", "short-ack", "nan-dim", "nan-classes", "fractional-dim", "zero-dim",
         "negative-classes"],
)
def test_failed_handshake_closes_socket(reply):
    """A handshake that fails raises ProtocolError and closes the client's
    socket; an unclosed one would fail the suite with a ResourceWarning."""
    _handshake_refused(reply)


def test_handshake_of_another_version_refused():
    """A HelloAck of another protocol version is refused, naming both
    versions, however well formed the rest of it is."""
    ack = encode_frame(TAG_HELLO_ACK, 0, tensor_payload(np.array([2.0, 1.0, 3.0, 3.0])))
    message = str(_handshake_refused(ack))
    assert message == f"server speaks protocol version 2, this client {PROTOCOL_VERSION}"


def _handshake_refused(reply) -> ProtocolError:
    """The ProtocolError of a client whose Hello a one-shot server answers
    with ``reply``; its socket must be closed."""
    import gc
    import threading

    listener = socket.create_server(("127.0.0.1", 0))

    def one_shot():
        conn, _ = listener.accept()
        with conn:
            SocketTransport(conn, timeout=5).recv_frame()  # the Hello
            conn.sendall(reply)

    server = threading.Thread(target=one_shot)
    server.start()
    try:
        with pytest.raises(ProtocolError) as info:
            ClientConnection(*listener.getsockname()[:2], timeout=5)
    finally:
        server.join(timeout=5)
        listener.close()
    gc.collect()
    return info.value


class _FakeServer:
    """Answers the client's EncInput with one fixed frame."""

    def __init__(self, reply):
        self.reply = reply

    def send_frame(self, tag, layer_id, payload):
        pass

    def recv_frame(self):
        return self.reply


@pytest.mark.parametrize("label", [[], [float("nan")], [1.0, 2.0], [2.5], [-4.0], [float("inf")]],
                         ids=["empty", "nan", "two-values", "fractional", "negative", "inf"])
def test_label_result_checked(label):
    """A LabelResult must carry exactly one finite, integral, non-negative
    value; anything else raises ProtocolError naming the layer, not a bare
    IndexError or ValueError or a label truncated from a wrong one."""
    reply = (TAG_LABEL_RESULT, 5, tensor_payload(np.array(label, dtype=np.float64)))
    with pytest.raises(ProtocolError, match=r"^LabelResult on layer 5 is not one class index") as info:
        _client_session(_FakeServer(reply), np.zeros(3), ShiftSet(), None, 3)
    assert info.value.layer_id == 5


@pytest.mark.parametrize("label, n_classes", [(3.0, 3), (7.0, 3), (1.0, 1)])
def test_label_beyond_the_class_count_refused(label, n_classes):
    """A LabelResult naming a class the model does not have raises
    ProtocolError naming the layer, not a label the attack would trust."""
    reply = (TAG_LABEL_RESULT, 5, tensor_payload(np.array([label])))
    message = rf"^LabelResult on layer 5 is not one class index below {n_classes}: "
    with pytest.raises(ProtocolError, match=message) as info:
        _client_session(_FakeServer(reply), np.zeros(3), ShiftSet(), None, n_classes)
    assert info.value.layer_id == 5


def test_last_class_label_accepted():
    """The highest class index, n_classes - 1, is a label."""
    reply = (TAG_LABEL_RESULT, 5, tensor_payload(np.array([2.0])))
    assert _client_session(_FakeServer(reply), np.zeros(3), ShiftSet(), None, 3) == 2


def test_frame_codec_roundtrip():
    payload = tensor_payload(np.array([1.5, -2.25]))
    frame = encode_frame(TAG_MASKED_PRE, 42, payload)
    tag, lid, length = struct.unpack("<BII", frame[:9])
    assert (tag, lid, length) == (TAG_MASKED_PRE, 42, 16)
    assert np.array_equal(payload_tensor(frame[9:]), [1.5, -2.25])


# ---------------------------------------------------------------------------
# The frame reader, over a connected socket pair


@pytest.fixture
def reader():
    """A transport on one end of a socket pair (0.2 s timeout) and the raw
    other end; both are closed after the test."""
    a, b = socket.socketpair()
    t = SocketTransport(a, timeout=0.2)
    yield t, b
    t.close()
    b.close()


def test_frame_split_across_writes_decodes(reader):
    """A frame written in pieces, 20 ms apart so that the reader meets each
    one alone, decodes: the header split at byte 4, the payload in three."""
    import threading
    import time

    t, peer = reader
    payload = tensor_payload(np.arange(5.0))
    frame = encode_frame(TAG_MASKED_PRE, 7, payload)

    def write():
        for piece in (frame[:4], frame[4:9], payload[:3], payload[3:20], payload[20:]):
            time.sleep(0.02)
            peer.sendall(piece)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    assert t.recv_frame() == (TAG_MASKED_PRE, 7, payload)
    writer.join(timeout=5)
    assert not writer.is_alive()


def test_two_frames_in_one_write_decode_in_order(reader):
    """Both decode, in order; the first nearly fills the transport's first
    buffer, so the second straddles its end."""
    t, peer = reader
    first, second = tensor_payload(np.arange(500.0)), b"second frame " * 20
    assert len(first) < sx_protocol._BUFFER_BYTES < len(first) + len(second)
    peer.sendall(encode_frame(TAG_MASKED_PRE, 2, first) + encode_frame(TAG_SESSION_ERROR, 4, second))
    assert t.recv_frame() == (TAG_MASKED_PRE, 2, first)
    assert t.recv_frame() == (TAG_SESSION_ERROR, 4, second)


def test_frames_larger_than_the_first_buffer_decode(reader):
    """A frame larger than the transport's first buffer grows it, and the
    frames after it still decode."""
    t, peer = reader
    big, small = tensor_payload(np.arange(3000.0)), tensor_payload(np.array([3.0]))
    assert len(big) > sx_protocol._BUFFER_BYTES
    peer.sendall(encode_frame(TAG_ENC_INPUT, 0, big) + encode_frame(TAG_ENC_POST, 1, small))
    assert t.recv_frame() == (TAG_ENC_INPUT, 0, big)
    assert t.recv_frame() == (TAG_ENC_POST, 1, small)


def test_declared_length_alone_allocates_nothing():
    """The read buffer grows with the bytes received, not with the length
    a header declares: a peer that declares 1 MiB and then sends 10 bytes
    leaves the first buffer as it was, and one that sends 5,000 grows it
    to less than twice that."""
    for sent, most in ((10, sx_protocol._BUFFER_BYTES), (5000, 2 * (9 + 5000))):
        a, peer = socket.socketpair()
        t = SocketTransport(a, timeout=0.2)
        peer.sendall(struct.pack("<BII", TAG_MASKED_PRE, 3, 1 << 20) + bytes(sent))
        peer.close()
        with pytest.raises(TransportError, match="^connection closed$"):
            t.recv_frame()
        t.close()
        assert len(t._buf) <= most


def test_oversized_length_refused_before_its_payload(reader):
    """A declared length above the limit raises ProtocolError at once: the
    reader does not wait for a payload that never comes."""
    t, peer = reader
    peer.sendall(struct.pack("<BII", TAG_MASKED_PRE, 3, sx_protocol._MAX_PAYLOAD + 1))
    with pytest.raises(ProtocolError, match="exceeds limit") as info:
        t.recv_frame()
    assert info.value.layer_id == 3


def test_silent_peer_times_out(reader):
    """A peer that sends nothing ends the read with TransportError naming
    the timeout, after the transport's 0.2 s and not much before."""
    import time

    t, _ = reader
    t0 = time.perf_counter()
    with pytest.raises(TransportError, match=r"^recv timed out after 0\.2 s$"):
        t.recv_frame()
    assert 0.18 <= time.perf_counter() - t0 < 2.0


def test_closed_peer_ends_the_read(reader):
    t, peer = reader
    peer.sendall(encode_frame(TAG_MASKED_PRE, 1, b"")[:5])  # half a header, then gone
    peer.close()
    with pytest.raises(TransportError, match="^connection closed$"):
        t.recv_frame()


def test_waiting_frame_read_with_one_syscall():
    """A frame already waiting, header and payload, is read with exactly
    one ``recv_into`` and no other receive call."""
    calls = []

    class Counting(socket.socket):
        def recv_into(self, *args, **kwargs):
            calls.append("recv_into")
            return super().recv_into(*args, **kwargs)

        def recv(self, *args, **kwargs):
            calls.append("recv")
            return super().recv(*args, **kwargs)

    a, b = socket.socketpair()
    t = SocketTransport(Counting(fileno=a.detach()), timeout=5)
    try:
        payload = tensor_payload(np.arange(4.0))
        b.sendall(encode_frame(TAG_NONLINEAR_SHARE, 9, payload))
        assert t.recv_frame() == (TAG_NONLINEAR_SHARE, 9, payload)
        assert calls == ["recv_into"]
    finally:
        t.close()
        b.close()


def test_concurrent_connections(pool_model):
    """Connections run in parallel without sharing mask-RNG state."""
    import threading

    server = serve(pool_model, seed=0)
    host, port = server.address
    rng = np.random.default_rng(11)
    xs = [rng.standard_normal((2, 4, 4)) for _ in range(6)]
    want = [forward_label(pool_model, QueryInput(x)) for x in xs]
    got = [None] * len(xs)

    def worker(i):
        conn = connect(f"{host}:{port}")
        try:
            got[i] = conn.infer(xs[i])
        finally:
            conn.close()

    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(xs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        server.stop()
    assert got == want


def test_finished_connection_threads_dropped(pool_model):
    """A long-running server keeps only its live connection threads."""
    server = serve(pool_model, seed=0)
    try:
        for _ in range(20):
            connect("%s:%d" % server.address).close()
        assert len(server._threads) <= 5
    finally:
        server.stop()


@pytest.mark.parametrize("idle_connection", [False, True])
def test_stop_returns_promptly(pool_model, idle_connection):
    """stop() wakes the accept thread and every connection thread, then
    joins them; none outlives it."""
    import threading
    import time

    before = set(threading.enumerate())
    server = serve(pool_model, seed=0)
    host, port = server.address
    conn = ClientConnection(host, port) if idle_connection else None  # handshaken, then idle
    time.sleep(0.05)  # let the accept thread block in accept()
    try:
        t0 = time.perf_counter()
        server.stop()
        elapsed = time.perf_counter() - t0
    finally:
        if conn is not None:
            conn.close()
    assert elapsed < 0.2
    assert [t for t in threading.enumerate() if t not in before and t.is_alive()] == []


def test_server_counts_sessions_and_errors(pool_model, caplog):
    """Three sessions served to the end and one rejected frame show in the
    server's counters; the rejection is logged at warning level, a client
    that goes away at debug level."""
    import logging

    caplog.set_level(logging.DEBUG, logger="shiftextract.protocol")
    server = serve(pool_model, seed=0)
    host, port = server.address
    try:
        conn = ClientConnection(host, port)
        x = np.ones((2, 4, 4))
        for _ in range(3):
            assert conn.infer(x) == forward_label(pool_model, QueryInput(x))
        conn.close()
        raw = socket.create_connection((host, port), timeout=5)
        t = SocketTransport(raw, timeout=5)
        t.send_frame(TAG_HELLO, 0, tensor_payload(np.array([float(PROTOCOL_VERSION)])))
        assert t.recv_frame()[0] == TAG_HELLO_ACK
        t.send_frame(99, 7, b"garbage")
        assert t.recv_frame()[0] == TAG_SESSION_ERROR
        t.close()
    finally:
        server.stop()  # joins the connection threads, so the counts are final
    assert (server.sessions, server.session_errors) == (3, 1)
    levels = {r.levelno for r in caplog.records if r.name == "shiftextract.protocol"}
    assert levels == {logging.DEBUG, logging.WARNING}


def test_server_times_its_sessions(pool_model):
    """The server keeps the count, total and largest wall time of the
    sessions it served."""
    server = serve(pool_model, seed=0)
    try:
        conn = connect("%s:%d" % server.address)
        try:
            for _ in range(3):
                conn.infer(np.ones((2, 4, 4)))
        finally:
            conn.close()
    finally:
        server.stop()
    assert server.sessions == 3
    assert 0 < server.max_session_seconds <= server.session_seconds


def test_socket_client_raises_the_servers_session_error():
    """A session the server refuses reaches a socket client as the
    server's own error: ``infer`` of 5 values against a model of 3 inputs
    raises ProtocolError with the server's message, and the server counts
    one session error and no session."""
    server = serve(random_model("fc4-r-fc3", (3,), seed=1), seed=0)
    try:
        conn = connect("%s:%d" % server.address)
        try:
            with pytest.raises(ProtocolError, match="^server error: EncInput size does not match model input$"):
                conn.infer(np.zeros(5))
        finally:
            conn.close()
    finally:
        server.stop()
    assert (server.sessions, server.session_errors) == (0, 1)


# the pool model's first boundary, layer 2 (MaxPoolReLU): 64 values in, 16 out
_ENC_INPUT = (TAG_ENC_INPUT, 0, blob_payload(np.zeros(32), bytes(8)))
_PRE_REPLY = (TAG_NONLINEAR_SHARE, 2, tensor_payload(np.zeros(64)))


@pytest.mark.parametrize(
    "replies, message",
    [
        ([(TAG_ENC_POST, 2, blob_payload(np.zeros(64), bytes(8)))], "expected NonlinearShare for layer 2"),
        ([(TAG_NONLINEAR_SHARE, 4, tensor_payload(np.zeros(64)))], "expected NonlinearShare for layer 2"),
        ([(TAG_NONLINEAR_SHARE, 2, tensor_payload(np.zeros(63)))], "NonlinearShare size mismatch on layer 2"),
        ([_PRE_REPLY, (TAG_NONLINEAR_SHARE, 2, tensor_payload(np.zeros(16)))], "expected EncPost for layer 2"),
        ([_PRE_REPLY, (TAG_ENC_POST, 2, blob_payload(np.zeros(17), bytes(8)))], "EncPost size mismatch on layer 2"),
    ],
    ids=["pre-tag", "pre-layer", "pre-size", "post-tag", "post-size"],
)
def test_server_exchange_refuses_a_wrong_reply(pool_model, replies, message):
    """At each of a boundary's two share exchanges, a client reply with the
    wrong tag, layer or size ends the session with an error naming the
    frame the server expected (the text of its SessionError), after the
    server sent that exchange's share frame and nothing more."""
    feed = _ReplayTransport([_ENC_INPUT, *replies])
    rng = np.random.default_rng(0)
    with pytest.raises(ProtocolError, match=f"^{message}$"):
        _serve_session(pool_model, feed, rng)
    assert [(tag, lid) for tag, lid, _ in feed.sent] == [(TAG_MASKED_PRE, 2), (TAG_NONLINEAR_SHARE, 2)][:len(replies)]
