import socket
import struct

import numpy as np
import pytest

from shiftextract import (
    KIND_ARGMAX,
    POST,
    PRE,
    ProtocolError,
    QueryInput,
    ShiftSet,
    forward_label,
    forward_trace,
    random_model,
    replay_transcript,
    run_session,
    serve,
)
from shiftextract.protocol import (
    DEFAULT_MASK_BOUND,
    PROTOCOL_VERSION,
    TAG_HELLO,
    TAG_HELLO_ACK,
    TAG_MASKED_PRE,
    TAG_NONLINEAR_SHARE,
    TAG_SESSION_ERROR,
    ClientConnection,
    SocketTransport,
    connect,
    encode_frame,
    payload_tensor,
    tensor_payload,
)


@pytest.fixture
def pool_model():
    return random_model("conv4x3x3-mpr2-fc8-r-fc3", (2, 4, 4), seed=3)


def _random_plan(model, rng):
    s = ShiftSet()
    for lid in model.nonlinear_ids():
        if rng.random() < 0.7:
            s = s + ShiftSet({(lid, PRE): rng.standard_normal(model.pre_shape(lid))})
        if model.layer(lid).kind != KIND_ARGMAX and rng.random() < 0.7:
            s = s + ShiftSet({(lid, POST): rng.standard_normal(model.out_shape(lid))})
    return s


def _session_masks(model, session_seed, bound=DEFAULT_MASK_BOUND):
    """Re-derive the server's per-session masks from its seed (the mask
    stream is drawn in topological layer order, pre then post)."""
    rng = np.random.default_rng(np.random.SeedSequence(session_seed))
    masks = {}
    for spec in model.topo_order:
        if spec.kind in ("ReLU", "MaxPoolReLU", "Argmax"):
            masks[(spec.id, PRE)] = rng.uniform(-bound, bound, size=model.pre_shape(spec.id))
            if spec.kind != KIND_ARGMAX:
                masks[(spec.id, POST)] = rng.uniform(-bound, bound, size=model.out_shape(spec.id))
    return masks


def test_empty_plan_matches_plain_inference(pool_model):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 4, 4))
    label, _ = run_session(pool_model, x, transport="memory", seed=1)
    assert label == forward_label(pool_model, QueryInput(x))


def test_functional_fidelity_random_plans(pool_model):
    rng = np.random.default_rng(1)
    for i in range(25):
        x = rng.standard_normal((2, 4, 4))
        plan = _random_plan(pool_model, rng)
        label, _ = run_session(pool_model, x, plan, transport="memory", seed=i)
        assert label == forward_label(pool_model, QueryInput(x, plan))


def test_mask_freshness(pool_model):
    x = np.ones((2, 4, 4))
    l1, t1 = run_session(pool_model, x, transport="memory", seed=1)
    l2, t2 = run_session(pool_model, x, transport="memory", seed=2)
    assert l1 == l2
    pre1 = next(p for d, t, l, p in t1.frames if t == TAG_MASKED_PRE)
    pre2 = next(p for d, t, l, p in t2.frames if t == TAG_MASKED_PRE)
    assert pre1 != pre2


def test_share_reconstruction(pool_model):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 4, 4))
    plan = _random_plan(pool_model, rng)
    label, transcript = run_session(pool_model, x, plan, transport="memory", seed=9)
    masks = _session_masks(pool_model, transcript.session_seed)
    tr = forward_trace(pool_model, QueryInput(x, plan))
    checked = 0
    for d, tag, lid, payload in transcript.frames:
        if d == "c2s" and tag == TAG_NONLINEAR_SHARE:
            recon = payload_tensor(payload).reshape(pool_model.pre_shape(lid)) + masks[(lid, PRE)]
            pre = plan.get(lid, PRE)
            want = tr.y[lid] + (pre if pre is not None else 0.0)
            assert np.abs(recon - want).max() <= 1e-12
            checked += 1
    assert checked == len(pool_model.nonlinear_ids())


def test_transcript_replay(pool_model):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 4, 4))
    plan = _random_plan(pool_model, rng)
    label, transcript = run_session(pool_model, x, plan, transport="memory", seed=12)
    assert replay_transcript(pool_model, transcript) == label


def test_server_obliviousness_structure(pool_model):
    """Same seed, shifted vs unshifted: the message sequence (tags, layers,
    sizes) is identical; only payload values differ."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 4, 4))
    _, plain = run_session(pool_model, x, transport="memory", seed=3)
    _, shifted = run_session(pool_model, x, _random_plan(pool_model, rng), transport="memory", seed=3)
    assert plain.structure() == shifted.structure()


def test_socket_equals_memory(pool_model):
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 4, 4))
    plan = _random_plan(pool_model, rng)
    l_mem, _ = run_session(pool_model, x, plan, transport="memory", seed=77)
    l_sock, t_sock = run_session(pool_model, x, plan, transport="socket", seed=77)
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
    server = serve(pool_model, seed=0)
    host, port = server.address
    try:
        raw = socket.create_connection((host, port), timeout=5)
        t = SocketTransport(raw, timeout=5)
        t.send_frame(TAG_HELLO, 0, tensor_payload(np.array([float(PROTOCOL_VERSION + 1)])))
        tag, _, payload = t.recv_frame()
        assert tag == TAG_SESSION_ERROR
        assert b"version" in payload
        t.close()
    finally:
        server.stop()


def test_client_shape_validation(pool_model):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 4, 4))
    bad_plan = ShiftSet({(2, PRE): np.zeros(3)})  # wrong size for that boundary
    with pytest.raises(ProtocolError):
        run_session(pool_model, x, bad_plan, transport="memory", seed=0)


def test_frame_codec_roundtrip():
    payload = tensor_payload(np.array([1.5, -2.25]))
    frame = encode_frame(TAG_MASKED_PRE, 42, payload)
    tag, lid, length = struct.unpack("<BII", frame[:9])
    assert (tag, lid, length) == (TAG_MASKED_PRE, 42, 16)
    assert np.array_equal(payload_tensor(frame[9:]), [1.5, -2.25])


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


def test_mask_bound_env_read_at_start(pool_model, monkeypatch):
    from shiftextract.protocol import ENV_MASK_BOUND, InferenceServer

    monkeypatch.setenv(ENV_MASK_BOUND, "250.0")
    assert InferenceServer(pool_model).mask_bound == 250.0
    monkeypatch.delenv(ENV_MASK_BOUND)
    assert InferenceServer(pool_model).mask_bound == DEFAULT_MASK_BOUND
    assert InferenceServer(pool_model, mask_bound=7.0).mask_bound == 7.0


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
