import threading

import numpy as np
import pytest

from shiftextract import (
    PRE,
    OracleHandle,
    QueryInput,
    ShiftSet,
    forward_label,
)
from shiftextract.protocol import RemoteOracle, serve


def _forced_logits_query(model, logits):
    return QueryInput(
        np.zeros(model.input_shape), ShiftSet({(model.argmax_id, PRE): np.asarray(logits, float)})
    )


def test_query_counting(zero3_model):
    h = OracleHandle.in_process(zero3_model)
    q = QueryInput(np.zeros(2))
    labels = {h.query(q) for _ in range(5)}
    assert labels == {0}
    assert h.count == 5


def test_plain_label_with_zero_shifts(small_cnn):
    h = OracleHandle.in_process(small_cnn)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 5, 5))
    assert h.query(QueryInput(x)) == forward_label(small_cnn, QueryInput(x))


def test_is_critical_forced_tie(zero3_model):
    h = OracleHandle.in_process(zero3_model)
    tie = _forced_logits_query(zero3_model, [1.0, 1.0, 0.0])
    assert h.is_critical(tie, 0, 1)
    assert h.count == 2  # exactly two probes
    apart = _forced_logits_query(zero3_model, [2.0, 1.0, 0.0])
    assert not h.is_critical(apart, 0, 1)
    assert h.count == 4


def test_is_critical_rejects_equal_classes(zero3_model):
    h = OracleHandle.in_process(zero3_model)
    with pytest.raises(ValueError):
        h.is_critical(QueryInput(np.zeros(2)), 1, 1)


def test_banded_soundness_sample(zero3_model):
    """Gap below eps/2 with 2*eps margins is critical; gap above 2*eps is not."""
    h = OracleHandle.in_process(zero3_model)
    eps = h.probe_eps
    rng = np.random.default_rng(7)
    for _ in range(200):
        gap = rng.uniform(0, 0.49 * eps)
        margin = 2.0 * eps * (1.0 + rng.uniform(0.05, 3.0))
        top = rng.uniform(-1, 1)
        logits = [top, top - gap, top - gap - margin]
        assert h.is_critical(_forced_logits_query(zero3_model, logits), 0, 1)
        gap = rng.uniform(2.01 * eps, 1.0)
        logits = [top, top - gap, top - gap - margin]
        assert not h.is_critical(_forced_logits_query(zero3_model, logits), 0, 1)


def test_counter_thread_safety(zero3_model):
    h = OracleHandle.in_process(zero3_model)
    q = QueryInput(np.zeros(2))
    n_threads, per = 8, 200

    def worker():
        for _ in range(per):
            h.query(q)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert h.count == n_threads * per


def test_backend_agreement_quick(small_cnn):
    server = serve(small_cnn, seed=5)
    host, port = server.address
    backend = RemoteOracle(f"{host}:{port}")
    try:
        remote = OracleHandle(
            backend,
            argmax_id=small_cnn.argmax_id,
            n_classes=small_cnn.n_classes,
        )
        local = OracleHandle.in_process(small_cnn)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal((2, 5, 5))
            shifts = ShiftSet({(2, PRE): rng.standard_normal(small_cnn.pre_shape(2))})
            q = QueryInput(x, shifts)
            assert remote.query(q) == local.query(q)
    finally:
        backend.close()
        server.stop()


def test_counter_advances_on_backend_failure(zero3_model):
    calls = {"n": 0}

    def flaky(q):
        calls["n"] += 1
        raise RuntimeError("transport down")

    h = OracleHandle(flaky, argmax_id=4, n_classes=3)
    with pytest.raises(RuntimeError):
        h.query(QueryInput(np.zeros(2)))
    assert h.count == 1 and calls["n"] == 1
