"""Retry semantics of the phase runner, driven through the layer drivers.

``_scan_boundary`` is wrapped so that its first calls raise scripted
errors.  The first scan of a layer measures bias slot (0,), so that slot
sees every scripted error; the scans after them run for real.
"""

import numpy as np
import pytest

import shiftextract.extract as sx_extract
from shiftextract import (
    BoundarySearchConfig,
    OracleHandle,
    extract_conv_layer,
    extract_fc_layer,
    random_model,
)
from shiftextract.extract import DeadFeatureError, ScanRetryError

CFG = BoundarySearchConfig(sphere_norm=10.0, max_retries=3)
ATTEMPTS = CFG.max_retries + 1


class ScriptedScans:
    """Plays ``faults`` on the first scans and logs every critical search
    and scan, in order: "search", "fail" or ("ok", value)."""

    def __init__(self, monkeypatch, faults):
        self.faults = list(faults)
        self.events = []
        real_scan, real_search = sx_extract._scan_boundary, sx_extract.search_critical

        def scan(*args, **kwargs):
            if self.faults:
                self.events.append("fail")
                raise self.faults.pop(0)
            res = real_scan(*args, **kwargs)
            self.events.append(("ok", res.value))
            return res

        def search(*args, **kwargs):
            self.events.append("search")
            return real_search(*args, **kwargs)

        monkeypatch.setattr(sx_extract, "_scan_boundary", scan)
        monkeypatch.setattr(sx_extract, "search_critical", search)

    def first_slot(self):
        """(critical searches after the phase's own, value) of the first
        successful scan."""
        assert self.events[0] == "search"
        ok = next(i for i, e in enumerate(self.events) if isinstance(e, tuple))
        return self.events[1:ok].count("search"), self.events[ok][1]


def _relu_layer():
    model = random_model("conv3x3x3-r-fc8-r-fc3", (2, 5, 5), seed=17)  # the small_cnn fixture
    return model, lambda oracle: extract_fc_layer(oracle, model.skeleton(), 3, CFG, np.random.default_rng(0))


def _maxpool_layer():
    model = random_model("conv2x3x3-mpr2-fc3-r-fc3", (1, 4, 4), seed=1)
    return model, lambda oracle: extract_conv_layer(oracle, model.skeleton(), 1, CFG, np.random.default_rng(0))


PATHS = {"relu": _relu_layer, "maxpool": _maxpool_layer}


def _run(monkeypatch, path, faults):
    model, extract = PATHS[path]()
    scans = ScriptedScans(monkeypatch, faults)
    oracle = OracleHandle.in_process(model)
    res = extract(oracle)
    assert res.total_queries == oracle.count  # per-slot counts sum to the counter's delta
    return res, scans


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("k", [1, CFG.max_retries])
def test_success_after_k_failures(monkeypatch, path, k):
    res, scans = _run(monkeypatch, path, [ScanRetryError("scripted") for _ in range(k)])
    searches, value = scans.first_slot()
    # ReLU: the phase's point is rebuilt once per failure; maxpool: one
    # fresh point per attempt
    assert searches == (k if path == "relu" else k + 1)
    assert res.bias[0] == value
    assert (0,) in res.retried and (0,) not in res.dead


@pytest.mark.parametrize("path", sorted(PATHS))
def test_every_attempt_fails_with_fallback(monkeypatch, path):
    faults = [ScanRetryError("scripted", fallback=0.25 + i) for i in range(ATTEMPTS)]
    res, scans = _run(monkeypatch, path, faults)
    assert scans.events[1:].count("fail") == ATTEMPTS
    assert res.bias[0] == 0.25 + CFG.max_retries  # the last error's fallback
    assert (0,) in res.retried and (0,) not in res.dead


@pytest.mark.parametrize("path", sorted(PATHS))
def test_every_attempt_fails_without_fallback(monkeypatch, path):
    res, _ = _run(monkeypatch, path, [ScanRetryError("scripted") for _ in range(ATTEMPTS)])
    assert res.bias[0] == 0.0
    assert (0,) in res.retried and (0,) not in res.dead


@pytest.mark.parametrize("path", sorted(PATHS))
def test_dead_on_retry_is_dead_and_retried(monkeypatch, path):
    res, _ = _run(monkeypatch, path, [ScanRetryError("scripted"), DeadFeatureError("scripted")])
    assert res.bias[0] == 0.0
    assert (0,) in res.dead and (0,) in res.retried
