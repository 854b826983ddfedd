"""Retries of a failed scan in ``_extract_layer``, driven through the layer drivers.

``_scan_boundary`` is wrapped so that its first calls raise scripted
errors.  The first scan of a layer measures bias slot (0,), so that slot
sees every scripted error; the scans after them run for real.  The last
test scripts a third class into the oracle's answers instead.
"""

from dataclasses import replace

import numpy as np
import pytest

import shiftextract.extract as sx_extract
from shiftextract import (
    BoundarySearchConfig,
    OracleHandle,
    extract_conv_layer,
    extract_fc_layer,
    forward_label,
    random_model,
)
from shiftextract.extract import BIAS_TOL_FACTOR, MAX_RETRIES, DeadFeatureError, ScanRetryError
from shiftextract.oracle import TIE_PROBE

CFG = BoundarySearchConfig(sphere_norm=10.0)
ATTEMPTS = MAX_RETRIES + 1


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
        successful scan.  A ReLU or maxpool phase opens with its shared
        search."""
        assert self.events[0] == "search"
        ok = next(i for i, e in enumerate(self.events) if isinstance(e, tuple))
        return self.events[1:ok].count("search"), self.events[ok][1]


def _relu_layer(cfg=CFG):
    model = random_model("conv3x3x3-r-fc8-r-fc3", (2, 5, 5), seed=17)  # the small_cnn fixture
    return model, lambda oracle: extract_fc_layer(oracle, model.skeleton(), 3, cfg, np.random.default_rng(0))


def _maxpool_layer():
    model = random_model("conv2x3x3-mpr2-fc3-r-fc3", (1, 4, 4), seed=1)
    return model, lambda oracle: extract_conv_layer(oracle, model.skeleton(), 1, CFG, np.random.default_rng(0))


PATHS = {"relu": _relu_layer, "maxpool": _maxpool_layer}


def _run(monkeypatch, path, faults):
    model, extract = PATHS[path]()
    scans = ScriptedScans(monkeypatch, faults)
    oracle = OracleHandle.in_process(model)
    res = extract(oracle)
    assert res.total_queries == oracle.count  # bias and weight parts sum to the counter's delta
    return res, scans


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("k", [1, MAX_RETRIES])
def test_success_after_k_failures(monkeypatch, path, k):
    res, scans = _run(monkeypatch, path, [ScanRetryError("scripted") for _ in range(k)])
    searches, value = scans.first_slot()
    assert searches == k  # the phase's point is rebuilt once per failure
    assert res.bias[0] == value
    assert (0,) in res.retried and (0,) not in res.dead


@pytest.mark.parametrize("path", sorted(PATHS))
def test_every_attempt_fails_with_fallback(monkeypatch, path):
    faults = [ScanRetryError("scripted", fallback=0.25 + i) for i in range(ATTEMPTS)]
    res, scans = _run(monkeypatch, path, faults)
    assert scans.events[1:].count("fail") == ATTEMPTS
    assert res.bias[0] == 0.25 + MAX_RETRIES  # the last error's fallback
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


def test_failed_hinted_scan_retries_at_a_fresh_point(monkeypatch):
    """A third class on the first probe of a scan 1 started from a measured
    magnitude fails the attempt: the layer driver's retry loop searches a fresh
    critical point and scans again from the same magnitude, and the slot is
    flagged retried.  The scan tolerances below are written for bias
    readings at 1e-9: eta_tol 1e-5 times ``BIAS_TOL_FACTOR``."""
    cfg = replace(CFG, eta_tol=1e-5)
    bias_tol = cfg.eta_tol * BIAS_TOL_FACTOR
    model, extract = _relu_layer(cfg)
    events, third, eta1s = [], [], []
    real_flip, real_search = sx_extract._flip_point, sx_extract.search_critical

    def flip_point(oracle, at, c1, c2, eps, step, *args, **kwargs):
        scan1 = eps == TIE_PROBE  # scan 2 probes at twice that
        events.append(("scan1" if scan1 else "scan2", step))
        if scan1 and step != sx_extract.ETA_INITIAL_STEP and "fault" not in events:
            events.append("fault")
            third.append(({0, 1, 2} - {c1, c2}).pop())  # the next answer
        flip = real_flip(oracle, at, c1, c2, eps, step, *args, **kwargs)
        if scan1:
            eta1s.append(flip[0])
        return flip

    def search(*args, **kwargs):
        events.append("search")
        return real_search(*args, **kwargs)

    monkeypatch.setattr(sx_extract, "_flip_point", flip_point)
    monkeypatch.setattr(sx_extract, "search_critical", search)
    oracle = OracleHandle(lambda q: third.pop() if third else forward_label(model, q),
                          argmax_id=model.argmax_id, n_classes=model.n_classes)
    res = extract(oracle)
    assert res.total_queries == oracle.count
    # the first target has no magnitude yet; the second starts from its value
    # scan 2 starts at the probe lag at slope 1, or at half its tolerance
    # at eta1 when that is larger: bias 0 (0.0039) is below the crossover
    # TIE_PROBE / (0.5 * bias_tol) = 0.02, bias 1 (0.057) above it
    default, eps, lag_tol = sx_extract.ETA_INITIAL_STEP, TIE_PROBE, 0.5 * (bias_tol * eta1s[1])
    assert lag_tol > eps
    hint = abs(res.bias[0])
    assert events[:8] == ["search", ("scan1", default), ("scan2", eps), ("scan1", hint), "fault",
                          "search", ("scan1", hint), ("scan2", lag_tol)]
    assert (1,) in res.retried and (1,) not in res.dead
    assert abs(res.bias[1] - model.layer(3).bias[1]) <= 1e-9


def test_third_class_at_a_bisection_midpoint_retries(monkeypatch):
    """A third class answered to the one probe of a bisection midpoint fails
    the scan: the phase searches a fresh critical point, scans the slot
    again, flags it retried and reads the right value."""
    model, extract = _relu_layer()
    events, third, intruders = [], [], []
    real_flip, real_search = sx_extract._flip_point, sx_extract.search_critical

    def flip_point(oracle, at, c1, c2, eps, step, *args, **kwargs):
        events.append("scan")
        doubled = step  # the next doubling point, in the search's own arithmetic

        def watched(s):
            nonlocal doubled
            if s == 0.0 + doubled:
                doubled *= 2.0
            elif not intruders:  # the first bisection midpoint
                events.append("fault")
                intruders.append(({0, 1, 2} - {c1, c2}).pop())
                third.append(intruders[0])  # the answer to its probe
            return at(s)

        try:
            return real_flip(oracle, watched, c1, c2, eps, step, *args, **kwargs)
        except ScanRetryError as e:
            events.append(str(e))
            raise

    def search(*args, **kwargs):
        events.append("search")
        return real_search(*args, **kwargs)

    monkeypatch.setattr(sx_extract, "_flip_point", flip_point)
    monkeypatch.setattr(sx_extract, "search_critical", search)
    oracle = OracleHandle(lambda q: third.pop() if third else forward_label(model, q),
                          argmax_id=model.argmax_id, n_classes=model.n_classes)
    res = extract(oracle)
    assert res.total_queries == oracle.count
    assert not third
    assert events[:6] == ["search", "scan", "fault", f"third class {intruders[0]} intruded on the boundary",
                          "search", "scan"]
    assert (0,) in res.retried and (0,) not in res.dead
    assert abs(res.bias[0] - model.layer(3).bias[0]) <= 1e-9
