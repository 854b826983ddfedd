"""Retries of a failed scan in ``_extract_layer``, driven through the layer drivers.

``_scan_boundary`` is wrapped so that its first calls raise scripted
errors.  The first scan of a layer measures bias slot (0,), so that slot
sees every scripted error; the scans after them run for real.  The later
tests script the oracle's answers instead, and each failure a real scan or
tie search can raise is driven through it that way.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

import shiftextract.extract as sx_extract
from shiftextract import (
    PRE,
    BoundarySearchConfig,
    BoundarySearchError,
    OracleHandle,
    extract_conv_layer,
    extract_fc_layer,
    extract_feature,
    forward_label,
    random_model,
    relative_errors,
    search_critical,
    zero_input_plan,
)
from shiftextract.extract import (
    BIAS_TOL_FACTOR,
    MAX_RETRIES,
    DeadFeatureError,
    ScanRetryError,
    _controlled_query,
    _phase_base,
)
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


def _scripted(model, script):
    """An oracle that answers query k (from 0) with ``script[k]`` where the
    script has it, and from ``model`` elsewhere."""
    counter = itertools.count()

    def backend(q):
        k = next(counter)
        return script[k] if k in script else forward_label(model, q)

    return OracleHandle(backend, argmax_id=model.argmax_id, n_classes=model.n_classes)


def _bias_point():
    """The small_cnn fixture's FC layer at its bias-phase base, whose
    boundary is ReLU 4, and a critical point tied there by the true
    oracle."""
    model, _ = _relu_layer()
    sk = model.skeleton()
    base = _controlled_query(sk, zero_input_plan(sk, 3), None).shifted(_phase_base(sk, 4))
    return model, sk, base, search_critical(OracleHandle.in_process(model), base, CFG, np.random.default_rng(0))


def test_a_third_class_on_the_sign_probe_fails_the_scan():
    """The sign probe is the two-probe test at z = 0: a third class on
    either of its answers fails the scan after its two queries."""
    model, sk, _, cp = _bias_point()
    third = ({0, 1, 2} - {cp.c1, cp.c2}).pop()
    for script in ({0: third}, {0: cp.c1, 1: third}):
        oracle = _scripted(model, script)
        with pytest.raises(ScanRetryError, match=f"third class {third} intruded on the boundary") as e:
            extract_feature(oracle, sk, cp, 4, (0,), CFG)
        assert e.value.fallback is None and oracle.count == 2


def test_both_probes_failing_at_one_point_fails_the_scan():
    """Each class's nudge answered with the other class at z = 0 is no tie
    and no side of one: the scan fails after its two queries."""
    model, sk, _, cp = _bias_point()
    oracle = _scripted(model, {0: cp.c2, 1: cp.c1})
    with pytest.raises(ScanRetryError, match="both probes failed at one point") as e:
        extract_feature(oracle, sk, cp, 4, (0,), CFG)
    assert e.value.fallback is None and oracle.count == 2


def test_a_positive_scan_that_never_turns_critical_fails():
    """A service that answers class c2 to every query puts the target on
    the positive side (c1's nudge fails at z = 0), and shifting it down
    never ties the pair again up to ``ETA_MAX``: the scan fails, with no
    estimate to fall back on, after 32 queries: the sign probe's two and
    one per doubling from ``ETA_INITIAL_STEP`` while below ``ETA_MAX``."""
    model, sk, _, cp = _bias_point()
    oracle = OracleHandle(lambda q: cp.c2, argmax_id=model.argmax_id, n_classes=model.n_classes)
    with pytest.raises(ScanRetryError, match="positive-branch scan found no flip") as e:
        extract_feature(oracle, sk, cp, 4, (0,), CFG)
    assert e.value.fallback is None and oracle.count == 32


def test_a_failed_confirmation_scan_falls_back_to_its_first_scan(monkeypatch):
    """A service on which the confirmation scan's 2 eps probe never loses
    its label fails that scan after scan 1 found z1: the error carries
    -z1, scan 1's uncorrected estimate.  When that happens on every
    attempt at bias slot (0,), the layer driver stores the last attempt's
    -z1 there, within the probe lag of the truth, and lists the slot in
    ``retried``; the later slots read right."""
    model, extract = _relu_layer()
    held, z1s, errors = [], [], []
    real_flip, real_scan = sx_extract._flip_point, sx_extract._scan_boundary

    def flip_point(oracle, at, c1, c2, eps, *args, **kwargs):
        if eps != 2 * TIE_PROBE or len(z1s) == ATTEMPTS:
            return real_flip(oracle, at, c1, c2, eps, *args, **kwargs)
        z1s.append(float(at(0.0).shifts.get(4, PRE)[0]))  # the released target holds z1 exactly
        held.append(kwargs["failed"])  # every probe of this scan keeps the failing class's label
        try:
            return real_flip(oracle, at, c1, c2, eps, *args, **kwargs)
        finally:
            held.clear()

    def scan(*args, **kwargs):
        try:
            return real_scan(*args, **kwargs)
        except ScanRetryError as e:
            errors.append(e)
            raise

    monkeypatch.setattr(sx_extract, "_flip_point", flip_point)
    monkeypatch.setattr(sx_extract, "_scan_boundary", scan)
    oracle = OracleHandle(lambda q: held[0] if held else forward_label(model, q),
                          argmax_id=model.argmax_id, n_classes=model.n_classes)
    res = extract(oracle)
    assert res.total_queries == oracle.count
    assert len(errors) == ATTEMPTS and all(str(e) == "confirmation scan found no flip" for e in errors)
    assert [e.fallback for e in errors] == [-z1 for z1 in z1s]
    assert res.bias[0] == -z1s[-1]
    assert res.retried == [(0,)] and not res.dead
    true = model.layer(3)
    assert abs(res.bias[0] - true.bias[0]) <= 1e-9
    assert np.abs(res.bias[1:] - true.bias[1:]).max() <= 1e-9
    assert relative_errors(res.weight, true.weight).max() <= 1e-6


def test_a_third_class_in_a_pair_search_is_no_critical_point():
    """A pair search sees only the labels of its pair while every other
    class is pushed down: a third class answering any of its queries, here
    the last bisection query, raises at that query, so no tie is built from
    it.  A converged tie needs no further test: its bracket ends already
    answered with each class (``test_a_polished_tie_is_critical``)."""
    model, _, base, cp = _bias_point()
    dry = OracleHandle.in_process(model)
    search_critical(dry, base, CFG, np.random.default_rng(0))
    third = ({0, 1, 2} - {cp.c1, cp.c2}).pop()
    oracle = _scripted(model, {dry.count - 1: third})
    with pytest.raises(BoundarySearchError, match=f"suppressed pair scan saw class {third}"):
        search_critical(oracle, base, CFG, np.random.default_rng(0))
    assert oracle.count == dry.count
