"""N-ary reads: one label query tests every class boundary at once.

A fully-connected or convolution layer into a ReLU or MaxPoolReLU reads
its weights through class lines (``_read_lines``): every logit is a line
in the released target's output, measured once per target
(``_calibrate_lines``; a convolution's targets sit at the map centre), and
a query places one breakpoint between each pair of adjacent lines.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shiftextract as sx
import shiftextract.extract as sx_extract
from shiftextract import (
    KIND_ARGMAX,
    KIND_CONV,
    KIND_FC,
    KIND_INPUT,
    KIND_MPR,
    KIND_RELU,
    PRE,
    BoundarySearchConfig,
    BoundarySearchError,
    CriticalPoint,
    ExperimentConfig,
    default_target_layers,
    LayerSpec,
    ModelGraph,
    OracleHandle,
    QueryInput,
    extract_conv_layer,
    extract_fc_layer,
    extract_feature,
    forward_label,
    forward_trace,
    random_model,
    run_attack,
    search_critical,
    verify_models,
)
from shiftextract.extract import (
    ETA_MAX,
    NARY_DRIFT_CAP,
    NARY_MIN_SLOPE_GAP,
    NARY_TIE_DRIFT,
    SCAN_ABS_TOL,
    SUPPRESSION,
    TIE_POLISH_TOL,
    _calibrate_lines,
    _class_ties,
    _LineCalibration,
    _phase_base,
    _reads_nary,
    attack_order,
)
import shiftextract.harness as sx_harness
from shiftextract.harness import layer_error_summary, relative_errors
from conftest import fc_layer

CFG = BoundarySearchConfig(sphere_norm=10.0)
CFG_1E8 = BoundarySearchConfig(sphere_norm=10.0, eta_tol=1e-8)  # for tests whose bounds are written at 1e-8


def _lines_toy(n_classes: int, bias: float, seed: int, gap: float = 1.0) -> ModelGraph:
    """One hidden feature x0 + ``bias`` into ``n_classes`` logits whose
    slopes are distinct multiples of ``gap``, so adjacent lines are at
    least ``gap`` apart."""
    rng = np.random.default_rng(seed)
    slopes = gap * (rng.permutation(n_classes) - n_classes // 2)
    layers = [
        LayerSpec(id=0, kind=KIND_INPUT, shape=(1,)),
        fc_layer(1, 0, [[1.0]], [bias]),
        LayerSpec(id=2, kind=KIND_RELU, inputs=(1,)),
        fc_layer(3, 2, slopes.reshape(-1, 1).astype(float), rng.uniform(-1.0, 1.0, n_classes)),
        LayerSpec(id=4, kind=KIND_ARGMAX, inputs=(3,)),
    ]
    return ModelGraph(layers, output=4)


def _toy_lines(model, oracle, bias, cfg=CFG):
    """The toy's calibration as the layer driver makes it: a tie at the
    bias-phase base (x0 = 0, where the feature reads ``bias``), every
    class's intercept, tied with ``cp.c1`` from 0 and polished, then the
    target's slopes, read to ``cfg.eta_tol``."""
    base = QueryInput(np.zeros(1)).shifted(_phase_base(model, 2))
    cp = search_critical(oracle, base, cfg, np.random.default_rng(0))
    others = [c for c in range(oracle.n_classes) if c not in (cp.c1, cp.c2)]
    starts = [0.0] * oracle.n_classes
    polished = _class_ties(oracle, [(None, base, others)], cp.c1, starts, cfg, TIE_POLISH_TOL, 0.0)
    intercepts = {cp.c1: 0.0, cp.c2: cp.t} | {c: t for _, c, t in polished if t is not None}
    lines = _calibrate_lines(oracle, 2, base, cp.c1, intercepts, {(0,): bias}, cfg)
    return cp, _LineCalibration(intercepts, lines, None)


def _read(oracle, model, cp, lines, value, bias, cfg, spread):
    """An n-ary read of the feature at x0 = value - bias, and the feature's
    white-box value there."""
    base = QueryInput(np.array([value - bias])).shifted(_phase_base(model, 2))
    point = CriticalPoint(v=base, c1=cp.c1, c2=cp.c2, t=cp.t)
    truth = forward_trace(model, base).y[2][0]
    return extract_feature(oracle, model, point, 2, (0,), cfg, first_step=spread, lines=lines), truth


@settings(max_examples=60, deadline=None)
@given(
    magnitude=st.floats(1e-3, 1e2),
    negative=st.booleans(),
    n_classes=st.integers(3, 10),
    bias=st.floats(-10.0, 10.0),
    log_spread=st.floats(-4.0, 2.0),
    log_tol=st.integers(-12, -3),
    seed=st.integers(0, 2**16),
)
# an edge label on the first window: the window grows beyond it, at most FEATURE_BOUND wide
@example(magnitude=81.0, negative=False, n_classes=10, bias=0.0, log_spread=0.09375, log_tol=-3, seed=0)
def test_read_lines_tolerance(magnitude, negative, n_classes, bias, log_spread, log_tol, seed):
    """A value of magnitude 1e-3 to 1e2, of either sign, read through 3 to
    10 class lines from a window of any width around the bias, lands within
    max(eta_tol |v - centre|, SCAN_ABS_TOL) of the truth, up to float
    noise: the read measures its tolerance from the lines' centre, the
    bias reading.  Every class is kept, and the read is flagged "nary"."""
    value = -magnitude if negative else magnitude
    model = _lines_toy(n_classes, bias, seed)
    oracle = OracleHandle.in_process(model)
    cp, cal = _toy_lines(model, oracle, bias)
    lines = cal.lines[0]
    assert sorted(lines.classes) == list(range(n_classes))
    gaps = np.diff(lines.slopes)  # each 1 exactly, off by at most the lines' drift: the slope ties only place breakpoints
    assert np.all(np.abs(gaps - 1.0) <= lines.drift * gaps) and lines.drift <= NARY_DRIFT_CAP
    cfg = BoundarySearchConfig(sphere_norm=10.0, eta_tol=10.0**log_tol)
    spread = abs(value - bias) * 10.0**log_spread
    res, truth = _read(oracle, model, cp, lines, value, bias, cfg, spread)
    assert res.branch == "nary" and lines.centre == bias
    tol = max(cfg.eta_tol * abs(truth - lines.centre), SCAN_ABS_TOL)
    assert abs(res.value - truth) <= tol + 8 * np.spacing(abs(truth))


def test_read_lines_value_at_the_first_windows_edge():
    """A value 2.3e-8 above the bottom of the read's first window (-1.0,
    five classes, spread 1.0000000230) reads within eta_tol 1e-8 of the
    truth, like every value in ``test_read_lines_tolerance``.  Its first
    label grows the window five-fold below, which puts the old bottom on
    the breakpoint between the top two sub-windows, 8 from the new bottom.
    The slopes' error may move that breakpoint above the value; the label
    that names the sub-window below is widened by that error
    (``ClassLines.drift``), so the read does not end at -1.0000000271, the
    old bottom, as it did before."""
    model = _lines_toy(5, 0.0, seed=0)
    oracle = OracleHandle.in_process(model)
    cp, cal = _toy_lines(model, oracle, 0.0, CFG_1E8)
    res, truth = _read(oracle, model, cp, cal.lines[0], -1.0, 0.0, CFG_1E8, 10.0**1e-8)
    assert abs(res.value - truth) <= CFG_1E8.eta_tol * abs(truth) + 8 * np.spacing(abs(truth))


@settings(max_examples=60, deadline=None)
@given(
    n_classes=st.integers(3, 10),
    bias=st.floats(-10.0, 10.0),
    seed=st.integers(0, 2**16),
    log_cal_tol=st.integers(-9, -5),
    log_tol=st.floats(-12.0, -3.0),
    log_spread=st.floats(-3.0, 1.5),
    data=st.data(),
)
def test_read_lines_value_on_a_breakpoint(n_classes, bias, seed, log_cal_tol, log_tol, log_spread, data):
    """A value within 1e-10 to 1e-6 of a breakpoint of the read's first
    window, or of its edges, where the slopes' error (read to 1e-9 to 1e-5)
    may send a label to the neighbouring sub-window, still reads within
    max(eta_tol |v - centre|, SCAN_ABS_TOL) of the truth, or within 1.5
    ``lines.resolution`` where that is wider: each label's bracket carries
    its breakpoints' error (``ClassLines.drift``)."""
    model = _lines_toy(n_classes, bias, seed)
    oracle = OracleHandle.in_process(model)
    cp, cal = _toy_lines(model, oracle, bias, BoundarySearchConfig(sphere_norm=10.0, eta_tol=10.0**log_cal_tol))
    lines = cal.lines[0]
    m, spread = len(lines.classes), 10.0**log_spread
    k = data.draw(st.integers(0, m), label="breakpoint")
    offset = data.draw(st.sampled_from([-1.0, 1.0]), label="side") * 10.0 ** data.draw(st.floats(-10.0, -6.0))
    value = bias - spread + k * 2.0 * spread / m + offset * max(1.0, abs(bias))
    cfg = BoundarySearchConfig(sphere_norm=10.0, eta_tol=10.0**log_tol)
    res, truth = _read(oracle, model, cp, lines, value, bias, cfg, spread)
    tol = max(cfg.eta_tol * abs(truth - bias), SCAN_ABS_TOL, 1.5 * lines.resolution)
    assert abs(res.value - truth) <= tol + 8 * np.spacing(abs(truth)) + 8 * np.spacing(abs(bias))


@pytest.mark.parametrize("n_classes", [3, 4, 10])
@pytest.mark.parametrize("value", [-37.5, -0.4, 2e-3, 0.9, 61.0])
@pytest.mark.parametrize("spread", [1e-4, 0.3, 20.0])
def test_read_lines_step_count(n_classes, value, spread):
    """A read through m lines takes at most ceil(log_m(W0 / tol)) queries,
    W0 = 2 spread its first window, plus two per widening: the query whose
    edge label grows the window m-fold beyond an unconfirmed side, and the
    narrowing that growth costs.  The widenings are counted from the labels
    alone."""
    bias = 0.25
    model = _lines_toy(n_classes, bias, seed=n_classes)
    labels = []
    oracle = OracleHandle(lambda q: labels.append(forward_label(model, q)) or labels[-1],
                          argmax_id=model.argmax_id, n_classes=model.n_classes)
    cp, cal = _toy_lines(model, oracle, bias)
    lines = cal.lines[0]
    m = len(lines.classes)
    labels.clear()
    res, truth = _read(oracle, model, cp, lines, value, bias, CFG, spread)
    assert abs(res.value - truth) <= CFG.eta_tol * abs(truth - bias)
    position = {c: i for i, c in enumerate(lines.classes)}
    lo_ok = hi_ok = False
    widenings = 0
    for label in labels:
        k = position[label]
        if 0 < k < m - 1 or (k == 0 and lo_ok) or (k == m - 1 and hi_ok):
            lo_ok = hi_ok = True
        else:
            widenings += 1
            lo_ok, hi_ok = lo_ok or k == m - 1, hi_ok or k == 0
    # the stop test takes the tolerance at the window's lower end, within
    # a relative eta_tol of the value's distance from the bias reading
    tol = max(SCAN_ABS_TOL, CFG.eta_tol * abs(truth - bias) * (1.0 - 1e-6))
    assert len(labels) <= math.ceil(math.log(2.0 * spread / tol, m)) + 2 * widenings


def test_a_read_ends_where_its_breakpoints_cannot_narrow_it(monkeypatch):
    """Slopes read to a coarse eta_tol (0.5) move each breakpoint by about
    half its distance from the window's bottom (``ClassLines.drift``), so
    a label's widened bracket can be as wide as the window it splits.  The
    calibration keeps no such lines: ``_kept_lines`` drops every line whose
    gap to the last kept one leaves the drift beyond ``NARY_DRIFT_CAP``,
    and the target keeps the binary scan.  Kept without that cap (drift
    1.5), the read fails with ``ScanRetryError``, after a bounded number of
    queries, instead of splitting that window again and again or returning
    the midpoint of a bracket that may lie far from the value."""
    cfg = BoundarySearchConfig(sphere_norm=10.0, eta_tol=0.5)
    model = _lines_toy(4, 0.5, seed=4)
    labels = []

    def backend(q):
        assert len(labels) < 200, "the read does not end"
        labels.append(forward_label(model, q))
        return labels[-1]

    oracle = OracleHandle(backend, argmax_id=model.argmax_id, n_classes=model.n_classes)
    assert _toy_lines(model, oracle, 0.5, cfg)[1].lines == {}
    labels.clear()
    monkeypatch.setattr(sx_extract, "NARY_DRIFT_CAP", math.inf)
    cp, cal = _toy_lines(model, oracle, 0.5, cfg)
    assert cal.lines[0].drift > 0.1
    labels.clear()
    with pytest.raises(sx_extract.ScanRetryError, match="could not narrow"):
        _read(oracle, model, cp, cal.lines[0], 3.0, 0.5, cfg, 1.0)
    assert 0 < len(labels) < 50


@pytest.mark.parametrize("attack_seed", [1, 2, 3])
def test_a_coarse_eta_tol_reads_every_weight_or_flags_it(monkeypatch, attack_seed):
    """At eta_tol 3e-2 on the relu-inproc model (model seed 3) the slopes'
    error leaves some n-ary reads of layer 1 unable to narrow their
    bracket.  Such a read fails, and its slot is read again binary and
    listed as retried, so every weight reads within eta_tol or is listed
    as retried or dead.  When the read returned that bracket's midpoint,
    attack seeds 1 and 2 read 17 weights up to 14 off, none flagged."""
    eta, arch, shape = 3e-2, "conv2x3x3-r-fc12-r-fc4", (2, 6, 6)
    truth = random_model(arch, shape, seed=3)
    results, real = {}, sx_harness._extract_one

    def extract_one(oracle, skeleton, layer_id, *args):
        results[layer_id] = real(oracle, skeleton, layer_id, *args)
        return results[layer_id]

    monkeypatch.setattr(sx_harness, "_extract_one", extract_one)
    cfg = ExperimentConfig(arch=arch, input_shape=shape, model_seed=3, attack_seed=attack_seed,
                           search=BoundarySearchConfig(eta_tol=eta))
    run_attack(cfg, truth=truth)
    assert sorted(results) == [1, 3, 5]
    for lid, res in results.items():
        true = truth.layer(lid)
        if res.gauge_fixed:
            assert layer_error_summary(res.bias, res.weight, true.bias, true.weight, gauge=True)[1].max() <= eta
            continue
        flagged = set(res.dead) | set(res.retried)
        errors = relative_errors(res.weight, true.weight)
        assert not [slot for slot, e in np.ndenumerate(errors) if e > eta and slot not in flagged]


def _duplicate_class_model():
    """A 4-class FC model whose classes 2 and 3 have the same weights, so
    one of them is dropped from every target's lines and stays suppressed
    in every n-ary query, yet ties with the others."""
    model = random_model("fc6-r-fc4", (16,), seed=5)
    last = model.layer(3)
    weight, bias = last.weight.copy(), last.bias.copy()
    weight[3] = weight[2]
    bias[3] = bias[2] - 0.3
    return model.with_params({3: (weight, bias)})


def test_suppressed_label_retries_with_a_binary_scan(monkeypatch):
    """A backend that answers one n-ary query with a class the query
    suppressed fails that read: the phase retries the slot with a binary
    scan at a fresh critical point, flags it retried, and reads it right.
    The layer's generator (seed 2) never draws the pair (2, 3), which no
    target can tell apart."""
    model = _duplicate_class_model()
    reading, answered, events = [], [], []
    real_read, real_scan = sx_extract._read_lines, sx_extract._scan_boundary

    def read_lines(*args, **kwargs):
        reading.append(True)
        try:
            return real_read(*args, **kwargs)
        except sx_extract.ScanRetryError as e:
            events.append(str(e))
            raise
        finally:
            reading.pop()

    def scan(*args, **kwargs):
        events.append("scan")
        return real_scan(*args, **kwargs)

    def backend(q):
        if reading and not answered:
            shift = q.shifts.get(model.argmax_id, PRE)
            answered.append(int(np.flatnonzero(shift == -SUPPRESSION)[0]))
            events.append(f"answered {answered[0]}")
            return answered[0]
        return forward_label(model, q)

    monkeypatch.setattr(sx_extract, "_read_lines", read_lines)
    monkeypatch.setattr(sx_extract, "_scan_boundary", scan)
    oracle = OracleHandle(backend, argmax_id=model.argmax_id, n_classes=model.n_classes)
    res = extract_fc_layer(oracle, model.skeleton(), 1, CFG, np.random.default_rng(2))
    assert res.total_queries == oracle.count
    bias_scans = model.layer(1).bias.size
    suppressed = answered[0]
    assert events[bias_scans:bias_scans + 3] == [
        f"answered {suppressed}", f"suppressed class {suppressed} answered an n-ary read", "scan"
    ]
    assert "scan" not in events[bias_scans + 3:]  # the later slots read n-ary again
    assert res.retried == [(0, 0)] and not res.dead
    true = model.layer(1)
    assert sx.relative_errors(res.weight, true.weight).max() <= 1e-6
    assert sx.relative_errors(res.bias, true.bias).max() <= 1e-6


def test_a_moved_tie_falls_back_to_binary_scans():
    """The intercepts hold only while the phase's tie sits where they
    predict it: beyond ``NARY_TIE_DRIFT``, or for a class whose tie was
    unreachable, the phase scans binary."""
    model = _lines_toy(4, 0.5, seed=1)
    oracle = OracleHandle.in_process(model)
    cp, cal = _toy_lines(model, oracle, 0.5)
    assert cal.holds(cp)
    moved = CriticalPoint(v=cp.v, c1=cp.c1, c2=cp.c2, t=cp.t + 2 * NARY_TIE_DRIFT)
    assert not cal.holds(moved)
    del cal.intercepts[cp.c2]
    assert not cal.holds(cp)


def test_read_stops_at_the_breakpoints_resolution():
    """Slopes just above ``NARY_MIN_SLOPE_GAP`` put a breakpoint up to the
    tie error over the gap from where the read places it
    (``lines.resolution``, about 8e-11 here), wider than the tolerance of a
    value near 1e-3.  The read stops at that resolution: it lands within
    1.5 of it of the truth (half the last window plus the breakpoint
    error), and spends no query splitting below it.  The tolerance is
    eta_tol 1e-9, at which the resolution is the wider of the two."""
    cfg = BoundarySearchConfig(sphere_norm=10.0, eta_tol=1e-9)
    spread = 5e-4
    for n_classes, bias, value in [(3, 1e-3, 1.1e-3), (4, -1e-3, -0.9e-3), (7, 1.2e-3, 1e-3)]:
        model = _lines_toy(n_classes, bias, seed=n_classes, gap=1.2 * NARY_MIN_SLOPE_GAP)
        labels = []
        oracle = OracleHandle(lambda q: labels.append(forward_label(model, q)) or labels[-1],
                              argmax_id=model.argmax_id, n_classes=model.n_classes)
        cp, cal = _toy_lines(model, oracle, bias)
        lines = cal.lines[0]
        m = len(lines.classes)
        assert m == n_classes
        assert lines.resolution > 10 * max(cfg.eta_tol * abs(value), SCAN_ABS_TOL)
        labels.clear()
        res, truth = _read(oracle, model, cp, lines, value, bias, cfg, spread)
        assert abs(res.value - truth) <= 1.5 * lines.resolution
        # no widening: the value lies in an inner sub-window of the first window, bias +- spread
        assert len(labels) <= math.ceil(math.log(2.0 * spread / lines.resolution, m))


def test_the_rule():
    """Only a layer into a ReLU or MaxPoolReLU boundary whose injection
    reaches the logits only through that boundary, once an identity skip
    around it is cancelled (``_skip_cancel``), reads n-ary, and only when
    its weight phases repay the calibration ties; a MaxPoolReLU downstream
    refuses nothing, since its pinned windows keep the lines straight.  A
    layer that writes no terminal table reads its slope ties to 2^-12 of
    their move (``SLOPE_TIE_REL``), or to eta_tol where that is coarser,
    at log2(1 / rel) + 7 queries each (19 at the default 3e-7, where
    log2(1 / eta_tol) is 21.7), and each intercept tie costs 47: then a
    6-output FC layer of 3 classes needs 4 inputs (a read saves 13.0
    queries), of 4 classes 5 (15.8), of 10 classes 12 (20.2), and one of
    2 classes 4 (a read saves 5 queries, against a slope tie's 19).  At
    eta_tol = 1e-3, where a read and a slope tie both learn fewer digits,
    a 4-class one needs 7.  When the layer feeds the terminal layer and
    the attack targets both (``attack_order``), its slope ties are
    referenced at class 0 and read to eta_tol / 2 (log2(2 / eta_tol) + 7,
    29.7 queries), and spare the terminal's readings, priced like slope
    ties at the tolerance the terminal reads them to: 6 (m - 1) weights to
    eta_tol (28.7 each) and m - 1 biases to 1e-4 eta_tol (42.0 each), 214
    queries per class against 6 slope ties' 178.  Then every such layer
    reads n-ary from one input, for 2, 3, 4 and 10 classes, at the default
    and at 1e-10 (295 against 247 per class); at 1e-3 (132 against 108)
    2, 3 and 4 classes read n-ary from one input, 10 classes from 3.
    Forced both ways in whole attacks, the side the rule picks costs less
    at each of these tolerances
    (``test_the_credit_picks_the_cheaper_attack``: at 1e-10 fc6-r-fc4 with
    1 input reads n-ary in 1,316 queries against 1,504, and at 1e-3
    fc6-r-fc10 with 1 input binary in 1,426 against 1,506).  A convolution
    reads n_in kh kw weights per output channel, so relu-inproc's conv (2
    x 3 x 3 reads per target) reads n-ary, and so does a 4-class conv into
    a maxpool boundary; one with 1 x 3 x 3 reads per target and 10 classes
    does not repay its 9 slope ties per target."""

    def rule(arch, shape, layer_id, eta_tol=BoundarySearchConfig().eta_tol, shared=False):
        skeleton = random_model(arch, shape, seed=1).skeleton()
        ties = dict(attack_order(skeleton, default_target_layers(skeleton)))[layer_id] if shared else None
        return _reads_nary(skeleton, layer_id, skeleton.n_classes, eta_tol, ties)

    for classes, least in [(2, 4), (3, 4), (4, 5), (10, 12)]:
        assert rule(f"fc6-r-fc{classes}", (least,), 1)
        assert not rule(f"fc6-r-fc{classes}", (least - 1,), 1)
        assert rule(f"fc6-r-fc{classes}", (1,), 1, shared=True)
        assert rule(f"fc6-r-fc{classes}", (1,), 1, eta_tol=1e-10, shared=True)
    for classes, least in [(2, 1), (3, 1), (4, 1), (10, 3)]:
        assert rule(f"fc6-r-fc{classes}", (least,), 1, eta_tol=1e-3, shared=True)
    assert not rule("fc6-r-fc10", (2,), 1, eta_tol=1e-3, shared=True)
    assert not rule("fc6-r-fc4", (6,), 1, eta_tol=1e-3)
    assert rule("fc6-r-fc4", (7,), 1, eta_tol=1e-3)
    assert rule("conv2x3x3-r-fc12-r-fc4", (2, 6, 6), 3)
    assert rule("conv2x3x3-r-fc12-r-fc4", (2, 6, 6), 1)  # a convolution: 18 reads per output channel
    assert not rule("conv2x3x3-r-fc12-r-fc4", (2, 6, 6), 5)  # the terminal layer
    assert rule("conv4x3x3-mpr2-fc8-r-fc4", (2, 8, 8), 1)  # a maxpool boundary
    assert not rule("conv4x3x3-r-fc10", (1, 6, 6), 1)  # 9 reads per target do not repay 9 slope ties
    assert rule("conv4x3x3-r-fc10", (2, 6, 6), 1)  # 18 do
    # a second maxpool downstream of the boundary passes one pinned member per window: affine
    assert rule("conv4x3x3-mpr2-conv4x3x3-mpr2-fc8-r-fc4", (2, 8, 8), 1)
    assert rule("conv4x3x3-mpr2-conv4x3x3-mpr2-fc8-r-fc4", (2, 8, 8), 3)
    # the Add-fed layer of pool-res: its skip joins before the layer
    pool_res = "conv4x3x3-mpr2-res{conv4x3x3-r,}-fc8-r-fc4"
    assert rule(pool_res, (2, 8, 8), 6) and rule(pool_res, (2, 8, 8), 1)
    # layers inside a residual branch: the identity skip is cancelled at the branch's boundary
    assert rule(pool_res, (2, 8, 8), 3)
    assert rule("fc12-r-res{fc12-r,}-fc4", (16,), 1)
    assert rule("fc12-r-res{fc12-r,}-fc4", (16,), 3)
    # a skip that only parameters could cancel: each branch carries the other's injection
    assert not rule("fc8-r-res{fc8-r,fc8-r}-fc4", (12,), 3)
    assert not rule("fc8-r-res{fc8-r,fc8-r}-fc4", (12,), 5)


@pytest.mark.parametrize("eta_tol, arch, shape", [
    (3e-7, "fc6-r-fc4", (5,)),  # n-ary: three slope ties per target, read coarse, repaid by 5 reads
    (3e-7, "fc8-r-fc10", (30,)),  # n-ary: nine slope ties per target, repaid by 30 reads
    (3e-7, "fc12-r-fc2", (72,)),  # n-ary: two lines only save scan 2 and the sign probe, 72 times
    (3e-7, "conv2x3x3-r-fc12-r-fc4", (2, 6, 6)),  # n-ary: the relu-inproc conv, 18 reads per output channel
    (3e-7, "conv4x3x3-r-fc10", (2, 6, 6)),  # n-ary: 18 reads repay nine slope ties per target, narrowly
    (3e-7, "conv2x3x3-r-fc10", (2, 6, 6)),  # n-ary: two outputs repay the eight intercept ties
    (3e-7, "conv4x3x3-r-fc10", (1, 6, 6)),  # binary: 9 reads do not repay nine slope ties
    (3e-7, "conv2x3x3-mpr2-fc3-r-fc3", (1, 4, 4)),  # n-ary: the pool-endpoint conv, into a maxpool boundary
    (3e-7, "fc6-r-fc4", (3,)),  # binary: three slope ties per target, not repaid by 3 reads
    # near the break-even at 1e-8, where slope ties read to eta_tol kept these layers binary
    (1e-8, "fc6-r-fc4", (6,)),
    (1e-8, "fc6-r-fc10", (15,)),
    (1e-8, "fc6-r-fc2", (7,)),
], ids=["fc6-r-fc4-shape0", "fc8-r-fc10-shape1", "fc12-r-fc2-shape2", "conv2x3x3-r-fc12-r-fc4-shape3",
        "conv4x3x3-r-fc10-shape4", "conv2x3x3-r-fc10-shape5", "conv4x3x3-r-fc10-shape6",
        "conv2x3x3-mpr2-fc3-r-fc3-shape7", "fc6-r-fc4-3in", "fc6-r-fc4-6in-1e-8", "fc6-r-fc10-15in-1e-8",
        "fc6-r-fc2-7in-1e-8"])
def test_the_rule_picks_the_cheaper_read(monkeypatch, eta_tol, arch, shape):
    """On layers on either side of the rule, fully connected and
    convolutional, forced to read n-ary and binary in turn, the side the
    rule picks spends fewer queries, and both read the layer right.  A
    convolution has one layout either way: one phase per tap, every
    output channel read at the map centre."""
    cfg = BoundarySearchConfig(sphere_norm=10.0, eta_tol=eta_tol)
    truth = random_model(arch, shape, seed=1)
    skeleton = truth.skeleton()
    extract = extract_conv_layer if skeleton.layer(1).kind == KIND_CONV else extract_fc_layer
    queries = {}
    for nary in (True, False):
        monkeypatch.setattr(sx_extract, "_reads_nary", lambda *a, nary=nary: nary)
        res = extract(OracleHandle.in_process(truth), skeleton, 1, cfg, np.random.default_rng(1))
        assert (res.calibration_queries > 0) == nary
        assert sx.relative_errors(res.weight, truth.layer(1).weight).max() <= 1e-6
        queries[nary] = res.total_queries
    picked = _reads_nary(skeleton, 1, skeleton.n_classes, eta_tol)
    assert queries[picked] < queries[not picked]


@pytest.mark.parametrize("arch, shape, model_seed, attack_seed, layer_id, queries, calibration", [
    ("conv4x3x3-mpr2-res{conv4x3x3-r,conv4x3x3-r}-fc8-r-fc4", (2, 8, 8), 9, 5, 3, 6184, 0),
    ("conv4x3x3-mpr2-conv4x3x3-mpr2-fc8-r-fc4", (2, 8, 8), 1, 1, 1, 1615, 291),
    ("conv2x3x3-r-fc12-r-fc10", (2, 6, 6), 3, 1, 1, 1247, 712),
], ids=["two-branch-skip", "maxpool-downstream", "ten-class"])
def test_refused_convolutions_scan_as_before(arch, shape, model_seed, attack_seed, layer_id, queries, calibration):
    """Convolutions that the rule once refused or refuses, each read in the
    one layout, one weight phase per tap, every target at the map centre.
    A residual-branch conv whose injection also reaches the logits through
    a second branch with parameters, which no shift cancels
    (``_skip_cancel``), scans binary: 4,927 queries in the
    per-input-channel layout, 7,565 in this one with a re-tie galloping
    from ``TIE_POLISH_TOL``, 6,257 galloping from the last move, and
    6,258 with the probe at ``ETA_MAX`` after ``PAIR_DOUBLINGS`` doublings,
    which its first weight phase's re-tie (a move of about 1 from
    ``TIE_POLISH_TOL``) makes, and 6,184 once a polished tie is no longer
    tested again (two queries per critical search).  Layer 1 of the
    two-maxpool model, once refused for its second MaxPoolReLU downstream,
    reads n-ary through the pinned windows: 2,473 queries binary, 1,766
    with its lines referenced at the bias phase's class, 1,756 at class 0,
    410 of them calibration, and 1,615, 291 of them calibration, with its
    slope ties read to 2^-12 of their move.  The ten-class CI conv (two
    outputs share eight intercept ties) scanned binary, 1,285 queries in
    the old layout and 1,330 in this one; with coarse slope ties it repays
    them and reads n-ary, 1,247 queries, 712 of them calibration.  Each
    reads right, nothing dead."""
    truth = random_model(arch, shape, seed=model_seed)
    cfg = ExperimentConfig(arch=arch, input_shape=shape, model_seed=model_seed, attack_seed=attack_seed,
                           layers=[layer_id])
    report, extracted = run_attack(cfg, truth=truth)
    (layer,) = report.layers
    assert layer.error is None and not layer.dead
    assert (layer.queries, layer.calibration_queries) == (queries, calibration)
    est, true = extracted.layer(layer_id), truth.layer(layer_id)
    eb, ew = layer_error_summary(est.bias, est.weight, true.bias, true.weight, gauge=False)
    assert max(eb.max(), ew.max()) <= 1e-6


@pytest.mark.parametrize("arch, shape, model_seed, attack_seed, layer_id, cancel, queries", [
    ("conv4x3x3-mpr2-res{conv4x3x3-r,}-fc8-r-fc4", (2, 8, 8), 9, 5, 3, 4, 2616),
    ("fc12-r-res{fc12-r,}-fc4", (16,), 1, 1, 3, 4, 3417),
    ("fc8-r-res{fc8-r-fc8-r,}-fc4", (12,), 1, 1, 3, 6, 1922),
], ids=["pool-res-branch", "fc-branch", "two-relu-branch"])
def test_a_cancelled_skip_reads_nary(monkeypatch, arch, shape, model_seed, attack_seed, layer_id, cancel, queries):
    """An identity skip around a residual-branch layer is cancelled on the
    post side of the Add's other input (``_skip_cancel``): the layer's own
    ReLU in pool-res (whose conv scanned binary for 5,735 queries before)
    and in fc12-r-res{fc12-r,}-fc4 (6,644), and the branch's second ReLU
    in fc8-r-res{fc8-r-fc8-r,}-fc4 (3,381).  The layer then reads like
    one without a skip: its tie never moves, so it scans binary only in
    its bias phase and reads every weight n-ary, at the pinned queries
    (3,109, 4,067 and 2,321 at eta_tol 1e-8, before each weight was read
    relative to its bias reading; 2,798, 3,717 and 2,181 with its lines
    referenced at the bias phase's class instead of class 0; 2,801, 3,706
    and 2,166 before its slope ties were read to 2^-12 of their move and
    its polished ties were no longer tested again).  It reads right, and
    the whole model verifies."""
    truth = random_model(arch, shape, seed=model_seed)
    assert sx_extract._skip_cancel(truth.skeleton(), layer_id, layer_id + 1) == (cancel,)
    scans = []
    real_scan = sx_extract._scan_boundary
    monkeypatch.setattr(sx_extract, "_scan_boundary",
                        lambda o, cp, key, *a, **k: scans.append(key[0]) or real_scan(o, cp, key, *a, **k))
    cfg = ExperimentConfig(arch=arch, input_shape=shape, model_seed=model_seed, attack_seed=attack_seed)
    report, extracted = run_attack(cfg, truth=truth)
    layer = next(l for l in report.layers if l.layer_id == layer_id)
    assert layer.calibration_queries > 0 and layer.queries == queries and not layer.dead and not layer.retried
    assert scans.count(layer_id + 1) == truth.layer(layer_id).bias.size
    est, true = extracted.layer(layer_id), truth.layer(layer_id)
    eb, ew = layer_error_summary(est.bias, est.weight, true.bias, true.weight, gauge=False)
    assert max(eb.max(), ew.max()) <= 1e-6
    assert verify_models(extracted, truth)["pass"]


def test_a_skip_around_the_boundary_keeps_the_layer_binary():
    """A skip that no shift cancels keeps the layer binary.  In
    fc8-r-res{fc8-r,fc8-r}-fc4 both branches have parameters, so the
    injection into either branch's layer also reaches the logits through
    the other branch (``_skip_cancel`` is None), and its class lines would
    change from phase to phase: although their 8 inputs would repay the
    ties, layers 3 and 5 spend no calibration query.  Layer 1 reads n-ary,
    and the model verifies."""
    arch, shape = "fc8-r-res{fc8-r,fc8-r}-fc4", (12,)
    truth = random_model(arch, shape, seed=1)
    assert sx_extract._skip_cancel(truth.skeleton(), 3, 4) is None
    report, extracted = run_attack(ExperimentConfig(arch=arch, input_shape=shape, model_seed=1), truth=truth)
    calibration = {l.layer_id: l.calibration_queries for l in report.layers}
    assert calibration[3] == calibration[5] == 0 and calibration[1] > 0
    assert verify_models(extracted, truth)["pass"]


def test_bias_phases_scan_binary_and_weights_read_nary(monkeypatch):
    """On the relu-inproc benchmark model, the bias phases of the conv
    layer and of the FC layer scan binary, and every weight of both reads
    n-ary: the conv layer's 2 x 18 through one set of lines per output
    channel, at the map centre."""
    model = random_model("conv2x3x3-r-fc12-r-fc4", (2, 6, 6), seed=3)
    calls = []
    real_read, real_scan = sx_extract._read_lines, sx_extract._scan_boundary
    monkeypatch.setattr(sx_extract, "_read_lines", lambda *a, **k: calls.append("nary") or real_read(*a, **k))
    monkeypatch.setattr(sx_extract, "_scan_boundary", lambda *a, **k: calls.append("binary") or real_scan(*a, **k))
    for layer_id, extract in ((1, extract_conv_layer), (3, extract_fc_layer)):
        calls.clear()
        res = extract(OracleHandle.in_process(model), model.skeleton(), layer_id, CFG, np.random.default_rng(1))
        n_out = model.layer(layer_id).weight.shape[0]
        assert calls == ["binary"] * n_out + ["nary"] * model.layer(layer_id).weight.size
        assert 0 < res.calibration_queries < res.weight_queries
        assert not res.retried and not res.dead
        assert sx.relative_errors(res.weight, model.layer(layer_id).weight).max() <= 1e-6


def test_ten_class_model_reads_under_15_per_weight():
    """Ten classes make nine breakpoints per query: the FC layer of a
    10-class model reads each weight in at most 15 queries, the intercept
    and slope ties aside, and the whole model passes verification."""
    arch, shape = "conv2x3x3-r-fc12-r-fc10", (2, 6, 6)
    truth = random_model(arch, shape, seed=3)
    report, extracted = run_attack(ExperimentConfig(arch=arch, input_shape=shape, model_seed=3), truth=truth)
    fc = next(l for l in report.layers if l.layer_id == 3)
    assert fc.calibration_queries > 0
    assert (fc.calls_per_weight * fc.n_weight - fc.calibration_queries) / fc.n_weight <= 15
    assert verify_models(extracted, truth)["pass"]


# ---------------------------------------------------------------------------
# The terminal layer read from the ties of the layer below it


@pytest.mark.parametrize("eta_tol, arch, shape, pinned", [
    (3e-7, "fc4-r-fc3", (3,), None),  # binary alone (4 inputs needed), n-ary once its ties spare the terminal's
    (3e-7, "fc6-r-fc4", (4,), None),  # binary alone (5 inputs needed), likewise
    (3e-7, "fc6-r-fc2", (1,), None),  # one input: the spared terminal readings alone repay the slope ties
    (3e-7, "fc6-r-fc10", (1,), None),  # likewise, with nine slope ties per target and eight intercept ties
    # terminal readings priced at the tolerance they are read to, not at the default's: n-ary
    (1e-10, "fc6-r-fc4", (1,), (1316, 1504)),
    (1e-10, "fc6-r-fc10", (3,), (3091, 3703)),
    (1e-8, "fc6-r-fc10", (1,), (2575, 2689)),
    (1e-8, "fc4-r-fc10", (2,), (1900, 2085)),
    # and binary where they learn fewer digits
    (1e-3, "fc6-r-fc10", (1,), (1426, 1506)),
    (1e-3, "fc4-r-fc10", (1,), (1056, 1165)),
], ids=["fc4-r-fc3-shape0", "fc6-r-fc4-shape1", "fc6-r-fc2-shape2", "fc6-r-fc10-shape3",
        "fc6-r-fc4-1in-1e-10", "fc6-r-fc10-3in-1e-10", "fc6-r-fc10-1in-1e-8", "fc4-r-fc10-2in-1e-8",
        "fc6-r-fc10-1in-1e-3", "fc4-r-fc10-1in-1e-3"])
def test_the_credit_picks_the_cheaper_attack(monkeypatch, eta_tol, arch, shape, pinned):
    """Whole attacks on both layers at ``eta_tol``, with layer 1 forced to
    read n-ary and binary in turn: the side the credited rule picks spends
    fewer queries in all, the terminal layer's included, and both sides
    verify.  ``pinned`` holds the queries of the picked side and of the
    other (model seed 1, attack seed 1).  A reading to 1e-3 cannot pass
    ``verify_models``' 1e-4 gate, so those rows are pinned by their query
    counts only."""
    truth = random_model(arch, shape, seed=1)
    skeleton = truth.skeleton()
    real = sx_extract._reads_nary
    queries = {}
    for nary in (True, False):
        monkeypatch.setattr(sx_extract, "_reads_nary",
                            lambda sk, lid, *a, nary=nary: nary if lid == 1 else real(sk, lid, *a))
        cfg = ExperimentConfig(arch=arch, input_shape=shape, model_seed=1, attack_seed=1,
                               search=BoundarySearchConfig(eta_tol=eta_tol))
        report, extracted = run_attack(cfg, truth=truth)
        if eta_tol < 1e-4:
            assert verify_models(extracted, truth)["pass"]
        queries[nary] = report.total_queries
    assert not real(skeleton, 1, skeleton.n_classes, eta_tol)
    picked = real(skeleton, 1, skeleton.n_classes, eta_tol, dict(attack_order(skeleton, [1, 3]))[1])
    assert queries[picked] < queries[not picked]
    if pinned is not None:
        assert (queries[picked], queries[not picked]) == pinned


def _terminal_error(model, truth, layer_id):
    est, true = model.layer(layer_id), truth.layer(layer_id)
    eb, ew = layer_error_summary(est.bias, est.weight, true.bias, true.weight, gauge=True)
    return max(eb.max(), ew.max())


@pytest.mark.parametrize("arch, shape, model_seed", [
    ("conv2x3x3-r-fc12-r-fc4", (2, 6, 6), 3),  # relu-inproc
    ("conv2x3x3-mpr2-fc3-r-fc3", (1, 4, 4), 1),  # pool-endpoint, in process
])
def test_terminal_from_the_ties_agrees_with_a_terminal_only_attack(arch, shape, model_seed):
    """The terminal layer built from the ties of the n-ary layer below it
    spends no query, agrees with a terminal-only attack
    (``layers=[terminal]``) to that attack's precision, and its worst error
    against the truth is no worse.  The bounds are written at eta_tol 1e-8."""
    truth = random_model(arch, shape, seed=model_seed)
    last = truth.layer(truth.argmax_id).inputs[0]
    cfg = ExperimentConfig(arch=arch, input_shape=shape, model_seed=model_seed, attack_seed=1, search=CFG_1E8)
    report, shared = run_attack(cfg, truth=truth)
    _, alone = run_attack(replace(cfg, layers=[last]), truth=truth)
    assert next(l for l in report.layers if l.layer_id == last).queries == 0
    for part in ("bias", "weight"):
        a, b = getattr(shared.layer(last), part), getattr(alone.layer(last), part)
        assert np.allclose(a, b, rtol=1e-6, atol=1e-9)
    assert _terminal_error(shared, truth, last) <= _terminal_error(alone, truth, last)


def test_a_flagged_bias_reading_leaves_its_column_to_the_terminal(monkeypatch):
    """A bias reading of the layer below that needed a retry is flagged, so
    its target gets no slope ties: the table lacks that terminal column,
    and the terminal layer ties exactly that column, every class of it,
    and nothing else."""
    truth = random_model("fc6-r-fc4", (5,), seed=1)
    skeleton = truth.skeleton()
    oracle = OracleHandle.in_process(truth)
    ties = dict(attack_order(skeleton, [1, 3]))[1]
    real_scan, real_ties = sx_extract._scan_boundary, sx_extract._class_ties
    failed = []

    def scan(oracle, cp, pre_key, index, *a, **k):
        if index == (2,) and not failed:  # the first scan of output 2: its bias reading
            failed.append(True)
            raise sx_extract.ScanRetryError("injected")
        return real_scan(oracle, cp, pre_key, index, *a, **k)

    monkeypatch.setattr(sx_extract, "_scan_boundary", scan)
    below = extract_fc_layer(oracle, skeleton, 1, CFG, np.random.default_rng(1), ties=ties)
    assert below.retried == [(2,)] and below.calibration_queries > 0
    assert set(ties) == {(c,) for c in (1, 2, 3)} | {(c, j) for c in (1, 2, 3) for j in (0, 1, 3, 4, 5)}

    tied = []

    def class_ties(*args):
        for key, c, t in real_ties(*args):
            tied.append((c, key))
            yield key, c, t

    monkeypatch.setattr(sx_extract, "_class_ties", class_ties)
    before = oracle.count
    last = sx.extract_last_layer(oracle, skeleton, CFG, ties=ties)
    assert tied == [(1, 2), (2, 2), (3, 2)]
    assert last.total_queries == oracle.count - before > 0
    assert _terminal_error(skeleton.with_params({3: (last.weight, last.bias)}), truth, 3) <= 1e-6


@pytest.mark.parametrize("arch, shape, model_seed, last, queries", [
    ("conv2x3x3-r-fc12-r-fc4", (2, 6, 6), 3, 5, 1057),
    ("conv2x3x3-mpr2-fc3", (1, 4, 4), 1, 3, 507),
    ("conv2x3x3-r-res{conv2x3x3-r,}-fc3", (2, 4, 4), 2, 6, 1734),
    ("fc4", (5,), 1, 1, 524),
], ids=["relu-inproc", "fed-by-maxpool", "fed-by-add", "fed-by-input"])
def test_the_terminal_alone_reads_as_before(arch, shape, model_seed, last, queries):
    """An attack on the terminal layer alone shares no ties: it makes the
    query stream of a direct ``extract_last_layer`` call and reads the same
    values, at the pinned queries at attack seed 1 (1,206, 570, 2,036 and
    574 at eta_tol 1e-8, before its bias ties were read to
    ``BIAS_TOL_FACTOR``)."""
    truth = random_model(arch, shape, seed=model_seed)
    cfg = ExperimentConfig(arch=arch, input_shape=shape, model_seed=model_seed, attack_seed=1, layers=[last])
    report, extracted = run_attack(cfg, truth=truth)
    search = BoundarySearchConfig(sphere_norm=report.config["search"]["sphere_norm"])
    direct = sx.extract_last_layer(OracleHandle.in_process(truth), truth.skeleton(), search)
    assert report.total_queries == direct.total_queries == queries
    assert np.array_equal(extracted.layer(last).weight, direct.weight)
    assert np.array_equal(extracted.layer(last).bias, direct.bias)
    assert _terminal_error(extracted, truth, last) <= 1e-6


def _pushed_class_2(arch, shape):
    """The model ``arch`` (model seed 1) with its terminal bias of class 2
    raised by 2e4: beyond ETA_MAX, so no shift ties class 2 with class 0."""
    truth = random_model(arch, shape, seed=1)
    last = truth.layer(truth.argmax_id).inputs[0]
    spec = truth.layer(last)
    bias = spec.bias.copy()
    bias[2] += 2e4
    return truth.with_params({last: (spec.weight, bias)})


def _bias_phase_pairs(monkeypatch):
    """The class pair of every critical search without a hint, in order:
    the pair a bias phase ties, and its intercepts with it, when no scan
    of the layer is retried; and the reference of every
    ``_calibrate_lines``."""
    pairs, refs = [], []
    real_critical, real_lines = sx_extract.search_critical, sx_extract._calibrate_lines

    def critical(o, v0, cfg, rng, hint=None):
        cp = real_critical(o, v0, cfg, rng, hint)
        if hint is None:
            pairs.append((cp.c1, cp.c2))
        return cp

    monkeypatch.setattr(sx_extract, "search_critical", critical)
    monkeypatch.setattr(sx_extract, "_calibrate_lines",
                        lambda o, b, v0, ref, *a: refs.append(ref) or real_lines(o, b, v0, ref, *a))
    return pairs, refs


def test_the_table_is_referenced_at_class_0_whatever_the_pair(monkeypatch):
    """The calibration of the layer below the terminal ties its intercepts
    with the bias phase's class ``cp.c1``, re-references them to class 0
    at no query, and ties its slopes against class 0.  On fc6-r-fc4 (8
    inputs, model seed 1) the bias phase ties (0, 3) at attack seed 5,
    (3, 0) at seed 2 and (3, 1) at seed 1: all three build the same
    terminal layer from the table, at no query, within eta_tol of the
    truth, and read the layer below right."""
    arch, shape = "fc6-r-fc4", (8,)
    truth = random_model(arch, shape, seed=1)
    pairs, refs = _bias_phase_pairs(monkeypatch)
    terminals = []
    for attack_seed, pair in [(5, (0, 3)), (2, (3, 0)), (1, (3, 1))]:
        pairs.clear()
        refs.clear()
        cfg = ExperimentConfig(arch=arch, input_shape=shape, model_seed=1, attack_seed=attack_seed)
        report, extracted = run_attack(cfg, truth=truth)
        assert pairs == [pair] and refs == [0]
        below, last = report.layers
        assert below.error is None and not below.dead and not below.retried and last.queries == 0
        est, true = extracted.layer(1), truth.layer(1)
        eb, ew = layer_error_summary(est.bias, est.weight, true.bias, true.weight, gauge=False)
        assert max(eb.max(), ew.max()) <= 1e-6
        assert _terminal_error(extracted, truth, 3) <= CFG.eta_tol
        terminals.append(extracted.layer(3))
    for other in terminals[1:]:
        assert np.allclose(other.weight, terminals[0].weight, rtol=1e-6, atol=1e-9)
        assert np.allclose(other.bias, terminals[0].bias, rtol=1e-6, atol=1e-9)


def test_a_class_0_out_of_reach_keeps_the_pair_reference(monkeypatch):
    """With the terminal bias of class 0 raised by 2e4, beyond ETA_MAX,
    class 0 ties with no other class.  The layer below (fc6-r-fc4, 8
    inputs, model seed 1, generator seed 1, its bias phase tying (1, 2))
    keeps the pair's class 1 as the reference of its lines, writes nothing into the table,
    and reads right; the terminal layer then ties its own classes and
    fails at the first, naming classes 0 and 1."""
    truth = random_model("fc6-r-fc4", (8,), seed=1)
    spec = truth.layer(3)
    bias = spec.bias.copy()
    bias[0] += 2e4
    truth = truth.with_params({3: (spec.weight, bias)})
    skeleton = truth.skeleton()
    oracle = OracleHandle.in_process(truth)
    ties = dict(attack_order(skeleton, [1, 3]))[1]
    pairs, refs = _bias_phase_pairs(monkeypatch)
    below = extract_fc_layer(oracle, skeleton, 1, CFG, np.random.default_rng(1), ties=ties)
    assert pairs == [(1, 2)] and refs == [1]
    assert ties == {} and below.calibration_queries > 0
    assert not below.dead and not below.retried
    assert sx.relative_errors(below.weight, truth.layer(1).weight).max() <= 1e-6
    assert sx.relative_errors(below.bias, truth.layer(1).bias).max() <= 1e-6
    with pytest.raises(BoundarySearchError, match=f"classes 0 and 1 never swap within ETA_MAX={ETA_MAX}"):
        sx.extract_last_layer(oracle, skeleton, CFG, ties=ties)


def test_a_terminal_class_that_never_ties_fails_only_its_layer():
    """A terminal class that never ties with class 0 fails the terminal
    layer with a BoundarySearchError naming the pair, and only that layer:
    the n-ary layer below it, whose table lacks class 2, reads right.  The
    terminal stops at the first tie that fails: alone on ``fc4`` with 3
    inputs it ties class 1, fails class 2 and spends 54 queries (45 at
    eta_tol 1e-8, before bias ties were read to ``BIAS_TOL_FACTOR``)."""
    message = f"no boundary reachable: classes 0 and 2 never swap within ETA_MAX={ETA_MAX}"
    truth = _pushed_class_2("fc4-r-fc3", (3,))
    cfg = ExperimentConfig(arch="fc4-r-fc3", input_shape=(3,), model_seed=1, attack_seed=1)
    report, extracted = run_attack(cfg, truth=truth)
    below, last = report.layers
    assert below.error is None and below.calibration_queries > 0 and last.error == message
    est, true = extracted.layer(1), truth.layer(1)
    eb, ew = layer_error_summary(est.bias, est.weight, true.bias, true.weight, gauge=False)
    assert max(eb.max(), ew.max()) <= 1e-6

    truth = _pushed_class_2("fc4", (3,))
    report, _ = run_attack(ExperimentConfig(arch="fc4", input_shape=(3,), model_seed=1, attack_seed=1), truth=truth)
    assert report.layers[0].error == message and report.total_queries == 54
    with pytest.raises(BoundarySearchError, match="classes 0 and 2 never swap"):
        sx.extract_last_layer(OracleHandle.in_process(truth), truth.skeleton(), CFG)


def test_pool_res_orders_extract_the_same():
    """On the pool-res model (model seed 9, attack seed 5) the orders
    [6, 8] and [8, 6] both run layer 6 first: they extract the same
    parameters, right, with the same queries, and the terminal layer 8
    costs none.  The report keeps the order asked for."""
    arch, shape = "conv4x3x3-mpr2-res{conv4x3x3-r,}-fc8-r-fc4", (2, 8, 8)
    truth = random_model(arch, shape, seed=9)
    runs = []
    for order in ([6, 8], [8, 6]):
        cfg = ExperimentConfig(arch=arch, input_shape=shape, model_seed=9, attack_seed=5, layers=order)
        report, extracted = run_attack(cfg, truth=truth)
        by_id = {l.layer_id: l for l in report.layers}
        assert list(by_id) == order and by_id[8].queries == 0 and by_id[6].error is None
        est, true = extracted.layer(6), truth.layer(6)
        eb, ew = layer_error_summary(est.bias, est.weight, true.bias, true.weight, gauge=False)
        assert max(eb.max(), ew.max()) <= 1e-4 and _terminal_error(extracted, truth, 8) <= 1e-4
        runs.append((report.total_queries, extracted))
    assert runs[0][0] == runs[1][0]
    for lid in (6, 8):
        assert np.array_equal(runs[0][1].layer(lid).weight, runs[1][1].layer(lid).weight)
        assert np.array_equal(runs[0][1].layer(lid).bias, runs[1][1].layer(lid).bias)
