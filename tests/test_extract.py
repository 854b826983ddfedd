import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftextract as sx
import shiftextract.extract as sx_extract
import shiftextract.model as sx_model
from shiftextract import (
    KIND_ARGMAX,
    KIND_INPUT,
    KIND_RELU,
    POST,
    PRE,
    BoundarySearchConfig,
    BoundarySearchError,
    CriticalPoint,
    LayerSpec,
    ModelGraph,
    OracleHandle,
    QueryInput,
    ShiftSet,
    extract_conv_layer,
    extract_fc_layer,
    extract_feature,
    extract_feature_maxpool,
    extract_last_layer,
    forward_label,
    forward_trace,
    random_model,
    search_critical,
    zero_input_plan,
)
from shiftextract.extract import (
    BIAS_TOL_FACTOR,
    ETA_INITIAL_STEP,
    ETA_MAX,
    FEATURE_BOUND,
    NARY_TIE_DRIFT,
    PAIR_DOUBLINGS,
    SCAN_ABS_TOL,
    SUPPRESSION,
    TIE_POLISH_TOL,
    DeadFeatureError,
    _controlled_query,
    _flip_point,
    _linearize_downstream,
    _phase_base,
    _reads_nary,
    _require_phase_base,
    _skip_cancel,
    _two_probe,
)
from shiftextract.harness import gauge_fix, layer_error_summary
from shiftextract.oracle import TIE_PROBE
from conftest import fc_layer
from test_incremental import MODELS

CFG = BoundarySearchConfig(sphere_norm=10.0)
CFG_1E8 = BoundarySearchConfig(sphere_norm=10.0, eta_tol=1e-8)  # for tests whose bounds are written at 1e-8
CFG_1E9 = BoundarySearchConfig(sphere_norm=10.0, eta_tol=1e-9)  # for tests whose bounds are written at 1e-9


def _silenced_point(model):
    """A toy's critical point: its ReLU boundary 2 silenced, so its logits
    tie at [0, 0] with no nudge, whatever its parameters."""
    return CriticalPoint(v=QueryInput(np.zeros(1)).shifted(_phase_base(model, 2)), c1=0, c2=1, t=0.0)


def _toy_critical_point(model, oracle):
    cp = _silenced_point(model)
    assert oracle.is_critical(cp.v, 0, 1)
    return cp


def _phase_point(model, oracle, x, rng):
    """A critical point searched on the base every phase at boundary 2
    uses (``_phase_base``), and that base."""
    base = QueryInput(x).shifted(_phase_base(model, 2))
    return search_critical(oracle, base, CFG, rng), base


# ---------------------------------------------------------------------------
# search_critical


@settings(max_examples=40, deadline=None)
@given(
    arch=st.sampled_from([("fc4-r-fc3", (3,)), ("fc6-r-fc5-r-fc4", (4,)), ("conv2x3x3-r-fc5", (1, 4, 4))]),
    model_seed=st.integers(0, 2**16),
    input_seed=st.integers(0, 2**16),
    input_scale=st.floats(0.0, 10.0),
    rng_seed=st.integers(0, 2**16),
)
def test_search_critical_ties_a_drawn_pair(arch, model_seed, input_seed, input_scale, rng_seed):
    """The point ties its two classes to the polish tolerance, far above
    every other class, passes the tie test, and is a function of the seed."""
    model = random_model(*arch, seed=model_seed)
    x = input_scale * np.random.default_rng(input_seed).standard_normal(model.input_shape)
    oracle = OracleHandle.in_process(model)
    cp = search_critical(oracle, QueryInput(x), CFG, np.random.default_rng(rng_seed))
    logits = forward_trace(model, cp.v).logits
    assert cp.c1 != cp.c2
    assert abs(logits[cp.c1] - logits[cp.c2]) <= TIE_POLISH_TOL
    others = np.delete(logits, [cp.c1, cp.c2])
    assert np.all(others <= min(logits[cp.c1], logits[cp.c2]) - SUPPRESSION / 2)
    assert oracle.is_critical(cp.v, cp.c1, cp.c2)
    again = search_critical(OracleHandle.in_process(model), QueryInput(x), CFG, np.random.default_rng(rng_seed))
    assert (again.c1, again.c2) == (cp.c1, cp.c2)
    assert np.array_equal(forward_trace(model, again.v).logits, logits)


def test_search_critical_unreachable_boundary(zero3_model):
    """Logits [2e4, -2e4, 0] are at least 2e4 apart: no pair swaps within ETA_MAX."""
    biased = zero3_model.with_params(
        {3: (np.zeros((3, 3)), np.array([2e4, -2e4, 0.0]))}
    )
    oracle = OracleHandle.in_process(biased)
    cfg = BoundarySearchConfig(sphere_norm=1.0)
    for seed in range(6):
        with pytest.raises(BoundarySearchError, match="no boundary reachable"):
            search_critical(oracle, QueryInput(np.zeros(2)), cfg, np.random.default_rng(seed))


def test_search_critical_draws_a_fresh_pair_when_the_hinted_pair_fails():
    """A hinted pair that does not tie at the new base within ``ETA_MAX``
    (class 3 pushed 1e5 down there) raises inside ``search_critical``,
    which then ties the pair drawn from ``rng``: the same critical point
    as a search without the hint, after the queries of the failed
    attempt.  That attempt doubles ``PAIR_DOUBLINGS`` times from
    ``TIE_POLISH_TOL`` and then probes once at ``ETA_MAX``, where the pair
    still does not swap: 22 queries with its starting label, where
    doubling on to ``ETA_MAX`` took 58."""
    model = random_model("fc4-r-fc4", (3,), seed=1)
    base = QueryInput(np.zeros(3), ShiftSet.single(model.argmax_id, PRE, (4,), 3, -1e5))
    hint = CriticalPoint(v=QueryInput(np.zeros(3)), c1=0, c2=3, t=0.0)
    fresh, hinted = OracleHandle.in_process(model), OracleHandle.in_process(model)
    want = search_critical(fresh, base, CFG, np.random.default_rng(1))
    got = search_critical(hinted, base, CFG, np.random.default_rng(1), hint=hint)
    assert (got.c1, got.c2) == (want.c1, want.c2) == (1, 2) and got.t == want.t
    assert np.array_equal(forward_trace(model, got.v).logits, forward_trace(model, want.v).logits)
    assert 0 < hinted.count - fresh.count <= 22 and hinted.is_critical(got.v, got.c1, got.c2)


def test_a_hinted_tie_that_moved_far_is_galloped_to():
    """A hinted pair whose tie moved far beyond ``PAIR_DOUBLINGS``
    doublings of its step (class 3 pushed 100 down, from a step of
    ``TIE_POLISH_TOL``) still swaps at ``ETA_MAX``: after that one probe,
    the query after the starting label and ``PAIR_DOUBLINGS`` doublings,
    the search doubles on and ties the hinted pair, drawing nothing from
    ``rng``."""
    model = random_model("fc4-r-fc4", (3,), seed=1)
    base = QueryInput(np.zeros(3), ShiftSet.single(model.argmax_id, PRE, (4,), 3, -100.0))
    hint = CriticalPoint(v=QueryInput(np.zeros(3)), c1=0, c2=3, t=0.0)
    shifts = []
    oracle = OracleHandle(lambda q: shifts.append(q.shifts.get(model.argmax_id, PRE)[3]) or forward_label(model, q),
                          argmax_id=model.argmax_id, n_classes=model.n_classes)
    rng = _CountingRng(1)
    got = search_critical(oracle, base, CFG, rng, hint=hint)
    assert shifts[PAIR_DOUBLINGS + 1] - shifts[0] == ETA_MAX and len(shifts) > PAIR_DOUBLINGS + 40
    assert (got.c1, got.c2) == (0, 3) and got.move == abs(got.t) > 50.0 and rng.draws == 0
    assert oracle.is_critical(got.v, got.c1, got.c2)


# ---------------------------------------------------------------------------
# extract_feature on the toy model


def test_extract_feature_positive_branch(toy_pm1_model):
    oracle = OracleHandle.in_process(toy_pm1_model)
    cp = _toy_critical_point(toy_pm1_model, oracle)
    tr = forward_trace(toy_pm1_model, cp.v)
    assert tr.y[2][0] == pytest.approx(1.0)
    res = extract_feature(oracle, toy_pm1_model, cp, 2, (0,), CFG_1E8)
    assert res.branch == "positive"
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_extract_feature_negative_branch(toy_pm1_model):
    oracle = OracleHandle.in_process(toy_pm1_model)
    cp = _toy_critical_point(toy_pm1_model, oracle)
    tr = forward_trace(toy_pm1_model, cp.v)
    assert tr.y[2][1] == pytest.approx(-1.0)
    res = extract_feature(oracle, toy_pm1_model, cp, 2, (1,), CFG_1E8)
    assert res.branch == "nonpositive"
    assert res.value == pytest.approx(-1.0, abs=1e-9)


def test_extract_feature_dead():
    # downstream weight column for feature 1 is zero: unidentifiable
    layers = [
        LayerSpec(id=0, kind=KIND_INPUT, shape=(1,)),
        fc_layer(1, 0, [[1.0], [1.0]], [1.0, -1.0]),
        LayerSpec(id=2, kind=KIND_RELU, inputs=(1,)),
        fc_layer(3, 2, [[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0]),
        LayerSpec(id=4, kind=KIND_ARGMAX, inputs=(3,)),
    ]
    m = ModelGraph(layers, output=4)
    oracle = OracleHandle.in_process(m)
    with pytest.raises(DeadFeatureError):
        extract_feature(oracle, m, _silenced_point(m), 2, (1,), CFG)


def _scaled_toy(b):
    """toy_pm1_model with hidden pre-activations [x0 + b, x0 - b]."""
    layers = [
        LayerSpec(id=0, kind=KIND_INPUT, shape=(1,)),
        fc_layer(1, 0, [[1.0], [1.0]], [b, -b]),
        LayerSpec(id=2, kind=KIND_RELU, inputs=(1,)),
        fc_layer(3, 2, [[1.0, -1.0], [-1.0, 1.0]], [0.0, 0.0]),
        LayerSpec(id=4, kind=KIND_ARGMAX, inputs=(3,)),
    ]
    return ModelGraph(layers, output=4)


def _scan_query(feature, down, etas=None):
    """A toy scan's query at s, recorded in ``etas``: the target ``feature``
    released with the shift -s (down, the form a positive value takes) or
    +s (up, a non-positive one), the other entry of boundary 2 silenced."""

    def at(s):
        if etas is not None:
            etas.append(s)
        pre = np.full(2, -SUPPRESSION)
        pre[feature] = -s if down else s
        return QueryInput(np.zeros(1), ShiftSet({(2, PRE): pre}))

    return at


def _scan_1(oracle, at, step, eta_tol):
    """Scan 1 of ``_scan_boundary`` on a toy: sign probe, then the flip.
    ``at`` is recorded from the flip search on."""
    failed = _two_probe(oracle, at(0.0), 0, 1, TIE_PROBE)
    return failed, lambda: _flip_point(
        oracle, at, 0, 1, TIE_PROBE, step, 0.5 * SCAN_ABS_TOL, 0.5 * eta_tol, failed, breaks=failed is None
    )[0]


@settings(max_examples=60, deadline=None)
@given(b=st.floats(1e-3, 1e2), log_factor=st.floats(-6.0, 6.0), feature=st.sampled_from([0, 1]))
def test_extract_feature_any_start_step_same_value(b, log_factor, feature):
    """Scan 1 may start from any magnitude, 1e-6x to 1e6x the true one (far
    beyond ETA_MAX too): the value is the default scan's, to eta_tol
    relative to the value."""
    model = _scaled_toy(b)
    oracle = OracleHandle.in_process(model)
    cp = _silenced_point(model)
    truth = forward_trace(model, cp.v).y[2][feature]
    default = extract_feature(oracle, model, cp, 2, (feature,), CFG)
    hinted = extract_feature(oracle, model, cp, 2, (feature,), CFG, first_step=abs(truth) * 10.0**log_factor)
    assert abs(default.value - truth) <= CFG.eta_tol * abs(truth)
    assert abs(hinted.value - truth) <= CFG.eta_tol * abs(truth)
    assert abs(hinted.value - default.value) <= CFG.eta_tol * abs(truth)
    assert hinted.branch == default.branch


@settings(max_examples=60, deadline=None)
@given(b=st.floats(1e-3, 1e2), log_tol=st.integers(-12, -2), feature=st.sampled_from([0, 1]))
def test_extract_feature_relative_tolerance(b, log_tol, feature):
    """A value of any magnitude from 1e-3 to 1e2 is read to eta_tol
    relative to itself, or to the absolute floor where that is wider, up
    to float noise."""
    model = _scaled_toy(b)
    oracle = OracleHandle.in_process(model)
    cp = _silenced_point(model)
    truth = forward_trace(model, cp.v).y[2][feature]
    cfg = BoundarySearchConfig(sphere_norm=10.0, eta_tol=10.0**log_tol)
    res = extract_feature(oracle, model, cp, 2, (feature,), cfg)
    assert abs(res.value - truth) <= max(cfg.eta_tol * abs(truth), SCAN_ABS_TOL) + 8 * np.spacing(abs(truth))


@pytest.mark.parametrize("eta_tol", [1e-12, 1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("b", [1e-3, 0.37, 1.0, 42.0, 1e2])
@pytest.mark.parametrize("feature", [0, 1])
def test_scan_bisection_steps_scale_free(b, eta_tol, feature):
    """Scan 1 from the default first step bisects at most
    ceil(log2(1/eta_tol)) + 2 times, whatever the scale of the value."""
    oracle = OracleHandle.in_process(_scaled_toy(b))
    etas = []
    at = _scan_query(feature, feature == 0, etas)  # values b and -b
    _, flip = _scan_1(oracle, at, ETA_INITIAL_STEP, eta_tol)
    etas.clear()
    eta = flip()
    assert abs(eta - b) <= eta_tol * b + 2 * TIE_PROBE  # the flip lags the value by the probe
    doubling = next(k for k, e in enumerate(etas) if e != ETA_INITIAL_STEP * 2.0**k)  # flipped one included
    assert len(etas) - doubling <= math.ceil(math.log2(1.0 / eta_tol)) + 2


@pytest.mark.parametrize("positive", [True, False])
def test_zero_value_scan_stops_at_absolute_floor(positive):
    """A feature whose value is 0.0 flips at the first doubling step, so
    its bracket's lower end stays at 0 and only the absolute floor
    ``SCAN_ABS_TOL`` stops the bisection: both scan forms end within a
    bounded number of queries, and the feature reads 0 to that floor."""
    model = _scaled_toy(0.0)
    oracle = OracleHandle.in_process(model)
    cp = _silenced_point(model)
    at = _scan_query(0, positive)
    bisections = math.ceil(math.log2(ETA_INITIAL_STEP / (0.5 * SCAN_ABS_TOL)))
    # a released 0.0 leaves the point critical, so only the upward form
    # needs the two-probe test; the downward form probes class 1, the class
    # a positive feature 0 pushes behind
    failed, breaks = (1, False) if positive else (None, True)
    before = oracle.count
    eta, _ = _flip_point(
        oracle, at, 0, 1, TIE_PROBE, ETA_INITIAL_STEP, 0.5 * SCAN_ABS_TOL, 0.5 * CFG.eta_tol, failed, breaks
    )
    assert 0.0 < eta <= 2 * TIE_PROBE
    assert oracle.count - before <= 2 + bisections
    res = extract_feature(oracle, model, cp, 2, (0,), CFG)
    assert abs(res.value) <= SCAN_ABS_TOL


def test_released_entry_is_exact(monkeypatch):
    """A released entry holds the scan's shift bit for bit: it is written
    into the silenced boundary, never added to -SUPPRESSION, which would
    round it to the float spacing at 1e6 (about 1.2e-10).  Every other
    entry stays silenced, and a 1e-3 feature reads to eta_tol relative to
    itself."""
    model = _scaled_toy(1e-3)
    scans = []  # per scan: its flip and the (argument, released entry) of each query

    def flip_point(oracle, at, *args, **kwargs):
        queries = []

        def watched(s):
            q = at(s)
            queries.append((s, q.shifts.get(2, PRE)[0]))
            assert q.shifts.get(2, PRE)[1] == -SUPPRESSION
            return q

        flip = real(oracle, watched, *args, **kwargs)
        scans.append((flip[0], queries))
        return flip

    real = sx_extract._flip_point
    monkeypatch.setattr(sx_extract, "_flip_point", flip_point)
    res = extract_feature(OracleHandle.in_process(model), model, _silenced_point(model), 2, (0,), CFG)
    assert res.branch == "positive"
    assert abs(res.value - 1e-3) <= CFG.eta_tol * 1e-3
    (s1, scan1), (_, scan2) = scans
    assert len(scan1) > 20 and scan2
    assert all(entry == -s for s, entry in scan1)  # scan 1 shifts the value down by s
    assert all(entry == -s1 + w for w, entry in scan2)  # scan 2 climbs back from -s1


@pytest.mark.parametrize("factor", [1.0, 10.0])
def test_extract_feature_dead_with_start_step_at_or_above_cap(toy_pm1_model, factor):
    m = toy_pm1_model.with_params({3: (np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2))})
    oracle = OracleHandle.in_process(m)
    cp = _toy_critical_point(m, oracle)
    before = oracle.count
    with pytest.raises(DeadFeatureError):
        extract_feature(oracle, m, cp, 2, (1,), CFG, first_step=factor * ETA_MAX)
    assert oracle.count - before == 4  # sign probe, then one tie test at the cap


def test_boundary_correctness_invariant(small_cnn):
    """At the returned boundary magnitude, |value| matches the white-box
    feature within the configured scan tolerance.  The critical points are
    searched on the base every phase uses: the boundary silenced and the
    downstream ReLUs switched on."""
    oracle = OracleHandle.in_process(small_cnn)
    cfg = BoundarySearchConfig(sphere_norm=10.0, eta_tol=1e-10)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 5, 5))
    v0 = QueryInput(x).shifted(_phase_base(small_cnn, 2))
    for attempt in range(6):
        cp = search_critical(oracle, v0, cfg, rng)
        tr = forward_trace(small_cnn, cp.v)
        for idx in [(0, 1, 1), (1, 2, 3), (2, 4, 4)]:
            res = extract_feature(oracle, small_cnn, cp, 2, idx, cfg)
            assert abs(res.value - tr.y[2][idx]) <= cfg.eta_tol * abs(tr.y[2][idx]) + 5e-11


# the incremental evaluator's models and the CI's pool2 and residual models
DOWNSTREAM_MODELS = {
    **MODELS,
    "pool2": random_model("conv4x3x3-mpr2-conv4x3x3-mpr2-fc8-r-fc4", (2, 8, 8), seed=1),
    "residual": random_model("conv2x3x3-mpr2-res{conv2x3x3-r,}-fc4-r-fc3", (1, 6, 6), seed=1),
}


def _reachable(model, node):
    """Every layer reachable from ``node`` through successors, ``node`` aside."""
    seen, todo = set(), [node]
    while todo:
        fresh = set(model.successors(todo.pop())) - seen
        seen |= fresh
        todo += fresh
    return seen


@pytest.mark.parametrize("name", sorted(DOWNSTREAM_MODELS))
def test_downstream_reads_agree_with_reachability(name, monkeypatch):
    """What the attack reads below a boundary from the model's walk plan
    agrees with brute-force reachability: the keys ``_linearize_downstream``
    switches on and the keys ``_require_phase_base`` asks for.  With every
    downstream affine, pools included, the rule's only structural clause
    below a boundary is the skip (``_skip_cancel``)."""
    m = DOWNSTREAM_MODELS[name]
    for b in m.nonlinear_ids():
        switched = [lid for lid in _reachable(m, b) if m.layer(lid).kind in (sx.KIND_RELU, sx.KIND_MPR)]
        keys = {(lid, side) for lid in switched for side in (PRE, POST)}
        assert _linearize_downstream(m, b).entries.keys() == keys
        if m.layer(b).kind == KIND_ARGMAX:
            continue
        base = QueryInput(np.zeros(m.input_shape)).shifted(_phase_base(m, b))
        _require_phase_base(m, b, base)
        for key in keys:
            short = QueryInput(base.x0, ShiftSet({k: a for k, a in base.shifts.entries.items() if k != key}))
            with pytest.raises(sx.ExtractionError, match=f"missing {key[0]}:{key[1]}\\)"):
                _require_phase_base(m, b, short)
    # with every read repaying the calibration, only the rule's structural clauses decide
    monkeypatch.setattr(sx_extract, "BINARY_READ_EXTRA", 1e9)
    for lid in sx_extract.default_target_layers(m):
        succ = m.layer(m.successors(lid)[0])
        if succ.kind == KIND_ARGMAX:
            continue
        assert _reads_nary(m, lid, m.n_classes, CFG.eta_tol) == (_skip_cancel(m, lid, succ.id) is not None)


def test_extract_feature_requires_linearized_base(small_cnn):
    """The one-probe bisection reads a later kink when a downstream ReLU is
    left off, and a tie made with the boundary live moves once the scan
    silences it, so a critical point without either set of shifts is
    refused before any scan query."""
    oracle = OracleHandle.in_process(small_cnn)
    rng = np.random.default_rng(3)
    x = QueryInput(rng.standard_normal((2, 5, 5)))
    silenced = ShiftSet.constant(2, PRE, (3, 5, 5), -SUPPRESSION)
    cp = search_critical(oracle, x.shifted(silenced), CFG, rng)
    live = search_critical(oracle, x.shifted(_linearize_downstream(small_cnn, 2)), CFG, rng)
    before = oracle.count
    with pytest.raises(sx.ExtractionError, match="downstream of layer 2"):
        extract_feature(oracle, small_cnn, cp, 2, (0, 1, 1), CFG)
    with pytest.raises(sx.ExtractionError, match="does not silence boundary 2"):
        extract_feature(oracle, small_cnn, live, 2, (0, 1, 1), CFG)
    pool = random_model("conv3x3x3-mpr2s1-fc6-r-fc3", (2, 4, 4), seed=21)
    pool_cp = CriticalPoint(
        v=QueryInput(np.zeros((2, 4, 4))).shifted(ShiftSet.constant(2, PRE, (3, 4, 4), -SUPPRESSION)),
        c1=0, c2=1, t=0.0,
    )
    with pytest.raises(sx.ExtractionError, match="downstream of layer 2"):
        extract_feature_maxpool(oracle, pool, pool_cp, 2, (1, 2, 2), CFG)
    assert oracle.count == before


def test_safe_error_cancellation(small_cnn):
    """Below the boundary the injected shifts cancel: everything downstream
    of the target layer is bit-for-bit unchanged up to float noise."""
    oracle = OracleHandle.in_process(small_cnn)
    rng = np.random.default_rng(4)
    v0 = QueryInput(rng.standard_normal((2, 5, 5)))
    cp = search_critical(oracle, v0, CFG, rng)
    base = forward_trace(small_cnn, cp.v)
    topo = [s.id for s in small_cnn.topo_order]
    for idx in [(0, 0, 0), (1, 3, 2)]:
        y = base.y[2][idx]
        eta = 0.5 * abs(y)
        if y > 0:
            mask = np.zeros((3, 5, 5)); mask[idx] = 1.0
            shift = ShiftSet({(2, PRE): -eta * mask, (2, POST): eta * mask})
        else:
            mask = np.zeros((3, 5, 5)); mask[idx] = 1.0
            shift = ShiftSet({(2, PRE): eta * mask})
        shifted = forward_trace(small_cnn, cp.v.shifted(shift))
        for lid in topo[topo.index(2) + 1:]:
            if lid == small_cnn.argmax_id:
                continue
            assert np.abs(shifted.values[lid] - base.values[lid]).max() <= 1e-12
        assert np.abs(shifted.logits - base.logits).max() <= 1e-12


@pytest.mark.parametrize("feature", [0, 1])
@pytest.mark.parametrize("step", [1e-3, 0.1, 0.75])
def test_flip_point_bisects_with_one_query_per_step(toy_pm1_model, feature, step):
    """A scan that doubles d times and bisects b times costs 2(d+1) + b
    queries while the failing class is unknown: every doubling step runs the
    two-probe test, every bisection midpoint probes only the class whose
    nudge failed.  A positive value's sign probe names that class, so its
    scan costs (d+1) + b.  At eta_tol 1e-9 there are at least 30 bisection
    steps."""
    oracle = OracleHandle.in_process(toy_pm1_model)
    etas = []
    at = _scan_query(feature, feature == 0, etas)  # values 1 and -1
    failed, flip = _scan_1(oracle, at, step, CFG_1E9.eta_tol)
    assert (failed is None) == (feature == 1)
    etas.clear()
    before = oracle.count
    eta = flip()
    assert eta == pytest.approx(1.0, abs=1e-9)
    tests = next(k for k, e in enumerate(etas) if e != step * 2.0**k)  # doubling points, the flipped one included
    d, b = tests - 1, len(etas) - tests
    assert d >= 1 and b >= 30
    assert oracle.count - before == (2 if failed is None else 1) * (d + 1) + b


# ---------------------------------------------------------------------------
# maxpool boundary


def _crafted_pool_model(values):
    """Identity 1x1 conv into a 2x2 pool: pool inputs equal the model input."""
    layers = [
        LayerSpec(id=0, kind=KIND_INPUT, shape=(1, 2, 2)),
        LayerSpec(id=1, kind="Convolution", inputs=(0,),
                  weight=np.ones((1, 1, 1, 1)), bias=np.zeros(1), padding=0),
        LayerSpec(id=2, kind="MaxPoolReLU", inputs=(1,), kernel=(2, 2), stride=(2, 2)),
        fc_layer(3, 2, [[1.0], [-1.0]], [0.0, 0.0]),
        LayerSpec(id=4, kind=KIND_ARGMAX, inputs=(3,)),
    ]
    return ModelGraph(layers, output=4), np.asarray(values, float).reshape(1, 2, 2)


@pytest.mark.parametrize("target", [0.7, -0.3])
def test_extract_feature_maxpool_known_value(target):
    model, x = _crafted_pool_model([[target, -3.0], [0.5, -7.0]])
    oracle = OracleHandle.in_process(model)
    cp, base = _phase_point(model, oracle, x, np.random.default_rng(1))
    res = extract_feature_maxpool(oracle, model, cp, 2, (0, 0, 0), CFG)
    # the white-box value at the silenced base
    tr = forward_trace(model, base)
    assert tr.y[2][0, 0, 0] == pytest.approx(target)
    assert res.value == pytest.approx(target, abs=CFG.eta_tol * abs(target) + 1e-10)


def test_extract_feature_maxpool_random_cross_check():
    model = random_model("conv3x3x3-mpr2s1-fc6-r-fc3", (2, 4, 4), seed=21)
    oracle = OracleHandle.in_process(model)
    cp, base = _phase_point(model, oracle, np.zeros((2, 4, 4)), np.random.default_rng(2))
    idx = (1, 2, 2)
    assert len(sx.pooled_receivers((3, 4, 4), (2, 2), (1, 1), idx)) > 1
    tr = forward_trace(model, base)
    res = extract_feature_maxpool(oracle, model, cp, 2, idx, CFG_1E8)
    assert res.value == pytest.approx(tr.y[2][idx], abs=1e-9)


def test_maxpool_layer_one_search_per_phase(monkeypatch):
    """A maxpool layer reads every target of a phase at the phase's one
    critical point: the pool-endpoint benchmark model's layer 1 reads its
    weights n-ary at the map centre, one weight phase per kernel tap (one
    input channel, so a bias phase and nine weight phases), and makes ten
    critical searches for its 20 parameters."""
    model = random_model("conv2x3x3-mpr2-fc3-r-fc3", (1, 4, 4), seed=1)
    searches = []
    real = sx_extract.search_critical
    monkeypatch.setattr(sx_extract, "search_critical", lambda *a, **k: searches.append(a) or real(*a, **k))
    res = extract_conv_layer(OracleHandle.in_process(model), model.skeleton(), 1, CFG, np.random.default_rng(0))
    assert len(searches) == 1 + 9
    assert res.calibration_queries > 0 and not res.retried and not res.dead
    true = model.layer(1)
    assert sx.relative_errors(res.weight, true.weight).max() <= 1e-6
    assert sx.relative_errors(res.bias, true.bias).max() <= 1e-6


# ---------------------------------------------------------------------------
# input control


def test_zero_input_plan_sequential(small_cnn):
    plan = zero_input_plan(small_cnn.skeleton(), 3)
    assert plan.sources == (2,) and not plan.input_mode
    tr = forward_trace(small_cnn, _controlled_query(small_cnn.skeleton(), plan, None))
    assert np.all(tr.values[2] == 0.0)


def test_zero_input_plan_residual():
    m = random_model("conv4x3x3-r-res{conv4x3x3-r,conv4x3x3-r}-conv4x3x3-r-fc4", (2, 6, 6), seed=13)
    sk = m.skeleton()
    add_id = next(s.id for s in m.topo_order if s.kind == "Add")
    target = next(s.id for s in m.topo_order if s.inputs and s.inputs[0] == add_id)
    plan = zero_input_plan(sk, target)
    assert set(plan.sources) == set(m.layer(add_id).inputs)
    tr = forward_trace(m, _controlled_query(sk, plan, None))
    assert np.abs(tr.values[add_id]).max() == 0.0


def test_zero_input_plan_first_layer(small_cnn):
    plan = zero_input_plan(small_cnn.skeleton(), 1)
    assert plan.input_mode and plan.sources == ()


def test_suppression_margin_validated():
    """The magnitude ladder: suppression keeps a 100x margin over reachable
    features and lies beyond every search, so no scan reaches the floor."""
    assert 100.0 * FEATURE_BOUND <= SUPPRESSION
    assert FEATURE_BOUND < ETA_MAX <= SUPPRESSION


# ---------------------------------------------------------------------------
# conv geometry


def test_conv_amplitude_default(monkeypatch):
    """Every weight phase of a convolution injects one input pixel, at the
    amplitude sqrt(n_in kh kw / 4): 12 for 64 input channels and a 3x3
    kernel.  There is one layout, read n-ary or scanned binary alike: the
    phase of tap (c_in, ki, kj) sets the pixel that the map centre reads
    through that tap, and every output channel is read at the centre."""
    m = random_model("conv4x3x3-r-fc4", (64, 8, 8), seed=0)
    sent = {}

    def capture(oracle, skeleton, layer_id, succ, amplitude, targets, weight_phases, *rest):
        sent.update(amplitude=amplitude, targets=targets, phases=list(weight_phases))

    monkeypatch.setattr(sx_extract, "_extract_layer", capture)
    for nary in (True, False):
        monkeypatch.setattr(sx_extract, "_reads_nary", lambda *a, nary=nary: nary)
        oracle = OracleHandle.in_process(m)
        extract_conv_layer(oracle, m.skeleton(), 1, CFG, np.random.default_rng(0))
        assert oracle.count == 0 and sent["amplitude"] == math.sqrt(64 * 3 * 3 / 4) == 12.0
        assert sent["targets"] == [(c, 4, 4) for c in range(4)]
        taps = [(c, ki, kj) for c in range(64) for ki in range(3) for kj in range(3)]
        assert [column for _, column in sent["phases"]] == taps
        for inject, (c_in, ki, kj) in sent["phases"]:
            (pixel,) = zip(*np.nonzero(inject))
            assert inject.shape == (64, 8, 8) and inject[pixel] == 12.0
            assert tuple(int(i) for i in pixel) == (c_in, 3 + ki, 3 + kj)


# ---------------------------------------------------------------------------
# layer drivers


def test_extract_fc_layer_recovers(small_cnn):
    oracle = OracleHandle.in_process(small_cnn)
    res = extract_fc_layer(oracle, small_cnn.skeleton(), 3, CFG_1E8, np.random.default_rng(0))
    true = small_cnn.layer(3)
    assert np.abs(res.bias - true.bias).max() <= 1e-8
    assert np.abs(res.weight - true.weight).max() <= 1e-8
    assert res.total_queries == oracle.count
    assert not res.dead


def test_extract_conv_layer_recovers(small_cnn):
    oracle = OracleHandle.in_process(small_cnn)
    res = extract_conv_layer(oracle, small_cnn.skeleton(), 1, CFG_1E8, np.random.default_rng(0))
    true = small_cnn.layer(1)
    assert np.abs(res.bias - true.bias).max() <= 1e-8
    assert np.abs(res.weight - true.weight).max() <= 1e-8
    assert res.total_queries == oracle.count


@pytest.mark.parametrize("shape, nary", [((16,), True), ((5,), False)], ids=["nary", "binary"])
def test_a_weight_far_below_its_bias_reads_to_eta_tol(shape, nary):
    """A weight is read to ``eta_tol`` of itself, not of the raw value y =
    b + a w that its scan releases: weight (0, 3) of ``fc6-r-fc4`` is
    2.5e-6 under a bias of -2.3e-2, as criterion 1's weight (27, 87) of
    layer 3 is.  Whether the layer reads n-ary (16 inputs) or binary (5),
    that weight lands within ``eta_tol`` |w| plus the ``SCAN_ABS_TOL`` / a
    floor, where a reading of y to ``eta_tol`` |y| would be about 1e3 times
    that far off."""
    truth = random_model("fc6-r-fc4", shape, seed=1)
    spec = truth.layer(1)
    weight, bias = spec.weight.copy(), spec.bias.copy()
    weight[0, 3], bias[0] = 2.5e-6, -2.3e-2
    truth = truth.with_params({1: (weight, bias)})
    skeleton = truth.skeleton()
    assert _reads_nary(skeleton, 1, skeleton.n_classes, CFG.eta_tol) == nary
    res = extract_fc_layer(OracleHandle.in_process(truth), skeleton, 1, CFG, np.random.default_rng(1))
    assert (res.calibration_queries > 0) == nary and not res.dead and not res.retried
    amplitude = math.sqrt(shape[0] / 4.0)
    assert abs(res.weight[0, 3] - 2.5e-6) <= CFG.eta_tol * 2.5e-6 + SCAN_ABS_TOL / amplitude
    assert sx.relative_errors(res.weight, weight).max() <= 1e-6


def test_extract_last_layer_gauge(small_cnn):
    oracle = OracleHandle.in_process(small_cnn)
    sk = small_cnn.skeleton()
    # the terminal layer has its own driver: the FC driver names it and sends no query
    with pytest.raises(sx.ExtractionError, match="extract_last_layer"):
        extract_fc_layer(oracle, sk, 5, CFG_1E9, np.random.default_rng(0))
    assert oracle.count == 0
    res = extract_last_layer(oracle, sk, CFG_1E9)
    true = small_cnn.layer(5)
    tb, tw = gauge_fix(true.bias, true.weight)
    assert res.gauge_fixed
    assert res.bias[0] == 0.0 and np.all(res.weight[0] == 0.0)
    assert np.abs(res.bias - tb).max() <= 1e-9
    assert np.abs(res.weight - tw).max() <= 1e-9
    # identifiable parameter counts exclude the pinned representatives
    assert res.bias_param_count() == true.bias.size - 1
    assert res.weight_param_count() == true.weight.size - true.weight.shape[1]


def test_gauge_representative_examples():
    b = np.array([1.0, 2.0, 0.5])
    w_col = np.array([[0.3], [-0.2], [0.1]])
    gb, gw = gauge_fix(b, w_col)
    assert np.allclose(gb, [0.0, 1.0, -0.5])
    assert np.allclose(gw.ravel(), [0.0, -0.5, -0.2])


def test_extract_fc_zero_input_reads_bias(small_cnn):
    """With the input pinned to zero the extracted vector is the bias."""
    sk = small_cnn.skeleton()
    plan = zero_input_plan(sk, 3)
    tr = forward_trace(small_cnn, _controlled_query(sk, plan, None))
    assert np.allclose(tr.y[4], small_cnn.layer(3).bias)


def test_extract_fc_column_linearity(small_cnn):
    """x = amplitude * e_i0 turns output j into bias[j] + amplitude * w[j, i0]."""
    sk = small_cnn.skeleton()
    plan = zero_input_plan(sk, 3)
    n_in = small_cnn.layer(3).weight.shape[1]
    amp = math.sqrt(n_in / 4.0)
    inject = np.zeros(n_in)
    inject[5] = amp
    tr = forward_trace(small_cnn, _controlled_query(sk, plan, inject))
    want = small_cnn.layer(3).bias + amp * small_cnn.layer(3).weight[:, 5]
    assert np.allclose(tr.y[4], want)


@pytest.mark.parametrize("arch, shape, seed, admitted", [
    ("conv3x3x3-r-fc6-r-fc3", (2, 4, 4), 31, True),
    ("conv2x3x3-r-fc12-r-fc10", (2, 6, 6), 3, False),  # the ten-class CI model: two outputs share 8 intercept ties
], ids=["4x4-forced-binary", "6x6-refused"])
def test_conv_small_map_single_injection_fallback(monkeypatch, arch, shape, seed, admitted):
    """A convolution scanned binary has the one layout of a convolution
    read n-ary: one weight phase per kernel tap, each injecting the one
    input pixel that the map centre reads through that tap, so 1 + n_in kh
    kw critical searches, and every target, bias or weight, at the map
    centre.  Layer 1 of the first model, on a 4x4 map, would read n-ary
    and is forced binary; the rule refuses layer 1 of the second, on a 6x6
    map.  Both recover every tap."""
    m = random_model(arch, shape, seed=seed)
    sk = m.skeleton()
    assert _reads_nary(sk, 1, sk.n_classes, CFG_1E8.eta_tol) == admitted
    monkeypatch.setattr(sx_extract, "_reads_nary", lambda *a: False)
    searches, targets = [], []
    real_search, real_scan = sx_extract.search_critical, sx_extract.extract_feature
    monkeypatch.setattr(sx_extract, "search_critical", lambda *a, **k: searches.append(a) or real_search(*a, **k))
    monkeypatch.setattr(sx_extract, "extract_feature", lambda *a, **k: targets.append(a[4]) or real_scan(*a, **k))
    res = extract_conv_layer(OracleHandle.in_process(m), sk, 1, CFG_1E8, np.random.default_rng(0))
    true = m.layer(1)
    n_out = true.weight.shape[0]
    assert not res.retried and not res.dead
    assert len(searches) == 1 + true.weight[0].size
    _, fh, fw = sk.out_shape(1)
    assert targets == [(c, fh // 2, fw // 2) for c in range(n_out)] * (1 + true.weight[0].size)
    assert np.abs(res.bias - true.bias).max() <= 1e-8
    assert np.abs(res.weight - true.weight).max() <= 1e-8
    assert sx.relative_errors(res.weight, true.weight).max() <= 1e-6


@pytest.mark.parametrize("arch, shape", [
    ("conv2x3x3-r-fc4-r-fc3", (1, 2, 2)),
    ("conv2x3x3-r-fc4-r-fc3", (1, 1, 1)),
    ("conv2x3x3-mpr2-fc3-r-fc3", (1, 2, 2)),
])
def test_conv_map_smaller_than_kernel_fails_its_layer_alone(arch, shape):
    """A convolution whose map is smaller than its kernel has no input
    pixel that its map centre reads through every tap: its layer fails
    before any query, and the attack goes on to extract the layers above
    it."""
    truth = random_model(arch, shape, seed=1)
    report, _ = sx.run_attack(sx.ExperimentConfig(arch=arch, input_shape=shape, model_seed=1), truth=truth)
    layers = {l.layer_id: l for l in report.layers}
    assert "smaller than its 3x3 kernel" in layers[1].error and layers[1].queries == 0
    for lid in (3, 5):
        assert layers[lid].error is None and max(layers[lid].e_bias, layers[lid].e_weight) <= 1e-6


def test_suppression_floor_detected():
    """A target sitting below the suppression constant needs a push past
    ``ETA_MAX`` to flip, so it reads as a dead feature."""
    model, x = _crafted_pool_model([[-2e6, -3.0], [0.5, -7.0]])
    oracle = OracleHandle.in_process(model)
    cp, _ = _phase_point(model, oracle, x, np.random.default_rng(1))
    with pytest.raises(DeadFeatureError):
        extract_feature_maxpool(oracle, model, cp, 2, (0, 0, 0), CFG)


@pytest.mark.parametrize("factor", [1.0, 10.0])
def test_suppression_floor_detected_with_start_step_at_or_above_cap(factor):
    model, x = _crafted_pool_model([[-2e6, -3.0], [0.5, -7.0]])
    oracle = OracleHandle.in_process(model)
    cp, _ = _phase_point(model, oracle, x, np.random.default_rng(1))
    with pytest.raises(DeadFeatureError):
        extract_feature_maxpool(oracle, model, cp, 2, (0, 0, 0), CFG, first_step=factor * ETA_MAX)


def test_extract_conv_fed_by_maxpool():
    """Injection into a layer whose input is a pooled map goes through the
    pool's post side; recovery is unaffected."""
    m = random_model("conv4x3x3-mpr2-conv4x3x3-r-fc8-r-fc3", (2, 6, 6), seed=33)
    oracle = OracleHandle.in_process(m)
    res = extract_conv_layer(oracle, m.skeleton(), 3, CFG, np.random.default_rng(0))
    true = m.layer(3)
    assert np.abs(res.bias - true.bias).max() <= 1e-7
    assert np.abs(res.weight - true.weight).max() <= 1e-7
    assert not res.dead


def test_extract_conv_after_identity_skip():
    """An identity skip makes the trunk activation feed both the Add and the
    branch convolution; suppressing both sources still pins the input."""
    m = random_model("conv4x3x3-r-res{conv4x3x3-r,}-conv4x3x3-r-fc4", (2, 6, 6), seed=29)
    add_id = next(s.id for s in m.topo_order if s.kind == "Add")
    target = next(s.id for s in m.topo_order if s.inputs and s.inputs[0] == add_id)
    oracle = OracleHandle.in_process(m)
    res = extract_conv_layer(oracle, m.skeleton(), target, CFG, np.random.default_rng(1))
    true = m.layer(target)
    assert np.abs(res.bias - true.bias).max() <= 1e-7
    assert np.abs(res.weight - true.weight).max() <= 1e-7


def test_downstream_relus_switched_on():
    """A ReLU downstream of the target that is off at the critical point
    hides the target from the tied logits, so a scan reads a later kink.
    Layer 1 of this maxpool+residual model read weight (2, 0, 2, 2) as
    0.507 against a true 0.203, unflagged, before every phase switched the
    downstream ReLUs on."""
    arch, shape = "conv4x3x3-mpr2-res{conv4x3x3-r,}-fc8-r-fc4", (2, 8, 8)
    truth = random_model(arch, shape, seed=9)
    cfg = sx.ExperimentConfig(arch=arch, input_shape=shape, attack_seed=5, layers=[1])
    _, extracted = sx.run_attack(cfg, truth=truth)
    est, true = extracted.layer(1), truth.layer(1)
    assert sx.relative_errors(est.weight, true.weight).max() <= 1e-4
    assert sx.relative_errors(est.bias, true.bias).max() <= 1e-4


class _CountingRng:
    """A generator that counts its draws: one per fresh class pair."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def choice(self, *args, **kwargs):
        self.draws += 1
        return self._rng.choice(*args, **kwargs)


def test_one_fresh_tie_per_layer():
    """Each phase ties its critical point from the one before, and a
    silenced boundary leaves that tie where it was: the relu-inproc
    benchmark model's layers 1 and 3 draw one class pair each, retry
    nothing, and read every parameter."""
    model = random_model("conv2x3x3-r-fc12-r-fc4", (2, 6, 6), seed=3)
    for lid, extract in ((1, extract_conv_layer), (3, extract_fc_layer)):
        rng = _CountingRng(lid)
        res = extract(OracleHandle.in_process(model), model.skeleton(), lid, CFG, rng)
        assert rng.draws == 1
        assert not res.retried and not res.dead
        true = model.layer(lid)
        assert sx.relative_errors(res.weight, true.weight).max() <= 1e-6
        assert sx.relative_errors(res.bias, true.bias).max() <= 1e-6


def test_skip_path_layer_reties_from_hint(monkeypatch):
    """An identity skip carries the injection of the residual conv (layer
    3) around its silenced ReLU, and every weight phase cancels it on that
    ReLU's post side, where the skip joins the branch (``_skip_cancel``):
    the tie stays where the bias phase left it.  Each phase ties from the
    tie before, with the same class pair and no fresh draw, and every
    parameter reads right."""
    arch, shape = "conv4x3x3-mpr2-res{conv4x3x3-r,}-fc8-r-fc4", (2, 8, 8)
    model = random_model(arch, shape, seed=9)
    ties = []
    real = sx_extract.search_critical
    monkeypatch.setattr(sx_extract, "search_critical", lambda *a, **k: ties.append(real(*a, **k)) or ties[-1])
    rng = _CountingRng(0)
    res = extract_conv_layer(OracleHandle.in_process(model), model.skeleton(), 3, CFG, rng)
    assert rng.draws == 1 and len(ties) == 37  # the bias phase and one n-ary weight phase per kernel tap
    assert len({(cp.c1, cp.c2) for cp in ties}) == 1
    assert all(abs(cp.t - ties[0].t) <= NARY_TIE_DRIFT for cp in ties)  # within mask noise: no move
    assert not res.retried and not res.dead
    true = model.layer(3)
    assert sx.relative_errors(res.weight, true.weight).max() <= 1e-6
    assert sx.relative_errors(res.bias, true.bias).max() <= 1e-6


def _assert_right_or_flagged(arch, shape, model_seed, layers, tol):
    """Attack ``layers`` of ``arch`` (attack seed 1; None: every layer): in
    each, no more parameters read beyond ``tol`` (relative) than it lists
    as dead or retried.  Returns the report, the truth and the extracted
    model."""
    truth = random_model(arch, shape, seed=model_seed)
    cfg = sx.ExperimentConfig(arch=arch, input_shape=shape, model_seed=model_seed, attack_seed=1, layers=layers)
    report, extracted = sx.run_attack(cfg, truth=truth)
    for layer in report.layers:
        est, true = extracted.layer(layer.layer_id), truth.layer(layer.layer_id)
        eb, ew = layer_error_summary(est.bias, est.weight, true.bias, true.weight, gauge=layer.gauge_fixed)
        wrong = int((eb > tol).sum() + (ew > tol).sum())
        assert layer.error is None and wrong <= layer.dead + layer.retried, (layer.layer_id, max(eb.max(), ew.max()))
    return report, truth, extracted


@pytest.mark.parametrize("model_seed", [1, 2, 3])
def test_residual_convs_above_a_maxpool_read_right(model_seed):
    """In conv4x3x3-r-res{conv4x3x3-r,}-r-res{conv4x3x3-r,}-mpr2-fc8-r-fc4
    (2x8x8) each block's identity skip carries the injection of its conv
    (layers 3 and 7) around the silenced ReLU and on into the maxpool.
    While the skip was left in place, both layers read 0.51 to 230 off
    (relative) at model seeds 1 to 3, with nothing flagged.  With the skip
    cancelled every parameter reads within 1e-5 or is listed as dead or
    retried."""
    arch = "conv4x3x3-r-res{conv4x3x3-r,}-r-res{conv4x3x3-r,}-mpr2-fc8-r-fc4"
    _assert_right_or_flagged(arch, (2, 8, 8), model_seed, [3, 7], 1e-5)


@pytest.mark.parametrize("model_seed", [1, 2])
def test_two_convs_above_a_maxpool_read_right(model_seed):
    """Layer 1 of conv4x3x3-r-conv4x3x3-r-conv4x3x3-mpr2-fc8-r-fc4 (2x8x8)
    read 1.33 and 0.64 off (relative) at model seeds 1 and 2, with nothing
    flagged, while the downstream maxpool still took its max in the scans.
    With one member of every pool window pinned (``_linearize_downstream``)
    every layer reads within 1e-6 or is listed as dead or retried, and the
    extracted model verifies."""
    arch = "conv4x3x3-r-conv4x3x3-r-conv4x3x3-mpr2-fc8-r-fc4"
    _, truth, extracted = _assert_right_or_flagged(arch, (2, 8, 8), model_seed, None, 1e-6)
    assert sx.verify_models(extracted, truth)["pass"]


@pytest.mark.xfail(strict=True, reason="the centre pin leaves a target behind a second conv one pool member: "
                                       "its smaller slope reads bias 2 1.57e-8 off, unflagged")
def test_biases_behind_a_conv_and_a_pinned_pool_read_to_their_tolerance():
    """Layer 1 of conv4x3x3-r-conv8x3x3-mpr2-fc8-r-fc4 (3x8x8, model seed
    2, attack seed 2) reads through a second conv into a maxpool whose
    windows pass one pinned member each (``_linearize_downstream``): a
    centre target reaches one pinned member, not up to four, so its logit
    slope is smaller and its tie error over that slope larger.  Every
    bias should read within eta_tol times ``BIAS_TOL_FACTOR`` (3e-11); bias
    2 (-0.168) reads 1.57e-8 off, nothing flagged.  Its bias phase runs
    before any calibration tie, so how the lines are referenced leaves it
    as it is."""
    arch, shape = "conv4x3x3-r-conv8x3x3-mpr2-fc8-r-fc4", (3, 8, 8)
    truth = random_model(arch, shape, seed=2)
    cfg = sx.ExperimentConfig(arch=arch, input_shape=shape, model_seed=2, attack_seed=2, layers=[1])
    report, extracted = sx.run_attack(cfg, truth=truth)
    assert report.layers[0].error is None
    errors = sx.relative_errors(extracted.layer(1).bias, truth.layer(1).bias)
    assert errors.max() <= cfg.search.eta_tol * BIAS_TOL_FACTOR, errors


@pytest.mark.parametrize("arch, shape, model_seed", [
    ("conv2x3x3-r-conv2x3x3-r-conv2x3x3-mpr2-fc6-r-fc3", (1, 8, 8), 2),
    ("conv2x3x3-r-conv2x3x3-r-conv2x3x3-mpr2-fc6-r-fc3", (2, 8, 8), 1),
    ("conv2x3x3-mpr2-conv2x3x3-r-conv2x3x3-mpr2-fc6-r-fc3", (2, 8, 8), 1),
    ("conv2x3x3-r-conv2x3x3-mpr2-fc6-r-fc3", (1, 8, 8), 1),
    ("conv4x3x3-r-conv4x3x3-mpr2-fc6-r-fc3", (1, 8, 8), 2),
    ("conv2x3x3-r-res{conv2x3x3-r,}-mpr2-fc6-r-fc3", (1, 8, 8), 2),
    ("conv4x3x3-r-res{conv4x3x3-r,}-mpr2-fc6-r-fc3", (1, 8, 8), 3),
    ("conv2x3x3-r-conv2x3x3-r-conv2x3x3-mpr2-fc6-r-fc3", (1, 8, 8), 4),
    ("conv4x3x3-r-conv4x3x3-r-conv4x3x3-mpr2-fc6-r-fc3", (1, 8, 8), 3),
    ("conv2x3x3-mpr2-conv2x3x3-r-conv2x3x3-mpr2-fc6-r-fc3", (1, 8, 8), 2),
    ("conv4x3x3-mpr2-conv4x3x3-r-conv4x3x3-mpr2-fc6-r-fc3", (1, 8, 8), 1),
    ("conv4x3x3-mpr2-conv4x3x3-r-conv4x3x3-mpr2-fc6-r-fc3", (2, 8, 8), 2),
])
def test_convs_above_a_maxpool_sweep(arch, shape, model_seed):
    """Layer 1 of small models with a MaxPoolReLU downstream of its
    boundary, behind one conv, an identity block or two convs: every
    parameter reads within 1e-6 or is listed as dead or retried.  A sweep
    of 80 such models (attack seed 1, model seeds 1 to 5, 1x8x8 and 2x8x8)
    found layer 1 read 6.2e-2 to 26 off, unflagged, in 33 of the 40 with
    two convs in between, while the downstream maxpool still took its max
    in the scans; five of those are the last cases here.  With one conv or
    an identity block in between, all 40 read within 1.3e-6."""
    _assert_right_or_flagged(arch, shape, model_seed, [1], 1e-6)


def _assert_every_layer_right(arch, shape, model_seed, tol):
    """Every layer of ``arch`` (attack seed 1) reads within ``tol``
    (relative), with no slot dead or retried."""
    report, _, _ = _assert_right_or_flagged(arch, shape, model_seed, None, tol)
    assert not any(layer.dead or layer.retried for layer in report.layers)


@pytest.mark.parametrize("model_seed", [1, 2, 3])
@pytest.mark.parametrize("shape", [(1, 8, 8), (2, 8, 8)])
@pytest.mark.parametrize("n", [2, 4])
def test_two_branch_convs_above_a_maxpool_read_right(n, shape, model_seed):
    """conv{n}x3x3-r-res{conv{n}x3x3-r,conv{n}x3x3-r}-mpr2-fc6-r-fc3: a
    non-identity skip carries each branch conv's injection around its
    silenced boundary and on into the maxpool, so the rule refuses both
    branch convs n-ary reads and they scan binary.  In the
    per-input-channel layout, with the maxpool still taking its max, all
    24 branch-conv layers of this family read up to 200 off (relative),
    unflagged.  Read at the map centre through pinned windows, every layer
    reads within 1e-6 (2.1e-7 at most), nothing dead or retried."""
    arch = f"conv{n}x3x3-r-res{{conv{n}x3x3-r,conv{n}x3x3-r}}-mpr2-fc6-r-fc3"
    _assert_every_layer_right(arch, shape, model_seed, 1e-6)


@pytest.mark.parametrize("model_seed", [1, 2])
def test_a_pool_fed_by_an_add_at_an_odd_centre_reads_right(model_seed):
    """In conv2x3x3-r-res{conv2x3x3-r,}-mpr2-fc6-r-fc3 on 1x6x6 the Add
    feeds the pool directly, and the pool input's centre, (3, 3), is odd.
    Pins at index 0 mod 2 miss the one pixel that a centre target of
    layer 3 reaches, so every slot of layer 3 reads dead; pins at the
    centre's residue keep it, and every layer reads within 1e-6."""
    _assert_every_layer_right("conv2x3x3-r-res{conv2x3x3-r,}-mpr2-fc6-r-fc3", (1, 6, 6), model_seed, 1e-6)


@pytest.mark.parametrize("pool, shape", [("mpr2", (1, 6, 6)), ("mpr3s1", (1, 8, 8))])
def test_a_downstream_pool_keeps_one_member_per_window(pool, shape):
    """A phase base pins a downstream MaxPoolReLU: +``FEATURE_BOUND`` on
    exactly one member of every window, the member at the pool input's
    centre among them, -``SUPPRESSION`` on the rest, at stride 2 and at
    overlapping stride 1 alike.  Both centres lie off index 0 of their
    windows' period: (3, 3) mod 2 and (4, 4) mod 3.  ``_require_phase_base`` checks the pins by
    value: a base with the keys but another pin pattern is refused."""
    m = random_model(f"conv2x3x3-r-conv2x3x3-{pool}-fc6-r-fc3", shape, seed=1)
    spec = m.layer(4)
    assert spec.kind == sx.KIND_MPR
    base = QueryInput(np.zeros(m.input_shape)).shifted(_phase_base(m, 2))
    pre = base.shifts.get(4, PRE)
    assert np.array_equal(pre, _linearize_downstream(m, 2).get(4, PRE))
    assert set(np.unique(pre)) == {-SUPPRESSION, FEATURE_BOUND}
    _, windows = sx_model._pool_windows(pre.shape, spec.kernel, spec.stride)
    kept = pre.reshape(pre.shape[0], -1)[:, windows] == FEATURE_BOUND
    assert np.all(kept.sum(axis=2) == 1)
    _, h, w = pre.shape
    assert np.all(pre[:, h // 2, w // 2] == FEATURE_BOUND)
    _require_phase_base(m, 2, base)
    for other in (np.full(pre.shape, FEATURE_BOUND), np.roll(pre, 1, axis=2)):
        pinned = QueryInput(base.x0, ShiftSet({**base.shifts.entries, (4, PRE): other}))
        with pytest.raises(sx.ExtractionError, match="pin one member per window of maxpool 4"):
            _require_phase_base(m, 2, pinned)


def test_extract_last_layer_tie_beyond_bisection_resolution(zero3_model):
    """Above 512 the float spacing exceeds ``TIE_POLISH_TOL`` (1e-13), so a
    critical point's bisection reaches adjacent floats before its
    tolerance; it must stop there instead of probing the same midpoint
    forever, and the point still passes the tie test.  The terminal
    layer's ties are readings: at eta_tol 1e-12 its biases read to 1e-12
    relative, and its zero weights read as their ties' moves from the bias
    ties, within the error of the bias reading and the absolute floor."""
    bias = np.array([0.0, 600.0, -700.0])
    model = zero3_model.with_params({3: (np.zeros((3, 3)), bias)})
    oracle = OracleHandle.in_process(model)
    res = extract_last_layer(oracle, model.skeleton(), replace(CFG, eta_tol=1e-12))
    assert np.abs(res.bias - bias).max() <= 1e-12 * 700
    amplitude = math.sqrt(3 / 4.0)
    assert np.all(np.abs(res.weight) <= (np.abs(res.bias - bias) + SCAN_ABS_TOL)[:, None] / amplitude)
    for seed in range(4):
        cp = search_critical(oracle, QueryInput(np.zeros(2)), CFG, np.random.default_rng(seed))
        logits = forward_trace(model, cp.v).logits
        assert abs(cp.t) >= 600
        assert abs(logits[cp.c1] - logits[cp.c2]) <= 2 * np.spacing(abs(cp.t))
        assert oracle.is_critical(cp.v, cp.c1, cp.c2)


# ---------------------------------------------------------------------------
# Terminal readings against critical points


def _terminal_toy(bias, weight):
    """A hidden layer of ``n_in`` units into a terminal layer with ``bias``
    and ``weight`` (classes x n_in): the weight phases inject the terminal
    layer's input directly, so its logits are bias + amplitude * weight[:, i]."""
    weight = np.asarray(weight, float)
    n_in = weight.shape[1]
    layers = [
        LayerSpec(id=0, kind=KIND_INPUT, shape=(1,)),
        fc_layer(1, 0, np.zeros((n_in, 1)), np.zeros(n_in)),
        LayerSpec(id=2, kind=KIND_RELU, inputs=(1,)),
        fc_layer(3, 2, weight, bias),
        LayerSpec(id=4, kind=KIND_ARGMAX, inputs=(3,)),
    ]
    return ModelGraph(layers, output=4)


def _recorded_ties(mp, oracle):
    """Wrap ``_pair_boundary``: each call appends (start, tie shift, queries)."""
    ties, real = [], sx_extract._pair_boundary

    def pair_boundary(*args, **kwargs):
        before = oracle.count
        v, t = real(*args, **kwargs)
        start = kwargs.get("start", args[5] if len(args) > 5 else 0.0)
        ties.append((start, t, oracle.count - before))
        return v, t

    mp.setattr(sx_extract, "_pair_boundary", pair_boundary)
    return ties


@settings(max_examples=60, deadline=None)
@given(
    bias=st.floats(1e-3, 1e2),
    moves=st.lists(st.floats(1e-3, 1e2), min_size=2, max_size=2),
    signs=st.lists(st.booleans(), min_size=3, max_size=3),
    log_tol=st.integers(-12, -3),
)
def test_terminal_readings_to_eta_tol(bias, moves, signs, log_tol):
    """A terminal tie is a reading, not a point to scan at.  The bias tie
    starts cold at 0, each weight tie warm at the bias tie, its first step
    the class's last move.  Whatever the magnitude (1e-3 to 1e2) and sign,
    each lands within max(eta_tol |move|, SCAN_ABS_TOL) of the true tie,
    up to float noise, where the move is its distance from where it
    started."""
    b = -bias if signs[0] else bias
    amplitude = math.sqrt(2 / 4.0)
    w = [(-m if neg else m) / amplitude for m, neg in zip(moves, signs[1:])]
    model = _terminal_toy([0.0, b], [[0.0, 0.0], w])
    cfg = BoundarySearchConfig(sphere_norm=10.0, eta_tol=10.0**log_tol)
    oracle = OracleHandle.in_process(model)
    with pytest.MonkeyPatch.context() as mp:
        ties = _recorded_ties(mp, oracle)
        extract_last_layer(oracle, model.skeleton(), cfg)
    inject = amplitude * np.eye(2)
    truths = [-b] + [-(b + float(model.layer(3).weight[1] @ x)) for x in inject]
    assert len(ties) == 3 and ties[0][0] == 0.0 and ties[1][0] == ties[2][0] == ties[0][1]
    for (start, t, _), truth in zip(ties, truths):
        noise = 8 * np.spacing(max(abs(truth), abs(start)))
        assert abs(t - truth) <= max(cfg.eta_tol * abs(truth - start), SCAN_ABS_TOL) + noise


@pytest.mark.parametrize("move", [1e-3, 1.0, 1e2, 0.0])
def test_warm_terminal_reading_step_count(monkeypatch, move):
    """The second weight phase starts class 1's tie at its bias tie, with
    the first weight phase's move as its first step.  When the move repeats,
    the reading costs its start label, one or two doubling probes and the
    bisection to eta_tol of the move: at most ceil(log2(1 / eta_tol)) + 3
    queries at every scale, with no two-probe test.  A tie that does not
    move stops at the ``SCAN_ABS_TOL`` floor, from the clamped first step
    ``ETA_INITIAL_STEP``."""
    amplitude = math.sqrt(2 / 4.0)
    model = _terminal_toy([0.0, 0.3], [[0.0, 0.0], [move / amplitude] * 2])
    oracle = OracleHandle.in_process(model)
    ties = _recorded_ties(monkeypatch, oracle)
    extract_last_layer(oracle, model.skeleton(), CFG)
    queries = ties[2][2]
    if move:
        assert queries <= math.ceil(math.log2(1.0 / CFG.eta_tol)) + 3
    else:
        assert queries <= 2 + math.ceil(math.log2(ETA_INITIAL_STEP / SCAN_ABS_TOL))


def test_critical_points_and_intercepts_keep_the_polish_tolerance():
    """Ties that later scans stand on are bisected to ``TIE_POLISH_TOL``
    and pass the two-probe test whatever ``eta_tol`` is: a fresh critical
    point, a hinted re-tie of it at a base whose logits moved, and every
    class intercept of an n-ary layer (relu-inproc's FC layer)."""
    model = random_model("conv2x3x3-r-fc12-r-fc4", (2, 6, 6), seed=3)
    sk, argmax = model.skeleton(), model.argmax_id
    cfg = BoundarySearchConfig(sphere_norm=10.0, eta_tol=1e-3)
    oracle = OracleHandle.in_process(model)
    base = _controlled_query(sk, zero_input_plan(sk, 3), None).shifted(_phase_base(sk, 4))

    def polished(v, c1, c2):
        logits = forward_trace(model, v).logits
        return abs(logits[c1] - logits[c2]) <= TIE_POLISH_TOL and oracle.is_critical(v, c1, c2)

    cp = search_critical(oracle, base, cfg, np.random.default_rng(1))
    assert polished(cp.v, cp.c1, cp.c2)
    moved = base.shifted(ShiftSet.single(argmax, PRE, (model.n_classes,), cp.c2, 0.37))
    again = search_critical(oracle, moved, cfg, np.random.default_rng(1), hint=cp)
    assert (again.c1, again.c2) == (cp.c1, cp.c2) and again.t == pytest.approx(cp.t - 0.37, abs=1e-12)
    assert polished(again.v, again.c1, again.c2)
    intercepts = sx_extract._class_intercepts(oracle, base, cp, cfg)
    assert len(intercepts) == model.n_classes
    for c, t in intercepts.items():
        if c != cp.c1:
            vec = np.full(model.n_classes, -SUPPRESSION)
            vec[[cp.c1, c]] = 0.0
            vec[c] += t
            assert polished(base.shifted(ShiftSet({(argmax, PRE): vec})), cp.c1, c)
