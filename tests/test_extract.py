import math

import numpy as np
import pytest

import shiftextract as sx
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
    forward_trace,
    random_model,
    search_critical,
    zero_input_plan,
)
from shiftextract.extract import (
    DeadFeatureError,
    _aligned_axis,
    _controlled_query,
    conv_injection_pattern,
)
from shiftextract.harness import gauge_fix
from conftest import fc_layer

CFG = BoundarySearchConfig(sphere_norm=10.0)


def _toy_critical_point(model, oracle):
    """Tie the toy model's logits [1, -1] by adding [0, 2] at the argmax."""
    shift = np.array([0.0, 2.0])
    v = QueryInput(np.zeros(1), ShiftSet({(model.argmax_id, PRE): shift}))
    assert oracle.is_critical(v, 0, 1)
    return CriticalPoint(v=v, c1=0, c2=1, base=QueryInput(np.zeros(1)), layer=model.argmax_id,
                         boundary_shift=shift)


# ---------------------------------------------------------------------------
# search_critical


def test_search_critical_on_forced_logit_sphere(zero3_model):
    """Zero-parameter model: logits equal the searched shift, so the
    returned boundary must tie its two largest coordinates."""
    oracle = OracleHandle.in_process(zero3_model)
    cfg = BoundarySearchConfig(sphere_norm=1.0)
    rng = np.random.default_rng(0)
    v0 = QueryInput(np.zeros(2))
    cp = search_critical(oracle, zero3_model, v0, zero3_model.argmax_id, cfg, rng)
    tr = forward_trace(zero3_model, cp.v)
    top = np.sort(tr.logits)[::-1]
    assert abs(top[0] - top[1]) <= 2 * cfg.boundary_tol + 1e-12
    assert top[1] > top[2]
    assert {int(np.argsort(tr.logits)[-1]), int(np.argsort(tr.logits)[-2])} == {cp.c1, cp.c2}
    assert oracle.is_critical(cp.v, cp.c1, cp.c2)
    # independent coarse oracle: the sphere of shifts really is split into
    # class regions, so adjacent grid points with different labels exist
    grid = np.linspace(0, 2 * np.pi, 64)
    labels = set()
    for a in grid:
        for b in np.linspace(0, np.pi, 32):
            vec = np.array([np.cos(a) * np.sin(b), np.sin(a) * np.sin(b), np.cos(b)])
            labels.add(int(np.argmax(vec)))
    assert labels == {0, 1, 2}


def test_search_critical_unreachable_boundary(zero3_model):
    biased = zero3_model.with_params(
        {3: (np.zeros((3, 3)), np.array([10.0, 0.0, 0.0]))}
    )
    oracle = OracleHandle.in_process(biased)
    cfg = BoundarySearchConfig(sphere_norm=1.0, max_sample_rounds=16)
    with pytest.raises(BoundarySearchError):
        search_critical(oracle, biased, QueryInput(np.zeros(2)), biased.argmax_id, cfg,
                        np.random.default_rng(0))


# ---------------------------------------------------------------------------
# extract_feature on the toy model


def test_extract_feature_positive_branch(toy_pm1_model):
    oracle = OracleHandle.in_process(toy_pm1_model)
    cp = _toy_critical_point(toy_pm1_model, oracle)
    tr = forward_trace(toy_pm1_model, cp.v)
    assert tr.y[2][0] == pytest.approx(1.0)
    res = extract_feature(oracle, toy_pm1_model, cp, 2, [(0,)], CFG)
    assert res.branch == "positive"
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_extract_feature_negative_branch(toy_pm1_model):
    oracle = OracleHandle.in_process(toy_pm1_model)
    cp = _toy_critical_point(toy_pm1_model, oracle)
    tr = forward_trace(toy_pm1_model, cp.v)
    assert tr.y[2][1] == pytest.approx(-1.0)
    res = extract_feature(oracle, toy_pm1_model, cp, 2, [(1,)], CFG)
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
    shift = np.array([0.0, 2.0])
    v = QueryInput(np.zeros(1), ShiftSet({(4, PRE): shift}))
    cp = CriticalPoint(v=v, c1=0, c2=1, base=QueryInput(np.zeros(1)), layer=4, boundary_shift=shift)
    cfg = BoundarySearchConfig(sphere_norm=10.0, eta_max=100.0)
    with pytest.raises(DeadFeatureError):
        extract_feature(oracle, m, cp, 2, [(1,)], cfg)


def test_boundary_correctness_invariant(small_cnn):
    """At the returned boundary magnitude, |value| matches the white-box
    feature within the configured scan tolerance."""
    oracle = OracleHandle.in_process(small_cnn)
    cfg = BoundarySearchConfig(sphere_norm=10.0, eta_tol=1e-10)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 5, 5))
    v0 = QueryInput(x)
    for attempt in range(6):
        cp = search_critical(oracle, small_cnn, v0, small_cnn.argmax_id, cfg, rng)
        tr = forward_trace(small_cnn, cp.v)
        for idx in [(0, 1, 1), (1, 2, 3), (2, 4, 4)]:
            res = extract_feature(oracle, small_cnn, cp, 2, [idx], cfg)
            assert abs(res.value - tr.y[2][idx]) <= cfg.eta_tol + 5e-11


def test_safe_error_cancellation(small_cnn):
    """Below the boundary the injected shifts cancel: everything downstream
    of the target layer is bit-for-bit unchanged up to float noise."""
    oracle = OracleHandle.in_process(small_cnn)
    rng = np.random.default_rng(4)
    v0 = QueryInput(rng.standard_normal((2, 5, 5)))
    cp = search_critical(oracle, small_cnn, v0, small_cnn.argmax_id, CFG, rng)
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
    rng = np.random.default_rng(1)
    base = QueryInput(x)
    cp = search_critical(oracle, model, base, model.argmax_id, CFG, rng)
    res = extract_feature_maxpool(oracle, model, cp, 2, (0, 0, 0), CFG, rng)
    # the white-box value under the suppression plan
    suppress = np.full((1, 2, 2), -CFG.suppression); suppress[0, 0, 0] = 0.0
    tr = forward_trace(model, base.shifted(ShiftSet({(2, PRE): suppress})))
    assert tr.y[2][0, 0, 0] == pytest.approx(target)
    assert res.value == pytest.approx(target, abs=CFG.eta_tol + 1e-10)


def test_extract_feature_maxpool_random_cross_check():
    model = random_model("conv3x3x3-mpr2s1-fc6-r-fc3", (2, 4, 4), seed=21)
    oracle = OracleHandle.in_process(model)
    rng = np.random.default_rng(2)
    base = QueryInput(np.zeros((2, 4, 4)))
    cp = search_critical(oracle, model, base, model.argmax_id, CFG, rng)
    idx = (1, 2, 2)
    assert len(sx.pooled_receivers((3, 4, 4), (2, 2), (1, 1), idx)) > 1
    suppress = np.full((3, 4, 4), -CFG.suppression); suppress[idx] = 0.0
    tr = forward_trace(model, base.shifted(ShiftSet({(2, PRE): suppress})))
    res = extract_feature_maxpool(oracle, model, cp, 2, idx, CFG, rng)
    assert res.value == pytest.approx(tr.y[2][idx], abs=1e-9)


# ---------------------------------------------------------------------------
# input control


def test_zero_input_plan_sequential(small_cnn):
    plan = zero_input_plan(small_cnn.skeleton(), 3, CFG)
    assert plan.sources == (2,) and not plan.input_mode
    tr = forward_trace(small_cnn, _controlled_query(small_cnn.skeleton(), plan, None))
    assert np.all(tr.values[2] == 0.0)


def test_zero_input_plan_residual():
    m = random_model("conv4x3x3-r-res{conv4x3x3-r,conv4x3x3-r}-conv4x3x3-r-fc4", (2, 6, 6), seed=13)
    sk = m.skeleton()
    add_id = next(s.id for s in m.topo_order if s.kind == "Add")
    target = next(s.id for s in m.topo_order if s.inputs and s.inputs[0] == add_id)
    plan = zero_input_plan(sk, target, CFG)
    assert set(plan.sources) == set(m.layer(add_id).inputs)
    tr = forward_trace(m, _controlled_query(sk, plan, None))
    assert np.abs(tr.values[add_id]).max() == 0.0


def test_zero_input_plan_first_layer(small_cnn):
    plan = zero_input_plan(small_cnn.skeleton(), 1, CFG)
    assert plan.input_mode and plan.sources == ()


def test_suppression_margin_validated(small_cnn):
    cfg = BoundarySearchConfig(sphere_norm=1.0, suppression=10.0, feature_bound=1.0)
    with pytest.raises(sx.ExtractionError):
        zero_input_plan(small_cnn.skeleton(), 3, cfg)


# ---------------------------------------------------------------------------
# conv geometry


def test_aligned_axis_frozen_example():
    # 8-wide map, 3-wide kernel, kernel offset 0: positions {2, 5}
    assert _aligned_axis(8, 3, 0) == [2, 5]
    assert _aligned_axis(8, 3, 1) == [1, 4]
    assert _aligned_axis(8, 3, 2) == [3, 6]


def test_conv_amplitude_default():
    # 64 input channels, 3x3 kernel: sqrt(64 * 9 / 4) = 12
    assert math.sqrt(64 * 3 * 3 / 4) == pytest.approx(12.0)
    m = random_model("conv4x3x3-r-fc4", (64, 8, 8), seed=0)
    # the driver applies the same formula; check via the injected pattern
    pat = conv_injection_pattern(8, 8, 3, 3, math.sqrt(64 * 9 / 4))
    assert pat[1, 1] == 12.0
    assert pat[1, 4] == 12.0 and pat[4, 1] == 12.0
    assert pat[0, 0] == 0.0 and np.count_nonzero(pat) == 9


# ---------------------------------------------------------------------------
# layer drivers


def test_extract_fc_layer_recovers(small_cnn):
    oracle = OracleHandle.in_process(small_cnn)
    res = extract_fc_layer(oracle, small_cnn.skeleton(), 3, CFG, np.random.default_rng(0))
    true = small_cnn.layer(3)
    assert np.abs(res.bias - true.bias).max() <= 1e-8
    assert np.abs(res.weight - true.weight).max() <= 1e-8
    assert res.total_queries == oracle.count
    assert not res.dead


def test_extract_conv_layer_recovers(small_cnn):
    oracle = OracleHandle.in_process(small_cnn)
    res = extract_conv_layer(oracle, small_cnn.skeleton(), 1, CFG, np.random.default_rng(0))
    true = small_cnn.layer(1)
    assert np.abs(res.bias - true.bias).max() <= 1e-8
    assert np.abs(res.weight - true.weight).max() <= 1e-8
    assert res.total_queries == oracle.count


def test_extract_last_layer_gauge(small_cnn):
    oracle = OracleHandle.in_process(small_cnn)
    res = extract_last_layer(oracle, small_cnn.skeleton(), CFG, np.random.default_rng(0))
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
    plan = zero_input_plan(sk, 3, CFG)
    tr = forward_trace(small_cnn, _controlled_query(sk, plan, None))
    assert np.allclose(tr.y[4], small_cnn.layer(3).bias)


def test_extract_fc_column_linearity(small_cnn):
    """x = amplitude * e_i0 turns output j into bias[j] + amplitude * w[j, i0]."""
    sk = small_cnn.skeleton()
    plan = zero_input_plan(sk, 3, CFG)
    n_in = small_cnn.layer(3).weight.shape[1]
    amp = math.sqrt(n_in / 4.0)
    inject = np.zeros(n_in)
    inject[5] = amp
    tr = forward_trace(small_cnn, _controlled_query(sk, plan, inject))
    want = small_cnn.layer(3).bias + amp * small_cnn.layer(3).weight[:, 5]
    assert np.allclose(tr.y[4], want)


def test_search_critical_at_inner_boundary(small_cnn):
    """The boundary search also works when varying an inner layer's input."""
    oracle = OracleHandle.in_process(small_cnn)
    rng = np.random.default_rng(8)
    v0 = QueryInput(rng.standard_normal((2, 5, 5)))
    cp = search_critical(oracle, small_cnn, v0, 2, CFG, rng)
    assert cp.layer == 2
    assert cp.boundary_shift.shape == small_cnn.pre_shape(2)
    tr = forward_trace(small_cnn, cp.v)
    top = np.sort(tr.logits)[::-1]
    assert abs(top[0] - top[1]) <= 1e-10
    assert oracle.is_critical(cp.v, cp.c1, cp.c2)


def test_conv_small_map_single_injection_fallback():
    """Feature maps below 2k-1 cannot host the periodic pattern; the single
    centered injection recovers every kernel tap instead."""
    m = random_model("conv3x3x3-r-fc6-r-fc3", (2, 4, 4), seed=31)  # f=4 < 2*3-1
    oracle = OracleHandle.in_process(m)
    res = extract_conv_layer(oracle, m.skeleton(), 1, CFG, np.random.default_rng(0))
    true = m.layer(1)
    assert np.abs(res.bias - true.bias).max() <= 1e-8
    assert np.abs(res.weight - true.weight).max() <= 1e-8


def test_suppression_floor_detected():
    """A target sitting below the suppression constant is reported as such
    when the scan cap is the constant rather than eta_max."""
    model, x = _crafted_pool_model([[-2e6, -3.0], [0.5, -7.0]])
    oracle = OracleHandle.in_process(model)
    cfg = BoundarySearchConfig(sphere_norm=10.0, eta_max=1e7, suppression=1e6)
    rng = np.random.default_rng(1)
    cp = search_critical(oracle, model, QueryInput(x), model.argmax_id, cfg, rng)
    with pytest.raises(sx.SuppressionFloorError):
        extract_feature_maxpool(oracle, model, cp, 2, (0, 0, 0), cfg, rng)


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


def test_extract_last_layer_tie_beyond_bisection_resolution(zero3_model):
    """Above 512 the float spacing exceeds ``tie_polish_tol`` (1e-13), so the
    class-pair bisection reaches adjacent floats before its tolerance; it
    must stop there instead of probing the same midpoint forever."""
    bias = np.array([0.0, 600.0, -700.0])
    model = zero3_model.with_params({3: (np.zeros((3, 3)), bias)})
    oracle = OracleHandle.in_process(model)
    res = extract_last_layer(oracle, model.skeleton(), CFG, np.random.default_rng(0))
    assert np.abs(res.bias - bias).max() <= 1e-12 * 700
    assert np.all(res.weight == 0.0)
