import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftextract as sx
from shiftextract import (
    KIND_ADD,
    KIND_ARGMAX,
    KIND_CONV,
    KIND_INPUT,
    KIND_MPR,
    KIND_RELU,
    POST,
    PRE,
    LayerSpec,
    ModelGraph,
    QueryInput,
    ShiftSet,
    StructuralError,
    apply_linear,
    apply_maxpool_relu,
    apply_nonlinear,
    forward_label,
    forward_trace,
    pooled_receivers,
    random_model,
)
from conftest import fc_layer


# ---------------------------------------------------------------------------
# apply_linear


def test_fc_direct_arithmetic():
    layer = fc_layer(1, 0, [[1.0, 2.0], [3.0, 4.0]], [0.5, -0.5])
    y = apply_linear(layer, np.array([1.0, 1.0]))
    assert np.array_equal(y, [3.5, 6.5])


def test_fc_identity():
    layer = fc_layer(1, 0, np.eye(4), np.zeros(4))
    x = np.arange(4.0)
    assert np.array_equal(apply_linear(layer, x), x)


def _conv_as_dense(weight, bias, in_shape, pad):
    """Independent oracle: materialize the convolution as a dense matrix."""
    n_out, n_in, kh, kw = weight.shape
    c, h, w = in_shape
    rows = []
    for o in range(n_out):
        for i in range(h):
            for j in range(w):
                row = np.zeros((c, h, w))
                for ci in range(n_in):
                    for u in range(kh):
                        for v in range(kw):
                            a, b = i + u - pad, j + v - pad
                            if 0 <= a < h and 0 <= b < w:
                                row[ci, a, b] = weight[o, ci, u, v]
                rows.append(row.ravel())
    mat = np.array(rows)
    b_full = np.repeat(bias, h * w)
    return lambda x: (mat @ x.ravel() + b_full).reshape(n_out, h, w)


def test_conv_delta_response():
    # all-ones 3x3 kernel, delta at the center of a 5x5 map
    w = np.ones((1, 1, 3, 3))
    b = np.zeros(1)
    layer = LayerSpec(id=1, kind=KIND_CONV, inputs=(0,), weight=w, bias=b, padding=1)
    x = np.zeros((1, 5, 5))
    x[0, 2, 2] = 1.0
    y = apply_linear(layer, x)
    expected = np.zeros((1, 5, 5))
    expected[0, 1:4, 1:4] = 1.0  # computed with the dense-matrix oracle below
    assert np.array_equal(y, expected)
    oracle = _conv_as_dense(w, b, (1, 5, 5), 1)
    assert np.array_equal(oracle(x), expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conv_matches_dense_matrix(seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    layer = LayerSpec(id=1, kind=KIND_CONV, inputs=(0,), weight=w, bias=b, padding=1)
    x = rng.standard_normal((2, 8, 8))
    dense = _conv_as_dense(w, b, (2, 8, 8), 1)
    assert np.abs(apply_linear(layer, x) - dense(x)).max() <= 1e-12


# ---------------------------------------------------------------------------
# non-linearities


def test_relu_examples():
    relu = LayerSpec(1, KIND_RELU, (0,))
    assert np.array_equal(apply_nonlinear(relu, np.array([-1.0, 2.0])), [0.0, 2.0])
    assert np.array_equal(apply_nonlinear(relu, np.array([-3.0, -0.5])), [0.0, 0.0])
    assert np.array_equal(apply_nonlinear(relu, np.array([0.0])), [0.0])


def test_maxpool_relu_single_window():
    y = np.array([[[1.0, -3.0], [0.5, -7.0]]])
    assert np.array_equal(apply_maxpool_relu(y, (2, 2), (2, 2)), [[[1.0]]])
    assert np.array_equal(apply_maxpool_relu(-np.abs(y) - 1, (2, 2), (2, 2)), [[[0.0]]])


def _pool_brute_force(y, kernel, stride):
    c, h, w = y.shape
    ph, pw = kernel
    sh, sw = stride
    oh, ow = (h - ph) // sh + 1, (w - pw) // sw + 1
    out = np.zeros((c, oh, ow))
    for ci in range(c):
        for a in range(oh):
            for b in range(ow):
                out[ci, a, b] = max(0.0, y[ci, a * sh : a * sh + ph, b * sw : b * sw + pw].max())
    return out


@pytest.mark.parametrize("kernel,stride", [((2, 2), (2, 2)), ((2, 2), (1, 1)), ((3, 3), (1, 1))])
def test_maxpool_relu_matches_brute_force(kernel, stride):
    rng = np.random.default_rng(5)
    y = rng.standard_normal((3, 4, 4)) if kernel == (2, 2) else rng.standard_normal((3, 5, 5))
    assert np.array_equal(apply_maxpool_relu(y, kernel, stride), _pool_brute_force(y, kernel, stride))
    mpr = LayerSpec(1, KIND_MPR, (0,), kernel=kernel, stride=stride)
    assert np.array_equal(apply_nonlinear(mpr, y), _pool_brute_force(y, kernel, stride))


def test_maxpool_bad_geometry():
    with pytest.raises(StructuralError):
        apply_maxpool_relu(np.zeros((1, 5, 5)), (2, 2), (2, 2))


def test_pooled_receivers_geometry():
    # non-overlapping windows: interior index feeds exactly one output
    assert pooled_receivers((4, 6, 6), (2, 2), (2, 2), (0, 3, 3)) == [(0, 1, 1)]
    # overlapping windows (stride < kernel): interior index feeds several
    z = pooled_receivers((4, 6, 6), (2, 2), (1, 1), (0, 3, 3))
    assert len(z) == 4


# ---------------------------------------------------------------------------
# forward passes and shifts


def test_empty_shiftset_is_identity(small_cnn):
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal((2, 5, 5))
        assert forward_label(small_cnn, QueryInput(x)) == forward_label(
            small_cnn, QueryInput(x, ShiftSet())
        )


def test_tie_break_lowest_index(zero3_model):
    shift = ShiftSet({(4, PRE): np.array([1.0, 1.0, 0.0])})
    q = QueryInput(np.zeros(2), shift)
    assert forward_label(zero3_model, q) == 0


def test_label_matches_trace_argmax(small_cnn):
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.standard_normal((2, 5, 5))
        shifts = ShiftSet()
        for lid in small_cnn.nonlinear_ids():
            if rng.random() < 0.5:
                shifts = shifts + ShiftSet({(lid, PRE): rng.standard_normal(small_cnn.pre_shape(lid))})
        q = QueryInput(x, shifts)
        tr = forward_trace(small_cnn, q)
        assert forward_label(small_cnn, q) == int(np.argmax(tr.logits))
        assert tr.label == int(np.argmax(tr.logits))


def test_trace_zero_model_zero_input(zero3_model):
    tr = forward_trace(zero3_model, QueryInput(np.zeros(2)))
    assert all(np.all(v == 0) for v in tr.values.values())
    assert np.all(tr.logits == 0)


def test_trace_single_fc():
    layers = [
        LayerSpec(id=0, kind=KIND_INPUT, shape=(1,)),
        fc_layer(1, 0, [[2.0]], [1.0]),
        LayerSpec(id=2, kind=KIND_RELU, inputs=(1,)),
        fc_layer(3, 2, [[1.0], [0.0]], [0.0, 0.0]),
        LayerSpec(id=4, kind=KIND_ARGMAX, inputs=(3,)),
    ]
    m = ModelGraph(layers, output=4)
    tr = forward_trace(m, QueryInput(np.array([3.0])))
    assert tr.y[2] == pytest.approx([7.0])


def test_shiftset_add_identity_and_overlap():
    a = ShiftSet({(2, PRE): np.array([1.0, 2.0])})
    assert a + ShiftSet() == a
    b = ShiftSet({(2, PRE): np.array([0.5, -2.0]), (4, PRE): np.ones(3)})
    s = a + b
    assert np.array_equal(s.get(2, PRE), [1.5, 0.0])
    assert np.array_equal(s.get(4, PRE), np.ones(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
def test_shift_additivity_on_labels(seed, split_seed):
    """Splitting one shift across two sets gives the same label as the sum."""
    m = random_model("fc6-r-fc3", (4,), seed=11)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4)
    total = rng.standard_normal(6)
    frac = np.random.default_rng(split_seed).random(6)
    part1 = ShiftSet({(2, PRE): total * frac})
    part2 = ShiftSet({(2, PRE): total * (1 - frac)})
    combined = ShiftSet({(2, PRE): total * frac + total * (1 - frac)})
    lbl_split = forward_label(m, QueryInput(x, part1 + part2))
    lbl_combined = forward_label(m, QueryInput(x, combined))
    assert lbl_split == lbl_combined


def test_malleation_locality(small_cnn):
    """A post-side shift changes only its own boundary and what follows."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 5, 5))
    relu_id = 2  # first ReLU
    delta = rng.standard_normal(small_cnn.out_shape(relu_id))
    plain = forward_trace(small_cnn, QueryInput(x))
    shifted = forward_trace(small_cnn, QueryInput(x, ShiftSet({(relu_id, POST): delta})))
    topo = [s.id for s in small_cnn.topo_order]
    cut = topo.index(relu_id)
    for lid in topo[:cut]:
        assert np.array_equal(plain.values[lid], shifted.values[lid])
    assert np.array_equal(shifted.values[relu_id], plain.values[relu_id] + delta)
    # downstream sees the change
    assert not np.array_equal(plain.logits, shifted.logits)


# ---------------------------------------------------------------------------
# structure validation


def test_rejects_adjacent_parameterized_layers():
    layers = [
        LayerSpec(id=0, kind=KIND_INPUT, shape=(2,)),
        fc_layer(1, 0, np.zeros((3, 2)), np.zeros(3)),
        fc_layer(2, 1, np.zeros((3, 3)), np.zeros(3)),
        LayerSpec(id=3, kind=KIND_ARGMAX, inputs=(2,)),
    ]
    with pytest.raises(StructuralError):
        ModelGraph(layers, output=3)


def test_rejects_add_fed_by_linear():
    layers = [
        LayerSpec(id=0, kind=KIND_INPUT, shape=(2,)),
        fc_layer(1, 0, np.zeros((3, 2)), np.zeros(3)),
        LayerSpec(id=2, kind=KIND_RELU, inputs=(1,)),
        fc_layer(3, 2, np.zeros((3, 3)), np.zeros(3)),
        LayerSpec(id=4, kind=KIND_ADD, inputs=(3, 2)),
        fc_layer(5, 4, np.zeros((3, 3)), np.zeros(3)),
        LayerSpec(id=6, kind=KIND_ARGMAX, inputs=(5,)),
    ]
    with pytest.raises(StructuralError):
        ModelGraph(layers, output=6)


def test_shift_key_validation(small_cnn):
    x = np.zeros((2, 5, 5))
    with pytest.raises(StructuralError):  # linear layer is not malleable
        forward_label(small_cnn, QueryInput(x, ShiftSet({(1, PRE): np.zeros((3, 5, 5))})))
    with pytest.raises(StructuralError):  # argmax has no post side
        forward_label(
            small_cnn, QueryInput(x, ShiftSet({(small_cnn.argmax_id, POST): np.zeros(3)}))
        )
    with pytest.raises(StructuralError):  # wrong shape
        forward_label(small_cnn, QueryInput(x, ShiftSet({(2, PRE): np.zeros(7)})))
    with pytest.raises(StructuralError):  # wrong input shape
        forward_label(small_cnn, QueryInput(np.zeros(3)))


# ---------------------------------------------------------------------------
# builders and serialization


def test_random_model_deterministic():
    a = random_model("conv4x3x3-mpr2-fc8-r-fc3", (2, 4, 4), seed=9)
    b = random_model("conv4x3x3-mpr2-fc8-r-fc3", (2, 4, 4), seed=9)
    for sa, sb in zip(a.layers, b.layers):
        if sa.weight is not None:
            assert np.array_equal(sa.weight, sb.weight)
            assert np.array_equal(sa.bias, sb.bias)
    c = random_model("conv4x3x3-mpr2-fc8-r-fc3", (2, 4, 4), seed=10)
    assert not np.array_equal(a.layer(1).weight, c.layer(1).weight)
    assert a.layer(1).weight.shape == c.layer(1).weight.shape


def test_random_model_finite_logits():
    m = random_model("conv8x3x3-mpr2-conv8x3x3-r-fc32-r-fc4", (3, 8, 8), seed=0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        tr = forward_trace(m, QueryInput(rng.standard_normal((3, 8, 8))))
        assert np.all(np.isfinite(tr.logits))


def test_residual_arch_builds():
    m = random_model("conv4x3x3-r-res{conv4x3x3-r,conv4x3x3-r}-conv4x3x3-r-fc4", (2, 6, 6), seed=1)
    adds = [s for s in m.topo_order if s.kind == KIND_ADD]
    assert len(adds) == 1
    assert all(m.layer(p).kind == KIND_RELU for p in adds[0].inputs)
    # identity branch variant
    m2 = random_model("conv4x3x3-r-res{conv4x3x3-r,}-fc4", (2, 6, 6), seed=1)
    add = next(s for s in m2.topo_order if s.kind == KIND_ADD)
    assert len(set(add.inputs)) == 2


def test_arch_parse_errors():
    with pytest.raises(StructuralError):
        sx.parse_architecture("conv4x3")
    with pytest.raises(StructuralError):
        sx.build_model("conv4x3x3-r", (2, 4, 4))  # must end with fc
    with pytest.raises(StructuralError):
        sx.build_model("res{conv4x3x3-r,}-fc4", (2, 4, 4))  # res needs a non-linear tip


def test_serialization_roundtrip(tmp_path, small_cnn):
    path = tmp_path / "model.json"
    sx.save_model(small_cnn, path)
    loaded = sx.load_model(path)
    for sa, sb in zip(small_cnn.layers, loaded.layers):
        assert sa.kind == sb.kind and sa.inputs == sb.inputs
        if sa.weight is not None:
            assert np.array_equal(sa.weight, sb.weight)
            assert np.array_equal(sa.bias, sb.bias)
    doc = json.loads(path.read_text())
    assert set(doc) == {"layers", "output"}
    assert all(set(e) == {"id", "kind", "inputs", "params"} for e in doc["layers"])
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal((2, 5, 5))
        assert forward_label(small_cnn, QueryInput(x)) == forward_label(loaded, QueryInput(x))


def test_maxpool_model_roundtrip(tmp_path):
    """A model with MaxPoolReLU layers, overlapping windows among them,
    keeps each pool's kernel and stride through ``save_model`` and
    ``load_model``, and labels every input alike."""
    model = random_model("conv2x3x3-mpr3s1-conv2x3x3-mpr2-fc4-r-fc3", (1, 6, 6), seed=1)
    path = tmp_path / "pool.json"
    sx.save_model(model, path)
    loaded = sx.load_model(path)
    pools = [(s.id, s.kernel, s.stride) for s in loaded.layers if s.kind == KIND_MPR]
    assert pools == [(2, (3, 3), (1, 1)), (4, (2, 2), (2, 2))]
    assert pools == [(s.id, s.kernel, s.stride) for s in model.layers if s.kind == KIND_MPR]
    doc = json.loads(path.read_text())
    assert doc["layers"][2]["params"] == {"kernel": [3, 3], "stride": [1, 1]}
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal((1, 6, 6))
        assert np.array_equal(forward_trace(model, QueryInput(x)).logits, forward_trace(loaded, QueryInput(x)).logits)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3), st.integers(0, 2))
def test_tie_break_property(logits, dup):
    """Exact ties always resolve to the lowest index."""
    vec = np.asarray(logits)
    vec[dup] = vec.max()
    m_layers = [
        LayerSpec(id=0, kind=KIND_INPUT, shape=(1,)),
        fc_layer(1, 0, np.zeros((3, 1)), np.zeros(3)),
        LayerSpec(id=2, kind=KIND_RELU, inputs=(1,)),
        fc_layer(3, 2, np.zeros((3, 3)), np.zeros(3)),
        LayerSpec(id=4, kind=KIND_ARGMAX, inputs=(3,)),
    ]
    m = ModelGraph(m_layers, output=4)
    lbl = forward_label(m, QueryInput(np.zeros(1), ShiftSet({(4, PRE): vec})))
    assert lbl == int(np.flatnonzero(vec == vec.max())[0])


def test_shiftset_algebra_laws():
    """Commutative and associative on exactly representable values."""
    rng = np.random.default_rng(0)
    def mk():
        s = ShiftSet()
        for key in [(2, PRE), (2, POST), (4, PRE)]:
            if rng.random() < 0.8:
                s = s + ShiftSet({key: rng.integers(-8, 8, size=4).astype(float)})
        return s
    for _ in range(20):
        a, b, c = mk(), mk(), mk()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)


def test_load_rejects_strided_convolution(tmp_path, small_cnn):
    import json as _json
    path = tmp_path / "m.json"
    sx.save_model(small_cnn, path)
    doc = _json.loads(path.read_text())
    conv = next(e for e in doc["layers"] if e["kind"] == "Convolution")
    conv["params"]["stride"] = 2
    with pytest.raises(StructuralError):
        sx.model_from_dict(doc)
