"""Acceptance suite: one test per criterion, each printing a PASS line.

The expensive end-to-end run (criterion 1) is shared with the query-budget
check (criterion 5) through a module-scoped fixture.
"""

import time

import numpy as np
import pytest

import shiftextract as sx
from shiftextract import (
    KIND_ARGMAX,
    POST,
    PRE,
    BoundarySearchConfig,
    ExperimentConfig,
    OracleHandle,
    QueryInput,
    ShiftSet,
    forward_label,
    forward_trace,
    random_model,
    run_attack,
    run_session,
    search_critical,
)
from shiftextract.harness import REFERENCE_CALLS_PER_PARAM, gauge_fix, layer_error_summary
from shiftextract.oracle import TIE_PROBE
from shiftextract.protocol import TAG_NONLINEAR_SHARE, Transcript, connect, payload_tensor, replay_transcript, serve

C1_ARCH = "conv8x3x3-r-fc32-r-fc4"
C1_SHAPE = (3, 8, 8)
C1_MODEL_SEED = 7
C1_ATTACK_SEED = 11
TOL = 1e-4
MEDIAN_TOL = 1e-6


@pytest.fixture(scope="module")
def criterion1_run():
    truth = random_model(C1_ARCH, C1_SHAPE, seed=C1_MODEL_SEED)
    cfg = ExperimentConfig(
        arch=C1_ARCH, input_shape=C1_SHAPE, model_seed=C1_MODEL_SEED, attack_seed=C1_ATTACK_SEED
    )
    t0 = time.perf_counter()
    report, extracted = run_attack(cfg, truth=truth)
    wall = time.perf_counter() - t0
    return truth, report, extracted, wall


def _per_param_errors(extracted, truth, layer_id, gauge=False):
    est, true = extracted.layer(layer_id), truth.layer(layer_id)
    return layer_error_summary(est.bias, est.weight, true.bias, true.weight, gauge)


def test_criterion_1_exact_extraction_relu_path(criterion1_run):
    truth, report, extracted, wall = criterion1_run
    errs = []
    for lid in (1, 3):  # the convolution and the first fully-connected layer
        eb, ew = _per_param_errors(extracted, truth, lid)
        errs.extend(eb.tolist())
        errs.extend(ew.tolist())
    errs = np.asarray(errs)
    dead = sum(l.dead for l in report.layers)
    assert errs.max() <= TOL, f"worst relative error {errs.max():.3e}"
    assert np.median(errs) <= MEDIAN_TOL, f"median relative error {np.median(errs):.3e}"
    assert dead == 0
    assert wall <= 300.0, f"runtime {wall:.0f}s exceeds 5 minutes"
    print(
        f"PASS criterion 1: relu-path extraction, max err {errs.max():.2e}, "
        f"median {np.median(errs):.2e}, dead flags {dead}, {wall:.0f}s"
    )


def test_criterion_2_maxpool_path():
    worst = 0.0
    # non-overlapping pool, then an overlapping-window pool (|Z| > 1)
    for arch, shape, kernel, stride in [
        ("conv6x3x3-mpr2-fc16-r-fc4", (2, 6, 6), (2, 2), (2, 2)),
        ("conv4x3x3-mpr2s1-fc8-r-fc4", (2, 6, 6), (2, 2), (1, 1)),
    ]:
        truth = random_model(arch, shape, seed=9)
        cfg = ExperimentConfig(arch=arch, input_shape=shape, attack_seed=5, layers=[1])
        report, extracted = run_attack(cfg, truth=truth)
        eb, ew = _per_param_errors(extracted, truth, 1)
        worst = max(worst, eb.max(), ew.max())
        assert eb.max() <= TOL and ew.max() <= TOL, f"{arch}: {max(eb.max(), ew.max()):.2e}"
        assert sum(l.dead for l in report.layers) == 0
    in_shape = (4, 6, 6)
    z = sx.pooled_receivers(in_shape, (2, 2), (1, 1), (0, 3, 3))
    assert len(z) > 1, "overlapping-window case must pool one input into several outputs"
    print(f"PASS criterion 2: maxpool path incl. |Z|={len(z)} overlap, worst err {worst:.2e}")


def test_criterion_3_residual_path():
    arch = "conv4x3x3-r-res{conv4x3x3-r,conv4x3x3-r}-conv4x3x3-r-fc4"
    truth = random_model(arch, (2, 6, 6), seed=13)
    add_id = next(s.id for s in truth.topo_order if s.kind == "Add")
    target = next(s.id for s in truth.topo_order if s.inputs and s.inputs[0] == add_id)
    plan = sx.zero_input_plan(truth.skeleton(), target)
    assert set(plan.sources) == set(truth.layer(add_id).inputs), "plan must cover both branches"
    cfg = ExperimentConfig(arch=arch, input_shape=(2, 6, 6), attack_seed=5, layers=[target])
    report, extracted = run_attack(cfg, truth=truth)
    eb, ew = _per_param_errors(extracted, truth, target)
    assert eb.max() <= TOL and ew.max() <= TOL
    print(f"PASS criterion 3: layer fed by Add extracted, worst err {max(eb.max(), ew.max()):.2e}")


def test_criterion_4_last_layer_gauge():
    arch, shape = "fc8-r-fc5", (6,)
    truth = random_model(arch, shape, seed=19)
    cfg = ExperimentConfig(arch=arch, input_shape=shape, attack_seed=2, layers=[3])
    report, extracted = run_attack(cfg, truth=truth)
    est, true = extracted.layer(3), truth.layer(3)
    tb, tw = gauge_fix(true.bias, true.weight)
    assert np.abs(est.bias - tb).max() <= TOL
    assert np.abs(est.weight - tw).max() <= TOL
    # absolute values are NOT claimed: the representative pins index 0 to
    # zero while the true parameters there are non-zero
    assert est.bias[0] == 0.0 and np.all(est.weight[0] == 0.0)
    assert abs(true.bias[0]) > 1e-3 and np.abs(true.weight[0]).max() > 1e-3
    assert not np.allclose(est.bias, true.bias, atol=1e-3)
    print(
        f"PASS criterion 4: last-layer differences within {TOL}, "
        f"absolute values unrecovered as expected"
    )


def test_criterion_5_query_budget(criterion1_run):
    _, report, _, _ = criterion1_run
    assert 10.0 <= report.calls_per_param <= 200.0
    print(
        f"PASS criterion 5: {report.calls_per_param:.1f} oracle calls per parameter "
        f"(sanity band 10..200; full-scale reference {REFERENCE_CALLS_PER_PARAM})"
    )


def test_criterion_1_exact_query_total(criterion1_run):
    """Criterion 1's attack spends exactly 229,088 queries: a change meant
    to keep every query stream must keep this total."""
    _, report, _, _ = criterion1_run
    assert report.total_queries == 229088


def test_criterion_6_protocol_fidelity():
    model = random_model("conv4x3x3-mpr2-fc8-r-fc3", (2, 4, 4), seed=3)
    rng = np.random.default_rng(0)

    def random_plan():
        s = ShiftSet()
        for lid in model.nonlinear_ids():
            if rng.random() < 0.7:
                s = s + ShiftSet({(lid, PRE): rng.standard_normal(model.pre_shape(lid))})
            if model.layer(lid).kind != KIND_ARGMAX and rng.random() < 0.7:
                s = s + ShiftSet({(lid, POST): rng.standard_normal(model.out_shape(lid))})
        return s

    worst_recon = 0.0
    for i in range(100):
        x = rng.standard_normal((2, 4, 4))
        plan = random_plan()
        want = forward_label(model, QueryInput(x, plan))
        got, transcript = run_session(model, x, plan, seed=i)
        assert got == want, f"protocol label diverged on pair {i}"
        if i < 10:  # share reconstruction spot checks
            mask_rng = np.random.default_rng(np.random.SeedSequence(transcript.session_seed))
            tr = forward_trace(model, QueryInput(x, plan))
            for spec in model.topo_order:
                if spec.kind not in ("ReLU", "MaxPoolReLU", "Argmax"):
                    continue
                r_y = mask_rng.uniform(-1e3, 1e3, size=model.pre_shape(spec.id))
                reply = next(
                    p for d, t, l, p in transcript.frames
                    if d == "c2s" and t == TAG_NONLINEAR_SHARE and l == spec.id
                )
                recon = payload_tensor(reply).reshape(model.pre_shape(spec.id)) + r_y
                pre = plan.get(spec.id, PRE)
                want_y = tr.y[spec.id] + (pre if pre is not None else 0.0)
                worst_recon = max(worst_recon, float(np.abs(recon - want_y).max()))
                if spec.kind != KIND_ARGMAX:
                    mask_rng.uniform(-1e3, 1e3, size=model.out_shape(spec.id))
    assert worst_recon <= 1e-12
    x = rng.standard_normal((2, 4, 4))
    plan = random_plan()
    l_mem, _ = run_session(model, x, plan, seed=123)
    server = serve(model, seed=123)
    try:
        conn = connect("%s:%d" % server.address)
        try:
            # the server's first connection runs its first session from seed (123, 1, 0)
            t_sock = Transcript(session_seed=(123, 1, 0))
            l_sock = conn.infer(x, plan, t_sock)
        finally:
            conn.close()
    finally:
        server.stop()
    assert l_mem == l_sock
    assert replay_transcript(model, t_sock) == l_sock
    print(
        f"PASS criterion 6: 100/100 protocol labels exact, share reconstruction "
        f"{worst_recon:.1e}, loopback == in-memory"
    )


def test_criterion_7_safe_error_cancellation():
    model = random_model("conv3x3x3-r-fc8-r-fc3", (2, 5, 5), seed=17)
    oracle = OracleHandle.in_process(model)
    cfg = BoundarySearchConfig(sphere_norm=10.0)
    rng = np.random.default_rng(3)
    topo = [s.id for s in model.topo_order]
    relu_id = 2
    cut = topo.index(relu_id)
    worst = 0.0
    checked = 0
    while checked < 50:
        x = rng.standard_normal((2, 5, 5))
        cp = search_critical(oracle, QueryInput(x), cfg, rng)
        base = forward_trace(model, cp.v)
        idx = tuple(rng.integers(0, d) for d in model.pre_shape(relu_id))
        y = base.y[relu_id][idx]
        if abs(y) < 1e-6:
            continue
        eta = float(rng.uniform(0.05, 0.95)) * abs(y)
        mask = np.zeros(model.pre_shape(relu_id))
        mask[idx] = 1.0
        if y > 0:
            shift = ShiftSet({(relu_id, PRE): -eta * mask, (relu_id, POST): eta * mask})
        else:
            shift = ShiftSet({(relu_id, PRE): eta * mask})
        shifted = forward_trace(model, cp.v.shifted(shift))
        for lid in topo[cut + 1:]:
            if lid == model.argmax_id:
                continue
            worst = max(worst, float(np.abs(shifted.values[lid] - base.values[lid]).max()))
        worst = max(worst, float(np.abs(shifted.logits - base.logits).max()))
        checked += 1
    assert worst <= 1e-12
    print(f"PASS criterion 7: 50 sub-boundary shifts cancelled, worst downstream drift {worst:.1e}")


def test_criterion_8_layer_order_independence():
    arch, shape = "conv3x3x3-r-fc8-r-fc3", (2, 5, 5)
    truth = random_model(arch, shape, seed=17)
    orders = [[1, 3, 5], [5, 1, 3]]
    extracted = []
    for order in orders:
        cfg = ExperimentConfig(arch=arch, input_shape=shape, attack_seed=6, layers=order)
        _, model = run_attack(cfg, truth=truth)
        extracted.append(model)
    for lid in (1, 3, 5):
        a, b = extracted[0].layer(lid), extracted[1].layer(lid)
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)
    print("PASS criterion 8: layer extraction order does not change any estimate (exact)")


def test_criterion_9_banded_probe_soundness(zero3_model):
    oracle = OracleHandle.in_process(zero3_model)
    eps = TIE_PROBE
    rng = np.random.default_rng(99)
    violations = 0
    for trial in range(1000):
        perm = rng.permutation(3)
        c1, c2, other = (int(v) for v in perm)
        top = rng.uniform(-1.0, 1.0)
        if trial % 2 == 0:
            gap = rng.uniform(0.0, 0.499) * eps
            margin = 2.0 * eps * (1.0 + rng.uniform(0.05, 4.0))
            want = True
        else:
            gap = rng.uniform(2.001 * eps, 1.0)
            margin = rng.uniform(-1.0, 4.0)  # margin is irrelevant for the false band
            want = False
        logits = np.empty(3)
        logits[c1] = top
        logits[c2] = top - gap
        logits[other] = min(top, top - gap) - margin
        q = QueryInput(np.zeros(2), ShiftSet({(zero3_model.argmax_id, PRE): logits}))
        if oracle.is_critical(q, c1, c2) != want:
            violations += 1
    assert violations == 0
    print(f"PASS criterion 9: banded tie-test soundness, 0/1000 violations")
