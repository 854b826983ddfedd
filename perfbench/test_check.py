"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np

from check import LayerParams, check_accounting, check_extraction

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # tracing.py imports the program


def _model(rng):
    conv = LayerParams(1, rng.uniform(-0.3, 0.3, 4), rng.uniform(-0.3, 0.3, (4, 2, 3, 3)))
    fc = LayerParams(3, rng.uniform(-0.1, 0.1, 8), rng.uniform(-0.1, 0.1, (8, 16)))
    last = LayerParams(5, rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, (3, 8)))
    return [conv, fc, last]


def _copy(layers, noise=1e-12, rng=None):
    rng = rng or np.random.default_rng(1)
    return {p.layer_id: LayerParams(p.layer_id, p.bias * (1 + noise * rng.standard_normal(p.bias.shape)),
                                    p.weight * (1 + noise * rng.standard_normal(p.weight.shape)))
            for p in layers}


N_PARAMS = 4 + 72 + 8 + 128 + 2 * (1 + 8)


def test_exact_extraction_passes():
    truth = _model(np.random.default_rng(0))
    res = check_extraction(truth, _copy(truth), terminal_id=5)
    assert (res.attempted, res.failed, res.correct) == (N_PARAMS, 0, True)


def test_zeroed_weight_is_a_failure():
    truth = _model(np.random.default_rng(0))
    est = _copy(truth)
    est[3].weight[5, 7] = 0.0
    res = check_extraction(truth, est, terminal_id=5)
    assert res.failed == 1
    assert res.failures[0][:2] == (3, ("weight", 5, 7))
    assert res.correct  # one wrong weight is counted, not hidden in a mean


def test_terminal_layer_gauge_is_free_but_differences_are_checked():
    truth = _model(np.random.default_rng(0))
    est = _copy(truth)
    # the gauge: one constant on every bias, one per weight column
    est[5] = LayerParams(5, est[5].bias + 0.7, est[5].weight + np.linspace(-1, 1, 8))
    assert check_extraction(truth, est, terminal_id=5).failed == 0
    # a shifted difference against class 0 is not a gauge move
    est[5].weight[2, 4] += 1e-3
    res = check_extraction(truth, est, terminal_id=5)
    assert [f[:2] for f in res.failures] == [(5, ("diff", 1, 5))]


def test_nan_and_unresolved_layers_fail_every_parameter():
    truth = _model(np.random.default_rng(0))
    est = _copy(truth)
    est[1].bias[0] = np.nan
    assert check_extraction(truth, est, terminal_id=5).failed == 1
    res = check_extraction(truth, est, terminal_id=5, unresolved_layers=frozenset({3}))
    assert res.unresolved == 136 and res.failed == 1 + 136
    del est[3]
    assert check_extraction(truth, est, terminal_id=5).failed == 1 + 136


def test_median_gate_per_layer():
    truth = _model(np.random.default_rng(0))
    est = _copy(truth)
    est.update({i: p for i, p in _copy(truth, noise=1e-5).items() if i != 5})
    res = check_extraction(truth, est, terminal_id=5)
    assert res.failed == 0
    assert not res.correct and len(res.problems) == 2  # both non-terminal layers


def test_accounting_mismatch_is_caught():
    assert check_accounting(100, 100, [60, 40], 50, 50) == []
    assert len(check_accounting(101, 100, [60, 40], 50, 50)) == 1
    assert len(check_accounting(100, 100, [60, 41], 50, 50)) == 1
    assert len(check_accounting(100, 100, [60, 40], 51, 50)) == 1


def test_self_time_subtracts_children():
    from tracing import self_times

    spans = [
        {"start": 0.0, "end": 10.0, "parent": None, "q0": 0, "q1": 100},
        {"start": 1.0, "end": 4.0, "parent": 0, "q0": 10, "q1": 40},
        {"start": 2.0, "end": 3.0, "parent": 1, "q0": 20, "q1": 25},
        {"start": 5.0, "end": 6.0, "parent": 0, "q0": 50, "q1": 60},
    ]
    assert self_times(spans) == [(6.0, 60), (2.0, 25), (1.0, 5), (1.0, 10)]


def test_tracer_counts_match_the_report_and_uninstall_restores():
    import shiftextract as sx
    import shiftextract.harness as harness
    import shiftextract.model as model
    from tracing import Tracer, attack_metrics

    originals = (harness.forward_label, model.QueryInput.shifted, harness.extract_fc_layer)
    truth = sx.random_model("conv1x3x3-r-fc2-r-fc2", (1, 3, 3), seed=0)
    cfg = sx.ExperimentConfig(arch="conv1x3x3-r-fc2-r-fc2", input_shape=(1, 3, 3), attack_seed=0)
    tracer = Tracer()
    tracer.install()
    try:
        report, _ = harness.run_attack(cfg, truth=truth)
    finally:
        tracer.uninstall()
    assert (harness.forward_label, model.QueryInput.shifted, harness.extract_fc_layer) == originals
    m = attack_metrics(tracer.dump())
    assert m["oracle.queries"] == report.total_queries
    assert m["model.forward_calls"] == report.total_queries + 32  # calibration samples 32 logits
    by_layer = {l.layer_id: l.queries for l in report.layers}
    assert m["extract.layer.1.queries"] == by_layer[1]
    assert m["extract.last_layer.queries"] == by_layer[5]
