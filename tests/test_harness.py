import json
import re
from dataclasses import replace

import numpy as np
import pytest

import shiftextract as sx
from shiftextract import ExperimentConfig, run_attack, verify_models
from shiftextract.cli import main
from shiftextract.extract import ETA_MAX, _phase_base
from shiftextract.harness import REFERENCE_CALLS_PER_PARAM, _layer_rng

ARCH = "fc8-r-fc4"
SHAPE = (6,)


@pytest.fixture(scope="module")
def attack_run():
    truth = sx.random_model(ARCH, SHAPE, seed=4)
    cfg = ExperimentConfig(arch=ARCH, input_shape=SHAPE, model_seed=4, attack_seed=3)
    report, extracted = run_attack(cfg, truth=truth)
    return truth, cfg, report, extracted


def test_report_contents(attack_run):
    truth, cfg, report, extracted = attack_run
    assert report.total_queries == sum(l.queries for l in report.layers)
    for l in report.layers:  # the per-parameter means come from the layer's two query counts
        assert round(l.calls_per_bias * l.n_bias) + round(l.calls_per_weight * l.n_weight) == l.queries
    assert report.baseline_calls_per_param == REFERENCE_CALLS_PER_PARAM
    assert report.wall_time_s is not None
    doc = report.to_json_dict()
    assert "wall_time" not in json.dumps(doc)  # reruns stay byte-identical
    assert doc["totals"]["queries"] == report.total_queries
    assert {l.layer_id for l in report.layers} == {1, 3}


def test_report_reproducible(attack_run):
    truth, cfg, report, _ = attack_run
    report2, _ = run_attack(cfg, truth=truth)
    assert report.to_json() == report2.to_json()
    assert report.to_csv() == report2.to_csv()


def test_layer_subset_accounting(attack_run):
    truth, cfg, _, _ = attack_run
    sub = ExperimentConfig(arch=ARCH, input_shape=SHAPE, attack_seed=3, layers=[1])
    report, _ = run_attack(sub, truth=truth)
    assert [l.layer_id for l in report.layers] == [1]
    assert report.total_queries == report.layers[0].queries


def test_layer_order_independence(attack_run):
    truth, cfg, _, _ = attack_run
    a = ExperimentConfig(arch=ARCH, input_shape=SHAPE, attack_seed=3, layers=[1, 3])
    b = ExperimentConfig(arch=ARCH, input_shape=SHAPE, attack_seed=3, layers=[3, 1])
    _, ea = run_attack(a, truth=truth)
    _, eb = run_attack(b, truth=truth)
    for lid in (1, 3):
        assert np.array_equal(ea.layer(lid).weight, eb.layer(lid).weight)
        assert np.array_equal(ea.layer(lid).bias, eb.layer(lid).bias)


def test_verify_truth_vs_itself(attack_run):
    truth, *_ = attack_run
    res = verify_models(truth, truth)
    assert res["pass"]
    assert all(r["e_bias"] == 0.0 and r["e_weight"] == 0.0 for r in res["layers"])


def test_verify_perturbation_metric(attack_run):
    truth, *_ = attack_run
    bumped = truth.with_params(
        {1: (truth.layer(1).weight + 1e-3, truth.layer(1).bias + 1e-3)}
    )
    res = verify_models(bumped, truth)
    row = next(r for r in res["layers"] if r["layer"] == 1)
    # params are O(1) at most, so relative error is at least the absolute bump
    assert row["e_bias"] >= 1e-3 and row["e_weight"] >= 1e-3


def test_verify_fails_on_one_wrong_weight():
    """One zeroed weight among 16,384 barely moves the mean error; the max
    error catches it."""
    truth = sx.random_model("conv8x3x3-r-fc32-r-fc4", (3, 8, 8), seed=7)
    w = truth.layer(3).weight.copy()
    w[5, 100] = 0.0
    res = verify_models(truth.with_params({3: (w, truth.layer(3).bias)}), truth)
    row = next(r for r in res["layers"] if r["layer"] == 3)
    assert row["e_weight"] < 1e-4 and row["max_weight_error"] == pytest.approx(1.0)
    assert not row["pass"] and not res["pass"]


@pytest.mark.parametrize("arch, shape, other_arch, other_shape", [
    ("conv2x3x3-mpr3s1-fc3", (1, 4, 4), "conv2x3x3-mpr2-fc3", (1, 4, 4)),  # same weight shapes, other pool
    ("conv2x3x3-r-fc4", (2, 6, 6), "conv2x3x3-r-fc4", (2, 4, 9)),  # same weight shapes, other input
], ids=["pool", "input-shape"])
def test_verify_refuses_another_architecture(arch, shape, other_arch, other_shape):
    """Models whose layers agree in ids, kinds, inputs and weight shapes
    but differ in a pool's kernel and stride, or in the input shape, are
    different architectures, and so is a model with another output id."""
    truth = sx.random_model(arch, shape, seed=1)
    other = sx.random_model(other_arch, other_shape, seed=1)
    with pytest.raises(ValueError, match="different architectures"):
        verify_models(other, truth)
    with pytest.raises(ValueError, match="different architectures"):
        verify_models(truth, other)
    assert verify_models(truth, truth)["pass"]
    renamed = [replace(s, id=9) if s.id == truth.argmax_id else s for s in truth.layers]
    with pytest.raises(ValueError, match="different architectures"):
        verify_models(sx.ModelGraph(renamed, 9), truth)


@pytest.mark.parametrize("error, passes", [(0.9e-4, True), (1.1e-4, False)])
def test_verify_gate_is_fixed(error, passes):
    """The gate is the constant MAX_ERROR (1e-4) on every layer's max
    error: one weight off by 0.9e-4 passes, one off by 1.1e-4 fails."""
    assert sx.harness.MAX_ERROR == 1e-4
    truth = sx.random_model(ARCH, SHAPE, seed=4)
    w = truth.layer(1).weight.copy()
    w[2, 3] *= 1 + error
    res = verify_models(truth.with_params({1: (w, truth.layer(1).bias)}), truth)
    row = next(r for r in res["layers"] if r["layer"] == 1)
    assert row["max_weight_error"] == pytest.approx(error)
    assert row["pass"] is passes and res["pass"] is passes


@pytest.mark.parametrize("command, flag", [("serve", "--mask-bound"), ("verify", "--max-bias-error"),
                                           ("verify", "--max-weight-error")])
def test_cli_dropped_flags_refused(monkeypatch, capsys, command, flag):
    """The mask bound and the verify gate are constants: their old flags
    stop argparse with exit code 2 and the flag's name, before a model is
    loaded or served."""
    import shiftextract.cli as cli

    monkeypatch.setattr(cli, "load_model", lambda *a: pytest.fail("a model was loaded"))
    monkeypatch.setattr(cli, "InferenceServer", lambda *a, **k: pytest.fail("a server was started"))
    files = {"serve": ["--model", "truth.json"], "verify": ["--extracted", "ext.json", "--truth", "truth.json"]}[command]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *files, flag, "5"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


def test_cli_serve_reports_its_sessions_when_stopped(tmp_path, monkeypatch, capsys):
    """``shiftextract serve`` prints the sessions it served, its session
    errors and the mean and max session microseconds when it stops."""
    from types import SimpleNamespace

    import shiftextract.cli as cli
    from shiftextract.protocol import InferenceServer, connect

    path = tmp_path / "truth.json"
    sx.save_model(sx.random_model("fc4-r-fc3", (3,), seed=1), path)
    servers = []

    class Recorded(InferenceServer):
        def start(self, *args, **kwargs):
            servers.append(self)
            return super().start(*args, **kwargs)

    def sleep(_):  # two queries while the server runs, then the interrupt
        conn = connect("%s:%d" % servers[0].address)
        try:
            conn.infer(np.zeros(3))
            conn.infer(np.ones(3))
        finally:
            conn.close()
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "InferenceServer", Recorded)
    monkeypatch.setattr(cli, "time", SimpleNamespace(sleep=sleep))
    assert main(["serve", "--model", str(path)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    m = re.fullmatch(r"served 2 sessions, 0 session errors; session us mean ([0-9.]+), max ([0-9.]+)", last)
    assert m is not None, last
    assert 0 < float(m[1]) <= float(m[2])


def test_attack_identical_without_incremental_evaluation(monkeypatch):
    """The incremental in-process oracle changes wall time only: a memo-free
    backend gives byte-identical reports and parameters."""
    arch, shape = "conv2x3x3-mpr2-res{conv2x3x3-r,}-fc4-r-fc3", (1, 6, 6)
    truth = sx.random_model(arch, shape, seed=2)
    cfg = ExperimentConfig(arch=arch, input_shape=shape, model_seed=2, attack_seed=3)
    report, extracted = run_attack(cfg, truth=truth)
    monkeypatch.setattr(sx.harness, "forward_label", lambda m, q: sx.forward_trace(m, q).label)
    report_free, extracted_free = run_attack(cfg, truth=truth)
    assert report.to_json() == report_free.to_json()
    for spec in extracted.topo_order:
        if spec.weight is not None:
            other = extracted_free.layer(spec.id)
            assert spec.weight.tobytes() == other.weight.tobytes()
            assert spec.bias.tobytes() == other.bias.tobytes()


def test_verify_gauge_aware(attack_run):
    truth, cfg, report, extracted = attack_run
    res = verify_models(extracted, truth)
    last = next(r for r in res["layers"] if r["gauge_fixed"])
    assert last["pass"]
    # the raw last-layer values differ from truth although differences match
    assert not np.allclose(extracted.layer(3).bias, truth.layer(3).bias)


def test_config_roundtrip():
    cfg = ExperimentConfig(
        arch=ARCH, input_shape=SHAPE, attack_seed=9, layers=[1],
        search=sx.BoundarySearchConfig(sphere_norm=3.0, eta_tol=1e-10),
    )
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


# ---------------------------------------------------------------------------
# CLI


def test_cli_end_to_end(tmp_path):
    model_path = tmp_path / "truth.json"
    out_model = tmp_path / "extracted.json"
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "layers.csv"

    assert main(["gen-model", "--arch", ARCH, "--input-shape", "6", "--seed", "4",
                 "--out", str(model_path)]) == 0
    assert main([
        "attack", "--model", str(model_path), "--attack-seed", "3",
        "--report", str(report_path), "--csv", str(csv_path), "--extracted", str(out_model),
    ]) == 0
    assert report_path.exists() and csv_path.exists() and out_model.exists()
    doc = json.loads(report_path.read_text())
    assert doc["totals"]["baseline_calls_per_param"] == REFERENCE_CALLS_PER_PARAM
    meta = sx.model_from_dict(json.loads(out_model.read_text()))  # loads cleanly
    assert json.loads(out_model.read_text())["meta"]["gauge_fixed_layers"]

    assert main(["verify", "--extracted", str(out_model), "--truth", str(model_path)]) == 0

    # threshold failure exits 1
    bad = sx.load_model(model_path).with_params(
        {1: (sx.load_model(model_path).layer(1).weight + 0.5,
             sx.load_model(model_path).layer(1).bias)}
    )
    bad_path = tmp_path / "bad.json"
    sx.save_model(bad, bad_path)
    assert main(["verify", "--extracted", str(bad_path), "--truth", str(model_path)]) == 1

    # operational failure exits 2
    assert main(["verify", "--extracted", str(tmp_path / "nope.json"),
                 "--truth", str(model_path)]) == 2


@pytest.mark.parametrize("command", ["verify", "attack"])
@pytest.mark.parametrize("layer, key", [(1, "params.weight"), (3, "kind")])
def test_cli_names_a_layer_key_missing_from_a_model_file(tmp_path, capsys, command, layer, key):
    """A model file whose layer lacks a key fails with StructuralError naming
    the layer and the key (exit code 2), not a bare KeyError."""
    good = tmp_path / "truth.json"
    sx.save_model(sx.random_model(ARCH, SHAPE, seed=4), good)
    doc = json.loads(good.read_text())
    entry = next(e for e in doc["layers"] if e["id"] == layer)
    *path, last = key.split(".")
    del (entry[path[0]] if path else entry)[last]
    named = f"layer {layer} lacks {key!r}"
    with pytest.raises(sx.StructuralError, match=re.escape(named)):
        sx.model_from_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    files = {"verify": ["--extracted", str(bad), "--truth", str(good)], "attack": ["--model", str(bad)]}[command]
    assert main([command, *files]) == 2
    assert capsys.readouterr().err.strip() == f"error: {named}"


@pytest.mark.parametrize("key", ["output", "layers"])
def test_cli_names_a_top_level_key_missing_from_a_model_file(tmp_path, capsys, key):
    """A model file without ``output`` or ``layers`` fails with
    StructuralError naming the key (exit code 2), not a bare KeyError."""
    good = tmp_path / "truth.json"
    sx.save_model(sx.random_model(ARCH, SHAPE, seed=4), good)
    doc = json.loads(good.read_text())
    del doc[key]
    named = f"model lacks {key!r}"
    with pytest.raises(sx.StructuralError, match=re.escape(named)):
        sx.model_from_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--extracted", str(bad), "--truth", str(good)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {named}"


def test_cli_attack_names_a_failed_layer_on_stderr(tmp_path, capsys):
    """A layer that fails writes a row of zeros to the CSV, so the attack
    names it once with its error on stderr, one line per failed layer, and
    still exits 0: here the conv whose 2x2 map is smaller than its 3x3
    kernel, while the layers above it extract."""
    model_path = tmp_path / "small.json"
    main(["gen-model", "--arch", "conv2x3x3-r-fc4-r-fc3", "--input-shape", "1x2x2", "--seed", "1",
          "--out", str(model_path)])
    capsys.readouterr()
    assert main(["attack", "--model", str(model_path)]) == 0
    assert capsys.readouterr().err == "layer 1: its 2x2 map is smaller than its 3x3 kernel\n"


def test_cli_gen_model_determinism(tmp_path):
    p1, p2, p3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    main(["gen-model", "--arch", ARCH, "--input-shape", "6", "--seed", "1", "--out", str(p1)])
    main(["gen-model", "--arch", ARCH, "--input-shape", "6", "--seed", "1", "--out", str(p2)])
    main(["gen-model", "--arch", ARCH, "--input-shape", "6", "--seed", "2", "--out", str(p3)])
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes() != p3.read_bytes()
    m = sx.load_model(p3)
    tr = sx.forward_trace(m, sx.QueryInput(np.zeros(6)))
    assert np.all(np.isfinite(tr.logits))


def test_cli_config_file_with_overrides(tmp_path):
    model_path = tmp_path / "truth.json"
    main(["gen-model", "--arch", ARCH, "--input-shape", "6", "--seed", "4", "--out", str(model_path)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(ExperimentConfig(arch=ARCH, input_shape=SHAPE, attack_seed=1,
                                                    layers=[1]).to_dict()))
    report_path = tmp_path / "report.json"
    search = {"sphere_norm": 12.5, "eta_tol": 2e-12}
    flags = [s for k, v in search.items() for s in ("--" + k.replace("_", "-"), str(v))]
    assert main(["attack", "--config", str(cfg_path), "--model", str(model_path),
                 "--attack-seed", "3", "--report", str(report_path), *flags]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["config"]["attack_seed"] == 3  # flag overrode the file
    assert doc["config"]["layers"] == [1]
    assert doc["config"]["search"] == search  # every search flag reached the config
    # the echoed config block reproduces the report byte for byte
    cfg_path.write_text(json.dumps(doc["config"]))
    rerun_path = tmp_path / "rerun.json"
    assert main(["attack", "--config", str(cfg_path), "--model", str(model_path),
                 "--report", str(rerun_path)]) == 0
    assert rerun_path.read_bytes() == report_path.read_bytes()


def test_config_unknown_key_named(tmp_path, capsys):
    """A config block saved by a version with other fields fails with the
    unknown key's name, at the top level and inside ``search``."""
    with pytest.raises(ValueError, match=r"unknown config key\(s\): parallel$"):
        ExperimentConfig.from_dict({"parallel": False})
    dropped_keys = (("fc_delta", None), ("probe_eps", 1e-8), ("eta_max", 1e4), ("suppression", 1e6), ("max_retries", 5))
    for dropped, value in dropped_keys:
        doc = ExperimentConfig(arch=ARCH, input_shape=SHAPE).to_dict()
        doc["search"][dropped] = value
        with pytest.raises(ValueError, match=rf"unknown config key\(s\): search\.{dropped}$"):
            ExperimentConfig.from_dict(doc)

    model_path = tmp_path / "truth.json"
    main(["gen-model", "--arch", ARCH, "--input-shape", "6", "--seed", "4", "--out", str(model_path)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(ExperimentConfig(arch=ARCH, input_shape=SHAPE).to_dict(), repeats=2)))
    capsys.readouterr()
    assert main(["attack", "--config", str(cfg_path), "--model", str(model_path)]) == 2
    assert capsys.readouterr().err == "error: unknown config key(s): repeats\n"


def test_config_search_values_checked():
    """A ``search`` block that is not a mapping of numbers fails in
    ``from_dict`` with the key's name, not deep inside the attack."""
    with pytest.raises(ValueError, match=r"config key search must be a mapping, got None$"):
        ExperimentConfig.from_dict({"search": None})
    with pytest.raises(ValueError, match=r"config key search\.eta_tol must be a number, got '1e-12'$"):
        ExperimentConfig.from_dict({"search": {"eta_tol": "1e-12"}})
    with pytest.raises(ValueError, match=r"config key search\.sphere_norm must be a number, got True$"):
        ExperimentConfig.from_dict({"search": {"sphere_norm": True}})
    cfg = ExperimentConfig.from_dict({"search": {"sphere_norm": None, "eta_tol": 1e-11}})
    assert cfg.search == sx.BoundarySearchConfig(eta_tol=1e-11)


@pytest.mark.parametrize("name, value", [
    ("eta_tol", float("nan")), ("eta_tol", 0.0), ("eta_tol", 1.0),
    ("sphere_norm", -5.0), ("sphere_norm", float("nan")),
])
def test_search_values_range_checked(name, value, capsys):
    """A search value out of range fails on construction, whether it comes
    from code, a config file or a flag, not as a hang or wrong weights.
    A relative ``eta_tol`` of 1 or more would skip bisection."""
    with pytest.raises(ValueError, match=rf"^{name} must be (finite and > 0|< 1), got {re.escape(repr(value))}$"):
        sx.BoundarySearchConfig(**{name: value})
    with pytest.raises(ValueError, match=rf"^config key search\.{name} must be"):
        ExperimentConfig.from_dict({"search": {name: value}})
    capsys.readouterr()
    assert main(["attack", "--" + name.replace("_", "-"), str(value)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be")


@pytest.mark.parametrize("key, value", [
    ("layers", 5), ("layers", [1, "3"]), ("input_shape", [6.0]), ("attack_seed", "3"),
    ("attack_seed", True), ("attack_seed", None), ("model_seed", 1.5), ("backend", "remote"),
    ("arch", 7), ("endpoint", 9123),
])
def test_config_top_level_values_checked(key, value):
    """A top-level value of the wrong kind fails in ``from_dict`` with the
    key's name, not as a bare TypeError or an echo of the wrong value."""
    with pytest.raises(ValueError, match=rf"^config key {key} must be .*, got {re.escape(repr(value))}$"):
        ExperimentConfig.from_dict({key: value})
    ExperimentConfig.from_dict(ExperimentConfig(arch=ARCH, input_shape=SHAPE, model_seed=4, layers=[1]).to_dict())


def test_endpoint_backend_equivalence():
    """Attacking through the served protocol gives the in-process estimates
    up to mask-rounding noise."""
    from shiftextract.protocol import serve

    arch, shape = "fc4-r-fc3", (3,)
    truth = sx.random_model(arch, shape, seed=8)
    base = ExperimentConfig(arch=arch, input_shape=shape, attack_seed=2)
    _, local = run_attack(base, truth=truth)
    server = serve(truth, seed=1)
    host, port = server.address
    try:
        remote_cfg = ExperimentConfig(
            arch=arch, input_shape=shape, attack_seed=2,
            backend="endpoint", endpoint=f"{host}:{port}",
        )
        _, remote = run_attack(remote_cfg, truth=truth)
    finally:
        server.stop()
    for lid in (1, 3):
        assert np.abs(local.layer(lid).weight - remote.layer(lid).weight).max() <= 1e-6
        assert np.abs(local.layer(lid).bias - remote.layer(lid).bias).max() <= 1e-6


@pytest.mark.parametrize("layers, named", [
    ([1, 2], r"2 \(ReLU\)$"), ([1, 9], r"9 \(no such layer\)$"), ([1, 1], r"1 \(listed 2 times\)$"),
], ids=["relu", "unknown", "duplicate"])
def test_target_layers_checked_before_any_query(monkeypatch, layers, named):
    """An id that is unknown, names a layer without parameters, or repeats
    fails the whole run with one ValueError before the first query, instead
    of losing the layers extracted before it or double-counting one."""
    import shiftextract.harness as harness

    calls = []
    monkeypatch.setattr(harness, "forward_label", lambda *a: calls.append(1))
    truth = sx.random_model("fc4-r-fc3", (3,), seed=1)
    cfg = ExperimentConfig(arch="fc4-r-fc3", input_shape=(3,), layers=layers)
    with pytest.raises(ValueError, match=r"^layers must be distinct Convolution or FullyConnected ids: " + named):
        run_attack(cfg, truth=truth)
    assert calls == []


def test_partial_failure_preserved():
    """A layer whose boundary search cannot succeed is reported, with its
    consumed queries, without aborting the run."""
    truth = sx.random_model(ARCH, SHAPE, seed=4)
    # Layer 1's phases silence its ReLU, so their logits are the terminal
    # bias.  It puts classes 1 and 2, the pair layer 1 draws first, beyond
    # ETA_MAX of each other, and every class within reach of class 0, the
    # reference of the terminal layer's pair searches.
    truth = truth.with_params({3: (truth.layer(3).weight, np.array([0.0, 6e3, -6e3, 1.0]))})
    cfg = ExperimentConfig(arch=ARCH, input_shape=SHAPE, attack_seed=3)
    assert set(_layer_rng(cfg.attack_seed, 1).choice(4, size=2, replace=False)) == {1, 2}
    logits = sx.forward_trace(truth, sx.QueryInput(np.zeros(SHAPE)).shifted(_phase_base(truth, 2))).logits
    assert abs(logits[1] - logits[2]) > ETA_MAX and np.abs(logits - logits[0]).max() < ETA_MAX
    report, extracted = run_attack(cfg, truth=truth)
    by_id = {l.layer_id: l for l in report.layers}
    assert "no boundary reachable" in by_id[1].error
    # the terminal layer's pair searches start from its own base and still run
    assert by_id[3].error is None and by_id[3].e_bias < 1e-6
    assert report.total_queries == sum(l.queries for l in report.layers)
    # the failed layer stays at the skeleton's zero parameters
    assert np.all(extracted.layer(1).weight == 0.0)


def test_query_budget_conv_relu_fc():
    """N-ary reads of the conv and FC weights, four classes tested per
    query, with the FC layer's calibration ties also giving the terminal
    layer, keep a conv-ReLU-FC model (the relu-inproc benchmark model)
    under 18.5 calls per parameter (15.29); at eta_tol 1e-8, before each
    weight was read relative to its bias reading, it read 18.00, 40.4 with
    binary scans alone, 19.70 with the terminal layer tying its own
    classes, and 18.44 with the conv layer scanning binary.  Its exact
    total is pinned, so that a change meant to keep every query stream
    shows it here."""
    arch, shape = "conv2x3x3-r-fc12-r-fc4", (2, 6, 6)
    truth = sx.random_model(arch, shape, seed=3)
    cfg = ExperimentConfig(arch=arch, input_shape=shape, model_seed=3, attack_seed=1)
    report, extracted = run_attack(cfg, truth=truth)
    assert report.calls_per_param <= 18.5
    assert report.total_queries == 14569
    assert verify_models(extracted, truth)["pass"]


def test_query_budget_maxpool_residual():
    """The maxpool+residual benchmark model (pool-res-inproc) reads its
    first conv (into a maxpool), its residual-branch conv (the identity
    skip cancelled) and its Add-fed FC layer n-ary, takes the terminal
    layer from the FC layer's ties, and stays under 19.5 calls per
    parameter (16.75); at eta_tol 1e-8 it read 19.32, 41.4 with binary
    scans alone, 24.79 with the terminal layer tying its own classes,
    23.71 with every conv scanning binary, and 22.73 with the
    residual-branch conv alone scanning binary.  Its exact total is
    pinned."""
    arch, shape = "conv4x3x3-mpr2-res{conv4x3x3-r,}-fc8-r-fc4", (2, 8, 8)
    truth = sx.random_model(arch, shape, seed=9)
    cfg = ExperimentConfig(arch=arch, input_shape=shape, model_seed=9, attack_seed=5)
    report, extracted = run_attack(cfg, truth=truth)
    assert report.calls_per_param <= 19.5
    assert report.total_queries == 12915
    assert verify_models(extracted, truth)["pass"]


def test_query_budget_maxpool():
    """A maxpool layer reads every target of a phase at the phase's one
    critical point, its weights n-ary at the map centre, and the terminal
    layer comes from the ties of the FC layer below it, so a maxpool CNN
    (the pool-endpoint benchmark model, in process) stays under 31.5 calls
    per parameter (28.05; at eta_tol 1e-8 31.00, 32.58 with the conv
    scanning binary, 37.33 with the terminal layer also tying its own
    classes).  Its exact total is pinned."""
    arch, shape = "conv2x3x3-mpr2-fc3-r-fc3", (1, 4, 4)
    truth = sx.random_model(arch, shape, seed=1)
    cfg = ExperimentConfig(arch=arch, input_shape=shape, model_seed=1, attack_seed=1)
    report, extracted = run_attack(cfg, truth=truth)
    assert report.calls_per_param <= 31.5
    assert report.total_queries == 1543
    assert verify_models(extracted, truth)["pass"]


def test_transport_fault_fails_only_its_layer(attack_run, monkeypatch):
    """A dropped connection mid-layer fails that layer, with the queries it
    spent, and the run goes on to extract the later layers.  Layer 1 fails
    before its calibration ties, which in the clean run measure the
    terminal layer, so the terminal layer reads exactly as it reads alone."""
    truth, cfg, clean, _ = attack_run
    alone_report, alone = run_attack(replace(cfg, layers=[3]), truth=truth)
    fault_at = 100  # inside layer 1, the first target
    calls = 0
    real = sx.harness.forward_label

    def flaky(m, q):
        nonlocal calls
        calls += 1
        if calls == fault_at:
            raise sx.TransportError("recv failed: connection reset")
        return real(m, q)

    monkeypatch.setattr(sx.harness, "forward_label", flaky)
    report, extracted = run_attack(cfg, truth=truth)
    by_id = {l.layer_id: l for l in report.layers}
    assert by_id[1].error == "recv failed: connection reset"
    assert by_id[1].queries == fault_at
    assert by_id[3].error is None
    assert next(l.queries for l in clean.layers if l.layer_id == 3) == 0  # served by layer 1's ties
    assert by_id[3].queries == alone_report.total_queries
    assert np.array_equal(extracted.layer(3).weight, alone.layer(3).weight)
    assert np.array_equal(extracted.layer(3).bias, alone.layer(3).bias)
    assert report.total_queries == sum(l.queries for l in report.layers) == calls


def test_cli_attack_endpoint(tmp_path):
    from shiftextract.cli import main as cli_main
    from shiftextract.protocol import serve

    truth = sx.random_model("fc4-r-fc3", (3,), seed=8)
    truth_path = tmp_path / "truth.json"
    sx.save_model(truth, truth_path)
    report_path = tmp_path / "report.json"
    server = serve(truth, seed=1)
    host, port = server.address
    try:
        rc = cli_main([
            "attack", "--endpoint", f"{host}:{port}", "--arch", "fc4-r-fc3",
            "--input-shape", "3", "--truth", str(truth_path),
            "--attack-seed", "2", "--report", str(report_path),
        ])
    finally:
        server.stop()
    assert rc == 0
    doc = json.loads(report_path.read_text())
    assert all(l["e_weight"] < 1e-6 for l in doc["layers"])
