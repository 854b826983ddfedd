"""Experiment driver: run attacks, score them against ground truth, report.

Reports mirror the usual per-layer accounting: mean oracle calls per
recovered bias/weight parameter and mean relative errors against ground
truth (gauge-aware for the terminal layer).  Report JSON is deterministic
for fixed config and seeds; wall time is kept on the in-memory report and
printed, but left out of the serialized form so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .extract import (
    BoundarySearchConfig,
    ExtractionError,
    LayerExtractionResult,
    TerminalTies,
    attack_order,
    default_target_layers,
    extract_conv_layer,
    extract_fc_layer,
    extract_last_layer,
)
from .model import (
    KIND_CONV,
    KIND_FC,
    LayerSpec,
    ModelGraph,
    QueryInput,
    build_model,
    forward_label,
    forward_trace,
)
from .oracle import OracleHandle
from .protocol import RemoteOracle, TransportError

# Average oracle calls per parameter reported for a full-scale run of this
# attack family; printed next to measured numbers for context.
REFERENCE_CALLS_PER_PARAM = 45.8

# relative errors divide by max(|truth|, ERROR_FLOOR), so a true value at or near 0 has a bounded error
ERROR_FLOOR = 1e-9
# a layer verifies when its mean and max relative bias and weight errors are all at most MAX_ERROR
MAX_ERROR = 1e-4


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce an attack run."""

    arch: str | None = None
    input_shape: tuple[int, ...] | None = None
    model_seed: int | None = None
    attack_seed: int = 0
    backend: str = "in-process"  # or "endpoint"
    endpoint: str | None = None
    layers: list[int] | None = None
    search: BoundarySearchConfig = field(default_factory=BoundarySearchConfig)

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.input_shape is not None:
            d["input_shape"] = list(self.input_shape)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of ``to_dict``.  A key this version does not know, at the
        top level or inside ``search``, raises a ValueError naming it, and
        so does a value of the wrong kind or out of its range."""
        _check_keys(cls, d, "")
        for key, (kind, ok) in _TOP_LEVEL_KINDS.items():
            if key in d and not ok(d[key]):
                raise ValueError(f"config key {key} must be {kind}, got {d[key]!r}")
        d = dict(d)
        if "search" in d:
            d["search"] = _search_config(d["search"])
        if d.get("input_shape") is not None:
            d["input_shape"] = tuple(d["input_shape"])
        return cls(**d)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_list_or_none(v) -> bool:
    return v is None or (isinstance(v, (list, tuple)) and all(_is_int(x) for x in v))


_TOP_LEVEL_KINDS = {
    "arch": ("a string or None", lambda v: v is None or isinstance(v, str)),
    "input_shape": ("a list of integers or None", _int_list_or_none),
    "model_seed": ("an integer or None", lambda v: v is None or _is_int(v)),
    "attack_seed": ("an integer", _is_int),
    "backend": ("'in-process' or 'endpoint'", lambda v: v in ("in-process", "endpoint")),
    "endpoint": ("a string or None", lambda v: v is None or isinstance(v, str)),
    "layers": ("a list of integers or None", _int_list_or_none),
}


def _check_keys(cls, d: dict, prefix: str) -> None:
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError("unknown config key(s): " + ", ".join(prefix + k for k in unknown))


def _search_config(d) -> BoundarySearchConfig:
    """A ``BoundarySearchConfig`` from a mapping; its own check of each value
    fails with the key's name."""
    if not isinstance(d, dict):
        raise ValueError(f"config key search must be a mapping, got {d!r}")
    _check_keys(BoundarySearchConfig, d, "search.")
    try:
        return BoundarySearchConfig(**d)
    except ValueError as e:
        raise ValueError(f"config key search.{e}") from None


@dataclass
class LayerReport:
    """One layer's row of a report.  ``calibration_queries`` are the
    intercept and slope ties of its n-ary reads, a part of the queries
    behind ``calls_per_weight``."""

    layer_id: int
    kind: str
    n_bias: int
    n_weight: int
    calls_per_bias: float
    calls_per_weight: float
    e_bias: float | None
    e_weight: float | None
    queries: int
    calibration_queries: int
    dead: int
    retried: int
    gauge_fixed: bool
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExtractionReport:
    config: dict
    layers: list[LayerReport]
    total_queries: int
    total_params: int
    calls_per_param: float
    baseline_calls_per_param: float = REFERENCE_CALLS_PER_PARAM
    wall_time_s: float | None = None  # not serialized: reruns stay byte-identical

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "layers": [l.to_dict() for l in self.layers],
            "totals": {
                "queries": self.total_queries,
                "params": self.total_params,
                "calls_per_param": self.calls_per_param,
                "baseline_calls_per_param": self.baseline_calls_per_param,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(
            ["layer", "kind", "n_bias", "n_weight", "N_bias", "N_weight", "e_bias", "e_weight"]
        )
        for l in self.layers:
            w.writerow(
                [
                    l.layer_id,
                    l.kind,
                    l.n_bias,
                    l.n_weight,
                    f"{l.calls_per_bias:.3f}",
                    f"{l.calls_per_weight:.3f}",
                    "" if l.e_bias is None else f"{l.e_bias:.6e}",
                    "" if l.e_weight is None else f"{l.e_weight:.6e}",
                ]
            )
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Error metrics


def relative_errors(estimate: np.ndarray, truth: np.ndarray) -> np.ndarray:
    truth = np.asarray(truth, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    return np.abs(estimate - truth) / np.maximum(np.abs(truth), ERROR_FLOOR)


def gauge_fix(bias: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Representative under the terminal layer's gauge: row/entry 0 zeroed."""
    return bias - bias[0], weight - weight[0:1, :]


def layer_error_summary(
    result_bias: np.ndarray,
    result_weight: np.ndarray,
    true_bias: np.ndarray,
    true_weight: np.ndarray,
    gauge: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-parameter relative errors; gauge applied to both sides for the
    terminal layer, dropping the pinned representatives."""
    if gauge:
        eb_hat, ew_hat = gauge_fix(result_bias, result_weight)
        eb_true, ew_true = gauge_fix(true_bias, true_weight)
        return (
            relative_errors(eb_hat[1:], eb_true[1:]),
            relative_errors(ew_hat[1:, :], ew_true[1:, :]).ravel(),
        )
    return (
        relative_errors(result_bias, true_bias),
        relative_errors(result_weight, true_weight).ravel(),
    )


# ---------------------------------------------------------------------------
# Attack driver


def resolve_sphere_norm(cfg: ExperimentConfig, truth: ModelGraph | None) -> float:
    """First logit nudge of every class-tie search, the expected logit scale.

    Explicit config wins.  With a white-box model at hand (in-process runs)
    it is calibrated as 10x the sampled logit standard deviation; a label
    only endpoint offers nothing to sample, so a constant 10 on the O(1)
    logit scale is used.
    """
    if cfg.search.sphere_norm is not None:
        return cfg.search.sphere_norm
    if truth is None:
        return 10.0
    rng = np.random.default_rng(np.random.SeedSequence((cfg.attack_seed, 0xD0)))
    logits = []
    for _ in range(32):
        x = rng.standard_normal(truth.input_shape)
        logits.append(forward_trace(truth, QueryInput(x)).logits)
    std = float(np.std(np.concatenate(logits)))
    return 10.0 * std if std > 1e-3 else 10.0


def _layer_rng(attack_seed: int, layer_id: int) -> np.random.Generator:
    # the trailing 0 is part of the seed: without it every draw changes
    return np.random.default_rng(np.random.SeedSequence((attack_seed, layer_id, 0)))


def _extract_one(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    layer_id: int,
    search: BoundarySearchConfig,
    rng: np.random.Generator,
    ties: TerminalTies | None,
) -> LayerExtractionResult:
    """Layer ``layer_id`` through its driver, with the table ``ties`` that
    ``attack_order`` gave it."""
    if layer_id == skeleton.terminal_id:
        return extract_last_layer(oracle, skeleton, search, ties=ties)
    if skeleton.layer(layer_id).kind == KIND_CONV:
        return extract_conv_layer(oracle, skeleton, layer_id, search, rng)
    return extract_fc_layer(oracle, skeleton, layer_id, search, rng, ties=ties)


def _check_targets(skeleton: ModelGraph, layers: list[int]) -> None:
    """Raise one ValueError naming every id in ``layers`` that is unknown,
    not a Convolution or FullyConnected layer, or listed twice."""
    kinds = {s.id: s.kind for s in skeleton.topo_order}
    bad = [f"{l} ({kinds.get(l, 'no such layer')})" for l in dict.fromkeys(layers)
           if kinds.get(l) not in (KIND_CONV, KIND_FC)]
    bad += [f"{l} (listed {layers.count(l)} times)" for l in dict.fromkeys(layers) if layers.count(l) > 1]
    if bad:
        raise ValueError("layers must be distinct Convolution or FullyConnected ids: " + ", ".join(bad))


def run_attack(
    cfg: ExperimentConfig, truth: ModelGraph | None = None
) -> tuple[ExtractionReport, ModelGraph]:
    """Extract the configured layers and report accounting and errors.

    ``truth`` backs the in-process oracle and, when present, the error
    columns; the extraction itself only ever sees the label oracle and the
    zero-parameter skeleton.  ``cfg.layers`` is checked before the first
    query (``_check_targets``).  The layers run in ``attack_order``: when
    the fully-connected layer below the terminal one is a target too, the
    two share one ``TerminalTies`` table, and the terminal layer runs right
    after that layer, whatever their order in ``cfg.layers``.  The report
    keeps the order of ``cfg.layers``.
    """
    if cfg.backend == "in-process":
        if truth is None:
            raise ValueError("in-process backend needs the ground-truth model")
        skeleton = truth.skeleton()
        # forward_label is looked up at call time, so a wrapper patched onto
        # this module sees every in-process query
        backend = lambda q: forward_label(truth, q)
    elif cfg.backend == "endpoint":
        if not cfg.endpoint or cfg.arch is None or cfg.input_shape is None:
            raise ValueError("endpoint backend needs endpoint, arch and input_shape")
        skeleton = build_model(cfg.arch, cfg.input_shape)
        backend = RemoteOracle(cfg.endpoint, skeleton)
    else:
        raise ValueError(f"unknown backend {cfg.backend!r}")
    targets = cfg.layers if cfg.layers is not None else default_target_layers(skeleton)
    _check_targets(skeleton, targets)
    oracle = OracleHandle(backend, argmax_id=skeleton.argmax_id, n_classes=skeleton.n_classes)

    search = replace(cfg.search, sphere_norm=resolve_sphere_norm(cfg, truth))

    def attack_layer(layer_id: int, ties: TerminalTies | None) -> LayerExtractionResult:
        before = oracle.count
        res = _extract_one(oracle, skeleton, layer_id, search, _layer_rng(cfg.attack_seed, layer_id), ties)
        delta = oracle.count - before
        if delta != res.total_queries:
            raise RuntimeError(
                f"query accounting drift on layer {layer_id}: counter {delta} vs recorded {res.total_queries}"
            )
        return res

    t_start = time.perf_counter()
    results: dict[int, LayerExtractionResult] = {}
    failures: dict[int, tuple[str, int]] = {}
    try:
        for lid, ties in attack_order(skeleton, targets):
            # a failure surfaces with the queries it consumed; a transport
            # fault fails only its layer: the remote backend reconnects on
            # the next query
            before = oracle.count
            try:
                results[lid] = attack_layer(lid, ties)
            except (ExtractionError, TransportError) as e:
                failures[lid] = (str(e), oracle.count - before)
    finally:
        if isinstance(backend, RemoteOracle):
            backend.close()
    wall = time.perf_counter() - t_start

    extracted = skeleton.with_params({lid: (r.weight, r.bias) for lid, r in results.items()})

    layer_reports = []
    total_q = 0
    total_p = 0
    for lid in targets:
        if lid in failures:
            err, spent = failures[lid]
            layer_reports.append(
                LayerReport(
                    layer_id=lid, kind=skeleton.layer(lid).kind, n_bias=0, n_weight=0,
                    calls_per_bias=0.0, calls_per_weight=0.0, e_bias=None, e_weight=None,
                    queries=spent, calibration_queries=0, dead=0, retried=0, gauge_fixed=False, error=err,
                )
            )
            total_q += spent
            continue
        r = results[lid]
        nb, nw = r.bias_param_count(), r.weight_param_count()
        e_bias = e_weight = None
        if truth is not None:
            t_spec = truth.layer(lid)
            eb, ew = layer_error_summary(r.bias, r.weight, t_spec.bias, t_spec.weight, r.gauge_fixed)
            e_bias, e_weight = float(eb.mean()), float(ew.mean())
        layer_reports.append(
            LayerReport(
                layer_id=lid,
                kind=r.kind,
                n_bias=nb,
                n_weight=nw,
                calls_per_bias=r.bias_queries / max(nb, 1),
                calls_per_weight=r.weight_queries / max(nw, 1),
                e_bias=e_bias,
                e_weight=e_weight,
                queries=r.total_queries,
                calibration_queries=r.calibration_queries,
                dead=len(r.dead),
                retried=len(r.retried),
                gauge_fixed=r.gauge_fixed,
            )
        )
        total_q += r.total_queries
        total_p += nb + nw

    echo = cfg.to_dict()
    echo["search"]["sphere_norm"] = search.sphere_norm
    report = ExtractionReport(
        config=echo,
        layers=layer_reports,
        total_queries=total_q,
        total_params=total_p,
        calls_per_param=total_q / max(total_p, 1),
        wall_time_s=wall,
    )
    return report, extracted


# ---------------------------------------------------------------------------
# Verification


def _architectures_match(a: ModelGraph, b: ModelGraph) -> bool:
    """True when the two models have the same output and the same layers
    in every field but their parameter values."""

    def geometry(m: ModelGraph) -> list[LayerSpec]:
        return [replace(s, weight=getattr(s.weight, "shape", None), bias=getattr(s.bias, "shape", None))
                for s in m.topo_order]

    return a.output == b.output and geometry(a) == geometry(b)


def verify_models(extracted: ModelGraph, truth: ModelGraph) -> dict:
    """Per-layer error table for an extracted model against ground truth.

    The terminal layer is compared after identical gauge fixing on both
    sides.  A layer passes only if its mean and its max bias and weight
    errors are all at most ``MAX_ERROR``: one wrong parameter among
    thousands barely moves the mean.
    """
    if not _architectures_match(extracted, truth):
        raise ValueError("extracted and truth models have different architectures")
    rows = []
    ok = True
    for spec in truth.topo_order:
        if spec.kind not in (KIND_CONV, KIND_FC):
            continue
        est = extracted.layer(spec.id)
        gauge = spec.id == truth.terminal_id
        eb, ew = layer_error_summary(est.bias, est.weight, spec.bias, spec.weight, gauge)
        row = {
            "layer": spec.id,
            "kind": spec.kind,
            "gauge_fixed": gauge,
            "e_bias": float(eb.mean()) if eb.size else 0.0,
            "e_weight": float(ew.mean()) if ew.size else 0.0,
            "max_bias_error": float(eb.max()) if eb.size else 0.0,
            "max_weight_error": float(ew.max()) if ew.size else 0.0,
        }
        row["pass"] = all(row[k] <= MAX_ERROR for k in ("e_bias", "max_bias_error", "e_weight", "max_weight_error"))
        ok = ok and row["pass"]
        rows.append(row)
    return {"layers": rows, "pass": ok}


def write_report(report: ExtractionReport, json_path: str | Path | None, csv_path: str | Path | None) -> None:
    if json_path:
        Path(json_path).write_text(report.to_json())
    if csv_path:
        Path(csv_path).write_text(report.to_csv())
