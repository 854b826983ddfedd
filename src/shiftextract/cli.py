"""Command line interface: gen-model, attack, verify, serve.

Exit codes: 0 success / every layer within the fixed MAX_ERROR gate,
1 verification failure, 2 operational error or an unknown flag.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from .extract import BoundarySearchConfig
from .harness import (
    REFERENCE_CALLS_PER_PARAM,
    ExperimentConfig,
    run_attack,
    verify_models,
    write_report,
)
from .model import count_parameters, load_model, random_model, save_model
from .protocol import MASK_BOUND, InferenceServer


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"shape must look like 3x8x8, got {text!r}") from None


def _parse_layers(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p]


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    """One flag per ``BoundarySearchConfig`` field, ``--eta-tol`` for ``eta_tol``."""
    for f in fields(BoundarySearchConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="shiftextract", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-model", help="generate a random model file")
    g.add_argument("--arch", required=True, help="e.g. conv8x3x3-r-fc32-r-fc4")
    g.add_argument("--input-shape", required=True, type=_parse_shape, help="e.g. 3x8x8")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    a = sub.add_parser("attack", help="extract a model's parameters")
    a.add_argument("--config", help="JSON experiment config; flags override")
    a.add_argument("--model", help="model file served in-process (also ground truth)")
    a.add_argument("--endpoint", help="host:port of a running server")
    a.add_argument("--arch", help="architecture (endpoint mode)")
    a.add_argument("--input-shape", type=_parse_shape, help="input shape (endpoint mode)")
    a.add_argument("--truth", help="ground-truth model file for error columns")
    a.add_argument("--attack-seed", type=int, default=None)
    a.add_argument("--layers", type=_parse_layers, help="comma separated layer ids")
    a.add_argument("--report", help="write the JSON report here")
    a.add_argument("--csv", help="write the per-layer CSV here")
    a.add_argument("--extracted", help="write the extracted model here")
    _add_search_flags(a)

    v = sub.add_parser("verify", help="compare an extracted model with ground truth")
    v.add_argument("--extracted", required=True)
    v.add_argument("--truth", required=True)

    s = sub.add_parser("serve", help="serve a model over the masked protocol")
    s.add_argument("--model", required=True)
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=9123)
    s.add_argument("--seed", type=int, default=0)
    return ap


def _cmd_gen_model(args) -> int:
    model = random_model(args.arch, args.input_shape, args.seed)
    save_model(model, args.out)
    print(f"wrote {args.out}: {count_parameters(model)} parameters, {len(model.layers)} layers")
    return 0


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
    else:
        cfg = ExperimentConfig()
    if args.model:
        cfg.backend = "in-process"
    elif args.endpoint:
        cfg.backend = "endpoint"
        cfg.endpoint = args.endpoint
    if args.arch:
        cfg.arch = args.arch
    if args.input_shape:
        cfg.input_shape = args.input_shape
    if args.attack_seed is not None:
        cfg.attack_seed = args.attack_seed
    if args.layers is not None:
        cfg.layers = args.layers
    overrides = {f.name: v for f in fields(BoundarySearchConfig) if (v := getattr(args, f.name)) is not None}
    cfg.search = replace(cfg.search, **overrides)
    return cfg


def _cmd_attack(args) -> int:
    cfg = _config_from_args(args)
    truth = None
    if args.model:
        truth = load_model(args.model)
    elif args.truth:
        truth = load_model(args.truth)
    report, extracted = run_attack(cfg, truth=truth)
    print(report.to_csv(), end="")
    for layer in (l for l in report.layers if l.error):  # its CSV row reads zeros: say why
        named = f"layer {layer.layer_id}: "  # once, also where the error starts with it
        print(named + layer.error.removeprefix(named), file=sys.stderr)
    print(
        f"total queries {report.total_queries}, params {report.total_params}, "
        f"calls/param {report.calls_per_param:.1f} "
        f"(reference baseline {REFERENCE_CALLS_PER_PARAM})"
    )
    if report.wall_time_s is not None:
        print(f"wall time {report.wall_time_s:.1f}s")
    write_report(report, args.report, args.csv)
    if args.extracted:
        gauged = [l.layer_id for l in report.layers if l.gauge_fixed]
        save_model(extracted, args.extracted, meta={"gauge_fixed_layers": gauged})
        print(f"wrote extracted model to {args.extracted}")
    return 0


def _cmd_verify(args) -> int:
    extracted = load_model(args.extracted)
    truth = load_model(args.truth)
    result = verify_models(extracted, truth)
    for row in result["layers"]:
        gauge = " (gauge-fixed)" if row["gauge_fixed"] else ""
        status = "pass" if row["pass"] else "FAIL"
        print(
            f"layer {row['layer']:>3} {row['kind']:<14}{gauge:<14} "
            f"e_bias {row['e_bias']:.3e} (max {row['max_bias_error']:.3e})  "
            f"e_weight {row['e_weight']:.3e} (max {row['max_weight_error']:.3e})  {status}"
        )
    print("PASS" if result["pass"] else "FAIL")
    return 0 if result["pass"] else 1


def _cmd_serve(args) -> int:
    model = load_model(args.model)
    server = InferenceServer(model, seed=args.seed)
    host, port = server.start(args.host, args.port)
    print(f"serving {args.model} on {host}:{port} (mask bound {MASK_BOUND})")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
    n = server.sessions
    mean_us = 1e6 * server.session_seconds / n if n else 0.0
    print(f"served {n} sessions, {server.session_errors} session errors; "
          f"session us mean {mean_us:.1f}, max {1e6 * server.max_session_seconds:.1f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen-model":
            return _cmd_gen_model(args)
        if args.command == "attack":
            return _cmd_attack(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "serve":
            return _cmd_serve(args)
        raise ValueError(f"unknown command {args.command}")
    except KeyboardInterrupt:
        return 2
    except Exception as e:  # operational failure
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
