#!/usr/bin/env python3
"""Record the benchmark of one checkout in a BENCH_<n>.json file.

    python3 scripts/bench.py --out BENCH_17.json
    python3 scripts/bench.py --root ../parent --out BENCH_0.json
    python3 scripts/bench.py --root ../parent --residual 1   # one RESIDUAL attack, as JSON
    python3 scripts/bench.py --depth 8   # one attack of the depth family at k = 8, as JSON
    python3 scripts/bench.py --root ../parent --pooled two-branch-pool   # one family of the pooled section, as JSON
    python3 scripts/bench.py --streams   # report and query-stream digests of every attack below
    python3 scripts/bench.py --streams pool-endpoint:1 pool-endpoint:1:in-process
    python3 scripts/bench.py --root ../parent --replay-loopback pool-endpoint   # one loopback row, as JSON

Runs ``perfbench/run.py --seconds 0`` of the checkout at ``--root`` (by
default this one) on its three workloads at seeds 1 to 3, and attacks each
of them once more through the harness for the per-layer report.  Then runs
criterion 1 (conv8x3x3-r-fc32-r-fc4 on 3x8x8, model seed 7, attack seed 11)
and scores its convolution and first FC layer against the truth.  The file
holds the end-to-end metrics per seed and their medians, the per-layer
queries and calls per parameter, criterion 1's errors and wall seconds, the
core count and Python version, the change of every median against the
previous BENCH file (by default the highest-numbered one below n next to
the output), and the provenance of the measured code: its commit, a
``dirty`` flag and a sha256 of ``src/`` (``provenance``).  Every attack
runs in a fresh interpreter that imports the program from
``<root>/src``.  A ``sweep`` section attacks criterion 1 and the three
workload models (in process, seeds 1 to 3) once more at each
``eta_tol`` of ``SWEEP_ETA_TOLS``, and records calls per parameter, the max
and median relative error over the non-terminal parameters, and the max
relative error of the terminal layer's gauge differences.  A ``residual``
section attacks ``RESIDUAL``, two identity-skip blocks of 8-channel
convolutions (3x8x8, model seed 2, 10 classes), at attack seeds 1 to 3,
each in a fresh interpreter, and records its calls per parameter, errors,
wall seconds and per-layer queries, with their medians over the seeds.  A
``depth`` section attacks ``depth_arch(k)``, k identity-skip blocks of
8-channel convolutions between a first convolution and ``fc4-r-fc10``
(3x8x8, model seed 2, attack seed 1), at each k of ``DEPTHS``, each in a
fresh interpreter.  It records per-layer calls per parameter, wall seconds
and microseconds per query, the spread of the residual-branch
convolutions' calls per parameter over all depths, and microseconds per
query against k.  A ``pooled`` section attacks every layer of each
family of ``POOLED``, small convolutional models with a MaxPoolReLU, a
non-identity skip or ten classes around their convolutions (model seeds 1
to 3, attack seed 1), one family per fresh interpreter, and records per
family its queries, its convolution layers read wrong (any parameter
beyond ``POOLED_TOL``, relative), the worst convolution error and the
slots flagged dead or retried, and each model's per-layer max error.  A
``replay`` section attacks each workload once more in process (seed 1,
pinned to one CPU), records its query stream and replays
it through ``forward_label`` on a fresh model: evaluator-only
microseconds per query next to whole-attack microseconds per query.  Its
``pool-endpoint:loopback`` row replays pool-endpoint's recorded stream over
one loopback connection to a fresh server: microseconds per session.  Each
row holds the minimum and the median of ``REPLAY_REPEATS`` repeats, and
the ``delta`` section compares the minima, the least noisy of the two.

``--streams`` prints, as one JSON object, two sha256 digests per attack:
of its report JSON (the endpoint address masked) and of its query stream
(each query's ``x0``, its shift keys and bytes, and its label), each attack
in a fresh interpreter.  It covers criterion 1, the workloads at seeds 1 to
3 (pool-endpoint over loopback and, as ``pool-endpoint:<seed>:in-process``,
in process), ``RESIDUAL`` at seeds 1 to 3 and the depth family at each k of
``DEPTHS``; names given after it pick a subset (``stream_names``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve()
WORKLOADS = ("relu-inproc", "pool-res-inproc", "pool-endpoint")
SEEDS = (1, 2, 3)
C1 = {"arch": "conv8x3x3-r-fc32-r-fc4", "input_shape": (3, 8, 8), "model_seed": 7, "attack_seed": 11}
SWEEP_ETA_TOLS = (1e-9, 1e-8, 1e-7, 3e-7, 1e-6)
RESIDUAL = {"arch": "conv8x3x3-r-res{conv8x3x3-r,}-r-res{conv8x3x3-r,}-r-fc16-r-fc10", "input_shape": (3, 8, 8),
            "model_seed": 2}
DEPTHS = (1, 2, 4, 8)
POOLED_SHAPES = ((1, 8, 8), (2, 8, 8))
POOLED = {  # family: its architectures and input shapes
    "two-branch-pool": ([f"conv{n}x3x3-r-res{{conv{n}x3x3-r,conv{n}x3x3-r}}-mpr2-fc6-r-fc3" for n in (2, 4)],
                        POOLED_SHAPES),
    "two-branch": ([f"conv{n}x3x3-r-res{{conv{n}x3x3-r,conv{n}x3x3-r}}-fc6-r-fc3" for n in (2, 4)], POOLED_SHAPES),
    "two-convs-above-pool": ([f"conv{n}x3x3-r-conv{n}x3x3-r-conv{n}x3x3-mpr2-fc6-r-fc3" for n in (2, 4)],
                             POOLED_SHAPES),
    "two-maxpools": ([f"conv{n}x3x3-mpr2-conv{n}x3x3-r-conv{n}x3x3-mpr2-fc6-r-fc3" for n in (2, 4)], POOLED_SHAPES),
    "ten-class": (["conv2x3x3-r-fc12-r-fc10"], POOLED_SHAPES),
    "odd-centre": (["conv2x3x3-r-res{conv2x3x3-r,}-mpr2-fc6-r-fc3"], ((1, 6, 6), (2, 10, 10))),
}
POOLED_TOL = 1e-6
REPLAY_REPEATS = 9


def depth_arch(k: int) -> dict:
    """The depth family's model with k identity-skip blocks, as ExperimentConfig fields."""
    arch = "conv8x3x3-r-" + "res{conv8x3x3-r,}-r-" * k + "fc4-r-fc10"
    return {"arch": arch, "input_shape": (3, 8, 8), "model_seed": 2, "attack_seed": 1}


def _program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import shiftextract

    return shiftextract


def _layers(report) -> list[dict]:
    """Per-layer queries and calls per parameter of a report."""
    out = []
    for l in report.layers:
        params = l.n_bias + l.n_weight
        row = {"layer": l.layer_id, "kind": l.kind, "params": params, "queries": l.queries,
               "calls_per_param": l.queries / params if params else None,
               "calls_per_bias": l.calls_per_bias, "calls_per_weight": l.calls_per_weight}
        if hasattr(l, "calibration_queries"):
            row["calibration_queries"] = l.calibration_queries
        out.append(row)
    return out


def layers_of_workload(root: Path, workload: str, seed: int) -> dict:
    """One attack of a benchmark workload, set up as the benchmark sets it up."""
    sx = _program(root)
    sys.path.insert(0, str(root / "perfbench"))
    from run import Bench

    attack = Bench(sx, workload, seed).attack()
    return {"queries": attack.report.total_queries, "params": attack.report.total_params,
            "calls_per_param": attack.report.calls_per_param, "layers": _layers(attack.report)}


def _errors(truth, extracted) -> dict:
    """Max and median relative error over the non-terminal parameters, and
    the max over the terminal layer's gauge differences."""
    import numpy as np
    from shiftextract.harness import layer_error_summary

    terminal = truth.layer(truth.argmax_id).inputs[0]
    inner, last = [], []
    for spec in truth.topo_order:
        if spec.weight is None:
            continue
        est = extracted.layer(spec.id)
        errs = layer_error_summary(est.bias, est.weight, spec.bias, spec.weight, spec.id == terminal)
        (last if spec.id == terminal else inner).extend(errs)
    inner, last = np.concatenate(inner), np.concatenate(last)
    return {"max_error": float(inner.max()), "median_error": float(np.median(inner)),
            "terminal_max_error": float(last.max())}


def scored_attack(root: Path, spec: dict) -> dict:
    """One attack of ``spec`` (ExperimentConfig fields) end to end, with
    its errors (``_errors``): criterion 1, or ``RESIDUAL`` at one seed."""
    from time import perf_counter

    sx = _program(root)
    truth = sx.random_model(spec["arch"], spec["input_shape"], seed=spec["model_seed"])
    cfg = sx.ExperimentConfig(**spec)
    t0 = perf_counter()
    report, extracted = sx.run_attack(cfg, truth=truth)
    wall = perf_counter() - t0
    return {"wall_s": wall, "queries": report.total_queries, "params": report.total_params,
            "calls_per_param": report.calls_per_param, **_errors(truth, extracted), "layers": _layers(report)}


def depth(root: Path) -> dict:
    """One attack of ``depth_arch(k)`` per k of ``DEPTHS``, each in a fresh
    interpreter, with its microseconds per query; the min and max calls per
    parameter of the residual-branch convolutions (every conv but the
    first) over all depths; and microseconds per query against k."""
    runs = {}
    for k in DEPTHS:
        print(f"depth k {k}", file=sys.stderr, flush=True)
        run = _child(root, "--depth", str(k))
        runs[str(k)] = {**run, "us_per_query": 1e6 * run["wall_s"] / run["queries"]}
    branch = []
    for run in runs.values():
        branch += [l["calls_per_param"] for l in run["layers"] if l["kind"] == "Convolution"][1:]
    fixed = {key: v for key, v in depth_arch(0).items() if key != "arch"}
    return {"family": "conv8x3x3-r- + k x res{conv8x3x3-r,}-r- + fc4-r-fc10", **fixed, "runs": runs,
            "branch_conv_calls_per_param": {"min": min(branch), "max": max(branch)},
            "us_per_query": {k: run["us_per_query"] for k, run in runs.items()}}


def sweep(root: Path) -> dict:
    """Calls per parameter and errors of criterion 1 and of the workload
    models, in process, at each ``eta_tol`` of ``SWEEP_ETA_TOLS``: per
    seed, and over the seeds the median calls per parameter and the largest
    of each error."""
    sx = _program(root)
    sys.path.insert(0, str(root / "perfbench"))
    from run import WORKLOADS

    models = {"criterion_1": [(C1["arch"], C1["input_shape"], C1["model_seed"], C1["attack_seed"])]}
    for w, wl in WORKLOADS.items():
        seeds = sorted({s if wl.fixed_attack_seed is None else wl.fixed_attack_seed for s in SEEDS})
        models[w] = [(wl.arch, wl.shape, wl.model_seed, s) for s in seeds]
    out = {}
    for name, runs in models.items():
        out[name] = {}
        for eta in SWEEP_ETA_TOLS:
            print(f"sweep {name} eta_tol {eta:g}", file=sys.stderr, flush=True)
            seeds = {}
            for arch, shape, model_seed, attack_seed in runs:
                truth = sx.random_model(arch, shape, seed=model_seed)
                cfg = sx.ExperimentConfig(arch=arch, input_shape=shape, model_seed=model_seed,
                                          attack_seed=attack_seed, search=sx.BoundarySearchConfig(eta_tol=eta))
                report, extracted = sx.run_attack(cfg, truth=truth)
                seeds[str(attack_seed)] = {"calls_per_param": report.calls_per_param, **_errors(truth, extracted)}
            rows = list(seeds.values())
            out[name][f"{eta:g}"] = {
                "calls_per_param": statistics.median(r["calls_per_param"] for r in rows),
                **{k: max(r[k] for r in rows) for k in ("max_error", "median_error", "terminal_max_error")},
                "seeds": seeds,
            }
    return out


def pooled_family(root: Path, family: str) -> dict:
    """Every layer of every model of ``POOLED[family]`` attacked (model
    seeds ``SEEDS``, attack seed 1): the family's queries, convolution
    layers read wrong, worst convolution error and flagged slots, and per
    model its queries and each layer's max relative error, dead and retried
    slots (the terminal layer up to its gauge)."""
    sx = _program(root)
    from shiftextract.harness import layer_error_summary

    archs, shapes = POOLED[family]
    models, conv_errors, flagged = {}, [], 0
    for arch, shape, seed in ((a, s, m) for a in archs for s in shapes for m in SEEDS):
        truth = sx.random_model(arch, shape, seed=seed)
        cfg = sx.ExperimentConfig(arch=arch, input_shape=shape, model_seed=seed, attack_seed=1)
        report, extracted = sx.run_attack(cfg, truth=truth)
        layers = {}
        for l in report.layers:
            est, true = extracted.layer(l.layer_id), truth.layer(l.layer_id)
            eb, ew = layer_error_summary(est.bias, est.weight, true.bias, true.weight, l.gauge_fixed)
            layers[str(l.layer_id)] = {"max_error": float(max(eb.max(), ew.max())), "dead": l.dead,
                                       "retried": l.retried}
            flagged += l.dead + l.retried
            if l.kind == "Convolution":
                conv_errors.append(layers[str(l.layer_id)]["max_error"])
        models[f"{arch}:{'x'.join(map(str, shape))}:{seed}"] = {"queries": report.total_queries, "layers": layers}
    return {"queries": sum(m["queries"] for m in models.values()), "conv_layers": len(conv_errors),
            "wrong_conv_layers": sum(e > POOLED_TOL for e in conv_errors), "worst_conv_error": max(conv_errors),
            "flagged_slots": flagged, "models": models}


def stream_names() -> list[str]:
    """The attacks ``--streams`` digests: ``criterion_1``, ``<workload>:<seed>``,
    ``pool-endpoint:<seed>:in-process``, ``residual:<seed>`` and ``depth:<k>``."""
    names = ["criterion_1"] + [f"{w}:{s}" for w in WORKLOADS for s in SEEDS]
    names += [f"pool-endpoint:{s}:in-process" for s in SEEDS]
    return names + [f"residual:{s}" for s in SEEDS] + [f"depth:{k}" for k in DEPTHS]


def _record_queries(sx, digest=None, keep: list | None = None) -> None:
    """Wrap ``OracleHandle.query`` so that every query and its label go
    into ``digest`` (x0, then each shift key and its bytes in key order,
    then the label) and, as (query, label), onto ``keep``."""
    real = sx.oracle.OracleHandle.query

    def query(handle, v):
        label = real(handle, v)
        if digest is not None:
            digest.update(repr(v.x0.shape).encode() + v.x0.tobytes())
            for key in sorted(v.shifts.entries):
                digest.update(repr(key).encode() + v.shifts.entries[key].tobytes())
            digest.update(b"label %d;" % label)
        if keep is not None:
            keep.append((v, label))
        return label

    sx.oracle.OracleHandle.query = query


def _bench(root: Path, sx, name: str):
    """The benchmark's set-up of ``<workload>:<seed>[:in-process]``."""
    from dataclasses import replace

    sys.path.insert(0, str(root / "perfbench"))
    from run import Bench

    workload, seed, *mode = name.split(":")
    bench = Bench(sx, workload, int(seed))
    if mode == ["in-process"]:
        bench.wl = replace(bench.wl, endpoint=False)
    return bench


def stream_of(root: Path, name: str) -> dict:
    """The report and query-stream digests of one attack of ``stream_names``.

    An attack over loopback also counts ``moved_labels``: served labels
    whose class the in-process evaluation of the same query puts more than
    ``TIE_PROBE`` below the top logit.  The mask noise of the protocol
    (about 1e-13) may decide a tie polished to float precision, so the
    loopback stream parts from the in-process one at such a tie, but it
    moves no label with a clear margin."""
    sx = _program(root)
    head, _, arg = name.partition(":")
    loopback = head == "pool-endpoint" and not name.endswith(":in-process")
    stream, served, extra = hashlib.sha256(), [], {}
    _record_queries(sx, stream, served if loopback else None)
    if head in WORKLOADS:
        attack = _bench(root, sx, name).attack()
        report, truth = attack.report, attack.truth
    else:
        spec = C1 if head == "criterion_1" else depth_arch(int(arg)) if head == "depth" else {
            **RESIDUAL, "attack_seed": int(arg)}
        truth = sx.random_model(spec["arch"], spec["input_shape"], seed=spec["model_seed"])
        report, _ = sx.run_attack(sx.ExperimentConfig(**spec), truth=truth)
    if loopback:
        from shiftextract.oracle import TIE_PROBE

        logits = [(sx.forward_trace(truth, q).logits, label) for q, label in served]
        extra["moved_labels"] = sum(bool(y.max() - y[label] > TIE_PROBE) for y, label in logits)
    doc = report.to_json_dict()
    if doc["config"].get("endpoint"):
        doc["config"]["endpoint"] = "masked"
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return {"report": hashlib.sha256(text.encode()).hexdigest(), "stream": stream.hexdigest(),
            "queries": report.total_queries, **extra}


def _recorded_stream(root: Path, workload: str):
    """The program, pinned to one CPU, and the benchmark set-up and recorded
    (query, label) stream of one in-process attack of ``workload`` at seed 1."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sx = _program(root)
    real, stream = sx.oracle.OracleHandle.query, []
    _record_queries(sx, keep=stream)
    bench = _bench(root, sx, f"{workload}:1:in-process")
    bench.attack()
    sx.oracle.OracleHandle.query = real
    return sx, bench, stream


def _per_query(name: str, seconds: list[float], queries: int) -> dict:
    """``<name>_min`` and ``<name>_median``: microseconds per query of the
    fastest and of the median of ``seconds``."""
    return {f"{name}_min": 1e6 * min(seconds) / queries, f"{name}_median": 1e6 * statistics.median(seconds) / queries}


def replay_of(root: Path, workload: str, repeats: int = REPLAY_REPEATS) -> dict:
    """Whole-attack and evaluator-only microseconds per query of one
    in-process attack of ``workload`` at seed 1, pinned to one CPU: the
    extraction time of ``repeats`` unrecorded attacks over their queries,
    and the time of ``repeats`` replays of a recorded attack's query stream
    through ``forward_label`` on a fresh model over its queries, each as
    its minimum and median (``_per_query``).  Every replayed label must
    match the recorded one."""
    from time import perf_counter

    sx, bench, stream = _recorded_stream(root, workload)
    attacks = [bench.attack().extract_s for _ in range(repeats)]
    replays = []
    for _ in range(repeats):
        truth = bench.model()
        t0 = perf_counter()
        labels = [sx.forward_label(truth, q) for q, _ in stream]
        replays.append(perf_counter() - t0)
        if labels != [label for _, label in stream]:
            raise SystemExit(f"replay of {workload} gave other labels than its attack")
    n = len(stream)
    return {"backend": "in-process", "seed": 1, "queries": n, "repeats": repeats,
            **_per_query("attack_us_per_query", attacks, n), **_per_query("evaluator_us_per_query", replays, n)}


def loopback_replay_of(root: Path, workload: str, repeats: int = REPLAY_REPEATS) -> dict:
    """Microseconds per loopback session: the time of ``repeats`` replays
    of the recorded seed-1 query stream of ``workload`` (as ``replay_of``
    records it) through one ``ClientConnection`` against a fresh
    ``serve(truth, seed=1)``, all pinned to one CPU, over its queries, as
    its minimum and median (``_per_query``).  Each served label is checked
    by the ``moved_labels`` rule of ``stream_of``, since the loopback
    stream may part from the in-process one at a tie polished to float
    precision."""
    from time import perf_counter

    sx, bench, stream = _recorded_stream(root, workload)
    truth = bench.model()
    logits = [sx.forward_trace(truth, q).logits for q, _ in stream]
    sessions = []
    for _ in range(repeats):
        server = sx.protocol.serve(truth, seed=1)
        try:
            conn = sx.protocol.connect("%s:%d" % server.address)
            try:
                t0 = perf_counter()
                labels = [conn.infer(q.x0, q.shifts) for q, _ in stream]
                sessions.append(perf_counter() - t0)
            finally:
                conn.close()
        finally:
            server.stop()
        if any(y.max() - y[label] > sx.oracle.TIE_PROBE for y, label in zip(logits, labels)):
            raise SystemExit(f"loopback replay of {workload} moved a served label")
    n = len(stream)
    return {"backend": "loopback", "seed": 1, "queries": n, "repeats": repeats,
            **_per_query("session_us_per_query", sessions, n)}


def provenance(root: Path) -> dict:
    """The commit of ``root``, whether the code the benchmark runs (``src/``
    and ``perfbench/``) differs from it (``dirty``, None outside git), and
    a sha256 over the path and bytes of every ``.py`` file under ``src/``,
    which names the measured program even in a dirty tree."""
    git = lambda *a: subprocess.run(["git", *a], cwd=root, capture_output=True, text=True)
    head, status = git("rev-parse", "HEAD"), git("status", "--porcelain", "--", "src", "perfbench")
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"root_commit": head.stdout.strip() or None,
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
            "src_sha256": digest.hexdigest()}


def _child(root: Path, *args: str) -> dict:
    """Run this script's subcommand in a fresh interpreter; its last line is JSON."""
    out = subprocess.run([sys.executable, str(HERE), "--root", str(root), *args],
                         capture_output=True, text=True, check=True, timeout=1800)
    return json.loads(out.stdout.strip().splitlines()[-1])


def end_to_end(root: Path, workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", "0"], cwd=root, capture_output=True, text=True, check=True, timeout=1800)
    r = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
            "metrics": {k: m["value"] for k, m in r["metrics"].items()}}


def _previous(out: Path) -> Path | None:
    """The highest-numbered BENCH_<k>.json next to ``out`` with k below its n."""
    m = re.fullmatch(r"BENCH_(\d+)\.json", out.name)
    n = int(m.group(1)) if m else None
    found = []
    for p in out.parent.glob("BENCH_*.json"):
        k = re.fullmatch(r"BENCH_(\d+)\.json", p.name)
        if k and p.resolve() != out.resolve() and (n is None or int(k.group(1)) < n):
            found.append((int(k.group(1)), p))
    return max(found)[1] if found else None


def _change(before: float | None, now: float | None) -> dict:
    rel = (now - before) / before if before not in (None, 0) and now is not None else None
    return {"previous": before, "now": now, "relative": rel}


def delta(prev: dict, cur: dict) -> dict:
    """Every median end-to-end metric and criterion-1 figure against
    ``prev``, and each replay row's minimum microseconds per query (None
    against a file that recorded no minimum)."""
    out = {"against": prev.get("file")}
    for w, rec in cur["workloads"].items():
        old = prev.get("workloads", {}).get(w, {}).get("median", {})
        out[w] = {k: _change(old.get(k), v) for k, v in rec["median"].items()}
    c_old = prev.get("criterion_1", {})
    out["criterion_1"] = {k: _change(c_old.get(k), cur["criterion_1"][k])
                          for k in ("wall_s", "calls_per_param", "max_error", "median_error")}
    r_old = prev.get("residual", {}).get("median", {})
    out["residual"] = {k: _change(r_old.get(k), v) for k, v in cur["residual"]["median"].items()}
    d_old, metrics = prev.get("depth", {}).get("runs", {}), ("wall_s", "calls_per_param", "us_per_query")
    out["depth"] = {k: {m: _change(d_old.get(k, {}).get(m), r[m]) for m in metrics}
                    for k, r in cur["depth"]["runs"].items()}
    o_old, metrics = prev.get("pooled", {}), ("queries", "wrong_conv_layers", "worst_conv_error", "flagged_slots")
    out["pooled"] = {f: {m: _change(o_old.get(f, {}).get(m), r[m]) for m in metrics} for f, r in cur["pooled"].items()}
    p_old = prev.get("replay", {})
    out["replay"] = {w: {m: _change(p_old.get(w, {}).get(m), v) for m, v in r.items()
                         if m.endswith("_us_per_query_min")} for w, r in cur["replay"].items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=HERE.parent.parent, help="checkout to measure")
    ap.add_argument("--out", type=Path, help="BENCH_<n>.json to write")
    ap.add_argument("--previous", type=Path, help="BENCH file to compare against")
    ap.add_argument("--layers", nargs=2, metavar=("WORKLOAD", "SEED"), help=argparse.SUPPRESS)
    ap.add_argument("--criterion-1", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--residual", type=int, metavar="SEED", help="print one RESIDUAL attack's JSON record")
    ap.add_argument("--depth", type=int, metavar="K", help="print one attack of the depth family's JSON record")
    ap.add_argument("--streams", nargs="*", metavar="ATTACK",
                    help="print report and query-stream digests of these attacks (default: every one)")
    ap.add_argument("--pooled", choices=sorted(POOLED), help="print one family of the pooled section, as JSON")
    ap.add_argument("--stream-of", metavar="ATTACK", help=argparse.SUPPRESS)
    ap.add_argument("--replay", metavar="WORKLOAD", help=argparse.SUPPRESS)
    ap.add_argument("--replay-loopback", metavar="WORKLOAD",
                    help="print the replay section's loopback row of this workload, as JSON")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if args.stream_of:
        print(json.dumps(stream_of(root, args.stream_of)))
        return 0
    if args.replay:
        print(json.dumps(replay_of(root, args.replay)))
        return 0
    if args.replay_loopback:
        print(json.dumps(loopback_replay_of(root, args.replay_loopback)))
        return 0
    if args.streams is not None:
        unknown = [name for name in args.streams if name not in stream_names()]
        if unknown:
            ap.error(f"unknown attack(s) {', '.join(unknown)}; one of {', '.join(stream_names())}")
        digests = {}
        for name in args.streams or stream_names():
            print(f"streams {name}", file=sys.stderr, flush=True)
            digests[name] = _child(root, "--stream-of", name)
        print(json.dumps(digests, indent=2))
        return 0
    if args.layers:
        print(json.dumps(layers_of_workload(root, args.layers[0], int(args.layers[1]))))
        return 0
    if args.criterion_1:
        print(json.dumps(scored_attack(root, C1)))
        return 0
    if args.residual is not None:
        print(json.dumps(scored_attack(root, {**RESIDUAL, "attack_seed": args.residual})))
        return 0
    if args.depth is not None:
        print(json.dumps(scored_attack(root, depth_arch(args.depth))))
        return 0
    if args.pooled:
        print(json.dumps(pooled_family(root, args.pooled)))
        return 0
    if args.out is None:
        ap.error("--out is required")

    bench = {"file": args.out.name, **provenance(root),
             "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                         "platform": platform.platform()},
             "workloads": {}}
    for w in WORKLOADS:
        seeds = {}
        for s in SEEDS:
            print(f"{w} seed {s}", file=sys.stderr, flush=True)
            seeds[str(s)] = {**end_to_end(root, w, s), "report": _child(root, "--layers", w, str(s))}
        metrics = [r["metrics"] for r in seeds.values()]
        median = {k: statistics.median(m[k] for m in metrics) for k in metrics[0]}
        bench["workloads"][w] = {"median": median, "failed": sum(r["failed"] for r in seeds.values()),
                                 "seeds": seeds}
    print("criterion 1", file=sys.stderr, flush=True)
    bench["criterion_1"] = _child(root, "--criterion-1")
    seeds = {}
    for s in SEEDS:
        print(f"residual seed {s}", file=sys.stderr, flush=True)
        seeds[str(s)] = _child(root, "--residual", str(s))
    keys = ("wall_s", "calls_per_param", "max_error", "median_error", "terminal_max_error")
    bench["residual"] = {**RESIDUAL, "median": {k: statistics.median(r[k] for r in seeds.values()) for k in keys},
                         "seeds": seeds}
    bench["depth"] = depth(root)
    bench["pooled"] = {}
    for family in POOLED:
        print(f"pooled {family}", file=sys.stderr, flush=True)
        bench["pooled"][family] = _child(root, "--pooled", family)
    bench["replay"] = {}
    for w in WORKLOADS:
        print(f"replay {w}", file=sys.stderr, flush=True)
        bench["replay"][w] = _child(root, "--replay", w)
    print("replay pool-endpoint over loopback", file=sys.stderr, flush=True)
    bench["replay"]["pool-endpoint:loopback"] = _child(root, "--replay-loopback", "pool-endpoint")
    bench["sweep"] = sweep(root)
    prev_path = args.previous or _previous(args.out)
    if prev_path is not None:
        bench["delta"] = delta(json.loads(prev_path.read_text()), bench)
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
