#!/usr/bin/env python3
"""Extraction benchmark: times full attacks through the public harness API.

    python3 perfbench/run.py --workload relu-inproc --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there and nowhere else.  One run repeats whole attacks on the workload until
``--seconds`` have passed, checks every attack against the generated truth
(``check.py``) and prints, as the last line of standard output, one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Progress and failing parameters go to standard error; a
traced run also writes its spans and counters to ``.perfbench/``.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from check import CheckResult, LayerParams, check_accounting, check_extraction

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shiftextract" / "__init__.py"
IMPORT_SAMPLES = 5
PROBE_SESSIONS = 1000


@dataclass(frozen=True)
class Workload:
    """A model attacked by one client in a closed loop: each query waits for
    its label and layers run one after another (``parallel`` stays off)."""

    arch: str
    shape: tuple[int, ...]
    model_seed: int
    endpoint: bool = False
    # None: the attack seed is --seed.  Otherwise the attack seed is fixed
    # and --seed orders the target layers, which leaves every layer's
    # result unchanged (each layer draws from its own seeded generator).
    fixed_attack_seed: int | None = None


WORKLOADS = {
    # criterion-1 family scaled down: a wide FC layer fed by a periodic-
    # injection conv layer; forward passes and shift merges dominate.
    "relu-inproc": Workload("conv2x3x3-r-fc12-r-fc4", (2, 6, 6), model_seed=3),
    # maxpool targets each pay a fresh critical search; the residual conv
    # takes the single-injection path and the FC layer reads an Add.  Weight
    # (2,0,2,2) of layer 1 comes out wrong; a failure must not depend on
    # --seed, so the attack seed is fixed.
    "pool-res-inproc": Workload("conv4x3x3-mpr2-res{conv4x3x3-r,}-fc8-r-fc4", (2, 8, 8), model_seed=9,
                                fixed_attack_seed=5),
    # a small maxpool CNN attacked over loopback sockets (InferenceServer).
    "pool-endpoint": Workload("conv2x3x3-mpr2-fc3-r-fc3", (1, 4, 4), model_seed=1, endpoint=True),
}


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def pin_to_one_cpu() -> None:
    """Pin this process, and the threads it starts later, to one CPU.

    The client and the loopback server threads alternate and never both
    compute.  Across CPUs each frame costs a cross-CPU wake-up, which on the
    reference VM made a session 4 to 8 times slower and varied with other
    guests' load (2.2 to 4.1 ms against 0.47 to 0.53 ms pinned)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_program():
    """Import shiftextract from this checkout's src/, or exit 2."""
    if not PACKAGE.is_file():
        log(f"no program to benchmark: {PACKAGE.relative_to(ROOT)} is missing")
        raise SystemExit(2)
    sys.path.insert(0, str(PACKAGE.parent.parent))
    import shiftextract

    if Path(shiftextract.__file__).resolve() != PACKAGE.resolve():
        log(f"shiftextract imported from {shiftextract.__file__}, not from this checkout")
        raise SystemExit(2)
    return shiftextract


def import_seconds() -> float:
    """Median cold import time of the package, each in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import shiftextract; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code, str(PACKAGE.parent.parent)],
                             cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class CallCounter:
    """Counts calls of a wrapped function, from any thread."""

    def __init__(self) -> None:
        self.n = 0
        self._lock = threading.Lock()

    def wrap(self, fn):
        def counted(*args, **kwargs):
            with self._lock:
                self.n += 1
            return fn(*args, **kwargs)
        return counted


@dataclass
class Attack:
    setup_s: float
    extract_s: float
    teardown_s: float
    counted: int
    report: object
    extracted: object
    truth: object


class Bench:
    def __init__(self, sx, workload: str, seed: int):
        self.sx = sx
        self.wl = WORKLOADS[workload]
        self.seed = seed
        # Backend calls counted from outside the attack: forward passes of
        # the in-process oracle, sessions served on the wire.
        self.counter = CallCounter()
        import shiftextract.harness as harness
        import shiftextract.protocol as protocol

        self.harness, self.protocol = harness, protocol
        if self.wl.endpoint:
            protocol._serve_session = self.counter.wrap(protocol._serve_session)
        else:
            harness.forward_label = self.counter.wrap(harness.forward_label)

    def model(self):
        return self.sx.random_model(self.wl.arch, self.wl.shape, seed=self.wl.model_seed)

    def config(self, truth):
        wl, sx = self.wl, self.sx
        cfg = sx.ExperimentConfig(arch=wl.arch, input_shape=wl.shape, model_seed=wl.model_seed,
                                  attack_seed=self.seed)
        if wl.fixed_attack_seed is not None:
            cfg.attack_seed = wl.fixed_attack_seed
            layers = sx.default_target_layers(truth.skeleton())
            cfg.layers = [layers[i] for i in np.random.default_rng(self.seed).permutation(len(layers))]
        return cfg

    def attack(self) -> Attack:
        """One attack: set-up (model, server, handshake), extraction, teardown."""
        t0 = perf_counter()
        truth = self.model()
        cfg = self.config(truth)
        server = None
        try:
            if self.wl.endpoint:
                server = self.protocol.serve(truth, seed=self.seed)
                cfg.backend = "endpoint"
                cfg.endpoint = "%s:%d" % server.address
                self.protocol.connect(cfg.endpoint).close()  # handshake: the server answers
            self.counter.n = 0
            t1 = perf_counter()
            report, extracted = self.harness.run_attack(cfg, truth=truth)
            t2 = perf_counter()
        finally:
            if server is not None:
                server.stop()
        t3 = perf_counter()
        return Attack(t1 - t0, t2 - t1, t3 - t2, self.counter.n, report, extracted, truth)

    def check(self, a: Attack) -> CheckResult:
        sx, truth, report = self.sx, a.truth, a.report
        terminal = truth.layer(truth.argmax_id).inputs[0]
        param_layers = [s for s in truth.topo_order if s.kind in (sx.KIND_CONV, sx.KIND_FC)]
        resolved = {l.layer_id for l in report.layers if l.error is None}
        res = check_extraction(
            [LayerParams(s.id, s.bias, s.weight) for s in param_layers],
            {i: LayerParams(i, a.extracted.layer(i).bias, a.extracted.layer(i).weight) for i in resolved},
            terminal,
        )
        res.problems += check_accounting(a.counted, report.total_queries, [l.queries for l in report.layers],
                                         res.attempted - res.unresolved, report.total_params)
        for layer, index, err in res.failures[:10]:
            log(f"  failed: layer {layer} {index} relative error {err:.4g}")
        for p in res.problems:
            log(f"  INCORRECT: {p}")
        return res

    def probe_inputs(self):
        """Seeded random inputs for the protocol probe, with their in-process labels."""
        truth = self.model()
        rng = np.random.default_rng((self.seed, 0xB0))
        xs = [rng.standard_normal(truth.input_shape) for _ in range(PROBE_SESSIONS)]
        return truth, xs, [self.sx.forward_label(truth, self.sx.QueryInput(x)) for x in xs]

    def run_probe(self, truth, xs, want) -> list[str]:
        """Serve the model on loopback, one session per input; labels must
        match the in-process ones."""
        server = self.protocol.serve(truth, seed=self.seed)
        try:
            conn = self.protocol.connect("%s:%d" % server.address)
            try:
                got = [conn.infer(x) for x in xs]
            finally:
                conn.close()
        finally:
            server.stop()
        bad = sum(g != w for g, w in zip(got, want))
        return [f"protocol probe: {bad} of {len(xs)} labels differ from in-process"] if bad else []


def summarize(a: Attack, res) -> str:
    r = a.report
    return (f"attack: setup {a.setup_s:.4f}s extract {a.extract_s:.3f}s teardown {a.teardown_s:.4f}s "
            f"queries {r.total_queries} params {r.total_params} ({r.calls_per_param:.2f}/param) "
            f"failed {res.failed}/{res.attempted}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sx = import_program()
    end_to_end, per_layer = metric_units()
    pin_to_one_cpu()
    imp = import_seconds()
    bench = Bench(sx, args.workload, args.seed)
    totals = {"correct": True, "attempted": 0, "failed": 0}

    def run_checked(label: str) -> Attack:
        a = bench.attack()
        res = bench.check(a)
        totals["attempted"] += res.attempted
        totals["failed"] += res.failed
        totals["correct"] = totals["correct"] and res.correct
        log(label + summarize(a, res))
        return a

    t_start = perf_counter()
    if not args.trace:
        # whole attacks until the time is up, at least one
        attacks = [run_checked("")]
        while perf_counter() - t_start < args.seconds:
            attacks.append(run_checked(""))
        med = lambda f: statistics.median(f(a) for a in attacks)
        values = {
            "setup_s": imp + med(lambda a: a.setup_s),
            "extract_s": med(lambda a: a.extract_s),
            "wall_s": imp + med(lambda a: a.setup_s + a.extract_s + a.teardown_s),
            "calls_per_param": med(lambda a: a.report.calls_per_param),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = end_to_end
    else:
        values, problems = traced_run(bench, args, run_checked, t_start)
        for p in problems:
            log(f"  INCORRECT: {p}")
        totals["correct"] = totals["correct"] and not problems
        units = per_layer
    missing = set(units) - set(values)
    if missing:
        log(f"metrics not measured: {sorted(missing)}")
        return 1
    totals["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps(totals))
    return 0


def traced_run(bench: Bench, args, run_checked, t_start) -> tuple[dict[str, float], list[str]]:
    """Pairs of one untraced and one traced attack until the time is up; an
    in-process workload adds a traced protocol probe.  Returns the median
    per-layer metrics and the probe's problems.  Alternating the pairs keeps
    the machine's drift out of the tracing overhead."""
    from tracing import Tracer, attack_metrics, protocol_metrics

    tracer = Tracer()
    records, per_attack, traced_s, untraced_s = [], [], [], []
    probe, problems = None, []
    while True:
        untraced_s.append(run_checked("untraced ").extract_s)
        tracer.install()
        try:
            a = run_checked("traced ")
        finally:
            tracer.uninstall()
        rec = tracer.dump()
        tracer.reset()
        m = attack_metrics(rec)
        if bench.wl.endpoint:
            m.update(protocol_metrics(rec))
        records.append(rec)
        per_attack.append(m)
        traced_s.append(a.extract_s)
        if perf_counter() - t_start >= args.seconds:
            break
    if not bench.wl.endpoint:
        # The in-process attack sends nothing over the wire; here the
        # protocol metrics describe a fixed loopback probe of the model.
        inputs = bench.probe_inputs()
        tracer.install()
        try:
            problems = bench.run_probe(*inputs)
        finally:
            tracer.uninstall()
        probe = tracer.dump()

    metrics = {k: statistics.median(m[k] for m in per_attack) for k in per_attack[0]}
    if probe is not None:
        metrics.update(protocol_metrics(probe))
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "attacks": records,
                               "probe": probe, "metrics": metrics}))
    for k in sorted(metrics):
        log(f"  {k:40s} {metrics[k]:.6g}")
    log(f"trace written to {out.relative_to(ROOT)}")
    return metrics, problems


if __name__ == "__main__":
    raise SystemExit(main())
