#!/usr/bin/env python3
"""One-off reference figures for README.md (not part of a benchmark run).

    python3 perfbench/reference.py            # backends and server latency, ~1 min
    python3 perfbench/reference.py --full     # plus the criterion-1 attack, ~3 min

Prints microseconds per label query for the in-process, memory-transport and
loopback-socket backends, InferenceServer.start/stop latency and, with
--full, wall seconds, queries and calls per parameter of criterion 1
(conv8x3x3-r-fc32-r-fc4 on 3x8x8, model seed 7, attack seed 11).
"""

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import shiftextract as sx  # noqa: E402
from shiftextract.protocol import connect, run_session, serve  # noqa: E402


def per_call_us(fn, n: int) -> float:
    t0 = perf_counter()
    for _ in range(n):
        fn()
    return 1e6 * (perf_counter() - t0) / n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--full", action="store_true")
    args = ap.parse_args()

    truth = sx.random_model("conv8x3x3-r-fc32-r-fc4", (3, 8, 8), seed=7)
    x = np.random.default_rng(0).standard_normal(truth.input_shape)
    q = sx.QueryInput(x)
    print(f"in-process forward_label: {per_call_us(lambda: sx.forward_label(truth, q), 2000):.1f} us/query")
    print(f"memory-transport run_session: {per_call_us(lambda: run_session(truth, x), 300):.1f} us/query")
    server = serve(truth, seed=0)
    try:
        conn = connect("%s:%d" % server.address)
        try:
            print(f"loopback-socket session: {per_call_us(lambda: conn.infer(x), 1000):.1f} us/query")
        finally:
            conn.close()
    finally:
        server.stop()

    starts, stops = [], []
    for _ in range(5):
        t0 = perf_counter()
        server = serve(truth, seed=0)
        t1 = perf_counter()
        server.stop()
        starts.append(t1 - t0)
        stops.append(perf_counter() - t1)
    print(f"InferenceServer.start: {1e3 * statistics.median(starts):.2f} ms, "
          f"stop: {statistics.median(stops):.3f} s (median of 5, no connection open)")

    if args.full:
        cfg = sx.ExperimentConfig(arch="conv8x3x3-r-fc32-r-fc4", input_shape=(3, 8, 8), model_seed=7,
                                  attack_seed=11)
        t0 = perf_counter()
        report, _ = sx.run_attack(cfg, truth=truth)
        wall = perf_counter() - t0
        print(f"criterion 1: {wall:.1f} s, {report.total_queries} queries, {report.total_params} params, "
              f"{report.calls_per_param:.1f} calls/param")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
