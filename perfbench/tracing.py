"""In-memory tracing of one extraction, installed from outside the program.

``Tracer.install`` wraps public functions of the program's layers by
replacing module and class attributes, and ``uninstall`` puts the originals
back.  Two kinds of record are kept:

* spans, for calls that happen at most a few thousand times per attack
  (calibration, per-layer extraction, critical searches, feature scans):
  name, start, end, parent span and the oracle query counter at both ends.
  A span's self time is its duration minus the durations of its child
  spans.  Spans are recorded on the calling thread's stack; the attack runs
  on one thread.
* counters, for calls made once or more per query (forward passes, shift
  merges, linear layers, queries, protocol frames and sessions): per name,
  calls, seconds and one extra sum (bytes for frames), kept per thread so
  that the server threads never share a counter with the client.

Nothing is written while tracing; ``dump`` returns the records at the end.
"""

from __future__ import annotations

import functools
import statistics
import threading
from time import perf_counter

import shiftextract.extract as sx_extract
import shiftextract.harness as sx_harness
import shiftextract.model as sx_model
import shiftextract.oracle as sx_oracle
import shiftextract.protocol as sx_protocol

_FRAME_HEADER = 9  # <u8 tag, u32 layer id, u32 payload length>


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget all records; wrappers stay installed."""
        with self._lock:
            self._tables: list[dict] = []
            self._local = threading.local()
        self.spans: list[dict] = []
        self.session_us: list[float] = []
        self.queries = 0

    # -- records ---------------------------------------------------------

    def _table(self) -> dict:
        local = self._local
        table = getattr(local, "table", None)
        if table is None:
            table = local.table = {}
            with self._lock:
                self._tables.append(table)
        return table

    def _add(self, name: str, seconds: float, extra: float = 0.0) -> None:
        row = self._table().setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += seconds
        row[2] += extra

    def counters(self) -> dict[str, list]:
        """Counter rows summed over threads: name -> [calls, seconds, extra]."""
        out: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (n, s, x) in list(table.items()):
                row = out.setdefault(name, [0, 0.0, 0.0])
                row[0] += n
                row[1] += s
                row[2] += x
        return out

    # -- wrappers --------------------------------------------------------

    def _counted(self, name, fn, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(name, perf_counter() - t0, extra(args) if extra else 0.0)
        return wrapper

    def _span(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            rec = {"name": name, "start": perf_counter(), "end": None,
                   "parent": stack[-1] if stack else None, "q0": self.queries, "q1": None,
                   "outcome": "ok"}
            if attrs:
                rec.update(attrs(args, None))
            stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if attrs:
                    rec.update(attrs(args, result))
                return result
            except BaseException as e:
                rec["outcome"] = type(e).__name__
                raise
            finally:
                rec["end"] = perf_counter()
                rec["q1"] = self.queries
                stack.pop()
        return wrapper

    def _query(self, fn):
        @functools.wraps(fn)
        def wrapper(handle, v):
            self.queries += 1
            t0 = perf_counter()
            try:
                return fn(handle, v)
            finally:
                self._add("oracle.query", perf_counter() - t0)
        return wrapper

    def _session(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._add("protocol.session", dt)
                self.session_us.append(dt * 1e6)
        return wrapper

    def _server_session(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._local.in_session = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add("protocol.server_session", perf_counter() - t0)
                self._local.in_session = False
        return wrapper

    def _recv(self, fn):
        main = threading.main_thread()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                if threading.current_thread() is main:
                    self._add("protocol.recv.client", dt)
                elif getattr(self._local, "in_session", False):
                    self._add("protocol.recv.server_in_session", dt)
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        m, o, p, h, x = sx_model, sx_oracle, sx_protocol, sx_harness, sx_extract

        # model: every reference the program calls through
        for mod in (m, h, o):
            self._patch(mod, "forward_label", self._counted("model.forward_label", getattr(mod, "forward_label")))
        for mod in (m, h):
            self._patch(mod, "forward_trace", self._counted("model.forward_trace", getattr(mod, "forward_trace")))
        for mod in (m, p):
            self._patch(mod, "apply_linear", self._counted("model.linear", getattr(mod, "apply_linear")))
        self._patch(m.QueryInput, "shifted", self._counted("model.shift_merge", m.QueryInput.shifted))

        # oracle
        self._patch(o.OracleHandle, "query", self._query(o.OracleHandle.query))
        self._patch(o.OracleHandle, "is_critical", self._counted("oracle.tie_test", o.OracleHandle.is_critical))
        self._patch(p.RemoteOracle, "__call__", self._counted("oracle.remote_backend", p.RemoteOracle.__call__))

        # harness and extract
        self._patch(h, "resolve_sphere_norm", self._span("harness.calibration", h.resolve_sphere_norm))
        layer_attrs = lambda args, res: {"layer": int(args[2])}  # (oracle, skeleton, layer_id, ...)
        self._patch(h, "extract_conv_layer", self._span("extract.layer", h.extract_conv_layer, layer_attrs))
        self._patch(h, "extract_fc_layer", self._span("extract.layer", h.extract_fc_layer, layer_attrs))
        last_attrs = lambda args, res: {} if res is None else {"layer": int(res.layer_id)}
        self._patch(h, "extract_last_layer", self._span("extract.last_layer", h.extract_last_layer, last_attrs))
        self._patch(x, "search_critical", self._span("extract.critical_search", x.search_critical))
        branch = lambda kind: lambda args, res: {"scan": kind} if res is None else {"branch": res.branch}
        self._patch(x, "extract_feature", self._span("extract.feature_scan", x.extract_feature, branch("relu")))
        self._patch(x, "extract_feature_maxpool",
                    self._span("extract.feature_scan", x.extract_feature_maxpool, branch("maxpool")))

        # protocol
        self._patch(p.ClientConnection, "__init__", self._counted("protocol.connect", p.ClientConnection.__init__))
        self._patch(p.ClientConnection, "infer", self._session(p.ClientConnection.infer))
        self._patch(p.SocketTransport, "send_frame",
                    self._counted("protocol.send_frame", p.SocketTransport.send_frame,
                                  lambda args: _FRAME_HEADER + len(args[3])))
        self._patch(p.SocketTransport, "recv_frame", self._recv(p.SocketTransport.recv_frame))
        self._patch(p, "_serve_session", self._server_session(p._serve_session))
        self._patch(p.InferenceServer, "start", self._counted("protocol.server_start", p.InferenceServer.start))
        self._patch(p.InferenceServer, "stop", self._counted("protocol.server_stop", p.InferenceServer.stop))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters(), "session_us": self.session_us}


# ---------------------------------------------------------------------------
# Per-layer metrics


def self_times(spans: list[dict]) -> list[tuple[float, int]]:
    """(self seconds, self queries) of every span: its own duration and
    query count minus those of its direct children."""
    out = [[s["end"] - s["start"], s["q1"] - s["q0"]] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]][0] -= s["end"] - s["start"]
            out[s["parent"]][1] -= s["q1"] - s["q0"]
    return [(t, q) for t, q in out]


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def attack_metrics(rec: dict) -> dict[str, float]:
    """Model, oracle, extract and harness metrics of one traced attack."""
    c = rec["counters"]
    row = lambda name: c.get(name, [0, 0.0, 0.0])
    spans = rec["spans"]
    selfs = self_times(spans)
    fwd_n = row("model.forward_label")[0] + row("model.forward_trace")[0]
    fwd_s = row("model.forward_label")[1] + row("model.forward_trace")[1]
    queries = row("oracle.query")[0]
    backend_s = row("model.forward_label")[1] + row("oracle.remote_backend")[1]
    m = {
        "model.forward_calls": fwd_n,
        "model.forward_s": fwd_s,
        "model.forward_us": 1e6 * fwd_s / fwd_n,
        "model.shift_merge_calls": row("model.shift_merge")[0],
        "model.shift_merge_s": row("model.shift_merge")[1],
        "model.linear_s": row("model.linear")[1],
        "oracle.queries": queries,
        "oracle.tie_tests": row("oracle.tie_test")[0],
        "oracle.query_s": row("oracle.query")[1],
        "oracle.overhead_us": 1e6 * (row("oracle.query")[1] - backend_s) / queries,
    }

    def total(name, pick):
        return sum(pick(i) for i, s in enumerate(spans) if s["name"] == name)

    for name, key in (("extract.critical_search", "critical_search"), ("extract.feature_scan", "feature_scan")):
        m[f"extract.{key}.calls"] = total(name, lambda i: 1)
        m[f"extract.{key}.queries"] = total(name, lambda i: selfs[i][1])
        m[f"extract.{key}.s"] = total(name, lambda i: selfs[i][0])

    # A relu scan is one attempt; a maxpool scan makes one attempt per fresh
    # critical point it searches.  An attempt is useful when it returns a
    # measured value (not a fallback, not a dead feature).
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)
    attempts = useful = retries = dead = 0
    for i, s in enumerate(spans):
        if s["name"] != "extract.feature_scan":
            continue
        tries = 1 if s["scan"] == "relu" else sum(spans[j]["name"] == "extract.critical_search"
                                                  for j in children.get(i, ()))
        attempts += tries
        ok = s["outcome"] == "ok" and s.get("branch") != "fallback"
        useful += 1 if ok else 0
        dead += 1 if s["outcome"] == "DeadFeatureError" else 0
        retries += (tries - 1) if s["scan"] == "maxpool" else (1 if s["outcome"] == "ScanRetryError" else 0)
    m["extract.scan_retries"] = retries
    m["extract.dead_features"] = dead
    m["extract.useful_scan_ratio"] = useful / attempts

    for i, s in enumerate(spans):
        if s["name"] in ("extract.layer", "extract.last_layer"):
            prefix = "extract.last_layer" if s["name"] == "extract.last_layer" else f"extract.layer.{s['layer']}"
            m[f"{prefix}.queries"] = s["q1"] - s["q0"]
            m[f"{prefix}.s"] = s["end"] - s["start"]
    m["harness.calibration_s"] = total("harness.calibration", lambda i: spans[i]["end"] - spans[i]["start"])
    return m


def protocol_metrics(rec: dict) -> dict[str, float]:
    """Protocol metrics of one traced window (an attack or a probe)."""
    c = rec["counters"]
    row = lambda name: c.get(name, [0, 0.0, 0.0])
    us = rec["session_us"]
    return {
        "protocol.sessions": row("protocol.session")[0],
        "protocol.session_us.p50": statistics.median(us),
        "protocol.session_us.p99": _quantile(us, 0.99),
        "protocol.session_us.samples": len(us),
        "protocol.frames": row("protocol.send_frame")[0],
        "protocol.bytes_sent": row("protocol.send_frame")[2],
        "protocol.recv_wait_s": row("protocol.recv.client")[1],
        "protocol.server_compute_s": row("protocol.server_session")[1] - row("protocol.recv.server_in_session")[1],
        "protocol.connects": row("protocol.connect")[0],
        "protocol.server_start_s": row("protocol.server_start")[1],
        "protocol.server_stop_s": row("protocol.server_stop")[1],
    }
