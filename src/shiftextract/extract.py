"""Parameter recovery through safe-error probing of a label-only oracle.

The attack works per layer and needs nothing but the architecture and the
oracle.  It pins the service to a decision boundary between two classes
(``search_critical``), then measures hidden pre-activation values one at a
time: a shift pattern is injected that cancels exactly while the hidden
value is on one side of zero, and the scalar magnitude at which the
cancellation stops is located by doubling and bisection
(``extract_feature``).  Layer drivers steer what the hidden values are:
suppressing all upstream activations pins a layer's input to zero so its
biases appear directly, and injected test patterns turn individual weights
into measurable features.

Every scalar search of the attack (the flip of a feature scan, the tie
polish of a critical point, the tying shift of a terminal class pair) is
one primitive, ``_find_flip``: double a step until a predicate flips, then
bisect the last bracket.  A scan that behaves inconsistently is repeated
from a fresh critical point by ``_with_retries``, which falls back to the
last uncorrected estimate when every attempt fails.  Convolution and
fully-connected layers share one driver (``_extract_layer``) and one phase
runner (``_run_phase``): a phase searches one critical point, measures each
of its targets, records dead and retried slots, and spreads the search's
queries over the targets.

Two systematic error sources are handled explicitly.  The class tie left by
chord bisection is polished to float precision by nudging one logit, because
a residual gap biases every later measurement by gap/slope.  The flip of the
two-probe criticality test lags the true boundary by probe/slope, so each
boundary is measured twice (probe magnitudes eps and 2*eps) and extrapolated
back; the lag cancels exactly while the network stays in one linear piece.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .model import (
    KIND_ADD,
    KIND_CONV,
    KIND_FC,
    KIND_INPUT,
    KIND_MPR,
    KIND_RELU,
    POST,
    PRE,
    ModelGraph,
    QueryInput,
    ShiftSet,
    pooled_receivers,
)
from .oracle import CriticalPoint, OracleHandle


class ExtractionError(RuntimeError):
    """Base class for attack-side failures."""


class BoundarySearchError(ExtractionError):
    """No usable class boundary: unreachable at this norm, or a corner."""


class DeadFeatureError(ExtractionError):
    """The target feature has no observable influence on the tied logits.
    ``retried`` is set when an earlier attempt at the feature failed."""

    retried = False


class SuppressionFloorError(ExtractionError):
    """The target feature lies below the suppression constant."""


class ScanRetryError(ExtractionError):
    """A boundary scan behaved inconsistently; retry from a fresh critical
    point.  ``fallback`` carries the uncorrected single-scan estimate when
    one exists."""

    def __init__(self, message: str, fallback: float | None = None):
        super().__init__(message)
        self.fallback = fallback


class _ScanExhausted(Exception):
    """``_find_flip`` passed its cap without a flip."""


@dataclass(frozen=True)
class BoundarySearchConfig:
    """Knobs for boundary searches and feature scans.

    ``sphere_norm`` is the radius of the random logit-shift sphere used to
    find a class boundary (None means: let the harness calibrate, or fall
    back to 10 on an O(1) logit scale).  ``eta_tol`` is the absolute
    bisection tolerance of feature scans; ``eta_initial_step`` the first
    doubling step; ``eta_max`` the scan give-up bound that flags dead
    features.  ``scan_probe`` is the tie-test magnitude used inside scans:
    it must clear forward-pass float noise (~1e-13 over the masked
    protocol) but stay tiny, because a wider tie band both lags the flip by
    band/slope and risks locking onto a spurious re-entry of the drifting
    logit gap into the band.  ``suppression`` is the large negative constant
    pinning ReLU outputs to zero and must exceed reachable features by a
    wide margin, validated against ``feature_bound`` (100x margin).
    ``conv_delta`` / ``fc_delta`` override the injected pattern amplitudes
    sqrt(n_in*kh*kw/4) and sqrt(n_in/4).
    """

    sphere_norm: float | None = None
    boundary_tol: float = 1e-10
    tie_polish_tol: float = 1e-13
    eta_tol: float = 1e-12
    eta_initial_step: float = 1.024e-5
    eta_max: float = 1e4
    scan_probe: float = 1e-11
    sign_probe: float = 1.0
    max_retries: int = 5
    max_sample_rounds: int = 64
    suppression: float = 1e6
    feature_bound: float = 1e3
    conv_delta: float | None = None
    fc_delta: float | None = None

    def resolved(self) -> "BoundarySearchConfig":
        return self if self.sphere_norm is not None else replace(self, sphere_norm=10.0)


@dataclass
class FeatureResult:
    """One recovered pre-activation value with its scan diagnostics."""

    value: float
    queries: int
    branch: str  # "nonpositive" | "positive"
    slope: float | None = None
    retried: bool = False


@dataclass(frozen=True)
class SuppressionPlan:
    """Shifts that pin a layer's input to zero.

    ``sources`` are the suppressed non-linear layers (both branches when the
    input arrives through an Add).  ``input_mode`` marks a first layer whose
    input is the model input itself and is steered through x0 instead.
    """

    shifts: ShiftSet
    sources: tuple[int, ...]
    input_mode: bool


@dataclass
class LayerExtractionResult:
    layer_id: int
    kind: str
    bias: np.ndarray
    weight: np.ndarray
    bias_queries: np.ndarray
    weight_queries: np.ndarray
    dead: list = field(default_factory=list)
    retried: list = field(default_factory=list)
    gauge_fixed: bool = False

    @property
    def total_queries(self) -> int:
        return int(self.bias_queries.sum() + self.weight_queries.sum())

    def bias_param_count(self) -> int:
        n = self.bias.size
        return n - 1 if self.gauge_fixed else n

    def weight_param_count(self) -> int:
        n = self.weight.size
        if self.gauge_fixed:
            n -= self.weight.shape[1]
        return n


# ---------------------------------------------------------------------------
# Criticality scans


def _find_flip(
    flipped: Callable[[float], bool], start: float, step: float, cap: float, tol: float
) -> float:
    """The point s > ``start`` where ``flipped(s)`` turns true, to ``tol``.

    The step doubles from ``start`` (probing start + step, start + 2 step,
    start + 4 step, ...) until the predicate flips; the last unflipped and
    the first flipped point are then bisected until they lie within ``tol``
    or float resolution, and their midpoint is returned.  Raises
    ``_ScanExhausted`` once start + step exceeds ``cap``.  The predicate may
    raise to abort the search.
    """
    lo = start
    while True:
        hi = start + step
        if hi > cap:
            raise _ScanExhausted()
        if flipped(hi):
            break
        lo = hi
        step *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats: no midpoint left to test
        if flipped(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _two_probe(oracle: OracleHandle, v: QueryInput, c1: int, c2: int, eps: float) -> bool:
    """Full tie test: both nudges keep their class.  Two queries."""
    l1 = oracle.query(v.shifted(oracle.class_probe(c1, eps)))
    l2 = oracle.query(v.shifted(oracle.class_probe(c2, eps)))
    if l1 not in (c1, c2) or l2 not in (c1, c2):
        raise ScanRetryError(f"third class {l1 if l1 not in (c1, c2) else l2} intruded on the boundary")
    if l1 != c1 and l2 != c2:
        raise ScanRetryError("both probes failed at one point")
    return l1 == c1 and l2 == c2


def _flip_point(
    oracle: OracleHandle,
    at: Callable[[float], QueryInput],
    c1: int,
    c2: int,
    eps: float,
    lo: float,
    cap: float,
    cfg: BoundarySearchConfig,
) -> float:
    """Smallest eta > lo at which criticality (probe magnitude eps) breaks.

    Doubling expansion followed by bisection, both on the full two-probe
    test.  One-sided probing is not enough here: past the boundary the gap
    between the tied logits can drift, bend at downstream ReLU kinks and
    recross zero, and a single probe direction would read such a spurious
    tie as still critical and converge onto it.  The two-sided test leaves
    only probe-width islands around spurious ties, which bisection
    midpoints miss.  The tolerance is half of ``eta_tol`` so that the
    two-scan extrapolation stays within ``eta_tol``.
    """
    return _find_flip(
        lambda eta: not _two_probe(oracle, at(eta), c1, c2, eps),
        lo, cfg.eta_initial_step, cap, 0.5 * cfg.eta_tol,
    )


def _scan_boundary(
    oracle: OracleHandle,
    base: QueryInput,
    c1: int,
    c2: int,
    pre_key: tuple[int, str],
    pre_mask: np.ndarray,
    post_key: tuple[int, str],
    post_mask: np.ndarray,
    cfg: BoundarySearchConfig,
    cap: float,
) -> FeatureResult:
    """Safe-error measurement of the common value behind ``pre_mask``.

    Sign probe first: if shifting the targets down by ``sign_probe`` leaves
    the point critical, the hidden value is <= 0 and upward pre-shifts stay
    invisible until they push it past zero.  Otherwise it is positive, and
    the paired scan (pre -eta, post +eta) cancels until eta exceeds it.
    Each flip is measured at probe magnitudes eps and 2*eps and extrapolated
    to cancel the probe lag.
    """
    eps = cfg.scan_probe
    start = oracle.count
    probe_down = base.shifted(ShiftSet({pre_key: -cfg.sign_probe * pre_mask}))
    nonpositive = oracle.is_critical(probe_down, c1, c2)
    sign = -1.0 if nonpositive else 1.0

    def at(eta: float) -> QueryInput:
        if nonpositive:
            return base.shifted(ShiftSet({pre_key: eta * pre_mask}))
        return base.shifted(ShiftSet({pre_key: -eta * pre_mask, post_key: eta * post_mask}))

    try:
        eta1 = _flip_point(oracle, at, c1, c2, eps, 0.0, cap, cfg)
    except _ScanExhausted:
        if nonpositive:
            if cap < cfg.eta_max:
                raise SuppressionFloorError(
                    f"no flip below the suppression constant {cap}"
                ) from None
            raise DeadFeatureError(f"no flip up to eta_max={cfg.eta_max}") from None
        raise ScanRetryError("positive-branch scan found no flip") from None
    fallback = sign * eta1
    try:
        eta2 = _flip_point(oracle, at, c1, c2, 2.0 * eps, eta1, cap, cfg)
    except _ScanExhausted:
        raise ScanRetryError("confirmation scan found no flip", fallback=fallback) from None
    eta_hat = 2.0 * eta1 - eta2
    gap = eta2 - eta1
    if eta_hat < -(gap + 4.0 * cfg.eta_tol):
        raise ScanRetryError("scans disagree beyond their own resolution", fallback=fallback)
    return FeatureResult(
        value=sign * eta_hat,
        queries=oracle.count - start,
        branch="nonpositive" if nonpositive else "positive",
        slope=eps / gap if gap > 0 else None,
    )


# ---------------------------------------------------------------------------
# Critical point search


def _sphere_sample(rng: np.random.Generator, shape: tuple[int, ...], radius: float) -> np.ndarray:
    v = rng.standard_normal(shape)
    n = np.linalg.norm(v)
    while n < 1e-12:  # pragma: no cover
        v = rng.standard_normal(shape)
        n = np.linalg.norm(v)
    return v * (radius / n)


def _polish_tie(
    oracle: OracleHandle,
    v: QueryInput,
    c1: int,
    c2: int,
    cfg: BoundarySearchConfig,
) -> float | None:
    """Nudge logit c1 until the label flips from c2 to c1 and bisect the
    flip to ``tie_polish_tol``; the logit gap there is float-noise small.
    Returns the nudge, or None when a third class interferes or 96
    doublings of the first nudge find no flip."""

    def flipped(t: float) -> bool:
        lbl = oracle.query(v.shifted(ShiftSet.single(oracle.argmax_id, PRE, (oracle.n_classes,), c1, t)))
        if lbl not in (c1, c2):
            raise _ScanExhausted()
        return lbl == c1

    t0 = max(4.0 * cfg.boundary_tol, 1e-12)
    try:
        return _find_flip(flipped, 0.0, t0, t0 * 2.0**95, cfg.tie_polish_tol)
    except _ScanExhausted:
        return None


def search_critical(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    v0: QueryInput,
    layer_id: int,
    cfg: BoundarySearchConfig,
    rng: np.random.Generator,
) -> CriticalPoint:
    """Find a class boundary by shifting layer ``layer_id``'s input.

    Random shift pairs of norm ``sphere_norm`` are sampled until two labels
    differ, the chord between them is bisected with midpoints renormalized
    onto the sphere, the residual tie is polished through the logit surface,
    and the result is validated with the two-probe test.  Validation failure
    (a corner region) retries with fresh samples up to ``max_retries``.
    """
    cfg = cfg.resolved()
    d = cfg.sphere_norm
    shape = skeleton.pre_shape(layer_id)
    key = (layer_id, PRE)

    def sample_pair():
        """Two shifts on the sphere whose labels differ."""
        for _ in range(cfg.max_sample_rounds):
            d1 = _sphere_sample(rng, shape, d)
            d2 = _sphere_sample(rng, shape, d)
            c1 = oracle.query(v0.shifted(ShiftSet({key: d1})))
            c2 = oracle.query(v0.shifted(ShiftSet({key: d2})))
            if c1 != c2:
                return d1, c1, d2, c2
        raise BoundarySearchError(
            f"no boundary reachable at norm {d} on layer {layer_id} "
            f"after {cfg.max_sample_rounds} sample pairs"
        )

    pair = sample_pair()
    for _ in range(cfg.max_retries + 1):
        delta1, c1, delta2, c2 = pair
        while float(np.linalg.norm(delta2 - delta1)) > cfg.boundary_tol:
            mid = 0.5 * (delta1 + delta2)
            norm = float(np.linalg.norm(mid))
            if norm < 1e-12 * d:
                mid = mid + rng.standard_normal(shape) * (1e-9 * d)
                norm = float(np.linalg.norm(mid))
            mid = mid * (d / norm)
            c3 = oracle.query(v0.shifted(ShiftSet({key: mid})))
            if c3 == c1:
                delta1 = mid
            else:
                delta2, c2 = mid, c3
        v_boundary = v0.shifted(ShiftSet({key: delta2}))
        tie = _polish_tie(oracle, v_boundary, c1, c2, cfg)
        if tie is not None:
            v_star = v_boundary.shifted(
                ShiftSet.single(oracle.argmax_id, PRE, (oracle.n_classes,), c1, tie)
            )
            if oracle.is_critical(v_star, c1, c2):
                return CriticalPoint(
                    v=v_star, c1=c1, c2=c2, base=v0, layer=layer_id, boundary_shift=delta2
                )
        pair = sample_pair()  # corner region: try again from a fresh pair
    raise BoundarySearchError(
        f"corner point: boundary on layer {layer_id} failed validation {cfg.max_retries + 1} times"
    )


# ---------------------------------------------------------------------------
# Feature extraction


def _as_index(idx) -> tuple:
    return idx if isinstance(idx, tuple) else (idx,)


def _mask_at(shape: tuple[int, ...], indices: Sequence) -> np.ndarray:
    m = np.zeros(shape)
    for idx in indices:
        m[_as_index(idx)] = 1.0
    return m


def extract_feature(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    cp: CriticalPoint,
    layer_id: int,
    beta: Sequence,
    cfg: BoundarySearchConfig,
) -> FeatureResult:
    """Recover the value shared by the pre-activation features ``beta`` of
    the standalone-ReLU boundary ``layer_id`` at the critical point.

    The caller guarantees that all features in ``beta`` hold one common
    value there; shifting them jointly is a single scalar search.
    """
    spec = skeleton.layer(layer_id)
    if spec.kind != KIND_RELU:
        raise ExtractionError(f"layer {layer_id} is {spec.kind}, not a standalone ReLU boundary")
    if not beta:
        raise ExtractionError("empty target index set")
    mask = _mask_at(skeleton.pre_shape(layer_id), beta)
    return _scan_boundary(
        oracle, cp.v, cp.c1, cp.c2, (layer_id, PRE), mask, (layer_id, POST), mask, cfg.resolved(), cfg.eta_max
    )


def extract_feature_maxpool(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    cp: CriticalPoint,
    layer_id: int,
    index: tuple[int, int, int],
    cfg: BoundarySearchConfig,
    rng: np.random.Generator,
) -> FeatureResult:
    """Recover one pre-activation value of a maxpool+ReLU boundary.

    All other inputs of the pool are pushed down by the suppression
    constant, so every pooled output whose window contains ``index`` carries
    exactly ReLU of the target.  The scan then shifts the target on the
    pre side and all its receiving outputs jointly on the post side.  The
    suppression changes the downstream picture, so a fresh critical point is
    searched on top of it (from the same base query as ``cp``).
    """
    cfg = cfg.resolved()
    spec = skeleton.layer(layer_id)
    if spec.kind != KIND_MPR:
        raise ExtractionError(f"layer {layer_id} is {spec.kind}, not a maxpool boundary")
    in_shape = skeleton.pre_shape(layer_id)
    out_shape = skeleton.out_shape(layer_id)
    receivers = pooled_receivers(in_shape, spec.kernel, spec.stride, index)
    if not receivers:
        raise ExtractionError(f"index {index} feeds no pooled output")
    suppress = np.full(in_shape, -cfg.suppression)
    suppress[index] = 0.0
    base = cp.base.shifted(ShiftSet({(layer_id, PRE): suppress}))
    pre_mask = _mask_at(in_shape, [index])
    post_mask = _mask_at(out_shape, receivers)
    cap = min(cfg.eta_max, cfg.suppression)

    def attempt(_k: int) -> FeatureResult:
        cp2 = search_critical(oracle, skeleton, base, cp.layer, cfg, rng)
        return _scan_boundary(
            oracle, cp2.v, cp2.c1, cp2.c2,
            (layer_id, PRE), pre_mask, (layer_id, POST), post_mask,
            cfg, cap,
        )

    return _with_retries(oracle, attempt, cfg.max_retries)


def _with_retries(
    oracle: OracleHandle, attempt: Callable[[int], FeatureResult], max_retries: int
) -> FeatureResult:
    """Run ``attempt(k)`` for k = 0, 1, ... until one raises no
    ScanRetryError, at most ``max_retries + 1`` times.

    The result counts the queries of every attempt and is flagged
    ``retried`` when k > 0.  When every attempt fails, the last error's
    fallback comes back as a ``branch="fallback"`` result, or that error is
    re-raised when it has no fallback.  A DeadFeatureError passes through,
    flagged ``retried`` when k > 0.
    """
    start = oracle.count
    for k in range(max_retries + 1):
        try:
            res = attempt(k)
        except ScanRetryError as e:
            last = e
            continue
        except DeadFeatureError as e:
            e.retried = k > 0
            raise
        res.queries = oracle.count - start
        res.retried = k > 0
        return res
    if last.fallback is None:
        raise last
    return FeatureResult(value=last.fallback, queries=oracle.count - start, branch="fallback", retried=True)


# ---------------------------------------------------------------------------
# Input control


def zero_input_plan(skeleton: ModelGraph, layer_id: int, cfg: BoundarySearchConfig) -> SuppressionPlan:
    """Shifts pinning layer ``layer_id``'s input to exactly zero.

    Every non-linear layer feeding the input (both branches of an Add) gets
    the suppression constant subtracted from its pre-activations, so its
    outputs become zero and controlled values can be injected through one
    predecessor's post side.  A first layer has no such predecessors and is
    controlled through the model input instead (``input_mode``).
    """
    cfg = cfg.resolved()
    if cfg.suppression < 100.0 * cfg.feature_bound:
        raise ExtractionError(
            f"suppression {cfg.suppression} lacks the 100x margin over feature bound {cfg.feature_bound}"
        )
    spec = skeleton.layer(layer_id)
    if spec.kind not in (KIND_CONV, KIND_FC):
        raise ExtractionError(f"layer {layer_id} ({spec.kind}) has no parameters to isolate")
    pred = skeleton.layer(spec.inputs[0])
    if pred.kind == KIND_INPUT:
        return SuppressionPlan(ShiftSet(), (), True)
    sources = pred.inputs if pred.kind == KIND_ADD else (pred.id,)
    shifts = ShiftSet()
    for src in sources:
        shifts = shifts + ShiftSet.constant(src, PRE, skeleton.pre_shape(src), -cfg.suppression)
    return SuppressionPlan(shifts, tuple(sources), False)


def _controlled_query(
    skeleton: ModelGraph, plan: SuppressionPlan, inject: np.ndarray | None
) -> QueryInput:
    """Query with the planned layer's input equal to ``inject`` (or zero)."""
    x0 = np.zeros(skeleton.input_shape)
    if plan.input_mode:
        if inject is not None:
            x0 = inject.reshape(skeleton.input_shape)
        return QueryInput(x0)
    shifts = plan.shifts
    if inject is not None:
        src = plan.sources[0]
        shifts = shifts + ShiftSet({(src, POST): inject.reshape(skeleton.out_shape(src))})
    return QueryInput(x0, shifts)


# ---------------------------------------------------------------------------
# Layer drivers


def _nonlinear_successor(skeleton: ModelGraph, layer_id: int):
    succ = skeleton.successors(layer_id)
    if len(succ) != 1:
        raise ExtractionError(f"layer {layer_id} has {len(succ)} consumers, expected one")
    nxt = skeleton.layer(succ[0])
    if nxt.kind not in (KIND_RELU, KIND_MPR):
        raise ExtractionError(
            f"layer {layer_id} feeds {nxt.kind}; only ReLU or MaxPoolReLU boundaries are extractable here"
        )
    return nxt


def _apportion(counts: np.ndarray, slots: Sequence, total: int) -> None:
    """Spread ``total`` shared queries over parameter slots, exactly."""
    if not slots or total <= 0:
        return
    base, rem = divmod(total, len(slots))
    for j, idx in enumerate(slots):
        counts[idx] += base + (1 if j < rem else 0)


def _run_phase(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    succ,
    v0: QueryInput,
    targets: Sequence,
    values: np.ndarray,
    counts: np.ndarray,
    flags: LayerExtractionResult,
    cfg: BoundarySearchConfig,
    rng: np.random.Generator,
) -> None:
    """Measure every ``(slot, target)`` of one phase into ``values[slot]``.

    One critical point is searched from ``v0`` and shared by all targets.
    A standalone-ReLU successor scans each target at that point, and a
    failed scan rebuilds it (the rebuilt point serves the later targets
    too).  A maxpool successor searches a fresh point per attempt on top of
    its suppression and uses the shared one only for its base query.  A
    dead feature reads 0.0 and is listed in ``flags.dead``; a feature whose
    scan needed another attempt is listed in ``flags.retried`` and reads
    the successful value, the fallback, or 0.0.  Each slot is charged its
    own queries plus its share of the shared search.
    """

    def search() -> CriticalPoint:
        return search_critical(oracle, skeleton, v0, skeleton.argmax_id, cfg, rng)

    t0 = oracle.count
    cp = search()
    shared = oracle.count - t0
    for slot, target in targets:
        t1 = oracle.count
        try:
            if succ.kind == KIND_MPR:
                res = extract_feature_maxpool(oracle, skeleton, cp, succ.id, target, cfg, rng)
            else:
                def attempt(k: int) -> FeatureResult:
                    nonlocal cp
                    if k > 0:
                        cp = search()
                    return extract_feature(oracle, skeleton, cp, succ.id, target, cfg)

                res = _with_retries(oracle, attempt, cfg.max_retries)
            value, retried = res.value, res.retried
        except DeadFeatureError as e:
            flags.dead.append(slot)
            value, retried = 0.0, e.retried
        except ScanRetryError:
            value, retried = 0.0, True
        if retried:
            flags.retried.append(slot)
        values[slot] = value
        counts[slot] += oracle.count - t1
    _apportion(counts, [slot for slot, _ in targets], shared)


def _extract_layer(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    layer_id: int,
    succ,
    amplitude: float,
    bias_targets: Sequence,
    weight_phases,
    cfg: BoundarySearchConfig,
    rng: np.random.Generator,
) -> LayerExtractionResult:
    """The driver shared by convolution and fully-connected layers.

    The bias phase runs with the layer's input pinned to zero, so target
    ``(slot, beta)`` reads bias[slot].  Each weight phase is a pair
    ``(inject, targets)``: with the input set to ``inject``, a target reads
    bias[c] + amplitude * weight[slot] for its output channel c = slot[0].
    """
    spec = skeleton.layer(layer_id)
    plan = zero_input_plan(skeleton, layer_id, cfg)
    shape = spec.weight.shape
    res = LayerExtractionResult(
        layer_id=layer_id,
        kind=spec.kind,
        bias=np.zeros(shape[0]),
        weight=np.zeros(shape),
        bias_queries=np.zeros(shape[0], dtype=np.int64),
        weight_queries=np.zeros(shape, dtype=np.int64),
    )
    v0 = _controlled_query(skeleton, plan, None)
    _run_phase(oracle, skeleton, succ, v0, bias_targets, res.bias, res.bias_queries, res, cfg, rng)
    for inject, targets in weight_phases:
        v0 = _controlled_query(skeleton, plan, inject)
        _run_phase(oracle, skeleton, succ, v0, targets, res.weight, res.weight_queries, res, cfg, rng)
    # the weight phases stored raw readings bias[c] + amplitude * weight
    bias = res.bias.reshape((-1,) + (1,) * (len(shape) - 1))
    res.weight = (res.weight - bias) / amplitude
    return res


def _aligned_axis(f: int, k: int, kidx: int) -> list[int]:
    """Output positions reading kernel offset ``kidx`` under the periodic
    injection, restricted to full kernel support inside the map."""
    k2 = (k - 1) // 2
    return [p for p in range(k2, f - k2) if (p - k + 1 + kidx) % k == 0]


def conv_injection_pattern(fh: int, fw: int, kh: int, kw: int, amplitude: float) -> np.ndarray:
    """Per-channel test pattern: ``amplitude`` at every position congruent to
    the kernel center modulo the kernel size, zero elsewhere."""
    a = np.zeros((fh, fw))
    a[(kh - 1) // 2 :: kh, (kw - 1) // 2 :: kw] = amplitude
    return a


def extract_conv_layer(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    layer_id: int,
    cfg: BoundarySearchConfig,
    rng: np.random.Generator,
) -> LayerExtractionResult:
    """Recover a convolution layer's bias and weights.

    Bias: with the layer's input pinned to zero, every spatial position of
    output channel c holds bias[c]; all of them are measured jointly.
    Weights: per input channel, a periodic pattern of amplitude delta makes
    the aligned output positions hold bias[c] + delta * w[c, c_in, ki, kj],
    one kernel tap each.  Maps too small for the periodic pattern, and
    maxpool-fed layers (one target index at a time), fall back to a single
    centered injection whose aligned output position isolates each tap.
    """
    cfg = cfg.resolved()
    spec = skeleton.layer(layer_id)
    if spec.kind != KIND_CONV:
        raise ExtractionError(f"layer {layer_id} is {spec.kind}, not a convolution")
    succ = _nonlinear_successor(skeleton, layer_id)
    maxpool = succ.kind == KIND_MPR
    n_out, n_in, kh, kw = spec.weight.shape
    _, fh, fw = skeleton.out_shape(layer_id)
    amplitude = cfg.conv_delta if cfg.conv_delta is not None else math.sqrt(n_in * kh * kw / 4.0)
    periodic = not maxpool and fh >= 2 * kh - 1 and fw >= 2 * kw - 1
    ic, jc = fh // 2, fw // 2

    if maxpool:
        bias_targets = [((c,), (c, ic, jc)) for c in range(n_out)]
    else:
        bias_targets = [((c,), [(c, i, j) for i in range(fh) for j in range(fw)]) for c in range(n_out)]

    def weight_phases():
        """One phase per input channel, one target per kernel tap."""
        for c_in in range(n_in):
            inject = np.zeros((n_in, fh, fw))
            if periodic:
                inject[c_in] = conv_injection_pattern(fh, fw, kh, kw, amplitude)
            else:
                inject[c_in, ic, jc] = amplitude
            targets = []
            for c_out, ki, kj in itertools.product(range(n_out), range(kh), range(kw)):
                if periodic:
                    rows, cols = _aligned_axis(fh, kh, ki), _aligned_axis(fw, kw, kj)
                    target = [(c_out, i, j) for i in rows for j in cols]
                else:
                    pos = (c_out, ic - ki + (kh - 1) // 2, jc - kj + (kw - 1) // 2)
                    target = pos if maxpool else [pos]
                targets.append(((c_out, c_in, ki, kj), target))
            yield inject, targets

    return _extract_layer(oracle, skeleton, layer_id, succ, amplitude, bias_targets, weight_phases(), cfg, rng)


def extract_fc_layer(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    layer_id: int,
    cfg: BoundarySearchConfig,
    rng: np.random.Generator,
) -> LayerExtractionResult:
    """Recover a fully-connected layer's bias and weights.

    With the input pinned to zero each output j reads bias[j]; with a single
    input feature set to the injection amplitude, output j reads
    bias[j] + amplitude * w[j, i0], one column per critical point.
    """
    cfg = cfg.resolved()
    spec = skeleton.layer(layer_id)
    if spec.kind != KIND_FC:
        raise ExtractionError(f"layer {layer_id} is {spec.kind}, not fully connected")
    succ = _nonlinear_successor(skeleton, layer_id)
    if succ.kind != KIND_RELU:
        raise ExtractionError("fully-connected extraction needs a standalone ReLU successor")
    n_out, n_in = spec.weight.shape
    amplitude = cfg.fc_delta if cfg.fc_delta is not None else math.sqrt(n_in / 4.0)

    def weight_phases():
        """One phase per input feature, one target per output."""
        for i0 in range(n_in):
            inject = np.zeros(n_in)
            inject[i0] = amplitude
            yield inject, [((j, i0), [(j,)]) for j in range(n_out)]

    bias_targets = [((j,), [(j,)]) for j in range(n_out)]
    return _extract_layer(oracle, skeleton, layer_id, succ, amplitude, bias_targets, weight_phases(), cfg, rng)


def _pair_boundary(
    oracle: OracleHandle,
    v0: QueryInput,
    c_ref: int,
    c: int,
    cfg: BoundarySearchConfig,
) -> float:
    """Logit shift t on class ``c`` that ties it with ``c_ref``.

    All other classes are pushed down by the suppression constant so only
    the chosen pair competes; the label flip in t is a clean scalar boundary
    located to ``tie_polish_tol``.  Validated with the two-probe test.
    """
    n = oracle.n_classes
    suppress = np.full(n, -cfg.suppression)
    suppress[c_ref] = 0.0
    suppress[c] = 0.0
    key = (oracle.argmax_id, PRE)

    def at(t: float) -> QueryInput:
        vec = suppress.copy()
        vec[c] += t
        return v0.shifted(ShiftSet({key: vec}))

    def label(t: float) -> int:
        lbl = oracle.query(at(t))
        if lbl not in (c_ref, c):
            raise BoundarySearchError(f"suppressed pair scan saw class {lbl}")
        return lbl

    # The label is monotone in t since logit c strictly increases, so the
    # flip is searched in s = |t| on the side that swaps the starting label.
    # Negation is exact: both directions probe and stop bit for bit alike.
    l0 = label(0.0)
    direction = 1.0 if l0 == c_ref else -1.0
    try:
        s_star = _find_flip(
            lambda s: label(direction * s) != l0, 0.0, cfg.eta_initial_step, cfg.eta_max, cfg.tie_polish_tol
        )
    except _ScanExhausted:
        raise BoundarySearchError(f"classes {c_ref} and {c} never swapped within eta_max") from None
    t_star = direction * s_star
    if not oracle.is_critical(at(t_star), c_ref, c):
        raise BoundarySearchError(f"pair boundary ({c_ref}, {c}) failed validation")
    return t_star


def extract_last_layer(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    cfg: BoundarySearchConfig,
    rng: np.random.Generator,
) -> LayerExtractionResult:
    """Recover the terminal fully-connected layer up to its gauge freedom.

    Only argmax comparisons are observable, so biases are determined up to
    one additive constant and each weight column up to another; the reported
    representative fixes bias[0] = 0 and weight[0, :] = 0.  With the input
    pinned to zero, the tying shift between class 0 and class c reads off
    bias differences; with one input feature at the injection amplitude it
    reads off weight-column differences.
    """
    cfg = cfg.resolved()
    argmax = skeleton.layer(skeleton.argmax_id)
    last = skeleton.layer(argmax.inputs[0])
    if last.kind != KIND_FC:
        raise ExtractionError("terminal layer is not fully connected")
    n1, n0 = last.weight.shape
    plan = zero_input_plan(skeleton, last.id, cfg)
    amplitude = cfg.fc_delta if cfg.fc_delta is not None else math.sqrt(n0 / 4.0)

    bias = np.zeros(n1)
    bias_q = np.zeros(n1, dtype=np.int64)
    weight = np.zeros((n1, n0))
    weight_q = np.zeros((n1, n0), dtype=np.int64)

    t_bias = np.zeros(n1)
    v0 = _controlled_query(skeleton, plan, None)
    for c in range(1, n1):
        t0 = oracle.count
        t_bias[c] = _pair_boundary(oracle, v0, 0, c, cfg)
        bias[c] = -t_bias[c]
        bias_q[c] = oracle.count - t0

    for i0 in range(n0):
        inject = np.zeros(n0)
        inject[i0] = amplitude
        v0 = _controlled_query(skeleton, plan, inject)
        for c in range(1, n1):
            t0 = oracle.count
            t = _pair_boundary(oracle, v0, 0, c, cfg)
            weight[c, i0] = (t_bias[c] - t) / amplitude
            weight_q[c, i0] = oracle.count - t0

    return LayerExtractionResult(
        layer_id=last.id,
        kind=KIND_FC,
        bias=bias,
        weight=weight,
        bias_queries=bias_q,
        weight_queries=weight_q,
        gauge_fixed=True,
    )
