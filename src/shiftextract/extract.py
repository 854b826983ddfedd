"""Parameter recovery through safe-error probing of a label-only oracle.

The attack works per layer and needs nothing but the architecture and the
oracle.  It pins the service to a decision boundary between two classes
(``search_critical``): the client's share of the Argmax input is malleable
like any other, so pushing every other logit down and nudging one logit of
the pair ties them in a one-dimensional search.  It then measures hidden
pre-activation values one at a time out of a silenced boundary: every
input of the ReLU (or MaxPoolReLU) after the layer is pushed down by the
suppression constant, so the boundary outputs 0 and the tie does not see
the layer at all.  A scan releases its target, shifts it by a scalar, and
locates the shift at which its output starts to move the tied logits
(``extract_feature``, ``extract_feature_maxpool``); every query of a read
that releases a target is built by one ``_releaser``.  Layer drivers steer
what the hidden values are: suppressing all upstream activations pins a
layer's input to zero so its biases appear directly, injected test
patterns turn individual weights into measurable features, and switching
on every downstream ReLU and pool window makes the network between a
feature and the logits affine.  What lies downstream of a boundary is the
model's own walk plan (``ModelGraph.downstream``).

Every scalar search of the attack (the flip of a feature scan, the class tie
behind a critical point or a terminal class pair, an n-ary read) is one
primitive, ``_window_search``: grow a window m-fold until the answer falls
inside it, then split it m-fold.  Its binary case, ``_find_flip``, doubles
a step until a predicate flips and bisects the last bracket.  Every tie
test is made of the oracle's ``probe``, one query that nudges one logit by
``TIE_PROBE`` (or twice that).  A feature scan probes one class per step
once it knows which class's nudge fails (``_flip_point``), which is sound
only while the network between the feature and the logits is affine: the
scans refuse a base that does not carry the silenced boundary and the
switched-on downstream (``_phase_base``).

Each kind of layer has one driver with one loop.  Convolution and
fully-connected layers that feed a ReLU or MaxPoolReLU share
``_extract_layer``, one loop over the bias phase and the weight phases: a
phase ties one critical point, measures each of its targets there, and
records dead and retried slots.  A scan that behaves inconsistently is
repeated from a fresh critical point, at most ``MAX_RETRIES`` times, and
the target falls back to the last uncorrected estimate when every attempt
fails.  The tie sees neither the silenced boundary nor an identity skip
around the layer, which a weight phase cancels where it joins the branch
(``_skip_cancel``): each phase ties its point again from the one before
(``search_critical``'s hint) in about four queries, and a layer draws one
class pair.  The terminal layer, whose one consumer is the Argmax, has its
own driver (``extract_last_layer``): it reads class-pair ties instead of
feature scans, one per (column, class) after the bias ties, and its result
is fixed up to the gauge of those ties.  Each weight tie starts at its
class's bias tie, so it moves only by the weight's own contribution.
Every tie that gallops from its class's last move, a terminal tie or a
slope tie of the calibration below, goes through one routine,
``_class_ties``.

A binary scan learns one bit per query, where a label among n classes can
carry log2 n.  At a phase base the network between a released target and
the logits is affine, so every logit is a line in the target's output, and
those lines are the same in every phase that releases the same boundary
entry, since the injection reaches the logits only through the silenced
boundary, its skip cancelled.  Every layer has one per output: a
convolution is read at its map centre like a fully-connected layer of n_in
kh kw inputs, each weight phase injecting at the one input pixel that the
centre reads through one kernel tap.  A layer whose weight phases repay
the calibration (``_reads_nary``, the one rule) reads its weights n-ary,
into a ReLU or a MaxPoolReLU boundary alike.  After the bias phase every
class is tied with the bias phase's class once (``_class_intercepts``),
the ties are re-referenced to class 0 where class 0 ties (no query), and
each target's slopes against that reference are measured once
(``_calibrate_lines``); a weight then
reads through ``_read_lines``, which shifts the Argmax input so that each
kept class tops the upper envelope on one of m sub-windows, and the label
shrinks the window m-fold.  A read ignores the phase's tie, but the tie is
still made: when it is not where the intercepts predict, the intercepts
are stale and the phase scans binary.  A label from a suppressed class
fails the read, and the retry is a binary scan.  Bias phases always scan
binary, and so do the weights of a layer the rule refuses, at the same
targets.  Every scan, binary or n-ary, releases one boundary index.

When such a layer feeds the terminal layer through one ReLU, its
calibration measures the terminal too: at its silenced base the logits
are the terminal's bias, so an intercept referenced at class 0 is a
gauge-fixed terminal bias, and a slope tie against class 0 moves by R
times a gauge-fixed terminal weight.  Those ties go into the attack's
``TerminalTies`` table, read to ``eta_tol`` / 2, and the terminal layer
takes its parameters from the table as they are; when class 0 never
ties, the table stays empty.  It ties only what the table lacks: a column
whose bias reading was flagged, a class with no intercept or with a
failed slope tie.  ``attack_order`` pairs the two layers and runs the
terminal layer after the layer below whenever both are targets, so every
order gives the same parameters; without such a layer below, the
terminal ties every class itself.

Two systematic error sources are handled explicitly.  Every class tie
that later measurements stand on (a critical point, an intercept) is
bisected to float precision, because a residual logit gap
biases every later measurement by gap/slope.  The flip of the two-probe
criticality test lags the true boundary by probe/slope, so each boundary
is measured twice (probe magnitudes eps and 2*eps) and extrapolated back;
the lag cancels exactly while the network stays in one linear piece.

Queries go to the digits a parameter needs, not to finding its scale, and
not to digits of a raw value that its bias already fixes.  ``eta_tol`` is a
relative tolerance per parameter.  A weight phase reads y = b + a w, and its
reading stops at ``eta_tol`` times |y - b^|, its distance from its row's
bias reading b^, so w = (y - b^) / a is read to ``eta_tol`` of itself
however far below its bias it lies (``SCAN_ABS_TOL`` is the floor, which
bounds a reading at or near b^).  A bias error enters every weight of its
row as error / a, so a bias reading stops at ``eta_tol`` times
``BIAS_TOL_FACTOR`` times its value.  The first scan of a feature starts
doubling at the magnitude of the last value the layer measured, so a scan
costs the same number of queries at every scale.  The confirmation scan
starts at the probe lag eps/slope or at the first scan's tolerance,
whichever is larger.  An n-ary read centres its first window on the
target's bias reading, as wide as the layer's last distance from it, and
stops at the same tolerance, or at the error of its breakpoints where that
is wider (``ClassLines.resolution``); each label's bracket is widened by
what the slopes' error may move its breakpoints (``ClassLines.drift``).  A
terminal class tie is a reading too: it stops at a tolerance relative to
its distance from where it started, ``eta_tol`` times ``BIAS_TOL_FACTOR``
for a bias tie and ``eta_tol`` for a weight tie, which starts at its
class's bias tie, and skips the two-probe test.  The ties that other
readings stand on are the exception: critical points and intercept ties
are bisected to ``TIE_POLISH_TOL`` and validated.  A slope tie is a
reading: it stops at ``eta_tol`` times its move, and a slope off by that
moves each breakpoint in proportion to the window being split, not by a
fixed amount (``ClassLines.drift``).  The slope ties that go into a
``TerminalTies`` table are the terminal layer's own parameters against
class 0, so they stop at ``eta_tol`` / 2, one bit finer than the
terminal's own weight ties: half the tolerance the terminal layer reads
its weights to alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .model import (
    KIND_ADD,
    KIND_ARGMAX,
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
from .oracle import TIE_PROBE, CriticalPoint, OracleHandle


class ExtractionError(RuntimeError):
    """Base class for attack-side failures."""


class BoundarySearchError(ExtractionError):
    """No usable class boundary: the pair never swaps within ``ETA_MAX``,
    or its tie fails the two-probe test."""


class DeadFeatureError(ExtractionError):
    """The target feature has no observable influence on the tied logits."""


class ScanRetryError(ExtractionError):
    """A boundary scan behaved inconsistently; retry from a fresh critical
    point.  ``fallback`` carries the uncorrected single-scan estimate when
    one exists."""

    def __init__(self, message: str, fallback: float | None = None):
        super().__init__(message)
        self.fallback = fallback


class _ScanExhausted(Exception):
    """``_window_search`` passed its cap without bounding its point, or
    could not narrow its bracket."""


# Tolerances that no caller tunes.
TIE_POLISH_TOL = 1e-13  # a polished tie's logit gap is float noise, not a bias on later scans
SCAN_ABS_TOL = 1e-12  # absolute floor of a reading's tolerance: bounds a reading at or near 0
ETA_INITIAL_STEP = 1.024e-5  # first step of a scan with no known magnitude, and the least first step from a last move
FEATURE_BOUND = 1e3  # reachable features stay below this in magnitude
ETA_MAX = 1e4  # bounds every search: no flip below it means a dead feature or an unreachable tie
SUPPRESSION = 1e6  # pins ReLU outputs and other logits down: 100x FEATURE_BOUND, beyond every search
NARY_MIN_SLOPE_GAP = 1e-3  # a breakpoint is off by tie error / slope gap: 1e-10 at most
NARY_TIE_DRIFT = 10 * TIE_POLISH_TOL  # a re-tie moved beyond mask noise (~1e-13): stale intercepts
# The costs behind ``_reads_nary``, measured at eta_tol = 1e-8 and 1e-3 on FC and conv layers of 2 to 10 classes:
NARY_TIE_QUERIES = 45  # one polished intercept tie: gallop from sphere_norm, bisection to TIE_POLISH_TOL
BINARY_READ_EXTRA = 8  # a binary scan's queries beyond log2(1 / eta_tol): sign probe, gallop, scan 2
NARY_READ_EXTRA = 3  # an n-ary read's queries beyond log_m(1 / eta_tol): first window and widenings
TERMINAL_TIE_QUERIES = 31  # one terminal reading that a layer's calibration makes for it (``TerminalTies``)
NARY_SLOPE_READ_EXTRA = 7  # a slope tie's queries beyond log2(1 / eta_tol) when it is read to eta_tol
PAIR_DOUBLINGS = 20  # a pair search's doublings without a swap before one probe at ETA_MAX asks if it swaps at all
MAX_RETRIES = 5  # further attempts at a scan that behaved inconsistently, each from a fresh critical point
BIAS_TOL_FACTOR = 1e-4  # a bias error enters every weight of its row as error / amplitude: biases read 4 digits finer


@dataclass(frozen=True)
class BoundarySearchConfig:
    """The attack's settable knobs, each checked on construction.

    ``sphere_norm`` is the first logit nudge of every class-tie search, the
    expected logit scale (None means: let the harness calibrate, or fall
    back to 10 on an O(1) logit scale).  ``eta_tol`` is the relative
    tolerance of every parameter, read by feature scans, n-ary reads or
    terminal ties, and it must lie in (0, 1).  A weight phase's raw value
    y = b + a w is read to within ``max(eta_tol * |y - b^|, SCAN_ABS_TOL)``,
    relative to its row's bias reading b^, so that w itself is read to
    ``eta_tol``; a bias b is read to within ``max(eta_tol *
    BIAS_TOL_FACTOR * |b|, SCAN_ABS_TOL)``, since its error enters every
    weight of its row.  The default 3e-7 comes from the sweep in
    ``BENCH_32.json``: it reads criterion 1, the benchmark workloads and
    the residual model with a max error of at most 2.3e-7 and medians of
    at most 3.4e-8, 430x and 29x inside the gates of 1e-4 and 1e-6, where
    1e-6 put medians at 1.2e-7.  Both are finite and > 0, and
    ``sphere_norm`` may also be None.  The search bound, the suppression
    constant and the retry budget are module constants (``ETA_MAX``,
    ``SUPPRESSION``, ``MAX_RETRIES``).
    """

    sphere_norm: float | None = None
    eta_tol: float = 3e-7

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None and f.default is None:
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{f.name} must be a number, got {v!r}")
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{f.name} must be finite and > 0, got {v!r}")
        if self.eta_tol >= 1:  # a relative tolerance this wide skips bisection
            raise ValueError(f"eta_tol must be < 1, got {self.eta_tol!r}")

    def resolved(self) -> "BoundarySearchConfig":
        return self if self.sphere_norm is not None else replace(self, sphere_norm=10.0)


@dataclass
class FeatureResult:
    """One recovered pre-activation value with its scan diagnostics.

    ``branch`` names how it was read: "nonpositive" or "positive" for the
    binary scan's two forms, "nary" for a read through class lines
    (``_read_lines``).  ``slope`` is the binary scan's tie slope.
    """

    value: float
    branch: str
    slope: float | None = None


@dataclass(frozen=True)
class ClassLines:
    """The kept logits of a phase base as lines in one released target's
    output r, relative to a reference class: the logit of ``classes[i]``
    reads ``slopes[i] * r - intercepts[i]`` plus its Argmax shift.

    ``classes`` are in increasing slope order, adjacent slopes at least
    ``NARY_MIN_SLOPE_GAP`` apart.  ``intercepts`` are the Argmax shifts
    that tie each class with the reference at r = 0, and ``centre`` is the
    target's bias reading, where a read's first window is centred and from
    which it measures its tolerance.  ``drift`` bounds the slopes' error
    over each adjacent gap: a breakpoint placed at r from a window's bottom
    lies within ``drift`` r of it, besides ``resolution``.
    """

    classes: tuple[int, ...]
    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]
    centre: float
    drift: float

    @property
    def resolution(self) -> float:
        """How far a breakpoint may lie from where a read places it: the
        intercepts' tie error (``TIE_POLISH_TOL``) over the smallest slope
        gap, at most 1e-10.  A slope read to ``eta_tol`` adds no floor: it
        moves the breakpoint at r (from the window's bottom) by at most
        ``drift`` r, in proportion to the window being split."""
        return TIE_POLISH_TOL / min(b - a for a, b in zip(self.slopes, self.slopes[1:]))


@dataclass
class _LineCalibration:
    """A layer's class lines: ``intercepts[c]`` ties class c with the
    reference at a silenced phase base (absent: unreachable), ``lines`` maps
    an output index to its target's ``ClassLines`` (absent: binary scans), and
    ``spread`` is the last |value - centre| the layer read (at first the
    magnitude of its last bias reading, None when there is none)."""

    intercepts: dict[int, float]
    lines: dict[int, ClassLines]
    spread: float | None

    def holds(self, cp: CriticalPoint) -> bool:
        """True while ``cp``'s tie sits where the intercepts predict it."""
        if cp.c1 not in self.intercepts or cp.c2 not in self.intercepts:
            return False
        return abs(cp.t - (self.intercepts[cp.c2] - self.intercepts[cp.c1])) <= NARY_TIE_DRIFT


@dataclass
class TerminalTies:
    """One attack's class ties at the ReLU boundary that feeds the terminal
    layer, made by the n-ary calibration of the fully-connected layer below
    it (``attack_order`` pairs the two).

    Its ties are referenced at class 0, the terminal's gauge: the
    calibration writes them only when class 0 ties.  At a base that
    silences the boundary the logits are the terminal's bias b, and a
    target j released at R moves them by R W[:, j].  So ``intercepts[c]``,
    the shift that ties class c with class 0 there, is b[0] - b[c], and
    ``slopes[j][c]`` is W[c, j] - W[0, j] (class 0 itself at 0 in both),
    each read to ``eta_tol`` / 2 of its move.  A class with no reachable
    tie, and a target with no slope ties, are absent.
    """

    intercepts: dict[int, float] = field(default_factory=dict)
    slopes: dict[int, dict[int, float]] = field(default_factory=dict)

    def gauge_fixed(self) -> dict[tuple, float]:
        """The terminal parameters the ties measure, keyed by the
        terminal's slots: (c,) reads b[c] - b[0] and (c, j) reads W[c, j] -
        W[0, j], for c >= 1.  A slot is absent when class c lacks its tie."""
        out = {(c,): -t for c, t in self.intercepts.items() if c}
        for j, h in self.slopes.items():
            out.update({(c, j): h_c for c, h_c in h.items() if c})
        return out


def attack_order(skeleton: ModelGraph, targets: Sequence[int]) -> list[tuple[int, TerminalTies | None]]:
    """``targets`` in the order the attack extracts them, each with the
    ``TerminalTies`` table it shares, or None: the one place the terminal
    layer is paired with the layer below it.

    The two share a table when the terminal layer's only input is a ReLU
    whose only consumer it is, that ReLU reads a fully-connected layer,
    and both layers are targets.  The terminal layer then runs right after
    the layer below, whatever its place in ``targets``, so every order
    gives the same parameters."""
    last = skeleton.terminal_id
    feed = skeleton.layer(skeleton.layer(last).inputs[0])
    below = feed.inputs[0] if feed.kind == KIND_RELU and skeleton.successors(feed.id) == (last,) else None
    if below is None or skeleton.layer(below).kind != KIND_FC or last not in targets or below not in targets:
        return [(lid, None) for lid in targets]
    ties = TerminalTies()
    order = [lid for lid in targets if lid != last]
    order.insert(order.index(below) + 1, last)
    return [(lid, ties if lid in (below, last) else None) for lid in order]


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
    """A recovered layer with its query cost and flagged slots.

    ``bias_queries`` and ``weight_queries`` are the oracle calls spent on
    the bias phase and on the weight phases, critical searches included.
    ``calibration_queries`` is the part of ``weight_queries`` spent on the
    intercept and slope ties of n-ary reads (``_calibrate_lines``).
    ``dead`` and ``retried`` list the parameter slots whose scans found no
    flip or needed another attempt.
    """

    layer_id: int
    kind: str
    bias: np.ndarray
    weight: np.ndarray
    bias_queries: int = 0
    weight_queries: int = 0
    calibration_queries: int = 0
    dead: list = field(default_factory=list)
    retried: list = field(default_factory=list)
    gauge_fixed: bool = False

    @property
    def total_queries(self) -> int:
        return self.bias_queries + self.weight_queries

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


def _window_search(
    pick: Callable[[float, float], int],
    lo: float,
    w: float,
    m: int,
    cap: float,
    tol: float,
    rel: float = 0.0,
    lo_known: bool = True,
    ref: float = 0.0,
    slack: float = 0.0,
) -> float:
    """The point p that ``pick`` locates, to ``tol`` or ``rel`` times its
    distance from ``ref``, whichever is wider: the one window search of the
    attack.

    The window [lo, lo + m w] is cut into m sub-windows of width w, and
    pick(lo, w) names the one holding p: k means lo + k w (1 - ``slack``)
    <= p <= lo + (k + 1) w (1 + ``slack``), since a breakpoint at r from
    the window's bottom may lie ``slack`` r from where the pick puts it (0
    for an exact pick).  Until p is bounded on both sides, an edge
    sub-window on an open side means only that p lies beyond its inner
    breakpoint, and the window grows m-fold away from it.  The top one
    means p >= lo + (m - 1) w and w grows m-fold, lo staying put; while
    nothing below p is known (``lo_known`` false) the bottom one means p <=
    lo + w, and the window grows m-fold below its top, its bottom held at
    -``cap``.  Raises ``_ScanExhausted`` once lo + w exceeds ``cap``, or the
    bottom sub-window of a window held at -``cap`` is named.  Once bounded,
    p's bracket is split m-fold until it is no wider than max(tol, rel *
    |lower end - ref|), or a split has no float left, and its midpoint is
    returned.  A split that does not narrow the bracket (breakpoints too
    uncertain for it, ``slack`` near 1 / m) raises ``_ScanExhausted`` too:
    the bracket's midpoint could lie far from p.  ``pick`` may raise to
    abort the search.
    """

    def named(lo: float, w: float, k: int) -> tuple[float, float]:
        """The bracket of sub-window k, widened by its breakpoints' error."""
        return lo + k * w * (1.0 - slack), lo + (k + 1) * w * (1.0 + slack)

    below = lo if lo_known else None
    above = None
    while below is None or above is None:
        if lo + w > cap:
            raise _ScanExhausted()
        k = pick(lo, w)
        a, b = named(lo, w, k)
        if k == m - 1 and above is None:
            below = a
            w *= m
        elif k == 0 and below is None:
            if lo <= -cap:
                raise _ScanExhausted()
            above, top = b, lo + m * w
            lo = max(top - m * m * w, -cap)
            w = (top - lo) / m
        else:
            below = a if below is None else max(below, a)
            above = b if above is None else min(above, b)
    lo, hi = below, above
    while hi - lo > max(tol, rel * abs(lo - ref)):
        w = (hi - lo) / m
        if lo + w == lo or lo + (m - 1) * w == hi:
            break  # sub-windows below the float spacing: nothing left to split
        k = pick(lo, w)
        a, b = named(lo, w, k)
        a, b = max(lo, a) if k else lo, min(hi, b) if k < m - 1 else hi
        if b - a >= hi - lo:
            raise _ScanExhausted()  # breakpoints too uncertain to narrow the bracket
        lo, hi = a, b
    return 0.5 * (lo + hi)


def _find_flip(
    flipped: Callable[[float], bool],
    start: float,
    step: float,
    cap: float,
    tol: float,
    rel: float = 0.0,
    ref: float = 0.0,
) -> float:
    """The point s > ``start`` where ``flipped(s)`` turns true, to
    ``tol`` or ``rel`` times its distance from ``ref``, whichever is wider:
    the binary ``_window_search`` from [start, start + 2 step], each query
    the predicate at lo + w.

    The step doubles from ``start`` (probing start + step, start + 2 step,
    start + 4 step, ...) until the predicate flips; the last unflipped point
    lo and the first flipped point hi are then bisected until
    hi - lo <= max(tol, rel * |lo - ref|) or they are adjacent floats, and
    their midpoint is returned.  Raises ``_ScanExhausted`` once start + step
    exceeds ``cap``.  The predicate may raise to abort the search.
    """
    return _window_search(lambda lo, w: 0 if flipped(lo + w) else 1, start, step, 2, cap, tol, rel, ref=ref)


def _two_probe(oracle: OracleHandle, v: QueryInput, c1: int, c2: int, eps: float) -> int | None:
    """Full tie test: the class whose nudge lost its label, or None while
    both nudges keep their class.  Two queries."""
    l1, l2 = oracle.probe(v, c1, eps), oracle.probe(v, c2, eps)
    if l1 not in (c1, c2) or l2 not in (c1, c2):
        raise ScanRetryError(f"third class {l1 if l1 not in (c1, c2) else l2} intruded on the boundary")
    if l1 != c1 and l2 != c2:
        raise ScanRetryError("both probes failed at one point")
    return c1 if l1 != c1 else c2 if l2 != c2 else None


def _flip_point(
    oracle: OracleHandle,
    at: Callable[[float], QueryInput],
    c1: int,
    c2: int,
    eps: float,
    step: float,
    tol: float,
    rel: float = 0.0,
    failed: int | None = None,
    breaks: bool = True,
    ref: float = 0.0,
) -> tuple[float, int]:
    """The point s > 0 at which the tie test at ``at(s)`` (probe magnitude
    eps) changes its outcome, to ``tol`` or ``rel`` times its distance from
    ``ref`` (``_find_flip`` from 0 with ``step``), and the class whose nudge
    decides it; ``_ScanExhausted`` when there is none below ``ETA_MAX``.

    With ``breaks`` the point is critical at s = 0 and the flip is where
    criticality breaks; otherwise the nudge of ``failed`` fails at s = 0
    and the flip is where criticality sets in.  While ``failed`` is
    unknown, doubling runs the full two-probe test: it raises on a third
    class or on both probes failing, and its first failing step names the
    class whose nudge lost its label.  Every other step, doubling or
    bisection, probes only that class: one query.  One probe is enough
    because the caller's base switches on every downstream ReLU
    (``_require_phase_base``): the network between the target and the
    logits is affine, so the gap between the tied logits moves one way and
    never recrosses zero.  Without that, the gap can bend at a downstream
    kink and a one-sided probe would converge onto the spurious tie there.
    """

    def flipped(s: float) -> bool:
        nonlocal failed
        if failed is None:
            failed = _two_probe(oracle, at(s), c1, c2, eps)
            return failed is not None
        lbl = oracle.probe(at(s), failed, eps)
        if lbl not in (c1, c2):
            raise ScanRetryError(f"third class {lbl} intruded on the boundary")
        return (lbl != failed) == breaks

    s = _find_flip(flipped, 0.0, step, ETA_MAX, tol, rel, ref)
    return s, failed


def _releaser(
    v: QueryInput, pre_key: tuple[int, str], index: tuple, *drop: tuple[int, str]
) -> Callable[..., QueryInput]:
    """``at(z, extra=None)``: the query of one read that releases the target
    at ``index`` of the silenced boundary ``pre_key`` of ``v`` at shift z,
    without ``v``'s entries at ``drop`` and with those of ``extra``.  The
    -``SUPPRESSION`` template and ``v``'s other entries are taken once per
    read (``QueryInput.of_entries``).  z is written into a copy of the
    template, never added to it: a released entry holds z exactly, where the
    sum would round it to the float spacing at 1e6 (about 1.2e-10)."""
    silenced = np.full(v.shifts.get(*pre_key).shape, -SUPPRESSION)
    rest = {k: a for k, a in v.shifts.entries.items() if k != pre_key and k not in drop}

    def at(z: float, extra: dict | None = None) -> QueryInput:
        pre = silenced.copy()
        pre[index] = z
        return QueryInput.of_entries(v.x0, rest, {pre_key: pre} if extra is None else {pre_key: pre, **extra})

    return at


def _scan_boundary(
    oracle: OracleHandle,
    cp: CriticalPoint,
    pre_key: tuple[int, str],
    index: tuple,
    cfg: BoundarySearchConfig,
    first_step: float | None = None,
    centre: float = 0.0,
) -> FeatureResult:
    """Release scan of the value y at ``index`` of the boundary at the
    critical point ``cp``, whose base silences the boundary (``_phase_base``).

    The boundary's other entries stay at -``SUPPRESSION``, so their outputs
    stay 0 and the tie sees the target alone; a released target holds the
    shift z exactly, and its output relu(y + z) moves the tied logits once
    it exceeds the probe lag eps/slope.  The sign probe is the tie test at
    z = 0.  A critical point means y <= 0 (up to the lag): scan 1 shifts
    the target up until criticality breaks, at z1 = -y + eps/slope.
    Otherwise y > 0 and the probe names the class whose nudge failed: scan
    1 shifts the target down until criticality sets in, at
    z1 = -(y - eps/slope).  Either way scan 2 probes at 2*eps and searches
    upward from z1 for the lag w2 = eps/slope, and the value is w2 - z1:
    the lag cancels exactly while the network stays in one linear piece.
    Scans probe one class per step once the failing class is known
    (``_flip_point``).

    Each scan starts at the scale it looks for.  Scan 1 doubles from
    ``first_step``, the magnitude of a value measured before, clamped to
    [``ETA_INITIAL_STEP``, ``ETA_MAX``] so that the doubling still probes to
    within a factor of 2 of ``ETA_MAX``; with no magnitude known it starts at
    ``ETA_INITIAL_STEP``.  The value is read relative to ``centre``, its
    row's bias reading in a weight phase (0 for a bias reading): scan 1
    bisects to ``eta_tol`` times the distance of z1 from -``centre``
    (``SCAN_ABS_TOL`` as its floor), in its own coordinate s = d z1 at
    s = -d ``centre``, and scan 2 to that tolerance taken at z1, starting at
    eps or at half that tolerance, whichever is larger.  A scan that behaves
    inconsistently raises ``ScanRetryError`` and is retried by the caller.
    """
    eps = TIE_PROBE
    at = _releaser(cp.v, pre_key, index)
    failed = _two_probe(oracle, at(0.0), cp.c1, cp.c2, eps)
    nonpositive = failed is None
    d = 1.0 if nonpositive else -1.0  # scan 1 moves the target up, or down from a positive value
    step = ETA_INITIAL_STEP if first_step is None else min(max(first_step, ETA_INITIAL_STEP), ETA_MAX)
    try:
        s1, failed = _flip_point(
            oracle, lambda s: at(d * s), cp.c1, cp.c2, eps, step,
            0.5 * SCAN_ABS_TOL, 0.5 * cfg.eta_tol, failed, breaks=nonpositive, ref=-d * centre,
        )
    except _ScanExhausted:
        if nonpositive:
            raise DeadFeatureError(f"no flip up to ETA_MAX={ETA_MAX}") from None
        raise ScanRetryError("positive-branch scan found no flip") from None
    z1 = d * s1
    tol = max(SCAN_ABS_TOL, cfg.eta_tol * abs(s1 + d * centre))
    try:
        lag, _ = _flip_point(
            oracle, lambda w: at(z1 + w), cp.c1, cp.c2, 2.0 * eps, max(eps, 0.5 * tol), 0.5 * tol, failed=failed
        )
    except _ScanExhausted:
        raise ScanRetryError("confirmation scan found no flip", fallback=-z1) from None
    return FeatureResult(
        value=lag - z1,
        branch="nonpositive" if nonpositive else "positive",
        slope=eps / lag if lag > 0 else None,
    )


def _read_lines(
    oracle: OracleHandle,
    cp: CriticalPoint,
    pre_key: tuple[int, str],
    index: tuple,
    cfg: BoundarySearchConfig,
    lines: ClassLines,
    spread: float | None,
) -> FeatureResult:
    """N-ary read of the value y at ``index`` of the boundary at the base
    of ``cp``, which silences the boundary (``_phase_base``), through the m
    class lines of that target.

    y is found by an m-ary ``_window_search`` whose first window is
    ``lines.centre`` +- ``spread`` (clamped to [``ETA_INITIAL_STEP``,
    ``FEATURE_BOUND`` / 2]), and whose windows grow within
    +-``FEATURE_BOUND``, which keeps r in the reachable range.  A query on
    the window [lo, lo + m w] releases the target at z = -lo, so its output
    is r = relu(y - lo), and replaces the tie's Argmax shift: every other
    class is suppressed, and the kept ones are shifted so that, in slope
    order, line i tops the upper envelope for r in [i w, (i + 1) w].  The
    label names y's sub-window, widened by its breakpoints' error from the
    slopes (``lines.drift``).  The read stops at max(``SCAN_ABS_TOL``,
    ``eta_tol`` * |y - ``lines.centre``|), relative to the row's bias
    reading like a binary weight reading, or at ``lines.resolution``,
    whichever is wider: narrower windows would split below the
    breakpoints' own error.  That takes at most ceil(log_m(2 spread /
    that)) queries plus two per widening.  There is no probe nudge, so no
    sign probe and no lag to cancel.  A label from a suppressed class, a
    value beyond +-``FEATURE_BOUND``, or a label whose bracket the slopes'
    error leaves as wide as its window raises ``ScanRetryError``.
    """
    argmax_key = (oracle.argmax_id, PRE)
    at = _releaser(cp.v, pre_key, index, argmax_key)
    position = {c: i for i, c in enumerate(lines.classes)}
    m = len(lines.classes)
    # Line i meets line i-1 at r = i w when the Argmax shift on its class is
    # its intercept plus w * rise[i], rise[i] = sum over j <= i of
    # j (h[j-1] - h[j]); every other class stays at -SUPPRESSION.
    kept = list(lines.classes)
    floor = np.full(oracle.n_classes, -SUPPRESSION)
    floor[kept] = lines.intercepts
    rise = np.zeros(oracle.n_classes)
    h = lines.slopes
    rise[kept[1:]] = list(itertools.accumulate(i * (h[i - 1] - h[i]) for i in range(1, m)))

    def pick(lo: float, w: float) -> int:
        label = oracle.query(at(-lo, {argmax_key: floor + w * rise}))
        if label not in position:
            raise ScanRetryError(f"suppressed class {label} answered an n-ary read")
        return position[label]

    half = min(max(spread or 0.0, ETA_INITIAL_STEP), 0.5 * FEATURE_BOUND)
    tol = max(SCAN_ABS_TOL, lines.resolution)
    try:
        value = _window_search(
            pick, lines.centre - half, 2.0 * half / m, m, FEATURE_BOUND, tol, cfg.eta_tol,
            lo_known=False, ref=lines.centre, slack=lines.drift,
        )
    except _ScanExhausted:
        raise ScanRetryError("n-ary read left the reachable range or could not narrow its bracket") from None
    return FeatureResult(value=value, branch="nary")


# ---------------------------------------------------------------------------
# Critical point search


def _pair_boundary(
    oracle: OracleHandle,
    v0: QueryInput,
    c_ref: int,
    c: int,
    cfg: BoundarySearchConfig,
    start: float = 0.0,
    step: float | None = None,
    tol: float = TIE_POLISH_TOL,
    rel: float = 0.0,
    validate: bool = True,
) -> tuple[QueryInput, float]:
    """The query that ties class ``c`` with ``c_ref`` at ``v0``, and the
    shift t on logit ``c`` that it adds.

    All other classes are pushed down by the suppression constant so only
    the chosen pair competes, and the label flip in t is a clean scalar
    boundary.  The search starts at t = ``start`` and its nudge doubles
    from ``step``, by default ``sphere_norm`` (clamped to ``ETA_MAX``), the
    expected logit scale.  After ``PAIR_DOUBLINGS`` doublings without a
    swap one probe at ``ETA_MAX`` decides whether the pair swaps at all,
    so a pair that never does costs at most ``PAIR_DOUBLINGS`` + 2
    queries, however small ``step`` is.  The flip is bisected to ``tol``
    or ``rel`` times its distance from ``start``, whichever is wider
    (``_find_flip``).
    A tie that later scans stand on keeps the default ``TIE_POLISH_TOL``,
    since a wider gap would bias every scan at it by gap/slope, and is
    validated with the two-probe test; a tie that is itself the reading
    (``validate`` false) skips that test.
    """
    n = oracle.n_classes
    suppress = np.full(n, -SUPPRESSION)
    suppress[c_ref] = 0.0
    suppress[c] = 0.0
    key = (oracle.argmax_id, PRE)
    base = dict(v0.shifts.entries)

    def at(t: float) -> QueryInput:
        vec = suppress.copy()
        vec[c] += t
        return QueryInput.of_entries(v0.x0, base, {key: vec})

    def label(t: float) -> int:
        lbl = oracle.query(at(t))
        if lbl not in (c_ref, c):
            raise BoundarySearchError(f"suppressed pair scan saw class {lbl}")
        return lbl

    # The label is monotone in t since logit c strictly increases, so the
    # flip is searched in s = |t - start| on the side that swaps the
    # starting label.  From start 0, negation is exact: both directions
    # probe and stop bit for bit alike.
    l0 = label(start)
    direction = 1.0 if l0 == c_ref else -1.0
    if step is None:
        step = min(cfg.resolved().sphere_norm, ETA_MAX)
    misses = 0  # doublings without a swap; -1 once one swapped or ETA_MAX was probed

    def swapped(s: float) -> bool:
        nonlocal misses
        if misses == PAIR_DOUBLINGS:
            misses = -1
            if label(start + direction * ETA_MAX) == l0:  # monotone: no swap anywhere below ETA_MAX
                raise _ScanExhausted()
        hit = label(start + direction * s) != l0
        if misses >= 0:
            misses = -1 if hit else misses + 1
        return hit

    try:
        s_star = _find_flip(swapped, 0.0, step, ETA_MAX, tol, rel)
    except _ScanExhausted:
        raise BoundarySearchError(
            f"no boundary reachable: classes {c_ref} and {c} never swap within ETA_MAX={ETA_MAX}"
        ) from None
    t_star = start + direction * s_star
    v = at(t_star)
    if validate and not oracle.is_critical(v, c_ref, c):
        raise BoundarySearchError(f"pair boundary ({c_ref}, {c}) failed validation")
    return v, t_star


def search_critical(
    oracle: OracleHandle,
    v0: QueryInput,
    cfg: BoundarySearchConfig,
    rng: np.random.Generator,
    hint: CriticalPoint | None = None,
) -> CriticalPoint:
    """Tie two classes at ``v0`` (``_pair_boundary``).

    The client malleates the Argmax input like any other boundary, so one
    scalar logit nudge ties any two classes once the others are pushed down.
    With a ``hint``, the critical point of an earlier base, its pair is
    tied again from its tie shift, its step the hint's last move
    (``TIE_POLISH_TOL`` at least): a tie that has not moved costs about
    four queries, one that moves by about as much in every phase (a path
    around the silenced boundary) is galloped to from that scale.  A move
    within ``NARY_TIE_DRIFT`` (mask noise) is recorded as 0.  A hinted
    pair that does not swap within ``ETA_MAX`` is dropped after at most
    ``PAIR_DOUBLINGS`` + 2 queries (``_pair_boundary``).  Two classes
    drawn from ``rng`` are tied only without a hint, or when the hinted
    pair fails.
    """
    if hint is not None:
        try:
            step = max(hint.move, TIE_POLISH_TOL)
            v, t = _pair_boundary(oracle, v0, hint.c1, hint.c2, cfg, start=hint.t, step=step)
            move = abs(t - hint.t)
            return CriticalPoint(v=v, c1=hint.c1, c2=hint.c2, t=t, move=move if move > NARY_TIE_DRIFT else 0.0)
        except BoundarySearchError:
            pass
    c1, c2 = (int(c) for c in rng.choice(oracle.n_classes, size=2, replace=False))
    v, t = _pair_boundary(oracle, v0, c1, c2, cfg)
    return CriticalPoint(v=v, c1=c1, c2=c2, t=t)


# ---------------------------------------------------------------------------
# Feature extraction


def _read_feature(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    cp: CriticalPoint,
    layer_id: int,
    index: tuple,
    cfg: BoundarySearchConfig,
    first_step: float | None,
    lines: ClassLines | None,
    centre: float,
) -> FeatureResult:
    """The read behind ``extract_feature`` and ``extract_feature_maxpool``:
    the pre-activation value at ``index`` of boundary ``layer_id``, released
    alone from the silenced base, to ``eta_tol`` times its distance from
    ``centre`` (``SCAN_ABS_TOL`` as the floor).  Without ``lines`` it is the
    binary scan through the tied class pair (``_scan_boundary``), and
    ``first_step`` is the expected magnitude of the value.  With the
    target's ``lines`` it is the n-ary read (``_read_lines``), which
    ignores the tie and measures from ``lines.centre``, and ``first_step``
    is the expected distance of the value from there.  ``cp.v`` must carry
    ``_phase_base(skeleton, layer_id)``, or ExtractionError is raised before
    any query."""
    _require_phase_base(skeleton, layer_id, cp.v)
    if lines is not None:
        return _read_lines(oracle, cp, (layer_id, PRE), index, cfg, lines, first_step)
    return _scan_boundary(oracle, cp, (layer_id, PRE), index, cfg, first_step, centre)


def extract_feature(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    cp: CriticalPoint,
    layer_id: int,
    index: tuple,
    cfg: BoundarySearchConfig,
    *,
    first_step: float | None = None,
    lines: ClassLines | None = None,
    centre: float = 0.0,
) -> FeatureResult:
    """Recover the pre-activation value at ``index`` of the standalone-ReLU
    boundary ``layer_id`` at the critical point (``_read_feature``)."""
    spec = skeleton.layer(layer_id)
    if spec.kind != KIND_RELU:
        raise ExtractionError(f"layer {layer_id} is {spec.kind}, not a standalone ReLU boundary")
    return _read_feature(oracle, skeleton, cp, layer_id, index, cfg, first_step, lines, centre)


def extract_feature_maxpool(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    cp: CriticalPoint,
    layer_id: int,
    index: tuple[int, int, int],
    cfg: BoundarySearchConfig,
    *,
    first_step: float | None = None,
    lines: ClassLines | None = None,
    centre: float = 0.0,
) -> FeatureResult:
    """Recover the pre-activation value at ``index`` of the maxpool+ReLU
    boundary ``layer_id`` at the critical point (``_read_feature``).

    Every other input of the pool stays at -``SUPPRESSION`` (the silenced
    base), so every pooled output whose window contains ``index`` carries
    exactly ReLU of the released target, and the value is read as at a
    standalone ReLU; a downstream maxpool passes its pinned members
    (``_linearize_downstream``).  An index that feeds no pooled output
    raises ExtractionError.
    """
    spec = skeleton.layer(layer_id)
    if spec.kind != KIND_MPR:
        raise ExtractionError(f"layer {layer_id} is {spec.kind}, not a maxpool boundary")
    if not pooled_receivers(skeleton.pre_shape(layer_id), spec.kernel, spec.stride, index):
        raise ExtractionError(f"index {index} feeds no pooled output")
    return _read_feature(oracle, skeleton, cp, layer_id, index, cfg, first_step, lines, centre)


# ---------------------------------------------------------------------------
# Input control


def zero_input_plan(skeleton: ModelGraph, layer_id: int) -> SuppressionPlan:
    """Shifts pinning layer ``layer_id``'s input to exactly zero.

    Every non-linear layer feeding the input (both branches of an Add) gets
    the suppression constant subtracted from its pre-activations, so its
    outputs become zero and controlled values can be injected through one
    predecessor's post side.  A first layer has no such predecessors and is
    controlled through the model input instead (``input_mode``).
    """
    spec = skeleton.layer(layer_id)
    if spec.kind not in (KIND_CONV, KIND_FC):
        raise ExtractionError(f"layer {layer_id} ({spec.kind}) has no parameters to isolate")
    pred = skeleton.layer(spec.inputs[0])
    if pred.kind == KIND_INPUT:
        return SuppressionPlan(ShiftSet(), (), True)
    sources = pred.inputs if pred.kind == KIND_ADD else (pred.id,)
    shifts = ShiftSet()
    for src in sources:
        shifts = shifts + ShiftSet.constant(src, PRE, skeleton.pre_shape(src), -SUPPRESSION)
    return SuppressionPlan(shifts, tuple(sources), False)


def _controlled_query(
    skeleton: ModelGraph, plan: SuppressionPlan, inject: np.ndarray | None, cancel: Sequence[int] = ()
) -> QueryInput:
    """Query with the planned layer's input equal to ``inject`` (or zero),
    and -``inject`` on the post side of each ``_skip_cancel`` boundary."""
    x0 = np.zeros(skeleton.input_shape)
    if plan.input_mode:
        if inject is not None:
            x0 = inject.reshape(skeleton.input_shape)
        return QueryInput(x0)
    shifts = plan.shifts
    if inject is not None:
        src = plan.sources[0]
        inject = inject.reshape(skeleton.out_shape(src))
        shifts = shifts + ShiftSet({(src, POST): inject, **{(b, POST): -inject for b in cancel}})
    return QueryInput(x0, shifts)


def _switched_below(skeleton: ModelGraph, boundary_id: int) -> list:
    """The ReLU and MaxPoolReLU layers downstream of boundary
    ``boundary_id``, in topological order: the ones a phase base at it
    switches on, read from the model's walk plan."""
    return [s for s in skeleton.downstream(frozenset({boundary_id}))[1:] if s.kind in (KIND_RELU, KIND_MPR)]


def _linearize_downstream(skeleton: ModelGraph, boundary_id: int) -> ShiftSet:
    """Shifts that make the network below boundary ``boundary_id`` affine.

    Each layer of ``_switched_below`` gets +``FEATURE_BOUND`` on its pre
    side and -``FEATURE_BOUND`` on its post side, so a ReLU passes its
    inputs unchanged, and no downstream kink hides the target from the
    tied logits or moves a scan's flip.  A MaxPoolReLU of kernel (kh, kw)
    on an H x W map gets +``FEATURE_BOUND`` only on the members at rows =
    H // 2 (mod kh) and columns = W // 2 (mod kw), and -``SUPPRESSION`` on
    the rest, so it passes those: every window, at any stride, holds
    exactly one, and the map centre, which a centre target reaches, is
    one of them.
    """
    entries = {}
    for spec in _switched_below(skeleton, boundary_id):
        shape = skeleton.pre_shape(spec.id)
        pre = entries[(spec.id, PRE)] = np.full(shape, FEATURE_BOUND if spec.kind == KIND_RELU else -SUPPRESSION)
        if spec.kind == KIND_MPR:
            (kh, kw), (_, h, w) = spec.kernel, shape
            pre[:, (h // 2) % kh :: kh, (w // 2) % kw :: kw] = FEATURE_BOUND
        entries[(spec.id, POST)] = np.full(skeleton.out_shape(spec.id), -FEATURE_BOUND)
    return ShiftSet(entries)


def _phase_base(skeleton: ModelGraph, boundary_id: int) -> ShiftSet:
    """The shifts every phase base carries at a ReLU or MaxPoolReLU
    boundary: -``SUPPRESSION`` on its pre side, so that every output of the
    boundary is 0, plus ``_linearize_downstream``.

    The logits at such a base do not see the boundary's inputs, so a class
    tie made there holds for every target of the phase, and for every
    phase whose injection reaches the logits only through the boundary.
    """
    silence = ShiftSet.constant(boundary_id, PRE, skeleton.pre_shape(boundary_id), -SUPPRESSION)
    return silence + _linearize_downstream(skeleton, boundary_id)


def _require_phase_base(skeleton: ModelGraph, boundary_id: int, base: QueryInput) -> None:
    """Raise ExtractionError unless ``base`` carries ``_phase_base(skeleton,
    boundary_id)``: a release scan needs the boundary silenced around its
    target, and the one-probe steps of ``_flip_point`` need an affine
    downstream: every switched layer's keys, and a MaxPoolReLU's pins."""
    silence = base.shifts.get(boundary_id, PRE)
    if silence is None or not np.all(silence == -SUPPRESSION):
        raise ExtractionError(f"base does not silence boundary {boundary_id}")
    below = _switched_below(skeleton, boundary_id)
    switched = {(s.id, side) for s in below for side in (PRE, POST)}
    missing = switched - base.shifts.entries.keys()
    if missing:
        keys = ", ".join(f"{lid}:{side}" for lid, side in sorted(missing))
        raise ExtractionError(f"base leaves ReLUs downstream of layer {boundary_id} unswitched (missing {keys})")
    pins = _linearize_downstream(skeleton, boundary_id) if any(s.kind == KIND_MPR for s in below) else None
    for s in below:
        if s.kind == KIND_MPR and not np.array_equal(base.shifts.get(s.id, PRE), pins.get(s.id, PRE)):
            raise ExtractionError(f"base does not pin one member per window of maxpool {s.id} below {boundary_id}")


# ---------------------------------------------------------------------------
# Layer drivers


def _nonlinear_successor(skeleton: ModelGraph, layer_id: int):
    """The one boundary reading layer ``layer_id``, the attack's rule of
    extractability: a ReLU, MaxPoolReLU or Argmax.  Raises ExtractionError
    when the layer has none."""
    succ = skeleton.successors(layer_id)
    if len(succ) != 1:
        raise ExtractionError(f"layer {layer_id} has {len(succ)} consumers, expected one")
    nxt = skeleton.layer(succ[0])
    if nxt.kind not in (KIND_RELU, KIND_MPR, KIND_ARGMAX):
        raise ExtractionError(
            f"layer {layer_id} feeds {nxt.kind}; only ReLU, MaxPoolReLU or Argmax boundaries are extractable"
        )
    return nxt


def default_target_layers(skeleton: ModelGraph) -> list[int]:
    """All parameterized layers the attack knows how to recover, in
    topological order: those with a ``_nonlinear_successor``."""
    out = []
    for spec in skeleton.topo_order:
        if spec.kind not in (KIND_CONV, KIND_FC):
            continue
        try:
            _nonlinear_successor(skeleton, spec.id)
        except ExtractionError:
            continue
        out.append(spec.id)
    return out


def _skip_cancel(skeleton: ModelGraph, layer_id: int, boundary_id: int) -> tuple[int, ...] | None:
    """The boundaries whose post side, shifted by -inject, cancels what
    layer ``layer_id``'s weight-phase injection carries to the Argmax
    other than through its boundary ``boundary_id``: () when nothing, (b,)
    for an identity skip into an Add whose other input b lies on the
    target's own path.  None when no such shift cancels it: the injection
    point has a consumer beside the layer and that Add, the skip is not
    one identity edge, or the layer is in input mode."""

    def reached(node: int, stop: int) -> set[int]:
        seen, todo = {node}, [node]
        while todo:
            fresh = set(skeleton.successors(todo.pop())) - seen - {stop}
            seen |= fresh
            todo += fresh
        return seen

    plan = zero_input_plan(skeleton, layer_id)
    start = skeleton.input_id if plan.input_mode else plan.sources[0]
    if skeleton.argmax_id not in reached(start, boundary_id):
        return ()
    skip = [s for s in skeleton.successors(start) if s != layer_id]
    if plan.input_mode or len(skip) != 1 or skeleton.layer(skip[0]).kind != KIND_ADD:
        return None
    other = [i for i in skeleton.layer(skip[0]).inputs if i != start]
    below = {s.id for s in skeleton.downstream(frozenset({boundary_id}))}
    on_path = len(other) == 1 and skeleton.successors(other[0]) == tuple(skip) and other[0] in below
    return tuple(other) if on_path else None


def _reads_nary(
    skeleton: ModelGraph, layer_id: int, classes: int, eta_tol: float, ties: TerminalTies | None = None
) -> bool:
    """The attack's one rule for n-ary reads: whether layer ``layer_id``
    reads its weights through ``classes`` class lines.

    The layer, fully connected or a convolution, must feed a ReLU or
    MaxPoolReLU boundary, and its injection must reach the logits only
    through that boundary, a skip cancelled (``_skip_cancel``): only then
    are the lines the same in every weight phase.  Its weight reads, n_in
    per target (n_in kh kw for a convolution, read at the map centre), must
    also repay the calibration: a read saves a binary scan's
    log2(1 / eta_tol) + ``BINARY_READ_EXTRA`` queries less its own
    log_m(1 / eta_tol) + ``NARY_READ_EXTRA``, and each target pays m - 1 =
    ``classes`` - 1 slope ties, the layer m - 2 intercept ties
    (``NARY_TIE_QUERIES`` each).  A slope tie is a reading,
    log2(1 / eta_tol) + ``NARY_SLOPE_READ_EXTRA`` queries.  The layer
    below the terminal one alone gets the attack's ``ties``: there a slope
    tie is read one bit finer, log2(2 / eta_tol) +
    ``NARY_SLOPE_READ_EXTRA``, and the calibration spares the terminal
    layer's (n_out + 1)(m - 1) readings, ``TERMINAL_TIE_QUERIES`` each,
    which count toward the repayment.  Every bias phase keeps the binary
    scan.
    """
    spec = skeleton.layer(layer_id)
    succ = _nonlinear_successor(skeleton, layer_id)
    if succ.kind == KIND_ARGMAX or classes < 2 or _skip_cancel(skeleton, layer_id, succ.id) is None:
        return False
    n_out, reads = spec.weight.shape[0], spec.weight[0].size
    bits = math.log2(1.0 / eta_tol)
    saved = bits + BINARY_READ_EXTRA - (bits / math.log2(classes) + NARY_READ_EXTRA)
    spared = 0 if ties is None else (n_out + 1) * (classes - 1) * TERMINAL_TIE_QUERIES
    slope = math.log2((1.0 if ties is None else 2.0) / eta_tol) + NARY_SLOPE_READ_EXTRA
    return n_out * reads * saved + spared >= n_out * (classes - 1) * slope + (classes - 2) * NARY_TIE_QUERIES


def _class_intercepts(
    oracle: OracleHandle, v0: QueryInput, cp: CriticalPoint, cfg: BoundarySearchConfig
) -> dict[int, float]:
    """The Argmax shift on each class that ties it with ``cp.c1`` at the
    silenced base ``v0``, where ``cp`` was tied: 0 for ``cp.c1``, ``cp.t``
    for ``cp.c2``, one ``_pair_boundary`` for each other class, none where
    that tie is unreachable."""
    intercepts = {cp.c1: 0.0, cp.c2: cp.t}
    for c in range(oracle.n_classes):
        if c not in intercepts:
            try:
                intercepts[c] = _pair_boundary(oracle, v0, cp.c1, c, cfg)[1]
            except BoundarySearchError:
                pass
    return intercepts


def _kept_lines(
    slopes: dict[int, float], errors: dict[int, float], intercepts: dict[int, float], centre: float
) -> ClassLines | None:
    """The classes with a measured slope in increasing slope order, each
    kept only if it lies ``NARY_MIN_SLOPE_GAP`` above the last kept one;
    None when fewer than two are left.  ``errors`` bounds each slope's
    error, and sets the lines' ``drift``."""
    kept = []
    for c in sorted(slopes, key=slopes.get):
        if not kept or slopes[c] - slopes[kept[-1]] >= NARY_MIN_SLOPE_GAP:
            kept.append(c)
    if len(kept) < 2:
        return None
    drift = max((errors[a] + errors[b]) / (slopes[b] - slopes[a]) for a, b in zip(kept, kept[1:]))
    return ClassLines(
        tuple(kept), tuple(slopes[c] for c in kept), tuple(intercepts[c] for c in kept), centre, drift
    )


def _class_ties(
    oracle: OracleHandle,
    todo: Iterable[tuple[object, QueryInput, Sequence[int]]],
    ref: int,
    starts: Sequence[float] | dict[int, float],
    cfg: BoundarySearchConfig,
    tol: float,
    rel: float,
) -> Iterator[tuple[object, int, float | None]]:
    """Tie each class c of each ``(key, v, classes)`` in ``todo`` with
    ``ref`` at v, in order, and yield (key, c, t): the Argmax shift on
    logit c that ties the pair, or None where they never swap within
    ``ETA_MAX``.

    The attack's one galloping class tie.  Class c's tie starts at
    ``starts[c]``, and its nudge doubles from the class's last move from
    there, at least ``ETA_INITIAL_STEP`` (``sphere_norm`` before its first
    move): the class moves by about as much at every v.  It is bisected to
    ``tol`` or ``rel`` times that move, whichever is wider, and skips the
    two-probe test: only two classes compete, so the converged flip is
    their tie (``_pair_boundary``).  Each tie runs only when the caller
    asks for the next one.
    """
    moves: dict[int, float] = {}
    for key, v, classes in todo:
        for c in classes:
            step = max(moves[c], ETA_INITIAL_STEP) if c in moves else None
            try:
                t = _pair_boundary(oracle, v, ref, c, cfg, starts[c], step, tol, rel, validate=False)[1]
            except BoundarySearchError:
                yield key, c, None
                continue
            moves[c] = abs(t - starts[c])
            yield key, c, t


def _calibrate_lines(
    oracle: OracleHandle,
    boundary_id: int,
    v0: QueryInput,
    ref: int,
    intercepts: dict[int, float],
    readings: dict[int, float],
    cfg: BoundarySearchConfig,
    ties: TerminalTies | None = None,
) -> dict[int, ClassLines]:
    """The class lines of every target in ``readings``, keyed by its
    output channel j: ``readings`` maps the boundary index of output j's
    target, (j,) or a convolution's map centre (j, ic, jc), to its bias
    reading b_j at the silenced base ``v0``.

    That index alone is released, at z = R - b_j, so its output is a known
    R = max(1, |b_j|): at its scale, and far below ``ETA_MAX``.  Each class
    c with an intercept is tied again with ``ref`` there, starting at its
    intercept T_c (``_class_ties``), and its slope relative to ``ref`` is
    h_c = (T_c - t_c) / R.  A slope tie is a reading, to ``eta_tol`` times
    its move (``SCAN_ABS_TOL`` as the floor), and that tolerance plus the
    intercept's, over R, bounds the slope's error.  A target that keeps
    fewer than two lines (``_kept_lines``) has none and keeps the binary
    scan.  With ``ties``, whose ``ref`` must be class 0, every slope tie is
    read one bit finer, to ``eta_tol`` / 2, and every target's measured
    slopes, kept or not, go into ``ties.slopes``: where the boundary feeds
    the terminal layer they are its gauge-fixed weights, the terminal
    layer's own parameters, read finer than its own weight ties.
    """
    big_r = {at: max(1.0, abs(b)) for at, b in readings.items()}
    others = [c for c in intercepts if c != ref]
    todo = ((at, _releaser(v0, (boundary_id, PRE), at)(big_r[at] - b), others) for at, b in readings.items())
    slopes = {at[0]: {ref: 0.0} for at in readings}
    errors = {at[0]: {ref: 0.0} for at in readings}
    rel = cfg.eta_tol if ties is None else 0.5 * cfg.eta_tol
    for at, c, t in _class_ties(oracle, todo, ref, intercepts, cfg, SCAN_ABS_TOL, rel):
        if t is not None:
            move = intercepts[c] - t
            slopes[at[0]][c] = move / big_r[at]
            errors[at[0]][c] = (max(SCAN_ABS_TOL, rel * abs(move)) + TIE_POLISH_TOL) / big_r[at]
    if ties is not None:
        ties.slopes.update(slopes)
    lines = {at[0]: _kept_lines(slopes[at[0]], errors[at[0]], intercepts, b) for at, b in readings.items()}
    return {j: kept for j, kept in lines.items() if kept is not None}


def _extract_layer(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    layer_id: int,
    succ,
    amplitude: float,
    targets: Sequence[tuple],
    weight_phases: Iterable[tuple[np.ndarray, tuple]],
    cfg: BoundarySearchConfig,
    rng: np.random.Generator,
    nary: bool,
    ties: TerminalTies | None = None,
) -> LayerExtractionResult:
    """The driver shared by convolution and fully-connected layers whose
    one consumer is the ReLU or MaxPoolReLU boundary ``succ``: one loop
    over the bias phase and then the weight phases, each reading output j
    at boundary index ``targets[j]``.

    The bias phase runs with the layer's input pinned to zero, so output j
    reads bias[j], to ``eta_tol`` times ``BIAS_TOL_FACTOR``.  Each weight
    phase is a pair ``(inject, column)``: with the input set to
    ``inject``, output j reads bias[j] + amplitude * weight[(j,) +
    column], to ``eta_tol`` times its distance from the bias reading of j.
    Every phase's base silences the boundary and makes the network below
    it affine (``_phase_base``); a weight phase's also cancels an
    identity skip around the layer (``_skip_cancel``), binary or n-ary.
    Every phase ties its critical point from the one the phase before
    ended with (``search_critical``), where the tie holds: the layer draws
    one fresh class pair unless a scan fails.  A target is scanned binary
    from the magnitude of the last value measured.  A scan that behaves
    inconsistently is tried again, binary, at a point rebuilt from a fresh
    pair, at most ``MAX_RETRIES`` times, and the rebuilt point serves the
    later targets too.  A target that needed another attempt is listed in
    ``retried`` and reads the successful value; when every attempt fails
    it reads the last error's uncorrected estimate, or 0.0 without one.  A
    dead feature reads 0.0 and is listed in ``dead``.

    When ``nary``, the answer of ``_reads_nary`` (``_driver_setup``), the
    class lines are calibrated right after the bias phase: every class is
    tied with the bias phase's class ``cp.c1`` once (``_class_intercepts``)
    and, when class 0 ties, re-referenced to class 0 (I_c - I_0, no
    query); the rule is asked again with the classes that tied, and then
    each target's slopes are tied against the reference
    (``_calibrate_lines``).  Those ties count in ``weight_queries`` and in
    ``calibration_queries``.  In a weight phase whose tie sits where the
    intercepts predict (``_LineCalibration.holds``), a target with class
    lines is read n-ary from the layer's last spread at its first attempt.
    ``ties`` is the attack's table at the boundary that feeds the terminal
    layer, given to the layer below that one: its calibration ties go
    there, when class 0 ties, and none when it does not.
    """
    spec = skeleton.layer(layer_id)
    plan = zero_input_plan(skeleton, layer_id)
    shape = spec.weight.shape
    res = LayerExtractionResult(
        layer_id=layer_id, kind=spec.kind, bias=np.zeros(shape[0]), weight=np.zeros(shape)
    )
    base = _phase_base(skeleton, succ.id)
    cancel = _skip_cancel(skeleton, layer_id, succ.id) or ()
    scan = extract_feature_maxpool if succ.kind == KIND_MPR else extract_feature
    bias_cfg = replace(cfg, eta_tol=cfg.eta_tol * BIAS_TOL_FACTOR)
    scale = cp = cal = None
    t0 = oracle.count
    for inject, column in itertools.chain([(None, ())], weight_phases):
        v0 = _controlled_query(skeleton, plan, inject, cancel).shifted(base)
        cp = search_critical(oracle, v0, cfg, rng, cp)
        values, read_cfg = (res.bias, bias_cfg) if inject is None else (res.weight, cfg)
        by_lines = cal.lines if cal is not None and cal.holds(cp) else {}
        for j, target in enumerate(targets):
            slot = (j,) + column
            lines = by_lines.get(j)
            centre = 0.0 if inject is None else float(res.bias[j])
            value, retried = 0.0, True  # unless an attempt ends the loop
            for k in range(MAX_RETRIES + 1):
                if k:
                    cp = search_critical(oracle, v0, cfg, rng)
                try:
                    if k == 0 and lines is not None:
                        got = scan(oracle, skeleton, cp, succ.id, target, cfg, first_step=cal.spread, lines=lines)
                    else:
                        got = scan(oracle, skeleton, cp, succ.id, target, read_cfg, first_step=scale, centre=centre)
                except ScanRetryError as e:
                    value = 0.0 if e.fallback is None else e.fallback
                    continue
                except DeadFeatureError:
                    res.dead.append(slot)
                    value = 0.0
                else:
                    value = got.value
                    if got.branch == "nary" and value != lines.centre:
                        cal.spread = abs(value - lines.centre)
                    if value != 0.0:
                        scale = abs(value)
                retried = k > 0
                break
            if retried:
                res.retried.append(slot)
            values[slot] = value
        if inject is None:  # the bias phase: calibrate the class lines
            t1 = oracle.count
            if nary:
                intercepts, ref = _class_intercepts(oracle, v0, cp, cfg), cp.c1
                if 0 in intercepts:  # the terminal's gauge: its ties with class 0 are its parameters
                    intercepts, ref = {c: t - intercepts[0] for c, t in intercepts.items()}, 0
                table = ties if ref == 0 else None
                if table is not None:
                    table.intercepts = intercepts
                if _reads_nary(skeleton, layer_id, len(intercepts), cfg.eta_tol, table):
                    # a bias reading flagged dead or retried may be off: that target keeps the binary scan
                    flagged = set(res.dead) | set(res.retried)
                    readings = {target: float(res.bias[j]) for j, target in enumerate(targets) if (j,) not in flagged}
                    by_target = _calibrate_lines(oracle, succ.id, v0, ref, intercepts, readings, cfg, table)
                    cal = _LineCalibration(intercepts, by_target, scale)
                res.calibration_queries = oracle.count - t1
    res.bias_queries, res.weight_queries = t1 - t0, oracle.count - t1
    # the weight phases stored raw readings bias[c] + amplitude * weight
    bias = res.bias.reshape((-1,) + (1,) * (len(shape) - 1))
    res.weight = (res.weight - bias) / amplitude
    return res


def _amplitude(spec) -> float:
    """A weight phase's injection: sqrt(n / 4) for the n weights of one output."""
    return math.sqrt(spec.weight[0].size / 4.0)


def _driver_setup(
    oracle: OracleHandle, skeleton: ModelGraph, layer_id: int, kind: str, cfg: BoundarySearchConfig, ties=None
):
    """What the drivers of ``_extract_layer`` settle before any query: the
    layer, which must be of ``kind``, its ReLU or MaxPoolReLU boundary
    (``_nonlinear_successor``; the terminal layer's is the Argmax, and
    ``extract_last_layer`` is its driver), whether it reads n-ary
    (``_reads_nary``, crediting ``ties``) and its ``_amplitude``."""
    spec = skeleton.layer(layer_id)
    if spec.kind != kind:
        raise ExtractionError(f"layer {layer_id} is {spec.kind}, not {kind}")
    succ = _nonlinear_successor(skeleton, layer_id)
    if succ.kind == KIND_ARGMAX:
        raise ExtractionError(f"layer {layer_id} is the terminal layer: extract it with extract_last_layer")
    nary = _reads_nary(skeleton, layer_id, oracle.n_classes, cfg.eta_tol, ties)
    return spec, succ, nary, _amplitude(spec)


def extract_conv_layer(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    layer_id: int,
    cfg: BoundarySearchConfig,
    rng: np.random.Generator,
) -> LayerExtractionResult:
    """Recover a convolution layer's bias and weights.

    The layer is read at the map centre (ic, jc), like a fully-connected
    layer of n_in kh kw inputs, binary or n-ary as ``_reads_nary`` says.
    With the layer's input pinned to zero, the centre of output channel c
    holds bias[c].  The weight phase of tap (c_in, ki, kj) sets the one
    input pixel (c_in, ic + ki - pad, jc + kj - pad) that the centre reads
    through that tap to the amplitude delta, so the centre of channel c
    holds bias[c] + delta * w[c, c_in, ki, kj].  A map smaller than the
    kernel has no pixel for every tap: ExtractionError is raised before any
    query.
    """
    spec, succ, nary, amplitude = _driver_setup(oracle, skeleton, layer_id, KIND_CONV, cfg)
    n_out, n_in, kh, kw = spec.weight.shape
    _, fh, fw = skeleton.out_shape(layer_id)
    if fh < kh or fw < kw:
        raise ExtractionError(f"layer {layer_id}: its {fh}x{fw} map is smaller than its {kh}x{kw} kernel")
    ic, jc = fh // 2, fw // 2
    ph, pw = (kh - 1) // 2, (kw - 1) // 2

    def weight_phases():
        """One phase per tap."""
        for tap in itertools.product(range(n_in), range(kh), range(kw)):
            c_in, ki, kj = tap
            inject = np.zeros((n_in, fh, fw))
            inject[c_in, ic + ki - ph, jc + kj - pw] = amplitude
            yield inject, tap

    targets = [(c, ic, jc) for c in range(n_out)]
    return _extract_layer(oracle, skeleton, layer_id, succ, amplitude, targets, weight_phases(), cfg, rng, nary)


def extract_fc_layer(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    layer_id: int,
    cfg: BoundarySearchConfig,
    rng: np.random.Generator,
    *,
    ties: TerminalTies | None = None,
) -> LayerExtractionResult:
    """Recover a fully-connected layer's bias and weights.

    With the input pinned to zero each output j reads bias[j]; with a single
    input feature set to the injection amplitude, output j reads
    bias[j] + amplitude * w[j, i0], one column per phase (``_extract_layer``).
    The terminal layer, whose consumer is the Argmax, has its own driver:
    given it, this one raises ExtractionError naming
    ``extract_last_layer``.

    ``ties`` is the attack's ``TerminalTies`` table, given to the layer
    below the terminal one (``attack_order``): it writes its calibration
    ties there when class 0 ties, and ``_reads_nary`` credits it with the
    terminal readings they spare.
    """
    spec, succ, nary, amplitude = _driver_setup(oracle, skeleton, layer_id, KIND_FC, cfg, ties)
    n_out, n_in = spec.weight.shape

    def weight_phases():
        """One phase per input feature."""
        for i0 in range(n_in):
            inject = np.zeros(n_in)
            inject[i0] = amplitude
            yield inject, (i0,)

    targets = [(j,) for j in range(n_out)]
    return _extract_layer(oracle, skeleton, layer_id, succ, amplitude, targets, weight_phases(), cfg, rng, nary, ties)


def extract_last_layer(
    oracle: OracleHandle,
    skeleton: ModelGraph,
    cfg: BoundarySearchConfig,
    *,
    ties: TerminalTies | None = None,
) -> LayerExtractionResult:
    """Recover the terminal fully-connected layer, the Argmax's input, up to
    its gauge freedom.

    The layer is observable only through class-pair ties, so its biases
    are determined up to one additive constant and each weight column up
    to another.  Class 0 is the gauge reference: only classes 1..n-1 are
    measured, and the result is the ``gauge_fixed`` representative with
    bias[0] = 0 and weight[0, :] = 0.  Every slot that ``ties`` measures
    (``TerminalTies.gauge_fixed``) is taken from it, so a table that
    measures every slot costs no query.  The rest are read through
    ``_class_ties`` with class 0, each to a tolerance relative to its move
    (``SCAN_ABS_TOL`` as the floor): first the bias ties, at the base that
    pins the layer's input to zero, where class c ties at -(b[c] - b[0]),
    to ``eta_tol`` times ``BIAS_TOL_FACTOR``; then one tie per (column,
    class), with input feature i0 set to the injection amplitude, starting
    at that class's bias tie, so that it moves only by amplitude times
    W[c, i0] - W[0, i0], to ``eta_tol``.  A class that never ties with
    class 0 fails the layer with BoundarySearchError before any later tie.
    The layer draws no class pair, so it takes no rng.
    """
    spec = skeleton.layer(skeleton.terminal_id)
    n_out, n_in = spec.weight.shape
    amplitude = _amplitude(spec)
    plan = zero_input_plan(skeleton, spec.id)
    res = LayerExtractionResult(
        layer_id=spec.id, kind=spec.kind, bias=np.zeros(n_out), weight=np.zeros((n_out, n_in)), gauge_fixed=True
    )
    known = ties.gauge_fixed() if ties is not None else {}
    for slot, value in known.items():
        (res.bias if len(slot) == 1 else res.weight)[slot] = value

    def readings(todo, starts, rel):
        """(key, c, -t) of every tie in ``todo``; raises at the first class that never ties."""
        for key, c, t in _class_ties(oracle, todo, 0, starts, cfg, SCAN_ABS_TOL, rel):
            if t is None:
                raise BoundarySearchError(
                    f"no boundary reachable: classes 0 and {c} never swap within ETA_MAX={ETA_MAX}"
                )
            yield key, c, -t

    def columns():
        for i0 in range(n_in):
            classes = [c for c in range(1, n_out) if (c, i0) not in known]
            if classes:
                inject = np.zeros(n_in)
                inject[i0] = amplitude
                yield i0, _controlled_query(skeleton, plan, inject), classes

    t0 = oracle.count
    classes = [c for c in range(1, n_out) if (c,) not in known]
    todo = [(None, _controlled_query(skeleton, plan, None), classes)]
    for _, c, b in readings(todo, [0.0] * n_out, cfg.eta_tol * BIAS_TOL_FACTOR):
        res.bias[c] = b
    t1 = oracle.count
    for i0, c, r in readings(columns(), [-float(b) for b in res.bias], cfg.eta_tol):
        res.weight[c, i0] = (r - res.bias[c]) / amplitude
    res.bias_queries, res.weight_queries = t1 - t0, oracle.count - t1
    return res
