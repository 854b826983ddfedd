"""Dense CNN graphs with additive shift injection at non-linear boundaries.

Tensors are plain float64 numpy arrays.  A model is a DAG of layers; the
linear kinds (Convolution, FullyConnected, Add) are evaluated exactly, and
every non-linear kind (ReLU, MaxPoolReLU, terminal Argmax) accepts two
externally controlled additive shifts: one on its input ("pre") and one on
its output ("post").  Evaluating a model under a ShiftSet reproduces what a
share-malleating client of the masked inference protocol can induce, and the
traced variant doubles as the white-box oracle used by tests.  ``walk`` is
the one graph walk: in-process evaluation and the protocol server share it
and differ only in their non-linear boundary hook.

Only label output is modelled: the terminal Argmax returns the index of the
largest logit, lowest index on exact ties.

Label queries are evaluated incrementally.  Each model keeps, per thread,
the last label query it evaluated: its input, its shift entries and every
layer's value.  The next ``forward_label`` in that thread recomputes only
the layers downstream of a change, where a change is a different ``x0``
object or a boundary whose shift entry is a different array object (or was
added or dropped; dropped keys are looked for only when the count of kept
ones says there are some).  Those layers are a plan the model makes once
per set of changed roots (``ModelGraph.downstream``) and ``walk`` follows.
An attack phase holds one base query fixed and varies only the target
boundary and the logit nudge, so every layer above the target is reused.
Identity stands in for equality because the arrays are read-only:
``QueryInput`` freezes its ``x0`` and ``ShiftSet`` freezes every entry when
the array first enters (copying only a view of writable memory; a float64
array that owns its memory takes a fast path), so writing to them in place
raises ``ValueError``.  A scan builds each query from its base's entries,
merged once, and the entries it writes (``QueryInput.of_entries``).  A model
freezes its parameters the same way.  ``forward_trace`` is memo-free, since
it hands its arrays to the caller.
"""

from __future__ import annotations

import json
import math
import re
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

KIND_INPUT = "Input"
KIND_CONV = "Convolution"
KIND_FC = "FullyConnected"
KIND_RELU = "ReLU"
KIND_MPR = "MaxPoolReLU"
KIND_ADD = "Add"
KIND_ARGMAX = "Argmax"

PARAM_KINDS = (KIND_CONV, KIND_FC)
NONLINEAR_KINDS = (KIND_RELU, KIND_MPR, KIND_ARGMAX)

PRE = "pre"
POST = "post"

_ALLOWED_PRED = {
    KIND_CONV: (KIND_INPUT, KIND_RELU, KIND_MPR, KIND_ADD),
    KIND_FC: (KIND_INPUT, KIND_RELU, KIND_MPR, KIND_ADD),
    KIND_RELU: (KIND_CONV, KIND_FC, KIND_ADD),
    KIND_MPR: (KIND_CONV, KIND_ADD),
    KIND_ADD: (KIND_RELU, KIND_MPR),
    KIND_ARGMAX: (KIND_FC,),
}


class StructuralError(ValueError):
    """A model, shift set, or query violates a structural contract."""


def _f64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only float64 array that no writable array aliases.

    An array owning its memory is frozen in place; a view is copied unless
    the memory it looks at is already read-only."""
    if type(a) is np.ndarray and a.base is None and a.dtype == np.float64:
        a.setflags(write=False)  # the common case: a fresh array
        return a
    arr = _f64(a)
    if arr.base is not None:
        root = arr
        while isinstance(root.base, np.ndarray):
            root = root.base
        if root.flags.writeable:
            arr = arr.copy()
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Shift sets


class ShiftSet:
    """Sparse additive shifts keyed by (non-linear layer id, "pre" | "post").

    Each entry is a read-only float64 array with the shape of that boundary,
    frozen once when it enters the set, and ``entries`` is a read-only
    mapping.  Addition unions keys, sums overlapping entries element-wise
    and passes every other entry through by reference; the empty set is the
    identity.  Instances are immutable.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[tuple[int, str], np.ndarray] | None = None):
        frozen = {key: _frozen(arr) for key, arr in entries.items()} if entries else {}
        self.entries: Mapping[tuple[int, str], np.ndarray] = MappingProxyType(frozen)

    @classmethod
    def _merged(cls, base: Mapping, extra: Mapping) -> "ShiftSet":
        """``base`` plus ``extra``, overlapping entries summed: each sum and
        ``extra`` entry is frozen, every other entry passed by reference."""
        merged = dict(base)
        for key, arr in extra.items():
            cur = merged.get(key)
            merged[key] = _frozen(arr if cur is None else cur + arr)
        s = cls.__new__(cls)
        s.entries = MappingProxyType(merged)
        return s

    @staticmethod
    def single(layer: int, side: str, shape: tuple[int, ...], index, value: float) -> "ShiftSet":
        """One scalar shift at a single index of the boundary."""
        arr = np.zeros(shape)
        arr[index] = value
        return ShiftSet({(layer, side): arr})

    @staticmethod
    def constant(layer: int, side: str, shape: tuple[int, ...], value: float) -> "ShiftSet":
        return ShiftSet({(layer, side): np.full(shape, float(value))})

    def get(self, layer: int, side: str) -> np.ndarray | None:
        return self.entries.get((layer, side))

    def __add__(self, other: "ShiftSet") -> "ShiftSet":
        return ShiftSet._merged(self.entries, other.entries) if other.entries else self

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShiftSet):
            return NotImplemented
        if self.entries.keys() != other.entries.keys():
            return False
        return all(np.array_equal(self.entries[k], other.entries[k]) for k in self.entries)

    def __repr__(self) -> str:
        keys = ", ".join(f"{lid}:{side}" for lid, side in sorted(self.entries))
        return f"ShiftSet({{{keys}}})"


@dataclass(frozen=True)
class QueryInput:
    """A model input together with the shifts applied during evaluation.

    ``x0`` is frozen read-only on construction; ``shifted`` children share
    it, and every unchanged shift entry, by reference."""

    x0: np.ndarray
    shifts: ShiftSet = field(default_factory=ShiftSet)

    def __post_init__(self):
        object.__setattr__(self, "x0", _frozen(self.x0))

    def shifted(self, extra: ShiftSet) -> "QueryInput":
        return QueryInput.of_entries(self.x0, self.shifts.entries, extra.entries)

    @staticmethod
    def of_entries(x0: np.ndarray, base: Mapping, extra: Mapping) -> "QueryInput":
        """The query on ``x0`` with the entries of ``base`` plus those of
        ``extra`` (``ShiftSet._merged``), where ``x0`` and ``base`` are a
        query's own, frozen already.  A scan merges its base into a dict
        once and builds each query from it and the entries it writes."""
        q = object.__new__(QueryInput)  # x0 is frozen already: bypass __post_init__
        object.__setattr__(q, "x0", x0)
        object.__setattr__(q, "shifts", ShiftSet._merged(base, extra))
        return q


# ---------------------------------------------------------------------------
# Layers and graphs


@dataclass(frozen=True)
class LayerSpec:
    """One node of the model DAG.

    Kind-specific fields: Convolution carries weight [n_out, n_in, kh, kw]
    (odd kernel, stride fixed to 1, zero padding (k-1)/2 so the spatial size
    is preserved) and bias [n_out]; FullyConnected carries weight
    [n_out, n_in] and bias [n_out] and flattens its input row-major;
    MaxPoolReLU carries kernel and stride pairs; Input carries the input
    shape.
    """

    id: int
    kind: str
    inputs: tuple[int, ...] = ()
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    padding: int = 0
    kernel: tuple[int, int] | None = None
    stride: tuple[int, int] | None = None
    shape: tuple[int, ...] | None = None


def _with_frozen_params(spec: LayerSpec) -> LayerSpec:
    if spec.weight is None and spec.bias is None:
        return spec
    return replace(
        spec,
        weight=None if spec.weight is None else _frozen(spec.weight),
        bias=None if spec.bias is None else _frozen(spec.bias),
    )


class ModelGraph:
    """An immutable, validated DAG of layers ending in a single Argmax.

    Parameter arrays are frozen read-only on construction, like shift
    entries, so the per-thread memo of ``forward_label`` cannot go stale."""

    def __init__(self, layers: Iterable[LayerSpec], output: int):
        self.layers: tuple[LayerSpec, ...] = tuple(_with_frozen_params(s) for s in layers)
        self.output = int(output)
        self._by_id: dict[int, LayerSpec] = {}
        for spec in self.layers:
            if spec.id in self._by_id:
                raise StructuralError(f"duplicate layer id {spec.id}")
            self._by_id[spec.id] = spec
        self._validate_structure()
        self._topo = self._toposort()
        self._shapes = self._infer_shapes()
        self._shift_shapes = self._build_shift_shapes()
        self._shift_size = sum(map(math.prod, self._shift_shapes.values()))
        self._plans: dict[frozenset[int], tuple[LayerSpec, ...]] = {}
        self._last = _LastQuery()

    def __reduce__(self):
        # rebuilt from its layers: the per-thread memo cannot be pickled
        return ModelGraph, (self.layers, self.output)

    # -- lookups ------------------------------------------------------------

    def layer(self, layer_id: int) -> LayerSpec:
        try:
            return self._by_id[layer_id]
        except KeyError:
            raise StructuralError(f"no layer with id {layer_id}") from None

    def out_shape(self, layer_id: int) -> tuple[int, ...]:
        return self._shapes[layer_id]

    def successors(self, layer_id: int) -> tuple[int, ...]:
        return self._successors.get(layer_id, ())

    @property
    def topo_order(self) -> tuple[LayerSpec, ...]:
        return self._topo

    @property
    def input_id(self) -> int:
        return self._input_id

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self._shapes[self._input_id]

    @property
    def argmax_id(self) -> int:
        return self.output

    @property
    def terminal_id(self) -> int:
        """The terminal layer: the fully-connected layer the Argmax reads."""
        return self._by_id[self.output].inputs[0]

    @property
    def n_classes(self) -> int:
        return self._shapes[self.terminal_id][0]

    def pre_shape(self, layer_id: int) -> tuple[int, ...]:
        """Shape of the shiftable input of a non-linear layer."""
        shape = self._shift_shapes.get((layer_id, PRE))
        if shape is None:
            raise StructuralError(f"layer {layer_id} ({self.layer(layer_id).kind}) has no shift boundary")
        return shape

    @property
    def shift_size(self) -> int:
        """The number of values over every shift boundary, pre and post
        sides together: one protocol session's masks."""
        return self._shift_size

    def nonlinear_ids(self) -> tuple[int, ...]:
        return tuple(s.id for s in self._topo if s.kind in NONLINEAR_KINDS)

    def downstream(self, roots: frozenset[int]) -> tuple[LayerSpec, ...]:
        """The layers in ``roots`` and every layer downstream of them, in
        topological order: the walk of a query that changed ``roots``,
        planned once per set.  The attack reads what lies below a boundary
        b from ``downstream(frozenset({b}))``, which lists b first."""
        plan = self._plans.get(roots)
        if plan is None:
            reached, order = set(roots), []
            for spec in self._topo:
                if spec.id in reached or not reached.isdisjoint(spec.inputs):
                    reached.add(spec.id)
                    order.append(spec)
            plan = self._plans[roots] = tuple(order)
        return plan

    # -- validation ---------------------------------------------------------

    def _validate_structure(self) -> None:
        inputs = [s for s in self.layers if s.kind == KIND_INPUT]
        argmaxes = [s for s in self.layers if s.kind == KIND_ARGMAX]
        if len(inputs) != 1:
            raise StructuralError("model must have exactly one Input layer")
        if len(argmaxes) != 1 or argmaxes[0].id != self.output:
            raise StructuralError("model must have exactly one Argmax layer, and it must be the output")
        self._input_id = inputs[0].id

        succ: dict[int, list[int]] = {}
        for spec in self.layers:
            for pid in spec.inputs:
                if pid not in self._by_id:
                    raise StructuralError(f"layer {spec.id} references unknown input {pid}")
                succ.setdefault(pid, []).append(spec.id)
            kind = spec.kind
            if kind == KIND_INPUT:
                if spec.inputs:
                    raise StructuralError("Input layer takes no inputs")
                continue
            if kind not in _ALLOWED_PRED:
                raise StructuralError(f"unknown layer kind {kind!r}")
            want = 2 if kind == KIND_ADD else 1
            if len(spec.inputs) != want:
                raise StructuralError(f"{kind} layer {spec.id} needs {want} input(s)")
            for pid in spec.inputs:
                pk = self._by_id[pid].kind
                if pk not in _ALLOWED_PRED[kind]:
                    raise StructuralError(
                        f"{kind} layer {spec.id} cannot follow {pk} layer {pid}"
                    )
        if self.output in succ:
            raise StructuralError("Argmax layer must be terminal")
        # each layer's consumers, in id order: the one successor map
        self._successors = {pid: tuple(sorted(ids)) for pid, ids in succ.items()}

    def _toposort(self) -> tuple[LayerSpec, ...]:
        indeg = {s.id: len(s.inputs) for s in self.layers}
        ready = sorted(lid for lid, d in indeg.items() if d == 0)
        order: list[LayerSpec] = []
        while ready:
            lid = ready.pop(0)
            order.append(self._by_id[lid])
            for nid in self.successors(lid):
                indeg[nid] -= 1
                if indeg[nid] == 0:
                    ready.append(nid)
        if len(order) != len(self.layers):
            raise StructuralError("layer graph contains a cycle")
        return tuple(order)

    def _infer_shapes(self) -> dict[int, tuple[int, ...]]:
        shapes: dict[int, tuple[int, ...]] = {}
        for spec in self._topo:
            shapes[spec.id] = _layer_shape(spec, [shapes[p] for p in spec.inputs])
        return shapes

    def _build_shift_shapes(self) -> dict[tuple[int, str], tuple[int, ...]]:
        """The shape of every shift boundary: the input of each non-linear
        layer, and the output of each one but the Argmax."""
        out: dict[tuple[int, str], tuple[int, ...]] = {}
        for s in self._topo:
            if s.kind in NONLINEAR_KINDS:
                out[(s.id, PRE)] = self._shapes[s.inputs[0]]
                if s.kind != KIND_ARGMAX:
                    out[(s.id, POST)] = self._shapes[s.id]
        return out

    def validate_shift(self, key: tuple[int, str], arr: np.ndarray) -> None:
        want = self._shift_shapes.get(key)
        if want is None:
            raise StructuralError(f"shift key ({key[0]}, {key[1]}) is not a malleable boundary")
        if arr.shape != want:
            raise StructuralError(f"shift ({key[0]}, {key[1]}) has shape {arr.shape}, boundary is {want}")

    # -- derivation ---------------------------------------------------------

    def with_params(self, updates: Mapping[int, tuple[np.ndarray, np.ndarray]]) -> "ModelGraph":
        """New graph with (weight, bias) replaced for the given layer ids."""
        new = []
        for s in self.layers:
            if s.id in updates:
                w, b = updates[s.id]
                new.append(replace(s, weight=_f64(w), bias=_f64(b)))
            else:
                new.append(s)
        return ModelGraph(new, self.output)

    def skeleton(self) -> "ModelGraph":
        """Same architecture with all parameters zeroed (geometry only)."""
        zeros = {
            s.id: (np.zeros_like(s.weight), np.zeros_like(s.bias))
            for s in self.layers
            if s.kind in PARAM_KINDS
        }
        return self.with_params(zeros)


def count_parameters(model: ModelGraph) -> int:
    return sum(s.weight.size + s.bias.size for s in model.layers if s.kind in PARAM_KINDS)


# ---------------------------------------------------------------------------
# Layer evaluation

_PATCH_CACHE: dict[tuple, np.ndarray] = {}
_POOL_CACHE: dict[tuple, tuple[tuple[int, int], np.ndarray]] = {}


def _conv_patch_indices(in_shape: tuple[int, int, int], kh: int, kw: int, pad: int) -> np.ndarray:
    key = (in_shape, kh, kw, pad)
    idx = _PATCH_CACHE.get(key)
    if idx is None:
        c, h, w = in_shape
        hp, wp = h + 2 * pad, w + 2 * pad
        taps = (
            np.arange(c)[:, None, None] * (hp * wp)
            + np.arange(kh)[None, :, None] * wp
            + np.arange(kw)[None, None, :]
        ).ravel()
        origins = (np.arange(h)[:, None] * wp + np.arange(w)[None, :]).ravel()
        idx = origins[:, None] + taps[None, :]
        _PATCH_CACHE[key] = idx
    return idx


def _pool_windows(
    in_shape: tuple[int, ...], kernel: tuple[int, int], stride: tuple[int, int]
) -> tuple[tuple[int, int], np.ndarray]:
    """The grid (oh, ow) of windows that a MaxPoolReLU of ``kernel`` and
    ``stride`` lays on a (C, H, W) map of ``in_shape``, and the flat pixel
    indices of each window, one row per window in row-major order: the one
    place a pool's geometry is decided, cached per geometry.  Raises
    StructuralError unless the windows tile the map."""
    key = (in_shape, kernel, stride)
    hit = _POOL_CACHE.get(key)
    if hit is None:
        if len(in_shape) != 3:
            raise StructuralError(f"maxpool needs a (C, H, W) input, got shape {in_shape}")
        _, h, w = in_shape
        (ph, pw), (sh, sw) = kernel, stride
        if min(ph, pw, sh, sw) < 1 or h < ph or w < pw or (h - ph) % sh or (w - pw) % sw:
            raise StructuralError(f"kernel {kernel} stride {stride} does not tile input {in_shape}")
        oh, ow = (h - ph) // sh + 1, (w - pw) // sw + 1
        taps = (np.arange(ph)[:, None] * w + np.arange(pw)[None, :]).ravel()
        origins = (np.arange(oh)[:, None] * sh * w + np.arange(ow)[None, :] * sw).ravel()
        hit = _POOL_CACHE[key] = ((oh, ow), origins[:, None] + taps[None, :])
    return hit


def apply_maxpool_relu(y: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int]) -> np.ndarray:
    """ReLU of per-window maxima over a (C, H, W) map."""
    (oh, ow), windows = _pool_windows(y.shape, kernel, stride)
    c = y.shape[0]
    return np.maximum(y.reshape(c, -1)[:, windows].max(axis=2), 0.0).reshape(c, oh, ow)


def apply_nonlinear(layer: LayerSpec, y: np.ndarray) -> np.ndarray:
    """Output of a ReLU (element-wise max(0, y)) or MaxPoolReLU layer."""
    if layer.kind == KIND_RELU:
        return np.maximum(y, 0.0)
    return apply_maxpool_relu(y, layer.kernel, layer.stride)


def apply_linear(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
    """y = w . x + b for a Convolution or FullyConnected layer."""
    if layer.kind == KIND_FC:
        flat = x.ravel()
        if flat.shape[0] != layer.weight.shape[1]:
            raise StructuralError(
                f"FullyConnected {layer.id}: input size {flat.shape[0]} != {layer.weight.shape[1]}"
            )
        return layer.weight @ flat + layer.bias
    if layer.kind != KIND_CONV:
        raise StructuralError(f"apply_linear got a {layer.kind} layer")
    n_out, n_in, kh, kw = layer.weight.shape
    if x.ndim != 3 or x.shape[0] != n_in:
        raise StructuralError(f"Convolution {layer.id}: input shape {x.shape} != ({n_in}, H, W)")
    pad = layer.padding
    c, h, w = x.shape
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad))
    padded[:, pad : pad + h, pad : pad + w] = x
    idx = _conv_patch_indices(x.shape, kh, kw, pad)
    patches = padded.ravel()[idx]
    y = patches @ layer.weight.reshape(n_out, -1).T
    return y.T.reshape(n_out, h, w) + layer.bias[:, None, None]


def pooled_receivers(
    in_shape: tuple[int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
    index: tuple[int, int, int],
) -> list[tuple[int, int, int]]:
    """Pooled output positions whose windows contain the given input index."""
    (_, ow), windows = _pool_windows(tuple(in_shape), kernel, stride)
    c, i, j = index
    if not (0 <= i < in_shape[1] and 0 <= j < in_shape[2]):
        return []
    hits = np.flatnonzero((windows == i * in_shape[2] + j).any(axis=1))
    return [(c, *divmod(int(k), ow)) for k in hits]


def _layer_shape(spec: LayerSpec, pins: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The output shape of layer ``spec`` on inputs of shapes ``pins``,
    after checking its parameters against them: the one place a layer's
    shape is decided, for a model and for the builder alike."""
    kind = spec.kind
    if kind == KIND_INPUT:
        if not spec.shape or any(d <= 0 for d in spec.shape):
            raise StructuralError("Input layer needs a positive shape")
        return tuple(spec.shape)
    pin = pins[0]
    if kind == KIND_CONV:
        if len(pin) != 3:
            raise StructuralError(f"Convolution {spec.id} needs a (C, H, W) input, got {pin}")
        w, b = spec.weight, spec.bias
        if w is None or b is None or w.ndim != 4 or b.ndim != 1:
            raise StructuralError(f"Convolution {spec.id} has malformed parameters")
        n_out, n_in, kh, kw = w.shape
        if b.shape != (n_out,):
            raise StructuralError(f"Convolution {spec.id}: bias shape {b.shape} != ({n_out},)")
        if n_in != pin[0]:
            raise StructuralError(f"Convolution {spec.id}: {n_in} in-channels vs input {pin[0]}")
        if kh != kw or kh % 2 == 0:
            raise StructuralError(f"Convolution {spec.id}: kernels must be square and odd, got {kh}x{kw}")
        if spec.padding != (kh - 1) // 2:
            raise StructuralError(f"Convolution {spec.id}: padding must be (k-1)/2")
        return (n_out, pin[1], pin[2])
    if kind == KIND_FC:
        w, b = spec.weight, spec.bias
        if w is None or b is None or w.ndim != 2 or b.ndim != 1:
            raise StructuralError(f"FullyConnected {spec.id} has malformed parameters")
        n_out, n_in = w.shape
        if b.shape != (n_out,):
            raise StructuralError(f"FullyConnected {spec.id}: bias shape mismatch")
        if n_in != int(np.prod(pin)):
            raise StructuralError(f"FullyConnected {spec.id}: {n_in} inputs vs upstream size {int(np.prod(pin))}")
        return (n_out,)
    if kind == KIND_MPR:
        if not spec.kernel or not spec.stride:
            raise StructuralError(f"MaxPoolReLU {spec.id} needs kernel and stride")
        try:
            (oh, ow), _ = _pool_windows(pin, spec.kernel, spec.stride)
        except StructuralError as e:
            raise StructuralError(f"MaxPoolReLU {spec.id}: {e}") from None
        return (pin[0], oh, ow)
    if kind == KIND_ADD:
        if pins[0] != pins[1]:
            raise StructuralError(f"Add {spec.id}: branch shapes differ, {pins[0]} vs {pins[1]}")
        return pin
    if kind == KIND_ARGMAX:
        if len(pin) != 1 or pin[0] < 2:
            raise StructuralError(f"Argmax {spec.id} needs a 1-D input of length >= 2")
        return ()
    return pin  # ReLU


# ---------------------------------------------------------------------------
# Forward evaluation


@dataclass
class Trace:
    """White-box record of one evaluation.

    ``values[id]`` is the effective output of every layer (for non-linear
    layers this includes the post-side shift, i.e. the value feeding
    downstream).  ``y[id]`` is the input a non-linear layer received before
    its own pre-side shift.  ``logits`` includes the Argmax pre-side shift.
    """

    values: dict[int, np.ndarray]
    y: dict[int, np.ndarray]
    logits: np.ndarray
    label: int


class _LastQuery(threading.local):
    """The label query last evaluated on one model in the current thread:
    its input, its shift entries, every layer's value and the label.  Holds
    one query's activations."""

    def __init__(self):
        self.x0: np.ndarray | None = None
        self.entries: Mapping[tuple[int, str], np.ndarray] = {}
        self.vals: dict[int, np.ndarray] = {}
        self.label = -1


def walk(
    model: ModelGraph,
    x0: np.ndarray,
    boundary: Callable[[LayerSpec, np.ndarray], np.ndarray | int],
    vals: dict[int, np.ndarray],
    order: tuple[LayerSpec, ...] | None = None,
    label: int = -1,
) -> int:
    """The one topological walk behind in-process evaluation and the
    protocol server.  Returns the label.

    Input, Convolution, FullyConnected and Add layers are evaluated here,
    each into ``vals``.  Every non-linear layer hands its input to
    ``boundary(spec, y)``, which returns the layer's output, or the label
    for the Argmax.  With ``order`` None every layer is evaluated.
    Otherwise only the layers of ``order``, a ``ModelGraph.downstream``
    plan, are; the rest keep their value in ``vals``, and ``label`` is
    returned if the Argmax is not reached.
    """
    for spec in model._topo if order is None else order:
        kind = spec.kind
        if kind == KIND_CONV or kind == KIND_FC:
            vals[spec.id] = apply_linear(spec, vals[spec.inputs[0]])
        elif kind == KIND_ADD:
            vals[spec.id] = vals[spec.inputs[0]] + vals[spec.inputs[1]]
        elif kind == KIND_INPUT:
            vals[spec.id] = x0
        elif kind == KIND_ARGMAX:
            label = boundary(spec, vals[spec.inputs[0]])
        else:
            vals[spec.id] = boundary(spec, vals[spec.inputs[0]])
    return label


def _evaluate(model: ModelGraph, q: QueryInput, last: _LastQuery | None):
    """The shifted evaluation behind ``forward_label`` and ``forward_trace``.

    With ``last`` None every layer is evaluated and a Trace returned.
    Otherwise only the layers downstream of a change against ``last`` are
    recomputed (see the module docstring), ``last`` is updated and the label
    returned.  Only shift entries that changed are validated.
    """
    x0 = q.x0
    entries = q.shifts.entries
    fresh = last is None or last.x0 is None  # nothing to reuse: evaluate every layer
    prev = {} if fresh else last.entries
    roots: set[int] = set()  # layers whose shift entries or input changed
    added = 0
    for key, arr in entries.items():
        old = prev.get(key)
        if old is not arr:
            model.validate_shift(key, arr)
            roots.add(key[0])
            added += old is None
    if len(entries) - added != len(prev):  # an entry was dropped
        roots.update(key[0] for key in prev.keys() - entries.keys())
    if fresh or x0 is not last.x0:
        if x0.shape != model.input_shape:
            raise StructuralError(f"input shape {x0.shape} != model input {model.input_shape}")
        roots.add(model.input_id)
    record = last is None
    pre_record: dict[int, np.ndarray] = {}
    logits = None

    def boundary(spec: LayerSpec, y: np.ndarray):
        nonlocal logits
        if record:
            pre_record[spec.id] = y
        pre = entries.get((spec.id, PRE))
        if pre is not None:
            y = y + pre
        if spec.kind == KIND_ARGMAX:
            logits = y
            return int(y.argmax())
        z = apply_nonlinear(spec, y)
        post = entries.get((spec.id, POST))
        return z if post is None else z + post

    if fresh:
        vals: dict[int, np.ndarray] = {}
        label = walk(model, x0, boundary, vals)
    else:
        vals = dict(last.vals)
        label = walk(model, x0, boundary, vals, model.downstream(frozenset(roots)), last.label)
    if record:
        return Trace(vals, pre_record, logits, label)
    last.x0, last.entries, last.vals, last.label = x0, entries, vals, label
    return label


def forward_label(model: ModelGraph, q: QueryInput) -> int:
    """Class label of the shifted evaluation (ties go to the lowest index).

    Incremental: reuses the layers of the last label query evaluated on
    ``model`` in this thread that no change in ``q`` reaches."""
    return _evaluate(model, q, model._last)


def forward_trace(model: ModelGraph, q: QueryInput) -> Trace:
    """Full white-box trace of the shifted evaluation (memo-free)."""
    return _evaluate(model, q, None)


# ---------------------------------------------------------------------------
# Architecture mini-language

_CONV_RE = re.compile(r"^conv(\d+)x(\d+)x(\d+)$")
_FC_RE = re.compile(r"^fc(\d+)$")
_MPR_RE = re.compile(r"^mpr(\d+)(?:s(\d+))?$")


def _split_level(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise StructuralError(f"unbalanced braces in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise StructuralError(f"unbalanced braces in {text!r}")
    parts.append("".join(cur))
    return parts


def parse_architecture(arch: str) -> list[dict]:
    """Parse the layer mini-language: conv{C}x{K}x{K}, r, mpr{P}[s{S}], fc{N},
    res{branch,branch} with '-' separated tokens.  An empty residual branch
    means the identity connection."""
    tokens = []
    for tok in _split_level(arch.strip(), "-"):
        if not tok:
            raise StructuralError(f"empty token in architecture {arch!r}")
        if tok == "r":
            tokens.append({"op": "relu"})
            continue
        m = _CONV_RE.match(tok)
        if m:
            c, kh, kw = (int(g) for g in m.groups())
            tokens.append({"op": "conv", "out": c, "kernel": (kh, kw)})
            continue
        m = _FC_RE.match(tok)
        if m:
            tokens.append({"op": "fc", "out": int(m.group(1))})
            continue
        m = _MPR_RE.match(tok)
        if m:
            k = int(m.group(1))
            s = int(m.group(2)) if m.group(2) else k
            tokens.append({"op": "mpr", "kernel": (k, k), "stride": (s, s)})
            continue
        if tok.startswith("res{") and tok.endswith("}"):
            branches = _split_level(tok[4:-1], ",")
            if len(branches) != 2:
                raise StructuralError(f"res block needs exactly two branches: {tok!r}")
            tokens.append({"op": "res", "branches": [parse_architecture(b) if b else [] for b in branches]})
            continue
        raise StructuralError(f"cannot parse architecture token {tok!r}")
    return tokens


class _Builder:
    """Emits the layers of an architecture, each shaped by ``_layer_shape``
    on the shapes of its inputs."""

    def __init__(self, input_shape: tuple[int, ...], rng: np.random.Generator | None):
        self.rng = rng
        self.layers: list[LayerSpec] = []
        self.shapes: dict[int, tuple[int, ...]] = {}
        self.tip = self._emit(kind=KIND_INPUT, shape=tuple(input_shape))

    def _init(self, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        if self.rng is None:
            return np.zeros(shape)
        bound = 1.0 / np.sqrt(fan_in)
        return self.rng.uniform(-bound, bound, size=shape)

    def _emit(self, **kw) -> int:
        spec = LayerSpec(id=len(self.layers), **kw)
        self.shapes[spec.id] = _layer_shape(spec, [self.shapes[p] for p in spec.inputs])
        self.layers.append(spec)
        return spec.id

    def add_token(self, tok: dict) -> None:
        op = tok["op"]
        shape = self.shapes[self.tip]
        if op == "conv":
            kh, kw = tok["kernel"]
            fan = shape[0] * kh * kw
            w = self._init((tok["out"], shape[0], kh, kw), fan)
            b = self._init((tok["out"],), fan)
            self.tip = self._emit(
                kind=KIND_CONV, inputs=(self.tip,), weight=w, bias=b, padding=(kh - 1) // 2
            )
        elif op == "fc":
            n_in = int(np.prod(shape))
            w = self._init((tok["out"], n_in), n_in)
            b = self._init((tok["out"],), n_in)
            self.tip = self._emit(kind=KIND_FC, inputs=(self.tip,), weight=w, bias=b)
        elif op == "relu":
            self.tip = self._emit(kind=KIND_RELU, inputs=(self.tip,))
        elif op == "mpr":
            self.tip = self._emit(kind=KIND_MPR, inputs=(self.tip,), kernel=tok["kernel"], stride=tok["stride"])
        elif op == "res":
            entry = self.tip
            if self.layers[entry].kind not in (KIND_RELU, KIND_MPR):
                raise StructuralError("res block must start from a non-linear layer output")
            ends = []
            for branch in tok["branches"]:
                self.tip = entry
                for sub in branch:
                    self.add_token(sub)
                ends.append(self.tip)
            self.tip = self._emit(kind=KIND_ADD, inputs=(ends[0], ends[1]))
        else:  # pragma: no cover
            raise StructuralError(f"unknown op {op!r}")


def build_model(arch: str, input_shape: tuple[int, ...], *, rng: np.random.Generator | None = None) -> ModelGraph:
    """Build a model from the mini-language; zero parameters unless ``rng``
    is given, in which case weights and biases are uniform in
    [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    tokens = parse_architecture(arch)
    builder = _Builder(tuple(int(d) for d in input_shape), rng)
    for tok in tokens:
        builder.add_token(tok)
    if builder.layers[-1].kind != KIND_FC:
        raise StructuralError("architecture must end with an fc layer")
    out = builder._emit(kind=KIND_ARGMAX, inputs=(builder.tip,))
    return ModelGraph(builder.layers, out)


def random_model(arch: str, input_shape: tuple[int, ...], seed: int) -> ModelGraph:
    """Deterministic-per-seed random model for the given architecture."""
    return build_model(arch, input_shape, rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Serialization


def model_to_dict(model: ModelGraph) -> dict:
    layers = []
    for s in model.layers:
        params: dict = {}
        if s.kind == KIND_CONV:
            params = {
                "weight": s.weight.tolist(),
                "bias": s.bias.tolist(),
                "stride": 1,
                "padding": s.padding,
            }
        elif s.kind == KIND_FC:
            params = {"weight": s.weight.tolist(), "bias": s.bias.tolist()}
        elif s.kind == KIND_MPR:
            params = {"kernel": list(s.kernel), "stride": list(s.stride)}
        elif s.kind == KIND_INPUT:
            params = {"shape": list(s.shape)}
        layers.append({"id": s.id, "kind": s.kind, "inputs": list(s.inputs), "params": params})
    return {"layers": layers, "output": model.output}


def model_from_dict(doc: dict) -> ModelGraph:
    """The model of a ``model_to_dict`` document.  A document without
    ``layers`` or ``output``, or a layer entry that lacks a key, raises
    StructuralError naming the key (and the layer)."""
    try:
        entries, output = doc["layers"], doc["output"]
    except KeyError as e:
        raise StructuralError(f"model lacks {e.args[0]!r}") from None
    layers = []
    for pos, entry in enumerate(entries):
        try:
            kind = entry["kind"]
            params = entry.get("params", {}) or {}
            kw: dict = {}
            if kind in PARAM_KINDS:
                kw["weight"] = _f64(params["weight"])
                kw["bias"] = _f64(params["bias"])
                if kind == KIND_CONV:
                    if params.get("stride", 1) != 1:
                        raise StructuralError("convolution stride must be 1")
                    kw["padding"] = int(params.get("padding", 0))
            elif kind == KIND_MPR:
                kw["kernel"] = tuple(int(v) for v in params["kernel"])
                kw["stride"] = tuple(int(v) for v in params["stride"])
            elif kind == KIND_INPUT:
                kw["shape"] = tuple(int(v) for v in params["shape"])
            layers.append(LayerSpec(id=int(entry["id"]), kind=kind, inputs=tuple(entry["inputs"]), **kw))
        except KeyError as e:
            key = e.args[0] if e.args[0] in ("id", "kind", "inputs") else f"params.{e.args[0]}"
            raise StructuralError(f"layer {entry.get('id', f'at position {pos}')} lacks {key!r}") from None
    return ModelGraph(layers, int(output))


def save_model(model: ModelGraph, path: str | Path, meta: dict | None = None) -> None:
    doc = model_to_dict(model)
    if meta:
        doc["meta"] = meta
    Path(path).write_text(json.dumps(doc) + "\n")


def load_model(path: str | Path) -> ModelGraph:
    return model_from_dict(json.loads(Path(path).read_text()))
