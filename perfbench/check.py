"""Correctness checks of one extraction, computed apart from the program.

Nothing here calls into ``shiftextract``: parameters arrive as plain numpy
arrays, so a fault in the program's own error metrics cannot hide a fault in
its extraction.  Every non-terminal parameter is judged on its own relative
error against the generated truth.  The terminal layer is observable only
through argmax, so its bias and each weight column are free up to one
additive constant (its gauge); it is judged by its differences against
class 0, one difference per (class >= 1, bias or input column).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_ERROR = 1e-4  # per parameter, every layer
MEDIAN_ERROR = 1e-6  # per non-terminal layer
ERROR_FLOOR = 1e-9  # denominator floor for true values at or near zero


@dataclass(frozen=True)
class LayerParams:
    layer_id: int
    bias: np.ndarray
    weight: np.ndarray


@dataclass
class CheckResult:
    """``attempted`` parameters, of which ``failures`` lie outside MAX_ERROR
    or were left unresolved (``unresolved`` of them belong to layers the
    attack gave up on); ``problems`` are broken gates, each making the run
    incorrect."""

    attempted: int = 0
    unresolved: int = 0
    failures: list[tuple[int, tuple, float]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.problems


def _relative(est: np.ndarray, true: np.ndarray) -> np.ndarray:
    est = np.asarray(est, dtype=np.float64)
    true = np.asarray(true, dtype=np.float64)
    err = np.abs(est - true) / np.maximum(np.abs(true), ERROR_FLOOR)
    return np.where(np.isfinite(err), err, np.inf)  # NaN or inf: unresolved


def _gauge_differences(p: LayerParams) -> np.ndarray:
    """Rows c >= 1 of [bias | weight] minus row 0: the terminal layer's
    observable content, shape (classes - 1, inputs + 1)."""
    table = np.concatenate([np.asarray(p.bias, np.float64)[:, None],
                            np.asarray(p.weight, np.float64)], axis=1)
    return table[1:] - table[0:1]


def _observable(p: LayerParams, gauge: bool) -> dict[str, np.ndarray]:
    """What an attack can recover of a layer: every parameter, or for the
    terminal layer its differences against class 0."""
    return {"diff": _gauge_differences(p)} if gauge else {"bias": p.bias, "weight": p.weight}


def check_extraction(
    truth: list[LayerParams],
    extracted: dict[int, LayerParams],
    terminal_id: int,
    unresolved_layers: frozenset[int] = frozenset(),
) -> CheckResult:
    """Judge every target layer of ``truth`` against ``extracted``.

    A layer missing from ``extracted`` or named in ``unresolved_layers``
    (the attack reported it failed) counts every one of its parameters as
    failed.  A failure is (layer id, index, error) with index ("bias", i),
    ("weight", ...) or, for the terminal layer, ("diff", class - 1, column),
    column 0 being the bias.
    """
    out = CheckResult()
    for t in truth:
        gauge = t.layer_id == terminal_id
        e = extracted.get(t.layer_id)
        unresolved = e is None or t.layer_id in unresolved_layers
        true_parts = _observable(t, gauge)
        if unresolved:
            errs = {k: np.full(np.shape(v), np.inf) for k, v in true_parts.items()}
        else:
            est_parts = _observable(e, gauge)
            errs = {k: _relative(est_parts[k], v) for k, v in true_parts.items()}
        for part, err in errs.items():
            out.attempted += err.size
            out.unresolved += err.size if unresolved else 0
            for idx in np.argwhere(~(err <= MAX_ERROR)):
                idx = tuple(int(i) for i in idx)
                out.failures.append((t.layer_id, (part, *idx), float(err[idx])))
        if not gauge and not unresolved:
            med = float(np.median(np.concatenate([v.ravel() for v in errs.values()])))
            if not med <= MEDIAN_ERROR:
                out.problems.append(f"layer {t.layer_id}: median relative error {med:.3e} > {MEDIAN_ERROR}")
    return out


def check_accounting(counted: int, reported: int, per_layer: list[int], params_attempted: int,
                     params_reported: int) -> list[str]:
    """Exact query and parameter accounting.

    ``counted`` backend calls were seen from outside the attack; the report
    claims ``reported`` queries in total and ``per_layer`` per target layer;
    the checker judged ``params_attempted`` parameters where the report
    counts ``params_reported``.
    """
    problems = []
    if counted != reported:
        problems.append(f"backend saw {counted} queries, report claims {reported}")
    if sum(per_layer) != reported:
        problems.append(f"per-layer queries sum to {sum(per_layer)}, report total is {reported}")
    if params_attempted != params_reported:
        problems.append(f"checked {params_attempted} parameters, report counts {params_reported}")
    return problems
