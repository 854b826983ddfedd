"""Label-only query interface with honest query accounting.

The handle wraps a backend that maps a QueryInput to a class label.  Every
label query increments a counter under a lock, so accounting behaves as if
queries were serialized even under concurrent callers.  ``probe`` is the
one tie-test nudge: a single counted query with one logit raised by
``TIE_PROBE`` (or a multiple of it), and every tie test of the attack is
made of such probes.  The two-probe tie test (``is_critical``) always
issues exactly two of them, never short circuiting.  The attack makes it
on no tie it converged on, whose bracket ends already answered with each
class; it checks a tie from outside the search.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from .model import PRE, ModelGraph, QueryInput, ShiftSet, forward_label

TIE_PROBE = 1e-11  # clears protocol float noise (~1e-13) while its lag band stays tiny


class OracleHandle:
    """Counted access to a label-only classifier with malleable shifts.

    The logit nudge of ``probe`` is by default the constant ``TIE_PROBE``:
    it exceeds the float noise of a forward pass, masked protocol included,
    and stays far below genuine logit gaps.
    """

    def __init__(self, backend: Callable[[QueryInput], int], *, argmax_id: int, n_classes: int):
        self._backend = backend
        self.argmax_id = argmax_id
        self.n_classes = n_classes
        self._count = 0
        self._lock = threading.Lock()

    @classmethod
    def in_process(cls, model: ModelGraph) -> "OracleHandle":
        return cls(lambda q: forward_label(model, q), argmax_id=model.argmax_id, n_classes=model.n_classes)

    @property
    def count(self) -> int:
        return self._count

    def query(self, v: QueryInput) -> int:
        """One label query.  The counter advances even if the backend fails."""
        with self._lock:
            self._count += 1
        return self._backend(v)

    def probe(self, v: QueryInput, c: int, eps: float = TIE_PROBE) -> int:
        """One label query of ``v`` with logit ``c`` nudged up by ``eps``."""
        return self.query(v.shifted(ShiftSet.single(self.argmax_id, PRE, (self.n_classes,), c, eps)))

    def is_critical(self, v: QueryInput, c1: int, c2: int) -> bool:
        """True iff nudging logit c1 yields label c1 and nudging c2 yields c2.

        Exactly two queries, both always issued.
        """
        if c1 == c2:
            raise ValueError("is_critical needs two distinct classes")
        l1, l2 = self.probe(v, c1), self.probe(v, c2)
        return l1 == c1 and l2 == c2


@dataclass
class CriticalPoint:
    """A query pinned to the decision boundary between classes c1 and c2.

    ``v`` is the full query: the base plus the Argmax-input shift that
    pushes every other class down and nudges the pair into a tie.  ``t`` is
    that nudge, the shift on logit c2, from which the tie of a later base
    is searched, and ``move`` its last move, from which that search
    gallops.  The constructor trusts the caller: the search builds one only
    from a converged pair bracket whose ends answered c1 and c2.
    """

    v: QueryInput
    c1: int
    c2: int
    t: float
    move: float = 0.0
