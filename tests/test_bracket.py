"""Properties of ``_find_flip``, the doubling-then-bisection search behind
every scalar search of the attack, on a threshold predicate s >= theta."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftextract.extract import _find_flip, _ScanExhausted


class Threshold:
    """flipped(s) = s >= theta, recording every probed point."""

    def __init__(self, theta, fail_at=None):
        self.theta = theta
        self.fail_at = fail_at
        self.points = []

    def __call__(self, s):
        self.points.append(s)
        if len(self.points) == self.fail_at:
            raise KeyError("predicate failed")
        return s >= self.theta


def first_point_past(start, step, theta):
    """The first doubled point start + step * 2**k that is >= theta, in the
    search's own float arithmetic."""
    s = start + step
    while s < theta:
        step *= 2.0
        s = start + step
    return s


def run(theta, start, step, cap, tol, fail_at=None):
    pred = Threshold(theta, fail_at)
    try:
        return _find_flip(pred, start, step, cap, tol), pred.points
    except _ScanExhausted:
        return None, pred.points


searches = dict(
    start=st.floats(0.0, 100.0),
    step=st.floats(1e-6, 10.0),
    offset=st.floats(1e-6, 1e3),
    cap_offset=st.floats(0.0, 2e3),
    tol=st.floats(1e-9, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(**searches)
def test_result_within_tol_or_exhausted_past_cap(start, step, offset, cap_offset, tol):
    theta, cap = start + offset, start + cap_offset
    s, points = run(theta, start, step, cap, tol)
    if first_point_past(start, step, theta) > cap:
        assert s is None
        assert all(p <= cap for p in points)
    else:
        assert s is not None
        # the midpoint of a final bracket no wider than tol
        assert abs(s - theta) <= 0.5 * tol + np.spacing(theta)
        assert s > start


@settings(max_examples=200, deadline=None)
@given(**searches)
def test_probe_sequence_is_a_pure_function(start, step, offset, cap_offset, tol):
    theta, cap = start + offset, start + cap_offset
    first = run(theta, start, step, cap, tol)
    second = run(theta, start, step, cap, tol)
    assert first == second


@settings(max_examples=200, deadline=None)
@given(**searches, data=st.data())
def test_predicate_exception_passes_through(start, step, offset, cap_offset, tol, data):
    theta, cap = start + offset, start + cap_offset
    _, points = run(theta, start, step, cap, tol)
    if not points:
        return
    n = data.draw(st.integers(1, len(points)))
    pred = Threshold(theta, fail_at=n)
    with pytest.raises(KeyError):
        _find_flip(pred, start, step, cap, tol)
    assert pred.points == points[:n]


def test_tolerance_below_float_resolution_stops_at_adjacent_floats():
    theta = 1.0 / 3.0
    s, points = run(theta, 0.0, 1.0, 10.0, 0.0)
    assert s in (np.nextafter(theta, 0.0), theta)
    assert len(points) < 100
