"""Incremental label evaluation: ``forward_label`` reuses the layers of the
last query evaluated on the model in the same thread, so it must agree with
the memo-free ``forward_trace`` on any query sequence."""

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftextract import (
    KIND_ARGMAX,
    POST,
    PRE,
    QueryInput,
    ShiftSet,
    StructuralError,
    forward_label,
    forward_trace,
    random_model,
)

MODELS = {
    "small_cnn": random_model("conv3x3x3-r-fc8-r-fc3", (2, 5, 5), seed=17),
    "pool_res": random_model("conv4x3x3-mpr2-res{conv4x3x3-r,}-fc8-r-fc4", (2, 8, 8), seed=9),
    # a change on the second branch alone reaches the Add through its second input
    "two_branch": random_model("conv2x3x3-r-res{conv2x3x3-r,conv2x3x3-r}-fc6-r-fc3", (2, 5, 5), seed=4),
}


def boundaries(m):
    """(key, shape) of every shiftable boundary of ``m``."""
    out = []
    for lid in m.nonlinear_ids():
        out.append(((lid, PRE), m.pre_shape(lid)))
        if m.layer(lid).kind != KIND_ARGMAX:
            out.append(((lid, POST), m.out_shape(lid)))
    return out


def random_shifts(m, rng, n_keys):
    bounds = boundaries(m)
    picks = rng.choice(len(bounds), size=min(n_keys, len(bounds)), replace=False)
    return ShiftSet({bounds[i][0]: rng.normal(0.0, rng.choice([0.3, 3.0]), bounds[i][1]) for i in picks})


def query_sequence(m, seed, ops):
    """Queries mixing fresh inputs, ``shifted`` children of earlier queries
    (which share their parent's x0 and untouched entries), children that
    drop one entry of their parent and keep its x0, and repeats."""
    rng = np.random.default_rng(seed)
    pool = [QueryInput(rng.standard_normal(m.input_shape))]
    out = []
    for op, pick in ops:
        parent = pool[pick % len(pool)]
        if op == "fresh":
            q = QueryInput(rng.standard_normal(m.input_shape), random_shifts(m, rng, pick % 3))
        elif op == "child":
            q = parent.shifted(random_shifts(m, rng, 1 + pick % 2))
        elif op == "nudge":  # a tie-test probe: only the logits move
            q = parent.shifted(ShiftSet.single(m.argmax_id, PRE, (m.n_classes,), pick % m.n_classes, 1e-3))
        elif op == "drop":  # as a scan's base drops the entry it rewrites
            keys = sorted(parent.shifts.entries)
            gone = keys[pick % len(keys)] if keys else None
            q = QueryInput(parent.x0, ShiftSet({k: a for k, a in parent.shifts.entries.items() if k != gone}))
        else:  # repeat
            q = parent
        if op != "repeat":
            pool.append(q)
        out.append(q)
    return out


OPS = st.lists(
    st.tuples(st.sampled_from(["fresh", "child", "nudge", "drop", "repeat"]), st.integers(0, 50)),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ops=OPS)
def test_incremental_matches_memo_free(name, seed, ops):
    m = MODELS[name]
    for q in query_sequence(m, seed, ops):
        label = forward_label(m, q)
        tr = forward_trace(m, q)
        assert label == tr.label
        # every reused or recomputed layer value is the memo-free one, bit for bit
        for lid, v in tr.values.items():
            assert np.array_equal(m._last.vals[lid], v)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_downstream_plan_is_reachability(name):
    """For every set of changed roots (boundaries and the input), the
    planned walk is every layer reachable from them, in topological order,
    planned once."""
    m = MODELS[name]
    roots = [m.input_id, *m.nonlinear_ids()]
    for r in range(len(roots) + 1):
        for subset in itertools.combinations(roots, r):
            reached, todo = set(subset), list(subset)
            while todo:
                for nxt in m.successors(todo.pop()):
                    if nxt not in reached:
                        reached.add(nxt)
                        todo.append(nxt)
            plan = m.downstream(frozenset(subset))
            assert plan == tuple(s for s in m.topo_order if s.id in reached)
            assert m.downstream(frozenset(subset)) is plan


@pytest.mark.parametrize("name", sorted(MODELS))
def test_threads_keep_their_own_memo(name):
    """Threads interleaving queries on one shared model, all children of the
    same few base queries, each get the memo-free label."""
    m = MODELS[name]
    rng = np.random.default_rng(3)
    bases = [QueryInput(rng.standard_normal(m.input_shape), random_shifts(m, rng, 2)) for _ in range(3)]
    seqs = [[bases[k].shifted(random_shifts(m, rng, 1)) for k in rng.integers(0, 3, 40)] for _ in range(4)]
    traces = [[forward_trace(m, q) for q in seq] for seq in seqs]
    want = [[tr.label for tr in trs] for trs in traces]
    got = [[] for _ in seqs]
    stale = []  # (thread, query) whose memo no longer holds that query's layers

    def worker(i):
        for _ in range(10):
            labels = []
            for j, q in enumerate(seqs[i]):
                labels.append(forward_label(m, q))
                vals = m._last.vals
                if not all(np.array_equal(vals[lid], v) for lid, v in traces[i][j].values.items()):
                    stale.append((i, j))
            got[i].append(labels)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(seqs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not stale
    for i in range(len(seqs)):
        assert got[i] == [want[i]] * 10


def test_rejected_query_leaves_memo_intact():
    m = MODELS["small_cnn"]
    rng = np.random.default_rng(5)
    q = QueryInput(rng.standard_normal(m.input_shape), random_shifts(m, rng, 2))
    want = forward_trace(m, q).label
    assert forward_label(m, q) == want
    with pytest.raises(StructuralError):
        forward_label(m, QueryInput(q.x0, ShiftSet({(2, PRE): np.zeros(7)})))
    with pytest.raises(StructuralError):
        forward_label(m, QueryInput(np.zeros(3)))
    assert forward_label(m, q) == want
    child = q.shifted(random_shifts(m, rng, 1))
    assert forward_label(m, child) == forward_trace(m, child).label


# ---------------------------------------------------------------------------
# The read-only contract that makes identity stand in for equality


def test_x0_frozen_on_entry():
    x = np.zeros((2, 3))
    q = QueryInput(x)
    assert q.x0 is x  # owns its memory: frozen in place, not copied
    with pytest.raises(ValueError):
        q.x0[0, 0] = 1.0
    with pytest.raises(ValueError):
        x += 1.0
    assert q.shifted(ShiftSet()).x0 is q.x0
    assert QueryInput(np.zeros(3, dtype=np.float32)).x0.dtype == np.float64


def test_view_of_writable_memory_is_copied():
    buf = np.zeros(12)
    q = QueryInput(buf[:6].reshape(2, 3))
    s = ShiftSet({(2, PRE): buf[6:]})
    buf[:] = 7.0  # the caller's buffer stays writable ...
    assert not q.x0.any() and not s.get(2, PRE).any()  # ... and the frozen copies do not see it
    frozen = QueryInput(np.ones(4)).x0
    view = QueryInput(frozen[:2]).x0
    assert view.base is frozen  # a view of read-only memory needs no copy


def test_shift_entries_frozen():
    arr = np.ones(3)
    s = ShiftSet({(2, PRE): arr})
    with pytest.raises(ValueError):
        s.get(2, PRE)[0] = 5.0
    with pytest.raises(ValueError):
        arr[0] = 5.0
    with pytest.raises(TypeError):
        s.entries[(4, PRE)] = np.ones(2)  # no writable array slips in afterwards
    merged = s + ShiftSet({(2, PRE): np.ones(3), (4, PRE): np.ones(2)})
    with pytest.raises(ValueError):
        merged.get(2, PRE)[0] = 5.0
    with pytest.raises(ValueError):
        merged.get(4, PRE)[0] = 5.0
    child = QueryInput(np.zeros(2), s).shifted(ShiftSet({(4, PRE): np.ones(2)}))
    assert child.shifts.get(2, PRE) is s.get(2, PRE)  # untouched entries pass through by reference
    with pytest.raises(ValueError):
        child.shifts.get(4, PRE)[0] = 5.0


def test_model_pickles_without_its_memo():
    import copy
    import pickle

    m = MODELS["small_cnn"]
    q = QueryInput(np.random.default_rng(8).standard_normal(m.input_shape))
    forward_label(m, q)
    for clone in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert forward_label(clone, q) == forward_trace(m, q).label
        assert all(np.array_equal(a.weight, b.weight) for a, b in zip(clone.layers, m.layers)
                   if a.weight is not None)


def test_model_parameters_frozen():
    """A weight written in place would leave the memo's reused layers stale."""
    m = MODELS["small_cnn"].with_params({1: (np.zeros((3, 2, 3, 3)), np.zeros(3))})
    with pytest.raises(ValueError):
        m.layer(1).weight[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        m.layer(3).bias[0] = 1.0
