"""The shared per-configuration pairwise state: replay identity, the pinned
distance and summation orders and the memory bound of the iteration driver."""

import math
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blurshift as bs
from blurshift._pairwise import PairwiseState
from blurshift.config import pairwise_sqdist
from blurshift.diagnostics import component_diameter, diameter
from blurshift.engine import IterationRecord, StopRule, bms_step, objective, run_bms

from conftest import representable_boundary_pair


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def _replay(cfg0, kernel, h, stop):
    """Rebuild ``run_bms``'s records from the public per-layer calls.

    Returns the records and the final configuration, or the records made
    before the first error and that error.
    """
    cfg = bs.as_configuration(cfg0)
    move_tol = stop.move_tol
    if move_tol is None:
        move_tol = 1e-12 * diameter(cfg)
    records = []
    try:
        for t in range(1, stop.max_iter + 1):
            g = bs.build_graph(cfg, kernel, h)
            cls = bs.classify(g, cfg, kernel, h)
            nxt = bms_step(cfg, kernel, h)
            max_move = float(np.max(np.linalg.norm(nxt.points - cfg.points, axis=1)))
            records.append(IterationRecord(
                t=t,
                objective=objective(cfg, kernel, h),
                diameter=diameter(cfg),
                comp_diameter=component_diameter(cfg, g.components),
                max_move=max_move, n_components=g.M, closed=cls.closed,
                singular=cls.singular, stable=cls.stable))
            fixed = np.array_equal(nxt.points, cfg.points)
            cfg = nxt
            if (stop.exact_fixed_point and fixed) or max_move < move_tol:
                break
    except ValueError as exc:
        return records, str(exc)
    return records, cfg.points.tobytes()


def _planted_configuration(d: int, seed: int):
    """Two tight clouds, one with a duplicated point and a pair at exactly
    the joining radius ``beta * h`` of the built-in truncated kernels (their
    profile argument equals the boundary ``1.0`` bitwise)."""
    v, h = representable_boundary_pair(1.0)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.3, 0.3, size=(11, d))
    pts[8:] += 10.0  # a second component under truncated kernels
    pts[0] = 0.0
    pts[5] = 0.0
    pts[5, 0] = v  # at the radius from pts[0]
    pts[6] = pts[2]  # duplicate
    pts[7] = pts[5]
    pts[7, 0] -= 0.2  # keeps pts[5] joined to someone under every kernel
    return pts, h


@pytest.mark.parametrize("kernel_id", bs.BUILTIN_IDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_run_bms_records_equal_public_call_replay(kernel_id, d):
    kernel = bs.builtin(kernel_id)
    stop = StopRule(max_iter=40)
    for seed in range(3):
        pts, h = _planted_configuration(d, seed)
        assert pairwise_sqdist(pts)[0, 5] / (2.0 * h * h) == 1.0
        streamed = []
        try:
            run = run_bms(pts, kernel, h, stop=stop, sink=streamed.append)
            outcome = run.final.points.tobytes()
            assert run.records == streamed
        except ValueError as exc:
            outcome = str(exc)
        records, replayed = _replay(pts, kernel, h, stop)
        assert replayed == outcome
        assert len(records) == len(streamed)
        for got, want in zip(records, streamed):
            for f in fields(IterationRecord):
                assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), \
                    (kernel_id, d, seed, want.t, f.name)


def test_pairwise_sqdist_pins_ascending_coordinate_order():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(9, 5)) * rng.uniform(0.1, 1e3, size=5)
    sqd = pairwise_sqdist(pts)
    for i in range(9):
        for j in range(9):
            total = (float(pts[i, 0]) - float(pts[j, 0])) ** 2
            for k in range(1, 5):
                total += (float(pts[i, k]) - float(pts[j, k])) ** 2
            assert _bits(float(sqd[i, j])) == _bits(total)
    # any row block reproduces the full matrix bit for bit
    assert pairwise_sqdist(pts[3:5], pts).tobytes() == sqd[3:5].tobytes()


def _ascending_j_sums(w, y):
    """Update numerator and moments as explicit sums over ascending j.

    Each step is elementwise over i, so every entry is its own
    ``((0.0 + t_0) + t_1) + ...`` with ``t_j = w[i, j] * ...``; like numpy's
    sum, it starts from ``+0.0``, so a sum of ``-0.0`` terms is ``+0.0``.
    """
    num = np.zeros_like(y)
    mom = np.zeros_like(y)
    for j in range(y.shape[0]):
        num += w[:, j, None] * y[j]
        mom += w[:, j, None] * (y - y[j])
    return num, mom


def _assert_sums_ascending_j(pts, kernel, h):
    state = PairwiseState(pts, kernel, h)
    num, mom = _ascending_j_sums(state.weights, state.cfg.points)
    want = num / state.weights.sum(axis=1)[:, None]
    for got, ref in ((state.update(), want), (state.moments(), mom)):
        assert np.array_equal(np.signbit(got), np.signbit(ref))
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kernel_id,h", [("biweight", 0.5), ("gaussian", 0.4)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [300, 181])
def test_update_and_moments_sum_ascending_j(n, d, kernel_id, h):
    # n = 300 gives column blocks of 54 and a ragged last one of 30; at
    # n = 181 a last block of one lone column is folded into the one before
    pts = np.random.default_rng([n, d]).uniform(-1.0, 1.0, size=(n, d))
    pts[1] = pts[2] = pts[0]
    pts[3] = -0.0
    if d > 1:  # one coordinate of signed zeros only
        pts[5:, -1] = -0.0
        pts[4:7, -1] = 0.0
    _assert_sums_ascending_j(pts, bs.builtin(kernel_id), h)


_COORDS = st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.5]),
                    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_small_update_and_moments_sum_ascending_j(data):
    n = data.draw(st.integers(1, 12), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    rows = st.lists(_COORDS, min_size=d, max_size=d)
    pts = np.array(data.draw(st.lists(rows, min_size=n, max_size=n), label="points"))
    for src, dst in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                 st.integers(0, n - 1)), max_size=3),
                              label="duplicates"):
        pts[dst] = pts[src]
    kernel = bs.builtin(data.draw(st.sampled_from(
        ["epanechnikov", "biweight", "cosine", "gaussian", "cauchy"]), label="kernel"))
    h = data.draw(st.sampled_from([0.3, 1.0, 4.0]), label="h")
    _assert_sums_ascending_j(pts, kernel, h)


# tracemalloc peaks of exactly the run below, measured once on the driver
# that preceded the shared pairwise state (commit 3ca8db1, where every record
# field rebuilt its own n x n distances), with numpy 2.4.6 on CPython 3.11.7.
PER_CALL_DRIVER_PEAK_BYTES = {"epanechnikov": 3_081_704, "gaussian": 2_979_384}


@pytest.mark.parametrize("kernel_id,h", [("epanechnikov", 0.25), ("gaussian", 0.4)])
def test_run_bms_peak_memory_within_per_call_driver(kernel_id, h):
    kernel = bs.builtin(kernel_id)
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(300, 2))
    run_bms(pts, kernel, h, stop=StopRule(max_iter=3))  # warm-up
    tracemalloc.start()
    try:
        run_bms(pts, kernel, h, stop=StopRule(max_iter=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PER_CALL_DRIVER_PEAK_BYTES[kernel_id]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_distances_raise():
    pts = [[0.0, 0.0], [1e159, 0.0], [5e160, 0.0]]
    with pytest.raises(ValueError, match="overflow"):
        run_bms(pts, bs.builtin("epanechnikov"), 1e150)
    with pytest.raises(ValueError, match="overflow"):
        diameter(pts)
    assert math.isfinite(diameter([[0.0], [1e150]]))
