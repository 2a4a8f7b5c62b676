"""The per-point reductions that run over contiguous (d, n) coordinate rows,
the components that a dense pass joins from a crossing test, and the row
norms that stay sums over each row of an (a, d) array, all bit for bit.

The reductions moved onto transposes are the order-free ones (min, max,
logical or, integer counts and elementwise divides), so each is checked
against the formula it replaced on (n, d) rows, kept here."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import blurshift as bs
from blurshift._pairwise import (_BLOCK_ENTRIES, _CELL_SIDE, _SUB, DistinctRows,
                                 PairwiseState, _box_overflows, _cell_ranges,
                                 _pruned_max_sqdist, _rows_max_sqdist)
from blurshift.config import coordinate_sqdist, pairwise_sqdist, profile_args
from blurshift.engine import StopRule, _iterate
from conftest import batch_in_order, forced_source

_RADIUS = 0.5
_SIDE = _RADIUS * _CELL_SIDE
_TRUNCATED_IDS = [k for k in bs.BUILTIN_IDS if bs.builtin(k).truncated]  # tricube: g(0) = 0


# --- the formulas on (n, d) rows that the transposes replaced ----------------

def _row_cell_ranges(rows, radius):
    # cells along the widest axis, _SUB sub-cells of each along the second
    side = radius * _CELL_SIDE
    axes = np.argsort(-np.ptp(rows, axis=0), kind="stable")[:2]
    q = rows.take(axes, axis=1) / side
    if axes.size == 2:
        q[:, 1] *= _SUB
    if not np.all(np.abs(q) < 2.0 ** 30):
        return None
    cell = np.floor(q).astype(np.int64)
    cell -= cell.min(axis=0) - _SUB
    key, low, span = cell[:, 0], np.array([-1]), 2
    if axes.size == 2:
        width = int(cell[:, 1].max()) + _SUB + 1
        key = key * width + cell[:, 1]
        low, span = np.array([-width - _SUB, -_SUB, width - _SUB]), 2 * _SUB
    order = np.argsort(key, kind="stable")
    keys = key[order]
    low = key[:, None] + low
    return order, keys.searchsorted(low, "left"), keys.searchsorted(low + span, "right")


def _row_box_overflows(rows):
    with np.errstate(over="ignore"):
        sides = (rows.max(axis=0) - rows.min(axis=0)).tolist()
    total = 0.0
    for side in sides:
        total += side * side
    return math.isinf(total)


def _row_pruned_max_sqdist(rows):
    extremes = np.unique(np.concatenate([rows.argmin(axis=0), rows.argmax(axis=0)]))
    lower = _rows_max_sqdist(rows, rows.take(extremes, axis=0))
    with np.errstate(over="ignore"):
        far = np.maximum(rows - rows.min(axis=0), rows.max(axis=0) - rows)
        upper = coordinate_sqdist(far.T, np.zeros((rows.shape[1], 1)))
    return max(lower, _rows_max_sqdist(rows, rows[upper >= lower]))


def _row_grouping(points, rows, before):
    # (rows, first, inv) of DistinctRows._group, from the int64 words of
    # (n, d) rows
    n = points.shape[0]
    if n * n <= _BLOCK_ENTRIES:
        return points, None, None
    rows = np.ascontiguousarray(rows)
    bits = rows.view(np.int64)
    by_bits = np.lexsort(bits.T)
    sorted_bits = bits.take(by_bits, axis=0)
    starts = np.empty(by_bits.size, dtype=bool)
    starts[0] = True
    np.logical_or.reduce(sorted_bits[1:] != sorted_bits[:-1], axis=1, out=starts[1:])
    first = by_bits[starts]
    if first.size == n:
        return points, None, None
    inv = np.empty_like(by_bits)
    inv[by_bits] = np.cumsum(starts) - 1
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    grouped = rows.take(first[order], axis=0)
    if before is not None:
        first, inv = before.points_of(first), before.expand(inv)
    return grouped, first[order], rank[inv]


# --- rows --------------------------------------------------------------------

def _bits(value):
    return struct.pack("<d", value)


# signed zeros, subnormals, values of mixed magnitude, and coordinates whose
# cell quotients (x / side) lie just below, at and just above 2**30
_EDGE = 2.0 ** 30 * _SIDE
_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.3, 2.5, -7.75, 1e-300, 1e300, -1e300,
           *(sign * np.nextafter(_EDGE, step) for sign in (1.0, -1.0)
             for step in (0.0, math.inf)),
           _EDGE, -_EDGE, (2.0 ** 30 - 1.5) * _SIDE, -(2.0 ** 30 - 0.5) * _SIDE]
_coordinates = st.one_of(st.sampled_from(_VALUES),
                         st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False))


@st.composite
def _rows(draw, least=1, most=40):
    # some rows drawn, the others repeats of them
    d = draw(st.integers(1, 4), label="d")
    pool = draw(st.lists(st.lists(_coordinates, min_size=d, max_size=d), min_size=1,
                         max_size=12), label="pool")
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=least, max_size=most),
                 label="picks")
    return np.array([pool[i] for i in picks], dtype=float).reshape(len(picks), d)


def _outcome(call, rows):
    # the function's value, or the error it raised
    try:
        return call(rows)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=_rows())
def test_cell_ranges_equal_the_row_formula(rows):
    want = _row_cell_ranges(rows, _RADIUS)
    got = _cell_ranges(rows, _RADIUS)
    assert (got is None) == (want is None)
    if got is not None:
        order, starts, stops = got
        assert np.array_equal(order, want[0])
        # (ranges, rows) arrays: the row formula's transposes
        assert np.array_equal(starts.T, want[1]) and np.array_equal(stops.T, want[2])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=_rows())
def test_box_and_pruned_largest_distance_equal_the_row_formulas(rows):
    assert _box_overflows(rows) == _row_box_overflows(rows)
    got, want = _outcome(_pruned_max_sqdist, rows), _outcome(_row_pruned_max_sqdist, rows)
    assert type(got) is type(want)
    assert (got == want) if isinstance(got, str) else _bits(got) == _bits(want)


def _tied_rows(case):
    # rows many of whose bounds tie, over several batches of the prune's
    # scan: a lattice, a symmetric polygon, a few sites repeated, a lattice
    # whose pairs overflow, and "decoys": 24 rows on 3 sites near a corner
    # of the box, whose tied bounds come first but whose largest squared
    # distance (442) falls short of the largest (450, between two rows of
    # lower bounds), which neither extreme of either axis reaches (400)
    if case == "decoys":
        sites = np.array([[9.0, 9.0], [9.0, 8.5], [8.5, 9.0]])
        return np.concatenate([[[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0], [0.0, -10.0]],
                               sites[np.arange(24) % 3], [[7.5, -7.5], [-7.5, 7.5]]])
    if case == "lattice":
        return np.stack(np.meshgrid(np.arange(-9.0, 10.0), np.arange(-4.0, 5.0)), -1).reshape(-1, 2)
    if case == "polygon":
        angle = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
        ring = np.stack([np.cos(angle), np.sin(angle)], -1)
        return np.concatenate([ring, -ring, 0.5 * ring])
    if case == "repeats":
        sites = np.array([[0.0, 0.0, 1.0], [-0.0, 3.0, -1.0], [2.0, 3.0, 1.0]])
        return sites[np.arange(90) % 3]
    return 1e154 * np.stack(np.meshgrid(np.arange(-3.0, 4.0), np.arange(-3.0, 4.0)),
                            -1).reshape(-1, 2)


@pytest.mark.parametrize("case", ["lattice", "polygon", "repeats", "overflow", "decoys"])
def test_pruned_largest_distance_with_tied_bounds(case):
    rows = _tied_rows(case)
    got, want = _outcome(_pruned_max_sqdist, rows), _outcome(_rows_max_sqdist, rows)
    assert type(got) is type(want)
    assert (got == want) if isinstance(got, str) else _bits(got) == _bits(want)
    assert _outcome(_row_pruned_max_sqdist, rows) == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=_rows(least=1, most=300), merge=st.sampled_from([1.0, 0.5, 0.0]))
def test_grouping_equals_the_row_formula(rows, merge):
    # a grouping of the points and the grouping handed on to points that
    # keep its groups and merge some of them (rounded to multiples of 1,
    # of 2 and all to one row)
    grouping = DistinctRows(rows)
    want = _row_grouping(rows, rows, None)
    _assert_grouping(grouping, want)
    moved = grouping.expand(np.round(grouping.rows * merge))
    _assert_grouping(grouping.after(moved),
                     _row_grouping(moved, grouping.at_first(moved), grouping))


def _assert_grouping(grouping, want):
    rows, first, inv = want
    assert grouping.rows.tobytes() == rows.tobytes()
    for got, expected in ((grouping.first, first), (grouping.inv, inv)):
        assert (got is None) == (expected is None)
        assert got is None or np.array_equal(got, expected)


# --- components of a dense pass ----------------------------------------------

def _layout(name, rng, n, radius):
    if name == "chain":  # a line walked backwards: joins reach the low rows last
        return np.linspace(40.0, 0.0, n)[:, None] * radius * np.array([1.0, 0.5])
    pts = rng.uniform(-6.0, 6.0, size=(n, 2)) * radius
    if name == "grouped":  # every third point on the one before, and a group of ten apart
        pts[1::3] = pts[::3][:pts[1::3].shape[0]]
        pts[-10:] = 100.0 * radius
    return pts


@pytest.mark.parametrize("kernel_id", _TRUNCATED_IDS)
@pytest.mark.parametrize("layout", ["ungrouped", "grouped", "chain"])
def test_crossing_test_components_equal_connected_components(kernel_id, layout):
    # no state takes the grid, so every chunk is a block of j-rows
    kernel, h = bs.builtin(kernel_id), 0.5
    for seed, n in enumerate((200, 300)):
        pts = _layout(layout, np.random.default_rng(seed), n, kernel.beta * h)
        with forced_source(grid=math.inf) as taken:
            state = PairwiseState(pts, kernel, h, {"labels"})
            assert (state.distinct.inv is not None) == (layout == "grouped")
            assert state.n * state.distinct.a > _BLOCK_ENTRIES
            joined = kernel.g(profile_args(pairwise_sqdist(pts), h)) != 0.0
            np.fill_diagonal(joined, False)
            _, raw = connected_components(joined, directed=False)
            seen = {}
            want = np.array([seen.setdefault(c, len(seen)) for c in raw])
            assert np.array_equal(state.labels, want)
            assert state.closed == all(
                np.all(joined[np.ix_(c, c)] | np.eye(c.size, dtype=bool))
                for c in state.components)
            # the degrees come from the pass that closed runs
            assert np.array_equal(state.distinct.expand(state._degree), joined.sum(axis=1))
        assert set(taken) == {"rows"}


# --- row norms ---------------------------------------------------------------

def _norms(x):
    # np.linalg.norm(x, axis=1) of an (a, d) array in C order
    x = np.ascontiguousarray(x)
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _mixed(rng, n, d):
    # coordinates of mixed magnitudes per axis, so that the association of
    # a row's squares shows in its last bits
    return rng.normal(size=(n, d)) * np.resize([1.0, 3e-3, 7.0, 1e-5, 0.9], d)


# numpy sums a row of fewer than 8 entries one at a time, as a sum over the
# columns of the transpose would, and a longer one pairwise: d = 8 is where
# a sum over columns moves bits on an x86-64 host with numpy 2
_DIMENSIONS = [1, 2, 3, 4, 5, 8]


@pytest.mark.parametrize("d", _DIMENSIONS)
@pytest.mark.parametrize("n", [1, 200])
def test_move_and_fixed_point_norms_sum_each_row(d, n):
    # a = 1 (one point) and a > 1 (200 points, a third of them coincident)
    rng = np.random.default_rng(d)
    pts = _mixed(rng, n, d)
    pts[1::3] = pts[::3][:pts[1::3].shape[0]]
    kernel = bs.builtin("gaussian")
    steps = []

    def on_step(t, state, nxt, max_move):
        moved = state.update_rows() - state.distinct.rows
        steps.append((max_move, float(np.max(_norms(moved)))))
        norm = float(np.max(_norms(state._row_moments())))
        assert state.is_fixed_point(norm)
        assert norm == 0.0 or not state.is_fixed_point(np.nextafter(norm, 0.0))

    _iterate(pts, kernel, 30.0, StopRule(max_iter=3, move_tol=0.0), on_step, {"moments"})
    assert steps and all(_bits(got) == _bits(want) for got, want in steps)
    assert (n > 1) == any(want > 0.0 for _, want in steps)


@pytest.mark.parametrize("d", _DIMENSIONS)
def test_batch_moment_norms_sum_each_row(d):
    rng = np.random.default_rng(10 + d)
    configs = [_mixed(rng, 1, d), *(_mixed(rng, n, d) for n in (2, 7, 12, 128))]
    for kernel_id in ("gaussian", "biweight"):
        kernel, h = bs.builtin(kernel_id), 40.0
        got = batch_in_order(configs, kernel, h).moment_norm
        want = [float(np.max(_norms(PairwiseState(c, kernel, h).moments()))) for c in configs]
        assert [_bits(v) for v in got.tolist()] == [_bits(v) for v in want]
        assert want[0] == 0.0 and all(v > 0.0 for v in want[1:])
