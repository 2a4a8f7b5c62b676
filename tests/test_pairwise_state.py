"""The shared per-configuration pairwise state: replay identity, the pinned
distance and summation orders and the memory bound of the iteration driver."""

import gc
import math
import struct
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

import blurshift as bs
import blurshift._pairwise as pairwise_mod
from blurshift._pairwise import _BLOCK_ENTRIES, PairwiseState, _box_overflows, _union
from blurshift.config import pairwise_sqdist, profile_args
from blurshift.diagnostics import component_diameter, diameter
from blurshift.engine import IterationRecord, StopRule, bms_step, objective, run_bms

from conftest import forced_source, representable_boundary_pair


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
    """Update numerator, denominator and moments as explicit sums over
    ascending j.

    Each step is elementwise over i, so every entry is its own
    ``((0.0 + t_0) + t_1) + ...`` with ``t_j = w[i, j] * ...``; like numpy's
    sum, it starts from ``+0.0``, so a sum of ``-0.0`` terms is ``+0.0``.
    """
    num = np.zeros_like(y)
    den = np.zeros(y.shape[0])
    mom = np.zeros_like(y)
    for j in range(y.shape[0]):
        num += w[:, j, None] * y[j]
        den += w[:, j]
        mom += w[:, j, None] * (y - y[j])
    return num, den, mom


def _rows_then_total(terms):
    """``sum_i (sum_j terms[i, j])``: each row in ascending j, then the rows
    in ascending i, all from ``+0.0``."""
    rows = np.zeros(terms.shape[0])
    for j in range(terms.shape[1]):
        rows += terms[:, j]
    total = 0.0
    for value in rows:
        total += float(value)
    return total


def _reference(pts, kernel, h, nxt):
    """Update (or None when a weight row sums to zero), moments, objective
    and minorizer gap towards ``nxt``, from the whole weight matrix.

    Every kernel sums every row in ascending j, denominator, objective and
    gap included, and adds the objective's and the gap's rows in ascending
    i.
    """
    y = bs.as_configuration(pts).points
    sqd = pairwise_sqdist(y)
    u = profile_args(sqd, h)
    w = kernel.g(u)
    num, den, mom = _ascending_j_sums(w, y)
    objective = _rows_then_total(kernel.profile(u))
    gap = _rows_then_total(w * sqd) - _rows_then_total(w * pairwise_sqdist(nxt))
    update = None if np.any(den == 0.0) else num / den[:, None]
    return update, mom, objective, gap / (2.0 * h * h)


def _assert_sums_ascending_j(pts, kernel, h):
    state = PairwiseState(pts, kernel, h)
    nxt = 0.5 * state.cfg.points + 0.125
    update, mom, objective, gap = _reference(pts, kernel, h, nxt)
    if update is None:
        with pytest.raises(ValueError, match="zero total weight"):
            state.update()
    else:
        got = state.update()
        assert np.array_equal(np.signbit(got), np.signbit(update))
        assert got.tobytes() == update.tobytes()
    got = state.moments()
    assert np.array_equal(np.signbit(got), np.signbit(mom))
    assert got.tobytes() == mom.tobytes()
    assert _bits(state.objective) == _bits(objective)
    assert _bits(state.minorizer_gap(nxt)) == _bits(gap)


@pytest.mark.parametrize("kernel_id,h", [("biweight", 0.5), ("gaussian", 0.4)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [300, 181])
def test_update_and_moments_sum_ascending_j(n, d, kernel_id, h):
    # the dense j-sums stream over chunks of 16384 // a rows: n = 300
    # (a = 298) gives five chunks of 54 and a ragged last one of 30
    pts = np.random.default_rng([n, d]).uniform(-1.0, 1.0, size=(n, d))
    pts[1] = pts[2] = pts[0]
    pts[3] = -0.0
    if d > 1:  # one coordinate of signed zeros only
        pts[5:, -1] = -0.0
        pts[4:7, -1] = 0.0
    _assert_sums_ascending_j(pts, bs.builtin(kernel_id), h)


@pytest.mark.parametrize("kernel_id", bs.BUILTIN_IDS)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_every_builtin_sums_ascending_j_with_pairs_at_the_radius(kernel_id, d):
    # pts[0] and pts[5] lie exactly at beta * h; pts[6] duplicates pts[2]
    for seed in range(2):
        pts, h = _planted_configuration(d, seed)
        pts[3, -1] = -0.0
        assert pairwise_sqdist(pts)[0, 5] / (2.0 * h * h) == 1.0
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


def _full_row_fields(pts, kernel, h, moved):
    """Every field of the state from the whole n x n matrices, one row per
    point: what the state must give whether or not it groups coincident
    points.  ``moved`` is a second configuration for the minorizer gap."""
    y = bs.as_configuration(pts).points
    n = y.shape[0]
    sqd = pairwise_sqdist(y)
    u = profile_args(sqd, h)
    w = kernel.g(u)
    update, mom, objective, gap = _reference(y, kernel, h, moved)
    fields = {"graph": w, "update": update, "moments": mom, "objective": objective,
              "gap": gap, "diameter": math.sqrt(float(np.max(sqd)))}
    off = ~np.eye(n, dtype=bool)
    if kernel.truncated:
        distance_gap = np.abs(np.sqrt(sqd) - kernel.beta * h)
        fields["margin"] = float(np.min(distance_gap[off], initial=math.inf))
        joined = w != 0.0
        _, raw = connected_components(joined & off, directed=False)
        seen = {}
        labels = np.array([seen.setdefault(c, len(seen)) for c in raw])
        same = labels[:, None] == labels[None, :]
        fields["closed"] = bool(np.all(joined[same & off]))
        fields["singular"] = bool(np.all(sqd[joined] == 0.0))
    else:
        fields["margin"] = math.inf
        labels = np.zeros(n, dtype=int)
        same = np.ones((n, n), dtype=bool)
        fields["closed"] = True
        fields["singular"] = float(np.max(sqd)) == 0.0
    fields["labels"] = labels
    fields["component_diameter"] = math.sqrt(float(np.max(sqd[same])))
    fields["boundary_hit"] = bool(
        kernel.truncation is bs.TruncationClass.NON_SMOOTHLY_TRUNCATED
        and np.any(u == kernel.boundary_u))
    return fields


def _assert_state_equals_full_rows(pts, kernel, h, moved):
    want = _full_row_fields(pts, kernel, h, moved)
    state = PairwiseState(pts, kernel, h)
    # every point is bitwise its group's row, signed zeros included
    assert state.distinct.expand(state.distinct.rows).tobytes() == state.cfg.points.tobytes()
    # distinct row r's joins in row r: g != 0, or every pair for a
    # full-support kernel
    joins = want["graph"] != 0.0 if kernel.truncated else np.ones_like(want["graph"], bool)
    assert np.array_equal(state.distinct.expand(state.joined_rows()), joins)
    # no state holds a weight array: the update, moments, objective and gap
    # below pin the weights bit for bit
    _assert_holds_no_pairwise_array(state)
    for name in ("objective", "margin", "diameter", "component_diameter"):
        assert _bits(getattr(state, name)) == _bits(want[name]), name
    for name in ("boundary_hit", "closed", "singular"):
        assert getattr(state, name) == want[name], name
    assert np.array_equal(state.labels, want["labels"])
    assert state.moments().tobytes() == want["moments"].tobytes()
    assert _bits(state.minorizer_gap(moved)) == _bits(want["gap"])
    _assert_holds_no_pairwise_array(state)
    if want["update"] is None:
        with pytest.raises(ValueError, match="zero total weight"):
            state.update()
    else:
        assert state.update().tobytes() == want["update"].tobytes()
    return state


def _assert_holds_no_pairwise_array(state):
    """Every array the state holds, with its configuration and grouping,
    has at most n * d entries, or 3 a for a grid state's (3, a) ranges: no
    chunk, join bit or edge outlives the pass."""
    held = [*vars(state).values(), *vars(state.distinct).values(), state.cfg.points]
    arrays = [item for value in held
              for item in (value if isinstance(value, tuple) else (value,))
              if isinstance(item, np.ndarray)]
    assert max(array.size for array in arrays) <= max(state.n * state.cfg.d,
                                                     3 * state.distinct.a)


def test_grid_state_holds_no_pairwise_array():
    # a standardized uniform square at the density of bench/scaling.py's
    # sparse cells (about 13 points within the radius of each), read in
    # every pass a run_verify step makes
    n = 2000
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(n, 2))
    pts = (pts - pts.mean(axis=0)) / pts.std(axis=0)
    with forced_source() as taken:
        state = PairwiseState(pts, bs.builtin("epanechnikov"), 0.25 * math.sqrt(400 / n),
                              {"update", "moments", "objective", "margin", "labels"})
    assert taken == ["grid"]
    _assert_holds_no_pairwise_array(state)
    state.minorizer_gap(state.update())
    assert state.joined_rows().sum() < 20 * n  # about 13 joins a point
    assert state.M >= 1 and state.margin >= 0.0  # the exact margin scans every pair
    _assert_holds_no_pairwise_array(state)


def _sites(rng, d, count):
    """Positions for groups of coincident points: the origin, a site at
    exactly ``beta * h`` from it (for the built-in truncated kernels), the
    origin's ``-0.0`` twin, ``count`` random sites and an isolated one."""
    v, h = representable_boundary_pair(1.0)
    origin = np.zeros(d)
    at_radius = origin.copy()
    at_radius[0] = v
    sites = [origin, at_radius, -origin, *rng.uniform(-1.5, 1.5, size=(count, d)),
             np.full(d, 100.0)]
    return np.array(sites), h


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_state_equals_full_row_reference(data):
    # many coincident groups, so the state computes each row once per
    # distinct position; n = 128 and 129 sit on both sides of the size
    # below which no grouping is made, and a truncated state's a x n pairs
    # fit in one block or span several; either way it holds O(n d)
    kernel = bs.builtin(data.draw(st.sampled_from(bs.BUILTIN_IDS), label="kernel"))
    n = data.draw(st.sampled_from([1, 2, 9, 128, 129, 200]), label="n")
    d = data.draw(st.integers(1, 3), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    sites, h = _sites(rng, d, data.draw(st.integers(0, 5), label="random sites"))
    pts = sites[rng.integers(0, len(sites), size=n)]
    loose = data.draw(st.integers(0, n), label="points off the sites")
    pts[rng.integers(0, n, size=loose)] = rng.uniform(-1.5, 1.5, size=(loose, d))
    moved = pts + rng.normal(scale=1e-3, size=pts.shape)  # groups move apart
    state = _assert_state_equals_full_rows(pts, kernel, h, moved)
    distinct = len({row.tobytes() for row in pts})
    grouped = n > 128 and distinct < n
    assert (state.distinct.inv is not None) == grouped


@pytest.mark.parametrize("kernel_id", ["gaussian", "cauchy", "logistic", "epanechnikov",
                                       "biweight"])
@pytest.mark.parametrize("n", [129, 300])
def test_dense_single_distinct_row(kernel_id, n):
    # every point coincides: one weight row, whose j-sums must not turn into
    # numpy's pairwise sum of a lone column (n equal terms of 0.1 add up to
    # different bits in the two orders)
    pts = np.full((n, 2), 0.1)
    pts[:, 1] = -1.3
    moved = pts + np.linspace(0.0, 1e-3, n)[:, None]
    state = _assert_state_equals_full_rows(pts, bs.builtin(kernel_id), 0.5, moved)
    assert state.distinct.rows.shape == (1, 2)


def test_isolated_tricube_group_stays_apart():
    # g(0) = 0: coincident points with no other point in reach are not joined
    # to each other, so the grouped graph must not merge them, whether the
    # a x n pairs fit in one block (a = 101) or not (a = 251)
    tricube = bs.builtin("tricube")
    for n, one_block in ((150, True), (300, False)):
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(n, 2))
        pts[n - 50:] = pts[0]  # a group joined to its neighbours
        pts[n - 10:] = 50.0  # an isolated group of ten
        state = _assert_state_equals_full_rows(pts, tricube, 0.5, pts + 1e-3)
        assert state.distinct.inv is not None
        assert (state.distinct.a * n <= _BLOCK_ENTRIES) == one_block
        assert len(set(state.labels[n - 10:])) == 10


@pytest.mark.parametrize("kernel_id", ["gaussian", "cauchy", "logistic"])
@pytest.mark.parametrize("n", [1, 40, 300])
def test_full_support_state_is_one_component(kernel_id, n, monkeypatch):
    # a complete graph: M is 1, every label 0 and the component diameter
    # the diameter, with no component numbered
    def numbered(roots):
        raise AssertionError("a full-support state numbered its components")

    monkeypatch.setattr(pairwise_mod, "_numbered", numbered)
    pts = np.random.default_rng(n).normal(size=(n, 2))
    pts[n // 2:] = pts[0]
    state = PairwiseState(pts, bs.builtin(kernel_id), 0.5, {"update"})
    assert state.M == 1
    assert state.labels.dtype == np.intp and not state.labels.flags.writeable
    assert np.array_equal(state.labels, np.zeros(n, dtype=np.intp))
    assert _bits(state.component_diameter) == _bits(state.diameter)
    assert _bits(state.diameter) == _bits(math.sqrt(float(pairwise_sqdist(pts, pts).max())))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_full_support_reads_move_no_bit(data):
    # the sums a full-support state's constructor fills because its caller
    # reads them equal the extra passes that compute them otherwise
    kernel = bs.builtin(data.draw(st.sampled_from(["cauchy", "gaussian", "logistic"]),
                                  label="kernel"))
    n = data.draw(st.sampled_from([1, 2, 129, 300]), label="n")
    d = data.draw(st.sampled_from([1, 3]), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    sites, h = _sites(rng, d, data.draw(st.integers(0, 5), label="random sites"))
    pts = sites[rng.integers(0, len(sites), size=n)]
    loose = data.draw(st.integers(0, n), label="points off the sites")
    pts[rng.integers(0, n, size=loose)] = rng.uniform(-1.5, 1.5, size=(loose, d))
    if data.draw(st.booleans(), label="one position"):
        pts[:] = pts[0]  # a == 1: the lone column's zero twin
    _assert_reads_move_no_bit(pts, kernel, h, pts + rng.normal(scale=1e-3, size=pts.shape))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_block_truncated_reads_move_no_bit(data):
    # a truncated state whose pairs fit in one block (n <= 128) fills what
    # its caller reads in the same pass, as a full-support state does
    kernel = bs.builtin(data.draw(st.sampled_from(["epanechnikov", "biweight", "cosine"]),
                                  label="kernel"))
    n = data.draw(st.sampled_from([1, 2, 12, 128]), label="n")
    d = data.draw(st.sampled_from([1, 3]), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    sites, h = _sites(rng, d, data.draw(st.integers(0, 5), label="random sites"))
    pts = sites[rng.integers(0, len(sites), size=n)]
    loose = data.draw(st.integers(0, n), label="points off the sites")
    pts[rng.integers(0, n, size=loose)] = rng.uniform(-1.5, 1.5, size=(loose, d))
    _assert_reads_move_no_bit(pts, kernel, h, pts + rng.normal(scale=1e-3, size=pts.shape))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_edge_list_reads_move_no_bit(data):
    # a truncated state whose pairs span several blocks fills what its
    # caller reads in the same pass too, its labels and degrees included
    kernel = bs.builtin(data.draw(st.sampled_from(["epanechnikov", "biweight", "cosine"]),
                                  label="kernel"))
    n = data.draw(st.sampled_from([200, 300]), label="n")
    d = data.draw(st.sampled_from([1, 3]), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    sites, h = _sites(rng, d, data.draw(st.integers(0, 5), label="random sites"))
    pts = sites[rng.integers(0, len(sites), size=n)]
    # at least n / 2 distinct positions, so a * n exceeds one block
    loose = data.draw(st.integers(n // 2, n), label="points off the sites")
    pts[rng.choice(n, size=loose, replace=False)] = rng.uniform(-1.5, 1.5, size=(loose, d))
    read, _ = _assert_reads_move_no_bit(pts, kernel, h,
                                        pts + rng.normal(scale=1e-3, size=pts.shape))
    assert read.distinct.a * read.n > _BLOCK_ENTRIES


@pytest.mark.parametrize("n", [12, 300])
def test_reads_move_no_bit_at_the_boundary(n):
    # a non-smoothly truncated pair exactly at beta * h, whose profile
    # argument is the support boundary bitwise at this h: boundary_hit is
    # true and the margin is 0.0, whether the pass or a later one computes
    # them, in one chunk (n = 12) and over several (n = 300)
    kernel, h = bs.builtin("epanechnikov"), 1.004
    radius = kernel.beta * h
    assert radius * radius / (2.0 * h * h) == kernel.boundary_u
    pts = np.random.default_rng(3).uniform(-1.5, 1.5, size=(n, 2))
    pts[0] = 0.0
    pts[1] = (radius, 0.0)
    moved = pts + np.random.default_rng(4).normal(scale=1e-3, size=pts.shape)
    for state in _assert_reads_move_no_bit(pts, kernel, h, moved):
        assert (state.distinct.a * n <= _BLOCK_ENTRIES) == (n == 12)
        _assert_holds_no_pairwise_array(state)
        assert state.boundary_hit
        assert _bits(state.margin) == _bits(0.0)


@pytest.mark.parametrize("kernel_id,n", [("cauchy", 12), ("cauchy", 300),
                                         ("epanechnikov", 12), ("epanechnikov", 300)])
def test_undeclared_objective_evaluates_no_profile(kernel_id, n):
    # a state built for its moments (a fuzz probe's read) evaluates the
    # profile zero times; the objective's first read evaluates it
    base = bs.builtin(kernel_id)
    calls = []

    def profile(u):
        calls.append(u.shape)
        return base.profile(u)

    kernel = replace(base, profile=profile)
    pts = np.random.default_rng(6).uniform(-1.0, 1.0, size=(n, 2))
    state = PairwiseState(pts, kernel, 0.5, {"moments"})
    state.is_fixed_point(0.0)
    assert state.M >= 1 and state.singular in (True, False)  # the probe's other reads
    assert calls == []
    want = PairwiseState(pts, base, 0.5, {"objective"}).objective
    assert _bits(state.objective) == _bits(want)
    assert calls


@pytest.mark.parametrize("n", [60, 200])
def test_later_pass_keeps_the_structure(n):
    # four tight blobs far apart: closed, not singular, M = 4, so the
    # component diameter is the largest joined distance.  Reading the
    # objective, the margin and then the labels runs the pass three times
    # more, in one block (n = 60) or several (n = 200); each fills only
    # what it is run for, the state holds O(n d) throughout, and the values
    # it fills must be bitwise those of a state that declared them
    kernel, h = bs.builtin("epanechnikov"), 0.5
    rng = np.random.default_rng(9)
    centres = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    pts = centres[np.arange(n) % 4] + rng.uniform(-0.2, 0.2, size=(n, 2))
    pts[n - 20:] = pts[:20]  # coincident points, grouped when n > 128
    state = PairwiseState(pts, kernel, h, {"moments"})
    assert state._objective is None and state._margin is None and state._roots is None
    assert (state.distinct.a * n <= _BLOCK_ENTRIES) == (n == 60)
    objective, margin = state.objective, state.margin
    want = PairwiseState(pts, kernel, h, {"moments", "objective", "margin", "labels"})
    assert state._roots is None and state._degree is None
    _assert_holds_no_pairwise_array(state)
    assert _bits(objective) == _bits(want.objective)
    assert _bits(margin) == _bits(want.margin)
    assert state.boundary_hit == want.boundary_hit
    assert np.array_equal(state.labels, want.labels) and state.M == 4
    assert state.closed and want.closed
    assert not state.singular and not want.singular
    assert _bits(state.component_diameter) == _bits(want.component_diameter)
    assert _bits(state.diameter) == _bits(want.diameter)
    assert state.moments().tobytes() == want.moments().tobytes()
    _assert_holds_no_pairwise_array(state)


_EVERY_READ = frozenset({"update", "moments", "objective", "margin", "labels",
                         "closed", "diameter", "singular"})


def _assert_reads_move_no_bit(pts, kernel, h, moved):
    """A state built with every read gives bitwise the values of one built
    with none, whose values come from later passes; returns both."""
    read = PairwiseState(pts, kernel, h, reads=_EVERY_READ)
    plain = PairwiseState(pts, kernel, h)
    # what each constructor's pass filled: a full-support kernel has no
    # boundary and one component, so its margin (inf) and boundary hit
    # (False) take no pass; a state that declares nothing runs no pass
    filled = (read._update, read._moments, read._max_sqdist, read._objective)
    assert all(value is not None for value in filled)
    assert (read._joined_max is None) == (not kernel.truncated)
    assert plain._max_sqdist is None and plain._joined_max is None
    assert (read._margin is None) == (read._boundary_hit is None) == (not kernel.truncated)
    assert (read._roots is None) == (read._degree is None) == (not kernel.truncated)
    assert all(value is None for value in (plain._update, plain._moments, plain._objective,
                                           plain._margin, plain._boundary_hit,
                                           plain._roots, plain._degree))
    assert read.boundary_hit == plain.boundary_hit
    assert _bits(read.margin) == _bits(plain.margin)
    assert read.update().tobytes() == plain.update().tobytes()
    assert _bits(read.objective) == _bits(plain.objective)
    assert read.moments().tobytes() == plain.moments().tobytes()
    assert read.gradient().tobytes() == plain.gradient().tobytes()
    for tol in (0.0, 1e-12 * max(plain.diameter, h)):
        assert read.is_fixed_point(tol) == plain.is_fixed_point(tol)
    assert _bits(read.minorizer_gap(moved)) == _bits(plain.minorizer_gap(moved))
    assert _bits(read.minorizer_gap(pts)) == _bits(plain.minorizer_gap(pts)) == _bits(0.0)
    assert np.array_equal(read.labels, plain.labels)
    assert read.closed == plain.closed and read.singular == plain.singular
    assert _bits(read.component_diameter) == _bits(plain.component_diameter)
    assert _bits(read.diameter) == _bits(plain.diameter)
    for state in (read, plain):
        _assert_holds_no_pairwise_array(state)
    return read, plain


@st.composite
def _pair_graphs(draw):
    """A graph on ``a`` vertices as the pair lists ``(u, v)``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="path"):
        # a path through every vertex in scrambled order, each edge listed
        # once: its labels must travel the whole length
        a = draw(st.one_of(st.integers(1, 128), st.sampled_from([2000, 4096])), label="a")
        order = rng.permutation(a)
        u, v = order[:-1], order[1:]
    else:
        a = draw(st.integers(1, 128), label="a")
        density = draw(st.sampled_from([0.0, 0.5 / a, 2.0 / a, 0.3]), label="density")
        adjacency = rng.random((a, a)) < density
        u, v = np.nonzero(adjacency | adjacency.T)
    if draw(st.booleans(), label="self-loops"):
        u, v = np.concatenate([u, np.arange(a)]), np.concatenate([v, np.arange(a)])
    shuffle = rng.permutation(u.size)
    return a, u[shuffle], v[shuffle]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graph=_pair_graphs(), chunks=st.integers(1, 5))
def test_pair_list_union_equals_scipy(graph, chunks):
    # the pairs come in several chunks, as a state's pass hands them over;
    # each vertex ends labelled by the smallest vertex of its component
    a, u, v = graph
    _, raw = connected_components(coo_array((np.ones(u.size), (u, v)), shape=(a, a)),
                                  directed=False)
    smallest = {}
    want = np.array([smallest.setdefault(c, vertex) for vertex, c in enumerate(raw)])
    labels = np.arange(a)
    for part in np.array_split(np.arange(u.size), chunks):
        labels = _union(labels, u[part], v[part])
    assert np.array_equal(labels, want)


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


def _four_blobs(n):
    # four Gaussian blobs (sigma 0.4, centres uniform in [-3, 3]^2)
    rng = np.random.default_rng(0)
    centres = rng.uniform(-3.0, 3.0, size=(4, 2))
    return centres[rng.integers(0, 4, size=n)] + rng.normal(scale=0.4, size=(n, 2))


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_truncated_run_bms_peak_below_one_dense_matrix():
    # about 14% of the pairs are joined at h = 0.5, and a run must stay far
    # below one n x n array (30.5 MiB) whatever it holds per joined pair.
    # The fixed bounds sit about 3 MiB and 2 MiB above the 20.9 and 11.7 MiB
    # of a run that keeps its joined pairs as an edge list; the streamed
    # states peak below 4 MiB (test_truncated_peak_below_four_mib).
    n = 2000
    pts = _four_blobs(n)
    for kernel_id, bound_mib in (("epanechnikov", 24), ("biweight", 14)):
        kernel = bs.builtin(kernel_id)
        run_bms(pts[:200], kernel, 0.5, stop=StopRule(max_iter=1))  # warm-up
        peak = _traced_peak(lambda: run_bms(pts, kernel, 0.5, stop=StopRule(max_iter=2)))
        assert peak < bound_mib * 2**20, kernel_id


def test_full_support_peak_below_four_mib():
    # a full-support state holds no weight array: every sum, the minorizer
    # gap's included, streams over chunks of j-rows, so the peak is
    # O(n d) plus one chunk per sum, far below one n x n array (30.5 MiB)
    n = 2000
    pts = _four_blobs(n)
    kernel = bs.builtin("gaussian")
    bs.run_verify(pts[:200], kernel, 0.5, stop=StopRule(max_iter=1))  # warm-up
    assert _traced_peak(lambda: run_bms(pts, kernel, 0.5, stop=StopRule(max_iter=2))) \
        < 4 * 2**20
    assert _traced_peak(lambda: bs.run_verify(pts, kernel, 0.5, stop=StopRule(max_iter=1))) \
        < 4 * 2**20


def test_truncated_peak_below_four_mib():
    # a truncated state keeps no join bit or edge either: its degrees and
    # components stream through the pass, so a run whose clusters contract
    # to cliques peaks like a full-support one, far below its joined pairs
    # (about 14% of the n x n at h = 0.5)
    n = 2000
    pts = _four_blobs(n)
    for kernel_id in ("epanechnikov", "biweight"):
        kernel = bs.builtin(kernel_id)
        bs.run_verify(pts[:200], kernel, 0.5, stop=StopRule(max_iter=1))  # warm-up
        assert _traced_peak(lambda: run_bms(pts, kernel, 0.5, stop=StopRule(max_iter=2))) \
            < 4 * 2**20, kernel_id
        assert _traced_peak(lambda: bs.run_verify(pts, kernel, 0.5,
                                                  stop=StopRule(max_iter=1))) \
            < 4 * 2**20, kernel_id


def test_truncated_chunk_peak_does_not_grow_with_distinct_rows():
    # a truncated chunk's slabs and its entries' profile arguments and
    # weights share three blocks, so a state whose n x a pairs fit in one
    # chunk peaks below four blocks of float64 whatever a is; with the
    # temporaries on top of the slabs, a = 40 peaked at about five
    kernel = bs.builtin("epanechnikov")
    n = 400
    rng = np.random.default_rng(3)
    for a in (16, 24, 32, 40, 48):
        pts = rng.uniform(-1.0, 1.0, size=(a, 2))[np.arange(n) % a]
        PairwiseState(pts, kernel, 0.25, {"update"})  # warm-up
        peak = _traced_peak(lambda: PairwiseState(pts, kernel, 0.25, {"update"}))
        assert peak < 4 * _BLOCK_ENTRIES * 8, a


def test_dropped_states_keep_no_memory():
    # 600 dropped states hold no memory, on every path: a closure over 20
    # names left a 200 B tuple per state on CPython 3.11's tuple free list,
    # which never hands a 20-item tuple back (117 KiB here).  Other free
    # lists fill by a few KiB over the same builds.
    rng = np.random.default_rng(7)
    configs = [rng.uniform(-1.0, 1.0, size=(n, 2)) for n in (2, 12, 300)]

    def build():
        for kernel_id in ("gaussian", "epanechnikov"):
            for pts in configs:
                state = PairwiseState(pts, bs.builtin(kernel_id), 0.5, {"moments"})
                state.is_fixed_point(0.0)
                state.minorizer_gap(0.5 * pts)
                state.joined_rows()
                assert state.M >= 1 and state.objective > 0 and state.margin >= 0

    build()
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(10):
            build()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(100):
            build()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 32 * 1024


def test_overflowing_distances_raise():
    pts = [[0.0, 0.0], [1e159, 0.0], [5e160, 0.0]]
    with pytest.raises(ValueError, match="overflow"):
        run_bms(pts, bs.builtin("epanechnikov"), 1e150)
    with pytest.raises(ValueError, match="overflow"):
        diameter(pts)
    assert math.isfinite(diameter([[0.0], [1e150]]))


@pytest.mark.parametrize("n", [3, 200])
def test_overflow_fails_by_name_without_the_diameter(n):
    # a state that does not read the diameter still fails by name, from its
    # bounding box's bound, on a scan (n = 3) and on a grid state (n = 200)
    kernel, h = bs.builtin("epanechnikov"), 1e150
    pts = np.column_stack([np.linspace(0.0, 1e159, n), np.zeros(n)])
    # the same configuration scaled by a power of two, which overflows
    # nothing and takes the same cells, takes the grid exactly when n = 200
    with forced_source() as taken:
        PairwiseState(np.ldexp(pts, -600), kernel, math.ldexp(h, -600), {"update"})
    assert (taken == ["grid"]) == (n == 200)
    for build in (lambda: bms_step(pts, kernel, h),
                  lambda: PairwiseState(pts, kernel, h, {"update"})):
        with pytest.raises(ValueError, match="squared pairwise distances overflow"):
            build()


@pytest.mark.parametrize("kernel_id", ["epanechnikov", "gaussian"])
@pytest.mark.parametrize("n", [4, 200])
def test_overflowing_box_without_an_overflowing_pair_builds(kernel_id, n):
    # the box's squared diagonal is 2 * 1.69e308, but no pair is farther
    # apart than one side of it
    sites = np.array([[0.0, 6.5e153], [1.3e154, 6.5e153], [6.5e153, 0.0], [6.5e153, 1.3e154]])
    pts = sites[np.arange(n) % 4]
    assert _box_overflows(sites)
    kernel = bs.builtin(kernel_id)
    for reads in (frozenset(), {"update"}, {"update", "diameter", "singular"}):
        state = PairwiseState(pts, kernel, 1e153, reads)
        assert _bits(state.diameter) == _bits(diameter(pts))
        assert state.update().shape == pts.shape
    assert bms_step(pts, kernel, 1e153).n == n
