"""A truncated state's candidate pairs from a grid of cells give bit for bit
the state that scans every pair."""

import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import blurshift as bs
from blurshift import _pairwise
from blurshift._pairwise import _BLOCK_ENTRIES, PairwiseState
from blurshift.config import pairwise_sqdist
from blurshift.engine import StopRule, run_bms

from conftest import forced_source, representable_boundary_pair

_SAMPLED = bs.kernel_from_descriptor({
    "id": "sampled", "samples": {"u": [0.0, 0.3, 1.0], "k": [1.0, 0.6, 0.0]},
    "beta": math.sqrt(2.0), "class": "non_smoothly_truncated"})
_KERNELS = {**{k: bs.builtin(k) for k in ("epanechnikov", "biweight", "cosine", "tricube")},
            "sampled": _SAMPLED}
_READS = frozenset({"update", "moments", "objective", "margin", "labels", "closed"})


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def _scanning():
    # no state takes the grid: every pair is evaluated
    return forced_source(grid=math.inf)


def _scanned(pts, kernel, h):
    with _scanning():
        return PairwiseState(pts, kernel, h, _READS)


def _scanned_fields(pts, kernel, h):
    # read inside, so that the passes run after the constructor's scan too
    with _scanning():
        return _fields(PairwiseState(pts, kernel, h, _READS))


def _fields(state):
    try:
        update = state.update().tobytes()
    except ValueError as exc:  # g(0) = 0 leaves an isolated point no weight
        update = str(exc)
    pts = state.cfg.points
    return {
        "update": update, "moments": state.moments().tobytes(),
        "objective": _bits(state.objective), "labels": state.labels.tobytes(),
        "degrees": state._degree.tobytes(), "closed": state.closed,
        "singular": state.singular, "stable": state.stable(),
        "boundary_hit": state.boundary_hit, "joined_max": _bits(state._joined_max),
        "component_diameter": _bits(state.component_diameter),
        "joined_rows": state.joined_rows().tobytes(),
        # towards points that keep the groups, and towards points that split them
        "gap_kept": _bits(state.minorizer_gap(0.5 * pts + 0.125)),
        "gap_split": _bits(state.minorizer_gap(pts + np.linspace(0.0, 1e-3, state.n)[:, None])),
        # read last: the exact margin of a grid state scans every pair
        "margin": _bits(state.margin), "diameter": _bits(state.diameter),
    }


def _configuration(rng, d, layout, planted, h):
    """About 300 points spread over 24 radii of the grid's axes (1.5 of the
    others), with planted pairs near the joining radius and duplicates."""
    kernel_radius = math.sqrt(2.0) * h
    n = 300
    widths = np.full(d, 1.5)
    widths[:2] = 24.0
    pts = rng.uniform(0.0, 1.0, size=(n, d)) * widths * kernel_radius
    v, _ = representable_boundary_pair(1.0)
    for k in range(planted):  # exactly at, one ulp inside and one outside the radius
        i, j = rng.choice(n, size=2, replace=False)
        pts[j] = pts[i]
        pts[j, 0] = pts[i, 0] + (v, math.nextafter(v, 0.0), math.nextafter(v, math.inf))[k % 3]
    dup = rng.choice(n, size=n // 5)
    pts[dup] = pts[rng.choice(n, size=n // 5)]
    if layout == "ring":  # the widest pair need not hold an extreme of an axis
        angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
        pts[:, 0] = 12.0 * kernel_radius * np.cos(angle)
        if d > 1:
            pts[:, 1] = 12.0 * kernel_radius * np.sin(angle)
    elif layout == "offset":
        pts += 1e8 * h
    elif layout == "far clusters":
        pts[: n // 2, 0] += 2.0 ** 40 * h
    return pts


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kernel_id=st.sampled_from(sorted(_KERNELS)), d=st.sampled_from([1, 2, 3, 5]),
       layout=st.sampled_from(["plain", "ring", "offset", "far clusters"]),
       planted=st.integers(0, 6), scale=st.sampled_from([0, 500, -500, -520]),
       seed=st.integers(0, 2**32 - 1))
def test_grid_state_equals_scanned_state(kernel_id, d, layout, planted, scale, seed):
    # scaling the points and the bandwidth by 2**scale keeps every bit of
    # the profile arguments down to 2**-500, so the planted pairs stay at
    # the radius (clusters 2**540 apart would overflow the squared
    # distances); at 2**-520 the squared distances are subnormal
    assume(not (layout == "far clusters" and scale == 500))
    kernel = _KERNELS[kernel_id]
    _, h = representable_boundary_pair(1.0)
    pts = _configuration(np.random.default_rng(seed), d, layout, planted, h)
    pts, h = np.ldexp(pts, scale), math.ldexp(h, scale)
    with forced_source() as taken:
        state = PairwiseState(pts, kernel, h, _READS)
    assert state.n * state.distinct.a > _BLOCK_ENTRIES
    # 2**40 h is beyond 2**30 cells from the origin: the cell indices could
    # round by more than the cells' inflation, and below h = 2**-500 the
    # squared distances lose bits, so the state scans every pair
    assert (taken == ["grid"]) == (layout != "far clusters" and scale > -520)
    assert _fields(state) == _scanned_fields(pts, kernel, h)


def test_grid_refuses_a_radius_whose_square_overflows():
    # the profile vanishes beyond u = 1, but the declared beta = 2**600 is a
    # radius whose square overflows: the grid cannot decide the pairs, and
    # the state scans every one of them
    kernel = bs.kernel_from_descriptor({
        "id": "wide", "samples": {"u": [0.0, 1.0], "k": [1.0, 0.0]},
        "beta": 2.0 ** 600, "class": "non_smoothly_truncated"})
    pts = _configuration(np.random.default_rng(3), 2, "plain", 3, 1.0)
    found = []
    cell_ranges = _pairwise._cell_ranges

    def spied(*args):
        found.append(cell_ranges(*args))
        return found[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_pairwise, "_cell_ranges", spied)
        with forced_source() as taken:
            state = PairwiseState(pts, kernel, 1.0, _READS)
    assert state.n * state.distinct.a > _BLOCK_ENTRIES
    assert found == [None] and "grid" not in taken
    assert _fields(state) == _scanned_fields(pts, kernel, 1.0)
    assert 1 < state.labels.max() + 1 < state.n  # some pairs joined, not all


@pytest.mark.parametrize("kernel_id", ["epanechnikov", "sampled"])
def test_stable_beyond_the_inflation_reads_the_exact_margin(kernel_id):
    # a pair at 1.5 radii lies in a neighbouring cell, so it is a candidate
    # and its margin is the candidates' 0.5 radii; the default test is
    # decided from the candidates, and any other tolerance reads the exact
    # margin, which scans every pair
    kernel = _KERNELS[kernel_id]
    h = 0.5
    radius = kernel.beta * h
    pts = np.arange(300.0)[:, None] * (3.0 * radius) * np.ones(2)
    pts[1] = pts[0] + (1.5 * radius, 0.0)
    with forced_source() as taken:
        state = PairwiseState(pts, kernel, h, _READS)
    assert taken == ["grid"]
    assert state._margin is None  # a grid state's margin comes from a scan
    assert state.stable()
    assert state._margin is None  # decided from the candidates
    want = _scanned(pts, kernel, h)
    for tol in (0.25 * radius, 0.5 * radius, 0.75 * radius):
        assert state.stable(tol) == want.stable(tol)
    assert _bits(state.margin) == _bits(want.margin)


@pytest.mark.parametrize("kernel_id", ["epanechnikov", "cosine"])
@pytest.mark.parametrize("planted", [True, False])
def test_grid_margin_read_fills_the_boundary_hit_alone(kernel_id, planted):
    # every pair at beta * h lies in a neighbouring cell, so the candidates
    # decide the boundary hit; the margin is left to a scan of every pair
    kernel = _KERNELS[kernel_id]
    v, h = representable_boundary_pair(1.0)
    radius = kernel.beta * h
    pts = np.arange(300.0)[:, None] * (3.0 * radius) * np.ones(2)
    pts[1] = pts[0] + (v if planted else 1.5 * radius, 0.0)
    with forced_source() as taken:
        state = PairwiseState(pts, kernel, h, {"margin"})
    assert taken == ["grid"]
    assert state._margin is None and state._boundary_hit is planted
    want = _scanned(pts, kernel, h)
    assert state.boundary_hit == want.boundary_hit
    assert _bits(state.margin) == _bits(want.margin)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(kernel_id=st.sampled_from(["epanechnikov", "cosine", "sampled"]),
       d=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
def test_grid_runs_equal_scanned_runs(kernel_id, d, seed):
    # the states of a run collapse onto few positions: every record, the
    # final points and run_verify's report are the same bits whichever
    # states take the grid
    kernel = _KERNELS[kernel_id]
    _, h = representable_boundary_pair(1.0)
    pts = _configuration(np.random.default_rng(seed), d, "plain", 3, h)
    stop = StopRule(max_iter=6, move_tol=0.0)
    run = run_bms(pts, kernel, h, stop)
    with _scanning():
        want = run_bms(pts, kernel, h, stop)
    assert [tuple(map(_bits, vars(r).values())) for r in run.records] == \
        [tuple(map(_bits, vars(r).values())) for r in want.records]
    assert run.final.points.tobytes() == want.final.points.tobytes()
    report = json.dumps(bs.run_verify(pts, kernel, h, stop=stop).to_json_dict())
    with _scanning():
        assert json.dumps(bs.run_verify(pts, kernel, h, stop=stop).to_json_dict()) == report


def test_grid_state_finds_its_grid_once(monkeypatch):
    # run_verify reads each state in several passes (the constructor's, the
    # post-step gap's, the values not declared): a grid state finds its grid
    # of cells for the first and keeps it for the others
    found, states = [], []
    cell_ranges, init = _pairwise._cell_ranges, PairwiseState.__init__

    def counted_cells(rows, *args):
        found.append(rows.shape)
        return cell_ranges(rows, *args)

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        states.append(self)

    monkeypatch.setattr(_pairwise, "_cell_ranges", counted_cells)
    monkeypatch.setattr(PairwiseState, "__init__", counted_init)
    # a standardized uniform square, with about 13 points per point within the radius
    n = 2000
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(n, 2))
    pts = (pts - pts.mean(axis=0)) / pts.std(axis=0)
    report = bs.run_verify(pts, _KERNELS["epanechnikov"], 0.25 * math.sqrt(400 / n),
                           stop=StopRule(max_iter=3))
    assert report.T == 3 and len(states) == 4  # three steps and the final state
    assert all(state._grid is not None for state in states)
    assert len(found) == len(states)


# --- the grid's candidates, whatever its layout ------------------------------

_RADIUS = 0.5
_QUARTER_EDGE = 2.0 ** 28 * (_RADIUS * _pairwise._CELL_SIDE)  # a sub-cell quotient of 2**30
_GRID_VALUES = [0.0, -0.0, 0.5, -0.5, 0.25, -1.0, *(sign * np.nextafter(_QUARTER_EDGE, step)
                                                   for sign in (1.0, -1.0)
                                                   for step in (0.0, math.inf))]


@st.composite
def _grid_rows(draw):
    # up to 16 rows in a square a few cells wide, some coordinates from
    # _GRID_VALUES (signed zeros, sub-cell quotients next to 2**30), some
    # pools moved next to that edge, and the other rows repeats of them
    d = draw(st.integers(1, 4), label="d")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    pool = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 17)), d))
    edge = rng.random(pool.shape) < 0.15
    pool[edge] = rng.choice(_GRID_VALUES, size=int(edge.sum()))
    pool += draw(st.sampled_from([0.0, 0.0, _QUARTER_EDGE - 1.0, -_QUARTER_EDGE + 1.5]),
                 label="offset")
    return pool[rng.integers(0, pool.shape[0], size=int(rng.integers(1, 41)))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=_grid_rows())
def test_grid_leaves_out_only_pairs_beyond_the_radius(rows):
    # every pair within radius * (1 + 2**-21), in exact arithmetic, is a
    # candidate, each row lists each candidate once, and the squared
    # distance of every pair left out exceeds the rounded radius**2
    grid = _pairwise._cell_ranges(rows, _RADIUS)
    quotients = np.abs(rows) / (_RADIUS * _pairwise._CELL_SIDE)
    if grid is None:  # only where a quotient, a sub-cell's times _SUB, reaches 2**30
        assert np.any(quotients >= 2.0 ** 28)
        return
    order, starts, stops = grid
    n = rows.shape[0]
    candidate = np.zeros((n, n), dtype=bool)
    for r in range(n):
        cols = np.concatenate([order[lo:hi] for lo, hi in zip(starts[:, r], stops[:, r])])
        assert np.unique(cols).size == cols.size
        candidate[r, cols] = True
    assert np.array_equal(candidate, candidate.T) and candidate.diagonal().all()
    within = Fraction(_RADIUS) * (1 + Fraction(1, 2 ** 21))
    exact = [[Fraction(float(x)) for x in row] for row in rows]
    for i, j in zip(*np.nonzero(~candidate)):
        sqd = sum((p - q) ** 2 for p, q in zip(exact[i], exact[j]))
        assert sqd > within * within
    with np.errstate(over="ignore"):
        sqd = pairwise_sqdist(rows)
    assert np.all(sqd[~candidate] > _RADIUS * _RADIUS)


# --- the terminal grouping from the grid -------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(1, 4), layout=st.sampled_from(["plain", "offset", "far"]),
       near=st.sampled_from(["at", "below", "above", "diagonal"]),
       scale=st.sampled_from([0, 400, -400, -520]), seed=st.integers(0, 2**32 - 1))
def test_grid_linkage_equals_scanned_linkage(d, layout, near, scale, seed):
    # lattice points of spacing s (a power of two, so every lattice distance
    # is exact), half of them jittered, with repeated rows and -0.0, linked
    # at radii at, one ulp beside and near the diagonal of the spacing
    rng = np.random.default_rng(seed)
    s, n = 0.25, 300
    pts = rng.integers(0, (2000, 60, 20, 10)[d - 1], size=(n, d)) * s
    jittered = rng.random(n) < 0.5
    pts[jittered] += rng.uniform(-0.1, 0.1, size=(int(jittered.sum()), d)) * s
    pts[pts == 0.0] *= np.where(rng.random(int((pts == 0.0).sum())) < 0.5, -1.0, 1.0)
    dup = rng.choice(n, size=n // 5)
    pts[dup] = pts[rng.choice(n, size=n // 5)]
    if layout == "offset":  # quotients near 2**26, still exact lattice sums
        pts += 2.0 ** 24
    elif layout == "far":  # quotients beyond 2**30: the grid is not taken
        pts[: n // 2, 0] += 2.0 ** 40
    radius = {"at": s, "below": math.nextafter(s, 0.0), "above": math.nextafter(s, 1.0),
              "diagonal": s * math.sqrt(2.0)}[near]
    pts, radius = np.ldexp(pts, scale), math.ldexp(radius, scale)
    taken = []
    candidate_pairs = _pairwise._candidate_pairs

    def spied(*args):
        taken.append(True)
        return candidate_pairs(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_pairwise, "_candidate_pairs", spied)
        labels = _pairwise.single_linkage_labels(pts, radius)
    # below a radius of 2**-500 the grid is not taken either
    assert bool(taken) == (layout != "far" and scale > -520)
    with _scanning():
        want = _pairwise.single_linkage_labels(pts, radius)
    assert labels.tobytes() == want.tobytes()
    assert 1 < labels.max() + 1 < n  # some pairs linked, not all
