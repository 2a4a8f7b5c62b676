"""A truncated state's candidate pairs from a grid of cells give bit for bit
the state that scans every pair."""

import contextlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import blurshift as bs
from blurshift import _pairwise
from blurshift._pairwise import _BLOCK_ENTRIES, PairwiseState
from blurshift.engine import StopRule, run_bms

from conftest import representable_boundary_pair

_SAMPLED = bs.kernel_from_descriptor({
    "id": "sampled", "samples": {"u": [0.0, 0.3, 1.0], "k": [1.0, 0.6, 0.0]},
    "beta": math.sqrt(2.0), "class": "non_smoothly_truncated"})
_KERNELS = {**{k: bs.builtin(k) for k in ("epanechnikov", "biweight", "cosine", "tricube")},
            "sampled": _SAMPLED}
_READS = frozenset({"update", "moments", "objective", "margin", "labels"})


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


@contextlib.contextmanager
def _scanning():
    # no share of candidates is small enough: every pair is evaluated
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_pairwise, "_GRID_SHARE", -1.0)
        yield


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
       planted=st.integers(0, 6), scale=st.sampled_from([0, 500, -500]),
       seed=st.integers(0, 2**32 - 1))
def test_grid_state_equals_scanned_state(kernel_id, d, layout, planted, scale, seed):
    # scaling the points and the bandwidth by 2**scale keeps every bit of
    # the profile arguments, so the planted pairs stay at the radius
    # (clusters 2**540 apart would overflow the squared distances)
    assume(not (layout == "far clusters" and scale == 500))
    kernel = _KERNELS[kernel_id]
    _, h = representable_boundary_pair(1.0)
    pts = _configuration(np.random.default_rng(seed), d, layout, planted, h)
    pts, h = np.ldexp(pts, scale), math.ldexp(h, scale)
    state = PairwiseState(pts, kernel, h, _READS)
    assert state.n * state.distinct.a > _BLOCK_ENTRIES
    # 2**40 h is beyond 2**30 cells from the origin: the cell indices could
    # round by more than the cells' inflation, so the state scans every pair
    assert (state._grid is None) == (layout == "far clusters")
    assert _fields(state) == _scanned_fields(pts, kernel, h)


@pytest.mark.parametrize("kernel_id", ["epanechnikov", "sampled"])
def test_stable_beyond_the_inflation_reads_the_exact_margin(kernel_id):
    # a pair at 1.5 radii lies in a neighbouring cell, so it is a candidate
    # and its margin is the candidates' 0.5 radii; a tolerance above 2**-24
    # of the radius reads the exact margin, which scans every pair
    kernel = _KERNELS[kernel_id]
    h = 0.5
    radius = kernel.beta * h
    pts = np.arange(300.0)[:, None] * (3.0 * radius) * np.ones(2)
    pts[1] = pts[0] + (1.5 * radius, 0.0)
    state = PairwiseState(pts, kernel, h, _READS)
    assert state._grid is not None
    assert state._margin is None and state._near_margin == pytest.approx(0.5 * radius)
    assert state.stable()
    assert state._margin is None  # decided from the candidates
    want = _scanned(pts, kernel, h)
    for tol in (0.25 * radius, 0.5 * radius, 0.75 * radius):
        assert state.stable(tol) == want.stable(tol)
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

    def counted_cells(rows, radius):
        found.append(rows.shape)
        return cell_ranges(rows, radius)

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
