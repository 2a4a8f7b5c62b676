"""Every pair source of a pass gives the same bits, and the rule that picks
one takes the source that bench/pair_sources.py measured as faster."""

import struct

import numpy as np
import pytest

import blurshift as bs
from blurshift._pairwise import DistinctRows, PairwiseState
from blurshift.engine import StopRule, run_bms
from conftest import PLANTED_SIZES, forced_source, planted_points

_KERNEL = bs.builtin("epanechnikov")
_H = 0.25
_SOURCES = ("rows", "gathered", "grid")


def _grouped_state_points(seed=3):
    """The configuration that step 6 of an epanechnikov run starts from, on
    bench/pair_sources.py's 400-point standardized uniform square of
    ``seed`` at h = 0.25: 67 positions for seed 3 (44 for seed 8), a few per
    cluster, whose 3 x 67 x 67 pairs of an update fit one block and whose
    400 x 67 pairs span two."""
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(400, 2))
    pts = (pts - pts.mean(axis=0)) / pts.std(axis=0)
    return run_bms(pts, _KERNEL, _H, StopRule(max_iter=5, move_tol=0.0)).final.points


def _bits(value):
    return struct.pack("<d", value)


def _values(points, moved, source):
    """Each read from a state of its own, each pass forced to ``source``."""
    with forced_source(**{source: 0.0}) as taken:
        out = {
            "update": PairwiseState(points, _KERNEL, _H, {"update"}).update().tobytes(),
            "moments": PairwiseState(points, _KERNEL, _H, {"moments"}).moments().tobytes(),
            "objective": _bits(PairwiseState(points, _KERNEL, _H, {"objective"}).objective),
            "diameter": _bits(PairwiseState(points, _KERNEL, _H, {"diameter"}).diameter),
            "stable": PairwiseState(points, _KERNEL, _H, {"stable"}).stable(),
        }
        state = PairwiseState(points, _KERNEL, _H)
        out["gap_terms"] = tuple(_bits(term) for term in state._pass((), after=moved))
        out["gap"] = _bits(state.minorizer_gap(moved))
    assert set(taken) == {source}
    return out


def test_every_source_gives_the_same_bits():
    points = _grouped_state_points()
    distinct = DistinctRows(points)
    assert distinct.inv is not None and 41 <= distinct.a <= 73
    moved = distinct.expand(distinct.rows + 1e-3 * np.sin(distinct.rows))  # keeps the groups
    want = _values(points, moved, "rows")
    for source in _SOURCES[1:]:
        assert _values(points, moved, source) == want, source


# bench/pair_sources.py timed the passes of these states (cases
# square8/t=6/n=400 and square3/t=6/n=400 of the run kept in BENCH_32.json)
# with each source forced, on a 2-CPU x86-64 VM with numpy 2.4.6: at 44
# positions the gathered rows took 64.1 us for the update, against 66.9 us
# on the grid and 101.8 us in row blocks; at 67 positions the grid took
# 71.9 us for the update, against 80.6 gathered and 129.1 in row blocks.
# The gap's pass, which sums both of its terms, at 44 positions took 186.7
# us gathered against 193.9 us on the grid and 358.7 in row blocks in the
# run kept in BENCH_33.json, on another 2-CPU x86-64 VM: a near tie, which
# two earlier runs there read as 167.3 against 166.6 and 186.3 against 192.7
@pytest.mark.parametrize("seed,reads,faster", [(8, {"update"}, "gathered"),
                                               (8, set(), "gathered"),
                                               (3, {"update"}, "grid")])
def test_rule_takes_the_measured_faster_source(seed, reads, faster):
    # a state that declares nothing runs no pass of its own: the gap's pass
    points = _grouped_state_points(seed)
    with forced_source() as taken:
        state = PairwiseState(points, _KERNEL, _H, reads)
        if not reads:
            state.minorizer_gap(points)
    assert taken == [faster]


def _symmetric_values(pts, kernel, h, source):
    """The symmetric reads of a state of ``pts`` (the largest squared
    distances, the objective, both gaps' passes), every pass forced to
    ``source`` where it is eligible, and the set of sources taken."""
    with forced_source(**{source: 0.0}) as taken:
        state = PairwiseState(pts, kernel, h, {"diameter"})
        n = state.n
        keep = 0.5 * pts + 0.125  # keeps every group of coincident points
        split = pts + np.linspace(0.0, 1e-3, n)[:, None]  # splits every group
        values = [state.max_sqdist, state.objective, state._joined_max_sqdist(),
                  state.minorizer_gap(keep), state.minorizer_gap(split)]
    return [_bits(v) for v in values], set(taken)


# states of more than 128 points group the planted coincident points, so
# some pass may take the gathered rows, whose distinct pairs fit one block
# at the smallest of those sizes alone, or, for a truncated kernel, the grid
_GROUPED = [n for n in PLANTED_SIZES if n > 128]
_ELIGIBLE = [(kernel_id, n) for kernel_id in (*bs.ASSUMPTION1_IDS, "tricube")
             for n in _GROUPED if n == _GROUPED[0] or bs.builtin(kernel_id).truncated]


@pytest.mark.parametrize("kernel_id,n", _ELIGIBLE)
def test_every_source_keeps_the_symmetric_values(kernel_id, n):
    kernel = bs.builtin(kernel_id)
    rng = np.random.default_rng(n)
    taken = set()
    for d, h in ((1, 0.05), (2, 0.8), (3, 50.0)):
        pts = planted_points(rng, n, d, h, kernel)
        want, on_rows = _symmetric_values(pts, kernel, h, "rows")
        assert on_rows == {"rows"}
        for source in _SOURCES[1:]:
            got, sources = _symmetric_values(pts, kernel, h, source)
            assert got == want, (source, d)
            taken |= sources
    assert taken - {"rows"}
