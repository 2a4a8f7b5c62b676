"""Every pair source of a pass gives the same bits, and the rule that picks
one takes the source that bench/pair_sources.py measured as faster."""

import struct

import numpy as np
import pytest

import blurshift as bs
from blurshift._pairwise import DistinctRows, PairwiseState
from blurshift.engine import StopRule, run_bms
from conftest import forced_source

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
        state = PairwiseState(points, _KERNEL, _H, {"gap"})
        out["gap_before"] = _bits(state._gap_before)
        out["gap_after"] = _bits(state._pass({"gap"}, after=moved))
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
# positions the gathered rows took 64.1 us for the update and 61.9 us for
# the gap's pre-step term, against 66.9 and 66.6 us on the grid and 101.8
# and 93.8 us in row blocks; at 67 positions the grid took 71.9 us for the
# update, against 80.6 gathered and 129.1 in row blocks
@pytest.mark.parametrize("seed,reads,faster", [(8, {"update"}, "gathered"),
                                               (8, {"gap"}, "gathered"),
                                               (3, {"update"}, "grid")])
def test_rule_takes_the_measured_faster_source(seed, reads, faster):
    points = _grouped_state_points(seed)
    with forced_source() as taken:
        PairwiseState(points, _KERNEL, _H, reads)
    assert taken == [faster]
