"""The tiled pass of an ungrouped state whose slabs are all symmetric (both
terms of the minorizer gap, the objective, the largest squared distances) gives
bit for bit what the row-chunk pass over every ordered pair gives."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blurshift as bs
from blurshift import _pairwise
from blurshift._pairwise import _BLOCK_ENTRIES, PairwiseState, _ascending_j, _tiled_j
from conftest import forced_source

_KERNEL_IDS = (*bs.ASSUMPTION1_IDS, "tricube")
# the tile sides: a truncated pass of at most five slabs fills three fifths
# of a block per slab, a full-support pass a block
_SIDES = (math.isqrt(3 * _BLOCK_ENTRIES // 5), math.isqrt(_BLOCK_ENTRIES))
_SIZES = sorted({n for side in _SIDES for n in (1, 2, side - 1, side, side + 1, 3 * side + 5)})


def _bits(value):
    return struct.pack("<d", value)


def _row_chunks(n, slabs, fill, entries):
    # the row-chunk pass's sums: every j-row against every column
    return _ascending_j(n, n, slabs, fill, entries)


def _symmetric_values(pts, kernel, h, sums=_tiled_j):
    """What the symmetric passes fill, and the column sums of each pass that
    would tile, from ``sums``, on states that scan every pair."""
    passes = []

    def recorded(n, slabs, fill, entries):
        passes.append(sums(n, slabs, fill, entries))
        return passes[-1]

    # every pass tiles where it may, and no state takes the grid
    with forced_source(tiles=0.0, grid=math.inf), pytest.MonkeyPatch.context() as patch:
        patch.setattr(_pairwise, "_tiled_j", recorded)
        state = PairwiseState(pts, kernel, h, {"diameter"})
        n = state.n
        keep = 0.5 * pts + 0.125  # keeps every group of coincident points
        split = pts + np.linspace(0.0, 1e-3, n)[:, None]  # splits every group
        values = [state.max_sqdist, state.objective, state._joined_max_sqdist(),
                  state.minorizer_gap(keep), state.minorizer_gap(split)]
    return [_bits(v) for v in values], [p.tobytes() for p in passes]


def _assert_tiles_equal_row_chunks(pts, kernel, h):
    values, tiled = _symmetric_values(pts, kernel, h)
    assert tiled  # some pass tiles
    assert _symmetric_values(pts, kernel, h, _row_chunks) == (values, tiled)


def _planted(rng, n, d, h, kernel):
    # points over a few joining radii, every third one coinciding with the
    # one before it, so that a state of more than 128 points groups them
    radius = kernel.beta * h if kernel.truncated else h
    pts = rng.uniform(-3.0, 3.0, size=(n, d)) * radius
    pts[1::3] = pts[::3][:pts[1::3].shape[0]]
    return pts


@pytest.mark.parametrize("kernel_id", _KERNEL_IDS)
@pytest.mark.parametrize("n", _SIZES)
def test_tiled_pass_equals_row_chunk_pass(kernel_id, n):
    kernel = bs.builtin(kernel_id)
    rng = np.random.default_rng(n)
    for d, h in ((1, 0.05), (2, 0.8), (3, 50.0)):
        _assert_tiles_equal_row_chunks(_planted(rng, n, d, h, kernel), kernel, h)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), slabs=st.integers(1, 3), entries=st.integers(1, 90),
       seed=st.integers(0, 2**16))
def test_tiled_sums_equal_ascending_sums(n, slabs, entries, seed):
    # the summation order alone, on symmetric terms of every magnitude and
    # sign, and on tiles small enough that many of them mirror
    rng = np.random.default_rng(seed)
    terms = rng.standard_normal((slabs, n, n)) * 10.0 ** rng.integers(-8, 9, size=(slabs, n, n))
    terms = terms + terms.transpose(0, 2, 1)

    def fill(rows, out, cols=slice(None)):
        out[...] = terms[:, rows, cols]

    got = _tiled_j(n, slabs, fill, entries)
    assert got.tobytes() == _ascending_j(n, n, slabs, fill).tobytes()


def test_grouped_states_keep_the_row_chunk_pass():
    # a grouped state sums over its distinct columns, not n x n pairs
    kernel = bs.builtin("biweight")
    pts = _planted(np.random.default_rng(1), 3 * _SIDES[0] + 5, 2, 0.8, kernel)
    state = PairwiseState(pts, kernel, 0.8)
    assert state.distinct.inv is not None
    with forced_source(tiles=0.0) as taken:  # tiles wherever a pass may tile
        state.minorizer_gap(0.5 * pts)
        assert state.objective > 0
    assert len(taken) == 2 and "tiles" not in taken  # the gap's pass and the objective's
