"""What ``run_verify`` computes once and reuses keeps its bits.

A pass that reads the moments writes the differences ``y_r - y_j`` into
the moments' slabs and takes the squared distances from them, so each
pair's coordinates are subtracted once: the moments and the squared
distances must equal a direct n x n evaluation bit for bit, in every kind
of pass (row blocks, the gathered block of a grouped state, a grid's pair
lists and a batch's stacks), and so must both terms of the gap's pass of
the same state.  The directional extents take the
directions' coordinates from a contiguous copy of their transpose and must
equal the outer-product form over the (m, d) array, across row blocks.
"""

import math
from unittest import mock

import numpy as np
import pytest

import blurshift as bs
from blurshift import _pairwise
from blurshift._pairwise import DistinctRows, PairwiseState
from blurshift.config import coordinate_sqdist
from blurshift.diagnostics import _extents, direction_set
from conftest import batch_in_order, forced_source

# what run_verify's steps read with the moments, and fewer, each with or
# without the gap's pass of the state after it
_READS = (pytest.param(frozenset({"moments", "diameter"}), False, id="reads0"),
          pytest.param(frozenset({"moments", "diameter"}), True, id="reads1"),
          pytest.param(frozenset({"moments", "update", "objective", "diameter", "labels",
                                  "stable"}), True, id="reads2"))


def _reference(points: np.ndarray, kernel, h: float):
    """The squared distances, the moments and the gap's pre-step total of a
    direct n x n evaluation: ``sqd[r, j]`` adds ``(y_j - y_r)**2`` over
    ascending k; the moments add ``g_rj (y_r - y_j)`` and the gap's row
    sums ``g_rj sqd_rj`` over ascending j from +0.0, and the gap adds its
    row sums over ascending r from +0.0."""
    n, d = points.shape
    diff = [points[None, :, k] - points[:, None, k] for k in range(d)]
    sqd = diff[0] * diff[0]
    for k in range(1, d):
        sqd = sqd + diff[k] * diff[k]
    g = kernel.g(sqd / (2.0 * h * h))
    moments = np.zeros((n, d))
    rows = np.zeros(n)
    for j in range(n):
        for k in range(d):
            moments[:, k] += g[:, j] * (points[:, k] - points[j, k])
        rows += g[:, j] * sqd[:, j]
    gap = 0.0
    for r in range(n):
        gap += float(rows[r])
    return sqd, moments, gap + 0.0


def _signed_points(rng, n: int, d: int, spread: float) -> np.ndarray:
    """Uniform points with signed zeros and coincident points."""
    pts = rng.uniform(-spread, spread, size=(n, d))
    pts[1] = 0.0
    pts[2] = -0.0
    pts[3, 0] = -0.0
    pts[4] = pts[0]
    pts[rng.integers(5, n, size=n // 8)] = pts[1]
    return pts


def _assert_state_matches(state: PairwiseState, points: np.ndarray, kernel, h: float,
                          gap: bool) -> None:
    sqd, moments, total = _reference(points, kernel, h)
    assert state.moments().tobytes() == moments.tobytes()
    assert state.max_sqdist == sqd.max()
    if gap:  # to the same points, both of the gap pass's terms are the pre-step total
        assert [term.hex() for term in state._pass((), after=points)] == [total.hex()] * 2


@pytest.mark.parametrize("reads,gap", _READS)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kernel_id", ["gaussian", "biweight", "epanechnikov"])
def test_row_blocks_take_distances_from_the_moments_differences(kernel_id, d, reads, gap):
    kernel = bs.builtin(kernel_id)
    rng = np.random.default_rng([d, len(kernel_id), len(reads) + gap])
    pts = _signed_points(rng, 200, d, 1.5)
    # every row its own, so the pass runs over blocks of j-rows (the gap's
    # pass too, kept off the tiles)
    with forced_source() as taken:
        state = PairwiseState(pts, kernel, 0.9, reads, DistinctRows(pts, grouped=False))
    assert taken == ["rows"] and state.distinct.inv is None
    with forced_source(tiles=math.inf) as taken:
        _assert_state_matches(state, pts, kernel, 0.9, gap)
    assert taken == ["rows"] * gap


@pytest.mark.parametrize("reads,gap", _READS[:2])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kernel_id", ["gaussian", "biweight"])
def test_gathered_block_takes_distances_from_the_moments_differences(kernel_id, d, reads, gap):
    kernel = bs.builtin(kernel_id)
    rng = np.random.default_rng([d, len(kernel_id), len(reads) + gap, 1])
    sites = _signed_points(rng, 16, d, 1.5)  # 14 distinct positions
    pts = sites[rng.integers(0, sites.shape[0], size=300)]
    calls = []
    gathered_j = _pairwise._gathered_j

    def counted(*args):
        calls.append(args[1])
        return gathered_j(*args)

    with mock.patch.object(_pairwise, "_gathered_j", counted):
        state = PairwiseState(pts, kernel, 0.9, reads)
        assert calls and state.distinct.inv is not None
        _assert_state_matches(state, pts, kernel, 0.9, gap)
    assert len(calls) == 1 + gap


@pytest.mark.parametrize("reads,gap", _READS)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kernel_id", ["biweight", "epanechnikov"])
def test_grid_pairs_take_distances_from_the_moments_differences(kernel_id, d, reads, gap):
    kernel = bs.builtin(kernel_id)
    rng = np.random.default_rng([d, len(kernel_id), len(reads) + gap, 2])
    pts = _signed_points(rng, 500, d, 1.0)
    h = 0.03 / kernel.beta
    with forced_source() as taken:
        state = PairwiseState(pts, kernel, h, reads)
        assert taken == ["grid"] and state.distinct.inv is not None
        _assert_state_matches(state, pts, kernel, h, gap)
    assert taken == ["grid"] * (1 + gap)


@pytest.mark.parametrize("kernel_id", ["gaussian", "biweight", "epanechnikov"])
def test_batch_takes_distances_from_the_moments_differences(kernel_id):
    kernel = bs.builtin(kernel_id)
    rng = np.random.default_rng(len(kernel_id))
    configs = []
    for _ in range(120):
        n, d = int(rng.integers(5, 13)), int(rng.integers(1, 5))
        configs.append(_signed_points(rng, n, d, 1.2))
    values = batch_in_order(configs, kernel, 0.8)
    for k, pts in enumerate(configs):
        sqd, moments, _ = _reference(pts, kernel, 0.8)
        norm = np.sqrt(np.add.reduce(moments * moments, axis=1)).max()
        assert values.moment_norm[k].hex() == norm.hex()
        assert values.diameter[k].hex() == np.sqrt(sqd.max()).hex()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sqdist_from_differences_keeps_its_bits(d):
    rng = np.random.default_rng(d)
    pts = _signed_points(rng, 40, d, 3.0) * 10.0 ** rng.integers(-3, 3, size=(40, d))
    coords = np.ascontiguousarray(pts.T)
    j, col = rng.integers(0, 40, size=(2, 200))
    # a block of j-rows against every row, and a list of pairs
    for yj, ar in (_pairwise._pair_ends(coords, coords, slice(3, 17), None),
                   _pairwise._pair_ends(pts, pts, j, col)):
        want = coordinate_sqdist(yj, ar)
        shape = np.broadcast_shapes(yj.shape, ar.shape)
        diff = np.empty(shape)
        got = np.empty(shape[1:])
        assert coordinate_sqdist(yj, ar, out=got, diff=diff) is got
        assert got.tobytes() == want.tobytes()
        assert diff.tobytes() == (ar - yj).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_extents_equal_the_outer_product_form(d):
    rng = np.random.default_rng(d + 10)
    for count in (1, 3, 256):
        dirs = direction_set(d, count)
        for a in (1, 2, 63, 64, 65, 129, 300):
            pts = _signed_points(rng, max(a, 5), d, 2.0)[:a]
            proj = np.multiply.outer(pts[:, 0], dirs[:, 0])
            for k in range(1, d):
                proj += np.multiply.outer(pts[:, k], dirs[:, k])
            low, high = _extents(pts, dirs)
            assert low.tobytes() == proj.min(axis=0).tobytes()
            assert high.tobytes() == proj.max(axis=0).tobytes()
