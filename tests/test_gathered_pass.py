"""A grouped state whose pairs of distinct rows fit one block fills their
terms once and gathers each point's j-row from them (``_gathered_j``) in a
pass that reads only sums and maxima: every read is bitwise what the same
points give without a grouping, signed zeros included, and no term block
outlives its pass."""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blurshift as bs
from blurshift import _pairwise
from blurshift._pairwise import _BLOCK_ENTRIES, DistinctRows, PairwiseState
from conftest import forced_source, representable_boundary_pair
from test_pairwise_state import _assert_holds_no_pairwise_array

_KERNELS = ("epanechnikov", "biweight", "gaussian", "tricube")
# what run_verify's, the records' and the gradient's states declare, or
# nothing, so that each read runs a pass of its own, with fewer slabs
_DECLARED = (frozenset(),
             frozenset({"diameter", "objective", "stable", "gap", "labels", "update",
                        "moments"}),
             frozenset({"diameter", "singular", "objective", "stable", "closed", "update"}),
             frozenset({"moments", "margin"}))


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _read_all(state: PairwiseState, moved: np.ndarray, gathered: bool) -> dict:
    """Every read of ``state``, in the order a run makes them, as bytes or
    bits; a gathered state is checked to hold no pairwise array after each."""
    out = {}

    def read(name, value):
        out[name] = value
        if gathered:
            _assert_holds_no_pairwise_array(state)

    try:
        read("update", state.update().tobytes())
    except ValueError as err:  # a kernel with g(0) = 0 leaves a lone group no weight
        read("update", str(err))
    read("moments", state.moments().tobytes())
    read("objective", _bits(state.objective))
    read("gap", _bits(state.minorizer_gap(moved)))
    read("gap_before", _bits(state._gap_before))
    read("gap_after", _bits(state._pass({"gap"}, after=moved)))
    read("stable", state.stable())
    read("margin", _bits(state.margin))
    read("boundary_hit", state.boundary_hit)
    read("labels", state.labels.tobytes())
    read("closed", state.closed)
    read("singular", state.singular)
    read("component_diameter", _bits(state.component_diameter))
    read("joined_rows", state.distinct.expand(state.joined_rows()).tobytes())
    read("diameter", _bits(state.diameter))
    return out


def _grouped_points(rng, n: int, a: int, d: int, shared: int, radius: float) -> np.ndarray:
    """``a`` bitwise-distinct positions for ``n`` points in shuffled order:
    the origin, its signed-zero twins, a position at exactly ``radius`` from
    it, random ones, and ``shared`` of them holding every point beyond the
    first ``a`` (so the others are groups of one point)."""
    sites = [np.zeros(d), -np.zeros(d), np.array([0.0, -0.0, 0.0, -0.0][:d])]
    at_radius = np.zeros(d)
    at_radius[0] = radius
    sites += [at_radius, *rng.uniform(-1.5, 1.5, size=(max(0, a - 4), d))]
    sites = np.unique(np.array(sites[:a]).view(np.int64), axis=0).view(np.float64)
    a = sites.shape[0]
    extra = rng.choice(a, size=min(shared, a), replace=False)
    of = np.concatenate([np.arange(a), extra[rng.integers(0, extra.size, size=n - a)]])
    return sites[rng.permutation(of)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_gathered_reads_equal_the_ungrouped_state(data):
    kernel = bs.builtin(data.draw(st.sampled_from(_KERNELS), label="kernel"))
    d = data.draw(st.integers(1, 4), label="d")
    n = data.draw(st.integers(129, 400), label="n")
    a = data.draw(st.one_of(st.integers(1, 12), st.integers(1, 128)), label="a")
    shared = data.draw(st.integers(1, 5), label="groups of two or more points")
    reads = data.draw(st.sampled_from(_DECLARED), label="reads")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    v, h = representable_boundary_pair(1.0)  # a pair at beta * h hits the boundary
    pts = _grouped_points(rng, n, a, d, shared, v)
    distinct = DistinctRows(pts)
    assert distinct.inv is not None
    # the next points are constant on the groups, as blurring leaves them
    moved = distinct.expand(distinct.rows + rng.normal(scale=1e-3, size=distinct.rows.shape))

    calls = []
    gathered_j = _pairwise._gathered_j

    def counted(inv, width, slabs, fill):
        calls.append(slabs * width * width)
        return gathered_j(inv, width, slabs, fill)

    with mock.patch.object(_pairwise, "_gathered_j", counted), forced_source() as taken:
        state = PairwiseState(pts, kernel, h, reads, distinct)
        _assert_holds_no_pairwise_array(state)
        got = _read_all(state, moved, gathered=True)
    flat = PairwiseState(pts, kernel, h, reads, DistinctRows(pts, grouped=False))
    want = _read_all(flat, moved, gathered=False)
    assert got == want
    assert all(entries <= _BLOCK_ENTRIES for entries in calls)
    if "grid" not in taken:  # joined_rows' pass holds one slab, which fits
        assert calls


def test_one_position_keeps_its_zero_twin():
    # a = 1 and one slab: a (rows, 1, 1) chunk would be one contiguous
    # column, which numpy sums pairwise, and 300 terms of 0.1 add up to
    # other bits in that order
    def fill(rows, out):
        out[...] = 0.1

    sums = _pairwise._gathered_j(np.zeros(300, dtype=np.intp), 1, 1, fill)
    ascending = 0.0
    for _ in range(300):
        ascending += 0.1
    assert _bits(float(np.add.reduce(np.full(300, 0.1)))) != _bits(ascending)
    assert sums.shape == (1, 1) and _bits(float(sums[0, 0])) == _bits(ascending)


def test_degrees_count_the_points_of_each_group():
    # tricube's g(0) = 0: a group joins no point of its own, so a group's
    # degree counts the points of the groups it reaches, not the groups
    tricube = bs.builtin("tricube")
    pts = np.zeros((200, 2))
    pts[100:, 0] = 0.3  # two groups of 100 points, joined to each other only
    pts[199] = (50.0, 50.0)  # and one isolated point
    state = PairwiseState(pts, tricube, 0.5, {"closed"})
    flat = PairwiseState(pts, tricube, 0.5, {"closed"}, DistinctRows(pts, grouped=False))
    assert state.distinct.a == 3
    assert np.array_equal(state.distinct.expand(state._degree), flat._degree)
    assert state._degree.tolist() == [99, 100, 0]
    assert state.closed == flat.closed is False
    assert np.array_equal(state.labels, flat.labels)


# each read, what its state declares, and whether its passes gather: only
# the sums and the maxima do
_READ_PATHS = [
    ("update", {"update"}, True, lambda state, moved: state.update().tobytes()),
    ("moments", {"moments"}, True, lambda state, moved: state.moments().tobytes()),
    ("objective", {"objective"}, True, lambda state, moved: _bits(state.objective)),
    ("gap", {"gap"}, True, lambda state, moved: _bits(state.minorizer_gap(moved))),
    ("diameter", {"diameter"}, True, lambda state, moved: _bits(state.diameter)),
    ("singular", {"singular"}, True,
     lambda state, moved: (state.singular, _bits(state._joined_max_sqdist()))),
    ("stable", {"stable"}, True, lambda state, moved: state.stable()),
    ("margin", {"margin"}, False, lambda state, moved: _bits(state.margin)),
    ("boundary_hit", {"margin"}, False, lambda state, moved: state.boundary_hit),
    ("labels", {"labels"}, False, lambda state, moved: state.labels.tobytes()),
    ("closed", {"closed"}, False,
     lambda state, moved: (state.closed, state.distinct.expand(state._degree).tobytes())),
    ("joined_rows", {"labels"}, False,  # as build_graph reads them
     lambda state, moved: state.distinct.expand(state.joined_rows()).tobytes()),
]


@pytest.mark.parametrize("kernel_id", ["epanechnikov", "biweight", "tricube"])
@pytest.mark.parametrize("name,reads,gathers,read", _READ_PATHS,
                         ids=[path[0] for path in _READ_PATHS])
def test_only_sums_and_maxima_gather(kernel_id, name, reads, gathers, read):
    kernel = bs.builtin(kernel_id)
    v, h = representable_boundary_pair(1.0)  # a pair at beta * h hits the boundary
    rng = np.random.default_rng(7)
    sites = np.vstack([[0.0, 0.0], [v, 0.0], rng.uniform(-0.5, 0.5, size=(6, 2))])
    pts = sites[rng.permutation(np.arange(200) % sites.shape[0])]
    moved = 0.5 * pts + 0.125  # keeps the groups
    calls = []
    gathered_j = _pairwise._gathered_j

    def counted(*args):
        calls.append(args)
        return gathered_j(*args)

    with mock.patch.object(_pairwise, "_gathered_j", counted):
        state = PairwiseState(pts, kernel, h, reads)
        got = read(state, moved)
    assert state.distinct.a == sites.shape[0] and state._grid is None
    assert bool(calls) == gathers, name
    flat = PairwiseState(pts, kernel, h, reads, DistinctRows(pts, grouped=False))
    assert got == read(flat, moved)
