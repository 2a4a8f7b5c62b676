"""Blocks of pairs whose rows are long run with numpy's buffers cut to one
row, so that no broadcast operand is buffered (``_pairwise._unbuffered``),
and square into a slab of the pass: every read keeps its bits whether the
scope is on or off and whatever buffer size the caller set, which the
scope hands back, and a dense update holds no chunk-sized temporary.  The
prune's scan of a block of rows does the same, holding the block and one
scratch block."""

import contextlib
import math
import struct
import tracemalloc

import numpy as np
import pytest

import blurshift as bs
from blurshift import _pairwise
from blurshift._pairwise import DistinctRows, PairwiseState
from blurshift.config import pairwise_sqdist
from blurshift.diagnostics import _extents, direction_set
from conftest import forced_source

_H = 0.6
_SOURCES = ("rows", "tiles", "gathered", "grid")
# forced on and off through the threshold, and the committed threshold
# under a buffer size that the caller set
_MODES = ("on", "off", 16, 8192)
_VERIFY_READS = {"diameter", "objective", "stable", "labels", "update", "moments"}


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _points(grouped: bool) -> np.ndarray:
    """200 points of two blobs, every pair of rows in several blocks and a
    truncated state on its grid; or 70 of them, each held by 4 points (280
    points), whose 3 x 70 x 70 pairs of an update fit one block."""
    rng = np.random.default_rng(35)
    count = 70 if grouped else 200
    pts = np.vstack([rng.normal([-1.0, 0.0], 0.5, size=(count // 2, 2)),
                     rng.normal([1.0, 0.5], 0.5, size=(count - count // 2, 2))])
    return pts[rng.permutation(np.arange(4 * count) % count)] if grouped else pts


@contextlib.contextmanager
def _mode(mode):
    """Run with the scope forced on or off, or with the committed threshold
    under the caller's buffer size ``mode``, which must hold afterwards."""
    with pytest.MonkeyPatch.context() as patch:
        if mode == "on":
            patch.setattr(_pairwise, "_UNBUFFERED_ROW", 0)
        elif mode == "off":
            patch.setattr(_pairwise, "_UNBUFFERED_ROW", math.inf)
        caller = np.getbufsize() if isinstance(mode, str) else mode
        old = np.setbufsize(caller)
        try:
            yield
            assert np.getbufsize() == caller
        finally:
            np.setbufsize(old)


def _reads(points, moved, kernel):
    """Every read, each from a state of its own, as bytes or bits."""
    def state(reads=frozenset()):
        return PairwiseState(points, kernel, _H, reads)

    out = {}
    try:
        out["update"] = state({"update"}).update().tobytes()
    except ValueError as err:  # a kernel with g(0) = 0 leaves a lone group no weight
        out["update"] = str(err)
    out["moments"] = state({"moments"}).moments().tobytes()
    out["objective"] = _bits(state({"objective"}).objective)
    out["gap_terms"] = tuple(_bits(term) for term in state()._pass((), after=moved))
    out["gap"] = _bits(state().minorizer_gap(moved))
    out["diameter"] = _bits(state({"diameter"}).diameter)
    out["margin"] = _bits(state().margin)
    out["stable"] = state({"stable"}).stable()
    out["labels"] = state({"labels"}).labels.tobytes()
    verify = state(_VERIFY_READS)  # one pass of many slabs
    try:
        out["verify_update"] = verify.update().tobytes()
    except ValueError as err:
        out["verify_update"] = str(err)
    out["verify"] = (verify.moments().tobytes(), _bits(verify.objective), verify.stable(),
                     verify.labels.tobytes(), _bits(verify.diameter))
    rows = DistinctRows(points).rows
    out["extents"] = tuple(side.tobytes() for m in (1, 256)
                           for side in _extents(rows, direction_set(2, m)))
    return out


@pytest.mark.parametrize("grouped", [False, True], ids=["ungrouped", "grouped"])
@pytest.mark.parametrize("kernel_id", bs.ASSUMPTION1_IDS)
def test_every_read_keeps_its_bits_in_and_out_of_the_scope(kernel_id, grouped):
    kernel = bs.builtin(kernel_id)
    points = _points(grouped)
    distinct = DistinctRows(points)
    assert (distinct.inv is not None) == grouped
    moved = distinct.expand(distinct.rows + 1e-3 * np.sin(distinct.rows))  # keeps the groups
    with _mode("off"):
        want = _reads(points, moved, kernel)
    for source in _SOURCES:
        for mode in _MODES:
            with _mode(mode), forced_source(**{source: 0.0}):
                assert _reads(points, moved, kernel) == want, (source, mode)


def test_scope_restores_the_buffer_size_when_a_fill_raises():
    def fill(rows, out):
        assert np.getbufsize() == 96
        raise RuntimeError("fill")

    with _mode(4096):
        with pytest.raises(RuntimeError, match="fill"):
            _pairwise._ascending_j(10, 100, 1, fill)


def test_long_rows_take_buffers_of_one_row():
    # a multiple of 16, as numpy below 2.0 requires, of at most one row:
    # one chunk of 8 j-rows per width, and three tiles of 100 columns
    sizes = []

    def fill(rows, out, cols=None):
        sizes.append(np.getbufsize())

    least = _pairwise._UNBUFFERED_ROW
    widths = (least - 1, least, least + 15, least + 16, 2000)
    with _mode(4096):
        for width in widths:
            _pairwise._ascending_j(8, width, 1, fill)
        _pairwise._tiled_j(200, 1, fill, entries=100 * 100)
    assert sizes == [4096, *(width // 16 * 16 for width in widths[1:]), 96, 96, 96]


def test_dense_update_holds_its_slabs_and_no_chunk_temporary():
    # the blobs of perfbench's cli-gauss-dense: 280 points, one pass over
    # row blocks of 280 entries, whose broadcast operands numpy buffered
    # (up to 128 KiB a ufunc) and whose squares took a chunk-sized temporary
    rng = np.random.default_rng(1)
    pts = np.vstack([rng.normal([-2.0, 0.0], 0.35, size=(140, 2)),
                     rng.normal([2.0, 0.5], 0.35, size=(140, 2))])
    cfg, kernel = bs.as_configuration(pts), bs.builtin("gaussian")
    calls = []
    real = _pairwise._ascending_j

    def recorded(n, width, slabs, fill, entries):
        calls.append((n, width, slabs, entries))
        return real(n, width, slabs, fill, entries)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_pairwise, "_ascending_j", recorded)
        PairwiseState(cfg, kernel, 0.4, {"update"})
    [(n, width, slabs, entries)] = calls
    step = _pairwise._even(n, max(8, entries // width))
    held = 8 * (slabs * (step + 1) * width + slabs * width)  # the chunk and the totals
    coords = 8 * pts.size  # the (d, n) coordinate rows
    chunk = 8 * step * width  # one slab of a chunk: what a temporary would take
    tracemalloc.start()
    try:
        PairwiseState(cfg, kernel, 0.4, {"update"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= held + coords + 16 * 1024 < held + coords + chunk


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_block_scan_keeps_its_bits(d, mode):
    # the prune's scan of a block of rows against every row: the largest of
    # pairwise_sqdist's block, in and out of the scope
    rng = np.random.default_rng(d)
    rows = rng.normal(0.0, 1.0, size=(300, d)) * 10.0 ** rng.integers(-3, 3, size=(300, d))
    with _mode(mode):
        got = _pairwise._block_max_sqdist(rows[:50], rows)
    assert _bits(got) == _bits(float(pairwise_sqdist(rows[:50], rows).max()))


def test_block_scan_holds_the_block_and_one_scratch():
    # one block of the prune's scan at n = 500, which held about three
    # blocks: numpy's buffers of its broadcast operands and a temporary per
    # coordinate
    rows = np.random.default_rng(36).uniform(-3.0, 3.0, size=(500, 2))
    scan = rows[:_pairwise._BLOCK_ENTRIES // 500]
    block = 8 * scan.shape[0] * rows.shape[0]
    _pairwise._block_max_sqdist(scan, rows)  # warm-up
    tracemalloc.start()
    try:
        _pairwise._block_max_sqdist(scan, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * block + 4 * 1024
