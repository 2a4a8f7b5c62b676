"""Pairwise state of one configuration: distances and weights computed once.

Every per-step quantity of the iteration (the blurring update, the
objective, the proximity graph and its classification, the diameters, the
fixed-point moments, the gradient and the minorizer gap) derives from the
squared pairwise distances of one configuration and the kernel weights on
them.  :class:`PairwiseState` computes those once; the public functions in
``engine``, ``graph`` and ``diagnostics`` are thin wrappers over it, so the
records of the iteration driver and the values rebuilt from the public
calls are bitwise equal by construction.

Blurring collapses points onto each other, so after a few steps a
configuration holds far fewer distinct positions than points.  Coincident
points have bitwise-equal rows of distances and weights, so every row is
computed once per distinct position, against all n points, and read back
through the point-to-position map where a point row is needed.  Coincident
points also blur alike, so the iteration hands each step's grouping to the
next (:meth:`DistinctRows.after`), which groups the a blurred positions
instead of the n points.  Where the a x a pairs of distinct rows fit one
block for a pass's slabs and the pass reads only sums and maxima, it may
evaluate each of those pairs once and gather every chunk of point j-rows
from their terms (:func:`_gathered_j`), adding it as a chunk of computed
j-rows is added.

Every state is built in one pass over chunks of j-rows (a distinct
positions wide).  Each chunk gives its weights, which the kernel's
evaluator (:func:`kernels.in_place`) writes over the profile arguments in
the chunk's own slab; its largest squared distance, a truncated kernel's
largest joined squared distance, the objective's terms, a truncated
kernel's boundary margin and boundary hit, its margin test at the default
tolerance, and its components and degrees come from the chunks only when
the caller declares that it reads them.  The state keeps none of the
chunks, whatever the kernel: each chunk is added into every sum the
caller reads, its joined pairs whose ends lie in two components so far
are joined by :func:`_union` (none once the rows form one component), and
they are counted per column where the degrees are read, so the memory is
O(n d) plus one chunk per sum.  A value read but not declared runs the
same pass again for that value alone, and a state that declares nothing
runs no pass.  The minorizer gap is not declared: given the next
configuration's points, one pass of its own sums both of its terms from
the same weights, the pre-step one in one slab and the post-step one in
the other.  Given a boolean array, a pass writes the join bits that
``joined_rows`` returns, with the labels.  So the pass is the
only code that computes a weight, and the only code that fills the
objective, the margin, the labels, the largest joined distance, the
update, the moments and both terms of the gap; the diameter, read but not
declared, comes from an exact bounding-box prune
(:func:`_pruned_max_sqdist`).  Before the pass, the squared diagonal of
the distinct positions' bounding box bounds every pair's squared
distance, bit for bit, so a state whose box stays finite cannot overflow;
only a box of inf scans for the largest squared distance, which raises by
name when it overflows.

The weights, the objective's terms and the gap's terms are symmetric in
the pair, bit for bit.  So a pass of an ungrouped state that sums only
those (the gap's pass among them) may fill only the square tiles
on and above the diagonal of its n x n pairs, each of a chunk's entries
(:func:`_tiled_j`), and add a transposed copy of each tile above the
diagonal into the mirrored columns, in the same order.

A truncated kernel joins a pair only within its radius ``beta * h``.  So
where a truncated state's pairs span several blocks, a grid of side
``beta * h``, cut into sub-cells along a second axis (:func:`_cell_ranges`,
after the fixed-radius grid of Bentley, Stanat and Williams, 1977), lists
each row's candidates: the rows in neighbouring cells.  A pass may
evaluate only those candidate pairs, with the same formulas, and sum them
per column with ``np.bincount`` in the same order; every pair left out
adds a zero term, so no bit moves.  The candidates decide everything,
both terms of the gap and the join bits included, but the diameter,
which the bounding-box prune finds, and the exact margin, which a read of
``margin`` finds by scanning every pair.

Each pass takes its pairs from one of these sources: the row blocks, the
tiles, the gathered distinct rows, the grid's candidates or, for a batch,
its stack (below).  One rule (:func:`_pair_source`) picks it: of the
sources eligible for the pass, the one whose counted entries cost least by
the per-entry costs ``_ENTRY_COST``, which ``bench/pair_sources.py``
measures.  The terminal grouping of ``cluster``
(:func:`single_linkage_labels`) picks between a scan and the same grid at
its own radius by the same rule.

Many small configurations, such as ``run_verify``'s fuzz probes, share
one pass of that kind (:meth:`PairwiseState.batch`): stacked, each row's
candidates are its own configuration's rows, so each configuration's
values are bitwise those of its state built alone.  They come back as
arrays over the configurations, with no state per configuration, so the
per-call cost of a pass and of a state, and of the validation, is paid
once per stack.

A pass over blocks of pairs (rows or tiles), and the per-point reductions
of a state (the bounding box, the grid's cells, the prune's bounds and the
grouping's word test), run over (d, n) coordinate rows: contiguous copies
of the transposes of the points and of their distinct rows, one copy where
those are the same array.  numpy loops over the columns of an (n, d) array
one short row at a time: on a 2-CPU x86-64 VM with numpy 2.4,
``rows.max(axis=0)`` took 8.0 us at n = 400 and 73 us at n = 4000, against
0.8 us (and 0.4 us for the copy) on the contiguous transpose at n = 400,
and the squared distances of a (26, 260) block took 10.1 us from
``rows.T[:, None, :]``, whose d = 2 coordinates lie 16 bytes apart,
against 8.3 us from contiguous rows.  Only order-free operations moved
onto the transposes: min, max, logical or, integer counts and elementwise
divides.  The row norms (the largest move, the fixed-point test and a
batch's moment norms) stay sums over each row of an (a, d) array, whose
order numpy picks from the row's length (one at a time below 8 entries,
pairwise from 8).  A pair list (the grid's, a batch's) gathers (n, d) rows
with ``take``: gathering the columns of (d, n) rows was slower.  A block
whose rows hold at least ``_UNBUFFERED_ROW`` entries is filled with
numpy's buffers cut to one row (:class:`_unbuffered`): numpy otherwise
copies each broadcast operand of its subtracts and multiplies into
buffers, which set the pass's time and peak; and its squared distances
square each coordinate after the first into a slab that holds nothing
yet (``coordinate_sqdist``'s ``scratch``), not into a temporary.

This module imports only ``config`` and ``kernels``, so ``engine``,
``graph`` and ``diagnostics`` can all import it.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import (Configuration, as_configuration, check_bandwidth, coordinate_sqdist,
                     pairwise_sqdist, profile_args)
from .kernels import KernelSpec, TruncationClass, in_place

# Entries per block of the pairwise temporaries: the row blocks of
# distances and each slab of a full-support state's chunks of j-rows (at
# least 8 rows); a truncated state's chunk holds at most three blocks over
# all its slabs.  Bounds each at about 128 KiB of float64 whatever the
# size.
_BLOCK_ENTRIES = 1 << 14


def _row_blocks(n: int, width: int):
    rows = max(1, _BLOCK_ENTRIES // max(1, width))
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


# numpy (2.4 at least) copies each broadcast operand of a ufunc into a
# buffer of up to ``np.getbufsize()`` entries (8192 by default, 64 KiB), even
# given ``out``: a chunk's subtract or multiply of a row of one operand
# against a column of another then allocates up to 128 KiB beyond the
# slabs, and the copying, not the arithmetic, sets its time.  With a buffer
# size of at most one row, numpy runs such an operand unbuffered, one row
# at a time, with the same operation on every entry, so every bit stays;
# an operand that must be cast (a bool written into a float array, as
# epanechnikov's weights are) is still buffered, a row at a time.  On a
# 2-CPU x86-64 VM with numpy 2.4.6, the (2, 57, 280) broadcast subtract of
# a dense gaussian update's chunk took 46 us and its numerators' multiply
# 40 us buffered, against 18 and 17 us with buffers of 272 entries, which
# allocated none (tracemalloc: 131 KB before).  Buffers of 16 entries ran
# those as fast, but a cast 6 to 12 times slower: an epanechnikov update
# at n = 2000 took 50 ms against 36 ms buffered, its weights 27 ms against
# 3 ms, where with buffers of a row it took 22 ms.
# Short rows lose, each costing an inner loop of its own, and so do casts
# in buffers of a short row (an epanechnikov gap pass over tiles of 76 to
# 96 columns ran up to 1.1 times as long).  Blocks whose rows hold at least
# this many entries run unbuffered: bench/unbuffered_rows.py times passes
# and extents with the scope forced on and off, and this threshold lost
# least against the faster mode summed over four of its runs on that VM,
# whose own fits were 96, 96, 82 and 64 (76 to 96 lost within a fifth of
# it; 64 lost 1.7 and 128 2.8 times as much)
_UNBUFFERED_ROW = 80


class _unbuffered:
    """A context in which the ufuncs run with buffers of at most one row of
    ``row >= _UNBUFFERED_ROW`` entries, so that no broadcast operand is
    buffered (see the comment above); it restores the caller's buffer size
    on the way out, as ``np.errstate`` does only from numpy 2.0, and does
    nothing for shorter rows.  A class with slots, not a generator: it holds
    about 500 bytes less while the block is filled.

    A buffer size can move the bits of a reduction (``np.add.reduce`` over
    a non-contiguous array sums in blocks of buffers), so callers keep
    every sum out of the scope; maxima, minima and counts do not depend on
    the order.
    """

    __slots__ = ("size", "old")

    def __init__(self, row: int):
        # numpy below 2.0 takes buffer sizes in multiples of 16
        self.size = max(16, row // 16 * 16) if row >= _UNBUFFERED_ROW else None

    def __enter__(self) -> None:
        if self.size is not None:
            self.old = np.setbufsize(self.size)

    def __exit__(self, *exc) -> None:
        if self.size is not None:
            np.setbufsize(self.old)


def _even(n: int, step: int) -> int:
    # the size of as many chunks of n rows as chunks of ``step`` rows take,
    # evened out: at most ``step``
    return -(-n // -(-n // step))


def _ascending_j(n: int, width: int, slabs: int, fill,
                 entries: int = _BLOCK_ENTRIES) -> np.ndarray:
    """``sum_j t[s, j, c]`` for every slab s and column c of a
    (slabs, n, width) array of terms, in ascending j from ``+0.0``, without
    holding that array.

    ``fill(rows, out)`` writes the terms of the j-rows ``rows`` into the
    (slabs, len(rows), width) array ``out``, in as few chunks of at most
    about ``entries`` entries per slab as it takes, of even sizes.  Each
    slab's chunk of rows is written below its accumulator row, so every
    slab is one contiguous block, and reduced over its rows, which numpy
    does one row at a time, so the chunk size moves no bit.  A lone column
    gets a zero twin, since numpy sums one contiguous column pairwise.
    Where ``width`` reaches ``_UNBUFFERED_ROW`` (80), ``fill`` runs with no
    broadcast operand buffered (:class:`_unbuffered`), and the reduction, a
    sum, outside that scope.
    """
    cols = max(2, width)
    step = _even(n, max(8, entries // cols))
    buf = np.zeros((slabs, step + 1, cols))
    acc = np.zeros((slabs, cols))
    for start in range(0, n, step):
        size = min(step, n - start)
        buf[:, 0] = acc
        with _unbuffered(width):
            fill(slice(start, start + size), buf[:, 1:size + 1, :width])
        np.add.reduce(buf[:, :size + 1], axis=1, out=acc)
    return acc[:, :width]


def _tiled_j(n: int, slabs: int, fill, entries: int = _BLOCK_ENTRIES) -> np.ndarray:
    """:func:`_ascending_j`'s sums for an (n, n) array of terms that is
    symmetric, bit for bit (``t[s, j, c] == t[s, c, j]``), from its tiles on
    and above the diagonal alone.

    The columns are cut into as few blocks as ``isqrt(entries)`` columns
    (at least 2) allow, of even widths, so that a tile holds at most about
    ``entries`` entries per slab.  The outer loop takes the column blocks R
    in ascending order, and the inner loop the row blocks J = 0..R.
    ``fill(rows, out, cols)`` writes the terms of the j-rows ``rows`` in the
    columns ``cols`` (two slices) into the (slabs, len(rows), len(cols))
    array ``out``, once per tile, and the tile's rows are reduced into the
    columns R below their running totals, as :func:`_ascending_j` reduces a
    chunk.  For J < R, a contiguous copy of
    the tile's transpose, whose rows are the j-rows R, is reduced into the
    columns J.  So column block C takes the j-row blocks 0..C while R = C,
    and then C+1, C+2, ... as mirrors: every column still adds one j at a
    time in ascending order from ``+0.0``, and no bit moves.  Where a
    tile's columns number ``_UNBUFFERED_ROW`` (80) or more, ``fill`` runs
    with no broadcast operand buffered (:class:`_unbuffered`), and the
    reductions, sums, outside that scope.
    """
    side = _even(n, max(2, math.isqrt(entries)))
    acc = np.zeros((slabs, n + 1))  # a lone last column sums beside a zero twin
    for r0 in range(0, n, side):
        width = min(side, n - r0)
        cols = slice(r0, r0 + width)
        into = acc[:, r0:r0 + max(2, width)]
        buf = np.zeros((slabs, side + 1, into.shape[1]))
        for j0 in range(0, r0 + 1, side):
            rows = slice(j0, min(j0 + side, n))
            size = rows.stop - j0
            tile = buf[:, 1:size + 1, :width]
            buf[:, 0] = into
            with _unbuffered(width):
                fill(rows, tile, cols)
            np.add.reduce(buf[:, :size + 1], axis=1, out=into)
            if j0 < r0:  # a full block of rows: only the last block is short
                # made after fill and freed before the next, so that it
                # never adds to the peak of fill's temporaries
                mirror = np.empty((slabs, width + 1, side))
                mirror[:, 0] = acc[:, rows]
                mirror[:, 1:] = tile.transpose(0, 2, 1)
                np.add.reduce(mirror, axis=1, out=acc[:, rows])
                del mirror
    return acc[:, :n]


def _gathered_j(inv: np.ndarray, width: int, slabs: int, fill) -> np.ndarray:
    """:func:`_ascending_j`'s sums for j-rows that repeat ``width`` distinct
    rows, j-row j's terms being bitwise those of distinct row ``inv[j]``,
    from the terms of the distinct rows alone.

    ``fill(rows, out)`` writes the terms of the distinct rows ``rows`` (all
    of them, in one call) into the (slabs, width, width) array ``out``, as
    :func:`_ascending_j`'s chunks take them.  The block is copied j-row
    major, (width, slabs, width), and each chunk of j-rows, as large as the
    block and the chunk together allow in two blocks of entries, is gathered
    from it with one ``take`` below the running totals and reduced along its
    j-rows, which numpy does one j-row at a time over every slab and column.
    So every column adds one j at a time in ascending order from ``+0.0``,
    and no bit moves.  A lone column gets a zero twin, as in
    :func:`_ascending_j`.
    """
    cols = max(2, width)
    block = np.zeros((slabs, width, cols))
    fill(slice(0, width), block[:, :, :width])
    terms = np.ascontiguousarray(block.transpose(1, 0, 2))
    del block
    n = inv.size
    step = _even(n, max(8, (2 * _BLOCK_ENTRIES - terms.size) // (slabs * cols)))
    buf = np.empty((step + 1, slabs, cols))
    acc = np.zeros((slabs, cols))
    for start in range(0, n, step):
        size = min(step, n - start)
        buf[0] = acc
        # "clip" never clips valid indices; "raise" would gather into a copy
        terms.take(inv[start:start + size], axis=0, out=buf[1:size + 1], mode="clip")
        np.add.reduce(buf[:size + 1], axis=0, out=acc)
    return acc[:, :width]


# The time of one counted entry of each pair source, relative to one of
# the row blocks, as bench/pair_sources.py fits them to its timed passes:
# the costs at which the rule's picks lose least against the fastest
# source, each pass's loss relative to that source's time.  The row
# blocks count their n * a pairs; the tiles the n * (n + 1) / 2 pairs on
# and above the diagonal; the gathered rows the
# a * a distinct pairs and the n * a gathered entries; the grid its
# candidate pairs and the a running totals that each chunk of them copies
# and adds to, which tell the grid's time at every n (per candidate alone,
# it ran 3.7 times a row entry at n = 400 and 6.9 times at n = 4000).
_ENTRY_COST = {"rows": 1.0, "gathered": 0.198, "tiles": 1.64, "grid": 3.02}


def _pair_entries(n: int, a: int, slabs: int, plain: bool, symmetric: bool,
                  candidates: int | None, chunk: int) -> dict[str, int]:
    """The counted entries of each source eligible for a pass over the pairs
    of n j-rows and a distinct rows (see ``_ENTRY_COST``).

    The row blocks (``"rows"``) are always eligible; the gathered distinct
    rows (``"gathered"``) where the rows are grouped (a < n), the pass fills
    ``plain`` sums and maxima alone and the a x a pairs fit one block for
    its ``slabs``; the tiles (``"tiles"``) where they are not and every sum
    is ``symmetric`` in the pair; and the grid (``"grid"``) where it has
    ``candidates`` (not None), listed in chunks of about ``chunk``.
    """
    entries = {"rows": n * a}
    if a < n and plain and slabs * a * a <= _BLOCK_ENTRIES:
        entries["gathered"] = a * a + n * a
    if a == n and symmetric:
        entries["tiles"] = n * (n + 1) // 2
    if candidates is not None:
        entries["grid"] = candidates + a * -(-candidates // chunk)
    return entries


def _pair_source(n: int, a: int, slabs: int, plain: bool, symmetric: bool,
                 candidates: int | None, chunk: int, stacked: bool = False) -> str:
    """The source of a pass over the pairs of n j-rows and a distinct rows:
    a stack of configurations takes its pair lists (``"stack"``), since
    every other source would pair rows of two configurations; otherwise the
    eligible source (:func:`_pair_entries`) whose counted entries cost least
    by ``_ENTRY_COST``, the first in the order rows, gathered, tiles, grid
    on a tie."""
    if stacked:
        return "stack"
    entries = _pair_entries(n, a, slabs, plain, symmetric, candidates, chunk)
    return min(entries, key=lambda source: _ENTRY_COST[source] * entries[source])


# The grid's cells are wider than the joining radius by this factor, so
# that rounding never brings a pair of rows whose cells do not touch within
# the radius.
_CELL_SIDE = 1.0 + 2.0 ** -20
# Sub-cells per cell along the second-widest axis.  A row's candidates lie
# in 3 bands of cells along the widest axis, within _SUB sub-cells of its
# own in each (7.75 / 9 of the 3 x 3 cells' area with 4).  On perfbench's
# sparse-exact-epan instances 2 to 8 sub-cells took 2.12 to 2.16 ms an
# operation, against 2.23 ms with whole cells (in-process, medians of 6)
_SUB = 4
# Grids of at most this many cell keys find their ranges from a table of
# the rows below each key, which costs O(keys) but no comparison: on
# 150-400 rows of a standardized uniform square, 21 us against 80 us for a
# sort and binary searches whose branches the data decide (2-CPU x86-64
# VM, numpy 2.4, a new configuration per call: the same rows again and
# again train the branch predictor and took 31 us)
_TABLE_KEYS = 1 << 16


def _cell_ranges(rows: np.ndarray, radius: float, h: float = math.inf):
    """Candidate rows of each of ``rows`` from a grid of cells of side
    ``radius * (1 + 2**-20)`` along the widest axis, each cut into
    ``_SUB`` sub-cells along the second-widest axis.

    Returns ``(order, starts, stops)``: ``order`` lists the rows by cell,
    and the candidates of row r are ``order[starts[m, r]:stops[m, r]]`` for
    the ranges m: the rows in its own cell and the two cells beside it for
    one axis (one range), or, for two axes, the rows within ``_SUB``
    sub-cells of its own in its band of cells and in each band beside it
    (three ranges).  Cell indices are ``floor(q)`` of the quotients
    ``q = x / side``, the second axis's times ``_SUB``, an exact scaling;
    each is within 2**-23 of the exact quotient's while ``|q| < 2**30``.
    Two rows whose cells lie two or more apart along the widest axis, or
    whose sub-cells lie ``_SUB + 1`` or more apart along the second, lie
    more than ``side * (1 - 2**-22)`` apart along that axis, and so more
    than ``radius * (1 + 2**-21)`` apart.  So every pair left out lies
    beyond ``radius * (1 + 2**-21)``: its squared distance, each rounding
    of which is monotone, exceeds the rounded ``radius**2`` while that is a
    normal number, so the pair is not within the radius of
    ``single_linkage_labels``; and its profile argument at bandwidth ``h``
    (``radius = beta * h``) exceeds ``beta**2 / 2`` while ``2 * h * h`` is
    normal, so it is not joined, adds zero terms, misses the support
    boundary and passes the margin test at its default tolerance,
    ``1e-9 * radius``.  Returns None where the grid cannot decide the pairs
    so: where ``radius`` or ``h`` (inf for a test of squared distances
    alone) lies below ``2**-500``, where ``radius**2`` overflows,
    and where some ``|q|`` reaches ``2**30``; below it, cell keys stay
    below 2**63.  The ranges come from a count of the rows below each key
    where the grid has at most ``_TABLE_KEYS`` keys, and from binary
    searches of the sorted keys otherwise: the same arrays either way.
    """
    if not (2.0 ** -500 <= min(radius, h) and math.isfinite(radius * radius)):
        return None
    side = radius * _CELL_SIDE
    coords = np.ascontiguousarray(rows.T)
    axes = np.argsort(-(coords.max(axis=1) - coords.min(axis=1)), kind="stable")[:2]
    with np.errstate(over="ignore"):  # a quotient of inf fails the test below
        q = coords.take(axes, axis=0) / side
    if axes.size == 2:
        q[1] *= _SUB
    if not np.all(np.abs(q) < 2.0 ** 30):
        return None
    cell = np.floor(q).astype(np.int64)
    cell -= cell.min(axis=1, keepdims=True) - _SUB  # so no neighbouring index is negative
    key, low, span = cell[0], np.array([-1]), 2
    size = int(cell[0].max()) + 3  # keys up to the band beyond the last, and one more
    if axes.size == 2:  # bands of cells, each `width` sub-cell keys long, padded
        width = int(cell[1].max()) + _SUB + 1
        key = key * width + cell[1]
        low, span = np.array([-width - _SUB, -_SUB, width - _SUB]), 2 * _SUB
        size *= width
    low = low[:, None] + key
    if size <= _TABLE_KEYS:
        # a radix sort, and the count of rows below each key: no branch of a
        # comparison sort or a binary search to mispredict
        order = np.argsort(key.astype(np.uint16), kind="stable")
        below = np.bincount(key + 1, minlength=size)
        np.cumsum(below, out=below)
        return order, below.take(low), below.take(low + (span + 1))
    order = np.argsort(key, kind="stable")
    keys = key[order]
    return order, keys.searchsorted(low, "left"), keys.searchsorted(low + span, "right")


def _candidate_pairs(grid, inv, n: int, entries: int):
    """The candidate pairs ``(j, col)`` of ``grid``, the ranges of
    :func:`_cell_ranges` followed by the count of each j-row's candidates,
    of the j-rows ``0..n-1``, whose distinct row is ``inv[j]`` (``j`` when
    ``inv`` is None), in chunks of consecutive j-rows of about ``entries``
    pairs each (one j-row at least): listed in ascending j, each j-row's
    ranges in turn."""
    order, starts, stops, per_j = grid
    ends = np.cumsum(per_j)
    start = 0
    while start < n:
        stop = max(start + 1, int(ends.searchsorted(ends[start] - per_j[start] + entries,
                                                    "right")))
        group = np.arange(start, stop) if inv is None else inv[start:stop]
        low = starts.take(group, axis=1).T.ravel()
        sizes = stops.take(group, axis=1).T.ravel()
        sizes -= low
        col = order[np.arange(sizes.sum()) + np.repeat(low - (np.cumsum(sizes) - sizes), sizes)]
        yield np.repeat(np.arange(start, stop), per_j[start:stop]), col
        start = stop


def _candidate_sums(grid, inv, n: int, a: int, slabs: int, fill,
                    entries: int) -> np.ndarray:
    """:func:`_ascending_j`'s sums over the candidate pairs of ``grid`` (see
    :func:`_cell_ranges`) alone, for j-rows whose distinct row is ``inv[j]``
    (``j`` when ``inv`` is None).

    Chunks of consecutive j-rows hold about ``entries`` pairs each
    (:func:`_candidate_pairs`).  ``fill(j, out, col)`` writes the terms of
    the pairs ``(j[p], col[p])`` into the (slabs, pairs) array ``out``.
    Each slab's terms come after its running totals, and ``np.bincount``
    adds them in the order given, so each column's sum adds one j at a time
    in ascending order from ``+0.0``; a pair left out adds a zero term,
    which moves no bit.
    """
    acc = np.zeros((slabs, a))
    for j, col in _candidate_pairs(grid, inv, n, entries):
        buf = np.empty((slabs, a + col.size))
        buf[:, :a] = acc
        fill(j, buf[:, a:], col)
        del j  # off the peak of the bincounts
        bins = np.concatenate([np.arange(a), col])
        for s in range(slabs):
            acc[s] = np.bincount(bins, buf[s], minlength=a)
        del buf, bins  # before the next chunk's pairs are listed
    return acc


class DistinctRows:
    """The bitwise-distinct rows of an (n, d) array, in order of first appearance.

    ``first[r]`` is the first row of group ``r``, ``inv[i]`` the group of
    row ``i`` and ``rows`` holds the a distinct rows, so row ``i`` is
    bitwise ``rows[inv[i]]``.  Rows are keyed by their bytes, so ``-0.0``
    and ``+0.0`` stay apart.  When every row is distinct, when one row
    block holds every pair (grouping would cost more than it saves), or
    when ``grouped`` is false, no grouping is made: ``rows`` are the points
    and ``first`` and ``inv`` are None.
    """

    def __init__(self, points: np.ndarray, grouped: bool = True):
        self._group(points, points if grouped else None, None)

    def after(self, points: np.ndarray) -> DistinctRows:
        """The grouping of ``points``, in which the points of each of this
        grouping's groups coincide (as blurring leaves them), from the a
        rows at each group's first point alone: bitwise
        ``DistinctRows(points)``.

        Two points coincide exactly when their groups' rows have the same
        bytes, and a new group's first point is the first point of its
        first old group, since ``first`` ascends; so the groups, their order
        of first appearance, ``first``, ``inv`` and ``rows`` are those of a
        grouping of the n points.  Where no two of the a rows coincide, the
        groups are this grouping's, whose ``first`` and ``inv`` it keeps.
        """
        moved = DistinctRows.__new__(DistinctRows)
        moved._group(points, self.at_first(points), self)
        return moved

    def _group(self, points: np.ndarray, rows: np.ndarray | None,
               before: DistinctRows | None) -> None:
        # group ``points`` by the bytes of ``rows``: each point of before's
        # group r is rows[r], or each point is its own row of ``rows`` when
        # ``before`` is None; no grouping when ``rows`` is None
        n = points.shape[0]
        self.rows, self.first, self.inv = points, None, None
        if rows is None or n * n <= _BLOCK_ENTRIES:
            return
        # rows with the same bytes have the same int64 words: a stable sort
        # by the words puts each group's rows together in ascending order,
        # so a group starts where a row's words differ from its predecessor's
        # (tested on the (d, n) words, whose rows numpy reduces contiguously)
        words = np.ascontiguousarray(rows.T).view(np.int64)
        by_bits = np.lexsort(words)
        sorted_words = words.take(by_bits, axis=1)
        starts = np.empty(by_bits.size, dtype=bool)
        starts[0] = True
        np.logical_or.reduce(sorted_words[:, 1:] != sorted_words[:, :-1], axis=0,
                             out=starts[1:])
        first = by_bits[starts]
        if first.size == n:
            return
        if first.size == by_bits.size:  # before's rows all apart: its groups stay
            self.rows, self.first, self.inv = rows, before.first, before.inv
            return
        inv = np.empty_like(by_bits)
        inv[by_bits] = np.cumsum(starts) - 1
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self.rows = rows.take(first[order], axis=0)
        if before is not None:  # from rows of the earlier grouping to points
            first, inv = before.points_of(first), before.expand(inv)
        self.first = first[order]
        self.inv = rank[inv]

    @property
    def a(self) -> int:
        return self.rows.shape[0]

    def expand(self, per_row: np.ndarray) -> np.ndarray:
        """Index an array over the distinct rows by point."""
        return per_row if self.inv is None else per_row.take(self.inv, axis=0)

    def at_first(self, points: np.ndarray) -> np.ndarray:
        """The rows of an array over the points at each group's first point."""
        return points if self.first is None else points.take(self.first, axis=0)

    def points_of(self, rows: np.ndarray) -> np.ndarray:
        """The first point of each distinct row of the indices ``rows``."""
        return rows if self.first is None else self.first[rows]


def _checked_max(sqdist: np.ndarray) -> float:
    largest = float(sqdist.max())
    if math.isinf(largest):
        raise ValueError(
            "squared pairwise distances overflow double precision; "
            "rescale the points and the bandwidth"
        )
    return largest


def _rows_max_sqdist(rows: np.ndarray, scan: np.ndarray | None = None) -> float:
    # largest squared distance of the rows ``scan`` (default: every row)
    # to the rows, from row blocks
    scan = rows if scan is None else scan
    return max(_block_max_sqdist(scan[block], rows)
               for block in _row_blocks(scan.shape[0], rows.shape[0]))


def _block_max_sqdist(points: np.ndarray, rows: np.ndarray) -> float:
    # pairwise_sqdist's block, as a pass fills its blocks: unbuffered
    # (_unbuffered) and squaring each coordinate after the first into a
    # scratch block, so it holds two blocks, not the three or so of numpy's
    # buffers and a temporary per coordinate; an overflow raises by name
    # just below
    sqd = np.empty((points.shape[0], rows.shape[0]))
    scratch = np.empty_like(sqd) if points.shape[1] > 1 else None
    with np.errstate(over="ignore"), _unbuffered(rows.shape[0]):
        coordinate_sqdist(points.T[:, :, None], rows.T[:, None, :], sqd, scratch=scratch)
    return _checked_max(sqd)


def _box_overflows(rows: np.ndarray) -> bool:
    """Whether the squared diagonal of the rows' bounding box, added in
    ``pairwise_sqdist``'s order, overflows to inf.

    It bounds every pair's squared distance from above, bit for bit: each
    coordinate difference is at most the box's side before rounding, and
    every rounding in the sum is monotone.  So where it is finite, no
    squared distance of the rows overflows.
    """
    coords = np.ascontiguousarray(rows.T)
    with np.errstate(over="ignore"):  # an overflow is the answer
        sides = (coords.max(axis=1) - coords.min(axis=1)).tolist()
    total = 0.0  # Python floats round as numpy's do, and overflow to inf
    for side in sides:
        total += side * side
    return math.isinf(total)


def _pruned_max_sqdist(rows: np.ndarray) -> float:
    """:func:`_rows_max_sqdist` of the rows, scanning only the rows that can
    reach it.

    The extreme rows of each axis against every row give a lower bound.  A
    row's squared distance to its farther extreme on each axis, added in
    ``pairwise_sqdist``'s order, bounds its squared distance to every row
    from above, bit for bit, since every rounding in it is monotone (see
    :func:`_box_overflows`).  Only the rows whose bound reaches the lower
    bound are scanned.
    """
    coords = np.ascontiguousarray(rows.T)
    extremes = np.unique(np.concatenate([coords.argmin(axis=1), coords.argmax(axis=1)]))
    lower = _rows_max_sqdist(rows, rows.take(extremes, axis=0))
    with np.errstate(over="ignore"):  # a bound of inf only keeps its row
        far = np.maximum(coords - coords.min(axis=1, keepdims=True),
                         coords.max(axis=1, keepdims=True) - coords)
        upper = coordinate_sqdist(far, np.zeros((rows.shape[1], 1)))
    return max(lower, _rows_max_sqdist(rows, rows[upper >= lower]))


def max_sqdist(points: np.ndarray) -> float:
    """Largest squared pairwise distance, from the bounding-box prune
    (:func:`_pruned_max_sqdist`) over the distinct rows.

    Raises ``ValueError`` when it overflows to inf.
    """
    return _pruned_max_sqdist(DistinctRows(points).rows)


def component_diameter(rows: np.ndarray, groups: np.ndarray, floor: float = 0.0) -> float:
    """Largest distance between two rows of one group, where ``groups[r]``
    is the group of row ``r``, or ``sqrt(floor)`` when that is larger.

    The rows are sorted by group once.  The squared diagonal of a group's
    bounding box, added in ``pairwise_sqdist``'s order, bounds each of its
    squared distances from above, bit for bit, since every rounding in it
    is monotone; so the groups are scanned by decreasing bound, and the
    scan stops at the first bound that does not exceed the largest squared
    distance found (or ``floor``): a group of one row is never scanned.
    Raises ``ValueError`` when a squared distance overflows to inf.
    """
    order = np.argsort(groups, kind="stable")
    rows, groups = rows.take(order, axis=0), groups[order]
    starts = np.flatnonzero(np.concatenate([[True], groups[1:] != groups[:-1]]))
    stops = np.append(starts[1:], groups.size)
    with np.errstate(over="ignore"):  # a bound of inf only keeps its group
        bound = coordinate_sqdist(np.maximum.reduceat(rows, starts).T,
                                  np.minimum.reduceat(rows, starts).T)
    worst = floor
    for k in np.argsort(-bound, kind="stable"):
        if not bound[k] > worst:
            break
        worst = max(worst, _rows_max_sqdist(rows[starts[k]:stops[k]]))
    return math.sqrt(worst)


def _numbered(roots: np.ndarray) -> np.ndarray:
    # component labels 0..M-1 in order of each component's smallest vertex,
    # from each vertex's smallest vertex of its component: a label is the
    # rank of its vertex among the roots (root == vertex)
    return np.flatnonzero(roots == np.arange(roots.size)).searchsorted(roots)


def _union(labels: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The component labels ``labels`` with the pairs ``(u[k], v[k])`` joined.

    Start from ``np.arange(a)`` and join the pairs of a graph in any number
    of calls; each vertex then holds the smallest vertex of its component.
    Min-label propagation with pointer jumping: each round, every pair
    hands the smaller of its ends' labels to the larger label's vertex, and
    then every vertex takes its label's label until no label changes.
    Every label stays a vertex of its own component and never exceeds its
    vertex, so once every pair's ends agree each component is labelled by
    its smallest vertex.  A round costs the pairs plus the vertices, so the
    pairs can come one chunk at a time.
    """
    while True:
        lu, lv = labels[u], labels[v]
        if not np.count_nonzero(lu != lv):
            return labels
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = labels[labels]
            if not np.count_nonzero(jumped != labels):
                break
            labels = jumped


def single_linkage_labels(points: np.ndarray, radius: float) -> np.ndarray:
    """Component labels of the graph joining every pair of points within
    ``radius``, numbered contiguously from 0 in order of each component's
    smallest point index.

    Coincident points are always joined, so the graph is built over the a
    distinct rows only (see :class:`DistinctRows`), and no a x a array is
    allocated.  Where the rows' pairs span several blocks and a grid of
    cells (:func:`_cell_ranges`) decides them exactly, the rule of the
    pairwise passes (:func:`_pair_source`) picks between its candidates,
    tested in chunks of about ``_BLOCK_ENTRIES`` pairs (every pair left out
    lies farther than ``radius``, bit for bit), and the a x a squared
    distances, scanned one row block at a time.  Either way only the pairs
    within ``radius`` whose ends have two roots so far go to
    :func:`_union`, whose labels depend on the components alone.
    """
    distinct = DistinctRows(points)
    rows, a = distinct.rows, distinct.a
    limit = radius * radius
    labels = np.arange(a)
    grid = _cell_ranges(rows, radius) if a * a > _BLOCK_ENTRIES else None
    if grid is not None:  # with the candidates of each row
        grid = (*grid, (grid[2] - grid[1]).sum(axis=0))
    candidates = None if grid is None else int(grid[3].sum())
    if _pair_source(a, a, 1, False, False, candidates, _BLOCK_ENTRIES) == "rows":
        for block in _row_blocks(a, a):
            near = pairwise_sqdist(rows[block], rows) <= limit
            near &= labels[block, None] != labels
            row, col = np.divmod(np.flatnonzero(near), a)
            labels = _union(labels, row + block.start, col)
    else:
        for row, col in _candidate_pairs(grid, None, a, _BLOCK_ENTRIES):
            near = labels[row] != labels[col]
            row, col = row[near], col[near]
            near = coordinate_sqdist(*_pair_ends(rows, rows, row, col)) <= limit
            labels = _union(labels, row[near], col[near])
    return distinct.expand(_numbered(labels))


def _coordinate_rows(points: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # contiguous (d, n) and (d, a) copies of the points and of their distinct
    # rows, one copy where they are the same array
    coords = np.ascontiguousarray(points.T)
    return coords, coords if rows is points else np.ascontiguousarray(rows.T)


def _pair_ends(points: np.ndarray, rows: np.ndarray, j, col):
    # the coordinates (d, ...) of the j-rows ``j`` of ``points`` and of the
    # distinct ``rows``: of the pairs (j[p], col[p]) of a list, gathered
    # from (n, d) and (a, d) rows with take (numpy's fancy indexing is about
    # 10x slower, and gathering the columns of (d, n) copies slowed a sparse
    # run by about 3%), or in a (j, col) block from (d, n) and (d, a)
    # coordinate rows (see _coordinate_rows), against every row (``col``
    # None) or the rows of a slice ``col``
    if isinstance(col, np.ndarray):
        return points.take(j, axis=0).T, rows.take(col, axis=0).T
    return points[:, j, None], (rows if col is None else rows[:, col])[:, None, :]


def _block_margin(sqd: np.ndarray, own: np.ndarray, rows: slice, radius: float) -> float:
    # smallest |distance - radius| over the pairs i != j of a (rows, a)
    # block of j-rows ``rows``: the pair of a distinct row with its own
    # point (``own``, ascending) is skipped where that point is a j-row
    gap = np.sqrt(sqd)
    gap -= radius
    np.abs(gap, out=gap)
    inside = np.arange(*own.searchsorted((rows.start, rows.stop)))
    gap[own[inside] - rows.start, inside] = math.inf
    return float(np.min(gap))


# The margin test's default tolerance, relative to the joining radius
_STABILITY_TOL = 1e-9


def _least(holds, s: float) -> float | None:
    # the smallest float s >= 0 at which the monotone test ``holds`` does
    # (inf where it holds at inf alone), by at most 64 steps of one float
    # from a guess; None where it lies farther
    up = not holds(s)
    for _ in range(64):
        if up:
            s = math.nextafter(s, math.inf)
            if holds(s):
                return s
        elif s == 0.0 or not holds(below := math.nextafter(s, 0.0)):
            return s
        else:
            s = below
    return None


def _unstable_interval(radius: float, tol: float) -> tuple[float, float] | None:
    """The squared distances s whose pairs fail the margin test: those with
    ``|fl(sqrt(s)) - radius| <= tol``, as :func:`_block_margin` rounds them,
    form the interval ``[lo, hi]`` (empty where ``lo > hi``), returned as
    ``(lo, hi)``.

    ``fl(sqrt(s)) - radius`` is monotone in s, each rounding being so, so
    the interval's ends are where ``s`` crosses ``(radius -+ tol)**2``.  For
    ``tol`` up to about half the radius the subtraction is exact there, so
    each end lies a few floats from that square, and it is found by steps
    of one float from it.  Returns None where an end lies farther, and
    where ``tol >= radius``: the interval then holds ``s = 0``, the squared
    distance of every point to itself, which the margin skips.
    """
    if not tol < radius:
        return None
    near = radius - tol
    far = radius + tol  # a square of inf (a radius near the largest float) steps down
    lo = _least(lambda s: math.sqrt(s) - radius >= -tol, near * near)
    beyond = _least(lambda s: math.sqrt(s) - radius > tol, far * far)
    if lo is None or beyond is None:
        return None
    return lo, math.nextafter(beyond, 0.0)


def _ascending_total(row_sums: np.ndarray) -> float:
    # ((0.0 + s_0) + s_1) + ...: accumulate adds one entry at a time, and
    # the trailing + 0.0 stands for the +0.0 start (it only turns -0.0 into 0.0)
    return float(np.cumsum(row_sums)[-1] + 0.0)


class BatchValues(NamedTuple):
    """Per-configuration values of :meth:`PairwiseState.batch`, in input
    order: entry k is what configuration k's own state gives."""

    n: np.ndarray  # points
    d: np.ndarray  # dimension
    diameter: np.ndarray  # ``diameter``
    singular: np.ndarray  # ``singular``
    moment_norm: np.ndarray  # largest moment norm: ``is_fixed_point(tol)`` is ``<= tol``
    M: np.ndarray  # ``M``, the number of components


class PairwiseState:
    """Squared distances, profile arguments and weights of a configuration.

    Rows are computed once per distinct position: the points are grouped
    by their bytes (:class:`DistinctRows`, stored as ``distinct``; the
    ``distinct`` argument hands in that grouping when the caller has it,
    and must then be bitwise ``DistinctRows(cfg.points)``), and every
    distance, profile and weight row is evaluated for the a distinct
    positions against all n points.  A coincident point's row is bitwise
    its group's row, so the values read back through ``distinct.inv`` are
    the ones a full n x n evaluation gives.

    Each pass takes its pairs from the source that one rule picks
    (:func:`_pair_source`): of the sources eligible for the pass (see
    :func:`_pair_entries`), the one whose counted entries cost least by
    ``_ENTRY_COST``, as ``bench/pair_sources.py`` measured them relative to
    an entry of the row blocks (the comment above ``_ENTRY_COST`` gives
    the costs and what each source counts).
    - The row blocks (:func:`_ascending_j`) serve every pass.
    - A grouped state whose a x a pairs of distinct rows fit one block for
      the pass's slabs (``slabs * a * a <= _BLOCK_ENTRIES``), in a pass that
      reads only sums and maxima, may evaluate each of those pairs once,
      into an (a, slabs, a) block of terms, and gather each chunk of point
      j-rows from it (:func:`_gathered_j`): the maxima and the default
      margin test come from the distinct pairs, the sums are gathered, and
      the gap's post-step term takes the next configuration's distinct rows.  The
      block and one chunk hold about two blocks of entries.
    - An ungrouped state whose sums are all symmetric may fill the tiles on
      and above the diagonal (:func:`_tiled_j`).
    - A truncated state whose pairs span several blocks may take the grid
      (below).
    - A stack of configurations (:meth:`batch`) takes its pair lists.

    The constructor first bounds every squared distance by the squared
    diagonal of the distinct rows' bounding box (:func:`_box_overflows`,
    O(a d)); only a box whose bound is inf finds the largest squared
    distance by the bounding-box prune (:func:`_pruned_max_sqdist`), which
    raises by name when it overflows.  It then makes one pass over chunks
    of j-rows, whatever the kernel, where ``reads`` names something.  Each
    chunk's squared distances against the a distinct rows give the weights
    (exactly symmetric, so the weight of j-row j in column r is ``g_rj``).
    A pass that reads the moments writes each pair's coordinate differences
    ``y_r - y_j`` into the moments' slabs first and takes the squared
    distances from them (``coordinate_sqdist``'s ``diff``), so it subtracts
    each pair's coordinates once, in row blocks, the gathered block, the
    grid's pair lists and a batch's stacks alike; a negated difference
    squares to the same bits and the squares add in ascending k, so the
    distances are :func:`pairwise_sqdist`'s, bit for bit.  The moments'
    terms are those differences times the weights.
    The state keeps no chunk: a full-support kernel joins every pair, and a
    truncated kernel's joins (``g != 0``) are counted and labelled as the
    chunks go by, so every state holds O(n d).

    A truncated state whose a x n pairs span several blocks, and whose grid
    of cells (:func:`_cell_ranges`) decides them exactly, finds the grid
    and counts its candidate pairs once (O(a) indices), and keeps both for
    every later pass.  A pass that takes the grid evaluates only the
    candidate pairs; its chunks hold candidate pairs
    (:func:`_candidate_sums`).  Every pair left out is farther than
    ``beta * h``, so it is not joined
    and adds zero terms, and the candidates give every value above bit for
    bit, but two: the largest squared distance comes from the bounding-box
    prune, and the margin from a pass of its own that scans every pair, on
    its first read.  A ``"margin"`` read on the grid fills the boundary hit
    alone, which the candidates decide: every pair at the boundary is one.

    ``reads`` declares what the caller reads, and the pass computes only
    that: ``"diameter"``, the largest squared distance (each chunk's
    largest, or the prune on the grid); ``"singular"``, a truncated
    kernel's largest joined squared distance (zero when the graph is
    singular), which ``singular`` and ``component_diameter`` read (a
    full-support kernel joins every pair, so there it is the diameter's);
    ``"objective"``, the objective's terms and their sum (free for a
    kernel whose profile is its weight function, such as gaussian, whose
    objective is the weights' sum); ``"margin"``, the boundary margin and
    boundary hit of a truncated kernel; ``"stable"``, the margin test at
    its default tolerance, which ``stable()`` reads: a pair fails it
    exactly when its squared distance lies in an interval found once per
    pass (:func:`_unstable_interval`), so no chunk takes a square root or
    skips its self pairs (where no interval is found, as where the
    tolerance reaches the radius and the interval would hold the self
    pairs, the pass reads the margin instead);
    ``"labels"``, a truncated kernel's components (each chunk joins its
    pairs of distinct rows with :func:`_union`, which a block of j-rows
    hands only the joined pairs whose ends have two roots so far, and no
    pair once every root is 0), which ``labels``, ``M`` and ``components``
    read; ``"closed"``, the components and the degrees (each chunk counts
    its joins per column), which ``closed`` and ``component_diameter``
    read, and the grouped ``labels`` of a kernel with ``g(0) = 0``, whose
    coincident points with no join stay apart; and the sums ``"update"``
    (the update's denominator and numerators) and ``"moments"``.
    A value not declared runs the constructor's pass again on its first
    read, for that value alone: it computes the same chunks, bit for bit,
    and fills only that value, which is then kept; a state that declares
    nothing runs no pass in its constructor.  The diameter, not declared,
    comes from the prune, which gives the same bits.  Both terms of the
    gap (:meth:`minorizer_gap`) come from one pass of their own, and the
    join bits (:meth:`joined_rows`) from one that also reads the labels,
    over the same pairs, so every weight is the pass's.  So a state holds
    O(n d) (its grid included) and one chunk per sum, and ``reads`` moves
    no bit.

    Summation contract, the same for every kernel: the update's numerator
    ``sum_j g_ij y_j`` and denominator ``sum_j g_ij``, the moments
    ``sum_j g_ij (y_i - y_j)``, the objective's row sums ``sum_j k_ij`` and
    the minorizer gap's row sums ``sum_j g_ij ||y_i - y_j||^2`` are summed
    one j at a time in ascending order from ``+0.0``, for every coordinate
    and every d; the objective and the gap then add their row sums in
    ascending i from ``+0.0``.  Such a sum never becomes ``-0.0``, so the
    zero terms of a truncated kernel's unjoined pairs leave its bits as
    they are.  Every j-sum runs over the n points, not over the distinct
    positions, so the grouping changes no bit.

    Raises ``ValueError`` for an out-of-range bandwidth and when the
    largest squared distance overflows to inf.
    """

    # what a pass filled because its ``reads`` named it: the largest
    # squared distance (also found by the constructor's overflow check or
    # the prune) and joined squared distance, the objective, the margin and
    # boundary hit, the default margin test, the joins i != j and the
    # component roots of each distinct row, the update's denominator and
    # numerators, and the moments
    _max_sqdist: float | None = None
    _joined_max: float | None = None
    _objective: float | None = None
    _margin: float | None = None
    _boundary_hit: bool | None = None
    _stable: bool | None = None
    _degree: np.ndarray | None = None
    _roots: np.ndarray | None = None
    _update: tuple[np.ndarray, np.ndarray] | None = None
    _moments: np.ndarray | None = None
    # the configuration of each row of a stack of configurations (see batch)
    _segment: np.ndarray | None = None

    def __init__(self, cfg, kernel: KernelSpec, h: float, reads=frozenset(),
                 distinct: DistinctRows | None = None):
        self.h = check_bandwidth(h)
        self.cfg = as_configuration(cfg)
        self.kernel = kernel
        self.n = self.cfg.n
        self.distinct = DistinctRows(self.cfg.points) if distinct is None else distinct
        if _box_overflows(self.distinct.rows):  # the prune raises when a pair overflows
            self._max_sqdist = _pruned_max_sqdist(self.distinct.rows)
        if reads:
            self._pass(reads)

    @classmethod
    def batch(cls, stacks, sizes, kernel: KernelSpec, h: float) -> BatchValues:
        """What the fixed-point test and the component count of
        ``PairwiseState(cfg, kernel, h)`` give for each configuration of
        ``stacks``, bit for bit, as arrays in stack order (see
        :class:`BatchValues`), from one pass per stack.

        Each stack is an (N, d) array of configurations of one dimension d
        stacked, and the matching entry of ``sizes`` gives their sizes in
        order (adding to N), each of 1 to 128 points: one block each, so
        that no state of theirs groups its rows or takes the grid.

        Each stack is validated once, as one configuration.  Its pass runs
        over pair lists (:func:`_candidate_sums`), whose candidates are each
        row's own configuration's rows, so no pair crosses two
        configurations, every column sums its own configuration's j-rows in
        ascending order from ``+0.0``, as the configuration's own pass does,
        and the components never meet.  The largest squared distance and
        joined squared distance are maxima per configuration, which no order
        moves.

        Raises ``ValueError`` for a configuration of no point or of more
        than 128, for sizes that do not add to their stack's rows and, as
        the constructor does, for a stack of complex coordinates, an empty
        stack, a non-finite coordinate, an out-of-range bandwidth and
        squared distances that overflow.
        """
        h = check_bandwidth(h)
        none = np.empty(0, dtype=np.intp)  # the values of no stack
        parts = [BatchValues(none, none, np.empty(0), np.empty(0, dtype=bool), np.empty(0), none)]
        for points, counts in zip(stacks, sizes, strict=True):
            stack = cls.__new__(cls)
            stack.h, stack.kernel = h, kernel
            stack.cfg = Configuration.from_points(points)
            stack.n = stack.cfg.n
            counts = np.asarray(counts, dtype=np.intp)
            bad = counts[(counts < 1) | (counts * counts > _BLOCK_ENTRIES)]
            if bad.size:  # the first in stack order
                raise ValueError(f"a batched configuration has 1 to 128 points, got {bad[0]}")
            if counts.sum() != stack.n:
                raise ValueError(f"batched configurations of {counts.sum()} points in all "
                                 f"stacked in {stack.n} rows")
            # every row its own: a grouping could join rows of two configurations
            stack.distinct = DistinctRows(stack.cfg.points, grouped=False)
            segment = stack._segment = np.repeat(np.arange(counts.size), counts)
            # each row's candidates: its own configuration's rows
            low, high = segment.searchsorted(segment), segment.searchsorted(segment, "right")
            stack._grid = (np.arange(stack.n), low[None], high[None], high - low), None
            # the largest of each configuration, from +0.0
            stack._max_sqdist, stack._joined_max = np.zeros((2, counts.size))
            stack._pass({"moments", "labels", "diameter", "singular"})
            moments = stack._moments
            M = np.ones_like(counts)
            if kernel.truncated:  # a component per row that is its own root
                roots = np.flatnonzero(stack._roots == np.arange(stack.n))
                M = np.bincount(segment[roots], minlength=counts.size)
            parts.append(BatchValues(
                counts, np.full_like(counts, stack.cfg.d), np.sqrt(stack.max_sqdist),
                stack._joined_max_sqdist() == 0.0,
                # is_fixed_point's norms, the largest of each configuration
                np.maximum.reduceat(np.sqrt(np.add.reduce(moments * moments, axis=1)),
                                    np.cumsum(counts) - counts),
                M))
        return BatchValues(*map(np.concatenate, zip(*parts)))

    def _pass(self, reads, scan: bool = False, after: np.ndarray | None = None,
              joins: np.ndarray | None = None) -> tuple[float, float] | None:
        # fill what ``reads`` names; ``scan`` evaluates every pair even where
        # the candidate pairs would do.  Given ``after``, the points of a
        # next configuration that is constant on the groups, the pass reads
        # nothing else and returns the totals of the gap's pre-step terms
        # g_rj ||y_r - y_j||^2 and post-step terms g_rj ||y'_r - y'_j||^2;
        # ``joins``, an (a, n) boolean array of False, takes the join bits g != 0
        return _Pass(self, reads, scan, after, joins).run()

    @cached_property
    def _grid(self):
        # the candidate pairs of a truncated state whose pairs span several
        # blocks and whose grid decides them exactly (see _cell_ranges), and
        # their count, as (the ranges and the count of each j-row's
        # candidates, the count of all), where some pass can take them: the
        # grid beats the row blocks in a pass of one slab, whose chunks of
        # pairs are the largest; else None (a stack's are its
        # configurations' rows, see batch).  Found once, for every pass
        kernel, distinct, a = self.kernel, self.distinct, self.distinct.a
        if kernel.truncated and self.n * a > _BLOCK_ENTRIES:
            grid = _cell_ranges(distinct.rows, kernel.beta * self.h, self.h)
            if grid is not None:  # with the candidates of each j-row
                per_j = distinct.expand((grid[2] - grid[1]).sum(axis=0))
                count, chunk = int(per_j.sum()), max(a, 3 * _BLOCK_ENTRIES // (2 * self.cfg.d + 5))
                if _pair_source(self.n, a, 1, False, False, count, chunk) == "grid":
                    return (*grid, per_j), count

    @property
    def max_sqdist(self) -> float:
        """Largest squared distance between two points; from the bounding-box
        prune (:func:`_pruned_max_sqdist`) unless the pass read it."""
        if self._max_sqdist is None:
            self._max_sqdist = _pruned_max_sqdist(self.distinct.rows)
        return self._max_sqdist

    @property
    def diameter(self) -> float:
        """Largest distance between two points."""
        return math.sqrt(self.max_sqdist)

    def _joined_max_sqdist(self) -> float:
        # largest squared distance of a joined pair: of every pair for a
        # full-support kernel
        if not self.kernel.truncated:
            return self.max_sqdist
        if self._joined_max is None:
            self._pass({"singular"})
        return self._joined_max

    @property
    def objective(self) -> float:
        """The objective ``sum_ij k_ij``, summed as the class docstring's
        contract says."""
        if self._objective is None:
            self._pass({"objective"})
        return self._objective

    @property
    def margin(self) -> float:
        """Smallest distance of a pair i != j to the joining radius
        ``beta * h`` (``inf``, without a pass, for a full-support kernel).  A
        state that takes the grid finds it by a pass of its own that scans
        every pair."""
        if not self.kernel.truncated:
            return math.inf
        if self._margin is None:
            self._pass({"margin"}, scan=True)
        return self._margin

    @property
    def boundary_hit(self) -> bool:
        """Some pair's profile argument is exactly the support boundary of a
        non-smoothly truncated kernel; False, without a pass, for any other
        kernel."""
        if self._boundary_hit is None:
            if self.kernel.truncation is TruncationClass.NON_SMOOTHLY_TRUNCATED:
                self._pass({"margin"})
            else:  # no pair of another kernel can hit a boundary
                self._boundary_hit = False
        return self._boundary_hit

    def joined_rows(self) -> np.ndarray:
        """A new (a, n) boolean array whose row r marks the points joined to
        distinct row r: ``g != 0``, from a pass of its own, which also reads
        the labels, or every point for a full-support kernel."""
        if not self.kernel.truncated:
            return np.ones((self.distinct.a, self.n), dtype=bool)
        joins = np.zeros((self.distinct.a, self.n), dtype=bool)
        self._pass(() if self._roots is not None else {"labels"}, joins=joins)
        return joins

    @cached_property
    def labels(self) -> np.ndarray:
        """Component index of every point, read-only: components are numbered
        contiguously from 0 in order of their smallest point index."""
        distinct = self.distinct
        if not self.kernel.truncated:  # a complete graph is one component
            roots = np.zeros(self.n, dtype=np.intp)
        else:
            if self._roots is None:
                self._pass({"labels"})
            roots = self._roots
            if distinct.inv is not None:
                # the graph over the distinct positions, expanded: coincident
                # points share every neighbour, and the distinct rows come in
                # order of first appearance, so a component's smallest point
                # is the first point of its smallest row.  Coincident points
                # are joined to each other where g(0) != 0; where g(0) = 0
                # (tricube) a group with no join at all is not, so its points
                # stay apart, which its degree of 0 tells.
                point = np.arange(self.n)
                roots = distinct.first[roots][distinct.inv]
                if self.kernel.g0 == 0.0:
                    apart = ((self._degree[distinct.inv] == 0)
                             & (distinct.first[distinct.inv] != point))
                    roots = np.where(apart, point, roots)
        labels = _numbered(roots)
        labels.setflags(write=False)
        return labels

    @cached_property
    def components(self) -> tuple[np.ndarray, ...]:
        order = np.argsort(self.labels, kind="stable")
        bounds = np.cumsum(np.bincount(self.labels))[:-1]
        return tuple(np.split(order, bounds))

    @property
    def M(self) -> int:
        return int(self.labels.max()) + 1  # labels run from 0 to M - 1

    @cached_property
    def closed(self) -> bool:
        """Every component is a clique."""
        if not self.kernel.truncated:
            return True
        if self._degree is None:
            self._pass({"closed"})
        sizes = np.bincount(self.labels)
        return bool(np.all(self.distinct.expand(self._degree) == sizes[self.labels] - 1))

    @cached_property
    def singular(self) -> bool:
        """Every joined pair of points coincides exactly."""
        return self._joined_max_sqdist() == 0.0

    def stable(self, stability_tol: float | None = None) -> bool:
        """Margin test with tolerance ``stability_tol`` (default ``1e-9 * beta * h``).

        At the default tolerance it is the ``"stable"`` read's, unless the
        margin is known; any other tolerance reads the margin, which a grid
        state finds by scanning every pair.  Raises ``ValueError`` for a
        negative or NaN ``stability_tol``.
        """
        if stability_tol is not None and not stability_tol >= 0:
            raise ValueError(f"stability_tol must be non-negative, got {stability_tol}")
        if not self.kernel.truncated:
            return True
        if stability_tol is None:
            if self._stable is None and self._margin is None:
                self._pass({"stable"})
            if self._stable is not None:
                return self._stable
            stability_tol = _STABILITY_TOL * self.kernel.beta * self.h
        return self.margin > stability_tol

    @cached_property
    def component_diameter(self) -> float:
        if self.M == 1:
            return self.diameter
        if self.closed:  # every pair within a component is joined
            return math.sqrt(self._joined_max_sqdist())
        # the components of the distinct rows: where g(0) = 0, coincident
        # points with no join are apart, but at distance 0 from each other
        return component_diameter(self.distinct.rows, self._roots, self._joined_max_sqdist())

    def update(self) -> np.ndarray:
        """Blurred points ``sum_j g_ij y_j / sum_j g_ij``, summed as the
        class docstring's contract says, once per distinct position.

        Raises ``ValueError`` when a point's weights sum to zero, which a
        kernel with ``g(0) = 0`` gives a point or a group of coincident
        points with no other point at nonzero weight.
        """
        return self.distinct.expand(self.update_rows())

    def update_rows(self) -> np.ndarray:
        """The blurred position of each distinct row, an (a, d) array that
        :meth:`update` reads by point; raises as :meth:`update` does."""
        if self._update is None:
            self._pass({"update"})
        den, num = self._update  # num: the (d, a) numerators
        empty = np.flatnonzero(den == 0.0)
        if empty.size:  # the first point of the first such row is the first such point
            raise ValueError(
                f"point {self.distinct.points_of(empty)[0]} has zero total weight under "
                f"kernel {self.kernel.id!r}: its g(0) = {self.kernel.g0!r} leaves a "
                f"point or a group of coincident points with no other point at "
                f"nonzero weight, so its blurred position would be 0/0"
            )
        rows = np.empty(num.shape[::-1])
        np.divide(num, den, out=rows.T)  # into the transpose: no second (a, d) array
        return rows

    def _row_moments(self) -> np.ndarray:
        if self._moments is None:
            self._pass({"moments"})
        return self._moments

    def moments(self) -> np.ndarray:
        """Weighted difference sums ``sum_j (y_i - y_j) g_ij``, one row per point.

        Summed one j at a time in ascending order, like the update's
        numerator, from the pairwise differences, so that a singular
        configuration (every joined pair coincident) gives exactly zero.
        """
        return self.distinct.expand(self._row_moments())

    def gradient(self) -> np.ndarray:
        """Objective gradient: block ``i`` is ``-(2/h^2) sum_j (y_i - y_j) g_ij``."""
        return (-2.0 / (self.h * self.h)) * self.moments()

    def is_fixed_point(self, tol: float) -> bool:
        """Whether every moment has norm at most ``tol``: no point would move."""
        # np.linalg.norm's own formula for axis=1, without its wrapper
        moments = self._row_moments()
        return bool(np.all(np.sqrt(np.add.reduce(moments * moments, axis=1)) <= tol))

    def minorizer_gap(self, cfg_next) -> float:
        """Surrogate improvement ``(1/(2 h^2)) * (sum_ij g_ij ||y_i - y_j||^2
        - sum_ij g_ij ||y'_i - y'_j||^2)`` of ``cfg_next`` with these
        weights, summed as the class docstring's contract says.

        Both terms come from one pass of their own, which computes the
        weights again and sums, from the same weights, the pre-step terms
        ``g_rj ||y_r - y_j||^2`` in one slab and the post-step terms
        ``g_rj ||y'_r - y'_j||^2`` in the other, over the same pairs as
        every other sum (the candidates, on a grid state).  Both slabs are
        symmetric, so on an ungrouped state that scans every pair the pass
        may fill only the tiles on and above the diagonal
        (:func:`_tiled_j`).  Where ``cfg_next`` splits a group of coincident
        points (its rows differ bitwise), a state with no grouping gives
        each point its own row.
        """
        nxt = as_configuration(cfg_next).points
        distinct = self.distinct
        if distinct.inv is not None:
            bits = np.ascontiguousarray(nxt).view(np.int64)
            if np.any(bits != distinct.expand(distinct.at_first(bits))):
                flat = DistinctRows(self.cfg.points, grouped=False)
                return PairwiseState(self.cfg, self.kernel, self.h,
                                     distinct=flat).minorizer_gap(nxt)
        before, after = self._pass((), after=nxt)
        return (before - after) / (2.0 * self.h * self.h)


class _Pass:
    """One pass of a :class:`PairwiseState` (see its docstring) over the
    pairs of the source that :func:`_pair_source` picks for its reads.

    The constructor picks the source and sets the state's values that the
    chunks fill to their starts; :meth:`fill` writes the terms of one
    chunk, and fills the maxima, the margin and the components from it, in
    the state; :meth:`run` sums the chunks and keeps the sums in the state.
    """

    __slots__ = ("state", "source", "joins", "y", "at", "next_y", "next_at", "radius", "weigh",
                 "boundary_u", "update", "moments", "objective", "unstable", "labels",
                 "degrees", "joined_max", "chunk_max", "own", "num", "mom", "slabs", "entries")

    def __init__(self, state: PairwiseState, reads, scan: bool, after: np.ndarray | None,
                 joins: np.ndarray | None):
        kernel, n, d, distinct = state.kernel, state.n, state.cfg.d, state.distinct
        a, truncated, grid = distinct.a, kernel.truncated, None if scan else state._grid
        self.state, self.joins, self.radius = state, joins, kernel.beta * state.h
        self.update, self.moments = "update" in reads, "moments" in reads
        singular = "singular" in reads
        self.objective = "objective" in reads and kernel.profile is not kernel.g
        margin = truncated and "margin" in reads
        self.unstable = None  # the squared distances that fail the default margin test
        if truncated and "stable" in reads and not margin:
            self.unstable = _unstable_interval(self.radius, _STABILITY_TOL * self.radius)
            margin = self.unstable is None  # no interval: the exact margin decides
            state._stable = None if margin else True  # until a chunk fails the test
        self.labels = labels = truncated and ("labels" in reads or "closed" in reads)
        # the degrees: closed's, and the labels' where coincident points may stay apart
        self.degrees = truncated and ("closed" in reads or (labels and kernel.g0 == 0.0 and a < n))
        self.joined_max = truncated and singular
        # slabs: the weights (the denominator's terms), the objective's
        # terms when read and not the weights (gaussian), then the d
        # numerators and the d moments; a gap pass (given ``after``) reads
        # nothing else and holds the gap's pre-step and post-step terms alone
        self.num = (after is None) + self.objective
        self.mom = self.num + d * self.update
        self.slabs = slabs = 2 if after is not None else self.mom + d * self.moments
        # every chunk budget counts the labels' temporaries (_join_chunk's
        # int64 pairs and roots, which grow with the chunk) as one more slab
        counted = slabs + labels
        # a pair of the grid has 2 d + 4 more entries: its two ends, their
        # coordinates, its profile argument and its weight, and 2 d more in
        # a gap pass: the coordinates of its ends' next points; and a
        # grid chunk holds a pairs at least, so that the a running totals
        # it copies cost no more than its pairs
        chunk = max(a, 3 * _BLOCK_ENTRIES // (counted + 2 * d * (1 + (after is not None)) + 4))
        plain = not (margin or labels or joins is not None)  # sums and maxima alone
        self.source = _pair_source(n, a, slabs, plain, plain and not (self.update or self.moments),
                                   grid[1] if grid else None, chunk, state._segment is not None)
        listed = self.source in ("grid", "stack")
        # every pair at the boundary is a candidate of the grid
        self.boundary_u = kernel.boundary_u if margin and (
            kernel.truncation is TruncationClass.NON_SMOOTHLY_TRUNCATED) else None
        if margin:
            state._boundary_hit = False
            if not listed:  # a grid state's margin comes from a scan (see margin)
                state._margin = math.inf
        # the own point of each distinct row, where the margin is read
        self.own = distinct.points_of(np.arange(a)) if margin and not listed else None
        # a full-support kernel's largest joined distance is the largest
        largest = state._max_sqdist is None and ("diameter" in reads or singular and not truncated)
        self.chunk_max = largest and not listed
        if largest:  # the grid's pairs miss the largest: the prune finds it
            state._max_sqdist = _pruned_max_sqdist(distinct.rows) if listed else 0.0
        if self.joined_max and state._segment is None:
            state._joined_max = 0.0
        if labels:
            state._roots = np.arange(a)
            state._degree = np.zeros(a, dtype=np.intp) if self.degrees else None
        # the j-rows and their next points: the distinct rows' where the pass gathers
        gathered = self.source == "gathered"
        self.y, self.at = distinct.rows if gathered else state.cfg.points, distinct.rows
        self.next_at = None if after is None else distinct.at_first(after)
        self.next_y = self.next_at if gathered else after
        self.weigh = in_place(kernel)
        self.entries = chunk  # a chunk's pairs, or, in blocks of pairs, its entries per slab
        if not listed:  # so that a block's subtracts and multiplies run over contiguous rows
            self.y, self.at = _coordinate_rows(self.y, self.at)
            if after is not None:
                self.next_y, self.next_at = _coordinate_rows(self.next_y, self.next_at)
            # a truncated chunk's temporaries (its margin, its joins and,
            # where they do not lie in a slab, its profile arguments) come on
            # top of its slabs, so its slabs (the labels' counted) share
            # three blocks, at most three fifths of one each: with the profile
            # argument and the weight of each entry, a chunk of the update's
            # three slabs (or fewer) then
            # holds three blocks, below a grid chunk, so a run's peak does not
            # hang on the a of the states whose n x a pairs fit one chunk
            # (with a block per slab those peaked in proportion to a, above
            # the grid's).  Each chunk costs a fixed count of numpy calls, so
            # smaller chunks would slow the states of a few hundred points
            entries = 3 * _BLOCK_ENTRIES // max(counted, 5) if truncated else _BLOCK_ENTRIES
            # a pass over blocks holds its coordinate rows beside its chunks,
            # so its slabs give up their entries, up to an eighth of their own
            coords = self.y.size + self.at.size * (self.at is not self.y)
            self.entries = entries - min(entries // 8, coords * (1 + (after is not None)) // slabs)

    def run(self) -> tuple[float, float] | None:
        # sum the chunks of the source and keep what the pass read; returns
        # the totals of the gap's pre-step and post-step terms in a gap pass
        state, slabs, num = self.state, self.slabs, self.num
        n, inv, a = state.n, state.distinct.inv, state.distinct.a
        if self.source == "gathered":
            sums = _gathered_j(inv, a, slabs, self.fill)
        elif self.source == "tiles":
            sums = _tiled_j(n, slabs, self.fill, self.entries)
        elif self.source == "rows":
            sums = _ascending_j(n, a, slabs, self.fill, self.entries)
        else:  # the pairs of the grid or of a stack
            sums = _candidate_sums(state._grid[0], inv, n, a, slabs, self.fill, self.entries)
        # the slab below the numerators: the weights' when they are the profile's
        if self.objective or (num == 1 and state.kernel.profile is state.kernel.g):
            state._objective = _ascending_total(state.distinct.expand(sums[num - 1]))
        if self.update:
            state._update = sums[0], sums[num:self.mom]
        if self.moments:
            state._moments = np.ascontiguousarray(sums[self.mom:].T)
        if self.degrees:  # the pair with its own point is joined exactly when g(0) != 0
            state._degree -= state.kernel.g0 != 0.0
        if self.next_y is not None:
            expand = state.distinct.expand
            return _ascending_total(expand(sums[0])), _ascending_total(expand(sums[1]))

    def fill(self, rows, out, col=None) -> None:
        """Write the terms of the j-rows ``rows`` against every distinct row,
        in (rows, a) blocks (the distinct rows themselves, once, where the
        pass gathers), against the rows of a slice ``col`` in a tile of
        :func:`_tiled_j`, or of the pairs ``(rows[p], col[p])`` of the grid,
        into ``out``, and fill the maxima, the margin and the components
        from them."""
        state, joins, segment = self.state, self.joins, self.state._segment
        gap = self.next_y is not None
        sqd = w = out[0]
        yj, ar = _pair_ends(self.y, self.at, rows, col)
        diff = out[self.mom:] if self.moments else None  # the moments' slabs
        # the squares' scratch: the slab after the distances' where it holds
        # nothing until they are written (the objective's terms, the first
        # numerators or the gap's post-step terms), not a moments' slab
        scratch = out[1] if self.mom > 1 or gap else None
        if segment is None:  # within the bounding box's bound, checked already
            coordinate_sqdist(yj, ar, out=sqd, diff=diff, scratch=scratch)
            if self.chunk_max:
                state._max_sqdist = max(state._max_sqdist, float(sqd.max()))
        else:  # a stack's pairs: the largest of each configuration
            with np.errstate(over="ignore"):  # an overflow raises by name just below
                coordinate_sqdist(yj, ar, out=sqd, diff=diff, scratch=scratch)
            _checked_max(sqd)
            np.maximum.at(state._max_sqdist, segment[rows], sqd)
        if self.own is not None:  # a block of j-rows against every distinct row
            state._margin = min(state._margin, _block_margin(sqd, self.own, rows, self.radius))
        elif self.unstable is not None and state._stable:
            failing = sqd >= self.unstable[0]
            failing &= sqd <= self.unstable[1]
            state._stable = not failing.any()
        # g holds the profile arguments until weigh writes the weights over
        # them: in the weights' slab, but where the distances are read again
        # (the joined ones, the gap's pre-step ones)
        g = profile_args(sqd, state.h, out=None if gap or self.joined_max else w)
        # u_ii = 0 lies inside every support, so the diagonal never matches
        if self.boundary_u is not None and not state._boundary_hit:
            state._boundary_hit = bool(np.any(g == self.boundary_u))
        self.weigh(g, out[1] if self.objective else None)
        if self.joined_max or self.labels or joins is not None:
            joined = g != 0.0
        if self.joined_max:
            # the distances are finite, so a joined one times 1.0 is itself
            # and an unjoined one becomes +0.0; w is free until it takes the
            # weights
            joined_sqd = np.multiply(sqd, joined, out=w)
            if segment is None:
                state._joined_max = max(state._joined_max, float(joined_sqd.max()))
            else:
                np.maximum.at(state._joined_max, segment[rows], joined_sqd)
        if self.labels:
            self._join_chunk(rows, joined, col)
        if joins is not None and col is None:  # row r: the points joined to distinct row r
            joins[:, rows] = joined.T
        elif joins is not None:  # a list of pairs
            joins[col, rows] = joined
        if gap:  # no slab sums the weights: they stay in their own array
            w = g
        elif g is not w:  # the joined distances took the weights' slab
            w[...] = g
            del g  # off the peak of the sums' terms
        if self.update:  # w_jr y_jk of every coordinate k
            np.multiply(w, yj, out=out[self.num:self.mom])
        if diff is not None:  # the moments' w_jr (y_rk - y_jk) of every coordinate k
            diff *= w
        if gap:  # the pre-step distances and the post-step ones, times the weights
            coordinate_sqdist(*_pair_ends(self.next_y, self.next_at, rows, col), out=out[1])
            out *= w

    def _join_chunk(self, rows, joined: np.ndarray, col: np.ndarray | None) -> None:
        # count the chunk's joins per column where the degrees are read, and
        # join the distinct row of each j-row to every column it reaches.  A
        # block's pairs whose ends share a root already share a component,
        # so only the pairs that cross two roots are listed (after the first
        # blocks, almost none), and none once every root is 0: the rows then
        # form one component so far, which a test of O(a) tells
        state, inv = self.state, self.state.distinct.inv
        if state._degree is not None:
            state._degree += (np.count_nonzero(joined, axis=0) if col is None
                              else np.bincount(col[joined], minlength=state._degree.size))
        if not state._roots.any():
            return
        if col is None:
            own = state._roots[rows if inv is None else inv[rows]]
            cross = own[:, None] != state._roots
            cross &= joined
            j, col = np.divmod(np.flatnonzero(cross), joined.shape[1])
            j += rows.start
        else:
            pairs = np.flatnonzero(joined)
            j, col = rows[pairs], col[pairs]
        state._roots = _union(state._roots, j if inv is None else inv[j], col)
