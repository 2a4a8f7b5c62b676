"""Pairwise state of one configuration: distances and weights computed once.

Every per-step quantity of the iteration (the blurring update, the
objective, the proximity graph and its classification, the diameters, the
fixed-point moments, the gradient and the minorizer gap) derives from the
squared pairwise distances of one configuration and the kernel weights on
them.  :class:`PairwiseState` computes those once; the public functions in
``engine``, ``graph`` and ``diagnostics`` are thin wrappers over it, so the
records of the iteration driver and the values rebuilt from the public
calls are bitwise equal by construction.

A truncated kernel keeps only its edges, the pairs with ``g_ij != 0``, as a
row-major CSR list built in one pass over row blocks of the distances, so
no n x n array is allocated.  A full-support kernel joins every pair and
keeps the dense n x n weight matrix.

This module imports only ``config`` and ``kernels``, so ``engine``,
``graph`` and ``diagnostics`` can all import it.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .config import as_configuration, check_bandwidth, pairwise_sqdist, profile_args
from .kernels import KernelSpec, TruncationClass

# Entries per row block of the n x n (x d) temporaries; bounds their memory
# at 128 KiB of float64 whatever the configuration size.
_BLOCK_ENTRIES = 1 << 14


def _row_blocks(n: int, width: int):
    rows = max(1, _BLOCK_ENTRIES // max(1, width))
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


def _column_blocks(n: int):
    # Column blocks of an n x n matrix, sized like the row blocks.  No block
    # is a single column (unless n == 1): numpy sums one contiguous column
    # pairwise, not one row at a time, so a trailing lone column joins the
    # block before it.
    cols = max(2, _BLOCK_ENTRIES // n)
    start = 0
    while start < n:
        stop = min(start + cols, n)
        if n - stop == 1:
            stop = n
        yield slice(start, stop)
        start = stop


def _by_row_blocks(fn, u: np.ndarray) -> np.ndarray:
    # fn is elementwise (profiles and weight functions are), so evaluating
    # it one row block at a time gives the same bits with bounded temporaries
    out = np.empty_like(u)
    for rows in _row_blocks(u.shape[0], u.shape[1]):
        out[rows] = fn(u[rows])
    return out


def _checked_max(sqdist: np.ndarray) -> float:
    largest = float(np.max(sqdist))
    if math.isinf(largest):
        raise ValueError(
            "squared pairwise distances overflow double precision; "
            "rescale the points and the bandwidth"
        )
    return largest


def max_sqdist(points: np.ndarray) -> float:
    """Largest squared pairwise distance, from row blocks of the matrix.

    Raises ``ValueError`` when it overflows to inf.
    """
    return max(_checked_max(pairwise_sqdist(points[rows], points))
               for rows in _row_blocks(points.shape[0], points.shape[0]))


def component_diameter(points: np.ndarray, components) -> float:
    """Largest intra-component pairwise distance over a partition."""
    worst = 0.0
    for comp in components:
        if len(comp) > 1:
            worst = max(worst, max_sqdist(points[comp]))
    return math.sqrt(worst)


def component_labels(adjacency) -> np.ndarray:
    """Connected-component labels of a symmetric adjacency (dense or sparse).

    Components are numbered contiguously from 0 in order of their smallest
    vertex index, so the labelling is reproducible.
    """
    # a symmetric graph's strong components are its components, and scipy
    # finds those without building the transpose
    _, labels = connected_components(adjacency, directed=True, connection="strong")
    _, first = np.unique(labels, return_index=True)
    order = np.argsort(first)
    remap = np.empty_like(order)
    remap[order] = np.arange(order.size)
    return remap[labels]


def _nonzero_by_row(mask: np.ndarray):
    """Row (within the block), int32 column and flat position of every true
    entry of a 2-D boolean block, in row-major order."""
    flat = np.flatnonzero(mask)  # several times faster on bools than on floats
    width = mask.shape[1]
    row = flat // width
    return row, (flat - row * width).astype(np.int32), flat


def _csr(data: np.ndarray, indices: np.ndarray, counts: np.ndarray) -> csr_array:
    # indptr of indices' dtype, so scipy keeps both arrays as they are
    n = counts.size
    dtype = np.int32 if indices.size <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=dtype)
    np.cumsum(counts, out=indptr[1:])
    return csr_array((data, indices.astype(dtype, copy=False), indptr), shape=(n, n))


def single_linkage_labels(points: np.ndarray, radius: float) -> np.ndarray:
    """Component labels (see :func:`component_labels`) of the graph joining
    every pair of points within ``radius``, built from row blocks of the
    squared distances, so no n x n array is allocated."""
    n = points.shape[0]
    limit = radius * radius
    counts, indices = [], []
    for rows in _row_blocks(n, n):
        row, cols, _ = _nonzero_by_row(pairwise_sqdist(points[rows], points) <= limit)
        counts.append(np.bincount(row, minlength=rows.stop - rows.start))
        indices.append(cols)
    indices = np.concatenate(indices)
    return component_labels(_csr(np.ones(indices.size, dtype=bool), indices,
                                 np.concatenate(counts)))


def _block_margin(sqd: np.ndarray, rows: slice, radius: float) -> float:
    # smallest |distance - radius| over the block's pairs i != j
    gap = np.sqrt(sqd)
    gap -= radius
    np.abs(gap, out=gap)
    own = np.arange(rows.start, rows.stop)
    gap[own - rows.start, own] = math.inf
    return float(np.min(gap))


def _ascending_total(row_sums: np.ndarray) -> float:
    # ((0.0 + s_0) + s_1) + ...: accumulate adds one entry at a time, and
    # the trailing + 0.0 stands for the +0.0 start (it only turns -0.0 into 0.0)
    return float(np.cumsum(row_sums)[-1] + 0.0)


class PairwiseState:
    """Squared distances, profile arguments and weights of a configuration.

    A truncated kernel is handled in one pass over row blocks of the squared
    distances.  Each block gives the largest squared distance, the boundary
    margin, the boundary hit, the largest squared distance of a joined pair
    (zero when the graph is singular), the objective's row sums and the
    block's edges: the pairs with ``g_ij != 0`` (the diagonal included where
    ``g(0) != 0``).  The edges are kept as the
    row-major CSR array ``graph`` (int32 column indices, the weights as its
    data); the components, classification, update, moments and minorizer
    gap read only them.

    A full-support kernel joins every pair, so it keeps the dense n x n
    ``weights``.  Its constructor takes the largest squared distance first,
    then turns the distances into profile arguments in place, takes the
    objective (summed over all n^2 entries) and the weights, and drops the
    arguments.

    Summation contract: the update's numerator ``sum_j g_ij y_j`` and the
    moments ``sum_j g_ij (y_i - y_j)`` are summed one j at a time in
    ascending order from ``+0.0``, for every coordinate and every d.  For a
    truncated kernel so are the denominator ``sum_j g_ij``, the objective's
    row sums ``sum_j k_ij`` and the minorizer gap's row sums
    ``sum_j g_ij ||y_i - y_j||^2``; the objective and the gap then add
    their row sums in ascending i from ``+0.0``.  Such a sum never becomes
    ``-0.0``, so skipping the pairs with a zero term leaves its bits as
    they are.  A full-support kernel keeps numpy's row sum for the
    denominator and numpy's sum over all n^2 entries for the objective and
    the minorizer gap.

    Raises ``ValueError`` for an out-of-range bandwidth and when the
    largest squared distance overflows to inf.
    """

    def __init__(self, cfg, kernel: KernelSpec, h: float):
        self.h = check_bandwidth(h)
        self.cfg = as_configuration(cfg)
        self.kernel = kernel
        self.n = self.cfg.n
        self.margin = math.inf
        if kernel.truncated:
            self._scan_edges()
        else:
            self._dense_weights()
        self.diameter = math.sqrt(self.max_sqdist)

    def _hits_boundary(self, u: np.ndarray) -> bool:
        # u_ii = 0 lies inside every support, so the diagonal never matches
        kernel = self.kernel
        return bool(
            kernel.truncation is TruncationClass.NON_SMOOTHLY_TRUNCATED
            and kernel.boundary_u is not None
            and np.any(u == kernel.boundary_u)
        )

    def _dense_weights(self) -> None:
        sqd = pairwise_sqdist(self.cfg.points)
        self.max_sqdist = _checked_max(sqd)
        u = profile_args(sqd, self.h, out=sqd)
        del sqd
        # the pairwise sum must see all n^2 entries to keep its bits
        self.objective = float(np.sum(_by_row_blocks(self.kernel.profile, u)))
        self.boundary_hit = self._hits_boundary(u)
        self.weights = _by_row_blocks(self.kernel.g, u)

    def _scan_edges(self) -> None:
        points, n, kernel = self.cfg.points, self.n, self.kernel
        radius = kernel.beta * self.h
        largest, margin, hit, joined = 0.0, math.inf, False, 0.0
        row_sums = np.empty(n)
        counts, loops, indices, weights = [], [], [], []
        for rows in _row_blocks(n, n):
            size = rows.stop - rows.start
            sqd = pairwise_sqdist(points[rows], points)
            largest = max(largest, _checked_max(sqd))
            margin = min(margin, _block_margin(sqd, rows, radius))
            u = profile_args(sqd, self.h)
            hit = hit or self._hits_boundary(u)
            # the objective's terms in support, summed per row in ascending j
            k = kernel.profile(u)
            row, _, flat = _nonzero_by_row(k != 0.0)
            row_sums[rows] = np.bincount(row, weights=k.ravel()[flat], minlength=size)
            g = kernel.g(u)
            row, cols, flat = _nonzero_by_row(g != 0.0)
            counts.append(np.bincount(row, minlength=size))
            loops.append(g[np.arange(size), np.arange(rows.start, rows.stop)] != 0.0)
            indices.append(cols)
            weights.append(g.ravel()[flat])
            joined = max(joined, float(np.max(sqd.ravel()[flat], initial=0.0)))
        counts = np.concatenate(counts)
        self.max_sqdist = largest
        self.margin = margin
        self.boundary_hit = hit
        self.objective = _ascending_total(row_sums)
        self.graph = _csr(np.concatenate(weights), np.concatenate(indices), counts)
        self._degree = counts - np.concatenate(loops)  # edges i != j
        self._joined_max = joined  # largest squared distance of an edge

    @cached_property
    def labels(self) -> np.ndarray:
        """Component index of every vertex, read-only (see :func:`component_labels`)."""
        if self.kernel.truncated:
            labels = component_labels(self.graph)
        else:  # a complete graph is one component
            labels = np.zeros(self.n, dtype=np.intp)
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
        sizes = np.bincount(self.labels)
        return bool(np.all(self._degree == sizes[self.labels] - 1))

    @cached_property
    def singular(self) -> bool:
        """Every joined pair of points coincides exactly."""
        if not self.kernel.truncated:
            return self.max_sqdist == 0.0
        return self._joined_max == 0.0

    def stable(self, stability_tol: float | None = None) -> bool:
        """Margin test with tolerance ``stability_tol`` (default ``1e-9 * beta * h``)."""
        if not self.kernel.truncated:
            return True
        if stability_tol is None:
            stability_tol = 1e-9 * (self.kernel.beta * self.h)
        return self.margin > stability_tol

    @cached_property
    def component_diameter(self) -> float:
        if self.M == 1:
            return self.diameter
        if self.closed:  # every pair within a component is an edge
            return math.sqrt(self._joined_max)
        return component_diameter(self.cfg.points, self.components)

    @cached_property
    def _edge_rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n), np.diff(self.graph.indptr))

    def _row_sums(self, terms: np.ndarray) -> np.ndarray:
        # bincount adds the terms in edge order: ascending j within a row,
        # one at a time from +0.0
        return np.bincount(self._edge_rows, weights=terms, minlength=self.n)

    def _sum_over_j(self, term) -> np.ndarray:
        """``out[i, k] = sum_j g_ij t_j`` with ``t = term(cols, k)[:, i - cols.start]``,
        for the dense weights.

        The weight matrix is exactly symmetric, so column i holds row i's
        weights, and each column block is reduced over axis 0, one
        coordinate at a time (one ``(n, d, cols)`` product is slower).
        """
        w = self.weights
        out = np.empty_like(self.cfg.points)
        for cols in _column_blocks(self.n):
            block = w[:, cols]
            for k in range(self.cfg.d):
                out[cols, k] = (block * term(cols, k)).sum(axis=0)
        return out

    def update(self) -> np.ndarray:
        """Blurred points ``sum_j g_ij y_j / sum_j g_ij``, summed as the
        class docstring's contract says (for a truncated kernel, ``graph @ y``
        over ``graph @ 1``).

        Raises ``ValueError`` when a point's weights sum to zero, which a
        kernel with ``g(0) = 0`` gives a point or a group of coincident
        points with no other point at nonzero weight.
        """
        y = self.cfg.points
        if self.kernel.truncated:
            den = self.graph @ np.ones(self.n)
        else:
            den = self.weights.sum(axis=1)
        empty = np.flatnonzero(den == 0.0)
        if empty.size:
            raise ValueError(
                f"point {empty[0]} has zero total weight under kernel "
                f"{self.kernel.id!r}: its g(0) = {self.kernel.g0!r} leaves a "
                f"point or a group of coincident points with no other point at "
                f"nonzero weight, so its blurred position would be 0/0"
            )
        if self.kernel.truncated:
            num = self.graph @ y
        else:
            num = self._sum_over_j(lambda cols, k: y[:, k, None])
        return num / den[:, None]

    def moments(self) -> np.ndarray:
        """Weighted difference sums ``sum_j (y_i - y_j) g_ij``, one row per point.

        Summed one j at a time in ascending order, like the update's
        numerator, from the pairwise differences, so that a singular
        configuration (every joined pair coincident) gives exactly zero.
        """
        y = self.cfg.points
        if not self.kernel.truncated:
            return self._sum_over_j(lambda cols, k: y[None, cols, k] - y[:, k, None])
        rows, cols = self._edge_rows, self.graph.indices
        out = np.empty_like(y)
        for k in range(self.cfg.d):
            yk = y[:, k]
            term = yk[rows] - yk[cols]
            term *= self.graph.data
            out[:, k] = self._row_sums(term)
        return out

    def gradient(self) -> np.ndarray:
        """Objective gradient: block ``i`` is ``-(2/h^2) sum_j (y_i - y_j) g_ij``."""
        return (-2.0 / (self.h * self.h)) * self.moments()

    def is_fixed_point(self, tol: float) -> bool:
        """Whether every moment has norm at most ``tol``: no point would move."""
        return bool(np.all(np.linalg.norm(self.moments(), axis=1) <= tol))

    def _weighted_sqdist(self, points: np.ndarray) -> float:
        # sum_ij g_ij ||p_i - p_j||^2 over the edges, each squared distance
        # summed over coordinates in pairwise_sqdist's order
        rows, cols = self._edge_rows, self.graph.indices
        total = points[rows, 0] - points[cols, 0]
        total *= total
        for k in range(1, points.shape[1]):
            term = points[rows, k] - points[cols, k]
            term *= term
            total += term
        total *= self.graph.data
        return _ascending_total(self._row_sums(total))

    def minorizer_gap(self, cfg_next) -> float:
        """Surrogate improvement ``(1/(2 h^2)) * (sum_ij g_ij ||y_i - y_j||^2
        - sum_ij g_ij ||y'_i - y'_j||^2)`` of ``cfg_next`` with these
        weights, summed as the class docstring's contract says (a truncated
        kernel reads both configurations only at its edges; the dense path
        computes the distances again, since the constructor converted them
        in place)."""
        nxt = as_configuration(cfg_next).points
        if self.kernel.truncated:
            before = self._weighted_sqdist(self.cfg.points)
            after = self._weighted_sqdist(nxt)
        else:
            w = self.weights
            before = float(np.sum(w * pairwise_sqdist(self.cfg.points)))
            after = float(np.sum(w * pairwise_sqdist(nxt)))
        return (before - after) / (2.0 * self.h * self.h)
