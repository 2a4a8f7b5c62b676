"""Pairwise state of one configuration: distances and weights computed once.

Every per-step quantity of the iteration (the blurring update, the
objective, the proximity graph and its classification, the diameters, the
fixed-point moments, the gradient and the minorizer gap) derives from the
squared pairwise distances of one configuration and the kernel weights on
them.  :class:`PairwiseState` computes those once; the public functions in
``engine``, ``graph`` and ``diagnostics`` are thin wrappers over it, so the
records of the iteration driver and the values rebuilt from the public
calls are bitwise equal by construction.

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
    """Connected-component labels of a symmetric boolean adjacency matrix.

    Components are numbered contiguously from 0 in order of their smallest
    vertex index, so the labelling is reproducible.
    """
    _, labels = connected_components(csr_array(adjacency), directed=False)
    _, first = np.unique(labels, return_index=True)
    order = np.argsort(first)
    remap = np.empty_like(order)
    remap[order] = np.arange(order.size)
    return remap[labels]


def _margin(sqdist: np.ndarray, radius: float) -> float:
    # smallest |distance - radius| over distinct pairs; the matrix is exactly
    # symmetric, so all off-diagonal entries give the upper triangle's minimum
    n = sqdist.shape[0]
    margin = math.inf
    for rows in _row_blocks(n, n):
        gap = np.sqrt(sqdist[rows])
        gap -= radius
        np.abs(gap, out=gap)
        own = np.arange(rows.start, rows.stop)
        gap[own - rows.start, own] = math.inf
        margin = min(margin, float(np.min(gap)))
    return margin


class PairwiseState:
    """Squared distances, profile arguments and weights of a configuration.

    The constructor takes every quantity that needs the distances or the
    profile arguments, in an order that keeps few n x n arrays alive at
    once: the largest squared distance, the boundary margin and the mask
    of distinct pairs first; then the distances become the profile
    arguments in place; then the objective (summed over all n^2 entries)
    and the weights, after which the arguments are dropped.  Everything
    else (graph, classification, update, moments) is derived from the
    weights on demand.  ``keep_sqdist`` keeps the distances in
    ``sqdist`` for :meth:`minorizer_gap`, at the cost of one n x n array.

    Raises ``ValueError`` for an out-of-range bandwidth and when the
    largest squared distance overflows to inf.
    """

    def __init__(self, cfg, kernel: KernelSpec, h: float, keep_sqdist: bool = False):
        self.h = check_bandwidth(h)
        self.cfg = as_configuration(cfg)
        self.kernel = kernel
        self.n = self.cfg.n

        sqd = pairwise_sqdist(self.cfg.points)
        self.max_sqdist = _checked_max(sqd)
        self.diameter = math.sqrt(self.max_sqdist)
        self.margin = math.inf
        self._distinct = None
        if kernel.truncated:
            self.margin = _margin(sqd, kernel.beta * self.h)
            self._distinct = sqd != 0.0
        self.sqdist = sqd if keep_sqdist else None
        u = profile_args(sqd, self.h, out=None if keep_sqdist else sqd)
        del sqd

        # the pairwise sum must see all n^2 entries to keep its bits
        self.objective = float(np.sum(_by_row_blocks(kernel.profile, u)))
        # u_ii = 0 lies inside every support, so the diagonal never matches
        self.boundary_hit = bool(
            kernel.truncation is TruncationClass.NON_SMOOTHLY_TRUNCATED
            and kernel.boundary_u is not None
            and np.any(u == kernel.boundary_u)
        )
        self.weights = _by_row_blocks(kernel.g, u)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Edge indicator ``g_ij != 0`` for ``i != j``, read-only.

        A non-truncated kernel joins every pair, even where the evaluated
        weight underflows to zero.
        """
        if self.kernel.truncated:
            adjacency = self.weights != 0.0
        else:
            adjacency = np.ones((self.n, self.n), dtype=bool)
        np.fill_diagonal(adjacency, False)
        adjacency.setflags(write=False)
        return adjacency

    @cached_property
    def labels(self) -> np.ndarray:
        """Component index of every vertex, read-only (see :func:`component_labels`)."""
        if self.kernel.truncated:
            labels = component_labels(self.adjacency)
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
        return len(self.components)

    @cached_property
    def closed(self) -> bool:
        """Every component is a clique."""
        if not self.kernel.truncated:
            return True
        sizes = np.bincount(self.labels)
        degrees = np.count_nonzero(self.adjacency, axis=1)
        return bool(np.all(degrees == sizes[self.labels] - 1))

    @cached_property
    def singular(self) -> bool:
        """Every joined pair of points coincides exactly."""
        if not self.kernel.truncated:
            return self.max_sqdist == 0.0
        return not bool(np.any(self.adjacency & self._distinct))

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
        return component_diameter(self.cfg.points, self.components)

    def update(self) -> np.ndarray:
        """Blurred points ``sum_j g_ij y_j / sum_j g_ij``.

        The numerator is summed one j at a time in ascending order from
        ``+0.0``, for every coordinate and every d:
        ``((0.0 + g_i0 y_0) + g_i1 y_1) + ...``.
        The weight matrix is exactly symmetric, so column i holds row i's
        weights, and each column block is reduced over axis 0.  The
        denominator is numpy's row sum ``sum(axis=1)``.

        Raises ``ValueError`` when a point's weights sum to zero, which a
        kernel with ``g(0) = 0`` gives a point or a group of coincident
        points with no other point at nonzero weight.
        """
        w = self.weights
        den = w.sum(axis=1)
        empty = np.flatnonzero(den == 0.0)
        if empty.size:
            raise ValueError(
                f"point {empty[0]} has zero total weight under kernel "
                f"{self.kernel.id!r}: its g(0) = {self.kernel.g0!r} leaves a "
                f"point or a group of coincident points with no other point at "
                f"nonzero weight, so its blurred position would be 0/0"
            )
        y = self.cfg.points
        num = np.empty_like(y)
        for cols in _column_blocks(self.n):
            block = w[:, cols]
            for k in range(self.cfg.d):
                num[cols, k] = (block * y[:, k, None]).sum(axis=0)
        return num / den[:, None]

    def moments(self) -> np.ndarray:
        """Weighted difference sums ``sum_j (y_i - y_j) g_ij``, one row per point.

        Summed one j at a time in ascending order, like the update's
        numerator, from the pairwise differences, so that a singular
        configuration (every joined pair coincident) gives exactly zero.
        """
        y = self.cfg.points
        w = self.weights
        out = np.empty_like(y)
        for cols in _column_blocks(self.n):
            block = w[:, cols]
            for k in range(self.cfg.d):
                out[cols, k] = (block * (y[None, cols, k] - y[:, k, None])).sum(axis=0)
        return out

    def gradient(self) -> np.ndarray:
        """Objective gradient: block ``i`` is ``-(2/h^2) sum_j (y_i - y_j) g_ij``."""
        return (-2.0 / (self.h * self.h)) * self.moments()

    def is_fixed_point(self, tol: float) -> bool:
        """Whether every moment has norm at most ``tol``: no point would move."""
        return bool(np.all(np.linalg.norm(self.moments(), axis=1) <= tol))

    def minorizer_gap(self, cfg_next) -> float:
        """Surrogate improvement ``(1/(2 h^2)) * (sum_ij g_ij ||y_i - y_j||^2
        - sum_ij g_ij ||y'_i - y'_j||^2)`` of ``cfg_next`` with these
        weights; needs ``keep_sqdist``."""
        w = self.weights
        before = float(np.sum(w * self.sqdist))
        after = float(np.sum(w * pairwise_sqdist(as_configuration(cfg_next).points)))
        return (before - after) / (2.0 * self.h * self.h)
