"""Blurring mean shift updates, the configuration objective, and the driver.

The blurring update replaces every point by the weighted mean of the
current points, with weights ``g_ij = g(||y_i - y_j||^2 / (2 h^2))``
including the self term (``g(0) > 0``), so denominators never vanish:

    y'_i = sum_j g_ij y_j / sum_j g_ij

Iterating this is coordinate-wise gradient ascent on the pairwise kernel
sum ``L`` with per-point step sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._pairwise import PairwiseState
from .config import Configuration, as_configuration, check_bandwidth
from .kernels import KernelSpec

__all__ = [
    "Configuration",
    "IterationRecord",
    "StopRule",
    "BmsRun",
    "IsolatedQueryError",
    "GradientResult",
    "STOP_EXACT_FIXED_POINT",
    "STOP_MOVE_TOL",
    "STOP_MAX_ITER",
    "bms_step",
    "ms_step",
    "objective",
    "gradient",
    "minorizer_gap",
    "run_bms",
]

STOP_EXACT_FIXED_POINT = "exact_fixed_point"
STOP_MOVE_TOL = "move_tol"
STOP_MAX_ITER = "max_iter"


class IsolatedQueryError(ValueError):
    """A query point carries zero weight against every data point."""


def bms_step(cfg, kernel: KernelSpec, h: float) -> Configuration:
    """One blurring update of the whole configuration.

    Each new point is a convex combination of the current points of its own
    graph component, so component hulls never grow.

    The numerator ``sum_j g_ij y_j`` is summed one j at a time in ascending
    order, for every coordinate and every d, rather than by a BLAS matmul:
    points with identical weight rows then land on bitwise-identical
    outputs.  That makes collapsed groups exactly coincident and lets
    flat-weight truncated kernels reach bit-exact fixed points (it also
    keeps results independent of the BLAS backend and its threading).  The
    denominator is numpy's row sum.

    Raises ``ValueError`` when a point's weights sum to zero (a kernel with
    ``g(0) = 0``, such as ``tricube``, and no other point at nonzero weight).
    """
    return Configuration.from_points(PairwiseState(cfg, kernel, h).update())


def ms_step(query, data, kernel: KernelSpec, h: float) -> np.ndarray:
    """One mean shift step of a query point against fixed data points."""
    h = check_bandwidth(h)
    data = as_configuration(data)
    query = np.asarray(query, dtype=float).reshape(-1)
    if query.shape[0] != data.d:
        raise ValueError(f"query has dimension {query.shape[0]}, data has {data.d}")
    diff = query[None, :] - data.points
    w = kernel.g(np.einsum("ij,ij->i", diff, diff) / (2.0 * h * h))
    total = w.sum()
    if total == 0.0:
        raise IsolatedQueryError("query is beyond the kernel support of every data point")
    return (w @ data.points) / total


def objective(cfg, kernel: KernelSpec, h: float) -> float:
    """Pairwise kernel sum ``L = sum_{i,j} k(||u_i - u_j||^2 / (2h^2))``.

    Self terms are included, so ``L = 2 * sum_{i<j} k(.) + n * k(0)``; the
    value is reported in unnormalized profile units.
    """
    return PairwiseState(cfg, kernel, h).objective


class GradientResult(NamedTuple):
    """Objective gradient blocks plus a non-smoothness flag.

    ``grad`` has shape (n, d): row ``i`` is the derivative of the objective
    with respect to point ``i``.  ``nonsmooth_boundary`` is set when some
    pair sits exactly at the truncation radius of a non-smoothly truncated
    kernel; the value is then computed with the left-derivative weight
    selection rather than raising.
    """

    grad: np.ndarray
    nonsmooth_boundary: bool


def gradient(cfg, kernel: KernelSpec, h: float) -> GradientResult:
    """Gradient of the objective: block ``i`` is ``-(2/h^2) sum_j (u_i - u_j) g_ij``.

    Computed from pairwise differences so that fixed-point configurations
    (every joined pair coincident) give an exactly zero gradient.
    """
    state = PairwiseState(cfg, kernel, h)
    return GradientResult(state.gradient(), state.boundary_hit)


def minorizer_gap(cfg_next, cfg, kernel: KernelSpec, h: float) -> float:
    """Improvement of the quadratic surrogate anchored at ``cfg``.

    Returns ``(1/(2 h^2)) * (sum_ij g_ij ||y_i - y_j||^2
    - sum_ij g_ij ||y'_i - y'_j||^2)`` with weights taken at ``cfg``.
    When ``cfg_next`` is the blurring update of ``cfg`` this is at least
    ``(2 g(0) / h^2) * ||y' - y||^2``, and the objective gain is at least
    this gap.
    """
    cfg = as_configuration(cfg)
    cfg_next = as_configuration(cfg_next)
    if cfg_next.points.shape != cfg.points.shape:
        raise ValueError(
            f"shape mismatch: {cfg_next.points.shape} vs {cfg.points.shape}"
        )
    return PairwiseState(cfg, kernel, h, keep_sqdist=True).minorizer_gap(cfg_next)


@dataclass(frozen=True)
class IterationRecord:
    """Diagnostics of one iteration, evaluated at the pre-step configuration.

    ``max_move`` is the largest single-point displacement of the step taken
    from this configuration; the graph flags describe the graph the step
    was computed on.
    """

    t: int
    objective: float
    diameter: float
    comp_diameter: float
    max_move: float
    n_components: int
    closed: bool
    singular: bool
    stable: bool


@dataclass(frozen=True)
class StopRule:
    """Termination policy for the iteration driver.

    ``exact_fixed_point`` stops when an update returns the configuration
    bit-identically (reachable in floating point for flat-weight truncated
    kernels).  ``move_tol`` stops when the largest point move falls below
    the threshold; ``None`` resolves to ``1e-12 *`` (initial diameter) at
    run start, and ``0.0`` disables the test.
    """

    max_iter: int = 10_000
    exact_fixed_point: bool = True
    move_tol: float | None = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.move_tol is not None and self.move_tol < 0:
            raise ValueError("move_tol must be non-negative")


@dataclass(frozen=True)
class BmsRun:
    """Result of an iteration run: final state, trace, and stop reason."""

    final: Configuration
    records: list[IterationRecord]
    stop_reason: str

    @property
    def T(self) -> int:
        return self.records[-1].t if self.records else 0


def run_bms(cfg0, kernel: KernelSpec, h: float, stop: StopRule | None = None,
            sink: Callable[[IterationRecord], None] | None = None,
            keep_records: bool = True) -> BmsRun:
    """Iterate the blurring update from ``cfg0`` until a stop rule fires.

    One record per iteration is passed to ``sink`` (when given) and
    collected in the returned run unless ``keep_records`` is false, so long
    runs can stream their trace without buffering.

    Every record field comes from one :class:`PairwiseState` per iteration;
    the public per-layer functions wrap the same state, so a record rebuilt
    from them is bitwise equal to the one produced here.
    """
    state = PairwiseState(cfg0, kernel, h)
    cfg = state.cfg
    if stop is None:
        stop = StopRule()
    move_tol = stop.move_tol
    if move_tol is None:
        move_tol = 1e-12 * state.diameter

    records: list[IterationRecord] = []
    stop_reason = STOP_MAX_ITER
    for t in range(1, stop.max_iter + 1):
        if state is None:
            state = PairwiseState(cfg, kernel, h)
        nxt = Configuration.from_points(state.update())
        max_move = float(np.max(np.linalg.norm(nxt.points - cfg.points, axis=1)))
        record = IterationRecord(
            t=t,
            objective=state.objective,
            diameter=state.diameter,
            comp_diameter=state.component_diameter,
            max_move=max_move,
            n_components=state.M,
            closed=state.closed,
            singular=state.singular,
            stable=state.stable(),
        )
        # drop this step's n x n arrays before the next state allocates its own
        state = None
        if sink is not None:
            sink(record)
        if keep_records:
            records.append(record)

        if stop.exact_fixed_point and np.array_equal(nxt.points, cfg.points):
            stop_reason = STOP_EXACT_FIXED_POINT
            cfg = nxt
            break
        cfg = nxt
        if max_move < move_tol:
            stop_reason = STOP_MOVE_TOL
            break

    return BmsRun(cfg, records, stop_reason)
