"""Blurring mean shift updates, the configuration objective, and the driver.

The blurring update replaces every point by the weighted mean of the
current points, with weights ``g_ij = g(||y_i - y_j||^2 / (2 h^2))``
including the self term (``g(0) > 0``), so denominators never vanish:

    y'_i = sum_j g_ij y_j / sum_j g_ij

Iterating this is coordinate-wise gradient ascent on the pairwise kernel
sum ``L`` with per-point step sizes.
"""

from __future__ import annotations

import logging
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ._pairwise import PairwiseState
from .config import (
    Configuration,
    as_configuration,
    check_bandwidth,
    pairwise_sqdist,
    profile_args,
)
from .kernels import KernelSpec, TruncationClass

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

# silent unless the application configures logging; _iterate logs a start
# and a stop summary of every run at DEBUG
log = logging.getLogger("blurshift")

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
    order from ``+0.0``, for every coordinate and every d, rather than by a
    BLAS matmul: points with identical weight rows then land on
    bitwise-identical outputs.  That makes collapsed groups exactly
    coincident and lets flat-weight truncated kernels reach bit-exact fixed
    points (it also keeps results independent of the BLAS backend and its
    threading).  The denominator ``sum_j g_ij`` is summed the same way; the
    zero weights of a truncated kernel's unjoined pairs leave both sums
    unchanged.

    Raises ``ValueError`` when a point's weights sum to zero (a kernel with
    ``g(0) = 0``, such as ``tricube``, and no other point at nonzero weight),
    and when the sums overflow to inf.
    """
    state, rows = _blurred(cfg, kernel, h, {"update"}, None, "the blurred update")
    return Configuration.from_points(state.distinct.expand(rows))


def _blurred(cfg, kernel: KernelSpec, h: float, reads, distinct,
             what: str) -> tuple[PairwiseState, np.ndarray]:
    """The pairwise state of ``cfg`` and its blurred distinct rows
    (:meth:`PairwiseState.update_rows`); an update whose sums overflow to
    inf raises ``ValueError`` naming ``what``, not numpy's overflow
    warning."""
    with np.errstate(over="ignore"):  # an overflow raises by name just below
        state = PairwiseState(cfg, kernel, h, reads, distinct)
        rows = state.update_rows()
    if not np.isfinite(rows).all():
        raise ValueError(f"{what} overflows double precision; "
                         "rescale the points and the bandwidth")
    return state, rows


def ms_step(query, data, kernel: KernelSpec, h: float) -> np.ndarray:
    """One mean shift step of a query point against fixed data points.

    The squared distances keep ``pairwise_sqdist``'s coordinate order, and
    the numerator ``sum_j w_j y_j`` and the denominator ``sum_j w_j`` are
    summed one j at a time in ascending order from ``+0.0`` rather than by
    BLAS, so the result does not depend on the BLAS kernel.
    """
    h = check_bandwidth(h)
    data = as_configuration(data)
    query = np.asarray(query, dtype=float).reshape(-1)
    if not np.all(np.isfinite(query)):
        raise ValueError(f"query must be finite, got {query.tolist()}")
    if query.shape[0] != data.d:
        raise ValueError(f"query has dimension {query.shape[0]}, data has {data.d}")
    w = kernel.g(profile_args(pairwise_sqdist(query[None, :], data.points)[0], h))
    terms = np.empty((data.n, data.d + 1))
    np.multiply(w[:, None], data.points, out=terms[:, :-1])
    terms[:, -1] = w
    # accumulate adds one j at a time in every column, a lone one included;
    # the trailing + 0.0 stands for the +0.0 start
    sums = np.cumsum(terms, axis=0)[-1] + 0.0
    if sums[-1] == 0.0:
        raise IsolatedQueryError("query is beyond the kernel support of every data point")
    return sums[:-1] / sums[-1]


def objective(cfg, kernel: KernelSpec, h: float) -> float:
    """Pairwise kernel sum ``L = sum_{i,j} k(||u_i - u_j||^2 / (2h^2))``.

    Self terms are included, so ``L = 2 * sum_{i<j} k(.) + n * k(0)``; the
    value is reported in unnormalized profile units.  Each row is summed
    in ascending j, then the rows in ascending i, all from ``+0.0``; a
    truncated kernel sums a row over its pairs in support only.
    """
    return PairwiseState(cfg, kernel, h, {"objective"}).objective


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
    # the boundary hit comes from the margin's pass, and only a non-smoothly
    # truncated kernel's pair can hit the boundary
    nonsmooth = kernel.truncation is TruncationClass.NON_SMOOTHLY_TRUNCATED
    state = PairwiseState(cfg, kernel, h, {"moments", "margin"} if nonsmooth else {"moments"})
    return GradientResult(state.gradient(), state.boundary_hit)


def minorizer_gap(cfg_next, cfg, kernel: KernelSpec, h: float) -> float:
    """Improvement of the quadratic surrogate anchored at ``cfg``.

    Returns ``(1/(2 h^2)) * (sum_ij g_ij ||y_i - y_j||^2
    - sum_ij g_ij ||y'_i - y'_j||^2)`` with weights taken at ``cfg``.
    When ``cfg_next`` is the blurring update of ``cfg`` this is at least
    ``(2 g(0) / h^2) * ||y' - y||^2``, and the objective gain is at least
    this gap.  Each of the two terms is summed like the objective (rows in
    ascending j, then the rows in ascending i), both in one pass, from the
    same distances and weights computed chunk by chunk, whatever the kernel.
    """
    cfg = as_configuration(cfg)
    cfg_next = as_configuration(cfg_next)
    if cfg_next.points.shape != cfg.points.shape:
        raise ValueError(
            f"shape mismatch: {cfg_next.points.shape} vs {cfg.points.shape}"
        )
    return PairwiseState(cfg, kernel, h).minorizer_gap(cfg_next)


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
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.move_tol is not None and not self.move_tol >= 0:
            raise ValueError(f"move_tol must be non-negative, got {self.move_tol}")


@dataclass(frozen=True)
class BmsRun:
    """Result of an iteration run: final state, stop reason, step count, the
    diameter of the starting configuration and the records.

    ``records`` holds the :class:`IterationRecord` of each step that the run
    handed to its ``sink``, in step order.  It is ``None`` when the run kept
    none: it had no sink, or ``keep_records`` was false (see
    :func:`run_bms`).
    """

    final: Configuration
    stop_reason: str
    T: int
    initial_diameter: float
    records: list[IterationRecord] | None = field(repr=False, compare=False)


def _iterate(cfg0, kernel: KernelSpec, h: float, stop: StopRule | None,
             on_step: Callable[[int, PairwiseState, Configuration, float], None],
             reads=frozenset()) -> tuple[Configuration, str, int]:
    """The iteration loop and its stop rule; returns ``(final, stop_reason, T)``.

    Step ``t`` calls ``on_step(t, state, nxt, max_move)`` with the pairwise
    state of the current configuration, its blurred image and the largest
    point move; ``T`` is the number of steps.  Observers must not keep the
    state: it is released before the next one is built.  ``reads`` names
    what ``on_step`` reads beyond the update, which the loop always reads,
    and the initial diameter, which step 1 always reads (``"diameter"``,
    ``"singular"``, ``"objective"``, ``"margin"``, ``"stable"``,
    ``"labels"``, ``"closed"``, ``"moments"``; see :class:`PairwiseState`),
    so that the state computes it in its constructor's pass and nothing
    else, instead of running that pass again for each value read; it moves
    no bit.  The minorizer gap is not declared: ``minorizer_gap`` sums
    both of its terms in one pass of its own.

    Coincident points blur alike, so each step after the first is handed
    the grouping of its points (:meth:`DistinctRows.after`, from the a
    blurred rows), and the move and the fixed-point test run over the a
    rows.  A blurred update that overflows to inf raises ``ValueError``
    naming its step.  The ``blurshift`` logger gets a start and a stop
    summary at DEBUG.
    """
    if stop is None:
        stop = StopRule()
    cfg = as_configuration(cfg0)
    log.debug("start: n=%d d=%d kernel=%s h=%r", cfg.n, cfg.d, kernel.id, h)
    started = time.perf_counter()
    move_tol = stop.move_tol
    result = None
    reads = frozenset({"update", *reads})
    distinct = None  # step 1 groups its points
    for t in range(1, stop.max_iter + 1):
        state, rows = _blurred(cfg, kernel, h, reads | {"diameter"} if t == 1 else reads,
                               distinct, f"the blurred update of step {t}")
        if move_tol is None:  # 1e-12 x the initial diameter
            move_tol = 1e-12 * state.diameter
        distinct = state.distinct
        # a new array of finite rows, as from_points would copy it
        points = distinct.expand(rows)
        points.setflags(write=False)
        nxt = Configuration(points)
        # each point moves as its distinct row does (np.linalg.norm's
        # formula for axis=1, without its wrapper)
        moved = rows - distinct.rows
        max_move = float(np.max(np.sqrt(np.add.reduce(moved * moved, axis=1))))
        # finite x - y is 0 exactly when x == y; a subnormal move's square is
        # 0.0, so max_move cannot tell
        fixed = stop.exact_fixed_point and not moved.any()
        del rows, moved  # off the observer's peak
        on_step(t, state, nxt, max_move)
        # drop this step's arrays before the next state allocates its own
        state = None
        if fixed:
            result = (nxt, STOP_EXACT_FIXED_POINT, t)
            break
        cfg = nxt
        if max_move < move_tol:
            result = (cfg, STOP_MOVE_TOL, t)
            break
        # built after the state is released, so that its temporaries do not
        # add to the state's peak
        distinct = distinct.after(cfg.points)
    if result is None:
        result = (cfg, STOP_MAX_ITER, stop.max_iter)
    log.debug("stop: n=%d d=%d kernel=%s h=%r T=%d stop=%s wall=%.6fs", cfg.n, cfg.d,
              kernel.id, h, result[2], result[1], time.perf_counter() - started)
    return result


# what a record reads of each state beyond the update: the margin test at
# its default tolerance (stable), not the margin itself, and the components
# with their degrees (closed), which the component diameter reads too
_RECORD_READS = frozenset({"diameter", "singular", "objective", "stable", "closed"})


def _record(t: int, state: PairwiseState, max_move: float) -> IterationRecord:
    return IterationRecord(
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


def run_bms(cfg0, kernel: KernelSpec, h: float, stop: StopRule | None = None,
            sink: Callable[[IterationRecord], None] | None = None,
            keep_records: bool = True) -> BmsRun:
    """Iterate the blurring update from ``cfg0`` until a stop rule fires.

    With a ``sink``, one record per iteration is built from the step's own
    pairwise state and passed to it as the run goes, and kept in the
    returned run's ``records`` unless ``keep_records`` is false, so long
    runs can stream their trace without buffering.  Without one, the run
    builds no record, which makes it cheaper: a state computes only the
    update, and the first one also the initial diameter; no later one finds
    a largest distance or joined distance, and each is handed the grouping
    of its points by the step before, from the blurred distinct positions,
    instead of grouping its n points.  ``records`` is ``None`` whenever the
    run kept none; ``initial_diameter`` is kept either way.

    Every record field comes from one :class:`PairwiseState` per iteration;
    the public per-layer functions wrap the same state, so a record rebuilt
    from them is bitwise equal to the one produced here.
    """
    kept = [] if sink is not None and keep_records else None
    initial = []

    def on_step(t, state, nxt, max_move):
        if t == 1:
            initial.append(state.diameter)
        if sink is not None:
            record = _record(t, state, max_move)
            sink(record)
            if kept is not None:
                kept.append(record)

    final, stop_reason, T = _iterate(cfg0, kernel, h, stop, on_step,
                                     frozenset() if sink is None else _RECORD_READS)
    return BmsRun(final, stop_reason, T, initial[0], kept)
