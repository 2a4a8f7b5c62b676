"""Per-iteration geometry diagnostics and empirical convergence-order fits."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _pairwise
from .config import as_configuration, check_count, real_array
from .kernels import KernelSpec

__all__ = [
    "DEFAULT_DIRECTION_SEED",
    "directional_extents",
    "direction_set",
    "diameter",
    "component_diameter",
    "diam_rate_check",
    "float_step_allowance",
    "interval_nesting_violation",
    "residual_floor",
    "RateClass",
    "RateEstimate",
    "estimate_rate",
]

DEFAULT_DIRECTION_SEED = 0x5EED


def _extents(points: np.ndarray, directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest projection of the (a, d) points onto each row of
    the (m, d) ``directions``, from row blocks of the points.

    Each projection is summed over the coordinates one at a time in
    ascending order, ``((y_0 u_0 + y_1 u_1) + ...)``, rather than by a BLAS
    matmul, whose order (and so whose bits) depends on the BLAS kernel.
    The products take each coordinate of the directions from a contiguous
    (d, m) copy of their transpose: at a = 260, d = 2 and m = 256, a call
    took 90 us against 105 us from the strided columns of the (m, d) array
    (2-CPU x86-64 VM, numpy 2.4).  Where the rows of a block hold at least
    ``_pairwise._UNBUFFERED_ROW`` projections (m directions: 256 in
    ``run_verify``), the products run with no broadcast operand buffered
    (``_pairwise._unbuffered``), each element the same product and sum, and
    the minima and maxima outside that scope: on a 2-CPU Intel Xeon VM
    (numpy 2.4.6), where the buffered call took 237-266 us at a = 260, d = 2
    and m = 256, it then took 168-209 us, and peaked at 273 KB against
    404 KB (tracemalloc).
    """
    dirs = np.ascontiguousarray(directions.T)
    low = np.full(directions.shape[0], np.inf)
    high = np.full(directions.shape[0], -np.inf)
    for rows in _pairwise._row_blocks(points.shape[0], directions.shape[0]):
        with _pairwise._unbuffered(dirs.shape[1]):
            proj = np.multiply.outer(points[rows, 0], dirs[0])
            for k in range(1, points.shape[1]):
                proj += np.multiply.outer(points[rows, k], dirs[k])
        np.minimum(low, proj.min(axis=0), out=low)
        np.maximum(high, proj.max(axis=0), out=high)
    return low, high


def _check_directions(name: str, directions: np.ndarray, ndim: int, d: int) -> None:
    # a projection reads the first d coordinates of a direction, so a wider
    # or narrower one would give a plausible wrong extent or a bare numpy
    # IndexError: raises ValueError naming both widths unless ``directions``
    # has ``ndim`` axes, at least one direction and width d, and naming the
    # first entry that is not finite
    if directions.ndim != ndim or directions.shape[-1] != d or directions.size == 0:
        shape = f"({d},)" if ndim == 1 else f"(m, {d}) with m >= 1"
        raise ValueError(f"{name} must have shape {shape} for points in R^{d}, "
                         f"got shape {directions.shape}")
    if not np.all(np.isfinite(directions)):
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(directions))[0])
        raise ValueError(f"{name} must be finite, got {directions[at]} at index {at}")


def directional_extents(cfg, direction) -> tuple[float, float]:
    """Smallest and largest projection of the points onto a unit direction
    (summed over coordinates in ascending order).

    Raises ``ValueError`` for a direction that is not a finite unit vector
    of the points' dimension d.
    """
    cfg = as_configuration(cfg)
    direction = real_array(direction)
    _check_directions("direction", direction, 1, cfg.d)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    low, high = _extents(cfg.points, direction[None, :])
    return float(low[0]), float(high[0])


def direction_set(d: int, count: int = 256, seed: int = DEFAULT_DIRECTION_SEED) -> np.ndarray:
    """A fixed, seeded set of unit directions in R^d (reproducible checks).

    Raises ``ValueError`` naming the argument for a ``d`` or ``count`` that
    is not an integer of at least 1.
    """
    check_count("d", d, 1)
    check_count("direction count", count, 1)
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((count, d))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    # resample the (measure-zero) degenerate rows rather than dividing by ~0
    while np.any(norms < 1e-12):
        bad = norms[:, 0] < 1e-12
        vecs[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs / norms


def diameter(cfg) -> float:
    """Largest pairwise distance of the configuration.

    For a finite point set this equals the largest directional width (the
    width in the maximizing direction is attained by a point pair), so the
    exact O(n^2) pair scan is used instead of direction sampling.  Raises
    ``ValueError`` when the squared distance overflows double precision.
    """
    return math.sqrt(_pairwise.max_sqdist(as_configuration(cfg).points))


def component_diameter(cfg, components: Sequence[np.ndarray]) -> float:
    """Largest intra-component pairwise distance over a partition.

    Raises ``ValueError`` for an empty list of components, which partitions
    no configuration.
    """
    points = as_configuration(cfg).points
    if not len(components):
        raise ValueError("components is empty: a partition of the points has "
                         "at least one component")
    members = np.concatenate([np.asarray(c, dtype=np.intp) for c in components])
    groups = np.repeat(np.arange(len(components)), [len(c) for c in components])
    # each component's distinct positions: a row is its point and its group
    rows = _pairwise.DistinctRows(np.column_stack([points.take(members, axis=0), groups])).rows
    return _pairwise.component_diameter(rows[:, :-1], rows[:, -1])


def diam_rate_check(d_t: float, d_t1: float, kernel: KernelSpec, h: float,
                    rel_slack: float = 1e-10, abs_slack: float = 0.0) -> bool:
    """Check the per-step diameter contraction bound.

    Requires ``d_{t+1} <= (1 - g((d_t/h)^2/2) / (4 g(0))) * d_t`` up to the
    slack.  Raises ``ValueError`` for a kernel with ``g(0) <= 0``.  Apply
    to the full configuration, or per component with the
    component diameter when the graph is closed.

    ``abs_slack`` absorbs the floating-point drift of one update: the
    computed points deviate from their exact-arithmetic images by about
    ``eps *`` (coordinate magnitude), so for configurations collapsed far
    below the coordinate scale a purely relative slack is unattainable in
    doubles.  Pass :func:`float_step_allowance` of the coordinate scale.
    """
    if not d_t > 0:
        raise ValueError("d_t must be positive")
    _require_positive_g0(kernel)
    factor = _contraction_factor(d_t, kernel, h)
    return d_t1 <= factor * d_t + rel_slack * d_t + abs_slack


def _require_positive_g0(kernel: KernelSpec) -> None:
    """Raise ``ValueError`` unless ``g(0) > 0``: the diameter contraction
    factor and the verify constants divide by it (tricube has g(0) = 0)."""
    if not kernel.g0 > 0:
        raise ValueError(
            f"kernel {kernel.id!r} has g(0) = {kernel.g0!r}; the contraction and "
            f"verify constants divide by g(0), so they need g(0) > 0"
        )


def _contraction_factor(d_t: float, kernel: KernelSpec, h: float) -> float:
    # the per-step diameter contraction factor 1 - g((d_t/h)^2/2) / (4 g(0))
    return 1.0 - float(kernel.g((d_t / h) ** 2 / 2.0)) / (4.0 * kernel.g0)


def float_step_allowance(coord_scale: float) -> float:
    """Absolute slack covering one update's floating-point position drift."""
    return 64.0 * np.finfo(float).eps * (1.0 + abs(coord_scale))


def interval_nesting_violation(cfg_prev, cfg_next, directions: np.ndarray) -> float:
    """Worst amount by which projection intervals fail to nest.

    For each direction ``u`` the interval ``[min u.y, max u.y]`` of the next
    configuration must lie inside the previous one; the return value is the
    largest overshoot (0.0 when nesting holds exactly).  Projections are
    summed over coordinates in ascending order, so the value does not
    depend on the BLAS kernel.

    Raises ``ValueError`` for two configurations of different dimensions,
    and for ``directions`` that are not a finite (m, d) array of at least
    one direction in the configurations' dimension d.
    """
    prev = as_configuration(cfg_prev).points
    nxt = as_configuration(cfg_next).points
    if prev.shape[1] != nxt.shape[1]:
        raise ValueError(f"the configurations lie in R^{prev.shape[1]} and R^{nxt.shape[1]}; "
                         "their intervals nest only in one dimension")
    directions = real_array(directions)
    _check_directions("directions", directions, 2, prev.shape[1])
    return _nesting_overshoot(_extents(prev, directions), _extents(nxt, directions))


def _nesting_overshoot(prev: tuple[np.ndarray, np.ndarray],
                       nxt: tuple[np.ndarray, np.ndarray]) -> float:
    # largest amount by which the (low, high) extents of nxt leave those of
    # prev, 0.0 when they nest
    low = np.max(prev[0] - nxt[0], initial=0.0)
    high = np.max(nxt[1] - prev[1], initial=0.0)
    return float(max(low, high))


def residual_floor(initial_diameter: float) -> float:
    """Noise floor below which residuals are float quantization artifacts."""
    return 1e3 * np.finfo(float).eps * initial_diameter


class RateClass(enum.Enum):
    FINITE_TIME = "finite_time"
    EXPONENTIAL = "exponential"
    SUPERLINEAR_CUBIC = "superlinear_cubic"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RateEstimate:
    """Fitted local order ``p`` of a residual sequence with a coarse label.

    ``order`` is the least-squares slope of ``log r_{t+1}`` against
    ``log r_t`` and is reported only when at least 3 usable pairs exist.
    """

    order: float | None
    classification: RateClass
    samples_used: int


def estimate_rate(residuals, floor: float) -> RateEstimate:
    """Classify the decay of a residual sequence.

    A drop to exactly zero from above the noise floor marks finite-time
    convergence.  Otherwise the order ``p`` in ``r_{t+1} ~ C r_t^p`` is
    fitted over pairs whose left member exceeds ``floor``; ``p`` in
    [2.5, 3.5] is labelled cubic, ``p`` in [0.8, 1.2] with shrinking
    residuals exponential, anything else inconclusive.

    Raises ``ValueError`` for a residual that is negative, NaN or infinite
    and for a negative or NaN ``floor``.
    """
    res = np.asarray(residuals, dtype=float)
    if res.ndim != 1:
        raise ValueError("residuals must be a 1-D sequence")
    if not np.all(np.isfinite(res)):
        raise ValueError("residuals must be finite")
    if np.any(res < 0):
        raise ValueError("residuals must be non-negative")
    if not floor >= 0:
        raise ValueError(f"floor must be non-negative, got {floor}")

    hit_zero = (res[1:] == 0.0) & (res[:-1] > floor)
    if np.any(hit_zero):
        return RateEstimate(None, RateClass.FINITE_TIME, 0)

    usable = (res[:-1] > floor) & (res[1:] > 0.0)
    x = np.log(res[:-1][usable])
    y = np.log(res[1:][usable])
    count = int(usable.sum())
    if count < 3:
        return RateEstimate(None, RateClass.INCONCLUSIVE, count)

    xc = x - x.mean()
    var_x = float(np.dot(xc, xc))
    if var_x == 0.0:  # stalled sequence, no order to fit
        return RateEstimate(None, RateClass.INCONCLUSIVE, count)
    order = float(np.dot(xc, y - y.mean()) / var_x)
    if 2.5 <= order <= 3.5:
        cls = RateClass.SUPERLINEAR_CUBIC
    elif 0.8 <= order <= 1.2 and np.all(res[1:][usable] < res[:-1][usable]):
        cls = RateClass.EXPONENTIAL
    else:
        cls = RateClass.INCONCLUSIVE
    return RateEstimate(order, cls, count)
