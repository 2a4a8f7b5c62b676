"""Per-iteration geometry diagnostics and empirical convergence-order fits."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _pairwise
from .config import as_configuration
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


def directional_extents(cfg, direction) -> tuple[float, float]:
    """Smallest and largest projection of the points onto a unit direction."""
    cfg = as_configuration(cfg)
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    proj = cfg.points @ direction
    return float(proj.min()), float(proj.max())


def direction_set(d: int, count: int = 256, seed: int = DEFAULT_DIRECTION_SEED) -> np.ndarray:
    """A fixed, seeded set of unit directions in R^d (reproducible checks)."""
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
    """Largest intra-component pairwise distance over a partition."""
    return _pairwise.component_diameter(as_configuration(cfg).points, components)


def diam_rate_check(d_t: float, d_t1: float, kernel: KernelSpec, h: float,
                    rel_slack: float = 1e-10, abs_slack: float = 0.0) -> bool:
    """Check the per-step diameter contraction bound.

    Requires ``d_{t+1} <= (1 - g((d_t/h)^2/2) / (4 g(0))) * d_t`` up to the
    slack.  Apply to the full configuration, or per component with the
    component diameter when the graph is closed.

    ``abs_slack`` absorbs the floating-point drift of one update: the
    computed points deviate from their exact-arithmetic images by about
    ``eps *`` (coordinate magnitude), so for configurations collapsed far
    below the coordinate scale a purely relative slack is unattainable in
    doubles.  Pass :func:`float_step_allowance` of the coordinate scale.
    """
    if not d_t > 0:
        raise ValueError("d_t must be positive")
    factor = 1.0 - float(kernel.g((d_t / h) ** 2 / 2.0)) / (4.0 * kernel.g0)
    return d_t1 <= factor * d_t + rel_slack * d_t + abs_slack


def float_step_allowance(coord_scale: float) -> float:
    """Absolute slack covering one update's floating-point position drift."""
    return 64.0 * np.finfo(float).eps * (1.0 + abs(coord_scale))


def interval_nesting_violation(cfg_prev, cfg_next, directions: np.ndarray) -> float:
    """Worst amount by which projection intervals fail to nest.

    For each direction ``u`` the interval ``[min u.y, max u.y]`` of the next
    configuration must lie inside the previous one; the return value is the
    largest overshoot (0.0 when nesting holds exactly).
    """
    prev = as_configuration(cfg_prev).points @ directions.T
    nxt = as_configuration(cfg_next).points @ directions.T
    low = np.max(prev.min(axis=0) - nxt.min(axis=0), initial=0.0)
    high = np.max(nxt.max(axis=0) - prev.max(axis=0), initial=0.0)
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
    """
    res = np.asarray(residuals, dtype=float)
    if res.ndim != 1:
        raise ValueError("residuals must be a 1-D sequence")
    if np.any(res < 0):
        raise ValueError("residuals must be non-negative")

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
