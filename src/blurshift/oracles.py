"""Closed-form reference dynamics used as independent ground truth.

Two scalar recurrences are implemented: the shrinkage of a regular simplex
of points under the blurring update (the whole configuration stays a
regular simplex, so one radius describes it), and the variance recurrence
of a Gaussian population blurred with a Gaussian kernel,
``s' = s^3 / (s^2 + h^2)`` per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import Configuration, check_bandwidth, check_count
from .diagnostics import residual_floor
from .engine import bms_step
from .kernels import KernelSpec

__all__ = [
    "SimplexState",
    "simplex_vertices",
    "simplex_recurrence_step",
    "simplex_radius_sequence",
    "population_recurrence_step",
    "population_sequence",
    "OracleComparison",
    "compare_sim_to_oracle",
]


@dataclass(frozen=True)
class SimplexState:
    """A regular (n-1)-simplex configuration summarized by its radius.

    ``r`` is the stacked norm of the centered configuration; the common
    pairwise distance is ``sqrt(2/(n-1)) * r``.
    """

    n: int
    d: int
    r: float
    h: float


def simplex_vertices(n: int, d: int, r: float) -> Configuration:
    """Vertices of a regular (n-1)-simplex centered at the origin in R^d.

    The configuration is scaled so its stacked norm is ``r``; the first
    vertex lies on the positive first axis at ``r / sqrt(n)``.  Built by
    orthonormalizing the centered standard-basis vertices of R^n and
    embedding the resulting (n-1)-dimensional coordinates into R^d.
    """
    if n < 2:
        raise ValueError("a simplex needs at least 2 vertices")
    if n > d + 1:
        raise ValueError(f"cannot embed {n} affinely independent points in R^{d}")
    if not r > 0:
        raise ValueError("r must be positive")
    centered = np.eye(n) - 1.0 / n
    q, rr = np.linalg.qr(centered[:, : n - 1])
    signs = np.sign(np.diag(rr))
    signs[signs == 0] = 1.0
    coords = centered @ (q * signs)  # (n, n-1), first vertex on axis 0
    points = np.zeros((n, d))
    points[:, : n - 1] = coords * (r / math.sqrt(n - 1.0))
    return Configuration.from_points(points)


def _check_simplex(n, h) -> float:
    # check_bandwidth(h), after a ValueError naming an n that is not an
    # integer >= 2
    check_count("n", n, 2)
    return check_bandwidth(h)


def _shrink_factor(kernel: KernelSpec, n: int, r: float, h: float) -> float:
    gv = float(kernel.g((r / h) ** 2 / (n - 1)))
    return (kernel.g0 - gv) / (kernel.g0 + (n - 1) * gv)


def simplex_recurrence_step(state: SimplexState, kernel: KernelSpec) -> SimplexState:
    """One step of the scalar radius recurrence.

    ``r' = (g(0) - g(u)) / (g(0) + (n-1) g(u)) * r`` with
    ``u = (r/h)^2 / (n-1)``.  The radius shrinks whenever ``g(u) > 0`` and
    is unchanged when the vertices are beyond the joining radius.  Raises
    ``ValueError`` for fewer than 2 vertices and a bad bandwidth (see
    :func:`~blurshift.config.check_bandwidth`).
    """
    h = _check_simplex(state.n, state.h)
    return replace(state, r=_shrink_factor(kernel, state.n, state.r, h) * state.r)


def _check_steps(steps) -> int:
    if isinstance(steps, bool) or not (isinstance(steps, (int, np.integer)) and steps >= 0):
        raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
    return int(steps)


def simplex_radius_sequence(kernel: KernelSpec, n: int, h: float, r0: float,
                            steps: int) -> np.ndarray:
    """Radii ``r_1 = r0, ..., r_{steps+1}`` of the scalar recurrence.

    Raises ``ValueError`` unless ``steps`` is an integer >= 0, ``n`` an
    integer >= 2, ``h`` a valid bandwidth (see
    :func:`~blurshift.config.check_bandwidth`) and ``r0`` positive and
    finite.
    """
    steps = _check_steps(steps)
    h = _check_simplex(n, h)
    if not 0.0 < r0 < math.inf:
        raise ValueError(f"r0 must be positive and finite, got {r0!r}")
    out = np.empty(steps + 1)
    out[0] = r = float(r0)
    for t in range(1, steps + 1):
        r = _shrink_factor(kernel, n, r, h) * r
        out[t] = r
    return out


def population_recurrence_step(s, h: float):
    """Per-axis standard-deviation update ``s' = s^3 / (s^2 + h^2)``.

    Raises ``ValueError`` for a bad bandwidth (see
    :func:`~blurshift.config.check_bandwidth`) and a standard deviation
    that is not positive.
    """
    h = check_bandwidth(h)
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("standard deviations must be positive")
    return s**3 / (s**2 + h * h)


def population_sequence(s0, h: float, steps: int) -> np.ndarray:
    """Iterate the population recurrence; first axis is time.

    Unlike the single-step function, the iteration tolerates standard
    deviations that underflow to exactly zero (the cubic decay reaches the
    smallest subnormal within a few dozen steps); zeros stay zero.  Raises
    ``ValueError`` unless ``steps`` is an integer >= 0 and ``h`` a valid
    bandwidth (see :func:`~blurshift.config.check_bandwidth`), and for a
    standard deviation that is not positive.
    """
    steps = _check_steps(steps)
    h = check_bandwidth(h)
    s = np.atleast_1d(np.asarray(s0, dtype=float))
    if np.any(s <= 0):
        raise ValueError("standard deviations must be positive")
    out = np.empty((steps + 1,) + s.shape)
    out[0] = s
    for t in range(1, steps + 1):
        s = s**3 / (s**2 + h * h)
        out[t] = s
    if np.ndim(s0) == 0:
        return out[:, 0]
    return out


@dataclass(frozen=True)
class OracleComparison:
    """Engine-versus-recurrence radii with their worst relative deviation.

    ``rows`` holds ``(t, r_oracle, r_sim, ratio)`` per step, where ``ratio``
    is ``r_sim[t+1] / r_sim[t]^3`` (NaN when undefined); ``max_rel_err`` is
    taken over the steps whose oracle radius exceeds the noise floor.
    """

    max_rel_err: float
    rows: list[tuple[int, float, float, float]]


def compare_sim_to_oracle(kernel: KernelSpec, n: int, d: int, h: float, r0: float,
                          steps: int, floor: float | None = None) -> OracleComparison:
    """Run the full engine and the scalar recurrence side by side.

    The engine starts from ``simplex_vertices(n, d, r0)`` and its radius at
    each step is the stacked norm of the configuration (the centroid stays
    at the origin by symmetry).

    A step counts toward the error only while its radius is above the float
    floor: it must exceed the absolute noise floor *and* retain at least
    1e-4 of the previous radius.  A configuration produced by a stronger
    contraction inherits absolute rounding noise of order ``eps * r_prev``
    from the cancellation in the weighted means, which then dominates its
    own radius; such steps measure double-precision quantization, not the
    update rule.  Raises ``ValueError`` unless ``steps`` is an integer >= 0.
    """
    steps = _check_steps(steps)
    cfg = simplex_vertices(n, d, r0)
    if floor is None:
        floor = residual_floor(math.sqrt(2.0 / (n - 1)) * r0)

    r_sim = np.empty(steps + 1)
    r_sim[0] = np.linalg.norm(cfg.points)
    for t in range(1, steps + 1):
        cfg = bms_step(cfg, kernel, h)
        r_sim[t] = np.linalg.norm(cfg.points)
    r_oracle = simplex_radius_sequence(kernel, n, h, r0, steps)

    usable = r_oracle > floor
    usable[1:] &= r_oracle[1:] > 1e-4 * r_oracle[:-1]
    rel = np.abs(r_sim[usable] - r_oracle[usable]) / r_oracle[usable]
    max_rel_err = float(rel.max()) if rel.size else 0.0

    rows = []
    for t in range(steps + 1):
        if t + 1 <= steps and r_sim[t] > 0.0:
            ratio = r_sim[t + 1] / r_sim[t] ** 3
        else:
            ratio = math.nan
        rows.append((t + 1, float(r_oracle[t]), float(r_sim[t]), float(ratio)))
    return OracleComparison(max_rel_err, rows)
