"""Point configurations and pairwise geometry primitives."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Configuration",
    "as_configuration",
    "check_bandwidth",
    "pairwise_sqdist",
    "profile_args",
]


@dataclass(frozen=True)
class Configuration:
    """An ordered list of ``n`` points in R^d, stored as an (n, d) array.

    Instances are immutable: the wrapped array is marked read-only, so a
    configuration can be shared freely across threads.
    """

    points: np.ndarray

    @classmethod
    def from_points(cls, points) -> "Configuration":
        arr = np.array(points, dtype=float, copy=True)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"expected an (n, d) array of points, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("configuration contains non-finite coordinates")
        arr.setflags(write=False)
        return cls(arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.n


def as_configuration(obj) -> Configuration:
    """Coerce an array-like (or pass through a Configuration) with validation."""
    if isinstance(obj, Configuration):
        return obj
    return Configuration.from_points(obj)


def check_bandwidth(h) -> float:
    """Validate a bandwidth and return it as a float.

    ``h`` must be positive, and ``2 * h * h`` (the divisor of every profile
    argument) must neither underflow to zero nor overflow to inf: either
    would turn every profile argument into ``0/0``, ``x/0`` or ``x/inf``.
    """
    h = float(h)
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    scale = 2.0 * h * h
    if scale == 0.0 or math.isinf(scale):
        raise ValueError(
            f"bandwidth {h!r} is out of range: 2*h*h evaluates to {scale} in "
            "double precision; rescale the points and the bandwidth"
        )
    return h


def pairwise_sqdist(points: np.ndarray, others: np.ndarray | None = None) -> np.ndarray:
    """Exact squared distances from each row of ``points`` to each row of
    ``others`` (default ``points``: an (n, n) matrix with a zero diagonal).

    Computed from coordinate differences (not the expanded dot-product
    identity) so that tiny distances keep full relative precision.  The
    summation order is pinned: coordinates are added one at a time in
    ascending order, ``(((y_0 - z_0)**2 + (y_1 - z_1)**2) + ...)``.  Every
    entry therefore has the same bits whichever rows are passed, so a row
    block or a subset of the points reproduces the full matrix exactly,
    and the matrix is exactly symmetric.
    """
    if others is None:
        others = points
    total = np.subtract.outer(points[:, 0], others[:, 0])
    total *= total
    for k in range(1, points.shape[1]):
        term = np.subtract.outer(points[:, k], others[:, k])
        term *= term
        total += term
    return total


def profile_args(sqdist: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Map squared distances to profile arguments ``||v/h||^2 / 2``.

    ``out=sqdist`` converts the distances in place.
    """
    return np.divide(sqdist, 2.0 * h * h, out=out)
