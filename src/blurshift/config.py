"""Point configurations and pairwise geometry primitives."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Configuration",
    "as_configuration",
    "check_bandwidth",
    "check_count",
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
        """Validate and copy ``points``; raises ``ValueError`` for complex
        input (see :func:`real_array`), an empty or non-2-D array and a
        non-finite coordinate."""
        arr = real_array(points, copy=True)
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


def real_array(points, copy: bool = False) -> np.ndarray:
    """``points`` as a float64 array, a copy when ``copy`` is true.

    Raises ``ValueError`` naming the dtype for complex input: a cast to
    float would drop the imaginary parts with only a ``ComplexWarning``
    and leave a plausible configuration of the real parts.
    """
    arr = points if isinstance(points, np.ndarray) else np.asarray(points)
    if arr.dtype.kind == "c":
        raise ValueError(f"expected real coordinates, got an array of dtype {arr.dtype}")
    return np.array(arr, dtype=float) if copy else np.asarray(arr, dtype=float)


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


def check_count(name: str, value, least: int) -> None:
    """Validate a count: raises ``ValueError`` naming ``name`` for anything
    but an integer (numpy integers accepted; bools not) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def pairwise_sqdist(points: np.ndarray, others: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Exact squared distances from each row of ``points`` to each row of
    ``others`` (default ``points``: an (n, n) matrix with a zero diagonal),
    written into ``out`` when it is given.

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
    return coordinate_sqdist(points.T[:, :, None], others.T[:, None, :], out)


def coordinate_sqdist(p: np.ndarray, q: np.ndarray, out: np.ndarray | None = None,
                      diff: np.ndarray | None = None) -> np.ndarray:
    """``sum_k (p[k] - q[k])**2`` for two stacks of coordinate arrays that
    broadcast against each other, in :func:`pairwise_sqdist`'s order: the
    coordinates are added one at a time in ascending k.  Both the full
    matrix (``p[k]`` a column, ``q[k]`` a row) and a list of pairs (``p[k]``
    and ``q[k]`` gathered per pair) give every entry the same bits.

    Given ``diff``, an array of the broadcast shape, the differences
    ``q - p`` are written there first and squared from it, so a caller
    that reads them too subtracts each coordinate once: a negated
    difference squares to the same bits, so every entry keeps them."""
    if diff is not None:
        np.subtract(q, p, out=diff)
        total = np.multiply(diff[0], diff[0], out=out)
        for k in range(1, len(diff)):
            total += diff[k] * diff[k]
        return total
    total = np.subtract(p[0], q[0], out=out)
    total *= total
    for k in range(1, len(p)):
        term = p[k] - q[k]
        term *= term
        total += term
    return total


def profile_args(sqdist: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Map squared distances to profile arguments ``||v/h||^2 / 2``.

    ``out=sqdist`` converts the distances in place.
    """
    return np.divide(sqdist, 2.0 * h * h, out=out)
