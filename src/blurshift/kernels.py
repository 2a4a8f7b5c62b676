"""Radially symmetric kernels, their profiles, and derived weight functions.

A kernel ``K`` on R^d is represented through its profile ``k`` via
``K(v) = k(||v||^2 / 2)``.  The weight function used by the mean shift
update rules is ``G(v) = g(||v||^2 / 2)`` where ``g`` is minus a
(sub)derivative selection of the profile: ``g(0) = -k'(0+)`` and, at every
``u > 0``, ``g(u) = -k'(u-)`` (the left derivative).  The left-derivative
selection means that for a kernel with a kink at its truncation radius
``beta`` (e.g. Epanechnikov) the weight stays positive at distance exactly
``beta * h``, so edge membership at the boundary is decided by a closed
inequality.

Profiles are stored unnormalized with ``k(0) = 1``; normalization constants
cancel in the update rules and only rescale the objective.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import check_bandwidth

__all__ = [
    "TruncationClass",
    "KernelSpec",
    "Assumption1Report",
    "ASSUMPTION1_IDS",
    "BUILTIN_IDS",
    "builtin",
    "eval_k",
    "eval_g",
    "kernel_value",
    "g_value",
    "classify_truncation",
    "validate_assumption1",
    "kernel_from_descriptor",
    "load_kernel_json",
    "get_kernel",
]


class TruncationClass(enum.Enum):
    """How (and whether) a profile reaches zero."""

    NON_TRUNCATED = "non_truncated"
    SMOOTHLY_TRUNCATED = "smoothly_truncated"
    NON_SMOOTHLY_TRUNCATED = "non_smoothly_truncated"


@dataclass(frozen=True)
class KernelSpec:
    """Immutable bundle of a profile ``k`` and its weight function ``g``.

    Attributes
    ----------
    id : str
        Kernel name (built-in id, or a custom name).
    profile : callable
        Vectorized ``k(u)`` for ``u >= 0``; ``k(0) = 1`` for built-ins.
    g : callable
        Vectorized weight ``g(u)``, the left-derivative selection of ``-k'``.
    beta : float
        Truncation radius: smallest radius beyond which ``K`` vanishes,
        ``inf`` for non-truncated kernels.
    truncation : TruncationClass
        Truncation class of the kernel.
    g0 : float
        ``g(0) = -k'(0+)``; positive for every admissible kernel.
    alpha : float or None
        ``inf{g(u)/g(0) : g(u) != 0}``; positive for non-smoothly truncated
        kernels, ``None`` otherwise (the infimum would be zero).
    boundary_u : float or None
        Exact profile-space argument ``beta^2 / 2`` where the support ends
        (``None`` for non-truncated kernels).  Stored separately because
        squaring the floating-point ``beta`` does not reproduce it exactly.
    """

    id: str
    profile: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    beta: float
    truncation: TruncationClass
    g0: float
    alpha: float | None = None
    boundary_u: float | None = None

    @property
    def truncated(self) -> bool:
        return math.isfinite(self.beta)


def _as_nonneg(u, what: str = "u") -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0):
        raise ValueError(f"{what} must be non-negative")
    return arr


# ---------------------------------------------------------------------------
# Built-in profiles.  All are written to be vectorized and branch-safe
# (no NaNs generated on the masked-out side of a where()).

def _poly_profile(p: float):
    def k(u):
        t = np.clip(1.0 - np.asarray(u, dtype=float), 0.0, None)
        return t**p

    return k


def _poly_g(p: float):
    # left derivative of (1-u)_+^p; 0**0 == 1 gives the correct boundary
    # value p at u == 1 when p == 1 (flat-weight kernels).
    def g(u):
        u = np.asarray(u, dtype=float)
        t = np.clip(1.0 - u, 0.0, None)
        return np.where(u <= 1.0, p * t ** (p - 1.0), 0.0)

    return g


def _cosine_profile(u):
    u = np.asarray(u, dtype=float)
    inside = u <= 1.0
    s = np.sqrt(np.where(inside, u, 0.0))
    return np.where(inside, np.cos(0.5 * np.pi * s), 0.0)


_COSINE_G0 = np.pi**2 / 8.0


def _cosine_g(u):
    u = np.asarray(u, dtype=float)
    inside = u <= 1.0
    s = np.sqrt(np.where(inside, u, 1.0))
    safe = np.where(s > 0.0, s, 1.0)
    val = 0.25 * np.pi * np.sin(0.5 * np.pi * s) / safe
    val = np.where(s > 0.0, val, _COSINE_G0)
    return np.where(inside, val, 0.0)


def _gaussian_profile(u):
    return np.exp(-np.asarray(u, dtype=float))


def _logistic_profile(u):
    # sech^2(sqrt(u)/2) written in an overflow-free form
    s = np.sqrt(np.asarray(u, dtype=float))
    e = np.exp(-s)
    return 4.0 * e / (1.0 + e) ** 2


def _logistic_g(u):
    u = np.asarray(u, dtype=float)
    s = np.sqrt(u)
    safe = np.where(s > 0.0, s, 1.0)
    val = _logistic_profile(u) * np.tanh(0.5 * s) / (2.0 * safe)
    return np.where(s > 0.0, val, 0.25)


def _cauchy_profile(u):
    return 1.0 / (1.0 + np.asarray(u, dtype=float))


def _cauchy_g(u):
    return 1.0 / (1.0 + np.asarray(u, dtype=float)) ** 2


def _tricube_profile(u):
    u = np.asarray(u, dtype=float)
    t = np.clip(1.0 - np.where(u <= 1.0, u, 1.0) ** 1.5, 0.0, None)
    return np.where(u <= 1.0, t**3, 0.0)


def _tricube_g(u):
    u = np.asarray(u, dtype=float)
    inside = u <= 1.0
    uu = np.where(inside, u, 1.0)
    t = np.clip(1.0 - uu**1.5, 0.0, None)
    return np.where(inside, 4.5 * np.sqrt(uu) * t**2, 0.0)


_SQRT2 = math.sqrt(2.0)

_BUILTINS: dict[str, KernelSpec] = {}


def _register(spec: KernelSpec) -> KernelSpec:
    _BUILTINS[spec.id] = spec
    return spec


_register(KernelSpec("epanechnikov", _poly_profile(1.0), _poly_g(1.0), _SQRT2,
                     TruncationClass.NON_SMOOTHLY_TRUNCATED, 1.0, alpha=1.0,
                     boundary_u=1.0))
_register(KernelSpec("cosine", _cosine_profile, _cosine_g, _SQRT2,
                     TruncationClass.NON_SMOOTHLY_TRUNCATED, _COSINE_G0,
                     alpha=(0.25 * np.pi) / _COSINE_G0, boundary_u=1.0))
_register(KernelSpec("quadweight", _poly_profile(4.0), _poly_g(4.0), _SQRT2,
                     TruncationClass.SMOOTHLY_TRUNCATED, 4.0, boundary_u=1.0))
_register(KernelSpec("triweight", _poly_profile(3.0), _poly_g(3.0), _SQRT2,
                     TruncationClass.SMOOTHLY_TRUNCATED, 3.0, boundary_u=1.0))
_register(KernelSpec("biweight", _poly_profile(2.0), _poly_g(2.0), _SQRT2,
                     TruncationClass.SMOOTHLY_TRUNCATED, 2.0, boundary_u=1.0))
_register(KernelSpec("three_halves", _poly_profile(1.5), _poly_g(1.5), _SQRT2,
                     TruncationClass.SMOOTHLY_TRUNCATED, 1.5, boundary_u=1.0))
_register(KernelSpec("gaussian", _gaussian_profile, _gaussian_profile, math.inf,
                     TruncationClass.NON_TRUNCATED, 1.0))
_register(KernelSpec("logistic", _logistic_profile, _logistic_g, math.inf,
                     TruncationClass.NON_TRUNCATED, 0.25))
_register(KernelSpec("cauchy", _cauchy_profile, _cauchy_g, math.inf,
                     TruncationClass.NON_TRUNCATED, 1.0))

# Diagnostic-only kernel: violates the convexity requirement (and has a flat
# initial slope), kept so that the validation report can demonstrate failures.
_register(KernelSpec("tricube", _tricube_profile, _tricube_g, _SQRT2,
                     TruncationClass.SMOOTHLY_TRUNCATED, 0.0, boundary_u=1.0))

#: Built-in kernels satisfying the admissibility assumptions (convex,
#: non-increasing profile with finite, non-zero initial slope).
ASSUMPTION1_IDS: tuple[str, ...] = (
    "epanechnikov",
    "cosine",
    "quadweight",
    "triweight",
    "biweight",
    "three_halves",
    "gaussian",
    "logistic",
    "cauchy",
)

BUILTIN_IDS: tuple[str, ...] = tuple(_BUILTINS)


def builtin(kernel_id: str) -> KernelSpec:
    """Return the built-in kernel with the given id."""
    try:
        return _BUILTINS[kernel_id]
    except KeyError:
        raise ValueError(
            f"unknown kernel {kernel_id!r}; available: {', '.join(_BUILTINS)}"
        ) from None


# ---------------------------------------------------------------------------
# Evaluation

def eval_k(spec: KernelSpec, u):
    """Evaluate the profile ``k(u)`` at non-negative ``u``."""
    return spec.profile(_as_nonneg(u))


def eval_g(spec: KernelSpec, u):
    """Evaluate the weight function ``g(u)`` at non-negative ``u``."""
    return spec.g(_as_nonneg(u))


def kernel_value(spec: KernelSpec, v, h: float):
    """Evaluate ``K(v / h) = k(||v/h||^2 / 2)`` for a vector ``v``."""
    h = check_bandwidth(h)
    v = np.asarray(v, dtype=float)
    return spec.profile(np.dot(v, v) / (2.0 * h * h))


def g_value(spec: KernelSpec, v, h: float):
    """Evaluate ``G(v / h) = g(||v/h||^2 / 2)`` for a vector ``v``."""
    h = check_bandwidth(h)
    v = np.asarray(v, dtype=float)
    return spec.g(np.dot(v, v) / (2.0 * h * h))


def classify_truncation(spec: KernelSpec) -> tuple[float, TruncationClass]:
    """Return ``(beta, truncation class)`` recomputed from the profile.

    The class is decided by the left limit of ``g`` at the truncation
    argument ``beta^2 / 2``: a positive limit means the radial section has a
    slope jump at radius ``beta`` (non-smooth truncation), a zero limit means
    the section flattens out (smooth truncation).
    """
    if not math.isfinite(spec.beta):
        return math.inf, TruncationClass.NON_TRUNCATED
    boundary_u = spec.boundary_u if spec.boundary_u is not None else spec.beta**2 / 2.0
    if float(spec.g(boundary_u)) > 0.0:
        return spec.beta, TruncationClass.NON_SMOOTHLY_TRUNCATED
    return spec.beta, TruncationClass.SMOOTHLY_TRUNCATED


# ---------------------------------------------------------------------------
# Numerical admissibility validation

@dataclass(frozen=True)
class Assumption1Report:
    """Outcome of the grid-based admissibility checks for one kernel.

    ``checks`` maps check name to ``(passed, worst_violation)`` where the
    violation is the largest amount by which the inequality failed (0.0 for
    a clean pass).
    """

    kernel_id: str
    grid_size: int
    checks: dict[str, tuple[bool, float]]

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    def failed_checks(self) -> list[str]:
        return [name for name, (ok, _) in self.checks.items() if not ok]


def validate_assumption1(spec: KernelSpec, grid_size: int = 10_000) -> Assumption1Report:
    """Numerically check profile admissibility on a grid.

    Checks non-negativity, boundedness, monotone decrease, and midpoint
    convexity of ``k``, plus positivity of the initial slope ``g(0)``.
    The grid spans ``[0, max(4, 1.5 * beta^2 / 2)]``.
    """
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    hi = 4.0
    if math.isfinite(spec.beta):
        hi = max(hi, 1.5 * spec.beta**2 / 2.0)
    grid = np.linspace(0.0, hi, grid_size)
    k = np.asarray(spec.profile(grid), dtype=float)

    slack = 1e-12 * max(1.0, float(np.max(np.abs(k))))

    checks: dict[str, tuple[bool, float]] = {}

    def record(name: str, violations: np.ndarray) -> None:
        worst = float(np.max(violations, initial=0.0))
        checks[name] = (worst <= slack, max(worst, 0.0))

    record("non_negative", -k)
    bounded = bool(np.all(np.isfinite(k)))
    checks["bounded"] = (bounded, 0.0 if bounded else math.inf)
    record("non_increasing", np.diff(k))
    # midpoint convexity on consecutive grid triples (uniform spacing)
    record("convex", 2.0 * k[1:-1] - (k[:-2] + k[2:]))
    g0 = float(spec.g(0.0))
    checks["positive_initial_slope"] = (g0 > 0.0, 0.0 if g0 > 0.0 else 1.0)

    return Assumption1Report(spec.id, grid_size, checks)


# ---------------------------------------------------------------------------
# Custom kernels

def _sampled_kernel(name: str, us: np.ndarray, ks: np.ndarray, beta: float,
                    truncation: TruncationClass) -> KernelSpec:
    if us.ndim != 1 or us.shape != ks.shape or us.size < 2:
        raise ValueError("samples must be two equal-length 1-D arrays with >= 2 points")
    if us[0] != 0.0 or np.any(np.diff(us) <= 0):
        raise ValueError("sample grid must start at 0 and be strictly increasing")
    if not np.all(np.isfinite(ks)):
        raise ValueError("sample values must be finite")
    if ks[0] <= 0:
        raise ValueError("profile must be positive at 0")
    ks = ks / ks[0]  # store unnormalized with k(0) = 1
    slopes = np.diff(ks) / np.diff(us)
    u_max = float(us[-1])

    def profile(u):
        u = np.asarray(u, dtype=float)
        return np.where(u <= u_max, np.interp(u, us, ks), 0.0)

    def g(u):
        u = np.asarray(u, dtype=float)
        # left derivative of the piecewise-linear interpolant
        seg = np.clip(np.searchsorted(us, u, side="left"), 1, us.size - 1) - 1
        return np.where(u <= u_max, -slopes[seg], 0.0)

    g0 = float(-slopes[0])
    boundary_u = None
    if truncation is not TruncationClass.NON_TRUNCATED:
        zero_knots = np.flatnonzero(ks == 0.0)
        if zero_knots.size:
            boundary_u = float(us[zero_knots[0]])
    alpha = None
    if truncation is TruncationClass.NON_SMOOTHLY_TRUNCATED and g0 > 0:
        gb = float(g(boundary_u if boundary_u is not None else beta**2 / 2.0))
        if gb > 0:
            alpha = gb / g0
    return KernelSpec(name, profile, g, float(beta), truncation, g0,
                      alpha=alpha, boundary_u=boundary_u)


def kernel_from_descriptor(desc: dict) -> KernelSpec:
    """Build a kernel from a JSON-style descriptor.

    Two forms are accepted::

        {"profile": "<built-in id>"}
        {"id": "myk", "samples": {"u": [...], "k": [...]},
         "beta": 1.4142, "class": "non_smoothly_truncated"}

    Sampled profiles are interpolated piecewise-linearly; the weight
    function is minus the left slope of the interpolant.  Sampled kernels
    must declare ``beta`` and ``class`` explicitly.
    """
    if "profile" in desc:
        return builtin(desc["profile"])
    if "samples" not in desc:
        raise ValueError("kernel descriptor needs either 'profile' or 'samples'")
    samples = desc["samples"]
    try:
        us = np.asarray(samples["u"], dtype=float)
        ks = np.asarray(samples["k"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError("'samples' must contain numeric lists 'u' and 'k'") from exc
    if "beta" not in desc or "class" not in desc:
        raise ValueError("custom kernels must declare 'beta' and 'class'")
    try:
        truncation = TruncationClass(desc["class"])
    except ValueError:
        raise ValueError(
            f"unknown truncation class {desc['class']!r}; expected one of "
            f"{[t.value for t in TruncationClass]}"
        ) from None
    beta = float(desc["beta"])
    if truncation is TruncationClass.NON_TRUNCATED:
        beta = math.inf
    elif not beta > 0:
        raise ValueError("beta must be positive for truncated kernels")
    name = str(desc.get("id", "custom"))
    return _sampled_kernel(name, us, ks, beta, truncation)


def load_kernel_json(path) -> KernelSpec:
    """Load a custom kernel from a JSON descriptor file."""
    with open(path, "r", encoding="utf-8") as fh:
        desc = json.load(fh)
    if not isinstance(desc, dict):
        raise ValueError(f"{path}: kernel descriptor must be a JSON object")
    return kernel_from_descriptor(desc)


def get_kernel(name: str) -> KernelSpec:
    """Resolve a kernel by built-in id or by path to a JSON descriptor."""
    if name in _BUILTINS:
        return _BUILTINS[name]
    if str(name).endswith(".json"):
        return load_kernel_json(name)
    return builtin(name)  # raises with the list of known ids
