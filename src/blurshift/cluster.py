"""Turn terminal blurred configurations into cluster labels and centers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pairwise import component_labels
from .config import as_configuration, check_bandwidth, pairwise_sqdist
from .diagnostics import diameter
from .engine import BmsRun, IterationRecord, StopRule, objective, run_bms
from .kernels import KernelSpec

__all__ = [
    "ClusterResult",
    "SweepEntry",
    "StandardizeStats",
    "cluster",
    "bandwidth_sweep",
    "standardize",
]


@dataclass(frozen=True)
class ClusterResult:
    """Labels and representatives extracted from a terminal configuration.

    Labels are contiguous ``1..M`` in order of each cluster's smallest
    member index; ``representatives[m-1]`` is the mean terminal position of
    cluster ``m``.  ``T`` is the terminated step count of the underlying
    run and ``records`` its iteration records, one per step.
    """

    labels: np.ndarray
    representatives: np.ndarray
    T: int
    M: int
    stop_reason: str
    records: list[IterationRecord]
    h: float
    kernel: str

    @property
    def trace_summary(self) -> IterationRecord | None:
        """The final iteration record."""
        return self.records[-1] if self.records else None

    def to_json_dict(self) -> dict:
        return {
            "labels": [int(l) for l in self.labels],
            "representatives": [[float(x) for x in row] for row in self.representatives],
            "T": self.T,
            "M": self.M,
            "stop_reason": self.stop_reason,
            "h": self.h,
            "kernel": self.kernel,
        }


def _labels_from_run(run: BmsRun, merge_tol: float) -> tuple[np.ndarray, np.ndarray]:
    terminal = run.final.points
    # single linkage: components of the graph joining points within merge_tol
    groups = component_labels(pairwise_sqdist(terminal) <= merge_tol * merge_tol)
    m = int(groups.max()) + 1
    reps = np.vstack([terminal[groups == c].mean(axis=0) for c in range(m)])
    return groups + 1, reps


def cluster(points, kernel: KernelSpec, h: float, stop: StopRule | None = None,
            merge_tol: float | None = None) -> ClusterResult:
    """Run the blurring iteration and group the terminal points.

    Terminal points are grouped by single linkage at ``merge_tol``
    (default ``1e-8 *`` initial data diameter): flat-weight truncated
    kernels land clusters on exactly coincident points, while smooth
    kernels only agree to within the stopping tolerance, so grouping by a
    small radius instead of bitwise equality works for both.
    """
    cfg = as_configuration(points)
    if merge_tol is not None and merge_tol < 0:
        raise ValueError("merge_tol must be non-negative")
    run = run_bms(cfg, kernel, h, stop=stop)
    if merge_tol is None:
        merge_tol = 1e-8 * run.records[0].diameter  # the initial data diameter
    labels, reps = _labels_from_run(run, merge_tol)
    return ClusterResult(
        labels=labels,
        representatives=reps,
        T=run.T,
        M=reps.shape[0],
        stop_reason=run.stop_reason,
        records=run.records,
        h=float(h),
        kernel=kernel.id,
    )


@dataclass(frozen=True)
class SweepEntry:
    h: float
    M: int
    T: int
    L_final: float


def bandwidth_sweep(points, kernel: KernelSpec, h_grid, stop: StopRule | None = None,
                    merge_tol: float | None = None) -> list[SweepEntry]:
    """One clustering run per bandwidth; no automatic bandwidth selection.

    Returns per-bandwidth summaries ``(h, M, T, L_final)`` where
    ``L_final`` is the objective of the terminal configuration.
    """
    h_grid = [check_bandwidth(h) for h in h_grid]
    if not h_grid:
        raise ValueError("bandwidth grid is empty")
    cfg = as_configuration(points)
    if merge_tol is None:
        merge_tol = 1e-8 * diameter(cfg)
    entries = []
    for h in h_grid:
        run = run_bms(cfg, kernel, h, stop=stop)
        _, reps = _labels_from_run(run, merge_tol)
        entries.append(SweepEntry(h=h, M=reps.shape[0], T=run.T,
                                  L_final=objective(run.final, kernel, h)))
    return entries


@dataclass(frozen=True)
class StandardizeStats:
    """Per-axis mean and standard deviation of the original data."""

    mean: np.ndarray
    std: np.ndarray

    def inverse(self, points: np.ndarray) -> np.ndarray:
        """Map standardized coordinates back to the original scale."""
        return np.asarray(points, dtype=float) * self.std + self.mean


def standardize(points) -> tuple[np.ndarray, StandardizeStats]:
    """Z-score each coordinate; fails on constant axes.

    Returns the transformed points and the statistics needed to undo the
    transform (e.g. to map cluster representatives back).
    """
    cfg = as_configuration(points)
    if cfg.n < 2:
        raise ValueError("standardization needs at least 2 points")
    mean = cfg.points.mean(axis=0)
    std = cfg.points.std(axis=0)
    for axis, s in enumerate(std):
        if s == 0.0:
            raise ValueError(f"axis {axis} has zero variance")
    return (cfg.points - mean) / std, StandardizeStats(mean, std)
