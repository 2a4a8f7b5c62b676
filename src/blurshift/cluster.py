"""Turn terminal blurred configurations into cluster labels and centers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._pairwise import single_linkage_labels
from .config import Configuration, as_configuration, check_bandwidth
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
    run, ``final`` the terminal configuration the labels come from and
    ``run`` the run itself (neither is serialised).
    """

    labels: np.ndarray
    representatives: np.ndarray
    T: int
    M: int
    stop_reason: str
    h: float
    kernel: str
    final: Configuration
    run: BmsRun

    @property
    def records(self) -> list[IterationRecord]:
        """The run's iteration records, one per step: built on their first
        read, by a second run, unless the run had a sink (see
        :func:`~blurshift.engine.run_bms`)."""
        return self.run.records

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


def _representatives(points: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """The mean of each group's points, for groups numbered ``0..M-1``.

    One stable sort puts each group's points in a contiguous slice in
    ascending point order, so each mean sums the rows ``points[groups ==
    c]`` would give, in the same order and layout, and keeps their bits.
    For d >= 2, ``mean`` adds a group's rows one at a time from ``+0.0``
    (so a group of ``-0.0`` has a mean of ``+0.0``); so does one
    ``np.add.at`` of the sorted rows into zeros, and the sums are divided by
    the counts as ``mean`` divides.  A lone column (d = 1) keeps its
    per-group ``mean``, since numpy sums a contiguous column pairwise.
    """
    order = np.argsort(groups, kind="stable")
    counts = np.bincount(groups)
    parts = points.take(order, axis=0)
    if points.shape[1] == 1:
        return np.vstack([part.mean(axis=0) for part in np.split(parts, np.cumsum(counts)[:-1])])
    sums = np.zeros((counts.size, points.shape[1]))
    np.add.at(sums, groups[order], parts)
    sums /= counts[:, None]
    return sums


def cluster(points, kernel: KernelSpec, h: float, stop: StopRule | None = None,
            merge_tol: float | None = None,
            sink: Callable[[IterationRecord], None] | None = None) -> ClusterResult:
    """Run the blurring iteration and group the terminal points.

    Terminal points are grouped by single linkage at ``merge_tol``
    (default ``1e-8 *`` initial data diameter): flat-weight truncated
    kernels land clusters on exactly coincident points, while smooth
    kernels only agree to within the stopping tolerance, so grouping by a
    small radius instead of bitwise equality works for both.  The run
    passes ``sink`` to :func:`~blurshift.engine.run_bms`: with one, it
    builds one iteration record per step as it goes; without one, it builds
    none, and ``records`` builds them on first read.
    """
    cfg = as_configuration(points)
    if merge_tol is not None and not merge_tol >= 0:
        raise ValueError(f"merge_tol must be non-negative, got {merge_tol}")
    run = run_bms(cfg, kernel, h, stop=stop, sink=sink)
    if merge_tol is None:
        merge_tol = 1e-8 * run.initial_diameter
    groups = single_linkage_labels(run.final.points, merge_tol)
    reps = _representatives(run.final.points, groups)
    return ClusterResult(
        labels=groups + 1,
        representatives=reps,
        T=run.T,
        M=reps.shape[0],
        stop_reason=run.stop_reason,
        h=float(h),
        kernel=kernel.id,
        final=run.final,
        run=run,
    )


@dataclass(frozen=True)
class SweepEntry:
    h: float
    M: int
    T: int
    L_final: float


def bandwidth_sweep(points, kernel: KernelSpec, h_grid, stop: StopRule | None = None,
                    merge_tol: float | None = None) -> list[SweepEntry]:
    """One :func:`cluster` per bandwidth; no automatic bandwidth selection.

    Returns per-bandwidth summaries ``(h, M, T, L_final)`` where
    ``L_final`` is the objective of the terminal configuration.
    """
    h_grid = [check_bandwidth(h) for h in h_grid]
    if not h_grid:
        raise ValueError("bandwidth grid is empty")
    entries = []
    for h in h_grid:
        result = cluster(points, kernel, h, stop=stop, merge_tol=merge_tol)
        entries.append(SweepEntry(h=h, M=result.M, T=result.T,
                                  L_final=objective(result.final, kernel, h)))
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
