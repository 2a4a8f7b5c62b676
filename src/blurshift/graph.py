"""Proximity graph of a configuration and its structural classification.

Vertices are point indices; an edge joins two distinct points whenever the
kernel weight of their difference is nonzero.  For a truncated kernel this
is a unit-ball graph with ball radius ``beta * h`` (closed at the boundary
for non-smoothly truncated kernels under the left-derivative weight
convention, open for smoothly truncated ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._pairwise import PairwiseState
from .config import check_bandwidth, check_count
from .kernels import KernelSpec

__all__ = [
    "BmsGraph",
    "GraphClassification",
    "build_graph",
    "classify",
    "component_count_bound",
    "is_fixed_point",
    "graph_to_json",
]


@dataclass(frozen=True)
class BmsGraph:
    """Adjacency plus component partition of a configuration's graph.

    ``labels[i]`` is the component index of vertex ``i``; components are
    numbered contiguously from 0 in order of their smallest vertex index.
    """

    n: int
    adjacency: np.ndarray  # (n, n) bool, symmetric, zero diagonal
    labels: np.ndarray  # (n,) int
    components: tuple[np.ndarray, ...]

    @property
    def M(self) -> int:
        return len(self.components)

    def edge_list(self) -> np.ndarray:
        i, j = np.nonzero(np.triu(self.adjacency, 1))
        return np.column_stack([i, j])


def build_graph(cfg, kernel: KernelSpec, h: float) -> BmsGraph:
    """Build the proximity graph of a configuration.

    Edge ``{i, j}`` is present iff ``i != j`` and ``g`` is nonzero at the
    pairwise profile argument.  Components come from a min-label union over
    the joined pairs, streamed through the one pass of the pairwise state
    that also writes the join bits, and are numbered in order of their
    smallest vertex; the complete graph of a non-truncated kernel is one
    component, and takes no pass.

    Nonzeroness follows the exact sign structure of ``g``: a non-truncated
    kernel joins every pair even where the evaluated weight underflows to
    zero in doubles.
    """
    state = PairwiseState(cfg, kernel, h)
    adjacency = state.distinct.expand(state.joined_rows())
    np.fill_diagonal(adjacency, False)
    adjacency.setflags(write=False)
    return BmsGraph(state.n, adjacency, state.labels, state.components)


@dataclass(frozen=True)
class GraphClassification:
    """Structural flags of a graph: see module docstring for definitions.

    ``margin`` is the smallest distance of any pair to the joining radius
    ``beta * h`` (``inf`` for non-truncated kernels); a margin below the
    stability tolerance marks the graph unstable because a vanishing
    perturbation can flip an edge.
    """

    closed: bool
    singular: bool
    stable: bool
    margin: float


def classify(graph: BmsGraph, cfg, kernel: KernelSpec, h: float,
             stability_tol: float | None = None) -> GraphClassification:
    """Classify a graph built from ``(cfg, kernel, h)``.

    closed
        Every component is a clique.
    singular
        Every joined pair of points coincides exactly (coincident points
        are joined but do not break singularity).
    stable
        The graph is unchanged by sufficiently small perturbations of the
        configuration; decided by the margin test with tolerance
        ``stability_tol`` (default ``1e-9 * beta * h``).

    ``graph`` must be ``build_graph(cfg, kernel, h)``: the flags are read
    from the same pairwise state that the graph and the iteration driver
    are built from.  Raises ``ValueError`` for a negative or NaN
    ``stability_tol``.
    """
    state = PairwiseState(cfg, kernel, h, {"margin", "closed", "singular"})
    if graph.n != state.n:
        raise ValueError(f"graph has {graph.n} vertices, configuration has {state.n} points")
    margin = state.margin  # first: a grid state's scan then decides the margin test too
    return GraphClassification(state.closed, state.singular,
                               state.stable(stability_tol), margin)


def component_count_bound(n: int, gamma: float, beta: float, h: float, d: int) -> int:
    """Packing upper bound for the number of components.

    ``min{n, (1 + 2*gamma/(beta*h))^d}`` for truncated kernels, where
    ``gamma`` is the largest pairwise distance; ``n`` when the kernel is
    non-truncated (the bound degenerates).

    Raises ``ValueError`` naming the argument for an ``n`` or ``d`` that is
    not an integer of at least 1 and for a negative or NaN ``gamma``.
    """
    check_count("n", n, 1)
    check_count("d", d, 1)
    if not gamma >= 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    return _packing_bound(n, gamma, beta, check_bandwidth(h), d)


def _packing_bound(n: int, gamma: float, beta: float, h: float, d: int) -> int:
    # component_count_bound's formula, for arguments checked already
    if not math.isfinite(beta):
        return n
    try:
        return int(min(n, math.floor((1.0 + 2.0 * gamma / (beta * h)) ** d)))
    except OverflowError:  # the packing bound exceeds every float, so n
        return n


def is_fixed_point(cfg, kernel: KernelSpec, h: float, tol: float = 0.0) -> bool:
    """Whether no point would move: all weighted moment sums vanish.

    True iff ``|| sum_j (u_i - u_j) * g_ij || <= tol`` for every ``i``,
    which is equivalent to graph singularity (exactly in real arithmetic,
    and up to ``tol`` in floats).
    """
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    return PairwiseState(cfg, kernel, h, {"moments"}).is_fixed_point(tol)


def graph_to_json(graph: BmsGraph) -> dict:
    """JSON-friendly adjacency-list dump for debugging."""
    return {
        "n": graph.n,
        "edges": [[int(a), int(b)] for a, b in graph.edge_list()],
        "components": [[int(v) for v in comp] for comp in graph.components],
        "labels": [int(l) for l in graph.labels],
    }
