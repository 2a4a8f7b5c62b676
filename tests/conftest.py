import contextlib
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import blurshift as bs
from blurshift import _pairwise
from blurshift.diagnostics import (
    diameter,
    direction_set,
    float_step_allowance,
    interval_nesting_violation,
)
from blurshift.engine import bms_step, minorizer_gap, objective

CORPUS_SEED = 2024
CORPUS_CONFIGS = 100
CORPUS_MAX_STEPS = 40


@dataclass(frozen=True)
class StepStat:
    """Everything the invariant checks need about one step of one run."""

    kernel_id: str
    config_index: int
    n: int
    d: int
    h: float
    t: int
    L: float
    L_next: float
    move_sq: float
    max_move: float
    gap: float
    nest_violation: float
    d_t: float
    d_t1: float
    coord_scale: float


@dataclass(frozen=True)
class RunSummary:
    kernel_id: str
    config_index: int
    h: float
    stop_reason: str
    terminal_points: np.ndarray


def _random_config(rng):
    n = int(rng.integers(2, 51))
    d = int(rng.integers(1, 6))
    pts = rng.uniform(-1, 1, size=(n, d)) * rng.uniform(0.5, 3.0)
    h = float(rng.uniform(0.3, 2.0))
    return pts, h


@pytest.fixture(scope="session")
def corpus():
    """Steps of 100 seeded random runs for every admissible built-in kernel.

    Runs follow the engine's default stopping semantics (exact fixed point
    or move below 1e-12 of the initial diameter), capped at 40 steps.
    """
    rng = np.random.default_rng(CORPUS_SEED)
    steps: list[StepStat] = []
    runs: list[RunSummary] = []
    dir_cache: dict[int, np.ndarray] = {}
    for ci in range(CORPUS_CONFIGS):
        pts, h = _random_config(rng)
        n, d = pts.shape
        dirs = dir_cache.setdefault(d, direction_set(d, 256))
        for kid in bs.ASSUMPTION1_IDS:
            kernel = bs.builtin(kid)
            cfg = bs.as_configuration(pts)
            move_tol = 1e-12 * diameter(cfg)
            L = objective(cfg, kernel, h)
            stop_reason = "max_iter"
            for t in range(1, CORPUS_MAX_STEPS + 1):
                nxt = bms_step(cfg, kernel, h)
                L_next = objective(nxt, kernel, h)
                delta = nxt.points - cfg.points
                move_sq = float(np.sum(delta * delta))
                max_move = float(np.max(np.linalg.norm(delta, axis=1)))
                steps.append(StepStat(
                    kernel_id=kid, config_index=ci, n=n, d=d, h=h, t=t,
                    L=L, L_next=L_next, move_sq=move_sq, max_move=max_move,
                    gap=minorizer_gap(nxt, cfg, kernel, h),
                    nest_violation=interval_nesting_violation(cfg, nxt, dirs),
                    d_t=diameter(cfg), d_t1=diameter(nxt),
                    coord_scale=float(np.max(np.abs(cfg.points))),
                ))
                fixed = np.array_equal(nxt.points, cfg.points)
                cfg, L = nxt, L_next
                if fixed:
                    stop_reason = "exact_fixed_point"
                    break
                if max_move < move_tol:
                    stop_reason = "move_tol"
                    break
            runs.append(RunSummary(kid, ci, h, stop_reason, cfg.points))
    return steps, runs


def split_probes(dims, stacks, sizes) -> list[np.ndarray]:
    """The probes of one ``verify._fuzz_probes`` draw, one (n, d) array
    each, in probe order: its per-dimension stacks split back."""
    probes = [None] * len(dims)
    for stack, size in zip(stacks, sizes):
        at = np.flatnonzero(dims == stack.shape[1]).tolist()
        for k, points in zip(at, np.split(stack, np.cumsum(size)[:-1])):
            probes[k] = points
    return probes


def fuzz_probes(seed, count: int, kernel, h: float) -> list[np.ndarray]:
    """The first ``count`` fuzz probes that ``run_verify`` draws from
    ``seed``, in probe order (see :func:`split_probes`)."""
    from blurshift.verify import _fuzz_probes, _fuzz_streams

    return split_probes(*_fuzz_probes(_fuzz_streams(seed), count, kernel, h))


def batch_in_order(configs, kernel, h: float):
    """``PairwiseState.batch`` over ``configs`` stacked by dimension, its
    values put back in input order."""
    configs = [np.asarray(c, dtype=float) for c in configs]
    dims = [c.shape[1] for c in configs]
    stacks, sizes, order = [], [], []
    for dim in sorted(set(dims)):
        at = [k for k, d in enumerate(dims) if d == dim]
        stacks.append(np.concatenate([configs[k] for k in at]))
        sizes.append([configs[k].shape[0] for k in at])
        order += at
    values = _pairwise.PairwiseState.batch(stacks, sizes, kernel, h)
    back = np.argsort(order)
    return type(values)(*(v[back] for v in values))


@pytest.fixture(scope="session")
def fuzz_corpus():
    """1000 randomized configurations per truncated kernel, with planted
    boundary pairs, plus singularity/fixed-point/bound verdicts."""
    results = []
    for index, kid in enumerate(bs.ASSUMPTION1_IDS):
        kernel = bs.builtin(kid)
        if not kernel.truncated:
            continue
        for pts in fuzz_probes(0x5EED + index, 1000, kernel, 1.0):
            cfg = bs.as_configuration(pts)
            graph = bs.build_graph(cfg, kernel, 1.0)
            singular = bs.classify(graph, cfg, kernel, 1.0).singular
            scale = max(diameter(cfg), 1.0)
            fixed = bs.is_fixed_point(cfg, kernel, 1.0, tol=1e-12 * scale)
            bound = bs.component_count_bound(cfg.n, diameter(cfg), kernel.beta,
                                             1.0, cfg.d)
            results.append((kid, singular, fixed, graph.M, bound))
    return results


@pytest.fixture
def cli_env():
    """Environment for a ``python -m blurshift`` child process.

    The directory this process imported ``blurshift`` from goes first on
    ``PYTHONPATH`` as an absolute path, followed by the inherited entries,
    each made absolute. The child then runs the package under test from any
    working directory, whether it comes from ``src/`` or an installed copy.
    """
    package_root = Path(bs.__file__).resolve().parent.parent
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    entries = [str(package_root)] + [os.path.abspath(p) for p in inherited if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}


def allowance(stat: StepStat) -> float:
    return float_step_allowance(stat.coord_scale)


def representable_boundary_pair(boundary_u: float) -> tuple[float, float]:
    """Distance and bandwidth whose computed profile argument hits the
    support boundary bitwise (squaring the float radius rarely does)."""
    import math

    for hi in range(200):
        h = 1.0 + hi * 1e-3
        v = math.sqrt(boundary_u * 2.0 * h * h)
        for _ in range(4):
            u = (v * v) / (2.0 * h * h)
            if u == boundary_u:
                return v, h
            v = math.nextafter(v, math.inf if u < boundary_u else 0.0)
    raise AssertionError("no representable boundary pair found")


# the sizes on either side of the row blocks' sides: a block holds
# _BLOCK_ENTRIES pairs, three fifths of it those of a truncated pass of at
# most five slabs; a state of more than 128 points may group them
_SIDES = (math.isqrt(3 * _pairwise._BLOCK_ENTRIES // 5), math.isqrt(_pairwise._BLOCK_ENTRIES))
PLANTED_SIZES = sorted({n for side in _SIDES for n in (1, 2, side - 1, side, side + 1,
                                                        3 * side + 5)})


def planted_points(rng, n: int, d: int, h: float, kernel) -> np.ndarray:
    """Points over a few joining radii, every third one coinciding with the
    one before it."""
    radius = kernel.beta * h if kernel.truncated else h
    pts = rng.uniform(-3.0, 3.0, size=(n, d)) * radius
    pts[1::3] = pts[::3][:pts[1::3].shape[0]]
    return pts


@contextlib.contextmanager
def forced_source(**costs):
    """Force the pair sources of the pairwise passes and of the terminal
    grouping through their one rule, ``_pairwise._pair_source``, by the
    cost of an entry of each source (``_pairwise._ENTRY_COST``): a cost of
    0.0 takes a source wherever it is eligible, ``math.inf`` never takes
    it.  Yields the list of the sources that the passes took, in order."""
    taken = []
    start = _pairwise._Pass.__init__

    def recorded(self, *args):
        start(self, *args)
        taken.append(self.source)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_pairwise, "_ENTRY_COST", {**_pairwise._ENTRY_COST, **costs})
        patch.setattr(_pairwise._Pass, "__init__", recorded)
        yield taken
