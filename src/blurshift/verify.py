"""Run-time invariant suite: inequality checks over a whole iteration run.

Every inequality the iteration is supposed to satisfy is evaluated at every
step that ``run_bms`` runs; a check records the worst margin it saw
(negative = violated) and the step where that happened.  An optional fuzzing
stage cross-validates the fixed-point test against graph singularity on
randomized configurations, including pairs planted near the joining radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._pairwise import PairwiseState
from .config import as_configuration, check_bandwidth, check_count
from .diagnostics import (
    DEFAULT_DIRECTION_SEED,
    _contraction_factor,
    _extents,
    _nesting_overshoot,
    _require_positive_g0,
    direction_set,
    float_step_allowance,
)
from .engine import STOP_EXACT_FIXED_POINT, StopRule, _iterate
from .graph import _packing_bound, component_count_bound
from .kernels import KernelSpec, TruncationClass

__all__ = ["CheckResult", "VerifyReport", "run_verify"]

# Fuzz probes per PairwiseState.batch call, at most; the stage splits its
# probes into batches as even as can be.  A probe of 2 to 12 points has 59
# pairs on average, and a batch stacks its probes by dimension (1 to 4), so
# a stack's pass runs over at most about 3800 pairs, about one chunk (2900
# to 6100 pairs), and the stage's memory does not grow with the probe
# count.  400 probes take two calls of 200, of at most 4 stacks each, where
# batches of 64 took 28 stacks.  Drawn straight into those stacks, their
# stage peaks at 0.503 MiB (biweight, h = 0.8; tracemalloc on a 2-CPU
# x86-64 VM, numpy 2.4.6), against 0.567 MiB when each probe was drawn as
# an array of its own; that is below the 0.51 to 0.72 MiB that
# run_verify's steps peak at on verify-fuzz's 16 instances without probes,
# so there the steps set the operation's peak.  One call of 400 probes
# peaks at 0.65 MiB.
_FUZZ_BATCH = 256

# The offsets from the joining radius of the fuzz probes' radius pairs, and
# the ones a non-smoothly truncated kernel adds.
_SMOOTH_OFFSETS = (1e-3, -1e-3, 1e-6, 1e-9)
_EDGE_OFFSETS = _SMOOTH_OFFSETS + (0.0, -1e-6, -1e-9)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named inequality over a run.

    ``worst_slack`` is the smallest margin observed (None when the check
    never applied); the check passes iff no margin went negative.
    """

    name: str
    passed: bool
    worst_slack: float | None
    step: int | None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst_slack": self.worst_slack,
            "step": self.step,
        }


class _Check:
    def __init__(self, name: str):
        self.name = name
        self.worst: float | None = None
        self.step: int | None = None

    def update(self, margin: float, step: int) -> None:
        if self.worst is None or margin < self.worst:
            self.worst = float(margin)
            self.step = step

    def result(self) -> CheckResult:
        passed = self.worst is None or self.worst >= 0.0
        return CheckResult(self.name, passed, self.worst, self.step)


@dataclass(frozen=True)
class VerifyReport:
    checks: list[CheckResult]
    stop_reason: str
    T: int
    stable_steps: int
    total_steps: int
    fuzz_cases: int
    fuzz_mismatches: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "stop_reason": self.stop_reason,
            "T": self.T,
            "stable_steps": self.stable_steps,
            "total_steps": self.total_steps,
            "fuzz_cases": self.fuzz_cases,
            "fuzz_mismatches": self.fuzz_mismatches,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _norm(x: np.ndarray) -> float:
    # Euclidean norm from numpy's sum of the squares (np.sum's own reduce,
    # without its wrapper); np.linalg.norm takes a BLAS dot, whose bits
    # depend on the BLAS kernel
    return math.sqrt(float(np.add.reduce(x * x, axis=None)))


def _fuzz_streams(seed: int) -> list[np.random.Generator]:
    # the probes' three streams: their scalar fields, their coordinates and
    # the directions of their radius pairs
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


def _below(u: np.ndarray, m) -> np.ndarray:
    # floor(u * m), uniform over 0 .. m - 1 for u uniform in [0, 1): u * m
    # rounds below m, since u <= 1 - 2**-53 (and is exact for m a power of 2)
    return (u * m).astype(np.intp)


def _distinct_rows(u: np.ndarray, n: np.ndarray) -> np.ndarray:
    # an ordered pair of distinct rows below n per probe, uniform, from a
    # probe's two uniforms
    i = _below(u[:, 0], n)
    j = _below(u[:, 1], n - 1)
    j += j >= i
    return np.stack([i, j], axis=1)


def _fuzz_probes(streams, count: int, kernel: KernelSpec, h: float):
    """The next ``count`` fuzz probes of ``streams`` (see
    :func:`_fuzz_streams`): the dimension of each, in probe order, and, in
    ascending dimension, the points of each dimension's probes stacked in
    probe order and the sizes of those probes.

    Probe k holds n in 2..12 points in d in 1..4 dimensions, both uniform,
    with coordinates uniform in (-1.5, 1.5) times the joining radius
    (``beta * h``, or ``h`` for a full-support kernel).  With probability
    0.3 one point is moved onto another (a duplicate).  A truncated
    kernel's probe then, with probability 0.6, moves a point to distance
    ``beta*h*(1+offset)`` from another, in a direction from d normals,
    with offsets down to 1e-9 around the joining radius (plus exactly at
    it), to exercise the boundary logic of the graph.

    Each stream is read in probe order: row k of a (count, 9) block of
    uniforms gives probe k's n, d, duplicate flag and pair, radius pair
    flag, offset and pair; the coordinates stream its n*d coordinates and
    the normals stream its d normals.  So probe k depends only on the
    seed, the kernel's truncation class and ``beta``, ``h`` and k, and not
    on how the probes are cut into batches.

    For smoothly truncated kernels the offsets at and just inside the
    radius are left out: there the weight vanishes like a power of the
    offset, so the moment of such a pair drops below any fixed float
    tolerance while the edge indicator stays true, and the
    exact-arithmetic equivalence being cross-checked is not decidable
    in doubles.
    """
    fields, coords, normals = streams
    u = fields.random((count, 9))
    n = 2 + _below(u[:, 0], 11)
    d = 1 + _below(u[:, 1], 4)
    truncated = kernel.truncated
    radius = kernel.beta * h if truncated else h
    flat = coords.uniform(-1.5, 1.5, size=int(n @ d))
    flat *= radius
    unit = normals.standard_normal(int(d.sum()))
    offsets = np.array(_EDGE_OFFSETS if kernel.truncation is TruncationClass.NON_SMOOTHLY_TRUNCATED
                       else _SMOOTH_OFFSETS)
    scale = radius * (1.0 + offsets[_below(u[:, 6], offsets.size)])
    duplicate, plant = u[:, 2] < 0.3, (u[:, 5] < 0.6) & truncated
    duplicate_rows, plant_rows = _distinct_rows(u[:, 3:5], n), _distinct_rows(u[:, 7:9], n)
    stacks, sizes = [], []
    for dim in np.unique(d).tolist():
        of = d == dim
        points = flat[np.repeat(of, n * d)].reshape(-1, dim)
        first = np.cumsum(n[of]) - n[of]  # each probe's first row in the stack
        i, j = (first[:, None] + duplicate_rows[of])[duplicate[of]].T
        points[j] = points[i]
        i, j = (first[:, None] + plant_rows[of])[plant[of]].T
        direction = unit[np.repeat(of, d)].reshape(-1, dim)[plant[of]]
        direction /= np.sqrt(np.add.reduce(direction * direction, axis=1, keepdims=True))
        direction *= scale[of][plant[of], None]
        direction += points[i]
        points[j] = direction
        stacks.append(points)
        sizes.append(n[of])
    return d, stacks, sizes


def run_verify(points, kernel: KernelSpec, h: float, *, directions: int = 256,
               seed: int = DEFAULT_DIRECTION_SEED, fuzz: int = 0,
               stop: StopRule | None = None,
               inject_descent: bool = False) -> VerifyReport:
    """Iterate from ``points`` and check every invariant at every step.

    The checks observe the steps, stop rule and ``T`` of ``engine._iterate``.
    ``fuzz`` adds that many randomized fixed-point-versus-singularity
    cross-checks.  Their probes are drawn from three child streams of
    ``seed`` a batch at a time, each stream read in probe order
    (:func:`_fuzz_probes`), so probe k is the same whatever ``fuzz``; the
    streams are numpy's, which keeps no stream the same across its
    versions, so what a seed guarantees is the probes' distribution and
    that a rerun draws the same ones.  ``inject_descent`` deliberately
    corrupts one objective value so the harness itself can be tested for
    failure detection.

    Raises ``ValueError`` for a kernel with ``g(0) <= 0`` (tricube, or a
    sampled profile flat at 0): the checks' constants divide by ``g(0)``,
    and for a ``directions`` or ``fuzz`` count that is not an integer.
    """
    check_count("directions", directions, 1)
    check_count("fuzz", fuzz, 0)
    h = check_bandwidth(h)
    _require_positive_g0(kernel)

    checks = [_Check(name) for name in (
        "objective_ascent", "minorizer_improvement", "minorizer_sandwich",
        "interval_nesting", "diameter_monotone", "diameter_contraction",
        "component_count_bound", "gradient_move_bound",
        "terminal_fixed_point_singular", "fixed_point_graph_agreement")]
    (ascent, min_improve, min_sandwich, nesting, diam_mono, diam_contract,
     comp_bound, grad_bound, terminal, agreement) = checks

    smooth = kernel.truncation is not TruncationClass.NON_SMOOTHLY_TRUNCATED
    a_coeff = 2.0 * kernel.g0 / (h * h)  # quadratic ascent constant
    inject_at = 2 if inject_descent else -1

    dirs = direction_set(as_configuration(points).d, directions, seed)
    # between steps only scalars and the directional extents are kept:
    # ``pending`` holds the last step's values until the next state's
    # objective and diameter close its checks, and ``extents`` holds the
    # next configuration's extents, which are the next step's own
    stable_steps = 0
    pending = None
    extents = None

    def close(L_next: float, d_t1: float) -> None:
        t, L_cur, gap, move_sq, d_t, allowance = pending
        if t == inject_at:
            L_next = L_next - 10.0 * (1.0 + abs(L_next))
        tol = 1e-10 * (1.0 + abs(L_cur))
        gain = L_next - L_cur
        ascent.update(gain - a_coeff * move_sq + tol, t)
        min_improve.update(gap - a_coeff * move_sq + tol, t)
        min_sandwich.update(gain - gap + tol, t)
        diam_mono.update(d_t - d_t1 + 1e-12 * d_t + allowance, t)
        if d_t > 0:
            factor = _contraction_factor(d_t, kernel, h)
            diam_contract.update(factor * d_t - d_t1 + 1e-10 * d_t + allowance, t)

    def on_step(t, state, nxt, max_move):
        nonlocal stable_steps, pending, extents
        if pending is not None:
            close(state.objective, state.diameter)
        gap = state.minorizer_gap(nxt)  # before M caches the labels, so they add nothing to its peak
        cfg = state.cfg
        d_t = state.diameter
        stable_steps += int(state.stable())

        bound = component_count_bound(cfg.n, d_t, kernel.beta, h, cfg.d)
        comp_bound.update(float(bound - state.M), t)

        delta = nxt.points - cfg.points
        move_sq = float(np.sum(delta * delta))
        del delta  # freed before the gradient, whose peak the carried extents add to
        if smooth:
            b_coeff = h * h / (2.0 * cfg.n * kernel.g0)  # move-per-gradient constant
            grad_norm = _norm(state.gradient())
            grad_bound.update(
                math.sqrt(move_sq) - b_coeff * grad_norm + 1e-10 * max(1.0, d_t), t
            )
        # coincident points project alike, and the blurred image keeps them
        # coincident, so the extents need only each distinct row's first point
        at_first = state.distinct.at_first
        prev_extents = _extents(at_first(cfg.points), dirs) if extents is None else extents
        extents = _extents(at_first(nxt.points), dirs)
        nesting.update(1e-12 - _nesting_overshoot(prev_extents, extents), t)
        allowance = float_step_allowance(float(np.max(np.abs(cfg.points))))
        pending = (t, state.objective, gap, move_sq, d_t, allowance)

    # the margin test at its default tolerance, and the components without degrees
    reads = {"diameter", "objective", "stable", "labels"} | (
        {"moments"} if smooth else set())
    final, stop_reason, T = _iterate(points, kernel, h, stop, on_step, reads)
    # closes the last step's checks and tells whether a terminal fixed point is singular
    state = PairwiseState(final, kernel, h, {"diameter", "singular", "objective"})
    close(state.objective, state.diameter)
    if stop_reason == STOP_EXACT_FIXED_POINT:
        terminal.update(1.0 if state.singular else -1.0, T)

    fuzz_mismatches = 0
    streams = _fuzz_streams(seed)
    calls = -(-fuzz // _FUZZ_BATCH)
    for k in range(calls):
        # batches as even as can be, of at most _FUZZ_BATCH probes
        _, stacks, sizes = _fuzz_probes(
            streams, (k + 1) * fuzz // calls - k * fuzz // calls, kernel, h)
        probes = PairwiseState.batch(stacks, sizes, kernel, h)
        fixed = probes.moment_norm <= 1e-12 * np.maximum(probes.diameter, h)
        fuzz_mismatches += int(np.count_nonzero(fixed != probes.singular))
        slack = min(_packing_bound(n, gamma, kernel.beta, h, d) - M for n, gamma, d, M in zip(
            probes.n.tolist(), probes.diameter.tolist(), probes.d.tolist(), probes.M.tolist()))
        comp_bound.update(float(slack), -1)
    if fuzz:
        agreement.update(0.0 if fuzz_mismatches == 0 else -float(fuzz_mismatches), -1)

    return VerifyReport(
        checks=[c.result() for c in checks],
        stop_reason=stop_reason,
        T=T,
        stable_steps=stable_steps,
        total_steps=T,
        fuzz_cases=fuzz,
        fuzz_mismatches=fuzz_mismatches,
    )
