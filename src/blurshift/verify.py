"""Run-time invariant suite: inequality checks over a whole iteration run.

Every inequality the iteration is supposed to satisfy is evaluated at every
step; a check records the worst margin it saw (negative = violated) and the
step where that happened.  An optional fuzzing stage cross-validates the
fixed-point test against graph singularity on randomized configurations,
including pairs planted near the joining radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._pairwise import PairwiseState
from .config import Configuration
from .diagnostics import (
    DEFAULT_DIRECTION_SEED,
    direction_set,
    float_step_allowance,
    interval_nesting_violation,
)
from .engine import STOP_EXACT_FIXED_POINT, STOP_MAX_ITER, STOP_MOVE_TOL, StopRule
from .graph import component_count_bound
from .kernels import KernelSpec, TruncationClass

__all__ = ["CheckResult", "VerifyReport", "run_verify"]


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


def _fuzz_configuration(rng: np.random.Generator, kernel: KernelSpec, h: float):
    """Random configuration with occasional planted structure.

    Plants: duplicated points, and pairs at distance ``beta*h*(1+offset)``
    with offsets down to 1e-9 around the joining radius (plus exactly at
    it), to exercise the boundary logic of the graph.

    For smoothly truncated kernels the offsets at and just inside the
    radius are left out: there the weight vanishes like a power of the
    offset, so the moment of such a pair drops below any fixed float
    tolerance while the edge indicator stays true, and the
    exact-arithmetic equivalence being cross-checked is not decidable
    in doubles.
    """
    n = int(rng.integers(2, 13))
    d = int(rng.integers(1, 5))
    radius = kernel.beta * h if kernel.truncated else h
    points = rng.uniform(-1.5, 1.5, size=(n, d)) * radius
    if rng.random() < 0.3:
        i, j = rng.choice(n, size=2, replace=False)
        points[j] = points[i]
    if kernel.truncated and rng.random() < 0.6:
        offsets = [1e-3, -1e-3, 1e-6, 1e-9]
        if kernel.truncation is TruncationClass.NON_SMOOTHLY_TRUNCATED:
            offsets += [0.0, -1e-6, -1e-9]
        offset = rng.choice(offsets)
        i, j = rng.choice(n, size=2, replace=False)
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        points[j] = points[i] + direction * radius * (1.0 + offset)
    return points


def run_verify(points, kernel: KernelSpec, h: float, *, directions: int = 256,
               seed: int = DEFAULT_DIRECTION_SEED, fuzz: int = 0,
               stop: StopRule | None = None,
               inject_descent: bool = False) -> VerifyReport:
    """Iterate from ``points`` and check every invariant at every step.

    ``fuzz`` adds that many randomized fixed-point-versus-singularity
    cross-checks.  ``inject_descent`` deliberately corrupts one objective
    value so the harness itself can be tested for failure detection.
    """
    # one pairwise state per configuration; it keeps its squared distances
    # for the minorizer gap of the step taken from it
    state = PairwiseState(points, kernel, h, keep_sqdist=True)
    cfg = state.cfg
    h = state.h
    if stop is None:
        stop = StopRule()
    move_tol = stop.move_tol
    if move_tol is None:
        move_tol = 1e-12 * state.diameter
    dirs = direction_set(cfg.d, directions, seed)

    ascent = _Check("objective_ascent")
    min_improve = _Check("minorizer_improvement")
    min_sandwich = _Check("minorizer_sandwich")
    nesting = _Check("interval_nesting")
    diam_mono = _Check("diameter_monotone")
    diam_contract = _Check("diameter_contraction")
    comp_bound = _Check("component_count_bound")
    grad_bound = _Check("gradient_move_bound")
    terminal = _Check("terminal_fixed_point_singular")
    agreement = _Check("fixed_point_graph_agreement")

    smooth = kernel.truncation is not TruncationClass.NON_SMOOTHLY_TRUNCATED
    a_coeff = 2.0 * kernel.g0 / (h * h)  # quadratic ascent constant
    b_coeff = h * h / (2.0 * cfg.n * kernel.g0)  # move-per-gradient constant

    inject_at = 2 if inject_descent else -1

    stable_steps = 0
    total_steps = 0
    stop_reason = STOP_MAX_ITER
    for t in range(1, stop.max_iter + 1):
        d_t = state.diameter
        total_steps += 1
        stable_steps += int(state.stable())

        bound = component_count_bound(cfg.n, d_t, kernel.beta, h, cfg.d)
        comp_bound.update(float(bound - state.M), t)

        nxt = Configuration.from_points(state.update())
        delta = nxt.points - cfg.points
        move_sq = float(np.sum(delta * delta))
        max_move = float(np.max(np.linalg.norm(delta, axis=1)))
        L_cur = state.objective
        gap = state.minorizer_gap(nxt)
        if smooth:
            grad_norm = float(np.linalg.norm(state.gradient()))
            grad_bound.update(
                math.sqrt(move_sq) - b_coeff * grad_norm + 1e-10 * max(1.0, d_t), t
            )
        # release this step's n x n arrays before the next state allocates its own
        state = None
        state = PairwiseState(nxt, kernel, h, keep_sqdist=True)

        L_next = state.objective
        if t == inject_at:
            L_next_checked = L_next - 10.0 * (1.0 + abs(L_next))
        else:
            L_next_checked = L_next

        tol = 1e-10 * (1.0 + abs(L_cur))
        gain = L_next_checked - L_cur
        ascent.update(gain - a_coeff * move_sq + tol, t)
        min_improve.update(gap - a_coeff * move_sq + tol, t)
        min_sandwich.update(gain - gap + tol, t)

        nesting.update(1e-12 - interval_nesting_violation(cfg, nxt, dirs), t)

        d_t1 = state.diameter
        allowance = float_step_allowance(float(np.max(np.abs(cfg.points))))
        diam_mono.update(d_t - d_t1 + 1e-12 * d_t + allowance, t)
        if d_t > 0:
            factor = 1.0 - float(kernel.g((d_t / h) ** 2 / 2.0)) / (4.0 * kernel.g0)
            diam_contract.update(factor * d_t - d_t1 + 1e-10 * d_t + allowance, t)

        fixed = np.array_equal(nxt.points, cfg.points)
        cfg = nxt
        if stop.exact_fixed_point and fixed:
            stop_reason = STOP_EXACT_FIXED_POINT
            break
        if max_move < move_tol:
            stop_reason = STOP_MOVE_TOL
            break

    if stop_reason == STOP_EXACT_FIXED_POINT:
        terminal.update(1.0 if state.singular else -1.0, total_steps)

    fuzz_mismatches = 0
    rng = np.random.default_rng(seed)
    for _ in range(fuzz):
        probe = PairwiseState(_fuzz_configuration(rng, kernel, h), kernel, h)
        fixed = probe.is_fixed_point(tol=1e-12 * max(probe.diameter, h))
        if fixed != probe.singular:
            fuzz_mismatches += 1
        bound = component_count_bound(probe.n, probe.diameter, kernel.beta, h, probe.cfg.d)
        comp_bound.update(float(bound - probe.M), -1)
    if fuzz:
        agreement.update(0.0 if fuzz_mismatches == 0 else -float(fuzz_mismatches), -1)

    checks = [
        ascent, min_improve, min_sandwich, nesting, diam_mono,
        diam_contract, comp_bound, grad_bound, terminal, agreement,
    ]
    run_T = total_steps
    return VerifyReport(
        checks=[c.result() for c in checks],
        stop_reason=stop_reason,
        T=run_T,
        stable_steps=stable_steps,
        total_steps=total_steps,
        fuzz_cases=fuzz,
        fuzz_mismatches=fuzz_mismatches,
    )
