import logging
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blurshift as bs
from blurshift.diagnostics import direction_set, interval_nesting_violation
from blurshift.engine import (
    STOP_EXACT_FIXED_POINT,
    STOP_MAX_ITER,
    STOP_MOVE_TOL,
    IsolatedQueryError,
    StopRule,
    bms_step,
    gradient,
    minorizer_gap,
    ms_step,
    objective,
    run_bms,
)

GAUSS = bs.builtin("gaussian")
EPA = bs.builtin("epanechnikov")


class TestConfiguration:
    def test_shapes_and_coercion(self):
        cfg = bs.as_configuration([[0.0, 1.0], [2.0, 3.0]])
        assert (cfg.n, cfg.d) == (2, 2)
        one_dim = bs.as_configuration([1.0, 2.0, 3.0])
        assert (one_dim.n, one_dim.d) == (3, 1)

    def test_points_are_read_only(self):
        cfg = bs.as_configuration([[0.0], [1.0]])
        with pytest.raises(ValueError):
            cfg.points[0, 0] = 5.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            bs.as_configuration([[0.0], [math.nan]])
        with pytest.raises(ValueError):
            bs.as_configuration([[math.inf, 0.0]])

    @pytest.mark.parametrize("shape", [(2, 2, 2), (0, 2), (2, 0)])
    def test_not_an_n_by_d_array_rejected(self, shape):
        with pytest.raises(ValueError, match=r"expected an \(n, d\) array of points, got shape"):
            bs.as_configuration(np.zeros(shape))

    def test_complex_rejected(self):
        # a cast to float would drop the imaginary parts and run on the
        # real ones: [[0, 0], [0, 1]] here, whose run ends after one step
        for points in (np.array([[1j, 0], [0, 1]]), [[1j, 0], [0, 1]],
                       np.array([[1.0, 0.0]], dtype=np.complex64)):
            with pytest.raises(ValueError, match="real coordinates, got .* dtype complex"):
                run_bms(points, bs.builtin("epanechnikov"), 0.5)
        with pytest.raises(ValueError, match="dtype complex128"):
            bs.run_verify(np.array([[1j, 0], [0, 1]]), bs.builtin("biweight"), 0.5)


class TestBmsStep:
    def test_two_point_gaussian(self):
        out = bms_step([[-0.5], [0.5]], GAUSS, 1.0).points.ravel()
        expect = 0.5 * (1 - math.exp(-0.5)) / (1 + math.exp(-0.5))
        assert out == pytest.approx([-expect, expect], abs=2e-5)
        assert out[0] == pytest.approx(-0.12245933, abs=2e-5)

    def test_coincident_points_are_fixed(self):
        pts = np.full((5, 3), 1.7)
        out = bms_step(pts, GAUSS, 0.5)
        assert np.array_equal(out.points, pts)

    def test_separated_flat_kernel_is_fixed(self):
        pts = np.array([[0.0], [10.0]])
        out = bms_step(pts, EPA, 1.0)
        assert np.array_equal(out.points, pts)

    def test_identical_weight_rows_collapse_exactly(self):
        # all points mutually within the support: one step lands every
        # point on the same bitwise position
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 0.2, size=(7, 2)) + 5.0
        out = bms_step(pts, EPA, 1.0).points
        assert np.all(out == out[0])

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            bms_step([[0.0]], GAUSS, 0.0)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf, 1e-170, 1e160])
    def test_one_bandwidth_check_everywhere(self, h):
        # 1e-170 and 1e160 are positive, but 2*h*h underflows / overflows
        pts = [[0.0, 0.0], [1e-3, 0.0]]
        calls = [
            lambda: bms_step(pts, EPA, h),
            lambda: objective(pts, EPA, h),
            lambda: run_bms(pts, EPA, h),
            lambda: bs.build_graph(pts, EPA, h),
            lambda: bs.is_fixed_point(pts, EPA, h),
            lambda: ms_step([0.0, 0.0], pts, EPA, h),
            lambda: bs.kernel_value(EPA, [1.0, 0.0], h),
            lambda: bs.component_count_bound(2, 1.0, EPA.beta, h, 2),
            lambda: bs.run_verify(pts, EPA, h),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="bandwidth"):
                call()

    def test_extreme_but_representable_bandwidth_runs(self):
        pts = np.array([[0.0, 0.0], [1e-150, 0.0], [5e-150, 0.0]])
        out = bms_step(pts, EPA, 1e-150).points
        assert np.all(np.isfinite(out))


class TestMsStep:
    def test_isolated_neighborhood_returns_data_point(self):
        data = [[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]]
        out = ms_step([0.0, 0.0], data, EPA, 1.0)
        assert np.array_equal(out, [0.0, 0.0])

    def test_symmetry_gives_midpoint(self):
        out = ms_step([0.0], [[-0.5], [0.5]], GAUSS, 1.0)
        assert out == pytest.approx([0.0], abs=1e-15)

    def test_flat_weights_give_plain_mean(self):
        out = ms_step([0.25], [[0.0], [1.0]], EPA, 2.0)
        assert out == pytest.approx([0.5], abs=1e-15)

    def test_query_beyond_all_support(self):
        with pytest.raises(IsolatedQueryError):
            ms_step([50.0], [[0.0], [1.0]], EPA, 1.0)

    def test_non_finite_query_rejected_by_name(self):
        # not an isolated query: a NaN one would otherwise come back as NaN
        for bad in ([math.nan, 0.0], [math.inf, 0.0]):
            for kernel in (GAUSS, EPA):
                with pytest.raises(ValueError, match="query must be finite") as info:
                    ms_step(bad, [[0.0, 0.0], [1.0, 1.0]], kernel, 1.0)
                assert not isinstance(info.value, IsolatedQueryError)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ms_step([0.0, 0.0], [[0.0], [1.0]], GAUSS, 1.0)


class TestObjective:
    def test_two_point_value(self):
        val = objective([[0.0], [1.0]], GAUSS, 1.0)
        assert val == pytest.approx(2.0 + 2.0 * math.exp(-0.5), rel=1e-12)

    def test_coincident_maximum(self):
        pts = np.full((6, 2), -3.0)
        assert objective(pts, GAUSS, 2.0) == pytest.approx(36.0, rel=1e-12)

    def test_separated_flat_kernel(self):
        assert objective([[0.0], [10.0]], EPA, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_self_term_decomposition(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(8, 2))
        h = 0.9
        total = objective(pts, GAUSS, h)
        cross = sum(
            bs.kernel_value(GAUSS, pts[i] - pts[j], h)
            for i in range(8) for j in range(i + 1, 8)
        )
        assert total == pytest.approx(2 * cross + 8.0, rel=1e-12)

    def test_permutation_and_translation_invariance(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(12, 3))
        h = 0.7
        base = objective(pts, GAUSS, h)
        perm = rng.permutation(12)
        assert objective(pts[perm], GAUSS, h) == pytest.approx(base, abs=1e-12 * abs(base))
        shifted = pts + np.array([10.0, -4.0, 2.5])
        assert objective(shifted, GAUSS, h) == pytest.approx(base, abs=1e-9 * abs(base))
        assert objective(-pts, GAUSS, h) == pytest.approx(base, abs=1e-12 * abs(base))


class TestGradient:
    def test_zero_at_singular_configuration(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
        res = gradient(pts, EPA, 1.0)
        assert np.all(res.grad == 0.0)

    def test_two_point_gaussian_blocks(self):
        res = gradient([[-0.5], [0.5]], GAUSS, 1.0)
        expect = 2.0 * math.exp(-0.5)
        assert res.grad.ravel() == pytest.approx([expect, -expect], rel=1e-12)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(11)
        for kid in ("gaussian", "cauchy", "biweight"):
            kernel = bs.builtin(kid)
            pts = rng.uniform(-1, 1, size=(6, 2))
            h = 0.8
            analytic = gradient(pts, kernel, h).grad
            step = 1e-6
            numeric = np.zeros_like(analytic)
            for i in range(6):
                for j in range(2):
                    p1, p2 = pts.copy(), pts.copy()
                    p1[i, j] += step
                    p2[i, j] -= step
                    numeric[i, j] = (objective(p1, kernel, h) - objective(p2, kernel, h)) / (2 * step)
            rel = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(analytic)))
            assert rel < 1e-6, kid

    def test_boundary_flag_for_sharp_truncation(self):
        from conftest import representable_boundary_pair

        v, h = representable_boundary_pair(EPA.boundary_u)
        pts = np.array([[0.0], [v]])
        res = gradient(pts, EPA, h)
        assert res.nonsmooth_boundary
        # left-derivative selection keeps the pair weighted
        assert res.grad[0, 0] != 0.0
        res_inside = gradient([[0.0], [0.5]], EPA, h)
        assert not res_inside.nonsmooth_boundary
        assert not gradient(pts, GAUSS, h).nonsmooth_boundary

    def test_matrix_form_step_identity(self):
        rng = np.random.default_rng(13)
        for kid in ("gaussian", "logistic", "cauchy", "biweight", "triweight", "quadweight"):
            kernel = bs.builtin(kid)
            pts = rng.uniform(-1, 1, size=(9, 3))
            h = 0.9
            grad = gradient(pts, kernel, h).grad
            diff = pts[:, None, :] - pts[None, :, :]
            w = kernel.g(np.einsum("ijk,ijk->ij", diff, diff) / (2 * h * h))
            s = w.sum(axis=1)
            identity = pts + (h * h / 2.0) * grad / s[:, None]
            stepped = bms_step(pts, kernel, h).points
            assert np.max(np.abs(identity - stepped)) < 1e-12, kid


class TestMinorizerGap:
    def test_zero_for_identical_configurations(self):
        pts = np.random.default_rng(4).normal(size=(5, 2))
        assert minorizer_gap(pts, pts, GAUSS, 1.0) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            minorizer_gap([[0.0]], [[0.0], [1.0]], GAUSS, 1.0)

    def test_quadratic_improvement_bound(self):
        # gap >= (2 g(0)/h^2) ||delta||^2 and objective gain >= gap
        rng = np.random.default_rng(100)
        for trial in range(100):
            kid = bs.ASSUMPTION1_IDS[trial % len(bs.ASSUMPTION1_IDS)]
            kernel = bs.builtin(kid)
            n = int(rng.integers(2, 20))
            d = int(rng.integers(1, 4))
            pts = rng.uniform(-1.5, 1.5, size=(n, d))
            h = float(rng.uniform(0.4, 1.6))
            nxt = bms_step(pts, kernel, h)
            gap = minorizer_gap(nxt, pts, kernel, h)
            move_sq = float(np.sum((nxt.points - pts) ** 2))
            coeff = 2.0 * kernel.g0 / h**2
            assert gap >= coeff * move_sq - 1e-10
            gain = objective(nxt, kernel, h) - objective(pts, kernel, h)
            assert gain >= gap - 1e-10


class TestRunDriver:
    def test_single_iteration(self):
        run = run_bms([[0.0], [1.0]], GAUSS, 1.0, stop=StopRule(max_iter=1))
        assert len(run.records) == 1
        assert run.T == 1
        assert run.stop_reason == STOP_MAX_ITER

    def test_stop_rule_validation(self):
        with pytest.raises(ValueError):
            StopRule(max_iter=0)
        with pytest.raises(ValueError):
            StopRule(move_tol=-1.0)

    @pytest.mark.parametrize("max_iter", [math.nan, 2.5, "3", None, True])
    def test_non_integer_max_iter_rejected(self, max_iter):
        # range() in the driver would fail on it with a TypeError mid-run
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            StopRule(max_iter=max_iter)
        assert StopRule(max_iter=np.int64(3)).max_iter == 3

    def test_nan_move_tol_rejected(self):
        # max_move < nan is never true, so a NaN tolerance would switch the test off
        with pytest.raises(ValueError, match="move_tol must be non-negative, got nan"):
            StopRule(move_tol=math.nan)

    def test_flat_kernel_reaches_exact_fixed_point(self):
        rng = np.random.default_rng(21)
        pts = np.vstack([rng.normal(-3, 0.2, size=(15, 2)),
                         rng.normal(3, 0.2, size=(15, 2))])
        run = run_bms(pts, EPA, 0.7, stop=StopRule(max_iter=300, move_tol=0.0))
        assert run.stop_reason == STOP_EXACT_FIXED_POINT
        assert run.records[-1].max_move == 0.0
        assert bs.is_fixed_point(run.final, EPA, 0.7, tol=0.0)

    @pytest.mark.parametrize("kernel_id", ["epanechnikov", "cosine", "biweight"])
    def test_truncated_kernels_reach_exact_fixed_point_in_one_dimension(self, kernel_id):
        kernel = bs.builtin(kernel_id)
        for seed in range(20):
            pts = np.random.default_rng([5, seed]).uniform(-2.0, 2.0, size=(60, 1))
            run = run_bms(pts, kernel, 0.3, stop=StopRule(max_iter=500, move_tol=0.0))
            assert run.stop_reason == STOP_EXACT_FIXED_POINT, seed
            assert bs.is_fixed_point(run.final, kernel, 0.3, tol=0.0)

    def test_zero_self_weight_names_the_cause(self):
        # tricube has g(0) = 0: a coincident pair with no other point at
        # nonzero weight would blur to 0/0
        tricube = bs.get_kernel("tricube")
        pts = [[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]
        for call in (lambda: run_bms(pts, tricube, 0.5), lambda: bms_step(pts, tricube, 0.5)):
            with pytest.raises(ValueError, match=r"point 0 has zero total weight .*'tricube'.*g\(0\) = 0\.0"):
                call()

    def test_debug_log_summarises_each_run(self, caplog):
        pts = [[0.0, 0.0], [0.25, 0.0], [5.0, 5.0]]
        with caplog.at_level(logging.DEBUG, logger="blurshift"):
            run = run_bms(pts, EPA, 0.5, stop=StopRule(max_iter=50, move_tol=0.0))
        messages = [r.getMessage() for r in caplog.records if r.name == "blurshift"]
        assert len(messages) == 2
        assert messages[0] == "start: n=3 d=2 kernel=epanechnikov h=0.5"
        assert messages[1].startswith(
            f"stop: n=3 d=2 kernel=epanechnikov h=0.5 T={run.T} stop={run.stop_reason} wall=")
        assert messages[1].endswith("s")
        assert all(r.levelno == logging.DEBUG for r in caplog.records)

    def test_logging_is_silent_by_default(self, cli_env):
        code = ("import blurshift as bs; "
                "bs.run_bms([[0.0], [1.0]], bs.builtin('gaussian'), 1.0, "
                "stop=bs.StopRule(max_iter=3))")
        proc = subprocess.run([sys.executable, "-c", code], env=cli_env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == proc.stderr == ""
        assert logging.getLogger("blurshift").handlers  # a NullHandler

    def test_smooth_kernel_stops_on_move_tol(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(10, 2))
        run = run_bms(pts, GAUSS, 1.5)
        assert run.stop_reason == STOP_MOVE_TOL

    def test_streaming_sink_without_buffering(self):
        seen = []
        run = run_bms([[0.0], [2.5]], GAUSS, 1.0, stop=StopRule(max_iter=5),
                      sink=seen.append, keep_records=False)
        assert run.records == []
        assert len(seen) == 5
        assert [r.t for r in seen] == [1, 2, 3, 4, 5]
        assert run.T == 5

    def test_records_monotone_objective_and_diameter(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(20, 2))
        run = run_bms(pts, bs.builtin("biweight"), 0.9, stop=StopRule(max_iter=60))
        Ls = [r.objective for r in run.records]
        ds = [r.diameter for r in run.records]
        assert all(b >= a - 1e-10 * (1 + abs(a)) for a, b in zip(Ls, Ls[1:]))
        assert all(b <= a + 1e-12 + 1e-12 * a for a, b in zip(ds, ds[1:]))

    def test_simplex_trace_matches_recurrence(self):
        comparison = bs.compare_sim_to_oracle(GAUSS, 3, 2, 1.0, 0.99, 6)
        assert comparison.max_rel_err <= 1e-10

    def test_ascent_with_quadratic_lower_bound(self):
        rng = np.random.default_rng(24)
        for kid in bs.ASSUMPTION1_IDS:
            kernel = bs.builtin(kid)
            pts = rng.uniform(-1, 1, size=(15, 2))
            h = 0.8
            coeff = 2.0 * kernel.g0 / h**2
            cfg = bs.as_configuration(pts)
            L = objective(cfg, kernel, h)
            for _ in range(15):
                nxt = bms_step(cfg, kernel, h)
                L1 = objective(nxt, kernel, h)
                move_sq = float(np.sum((nxt.points - cfg.points) ** 2))
                assert L1 - L >= coeff * move_sq - 1e-10 * (1 + abs(L)), kid
                if np.array_equal(nxt.points, cfg.points):
                    break
                cfg, L = nxt, L1

    def test_objective_stall_bounds_motion(self, corpus):
        # quantitative form of the equality-stop property: the objective
        # gain of a step is at least (2 g(0)/h^2) * move^2, so a vanishing
        # gain pins the motion down to sqrt(gain / coeff)
        steps, _ = corpus
        for s in steps:
            threshold = 1e-15 * s.n**2
            if s.L_next - s.L < threshold:
                coeff = 2.0 * bs.builtin(s.kernel_id).g0 / (s.h * s.h)
                limit = math.sqrt(threshold / coeff)
                assert s.max_move <= limit + 1e-12 * max(s.coord_scale, 1.0)

    def test_hull_never_grows(self):
        rng = np.random.default_rng(25)
        pts = rng.normal(size=(12, 3))
        dirs = direction_set(3, 128)
        cfg = bs.as_configuration(pts)
        for _ in range(10):
            nxt = bms_step(cfg, GAUSS, 1.0)
            assert interval_nesting_violation(cfg, nxt, dirs) <= 1e-12
            cfg = nxt

    def test_move_bounds_next_gradient_qualitatively(self):
        # for smooth kernels the step length also dominates the gradient at
        # the NEW iterate up to a constant; the constant depends on the
        # gradient's Lipschitz modulus, so only fit it and require it to
        # stay positive and stable across the run
        rng = np.random.default_rng(26)
        for kid in ("gaussian", "biweight", "cauchy"):
            kernel = bs.builtin(kid)
            pts = rng.uniform(-3, 3, size=(14, 2))
            h = 0.6
            cfg = bs.as_configuration(pts)
            ratios = []
            for _ in range(25):
                nxt = bms_step(cfg, kernel, h)
                move = float(np.linalg.norm(nxt.points - cfg.points))
                grad_next = float(np.linalg.norm(gradient(nxt, kernel, h).grad))
                if grad_next > 1e-12:
                    ratios.append(move / grad_next)
                cfg = nxt
            assert len(ratios) >= 3, kid
            fitted = min(ratios)
            assert fitted > 0
            # lower bound from the analogous current-iterate constant
            assert fitted >= 1e-3 * h * h / (2 * 14 * kernel.g0), kid


def _run_or_error(pts, kernel, h):
    try:
        return run_bms(pts, kernel, h, stop=StopRule(max_iter=60))
    except ValueError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kernel_id=st.sampled_from(bs.BUILTIN_IDS), seed=st.integers(0, 2**32 - 1),
       e=st.sampled_from([40, -40, 300, -300]), h=st.sampled_from([0.3, 0.8, 1.5]))
def test_power_of_two_scale_is_bitwise_equivariant(kernel_id, seed, e, h):
    # scaling the points and the bandwidth by 2**e scales every distance
    # exactly and leaves every profile argument's bits as they are, far from
    # overflow and underflow; so the run is the same run, scaled
    kernel = bs.builtin(kernel_id)
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 41)), int(rng.integers(1, 4))
    centres = rng.uniform(-2.0, 2.0, size=(3, d))
    pts = centres[rng.integers(0, 3, size=n)] + rng.normal(scale=0.3, size=(n, d))
    pts[rng.integers(0, n)] = pts[0]
    plain = _run_or_error(pts, kernel, h)
    scaled = _run_or_error(np.ldexp(pts, e), kernel, math.ldexp(h, e))
    if isinstance(plain, str):
        assert isinstance(scaled, str)
        return
    assert (scaled.T, scaled.stop_reason) == (plain.T, plain.stop_reason)
    for got, want in zip(scaled.records, plain.records, strict=True):
        assert got.objective.hex() == want.objective.hex()
        for name in ("diameter", "comp_diameter", "max_move"):
            assert math.ldexp(getattr(got, name), -e).hex() == getattr(want, name).hex(), name
        for name in ("n_components", "closed", "singular", "stable"):
            assert getattr(got, name) == getattr(want, name), name
    assert np.ldexp(scaled.final.points, -e).tobytes() == plain.final.points.tobytes()
