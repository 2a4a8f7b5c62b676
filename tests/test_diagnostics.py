import math

import numpy as np
import pytest

import blurshift as bs
from blurshift.diagnostics import (
    RateClass,
    component_diameter,
    diam_rate_check,
    diameter,
    direction_set,
    directional_extents,
    estimate_rate,
    float_step_allowance,
    interval_nesting_violation,
    residual_floor,
)
from blurshift.engine import StopRule, bms_step, run_bms

GAUSS = bs.builtin("gaussian")
EPA = bs.builtin("epanechnikov")


class TestExtents:
    def test_axis_projections(self):
        pts = [[0.0, 0.0], [1.0, 0.0]]
        assert directional_extents(pts, [1.0, 0.0]) == (0.0, 1.0)
        assert directional_extents(pts, [0.0, 1.0]) == (0.0, 0.0)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            directional_extents([[0.0, 0.0]], [1.0, 1.0])

    def test_non_finite_direction_rejected_by_name(self):
        for bad in ([math.nan, 0.0], [math.inf, 0.0]):
            with pytest.raises(ValueError, match="direction must be finite"):
                directional_extents([[0.0, 0.0]], bad)

    def test_direction_of_another_width_rejected_by_name(self):
        # a wider direction used to give a plausible (0.0, 0.0), a narrower
        # one a bare numpy IndexError
        for bad, width in (([0.0, 0.0, 1.0], 3), ([1.0], 1)):
            with pytest.raises(ValueError, match=rf"shape \(2,\) for points in R\^2, "
                                                 rf"got shape \({width},\)"):
                directional_extents([[1.0, 2.0], [3.0, -1.0]], bad)

    def test_direction_count_below_one_rejected(self):
        for count in (0, -3):
            with pytest.raises(ValueError, match=f"direction count must be at least 1, got {count}"):
                direction_set(2, count)

    def test_nested_after_update(self):
        rng = np.random.default_rng(41)
        pts = rng.normal(size=(10, 2))
        nxt = bms_step(pts, GAUSS, 1.0)
        for direction in direction_set(2, 64):
            a0, b0 = directional_extents(pts, direction)
            a1, b1 = directional_extents(nxt, direction)
            assert a1 >= a0 - 1e-12 and b1 <= b0 + 1e-12

    def test_direction_set_reproducible(self):
        d1 = direction_set(3, 32, seed=0x5EED)
        d2 = direction_set(3, 32, seed=0x5EED)
        assert np.array_equal(d1, d2)
        assert np.allclose(np.linalg.norm(d1, axis=1), 1.0, atol=1e-12)


class TestDiameter:
    def test_right_triangle(self):
        assert diameter([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) == pytest.approx(math.sqrt(2))

    def test_degenerate_cases(self):
        assert diameter([[3.0, 4.0]]) == 0.0
        assert diameter([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]) == 0.0

    def test_matches_directional_width(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(15, 3))
        widths = [
            directional_extents(pts, u)[1] - directional_extents(pts, u)[0]
            for u in direction_set(3, 512)
        ]
        # sampled directional widths never exceed the exact pair diameter
        assert max(widths) <= diameter(pts) + 1e-12


class TestDiameterRate:
    def test_two_point_scalar_inequality(self):
        # contraction factor of a symmetric pair never beats the bound
        for u in np.linspace(1e-6, 30.0, 500):
            ratio = (1 - math.exp(-u)) / (1 + math.exp(-u))
            assert ratio <= 1 - math.exp(-u) / 4

    def test_two_point_gaussian_step(self):
        d_t = 1.0
        h = 1.0
        nxt = bms_step([[-0.5], [0.5]], GAUSS, h)
        d_t1 = diameter(nxt)
        assert diam_rate_check(d_t, d_t1, GAUSS, h)

    def test_separated_pair_passes_trivially(self):
        # beyond truncation the bound degenerates to d_{t+1} <= d_t
        assert diam_rate_check(10.0, 10.0, EPA, 1.0)

    def test_total_collapse_passes(self):
        assert diam_rate_check(0.5, 0.0, EPA, 1.0)

    def test_violation_detected(self):
        assert not diam_rate_check(1.0, 0.99, GAUSS, 1.0)  # bound is ~0.84

    def test_requires_positive_diameter(self):
        with pytest.raises(ValueError):
            diam_rate_check(0.0, 0.0, GAUSS, 1.0)

    def test_kernel_without_positive_g0_rejected_by_name(self):
        # the contraction factor divides by g(0), which is 0 for tricube
        with pytest.raises(ValueError, match=r"kernel 'tricube' has g\(0\) = 0\.0"):
            diam_rate_check(1.0, 0.5, bs.builtin("tricube"), 1.0)

    def test_per_component_rate_on_closed_graphs(self):
        # once the graph is closed, each component contracts at least as
        # fast as the bound evaluated at its own diameter
        rng = np.random.default_rng(46)
        pts = np.vstack([rng.normal(-3, 0.25, size=(12, 2)),
                         rng.normal(3, 0.25, size=(12, 2))])
        h = 0.8
        cfg = bs.as_configuration(pts)
        checked = 0
        for _ in range(12):
            g = bs.build_graph(cfg, EPA, h)
            cls = bs.classify(g, cfg, EPA, h)
            nxt = bms_step(cfg, EPA, h)
            if cls.closed:
                scale = float(np.max(np.abs(cfg.points)))
                for comp in g.components:
                    d_t = diameter(cfg.points[comp])
                    d_t1 = diameter(nxt.points[comp])
                    if d_t > 0:
                        checked += 1
                        assert diam_rate_check(
                            d_t, d_t1, EPA, h,
                            abs_slack=float_step_allowance(scale))
            if np.array_equal(nxt.points, cfg.points):
                break
            cfg = nxt
        assert checked >= 1


class TestComponentDiameter:
    def test_singleton_components(self):
        pts = [[0.0], [5.0], [10.0]]
        comps = [np.array([0]), np.array([1]), np.array([2])]
        assert component_diameter(pts, comps) == 0.0

    def test_position_shared_by_two_components(self):
        # coincident points in different components count in each
        pts = [[0.0], [0.0], [3.0], [0.5]]
        assert component_diameter(pts, [np.array([0, 2]), np.array([1, 3])]) == 3.0
        assert component_diameter(pts, [np.array([2]), np.array([0, 1, 3])]) == 0.5

    def test_empty_partition_rejected_by_name(self):
        with pytest.raises(ValueError, match="components is empty"):
            component_diameter([[0.0], [1.0]], [])

    def test_single_component_equals_diameter(self):
        rng = np.random.default_rng(43)
        pts = rng.normal(size=(8, 2))
        comps = [np.arange(8)]
        assert component_diameter(pts, comps) == pytest.approx(diameter(pts), rel=1e-15)

    def test_takes_worst_component(self):
        pts = [[0.0], [0.1], [5.0], [5.3]]
        comps = [np.array([0, 1]), np.array([2, 3])]
        assert component_diameter(pts, comps) == pytest.approx(0.3, abs=1e-15)

    def test_residual_sandwich_near_convergence(self):
        # with a closed graph, the stacked residual to the terminal state
        # is within [rho/sqrt(2), sqrt(n) * rho]
        rng = np.random.default_rng(44)
        pts = np.vstack([rng.normal(-3, 0.2, size=(10, 2)),
                         rng.normal(3, 0.2, size=(10, 2))])
        run = run_bms(pts, EPA, 0.8, stop=StopRule(max_iter=200, move_tol=0.0))
        terminal = run.final.points
        cfg = bs.as_configuration(pts)
        for _ in range(run.T):
            g = bs.build_graph(cfg, EPA, 0.8)
            cls = bs.classify(g, cfg, EPA, 0.8)
            rho = component_diameter(cfg, g.components)
            resid = float(np.linalg.norm(cfg.points - terminal))
            if cls.closed and rho > 0:
                assert rho / math.sqrt(2.0) <= resid * (1 + 1e-9)
                assert resid <= math.sqrt(cfg.n) * rho * (1 + 1e-9)
            cfg = bms_step(cfg, EPA, 0.8)


class TestNesting:
    def test_violation_is_zero_along_runs(self):
        rng = np.random.default_rng(45)
        pts = rng.normal(size=(12, 2))
        dirs = direction_set(2, 256)
        cfg = bs.as_configuration(pts)
        for _ in range(8):
            nxt = bms_step(cfg, bs.builtin("triweight"), 0.9)
            assert interval_nesting_violation(cfg, nxt, dirs) <= 1e-12
            cfg = nxt

    def test_detects_growth(self):
        dirs = direction_set(1, 8)
        grew = interval_nesting_violation([[0.0], [1.0]], [[-0.5], [1.5]], dirs)
        assert grew == pytest.approx(0.5, abs=1e-12)


    def test_directions_of_another_width_rejected_by_name(self):
        a = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
        # direction_set(3) used to give a plausible 0.0, direction_set(1) and
        # a 1-D direction a bare numpy IndexError
        for bad, shape in ((direction_set(3), r"\(256, 3\)"), (direction_set(1), r"\(256, 1\)"),
                           (np.array([1.0, 0.0]), r"\(2,\)"), (np.zeros((0, 2)), r"\(0, 2\)")):
            with pytest.raises(ValueError, match=r"shape \(m, 2\) with m >= 1 for points in "
                                                 r"R\^2, got shape " + shape):
                interval_nesting_violation(a, 0.5 * a, bad)

    def test_non_finite_directions_rejected_by_name(self):
        a = np.array([[0.0, 1.0], [2.0, -1.0]])
        dirs = direction_set(2, 8)
        for value in (math.nan, math.inf, -math.inf):
            bad = dirs.copy()
            bad[5, 1] = value  # a NaN used to give a nan violation
            with pytest.raises(ValueError, match=rf"directions must be finite, got {value} "
                                                 rf"at index \(5, 1\)"):
                interval_nesting_violation(a, 0.5 * a, bad)

    def test_configurations_of_two_dimensions_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"the configurations lie in R\^2 and R\^3"):
            interval_nesting_violation([[0.0, 1.0]], [[0.0, 1.0, 2.0]], direction_set(2, 8))


class TestRateEstimation:
    def test_cubic_sequence_from_radius_recurrence(self):
        radii = bs.simplex_radius_sequence(GAUSS, 2, 1.0, 0.99, 6)
        floor = residual_floor(math.sqrt(2.0) * 0.99)
        est = estimate_rate(radii, floor)
        assert est.classification is RateClass.SUPERLINEAR_CUBIC
        assert est.order == pytest.approx(3.0, abs=0.5)

    def test_geometric_sequence_is_exponential(self):
        res = 0.5 ** np.arange(20)
        est = estimate_rate(res, 1e-12)
        assert est.classification is RateClass.EXPONENTIAL
        assert est.order == pytest.approx(1.0, abs=1e-6)

    def test_exact_zero_hit_is_finite_time(self):
        est = estimate_rate([1.0, 0.3, 0.09, 0.0, 0.0], 1e-9)
        assert est.classification is RateClass.FINITE_TIME
        assert est.order is None

    def test_underflow_zero_is_not_finite_time(self):
        # the drop to zero happens below the floor: quantization, not a jump
        est = estimate_rate([1.0, 0.5, 0.25, 1e-300, 0.0], 1e-9)
        assert est.classification is not RateClass.FINITE_TIME

    def test_too_few_samples(self):
        est = estimate_rate([1.0, 0.5], 1e-12)
        assert est.classification is RateClass.INCONCLUSIVE
        assert est.order is None
        assert est.samples_used < 3

    def test_non_finite_residual_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="residuals must be finite"):
                estimate_rate([1, bad, 1e-3, 1e-9, 1e-27, 1e-81], 1e-300)

    def test_bad_floor_rejected_by_name(self):
        for floor in (math.nan, -1e-12):
            with pytest.raises(ValueError, match=f"floor must be non-negative, got {floor}"):
                estimate_rate([1, 1e-3, 1e-9, 1e-27, 1e-81], floor)

    def test_constant_sequence_inconclusive(self):
        est = estimate_rate(np.ones(10), 1e-12)
        assert est.classification is RateClass.INCONCLUSIVE

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_rate([-1.0, 0.5], 1e-12)
        with pytest.raises(ValueError):
            estimate_rate([[1.0], [0.5]], 1e-12)

    def test_contracting_simplex_ratio_is_bounded(self):
        # late-iteration component diameters obey rho' <= c * rho^3 with a
        # stable constant (smooth kernel, closed stable graph); here
        # rho = r and the ratio settles at 1/(n(n-1)h^2) = 1/6
        radii = bs.simplex_radius_sequence(GAUSS, 3, 1.0, 0.9, 5)
        usable = [t for t in range(len(radii) - 1) if radii[t + 1] > 1e-200]
        ratios = [radii[t + 1] / radii[t] ** 3 for t in usable]
        assert all(np.isfinite(r) and r <= 2.0 / 6.0 for r in ratios)
        assert ratios[-1] == pytest.approx(1.0 / 6.0, rel=0.05)


class TestAllowance:
    def test_scales_with_coordinates(self):
        assert float_step_allowance(0.0) == pytest.approx(64 * np.finfo(float).eps)
        assert float_step_allowance(100.0) > float_step_allowance(1.0)
