import math

import numpy as np
import pytest

import blurshift as bs
from blurshift.config import pairwise_sqdist
from blurshift.oracles import SimplexState

GAUSS = bs.builtin("gaussian")
EPA = bs.builtin("epanechnikov")


class TestSimplexVertices:
    def test_two_points_on_a_line(self):
        cfg = bs.simplex_vertices(2, 1, 1.0)
        assert cfg.points.ravel() == pytest.approx(
            [1 / math.sqrt(2), -1 / math.sqrt(2)], abs=1e-15)

    def test_equilateral_triangle(self):
        cfg = bs.simplex_vertices(3, 2, 1.0)
        d = np.sqrt(pairwise_sqdist(cfg.points))
        off = d[np.triu_indices(3, 1)]
        assert off == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)
        assert cfg.points.sum(axis=0) == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_first_vertex_on_first_axis(self):
        for n in (2, 3, 4):
            cfg = bs.simplex_vertices(n, n + 1, 2.0)
            assert cfg.points[0, 0] == pytest.approx(2.0 / math.sqrt(n), rel=1e-12)
            assert cfg.points[0, 1:] == pytest.approx(np.zeros(n), abs=1e-14)

    def test_geometry_invariants(self):
        for n in (2, 3, 4):
            for d in (n - 1, n + 2):
                r = 0.77
                cfg = bs.simplex_vertices(n, d, r)
                assert np.linalg.norm(cfg.points) == pytest.approx(r, rel=1e-12)
                dists = np.sqrt(pairwise_sqdist(cfg.points))
                expect = math.sqrt(2.0 / (n - 1)) * r
                off = dists[np.triu_indices(n, 1)]
                assert np.allclose(off, expect, rtol=1e-12)
                assert cfg.points.sum(axis=0) == pytest.approx(np.zeros(d), abs=1e-14)

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            bs.simplex_vertices(4, 2, 1.0)
        with pytest.raises(ValueError):
            bs.simplex_vertices(1, 3, 1.0)
        with pytest.raises(ValueError):
            bs.simplex_vertices(2, 1, 0.0)

    @pytest.mark.parametrize("n,match", [(2.5, "n must be an integer, got 2.5"),
                                         (True, "n must be an integer, got True"),
                                         (1, "n must be at least 2, got 1")])
    def test_vertex_count_is_checked_by_name(self, n, match):
        # a fractional count reached np.eye, which raised a bare TypeError
        with pytest.raises(ValueError, match=match):
            bs.simplex_vertices(n, 3, 1.0)
        with pytest.raises(ValueError, match=match):
            bs.compare_sim_to_oracle(bs.builtin("gaussian"), n, 3, 1.0, 0.9, 2)

    @pytest.mark.parametrize("d,match", [(2.5, "d must be an integer, got 2.5"),
                                         (True, "d must be an integer, got True"),
                                         (0, "d must be at least 1, got 0")])
    def test_dimension_is_checked_by_name(self, d, match):
        with pytest.raises(ValueError, match=match):
            bs.simplex_vertices(2, d, 1.0)


class TestRadiusRecurrence:
    def test_gaussian_two_point_step(self):
        state = SimplexState(n=2, d=1, r=1 / math.sqrt(2), h=1.0)
        out = bs.simplex_recurrence_step(state, GAUSS)
        expect = (1 - math.exp(-0.5)) / (1 + math.exp(-0.5)) / math.sqrt(2)
        assert out.r == pytest.approx(expect, rel=1e-12)
        assert out.r == pytest.approx(0.17319, abs=1e-5)

    def test_flat_kernel_freezes_beyond_radius(self):
        state = SimplexState(n=2, d=1, r=1.5, h=1.0)  # (r/h)^2 > 1
        out = bs.simplex_recurrence_step(state, EPA)
        assert out.r == 1.5

    def test_flat_kernel_collapses_inside(self):
        state = SimplexState(n=3, d=2, r=0.9, h=1.0)
        out = bs.simplex_recurrence_step(state, EPA)
        assert out.r == 0.0
        # a collapsed simplex is a valid state, and stays collapsed
        assert bs.simplex_recurrence_step(out, EPA).r == 0.0
        assert bs.simplex_radius_sequence(EPA, 3, 1.0, 0.9, 2).tolist() == [0.9, 0.0, 0.0]

    def test_sequence_shape_and_monotonicity(self):
        radii = bs.simplex_radius_sequence(GAUSS, 3, 1.0, 0.99, 10)
        assert radii.shape == (11,)
        assert radii[0] == 0.99
        assert np.all(np.diff(radii) <= 0)


class TestPopulationRecurrence:
    def test_single_steps(self):
        assert bs.population_recurrence_step(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert bs.population_recurrence_step(0.5, 1.0) == pytest.approx(0.1, abs=1e-15)

    def test_vector_form(self):
        out = bs.population_recurrence_step([1.0, 0.5], 1.0)
        assert out == pytest.approx([0.5, 0.1])
        seq = bs.population_sequence([1.0, 0.5], 1.0, 2)  # one column per axis
        assert seq.shape == (3, 2)
        assert seq[:, 0].tobytes() == bs.population_sequence(1.0, 1.0, 2).tobytes()
        assert seq[:, 1].tobytes() == bs.population_sequence(0.5, 1.0, 2).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            bs.population_recurrence_step(0.0, 1.0)
        with pytest.raises(ValueError):
            bs.population_recurrence_step(1.0, 0.0)
        with pytest.raises(ValueError, match="^bandwidth must be positive"):
            bs.population_sequence(1.0, -1.0, 2)
        with pytest.raises(ValueError, match="^standard deviations must be positive"):
            bs.population_sequence([1.0, 0.0], 1.0, 2)

    def test_cubic_limit_ratio(self):
        seq = bs.population_sequence(1.0, 1.0, 20)
        assert np.all(np.diff(seq[seq > 0]) < 0)
        # once below 1e-2 the ratio to the cube settles at 1/h^2
        for t in range(len(seq) - 1):
            if 0.0 < seq[t] < 1e-2 and seq[t + 1] > 0.0:
                ratio = seq[t + 1] / seq[t] ** 3
                assert 1 - 1e-6 <= ratio <= 1.0

    def test_decreasing_to_zero_for_any_start(self):
        # decay is slow while s >> h (about h^2/s per step), then cubic
        for s0 in (0.3, 1.0, 5.0):
            for h in (0.5, 2.0):
                seq = bs.population_sequence(s0, h, 400)
                positive = seq[seq > 0]
                assert np.all(np.diff(positive) < 0)
                assert seq[-1] < 1e-30


class TestEngineAgreement:
    def test_gaussian_two_point_four_steps(self):
        comparison = bs.compare_sim_to_oracle(GAUSS, 2, 1, 1.0, 0.99, 4)
        assert comparison.max_rel_err <= 1e-10

    def test_agreement_grid(self):
        for kid in bs.ASSUMPTION1_IDS:
            kernel = bs.builtin(kid)
            for n in (2, 3, 4):
                for d in (n - 1, n + 2):
                    comparison = bs.compare_sim_to_oracle(kernel, n, d, 1.0, 0.99, 8)
                    assert comparison.max_rel_err <= 1e-10, (kid, n, d)

    def test_cubic_ratio_in_the_small_radius_window(self):
        comparison = bs.compare_sim_to_oracle(GAUSS, 2, 1, 1.0, 0.99, 8)
        target = 0.5  # 1 / (n (n-1) h^2)
        seen = 0
        for t, r_oracle, r_sim, ratio in comparison.rows:
            if 1e-4 < r_sim < 0.1:
                seen += 1
                assert ratio == pytest.approx(target, rel=0.05)
        assert seen >= 1

    def test_flat_kernel_beyond_joining_radius(self):
        comparison = bs.compare_sim_to_oracle(EPA, 2, 1, 1.0, 1.5, 5)
        # the construction rounds the initial radius once; after that the
        # configuration is bitwise frozen
        assert comparison.max_rel_err <= 1e-15
        radii = [row[2] for row in comparison.rows]
        assert all(r == radii[0] for r in radii)

    def test_engine_preserves_simplex_symmetry(self):
        from blurshift.diagnostics import residual_floor
        from blurshift.engine import bms_step

        floor = residual_floor(math.sqrt(2.0 / 3.0) * 0.99)
        for kid in ("gaussian", "biweight", "cosine"):
            kernel = bs.builtin(kid)
            cfg = bs.simplex_vertices(4, 3, 0.99)
            prev = math.sqrt(2.0 / 3.0) * 0.99
            for _ in range(3):
                cfg = bms_step(cfg, kernel, 1.0)
                d = np.sqrt(pairwise_sqdist(cfg.points))
                off = d[np.triu_indices(4, 1)]
                if off[0] <= floor or off[0] < 1e-4 * prev:
                    break  # contracted into inherited rounding noise
                assert np.max(np.abs(off / off[0] - 1)) < 1e-12
                prev = off[0]


@pytest.mark.parametrize("steps", [-1, -2, 2.5, math.nan, "3", True])
@pytest.mark.parametrize("call", [
    lambda steps: bs.simplex_radius_sequence(GAUSS, 2, 1.0, 0.99, steps),
    lambda steps: bs.population_sequence(1.0, 1.0, steps),
    lambda steps: bs.compare_sim_to_oracle(GAUSS, 2, 1, 1.0, 0.99, steps).rows,
], ids=["simplex_radius_sequence", "population_sequence", "compare_sim_to_oracle"])
def test_step_count_must_be_a_non_negative_integer(call, steps):
    with pytest.raises(ValueError, match="steps must be an integer >= 0"):
        call(steps)
    assert len(call(np.int64(0))) == 1  # numpy integers and zero steps run


@pytest.mark.parametrize("name,call", [
    ("bandwidth", lambda: bs.simplex_radius_sequence(GAUSS, 3, -1.0, 1.0, 2)),
    ("bandwidth", lambda: bs.simplex_radius_sequence(GAUSS, 3, math.nan, 1.0, 2)),
    ("bandwidth", lambda: bs.simplex_radius_sequence(GAUSS, 3, 0.0, 1.0, 2)),
    ("n", lambda: bs.simplex_radius_sequence(GAUSS, 0, 1.0, 1.0, 2)),
    ("n", lambda: bs.simplex_radius_sequence(GAUSS, 1, 1.0, 1.0, 2)),
    ("n", lambda: bs.simplex_radius_sequence(GAUSS, 2.5, 1.0, 1.0, 2)),
    ("r0", lambda: bs.simplex_radius_sequence(GAUSS, 3, 1.0, -1.0, 2)),
    ("r0", lambda: bs.simplex_radius_sequence(GAUSS, 3, 1.0, 0.0, 2)),
    ("r0", lambda: bs.simplex_radius_sequence(GAUSS, 3, 1.0, math.inf, 2)),
    ("bandwidth", lambda: bs.simplex_recurrence_step(SimplexState(3, 2, 1.0, -1.0), GAUSS)),
    ("n", lambda: bs.simplex_recurrence_step(SimplexState(1, 2, 1.0, 1.0), GAUSS)),
    ("bandwidth", lambda: bs.population_sequence(1.0, 1e160, 2)),
    ("bandwidth", lambda: bs.population_sequence(1.0, math.inf, 2)),
    ("bandwidth", lambda: bs.population_recurrence_step(1.0, 1e-170)),
], ids=["negative-h", "nan-h", "zero-h", "zero-n", "one-n", "fractional-n", "negative-r0",
        "zero-r0", "inf-r0", "step-negative-h", "step-one-n", "population-huge-h",
        "population-inf-h", "population-step-tiny-h"])
def test_oracle_arguments_rejected_by_name(name, call):
    # each used to run (or raise ZeroDivisionError) on the bad value
    with pytest.raises(ValueError, match=f"^{name} "):
        call()
