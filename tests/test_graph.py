import math

import numpy as np
import pytest

import blurshift as bs
from blurshift.diagnostics import direction_set
from blurshift.engine import StopRule, bms_step, run_bms

EPA = bs.builtin("epanechnikov")
BIW = bs.builtin("biweight")
GAUSS = bs.builtin("gaussian")


class TestBuildGraph:
    def test_one_joined_pair_one_isolated(self):
        # three points: only the last two are within the joining radius
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [5.5, 0.0]])
        g = bs.build_graph(pts, EPA, 1.0)
        assert g.M == 2
        assert g.adjacency[1, 2] and g.adjacency[2, 1]
        assert not g.adjacency[0, 1] and not g.adjacency[0, 2]
        assert [list(c) for c in g.components] == [[0], [1, 2]]

    def test_all_close_gives_complete_graph(self):
        pts = np.random.default_rng(0).uniform(0, 0.3, size=(6, 2))
        g = bs.build_graph(pts, EPA, 1.0)
        assert g.M == 1
        off = ~np.eye(6, dtype=bool)
        assert np.all(g.adjacency[off])

    def test_non_truncated_kernel_always_complete(self):
        pts = np.array([[0.0], [1000.0], [-55.0]])
        g = bs.build_graph(pts, GAUSS, 0.1)
        assert g.M == 1

    def test_no_self_loops(self):
        pts = np.zeros((4, 2))
        g = bs.build_graph(pts, GAUSS, 1.0)
        assert not np.any(np.diag(g.adjacency))

    def test_component_labels_ordered_by_smallest_vertex(self):
        pts = np.array([[10.0], [0.0], [10.1], [0.1]])
        g = bs.build_graph(pts, EPA, 0.5)
        assert list(g.labels) == [0, 1, 0, 1]

    def test_boundary_membership_flat_kernel(self):
        from conftest import representable_boundary_pair

        v, h = representable_boundary_pair(1.0)
        pts = np.array([[0.0], [v]])
        assert bs.build_graph(pts, EPA, h).M == 1  # closed inequality
        assert bs.build_graph(pts, BIW, h).M == 2  # weight vanishes there

    def test_json_export(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [5.5, 0.0]])
        d = bs.graph_to_json(bs.build_graph(pts, EPA, 1.0))
        assert d["n"] == 3
        assert d["edges"] == [[1, 2]]
        assert d["components"] == [[0], [1, 2]]


class TestClassify:
    def classify(self, pts, kernel, h, **kw):
        cfg = bs.as_configuration(pts)
        return bs.classify(bs.build_graph(cfg, kernel, h), cfg, kernel, h, **kw)

    def test_mutually_distant_points(self):
        cls = self.classify([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], EPA, 1.0)
        assert cls.singular and cls.closed and cls.stable

    def test_distinct_pair_on_the_boundary_is_unstable(self):
        from conftest import representable_boundary_pair

        v, h = representable_boundary_pair(1.0)
        # vanishing-weight truncation: not joined at the exact radius,
        # so singular, but any perturbation can flip the edge
        cls = self.classify([[0.0], [v]], BIW, h)
        assert cls.singular and not cls.stable
        assert cls.margin == pytest.approx(0.0, abs=1e-12)
        # flat-weight truncation just beyond the radius: same mechanism
        cls = self.classify([[0.0], [EPA.beta * h * (1 + 1e-13)]], EPA, h)
        assert cls.singular and not cls.stable

    def test_boundary_pair_flat_kernel_is_joined_hence_nonsingular(self):
        from conftest import representable_boundary_pair

        v, h = representable_boundary_pair(1.0)
        cls = self.classify([[0.0], [v]], EPA, h)
        assert not cls.singular and not cls.stable

    def test_coincident_plus_far_point(self):
        cls = self.classify([[1.0, 1.0], [1.0, 1.0], [40.0, 0.0]], EPA, 1.0)
        assert cls.singular and cls.closed and cls.stable

    def test_open_graph(self):
        # chain: 0-1 and 1-2 joined, 0-2 not: component is not a clique
        pts = np.array([[0.0], [1.2], [2.4]])
        cls = self.classify(pts, EPA, 1.0)
        assert not cls.closed and not cls.singular

    def test_non_truncated_always_stable(self):
        cls = self.classify([[0.0], [2.0]], GAUSS, 1.0)
        assert cls.stable and math.isinf(cls.margin)

    def test_stability_tolerance_override(self):
        h = 1.0
        pts = [[0.0], [EPA.beta * h + 1e-6]]
        assert self.classify(pts, EPA, h).stable
        assert not self.classify(pts, EPA, h, stability_tol=1e-3).stable

    def test_negative_or_nan_stability_tol_rejected_by_name(self):
        # the pair at exactly beta * h has margin 0.0: a tolerance of -1.0
        # called it stable and NaN silently called it unstable
        h = 0.5
        cls = self.classify([[0.0], [EPA.beta * h]], EPA, h, stability_tol=0.0)
        assert cls.margin == 0.0 and not cls.stable
        for kernel in (EPA, GAUSS):
            for tol in (-1.0, math.nan):
                with pytest.raises(ValueError, match="stability_tol"):
                    self.classify([[0.0], [EPA.beta * h]], kernel, h, stability_tol=tol)


    def test_graph_of_another_size_rejected(self):
        graph = bs.build_graph(bs.as_configuration([[0.0], [1.0]]), EPA, 1.0)
        with pytest.raises(ValueError, match="graph has 2 vertices, configuration has 3 points"):
            bs.classify(graph, bs.as_configuration([[0.0], [1.0], [2.0]]), EPA, 1.0)


class TestComponentBound:
    def test_coincident_bound_is_one(self):
        assert bs.component_count_bound(10, 0.0, math.sqrt(2), 1.0, 3) == 1

    def test_packing_value(self):
        beta = math.sqrt(2.0)
        h = 0.5
        assert bs.component_count_bound(10, beta * h, beta, h, 2) == 9

    def test_capped_at_n(self):
        assert bs.component_count_bound(3, 1e9, math.sqrt(2), 1.0, 2) == 3

    def test_overflowing_packing_bound_is_n(self):
        # (1 + 2 gamma / (beta h))^50 exceeds every float here
        assert bs.component_count_bound(10, 1e8, math.sqrt(2), 1.0, 50) == 10
        # a huge but finite bound below n is still the packing bound
        want = math.floor((1.0 + 2.0 * 1e5 / math.sqrt(2)) ** 50)
        assert bs.component_count_bound(10**300, 1e5, math.sqrt(2), 1.0, 50) == want

    def test_non_truncated_bound_is_n(self):
        assert bs.component_count_bound(7, 123.0, math.inf, 1.0, 2) == 7

    def test_never_violated_on_fuzz_corpus(self, fuzz_corpus):
        for kid, _, _, m, bound in fuzz_corpus:
            assert m <= bound, kid


@pytest.mark.parametrize("name,call", [
    ("direction count", lambda: direction_set(2, 2.5)),
    ("d", lambda: bs.component_count_bound(10, 1.0, math.sqrt(2), 1.0, 2.5)),
    ("gamma", lambda: bs.component_count_bound(10, math.nan, math.sqrt(2), 1.0, 2)),
    # bool is an integer type, but True is no count
    ("d", lambda: direction_set(True)),
    ("n", lambda: bs.component_count_bound(True, 1.0, math.sqrt(2), 1.0, 2)),
], ids=["fractional-direction-count", "fractional-dimension", "nan-gamma", "bool-dimension",
        "bool-point-count"])
def test_bad_count_or_distance_rejected_by_name(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


class TestFixedPoint:
    def test_singular_configuration(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
        assert bs.is_fixed_point(pts, EPA, 1.0, tol=0.0)

    def test_equilateral_triangle_in_one_ball_moves(self):
        r = 0.3
        pts = r * np.array([
            [1.0, 0.0],
            [-0.5, math.sqrt(3) / 2],
            [-0.5, -math.sqrt(3) / 2],
        ]) + np.array([2.0, 1.0])
        assert not bs.is_fixed_point(pts, EPA, 1.0, tol=1e-9)
        assert not bs.is_fixed_point(pts, GAUSS, 1.0, tol=1e-9)

    def test_terminal_states_are_exact_fixed_points(self):
        rng = np.random.default_rng(31)
        for kid in ("epanechnikov", "cosine"):
            kernel = bs.builtin(kid)
            pts = rng.uniform(-2, 2, size=(25, 2))
            run = run_bms(pts, kernel, 0.8, stop=StopRule(max_iter=400, move_tol=0.0))
            assert run.stop_reason == "exact_fixed_point"
            assert bs.is_fixed_point(run.final, kernel, 0.8, tol=0.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            bs.is_fixed_point([[0.0]], EPA, 1.0, tol=-1.0)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tol must be non-negative, got nan"):
            bs.is_fixed_point([[0.0]], EPA, 1.0, tol=math.nan)

    def test_agreement_with_singularity(self, fuzz_corpus):
        mismatches = [(kid, s, f) for kid, s, f, _, _ in fuzz_corpus if s != f]
        assert mismatches == []


class TestComponentLocality:
    def test_update_depends_only_on_own_component(self):
        rng = np.random.default_rng(33)
        # two tight groups far from each other and far from the origin
        a = rng.uniform(0, 0.4, size=(6, 2)) + np.array([8.0, 8.0])
        b = rng.uniform(0, 0.4, size=(5, 2)) + np.array([-8.0, -8.0])
        pts = np.vstack([a, b])
        h = 0.9
        g = bs.build_graph(pts, EPA, h)
        assert g.M == 2
        full = bms_step(pts, EPA, h).points
        # moving the other component to the (far) origin leaves the first
        # component's update bitwise unchanged
        masked = pts.copy()
        masked[6:] = 0.0
        masked_step = bms_step(masked, EPA, h).points
        assert np.array_equal(full[:6], masked_step[:6])

    def test_component_hull_shrinks(self):
        rng = np.random.default_rng(34)
        a = rng.uniform(0, 0.5, size=(7, 2)) + np.array([4.0, 0.0])
        b = rng.uniform(0, 0.5, size=(7, 2)) - np.array([4.0, 0.0])
        pts = np.vstack([a, b])
        h = 0.8
        for kernel in (EPA, BIW):
            g = bs.build_graph(pts, kernel, h)
            nxt = bms_step(pts, kernel, h).points
            dirs = direction_set(2, 256)
            for comp in g.components:
                prev_proj = pts[comp] @ dirs.T
                new_proj = nxt[comp] @ dirs.T
                assert np.all(new_proj.min(axis=0) >= prev_proj.min(axis=0) - 1e-12)
                assert np.all(new_proj.max(axis=0) <= prev_proj.max(axis=0) + 1e-12)


class TestStabilityFrequency:
    def test_generic_configurations_are_stable(self):
        # planted boundary pairs aside, the margin test should call most
        # random configurations stable; record the observed frequency
        rng = np.random.default_rng(35)
        stable = 0
        total = 200
        for _ in range(total):
            pts = rng.uniform(-2, 2, size=(int(rng.integers(2, 10)), 2))
            cfg = bs.as_configuration(pts)
            g = bs.build_graph(cfg, EPA, 1.0)
            stable += int(bs.classify(g, cfg, EPA, 1.0).stable)
        assert stable == total
