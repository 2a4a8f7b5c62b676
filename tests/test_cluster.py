import math
import re
from pathlib import Path

import numpy as np
import pytest

import blurshift as bs
from blurshift.cluster import _representatives, standardize
from blurshift.engine import StopRule

EPA = bs.builtin("epanechnikov")
GAUSS = bs.builtin("gaussian")
GOLDEN_D2 = Path(__file__).parent / "golden" / "d2.csv"


def blob_pair(seed=42, n_per=40):
    rng = np.random.default_rng(seed)
    a = rng.normal([-2.0, 0.0], 0.3, size=(n_per, 2))
    b = rng.normal([2.0, 0.5], 0.3, size=(n_per, 2))
    return np.vstack([a, b])


class TestCluster:
    def test_two_blobs_two_clusters(self):
        pts = blob_pair()
        result = bs.cluster(pts, EPA, 0.8, stop=StopRule(move_tol=0.0))
        assert result.M == 2
        assert set(result.labels[:40]) == {1}
        assert set(result.labels[40:]) == {2}
        assert result.stop_reason == "exact_fixed_point"
        assert result.representatives.shape == (2, 2)
        assert np.linalg.norm(result.representatives[0] - [-2.0, 0.0]) < 0.3
        assert np.linalg.norm(result.representatives[1] - [2.0, 0.5]) < 0.3
        # the terminal configuration the labels come from; not serialised
        run = bs.run_bms(pts, EPA, 0.8, stop=StopRule(move_tol=0.0))
        assert np.array_equal(result.final.points, run.final.points)
        assert "final" not in result.to_json_dict()

    def test_huge_bandwidth_single_cluster(self):
        result = bs.cluster(blob_pair(), EPA, 50.0)
        assert result.M == 1
        assert set(result.labels) == {1}

    def test_all_separated_immediate_fixed_point(self):
        pts = np.arange(0.0, 50.0, 5.0)[:, None]  # gaps of 5 >> beta*h
        result = bs.cluster(pts, EPA, 1.0)
        assert result.M == len(pts)
        assert result.T == 1
        assert list(result.labels) == list(range(1, len(pts) + 1))

    def test_labels_contiguous_and_ordered(self):
        pts = np.array([[0.0], [100.0], [0.05], [100.05], [200.0]])
        result = bs.cluster(pts, EPA, 1.0)
        assert list(result.labels) == [1, 2, 1, 2, 3]

    def test_coincident_terminal_points_share_labels(self):
        result = bs.cluster(blob_pair(), EPA, 0.8)
        terminal_groups = result.M
        uniq = len(np.unique(result.labels))
        assert terminal_groups == uniq

    def test_permutation_equivariance(self):
        pts = blob_pair(seed=9)
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(pts))
        base = bs.cluster(pts, EPA, 0.8)
        permuted = bs.cluster(pts[perm], EPA, 0.8)
        # same partition after the canonical relabeling
        remap = {}
        for lp, lb in zip(permuted.labels, base.labels[perm]):
            remap.setdefault(lp, lb)
            assert remap[lp] == lb

    def test_translation_invariance(self):
        pts = blob_pair(seed=10)
        shift = np.array([13.5, -7.25])
        base = bs.cluster(pts, EPA, 0.8)
        moved = bs.cluster(pts + shift, EPA, 0.8)
        assert np.array_equal(base.labels, moved.labels)
        assert moved.representatives == pytest.approx(
            base.representatives + shift, abs=1e-9)

    def test_negative_merge_tol_rejected(self):
        with pytest.raises(ValueError):
            bs.cluster(blob_pair(), EPA, 0.5, merge_tol=-1.0)

    def test_nan_merge_tol_rejected(self):
        # a NaN radius joins no pair: every point would be its own cluster
        pts = blob_pair(n_per=20)
        assert bs.cluster(pts, EPA, 0.8).M == 2
        with pytest.raises(ValueError, match="merge_tol must be non-negative, got nan"):
            bs.cluster(pts, EPA, 0.8, merge_tol=float("nan"))
        with pytest.raises(ValueError, match="merge_tol"):
            bs.bandwidth_sweep(pts, EPA, [0.8], merge_tol=float("nan"))

    def test_tiny_bandwidth_rejected_by_name(self):
        # 2*h*h underflows to zero: every profile argument would be 0/0
        with pytest.raises(ValueError, match="bandwidth 1e-170"):
            bs.cluster([[0.0, 0.0], [1e-170, 0.0], [5e-170, 0.0]], EPA, h=1e-170)

    def test_huge_bandwidth_rejected_by_name(self):
        # 2*h*h overflows to inf; the run used to return M=1 silently
        with pytest.raises(ValueError, match="bandwidth 1e[+]?160"):
            bs.cluster([[0.0, 0.0], [1e159, 0.0], [5e160, 0.0], [5.1e160, 0.0]],
                       EPA, h=1e160)

    def test_overflowing_distances_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            bs.cluster([[0.0, 0.0], [1e159, 0.0], [5e160, 0.0], [5.1e160, 0.0]],
                       EPA, h=1e150)

    @pytest.mark.parametrize("kernel_id", ["epanechnikov", "gaussian", "biweight"])
    def test_every_scale_fails_by_name_or_stays_finite(self, kernel_id):
        # tests/golden/d2.csv and h = 1 scaled by 2**k across the float
        # range, every 37th k from -1074 to 1023: a run raises a ValueError
        # that names the bandwidth or the overflow, or it gives finite
        # representatives, merge tolerance and diameters and labels 1..M.
        # 40 steps keep gaussian off its 10 000 default steps
        pts = np.loadtxt(GOLDEN_D2, delimiter=",")
        ran = refused = 0
        for k in range(-1074, 1024, 37):
            try:
                result = bs.cluster(np.ldexp(pts, k), bs.builtin(kernel_id),
                                    math.ldexp(1.0, k), stop=StopRule(max_iter=40))
            except ValueError as err:
                assert re.match(r"bandwidth \S+ is out of range|squared pairwise distances "
                                r"overflow", str(err)), (k, str(err))
                refused += 1
                continue
            diameter = result.run.initial_diameter
            merge_tol = 1e-8 * diameter  # cluster's default
            assert math.isfinite(merge_tol) and math.isfinite(bs.diameter(result.final)), k
            assert np.all(np.isfinite(result.representatives)), k
            assert result.representatives.shape == (result.M, 2), k
            assert np.array_equal(np.unique(result.labels), np.arange(1, result.M + 1)), k
            ran += 1
        assert ran and refused

    def test_records_are_the_runs(self):
        result = bs.cluster(blob_pair(), EPA, 0.8)
        run = bs.run_bms(blob_pair(), EPA, 0.8)
        assert result.records == run.records
        assert result.trace_summary == run.records[-1]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_representatives_are_the_per_cluster_loop(self, d):
        # one stable sort and a mean per slice keep the bits of a mean over
        # each cluster's rows in point order, a cluster of -0.0 points too
        rng = np.random.default_rng(d)
        points = rng.normal(size=(300, d)) * 10.0 ** rng.integers(-3, 4, size=(300, 1))
        groups = rng.integers(0, 17, size=300)
        groups[groups == 16] = 0
        points[groups == 3] = -0.0
        want = np.vstack([points[groups == c].mean(axis=0) for c in range(16)])
        got = _representatives(points, groups)
        assert got.tobytes() == want.tobytes()
        result = bs.cluster(blob_pair(), EPA, 0.8)
        terminal = result.final.points
        assert result.representatives.tobytes() == np.vstack(
            [terminal[result.labels == m].mean(axis=0)
             for m in range(1, result.M + 1)]).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_representatives_are_each_slice_mean_bit_for_bit(self, d):
        # groups of 1 to 1000 rows (numpy sums a lone column pairwise from 8
        # rows, in blocks of 128), one of -0.0 alone, one of +0.0 and -0.0
        # rows, and one of rows of mixed magnitude
        rng = np.random.default_rng([38, d])
        sizes = [1, 2, 7, 8, 9, 130, 1000, 40, 25, 3]
        groups = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        points = rng.normal(size=(groups.size, d)) * 10.0 ** rng.integers(
            -8, 9, size=(groups.size, 1))
        points[groups == 7] = -0.0
        points[groups == 8] = rng.choice([0.0, -0.0], size=(25, d))
        got = _representatives(points, groups)
        order = np.argsort(groups, kind="stable")
        want = np.vstack([part.mean(axis=0) for part in np.split(
            points.take(order, axis=0), np.cumsum(sizes)[:-1])])
        assert got.shape == (len(sizes), d)
        assert got.tobytes() == want.tobytes()

    def test_json_payload(self):
        result = bs.cluster(blob_pair(), EPA, 0.8)
        payload = result.to_json_dict()
        assert set(payload) == {"labels", "representatives", "T", "M",
                                "stop_reason", "h", "kernel"}
        assert payload["kernel"] == "epanechnikov"
        assert all(isinstance(v, int) for v in payload["labels"])
        assert len(payload["representatives"]) == payload["M"]

    def test_smooth_kernel_groups_via_merge_tol(self):
        pts = blob_pair(seed=11)
        result = bs.cluster(pts, GAUSS, 0.4, stop=StopRule(max_iter=400))
        assert result.stop_reason in ("move_tol", "max_iter")
        assert result.M == 2
        assert set(result.labels[:40]) == {1}
        assert set(result.labels[40:]) == {2}


class TestSweep:
    def test_rows_and_monotone_trend(self):
        pts = blob_pair(n_per=25)
        grid = [0.2, 0.5, 1.0, 3.0, 10.0]
        entries = bs.bandwidth_sweep(pts, EPA, grid)
        assert [e.h for e in entries] == grid
        assert entries[-1].M == 1
        assert all(e.T >= 1 for e in entries)
        # trend is reported, not asserted strictly; log it for inspection
        print("sweep M trend:", [(e.h, e.M) for e in entries])

    def test_tiny_bandwidth_isolates_everything(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        for entry in bs.bandwidth_sweep(pts, EPA, [0.05, 0.1]):
            assert entry.M == 4
            assert entry.T == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            bs.bandwidth_sweep(blob_pair(), EPA, [])
        with pytest.raises(ValueError):
            bs.bandwidth_sweep(blob_pair(), EPA, [0.5, -0.5])


class TestStandardize:
    def test_zscore(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(5.0, 2.0, size=(400, 2))
        out, stats = standardize(pts)
        assert out.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-12)
        assert out.std(axis=0) == pytest.approx([1.0, 1.0], abs=1e-12)
        assert stats.inverse(out) == pytest.approx(pts, abs=1e-9)

    def test_already_standardized_is_identity(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(500, 3))
        pts = (pts - pts.mean(axis=0)) / pts.std(axis=0)
        out, _ = standardize(pts)
        assert out == pytest.approx(pts, abs=1e-12)

    def test_constant_axis_rejected(self):
        pts = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.raises(ValueError, match="axis 1"):
            standardize(pts)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            standardize([[1.0, 2.0]])
