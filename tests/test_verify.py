import hashlib
import tracemalloc

import numpy as np
import pytest

import blurshift as bs
from blurshift import verify
from blurshift._pairwise import _BLOCK_ENTRIES
from blurshift.engine import StopRule, run_bms
from blurshift.kernels import TruncationClass
from blurshift.verify import (DEFAULT_DIRECTION_SEED, _below, _distinct_rows, _fuzz_probes,
                             _fuzz_streams, run_verify)

from conftest import fuzz_probes, split_probes
from synth_data import make_dataset


def blob_points(n=80):
    pts, _ = make_dataset("two_blobs", n=n)
    return pts


class TestRunVerify:
    def test_flat_kernel_run_passes(self):
        report = run_verify(blob_points(), bs.builtin("epanechnikov"), 1.5,
                            fuzz=100, stop=StopRule(move_tol=0.0))
        assert report.passed
        assert report.stop_reason == "exact_fixed_point"
        assert report.fuzz_mismatches == 0
        names = {c.name for c in report.checks}
        assert {"objective_ascent", "minorizer_improvement", "minorizer_sandwich",
                "interval_nesting", "diameter_monotone", "diameter_contraction",
                "component_count_bound", "gradient_move_bound",
                "terminal_fixed_point_singular",
                "fixed_point_graph_agreement"} == names

    def test_gaussian_long_run_passes(self):
        # force all 200 iterations even after the configuration freezes
        rng = np.random.default_rng(0x5EED)
        pts = rng.uniform(-2, 2, size=(500, 2))
        report = run_verify(pts, bs.builtin("gaussian"), 0.9,
                            stop=StopRule(max_iter=200, move_tol=0.0,
                                          exact_fixed_point=False))
        assert report.passed
        assert report.total_steps == 200

    def test_every_admissible_kernel_passes(self):
        pts = blob_points(40)
        for kid in bs.ASSUMPTION1_IDS:
            report = run_verify(pts, bs.builtin(kid), 1.2,
                                stop=StopRule(max_iter=60))
            assert report.passed, (kid, [c.name for c in report.checks if not c.passed])

    def test_injected_descent_is_caught(self):
        report = run_verify(blob_points(), bs.builtin("epanechnikov"), 1.5,
                            inject_descent=True)
        assert not report.passed
        failed = [c.name for c in report.checks if not c.passed]
        assert "objective_ascent" in failed

    def test_gradient_bound_skipped_for_sharp_truncation(self):
        report = run_verify(blob_points(40), bs.builtin("epanechnikov"), 1.0)
        check = {c.name: c for c in report.checks}["gradient_move_bound"]
        assert check.passed and check.worst_slack is None

    def test_stability_frequencies_recorded(self):
        report = run_verify(blob_points(40), bs.builtin("epanechnikov"), 1.0)
        assert 0 <= report.stable_steps <= report.total_steps
        assert report.total_steps == report.T

    def test_report_serializes(self):
        import json

        report = run_verify(blob_points(30), bs.builtin("biweight"), 1.0,
                            stop=StopRule(max_iter=20), fuzz=10)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["passed"] is True
        assert payload["fuzz_cases"] == 10
        assert len(payload["checks"]) == 10


class TestOneDriver:
    """run_verify observes the steps of run_bms's driver."""

    STOP_RULES = {
        "default": StopRule(),
        "move_tol=0": StopRule(move_tol=0.0, max_iter=300),
        "max_iter=3": StopRule(max_iter=3),
        "no exact fixed point": StopRule(exact_fixed_point=False),
    }

    def test_stop_reason_and_T_match_run_bms(self):
        pts = np.random.default_rng(3).uniform(-1.5, 1.5, size=(24, 2))
        reasons = set()
        for kid in bs.ASSUMPTION1_IDS:
            kernel = bs.builtin(kid)
            for name, stop in self.STOP_RULES.items():
                run = run_bms(pts, kernel, 0.7, stop=stop)
                report = run_verify(pts, kernel, 0.7, stop=stop, directions=16)
                assert (report.stop_reason, report.T) == (run.stop_reason, run.T), (kid, name)
                assert report.total_steps == run.T
                assert report.stable_steps == sum(r.stable for r in run.records)
                reasons.add(run.stop_reason)
        assert reasons == {"exact_fixed_point", "move_tol", "max_iter"}

    def test_one_step_closes_every_transition_check(self):
        report = run_verify(blob_points(40), bs.builtin("biweight"), 1.2,
                            stop=StopRule(max_iter=1))
        assert report.T == 1 and report.stop_reason == "max_iter"
        steps = {c.name: c.step for c in report.checks}
        for name in ("objective_ascent", "minorizer_improvement", "minorizer_sandwich",
                     "interval_nesting", "diameter_monotone", "diameter_contraction"):
            assert steps[name] == 1, name

    def test_injected_descent_on_the_last_step_is_caught(self):
        # step 2's ascent check needs the objective of the final configuration,
        # which only the close after the loop supplies
        kernel = bs.builtin("biweight")
        assert run_bms(blob_points(), kernel, 1.2).T > 2
        report = run_verify(blob_points(), kernel, 1.2,
                            stop=StopRule(max_iter=2), inject_descent=True)
        assert report.T == 2 and report.stop_reason == "max_iter"
        ascent = {c.name: c for c in report.checks}["objective_ascent"]
        assert not ascent.passed
        assert ascent.step == 2

    def test_bad_counts_rejected_by_name(self):
        pts = blob_points(20)
        with pytest.raises(ValueError, match="fuzz must be non-negative, got -3"):
            run_verify(pts, bs.builtin("epanechnikov"), 1.5, fuzz=-3)
        for count in (0, -3):
            with pytest.raises(ValueError, match=f"directions must be at least 1, got {count}"):
                run_verify(pts, bs.builtin("epanechnikov"), 1.5, directions=count)

    def test_fractional_fuzz_rejected_by_name(self):
        with pytest.raises(ValueError, match="fuzz must be an integer, got 2.5"):
            run_verify(blob_points(20), bs.builtin("epanechnikov"), 1.5, fuzz=2.5)

    def test_fractional_directions_rejected_by_name(self):
        with pytest.raises(ValueError, match="directions must be an integer, got 2.5"):
            run_verify(blob_points(20), bs.builtin("epanechnikov"), 1.5, directions=2.5)

    @pytest.mark.parametrize("name", ["directions", "fuzz"])
    def test_bool_count_rejected_by_name(self, name):
        # bool is an integer type: directions=True would reach numpy's
        # direction sampling and fail there with a TypeError
        with pytest.raises(ValueError, match=f"{name} must be an integer, got True"):
            run_verify(blob_points(20), bs.builtin("epanechnikov"), 1.5, **{name: True})

    def test_overflowing_component_bound_passes(self):
        # 20 points spread over [0, 1000]^50 at h = 1e-3: the packing bound
        # (1 + 2 gamma / (beta h))^50 exceeds every float, so the bound is n
        pts = np.random.default_rng(0).uniform(0.0, 1000.0, size=(20, 50))
        report = run_verify(pts, bs.builtin("epanechnikov"), 1e-3, fuzz=2)
        assert report.passed
        bound = {c.name: c for c in report.checks}["component_count_bound"]
        assert bound.passed and bound.worst_slack is not None

    def test_kernel_without_positive_g0_rejected_by_name(self):
        # the move-per-gradient and contraction constants divide by g(0)
        flat = bs.kernel_from_descriptor({
            "id": "flat-start", "samples": {"u": [0.0, 1.0, 2.0], "k": [1.0, 1.0, 0.0]},
            "beta": 2.0, "class": "smoothly_truncated"})
        for kernel in (bs.builtin("tricube"), flat):
            with pytest.raises(ValueError, match=rf"kernel '{kernel.id}' has g\(0\) = -?0\.0"):
                run_verify(blob_points(20), kernel, 1.5)


# tracemalloc peak of run_verify at n=300 when it ran its own copy of the
# iteration loop (measured at 8714ef6); keeping one more 300 x 300 float
# array alive between steps would add 720,000 bytes
OWN_LOOP_VERIFY_PEAK_BYTES = {"biweight": 3_226_795, "gaussian": 3_037_933}


@pytest.mark.parametrize("kernel_id", sorted(OWN_LOOP_VERIFY_PEAK_BYTES))
def test_run_verify_peak_memory_within_own_loop(kernel_id):
    kernel = bs.builtin(kernel_id)
    pts = np.random.default_rng(7).uniform(-2.0, 2.0, size=(300, 2))
    run_verify(pts, kernel, 0.8, stop=StopRule(max_iter=3))  # warm-up
    tracemalloc.start()
    try:
        run_verify(pts, kernel, 0.8, stop=StopRule(max_iter=30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * OWN_LOOP_VERIFY_PEAK_BYTES[kernel_id]



def test_fuzz_peak_memory_does_not_grow_with_probes():
    # the probes are evaluated in batches of a fixed size, so ten times the
    # probes add at most a block of float64 (how the batches' dimensions
    # mix moves the peak a little) to the peak of run_verify on one point
    kernel = bs.builtin("biweight")
    run_verify([[0.0, 0.0]], kernel, 0.8, fuzz=10)  # warm-up
    peaks = []
    for fuzz in (400, 4000):
        tracemalloc.start()
        try:
            run_verify([[0.0, 0.0]], kernel, 0.8, fuzz=fuzz)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 8 * _BLOCK_ENTRIES

# sha256 of the first 400 fuzz probes (shape and bytes of each, in probe
# order, drawn in run_verify's two batches of 200) and of the state of
# each of the three child streams after them, drawn from run_verify's
# default seed at h = 0.8; the smoothly truncated biweight draws from 4
# offsets of the joining radius and the non-smoothly truncated
# epanechnikov from 7
FUZZ_STREAM_SHA256 = {
    "biweight": "1f9ca5dfbd5badc39a909a64b7c13533195bce09d2b0c6b4520fa02539158cac",
    "epanechnikov": "c0217e673e25d590837dc6c39f75369ba6ba9b9d342f421dd9fc5a619dfbdceb",
}


@pytest.mark.parametrize("kernel_id", sorted(FUZZ_STREAM_SHA256))
def test_fuzz_probes_keep_their_streams(kernel_id):
    streams = _fuzz_streams(DEFAULT_DIRECTION_SEED)
    digest = hashlib.sha256()
    for _ in range(2):
        for pts in split_probes(*_fuzz_probes(streams, 200, bs.builtin(kernel_id), 0.8)):
            digest.update(repr(pts.shape).encode())
            digest.update(pts.tobytes())
    for stream in streams:
        digest.update(repr(stream.bit_generator.state).encode())
    assert digest.hexdigest() == FUZZ_STREAM_SHA256[kernel_id]


def _fields(seed, count: int, kernel):
    # what row k of the fields stream's block of uniforms decides for probe
    # k: its duplicate's flag and rows, and its radius pair's flag, offset
    # and rows
    u = _fuzz_streams(seed)[0].random((count, 9))
    n = 2 + _below(u[:, 0], 11)
    offsets = np.array(verify._EDGE_OFFSETS
                       if kernel.truncation is TruncationClass.NON_SMOOTHLY_TRUNCATED
                       else verify._SMOOTH_OFFSETS)
    return (u[:, 2] < 0.3, _distinct_rows(u[:, 3:5], n), (u[:, 5] < 0.6) & kernel.truncated,
            offsets[_below(u[:, 6], offsets.size)], _distinct_rows(u[:, 7:9], n))


def _same(a, b) -> bool:
    return [(p.shape, p.tobytes()) for p in a] == [(p.shape, p.tobytes()) for p in b]


@pytest.mark.parametrize("kernel_id", ["biweight", "epanechnikov", "gaussian"])
def test_fuzz_probes_do_not_depend_on_the_count(kernel_id):
    # the first m probes of N are the m probes drawn alone, and probes drawn
    # in batches of any cut are the probes drawn at once
    kernel = bs.builtin(kernel_id)
    every = fuzz_probes(3, 300, kernel, 0.8)
    for m in (1, 7, 150):
        assert _same(fuzz_probes(3, m, kernel, 0.8), every[:m])
    streams = _fuzz_streams(3)
    cut = [pts for count in (1, 99, 200)
           for pts in split_probes(*_fuzz_probes(streams, count, kernel, 0.8))]
    assert _same(cut, every)


def test_fuzz_probes_take_every_size_and_dimension():
    shapes = {pts.shape for pts in fuzz_probes(DEFAULT_DIRECTION_SEED, 2000,
                                                bs.builtin("biweight"), 0.8)}
    assert shapes == {(n, d) for n in range(2, 13) for d in range(1, 5)}


@pytest.mark.parametrize("kernel_id", ["biweight", "epanechnikov", "gaussian"])
def test_planted_duplicates_are_their_source_rows(kernel_id):
    kernel = bs.builtin(kernel_id)
    duplicate, rows, plant, _, planted = _fields(5, 1000, kernel)
    probes = fuzz_probes(5, 1000, kernel, 0.8)
    seen = 0
    for k in np.flatnonzero(duplicate).tolist():
        i, j = rows[k]
        if plant[k] and planted[k, 1] in (i, j):
            continue  # the radius pair, planted after it, moved one of its rows
        assert probes[k][j].tobytes() == probes[k][i].tobytes()
        seen += 1
    assert seen > 200  # of about 300 duplicates


@pytest.mark.parametrize("h", [1e-3, 0.8, 1e3])
@pytest.mark.parametrize("kernel_id", ["biweight", "epanechnikov"])
def test_planted_pairs_lie_at_the_offset_radius(kernel_id, h):
    kernel = bs.builtin(kernel_id)
    radius = kernel.beta * h
    *_, plant, offset, rows = _fields(6, 1000, kernel)
    probes = fuzz_probes(6, 1000, kernel, h)
    for k in np.flatnonzero(plant).tolist():
        i, j = rows[k]
        gap = probes[k][j] - probes[k][i]
        distance = float(np.sqrt(np.sum(gap * gap)))
        # the rounding of the direction, of the point it is added to (up to
        # 1.5 radius per coordinate) and of the difference taken back
        assert abs(distance - radius * (1.0 + offset[k])) <= 8 * np.finfo(float).eps * radius
    assert 500 <= np.count_nonzero(plant) <= 700
    # a non-smoothly truncated kernel plants pairs at the radius itself
    assert (0.0 in offset[plant]) == (kernel_id == "epanechnikov")


def test_full_support_kernel_plants_no_radius_pair():
    # every probe holds the coordinates stream's next n*d uniforms, but for
    # the duplicate
    kernel = bs.builtin("gaussian")
    duplicate, rows, *_ = _fields(7, 1000, kernel)
    coords = _fuzz_streams(7)[1]
    for k, pts in enumerate(fuzz_probes(7, 1000, kernel, 0.8)):
        want = coords.uniform(-1.5, 1.5, size=pts.shape) * 0.8
        if duplicate[k]:
            want[rows[k, 1]] = want[rows[k, 0]]
        assert pts.tobytes() == want.tobytes()
