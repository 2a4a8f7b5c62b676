"""``PairwiseState.batch`` (one pass over many small configurations stacked)
gives, bit for bit, what each configuration's own state gives, as arrays in
input order, and ``run_verify``'s fuzz stage, which checks its probes through
it, reports what a loop over each probe's own state reports."""

import json

import numpy as np
import pytest

import blurshift as bs
from blurshift import verify
from blurshift._pairwise import PairwiseState
from blurshift.engine import StopRule
from blurshift.graph import component_count_bound
from blurshift.verify import run_verify

from conftest import batch_in_order, fuzz_probes
from synth_data import make_dataset

_KERNEL_IDS = (*bs.ASSUMPTION1_IDS, "tricube")  # tricube: g(0) = 0 keeps coincident points apart
_BANDWIDTHS = (1e-3, 0.8, 1e3)


def _probes(kernel, h):
    """Fuzz probes until every n in 2..12 and d in 1..4 has come, with the
    duplicates and radius pairs they plant, then a single point and a
    configuration of 128 points, whose pairs fill several chunks of the
    stack's pass."""
    configs, shapes = [], set()
    for pts in fuzz_probes(11, 2000, kernel, h):
        configs.append(pts)
        shapes.add(pts.shape)
        if len(shapes) == 11 * 4:
            break
    rng = np.random.default_rng(11)
    return configs + [_spread(rng, kernel, h, 1, 3), _spread(rng, kernel, h, 128, 2)]


def _spread(rng, kernel, h, n, d):
    # n points over 12 joining radii in each of d axes, every seventh
    # coinciding with the one before it
    radius = kernel.beta * h if kernel.truncated else h
    points = rng.uniform(-6.0, 6.0, size=(n, d)) * radius
    points[1::7] = points[::7][:points[1::7].shape[0]]
    return points


def _alone(cfg, kernel, h):
    # what the fuzz stage reads of a configuration's own state
    state = PairwiseState(cfg, kernel, h)
    moments = state.moments()
    return (state.n, state.cfg.d, state.diameter, state.singular,
            float(np.max(np.sqrt(np.add.reduce(moments * moments, axis=1)))), state.M)


def _assert_batch_gives_each_state_alone(configs, kernel, h):
    values = batch_in_order(configs, kernel, h)
    assert [v.shape for v in values] == [(len(configs),)] * len(values)
    assert values.singular.dtype == bool
    got = [tuple(v[k].tobytes() for v in values) for k in range(len(configs))]
    want = [tuple(np.array(v).astype(w.dtype).tobytes()
                  for v, w in zip(_alone(cfg, kernel, h), values)) for cfg in configs]
    assert got == want
    # the fixed-point test the norms stand for
    for k in (0, 1, len(configs) - 1):
        state = PairwiseState(configs[k], kernel, h)
        for tol in (0.0, 1e-12 * max(state.diameter, h), values.moment_norm[k]):
            assert state.is_fixed_point(tol) == (values.moment_norm[k] <= tol)


@pytest.mark.parametrize("h", _BANDWIDTHS)
@pytest.mark.parametrize("kernel_id", _KERNEL_IDS)
def test_batch_gives_each_state_alone(kernel_id, h):
    kernel = bs.builtin(kernel_id)
    _assert_batch_gives_each_state_alone(_probes(kernel, h), kernel, h)


@pytest.mark.parametrize("kernel_id", _KERNEL_IDS)
def test_batch_gives_each_state_alone_at_every_size(kernel_id):
    # every n from 1 to 128 in every d from 1 to 4, the dimensions interleaved
    kernel, h = bs.builtin(kernel_id), 0.8
    rng = np.random.default_rng(12)
    configs = [_spread(rng, kernel, h, n, d) for n in range(1, 129) for d in range(1, 5)]
    _assert_batch_gives_each_state_alone(configs, kernel, h)


@pytest.mark.parametrize("size", (129, 0))
def test_batch_rejects_configurations_past_one_block(size):
    kernel = bs.builtin("epanechnikov")
    with pytest.raises(ValueError, match=f"1 to 128 points, got {size}"):
        PairwiseState.batch([np.zeros((2, 1)), np.zeros((size + 2, 2))], [[2], [2, size]],
                            kernel, 0.8)


def test_batch_of_no_stack_gives_no_values():
    values = PairwiseState.batch([], [], bs.builtin("biweight"), 0.8)
    assert [(v.shape, v.dtype.kind) for v in values] == [
        ((0,), kind) for kind in ("i", "i", "f", "b", "f", "i")]


def test_batch_overflow_fails_by_name():
    kernel = bs.builtin("gaussian")
    with pytest.raises(ValueError, match="squared pairwise distances overflow"):
        PairwiseState.batch([[[0.0], [0.0], [0.0], [1e155], [5e160]]], [[2, 3]], kernel, 1e150)


@pytest.mark.parametrize("bad, sizes, message", [
    (np.zeros((0, 2)), [], r"expected an \(n, d\) array of points, got shape \(0, 2\)"),
    ([[0.0, 1.0], [np.nan, 0.0]], [2], "non-finite coordinates"),
    (np.array([[1j, 0.0], [0.0, 1.0]]), [2], "real coordinates, got an array of dtype complex128"),
    (np.zeros((5, 2)), [2, 2], "configurations of 4 points in all stacked in 5 rows"),
])
def test_batch_validates_each_stack(bad, sizes, message):
    kernel = bs.builtin("biweight")
    with pytest.raises(ValueError, match=message):
        PairwiseState.batch([np.ones((3, 2)), bad], [[3], sizes], kernel, 0.8)


def _probe_by_probe(kernel, h, seed, fuzz):
    """The fuzz stage as a loop over each probe's own state: its mismatches
    and its smallest component-count slack."""
    mismatches, slack = 0, None
    for pts in fuzz_probes(seed, fuzz, kernel, h):
        state = PairwiseState(pts, kernel, h)
        fixed = state.is_fixed_point(tol=1e-12 * max(state.diameter, h))
        mismatches += fixed != state.singular
        bound = component_count_bound(state.n, state.diameter, kernel.beta, h, state.cfg.d)
        slack = bound - state.M if slack is None else min(slack, bound - state.M)
    return mismatches, slack


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("kernel_id", ("epanechnikov", "biweight", "three_halves", "gaussian"))
def test_run_verify_matches_probe_by_probe_loop(kernel_id, seed):
    kernel, h = bs.builtin(kernel_id), 0.8
    pts, _ = make_dataset("two_blobs", n=24)
    kwargs = dict(seed=seed, stop=StopRule(max_iter=4))
    fuzzed = run_verify(pts, kernel, h, fuzz=400, **kwargs).to_json_dict()  # a batch and a part

    # the steps' report, with the fuzz stage's entries from the loop
    expected = run_verify(pts, kernel, h, fuzz=0, **kwargs).to_json_dict()
    mismatches, slack = _probe_by_probe(kernel, h, seed, 400)
    expected.update(fuzz_cases=400, fuzz_mismatches=mismatches)
    for check in expected["checks"]:
        if check["name"] == "component_count_bound" and slack < check["worst_slack"]:
            check.update(worst_slack=float(slack), step=-1, passed=slack >= 0)
        if check["name"] == "fixed_point_graph_agreement":
            check.update(worst_slack=-float(mismatches) if mismatches else 0.0,
                         step=-1, passed=not mismatches)
    expected["passed"] = all(check["passed"] for check in expected["checks"])
    assert fuzzed == expected


def test_fuzz_stage_builds_no_state_per_probe(monkeypatch):
    built = []

    class Counted(PairwiseState):
        def __new__(cls, *args, **kwargs):
            built.append(cls)
            return super().__new__(cls)

    monkeypatch.setattr(verify, "PairwiseState", Counted)
    kernel, counts = bs.builtin("biweight"), []
    for fuzz in (0, 400):
        built.clear()
        run_verify([[0.0, 0.0], [0.1, 0.0]], kernel, 0.8, fuzz=fuzz)
        counts.append(len(built))
    # at most one stack per dimension (1 to 4) in each of the 2 batches
    assert 0 < counts[1] - counts[0] <= 4 * 2


@pytest.mark.parametrize("kernel_id", ("epanechnikov", "biweight", "gaussian"))
def test_fuzz_report_does_not_depend_on_the_batch_size(kernel_id, monkeypatch):
    # one probe per batch, the old 64 and the cap: the same report bytes
    kernel, reports = bs.builtin(kernel_id), set()
    pts, _ = make_dataset("two_blobs", n=24)
    for size in (1, 64, verify._FUZZ_BATCH):
        monkeypatch.setattr(verify, "_FUZZ_BATCH", size)
        report = run_verify(pts, kernel, 0.8, fuzz=400, stop=StopRule(max_iter=4))
        reports.add(json.dumps(report.to_json_dict()))
    assert len(reports) == 1
