"""States built in a batch (``PairwiseState.batch``, one pass over many small
configurations stacked) are bit for bit the states built one at a time, and
``run_verify``'s fuzz stage, which builds its probes in batches, reports what
a probe-by-probe loop reports."""

import struct

import numpy as np
import pytest

import blurshift as bs
from blurshift._pairwise import PairwiseState
from blurshift.engine import StopRule
from blurshift.verify import _fuzz_configuration, run_verify

from synth_data import make_dataset

_KERNEL_IDS = (*bs.ASSUMPTION1_IDS, "tricube")  # tricube: g(0) = 0 keeps coincident points apart
_BANDWIDTHS = (1e-3, 0.8, 1e3)


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def _array_bits(values):
    return None if values is None else values.tobytes()


def _probes(kernel, h):
    """Fuzz probes until every n in 2..12 and d in 1..4 has come, with the
    duplicates and radius pairs they plant, then a single point and a
    configuration of 128 points, whose pairs fill several chunks of the
    stack's pass."""
    rng = np.random.default_rng(11)
    configs, shapes = [], set()
    while len(shapes) < 11 * 4:
        configs.append(_fuzz_configuration(rng, kernel, h))
        shapes.add(configs[-1].shape)
    radius = kernel.beta * h if kernel.truncated else h
    wide = rng.uniform(-6.0, 6.0, size=(128, 2)) * radius
    wide[1::7] = wide[::7][:wide[1::7].shape[0]]  # coincident points
    return configs + [rng.uniform(-1.0, 1.0, size=(1, 3)) * radius, wide]


def _fields(state):
    filled = {"moments": _array_bits(state._moments), "degrees": _array_bits(state._degree),
              "roots": _array_bits(state._roots)}
    try:
        update = state.update().tobytes()
    except ValueError as exc:  # g(0) = 0 leaves an isolated point no weight
        update = str(exc)
    tol = 1e-12 * max(state.diameter, state.h)
    return {
        **filled, "diameter": _bits(state.diameter), "joined_max": _bits(state._joined_max),
        "singular": state.singular, "labels": state.labels.tobytes(), "M": state.M,
        "moments_by_point": state.moments().tobytes(), "fixed": state.is_fixed_point(tol),
        "update": update, "closed": state.closed,
        "component_diameter": _bits(state.component_diameter),
    }


def _own_pass_fields(state):
    # the reads a batch leaves to each state's own pass
    return {
        "objective": _bits(state.objective), "margin": _bits(state.margin),
        "boundary_hit": state.boundary_hit, "stable": state.stable(),
        "gap": _bits(state.minorizer_gap(0.5 * state.cfg.points)),
    }


@pytest.mark.parametrize("h", _BANDWIDTHS)
@pytest.mark.parametrize("kernel_id", _KERNEL_IDS)
def test_batch_gives_each_state_alone(kernel_id, h):
    kernel = bs.builtin(kernel_id)
    configs = _probes(kernel, h)
    reads = {"update", "moments", "labels"}
    batch = PairwiseState.batch(configs, kernel, h, reads)
    assert len(batch) == len(configs)
    for cfg, state in zip(configs, batch):
        assert state.cfg.points.tobytes() == cfg.tobytes()
        assert state._moments is not None and state._update is not None
        assert _fields(state) == _fields(PairwiseState(cfg, kernel, h, reads))


@pytest.mark.parametrize("kernel_id", _KERNEL_IDS)
def test_batch_reads_left_out_come_from_each_state(kernel_id):
    kernel, h = bs.builtin(kernel_id), 0.8
    configs = _probes(kernel, h)
    for cfg, state in zip(configs, PairwiseState.batch(configs, kernel, h, {"moments"})):
        assert state._roots is None and state._update is None
        alone = PairwiseState(cfg, kernel, h, {"moments"})
        assert _own_pass_fields(state) == _own_pass_fields(alone)
        assert _fields(state) == _fields(alone)


def test_batch_rejects_configurations_past_one_block():
    kernel = bs.builtin("epanechnikov")
    with pytest.raises(ValueError, match="at most 128 points, got 129"):
        PairwiseState.batch([np.zeros((2, 2)), np.zeros((129, 2))], kernel, 0.8)


def test_batch_overflow_fails_by_name():
    kernel = bs.builtin("gaussian")
    with pytest.raises(ValueError, match="squared pairwise distances overflow"):
        PairwiseState.batch([np.zeros((2, 1)), [[0.0], [1e155], [5e160]]], kernel, 1e150)


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("kernel_id", ("epanechnikov", "biweight", "three_halves", "gaussian"))
def test_run_verify_matches_probe_by_probe_loop(kernel_id, seed, monkeypatch):
    kernel = bs.builtin(kernel_id)
    pts, _ = make_dataset("two_blobs", n=24)
    kwargs = dict(seed=seed, fuzz=400, stop=StopRule(max_iter=4))  # 6 whole batches and a part
    batched = run_verify(pts, kernel, 0.8, **kwargs).to_json_dict()

    def one_by_one(cls, configs, kernel, h, reads=frozenset()):
        return [cls(cfg, kernel, h, reads) for cfg in configs]

    monkeypatch.setattr(PairwiseState, "batch", classmethod(one_by_one))
    assert batched == run_verify(pts, kernel, 0.8, **kwargs).to_json_dict()
