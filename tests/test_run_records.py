"""A run builds iteration records only where it is given a sink, each from
the pairwise state of the step it describes; a run without one builds none,
takes the same steps to the same bits, and its ``records`` are ``None``."""

import dataclasses
import struct

import pytest

import blurshift as bs
import blurshift._pairwise as pairwise_mod
import blurshift.engine as engine_mod
from blurshift.io import load_points
from golden.regenerate import H, HERE, INPUTS, MAX_ITER

STOP = bs.StopRule(max_iter=MAX_ITER)
EPA = bs.builtin("epanechnikov")


def _bits(record):
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v
                 for v in dataclasses.astuple(record))


def _golden(name):
    return load_points(HERE / name)


@pytest.mark.parametrize("kernel_id", ["epanechnikov", "gaussian"])
def test_run_without_sink_reads_only_the_update(kernel_id, monkeypatch):
    # step 1 also reads the initial diameter; no later step finds a largest
    # distance (by the prune or per chunk), a largest joined distance or a
    # grouping of the n points, which each step hands to the next
    declared, filled, passes, pruned, groupings = [], [], [], [], []
    real = engine_mod.PairwiseState

    class Watched(real):
        def __init__(self, cfg, kernel, h, reads=frozenset(), distinct=None):
            declared.append(frozenset(reads))
            super().__init__(cfg, kernel, h, reads, distinct)
            filled.append((self._max_sqdist is not None, self._joined_max is not None))

        def _pass(self, reads, *args, **kwargs):
            passes.append(len(declared))
            return super()._pass(reads, *args, **kwargs)

    def counted(calls, fn):
        def wrapper(*args):
            calls.append(len(declared))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(engine_mod, "PairwiseState", Watched)
    monkeypatch.setattr(pairwise_mod, "_pruned_max_sqdist",
                        counted(pruned, pairwise_mod._pruned_max_sqdist))
    monkeypatch.setattr(pairwise_mod.DistinctRows, "__init__",
                        counted(groupings, pairwise_mod.DistinctRows.__init__))
    run = bs.run_bms(_golden("d2_large.csv"), bs.builtin(kernel_id), H, stop=STOP)
    assert run.T > 2 and len(declared) == run.T
    assert declared[0] == {"update", "diameter"}
    assert set(declared[1:]) == {frozenset({"update"})}
    assert filled == [(True, False)] + [(False, False)] * (run.T - 1)
    assert passes == list(range(1, run.T + 1))  # no value read beyond the constructor's pass
    assert set(pruned) <= {1} and groupings == [1]


@pytest.mark.parametrize("kernel_id", bs.ASSUMPTION1_IDS)
def test_sinkless_run_ends_as_the_recorded_run(kernel_id):
    kernel = bs.builtin(kernel_id)
    for name in INPUTS:
        points = _golden(name)
        streamed = []
        eager = bs.run_bms(points, kernel, H, stop=STOP, sink=streamed.append)
        sinkless = bs.run_bms(points, kernel, H, stop=STOP)
        result = bs.cluster(points, kernel, H, stop=STOP)
        assert [_bits(r) for r in eager.records] == [_bits(r) for r in streamed], name
        for run in (sinkless, result.run):
            assert (run.T, run.stop_reason) == (eager.T, eager.stop_reason)
            assert run.final.points.tobytes() == eager.final.points.tobytes()
            assert struct.pack("<d", run.initial_diameter) == \
                struct.pack("<d", streamed[0].diameter)


@pytest.mark.parametrize("kernel_id", ["epanechnikov", "gaussian"])
def test_cluster_records_are_what_its_sink_received(kernel_id):
    kernel = bs.builtin(kernel_id)
    for name in INPUTS:
        points = _golden(name)
        streamed, clustered = [], []
        eager = bs.run_bms(points, kernel, H, stop=STOP, sink=streamed.append)
        recorded = bs.cluster(points, kernel, H, stop=STOP, sink=clustered.append)
        assert [_bits(r) for r in recorded.records] == [_bits(r) for r in clustered] \
            == [_bits(r) for r in streamed], name
        assert recorded.records is recorded.run.records
        assert recorded.run.final.points.tobytes() == eager.final.points.tobytes()


@pytest.mark.parametrize("keep_records", [True, False])
def test_sinkless_run_has_no_records(keep_records, monkeypatch):
    run = bs.run_bms(_golden("d2.csv"), EPA, H, stop=STOP, keep_records=keep_records)
    result = bs.cluster(_golden("d2.csv"), EPA, H, stop=STOP)
    monkeypatch.setattr(engine_mod, "_iterate", None)  # a second run would fail
    assert run.records is None
    assert result.records is None and result.trace_summary is None
