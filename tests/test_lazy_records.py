"""A run without a sink builds no iteration record; its records are built
on their first read, by running the iteration again, and equal bit for bit
the ones a sink receives."""

import dataclasses
import struct
import sys
import threading

import numpy as np
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
    del declared[:]
    run.records
    assert len(declared) == run.T
    assert all(reads >= engine_mod._RECORD_READS | {"update"} for reads in declared)


@pytest.mark.parametrize("kernel_id", bs.ASSUMPTION1_IDS)
def test_records_read_later_equal_sink_records(kernel_id):
    kernel = bs.builtin(kernel_id)
    for name in INPUTS:
        points = _golden(name)
        streamed = []
        eager = bs.run_bms(points, kernel, H, stop=STOP, sink=streamed.append)
        lazy = bs.run_bms(points, kernel, H, stop=STOP)
        result = bs.cluster(points, kernel, H, stop=STOP)
        want = [_bits(r) for r in streamed]
        assert [_bits(r) for r in eager.records] == want, name
        assert [_bits(r) for r in lazy.records] == want, name
        assert [_bits(r) for r in result.records] == want, name
        for run in (lazy, result.run):
            assert (run.T, run.stop_reason) == (eager.T, eager.stop_reason)
            assert run.final.points.tobytes() == eager.final.points.tobytes()
            assert struct.pack("<d", run.initial_diameter) == \
                struct.pack("<d", streamed[0].diameter)


def test_no_record_kept_without_sink_or_keep_records(monkeypatch):
    run = bs.run_bms(_golden("d2.csv"), EPA, H, stop=STOP, keep_records=False)
    monkeypatch.setattr(engine_mod, "_iterate", None)  # a replay would fail
    assert run.records == []


def test_diverging_replay_raises():
    # a weight function that changes between the run and the replay
    scale = [1.0]
    kernel = dataclasses.replace(bs.builtin("gaussian"), id="drifting",
                                 g=lambda u: np.exp(-u * scale[0]))
    run = bs.run_bms(_golden("d2.csv"), kernel, H, stop=bs.StopRule(max_iter=5))
    scale[0] = 4.0
    with pytest.raises(RuntimeError, match="replaying the run .* diverged"):
        run.records


def test_first_read_from_two_threads(monkeypatch):
    run = bs.run_bms(_golden("d2_large.csv"), EPA, H, stop=STOP)
    replays = []
    real = engine_mod._iterate

    def counting(*args, **kwargs):
        replays.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "_iterate", counting)
    barrier = threading.Barrier(2)
    got = [None, None]

    def read(k):
        barrier.wait()
        got[k] = run.records

    threads = [threading.Thread(target=read, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often within the replay
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(replays) == 1
    assert got[0] is got[1]
    assert len(got[0]) == run.T
