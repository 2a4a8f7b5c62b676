"""The row length from which a block pass runs its broadcasts unbuffered.

    python bench/unbuffered_rows.py [--rows 16 32 ... 512] [--out BENCH_35.json]

numpy copies each broadcast operand of a ufunc into buffers of
``np.getbufsize()`` entries; inside ``blurshift._pairwise._unbuffered`` it
runs them one row at a time instead, which pays on long rows and loses on
short ones.  A pass of ``PairwiseState`` over row blocks fills a block
unbuffered where its rows hold at least ``_UNBUFFERED_ROW`` entries,
and ``diagnostics._extents`` does so for m directions a row.  This script
measures that threshold.

For each row length r of ``--rows`` it times, with the scope forced on
(``_UNBUFFERED_ROW`` = 0) and forced off (inf) in turn:
- ``update``: the update pass of r points of ``bench/scaling.py``'s four
  blobs at its ``H``, with gaussian (row blocks r entries wide);
- ``grouped``: the same r positions, each held by 4 points, so that the
  pass runs 4 r j-rows of r entries (the row blocks forced);
- ``verify``: ``run_verify``'s constructor of a step, with biweight and
  with epanechnikov, whose weights are a bool cast to float, which numpy
  buffers whatever the scope (the row blocks forced);
- ``gap``: the minorizer gap's pass of the r points to themselves, with
  gaussian, biweight and epanechnikov (the row blocks forced);
- ``extents``: ``_extents`` of 260 blob points onto r directions.

A case's row length is the shortest row of the blocks it filled.  Each
time is the best of ``REPEATS`` runs of as many calls as take
``MIN_TIME`` seconds, the two modes alternating.  A threshold loses
``sum(t_pick / t_fastest - 1)`` over the cases, t_pick being the time of
the mode it picks for a case's row length, so a near tie costs little
whichever way it goes.  The threshold reported is the measured row length
that loses least (the shortest on a tie); it goes in
``_pairwise._UNBUFFERED_ROW``.  The script prints one JSON object: the
threshold, the committed one, what each loses, the host and every case;
``--out`` also writes it under the key ``unbuffered_rows`` of a JSON file,
keeping the file's other keys.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

import scaling  # bench/scaling.py: the same points and bandwidth

import blurshift as bs
from blurshift import _pairwise
from blurshift.diagnostics import _extents, direction_set

ROWS = (16, 24, 32, 48, 64, 96, 128, 160, 192, 256, 384, 512)
REPEATS = 7
MIN_TIME = 0.005
GROUP = 4  # points per position of the grouped case
EXTENT_POINTS = 260
VERIFY_READS = {"diameter", "objective", "stable", "labels", "update"}


@contextlib.contextmanager
def scoped(threshold: float, source: str | None = None):
    """Run with ``_UNBUFFERED_ROW = threshold`` and, given ``source``, every
    pass forced to it; yields the row lengths that the blocks asked for."""
    rows, enter = [], _pairwise._unbuffered

    def recorded(row):
        rows.append(row)
        return enter(row)

    saved = _pairwise._UNBUFFERED_ROW, _pairwise._ENTRY_COST
    _pairwise._UNBUFFERED_ROW, _pairwise._unbuffered = threshold, recorded
    if source is not None:
        _pairwise._ENTRY_COST = {name: 0.0 if name == source else math.inf
                                 for name in _pairwise._ENTRY_COST}
    try:
        yield rows
    finally:
        (_pairwise._UNBUFFERED_ROW, _pairwise._ENTRY_COST), _pairwise._unbuffered = saved, enter


def calls_for(call) -> int:
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            call()
        if time.perf_counter() - start >= MIN_TIME:
            return calls
        calls *= 2


def timed(call, source: str | None) -> dict:
    """The best seconds of a call with the scope forced on and off, and the
    shortest row it filled."""
    with scoped(0, source) as rows:
        call()
    calls = calls_for(call)
    best = {"on": math.inf, "off": math.inf}
    for _ in range(REPEATS):
        for mode, threshold in (("on", 0), ("off", math.inf)):
            with scoped(threshold, source):
                start = time.perf_counter()
                for _ in range(calls):
                    call()
                best[mode] = min(best[mode], (time.perf_counter() - start) / calls)
    return {"row": min(rows), "on_us": round(1e6 * best["on"], 2),
            "off_us": round(1e6 * best["off"], 2), "ratio": round(best["on"] / best["off"], 4)}


def cases(r: int):
    """``(name, call, source)`` of every case at row length ``r``."""
    gaussian = bs.builtin("gaussian")
    points = scaling.blobs(r)
    grouped = np.repeat(points, GROUP, axis=0)
    dirs = direction_set(2, r)
    extent_points = scaling.blobs(EXTENT_POINTS)
    out = [
        ("update", lambda: _pairwise.PairwiseState(points, gaussian, scaling.H, {"update"}),
         None),
        ("grouped", lambda: _pairwise.PairwiseState(grouped, gaussian, scaling.H, {"update"}),
         "rows"),
        ("extents", lambda: _extents(extent_points, dirs), None),
    ]
    for name in ("biweight", "epanechnikov"):
        kernel = bs.builtin(name)
        out.append((f"verify/{name}", lambda kernel=kernel: _pairwise.PairwiseState(
            points, kernel, scaling.H, VERIFY_READS), "rows"))
    for name in ("gaussian", "biweight", "epanechnikov"):
        kernel = bs.builtin(name)
        out.append((f"gap/{name}", lambda kernel=kernel: _pairwise.PairwiseState(
            points, kernel, scaling.H).minorizer_gap(points), "rows"))
    return out


def loss(measured: list[dict], row: float) -> float:
    """What the rule with the threshold ``row`` loses against the faster
    mode of each case: ``sum(t_pick / t_fastest - 1)``."""
    return sum((case["on_us"] if case["row"] >= row else case["off_us"])
               / min(case["on_us"], case["off_us"]) - 1.0 for case in measured)


def threshold(measured: list[dict]) -> int | None:
    """The measured row length that loses least as the threshold, the
    shortest on a tie; None where never running unbuffered loses least."""
    rows = sorted({case["row"] for case in measured})
    best = min([*rows, math.inf], key=lambda row: loss(measured, row))
    return None if math.isinf(best) else best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, nargs="+", default=list(ROWS),
                        help="row lengths to time (default: %(default)s)")
    parser.add_argument("--out", type=Path,
                        help="JSON file whose unbuffered_rows key to write")
    args = parser.parse_args(argv)
    measured = []
    for r in args.rows:
        for name, call, source in cases(r):
            measured.append({"case": f"{name}/r={r}", **timed(call, source)})
            print(json.dumps(measured[-1]), file=sys.stderr, flush=True)
    fitted, committed = threshold(measured), _pairwise._UNBUFFERED_ROW
    result = {"threshold": fitted, "committed": committed,
              "loss": round(loss(measured, math.inf if fitted is None else fitted), 4),
              "committed_loss": round(loss(measured, committed), 4),
              "environment": {"python": platform.python_version(), "numpy": np.__version__,
                              "machine": platform.machine(), "cpu": scaling.cpu_model(),
                              "nproc": scaling.nproc()},
              "cases": measured}
    if args.out is not None:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data["unbuffered_rows"] = result
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
