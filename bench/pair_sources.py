"""Per-entry costs of the pairwise passes' pair sources, from timed passes.

    python bench/pair_sources.py [--sizes 400 1000 2000 4000] [--out BENCH_32.json]

A pass of ``blurshift._pairwise.PairwiseState`` takes its pairs from one
of four sources: row blocks, tiles, the gathered distinct rows or the grid
of cells.  ``_pair_entries`` counts the entries of each source eligible for
a pass, and ``_pair_source`` takes the one whose counted entries cost least
by ``_ENTRY_COST``.  This script measures those costs.

The configurations are every step of an epanechnikov run to its exact
fixed point on ``bench/scaling.py``'s standardized uniform square at its
``sparse_h(n)``, for the seeds ``range(max(1, SQUARE_POINTS // n))``
(about 13 neighbours a point at the start, and a few positions per cluster
in the tail, where at n = 400 some grouped states of 41 to 73 positions
can both gather and take the grid), and the first ``STEPS`` steps on its
four blobs at ``H``, of epanechnikov (denser: a fifth to a quarter of the
pairs are grid candidates) and of gaussian (no grid: the tiles meet the
row blocks alone), for n in ``--sizes``.  Each is built as a pairwise
state with each read set of ``READS`` (the empty one followed by the
state's ``minorizer_gap``, whose pass is the one timed) and each eligible
source in turn,
forced through the rule by setting the cost of that source to 0 and the
others to inf, with its grouping handed in; a build is timed as the best
of ``REPEATS`` runs of as many builds as take ``MIN_TIME`` seconds.

A case is one configuration and read set with two or more eligible
sources.  The rule's picks lose ``sum(t_pick / t_fastest - 1)`` over the
cases, so every decision weighs alike, whatever its size: the passes of
perfbench's workloads hold a few hundred points.  The costs
(the row blocks' fixed at 1) start from the medians of each source's time
per counted entry over the row blocks' in the same case, and each in
turn, where another value would lose less with the others held, moves to
the geometric middle of the range of values that loses least (the widest
such range on a tie), until none moves.  The script reports, for each
pair of sources met in one case, how often the rule with the fitted and
with the committed costs takes the slower of the two, and what its picks
lose.  It prints one JSON object: the fitted costs, to put in
``_ENTRY_COST``, the decisions, the host, and every case; ``--out`` also
writes it under the key ``pair_sources`` of a JSON file, keeping the
file's other keys (such as ``bench/scaling.py``'s trees).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import scaling  # bench/scaling.py: the same points and bandwidths

import blurshift as bs
from blurshift import _pairwise
from blurshift.engine import StopRule, _iterate

SIZES = (400, 1000, 2000, 4000)
SQUARE_POINTS = 4000  # the square runs max(1, SQUARE_POINTS // n) seeds at n points
STEPS = 3
REPEATS = 5
MIN_TIME = 0.002
SPARSE_KERNEL = "epanechnikov"
BLOB_KERNELS = ("epanechnikov", "gaussian")  # gaussian's states take no grid
# the reads of a cluster step and of a run_verify step's constructor, and
# none: a state that declares nothing runs no pass of its own, and its
# minorizer gap, whose two sums are symmetric, is the pass timed
READS = {"update": {"update"},
         "verify": {"update", "objective", "stable", "labels"},
         "gap": set()}
SOURCES = ("rows", "gathered", "tiles", "grid")


def configurations(n: int):
    """``(label, kernel, points, h, distinct)`` of every step of the
    square's runs and of the first ``STEPS`` steps of the blobs."""
    runs = [(f"square{seed}", SPARSE_KERNEL, scaling.sparse_square(n, seed),
             scaling.sparse_h(n), StopRule(move_tol=0.0))
            for seed in range(max(1, SQUARE_POINTS // n))]
    runs += [(f"blobs/{kernel}", kernel, scaling.blobs(n), scaling.H, StopRule(max_iter=STEPS))
             for kernel in BLOB_KERNELS]
    out = []
    for label, kernel, points, h, stop in runs:
        def observe(t, state, nxt, move, label=label, kernel=kernel, h=h):
            out.append((f"{label}/t={t}", kernel, state.cfg.points, h, state.distinct))

        _iterate(points, bs.builtin(kernel), h, stop, observe)
    return out


@contextlib.contextmanager
def forced(source: str):
    """The rule takes ``source`` wherever it is eligible; yields the
    arguments and the source of every choice."""
    taken = []
    pick = _pairwise._pair_source

    def recorded(*args):
        taken.append((args, pick(*args)))
        return taken[-1][1]

    costs, _pairwise._ENTRY_COST = _pairwise._ENTRY_COST, {
        name: 0.0 if name == source else math.inf for name in SOURCES}
    _pairwise._pair_source = recorded
    try:
        yield taken
    finally:
        _pairwise._ENTRY_COST, _pairwise._pair_source = costs, pick


def best_time(build) -> float:
    """Seconds a build takes: the best of ``REPEATS`` runs of as many builds
    as take ``MIN_TIME`` seconds."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            build()
        if time.perf_counter() - start >= MIN_TIME:
            break
        calls *= 2
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            build()
        best = min(best, time.perf_counter() - start)
    return best / calls


def measure(label, kernel, points, h, distinct, reads):
    """The counted entries and the time of every eligible source of the
    constructor's pass, or of the gap's pass where ``reads`` is empty, or
    None where the row blocks alone are eligible."""
    kernel = bs.builtin(kernel)

    def build():
        state = _pairwise.PairwiseState(points, kernel, h, reads, distinct)
        if not reads:  # the gap of the points to themselves
            state.minorizer_gap(points)

    with forced("grid") as taken:  # so that the state keeps its grid, where it has one
        build()
    args = taken[-1][0]  # the pass's choice, after its state's grid
    entries = _pairwise._pair_entries(*args[:7])  # all but stacked
    if len(entries) < 2:
        return None
    seconds = {}
    for source in entries:
        with forced(source) as taken:
            build()
            if taken[-1][1] != source:
                raise RuntimeError(f"{label}: forced {source}, took {taken[-1][1]}")
            seconds[source] = best_time(build)
    n, a = args[0], args[1]
    return {"case": label, "n": n, "a": a, "slabs": args[2], "entries": entries,
            "seconds": seconds}


def loss(cases, costs) -> float:
    """What the rule's picks with ``costs`` lose against the fastest
    sources: ``sum(t_pick / t_fastest - 1)``."""
    total = 0.0
    for case in cases:
        entries, seconds = case["entries"], case["seconds"]
        pick = min(entries, key=lambda source: costs[source] * entries[source])
        total += seconds[pick] / min(seconds.values()) - 1.0
    return total


def fitted_costs(cases) -> dict[str, float]:
    """The costs, the row blocks' fixed at 1, that lose least (see the
    module docstring)."""
    costs = {"rows": 1.0}
    for source in SOURCES[1:]:
        ratios = [(case["seconds"][source] / case["entries"][source])
                  / (case["seconds"]["rows"] / case["entries"]["rows"])
                  for case in cases if source in case["seconds"]]
        costs[source] = statistics.median(ratios) if ratios else 1.0
    for _ in range(20):
        moved = False
        for source in SOURCES[1:]:
            # the values at which a pick between this source and another flips
            flips = sorted({costs[other] * case["entries"][other] / case["entries"][source]
                            for case in cases if source in case["entries"]
                            for other in case["entries"] if other != source})
            if not flips:
                continue
            ranges = list(zip([flips[0] / 4, *flips], [*flips, flips[-1] * 4]))
            losses = [loss(cases, {**costs, source: math.sqrt(lo * hi)}) for lo, hi in ranges]
            if loss(cases, costs) > min(losses):
                lo, hi = max((r for r, value in zip(ranges, losses) if value == min(losses)),
                             key=lambda r: r[1] / r[0])
                costs[source], moved = math.sqrt(lo * hi), True
        if not moved:
            break
    return {source: float(f"{cost:.3g}") for source, cost in costs.items()}


def decisions(cases, costs) -> dict:
    """For each pair of sources met in one case, how often the rule with
    ``costs`` takes the slower of the two, and what its picks lose."""
    pairs = {}
    for case in cases:
        entries, seconds = case["entries"], case["seconds"]
        names = sorted(entries, key=SOURCES.index)
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                tally = pairs.setdefault(f"{first}/{second}", {"cases": 0, "rule_slower": 0})
                tally["cases"] += 1
                ruled = min((first, second), key=lambda source: costs[source] * entries[source])
                tally["rule_slower"] += ruled != min((first, second), key=seconds.get)
    return {"pairs": pairs, "loss": round(loss(cases, costs), 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                        help="numbers of points of the runs (default: %(default)s)")
    parser.add_argument("--out", type=Path,
                        help="JSON file whose pair_sources key to write")
    args = parser.parse_args(argv)
    cases = []
    for n in args.sizes:
        for label, kernel, points, h, distinct in configurations(n):
            for name, reads in READS.items():
                case = measure(f"{label}/n={n}/{name}", kernel, points, h, distinct, reads)
                if case is not None:
                    cases.append(case)
    costs = fitted_costs(cases)
    result = {"costs": costs, "committed": dict(_pairwise._ENTRY_COST),
              "decisions": decisions(cases, costs),
              "committed_decisions": decisions(cases, _pairwise._ENTRY_COST),
              "environment": {"python": platform.python_version(), "numpy": np.__version__,
                              "machine": platform.machine(), "cpu": scaling.cpu_model(),
                              "nproc": scaling.nproc()},
              "cases": cases}
    if args.out is not None:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data["pair_sources"] = result
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
