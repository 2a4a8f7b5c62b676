"""Scaling benchmark: wall and CPU time, steps and peak heap of ``cluster`` and
``run_verify`` as the number of points grows, measured on two source trees
in one invocation.

    python bench/scaling.py --tree parent=PARENT/src --tree change=src --out BENCH_12.json

Each ``--tree LABEL=SRC`` names a ``src`` directory holding ``blurshift``;
its records go under LABEL in the output file, and entries under other
labels are kept.  ``--only PATTERN`` (repeatable) runs only the cells whose
label matches one of the shell-style patterns, such as
``--only 'cluster/epanechnikov/*' --only fuzz/biweight``; a cell's label is
``OP/KERNEL/n=N`` (``fuzz/KERNEL`` for the fuzz probes), and the ``cells``
of each tree's ``setup`` list the labels it holds.  Uses only the standard
library, numpy and blurshift.

The grid is n in {500, 1000, 2000, 4000} points in d = 2, for one flat
truncated kernel (epanechnikov) and one full-support kernel (gaussian), at
bandwidth ``H``, plus ``cluster`` of both kernels at 16000 points
(``LARGE``).  The points are four Gaussian blobs (sigma 0.4, centres
uniform in [-3, 3]^2, seed 0).  Every operation runs under a fixed step
budget, ``StopRule(max_iter=STEPS)``, so the work per step is what is
compared; ``T`` records the steps actually taken.

A second grid runs one epanechnikov ``cluster`` per n to its exact fixed
point (``StopRule(move_tol=0)``), the regime where blurring collapses the
points onto few distinct positions.  Each of those records ``T`` and the
mean share of distinct positions (bitwise-distinct points over n) over the
configurations the steps start from, counted once per tree in an untimed
run.

Iteration records are built only where they are read: ``cluster`` builds
none, and reading its ``records`` runs the iteration again.  So each
``cluster`` cell of the first two grids up to n = 4000 has a twin that
also reads the records (op ``cluster_read``, and ``fixed_point_read`` to the fixed point),
and a sweep grid runs ``bandwidth_sweep`` per n over ``SWEEP_H`` to each
bandwidth's exact fixed point (op ``sweep``), which reads no record; its
``T`` is the sum of the runs' steps.

A third grid times, per n, the minorizer gap of ``run_verify``'s first
epanechnikov step alone (op ``gap``): the timed ``minorizer_gap(nxt,
points, kernel, H)`` call, given the blurred points ``nxt`` computed once,
sums both of its terms, ``sum_ij g_ij ||y_i - y_j||^2`` and
``sum_ij g_ij ||y'_i - y'_j||^2``, as the observer does at every step.

A sparse grid runs epanechnikov ``cluster`` for ``STEPS`` steps (op
``sparse``) at n in ``SPARSE_SIZES`` on a standardized uniform square (seed
0) at the density of perfbench's ``sparse-exact-epan``: h = 0.25 *
sqrt(400 / n), so a point has pi (beta h)^2 n / 12, about 13, neighbours
within beta * h at t = 1.  There a truncated state evaluates only the
candidate pairs of its grid of cells, so n can reach 50 000.  The same
grid runs ``run_verify`` for ``STEPS`` steps (op ``sparse_verify``).
Those stop before the points collapse, so a tail grid runs the same
epanechnikov ``cluster`` to its exact fixed point (``StopRule(move_tol=0)``,
op ``tail``) on the same points and bandwidths at n in ``TAIL_SIZES``: its
later steps start from a few bitwise-distinct positions per cluster, the
grouped states of the paper's finite-time regime.

A steps grid times the iteration's fixed work per step (op ``steps``):
``cluster`` with a list sink, so every step builds its record, for both
kernels on the blobs at n in ``STEPS_SIZES`` under
``StopRule(max_iter=STEPS_MAX_ITER, move_tol=0.0)``.  Gaussian takes every
step of that budget, most of them after its clusters have collapsed onto
a few bitwise-distinct positions, where a step's pass is small beside its
bookkeeping; epanechnikov stops at its exact fixed point.  Its records
add ``step_us``, the median wall microseconds per step taken.  A gaussian
call takes 0.1 to 0.2 s on a 2-CPU x86-64 VM, and one such call per fresh
interpreter swung by a third between runs, so every steps run times
``CALLS`` calls, and every steps cell runs ``SHORT_REPEATS`` times.

A fourth record times the fuzz probes of ``run_verify``: one call on a
single point with ``FUZZ_CASES`` probes (configurations of at most 12
points), where the one-step iteration is negligible, for one smoothly
(biweight) and one non-smoothly (epanechnikov) truncated kernel and one
full-support kernel (gaussian) at bandwidth ``FUZZ_H``, as perfbench's
``verify-fuzz`` workload does for biweight.

Every cell runs ``REPEATS`` times on each tree, each time in a fresh
interpreter with that tree's ``src`` first on ``sys.path``, and
``SHORT_REPEATS`` times where the first call of every tree's first run
took under ``SHORT_CELL_S``: at n <= 1000 one tree's runs fall into two
modes about a third apart, so a median of 5 short runs lands in either.
The trees alternate within a cell, and the tree that goes first alternates
from repeat to repeat, so a slow spell of a shared machine falls on both.  The
interpreter runs the operation once on a small input (imports and lazy
set-up), times one call, then takes the ``tracemalloc`` peak of one more
call (traced apart, so tracing does not slow the timed call).  When the
first timed call takes under ``SHORT_CALL_S``, as the fuzz probes' and the
gap's at n = 500 do (4 to 30 ms on a 2-CPU x86-64 VM), the run times
``CALLS`` calls in all and counts their median: one fuzz call of 10 to
30 ms in a fresh interpreter swung by a fifth from one invocation to the
next.  Each timed call records its wall seconds (``time.perf_counter``)
and its CPU seconds (``time.process_time``, every thread of the process,
OpenBLAS worker threads that spin included, so a single-threaded call can
read up to about twice its wall time); on a busy machine the CPU time
moves less than the wall time, but it is not the same quantity.  A
record holds the median wall and CPU times over the runs with their
quartiles, every run's time and every call's, and the median peak.  The
record of each tree after the first also holds, under ``paired``, the
ratio of its wall time to the first tree's in each repeat (two adjacent
runs, which share a spell of the machine), their median, least and
largest, and the repeats it won (a ratio below 1).  Each tree's entry also records its ``environment``: the CPUs
the process may use, the CPU model, Python, numpy, numpy's baseline SIMD
features and the dispatch targets it found, so that a move of host
between two files shows, and the ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` that the runs inherit.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

SIZES = (500, 1000, 2000, 4000)
KERNELS = ("epanechnikov", "gaussian")
LARGE = 16000  # cluster only: a held n x n array would be 1.9 GiB
FIXED_POINT_KERNEL = "epanechnikov"
H = 0.5
STEPS = 3
REPEATS = 5
SHORT_REPEATS = 15  # for a cell whose first calls take under SHORT_CELL_S
SHORT_CELL_S = 0.05
SHORT_CALL_S = 0.1  # a run whose first call is shorter times CALLS calls
CALLS = 5
WARM_UP_N = 200
FUZZ_KERNELS = ("biweight", "epanechnikov", "gaussian")
FUZZ_H = 0.8
FUZZ_CASES = 400
SPARSE_SIZES = (4000, 16000, 50000)
SPARSE_KERNEL = "epanechnikov"
TAIL_SIZES = (500, 1000, 2000)
STEPS_SIZES = (100, 500)
STEPS_MAX_ITER = 1000
SWEEP_H = (0.4, 0.5, 0.6)


def blobs(n: int) -> np.ndarray:
    """Four Gaussian blobs in the plane (sigma 0.4, centres in [-3, 3]^2)."""
    rng = np.random.default_rng(0)
    centres = rng.uniform(-3.0, 3.0, size=(4, 2))
    return centres[rng.integers(0, 4, size=n)] + rng.normal(scale=0.4, size=(n, 2))


def sparse_square(n: int, seed: int = 0) -> np.ndarray:
    """A uniform square, standardized per axis."""
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 2))
    return (pts - pts.mean(axis=0)) / pts.std(axis=0)


def sparse_h(n: int) -> float:
    """The bandwidth that keeps ``sparse_square``'s neighbours per point at
    those of 400 points at h = 0.25."""
    return 0.25 * (400 / n) ** 0.5


def on_square(cell: dict) -> bool:
    """Whether a cell runs on ``sparse_square`` at ``sparse_h``."""
    return cell["op"].startswith("sparse") or cell["op"] == "tail"


def points_for(cell: dict, n: int) -> np.ndarray:
    return sparse_square(n) if on_square(cell) else blobs(n)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    """The CPU's model name, from /proc/cpuinfo where there is one."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def numpy_simd() -> dict:
    """numpy's baseline SIMD features and the dispatch targets it found on
    this CPU: two hosts with other targets run other float loops, whose
    times (and last bits) can differ."""
    try:
        from numpy._core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                                  __cpu_features__)
    return {"baseline": list(__cpu_baseline__),
            "found": [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]}


# --- one cell, in the interpreter of one tree -------------------------------

def distinct_share(points: np.ndarray) -> float:
    """Bitwise-distinct rows of ``points`` over their number."""
    keys = np.ascontiguousarray(points).view(np.dtype((np.void, 8 * points.shape[1])))
    return np.unique(keys.ravel()).size / points.shape[0]


def mean_distinct_share(points: np.ndarray, kernel, stop) -> float:
    """Mean distinct share over the configurations the steps start from."""
    import blurshift as bs

    shares = []

    def observe(t, state, nxt, move):
        shares.append(distinct_share(state.cfg.points))

    bs.engine._iterate(points, kernel, H, stop, observe)
    return float(np.mean(shares))


def operation(cell: dict, points: np.ndarray):
    """The call a cell times, on ``points``; it returns the steps taken."""
    import blurshift as bs

    kernel = bs.builtin(cell["kernel"])
    if cell["op"] == "gap":
        nxt = bs.bms_step(points, kernel, H)

        def gap():
            bs.minorizer_gap(nxt, points, kernel, H)
            return 1  # the one step whose gap it is

        return gap
    if cell["op"] == "fuzz":
        return lambda: bs.run_verify([[0.0, 0.0]], kernel, FUZZ_H, fuzz=cell["probes"]).T
    if cell["op"] == "steps":
        stop = bs.StopRule(max_iter=STEPS_MAX_ITER, move_tol=0.0)
        return lambda: bs.cluster(points, kernel, H, stop=stop, sink=[].append).T
    if cell["op"] in ("fixed_point", "fixed_point_read", "sweep", "tail"):
        stop = bs.StopRule(move_tol=0.0)
    else:
        stop = bs.StopRule(max_iter=STEPS)
    h = sparse_h(points.shape[0]) if on_square(cell) else H
    if cell["op"] in ("verify", "sparse_verify"):
        return lambda: bs.run_verify(points, kernel, h, stop=stop).T
    if cell["op"] == "sweep":
        return lambda: sum(e.T for e in bs.bandwidth_sweep(points, kernel, SWEEP_H, stop=stop))
    if cell["op"].endswith("_read"):
        return lambda: len(bs.cluster(points, kernel, h, stop=stop).records)
    return lambda: bs.cluster(points, kernel, h, stop=stop).T


def run_cell(cell: dict) -> dict:
    """Warm up, time one call (``CALLS`` calls when the first is shorter
    than ``SHORT_CALL_S``), then trace the peak of one more."""
    n = cell.get("n", 2)
    operation(dict(cell, probes=10), points_for(cell, min(n, WARM_UP_N)))()
    call = operation(cell, points_for(cell, n))
    walls, cpus = [], []
    while not walls or (len(walls) < CALLS and (walls[0] < SHORT_CALL_S
                                                or cell["op"] == "steps")):
        start, cpu_start = time.perf_counter(), time.process_time()
        steps = call()
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu_start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
              "call_walls_s": walls, "call_cpus_s": cpus, "T": steps,
              "peak_mib": peak / 2**20}
    if cell.get("shares"):
        import blurshift as bs

        share = mean_distinct_share(blobs(n), bs.builtin(cell["kernel"]),
                                    bs.StopRule(move_tol=0.0))
        result["mean_distinct_share"] = round(share, 4)
    return result


# --- the driver ---------------------------------------------------------------

def label(cell: dict) -> str:
    """``OP/KERNEL/n=N``, or ``fuzz/KERNEL`` for the fuzz probes."""
    if cell["op"] == "fuzz":
        return f"fuzz/{cell['kernel']}"
    return f"{cell['op']}/{cell['kernel']}/n={cell['n']}"


def cells() -> list[dict]:
    grid = [{"group": "records", "kernel": k, "n": n, "op": op} for k in KERNELS
            for n in SIZES for op in ("cluster", "cluster_read", "verify")]
    grid += [{"group": "records", "kernel": k, "n": LARGE, "op": "cluster"} for k in KERNELS]
    grid += [{"group": "fixed_point_records", "kernel": FIXED_POINT_KERNEL, "n": n,
              "op": op} for n in SIZES for op in ("fixed_point", "fixed_point_read")]
    grid += [{"group": "sweep_records", "kernel": FIXED_POINT_KERNEL, "n": n, "op": "sweep"}
             for n in SIZES]
    grid += [{"group": "gap_records", "kernel": FIXED_POINT_KERNEL, "n": n, "op": "gap"}
             for n in SIZES]
    grid += [{"group": "fuzz_records", "kernel": k, "op": "fuzz", "probes": FUZZ_CASES}
             for k in FUZZ_KERNELS]
    grid += [{"group": "sparse_records", "kernel": SPARSE_KERNEL, "n": n, "op": op}
             for op in ("sparse", "sparse_verify") for n in SPARSE_SIZES]
    grid += [{"group": "tail_records", "kernel": SPARSE_KERNEL, "n": n, "op": "tail"}
             for n in TAIL_SIZES]
    grid += [{"group": "steps_records", "kernel": k, "n": n, "op": "steps"}
             for k in KERNELS for n in STEPS_SIZES]
    return grid


def spawn(src: str, cell: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, __file__, "--cell", json.dumps(cell)],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"cell {cell} failed on {src}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summary(runs: list[dict], pairs: dict | None = None) -> dict:
    out = {}
    for clock in ("wall", "cpu"):
        times = [run[f"{clock}_s"] for run in runs]
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        out.update({f"{clock}_s": round(median, 6), f"{clock}_q1_s": round(q1, 6),
                    f"{clock}_q3_s": round(q3, 6), f"{clock}s_s": [round(t, 6) for t in times],
                    f"call_{clock}s_s": [[round(t, 6) for t in run[f"call_{clock}s_s"]]
                                         for run in runs]})
    out.update(T=runs[0]["T"],
               peak_mib=round(statistics.median(run["peak_mib"] for run in runs), 3))
    if any(run["T"] != out["T"] for run in runs):
        raise RuntimeError(f"step counts differ between runs: {[r['T'] for r in runs]}")
    if pairs is not None:
        out["paired"] = pairs
    return out


def paired(runs: list[dict], first: list[dict], against: str) -> dict:
    """Each repeat's wall time over the first tree's in the same repeat."""
    ratios = [run["wall_s"] / base["wall_s"] for run, base in zip(runs, first, strict=True)]
    return {"against": against, "wall_ratios": [round(r, 4) for r in ratios],
            "wall_ratio_median": round(statistics.median(ratios), 4),
            "wall_ratio_min": round(min(ratios), 4), "wall_ratio_max": round(max(ratios), 4),
            "repeats_won": sum(r < 1.0 for r in ratios), "repeats": len(ratios)}


def record(cell: dict, runs: list[dict], pairs: dict | None = None) -> dict:
    key = {"fixed_point": "cluster", "fixed_point_read": "cluster_read", "gap": "gap",
           "fuzz": "verify", "sparse": "cluster", "sparse_verify": "verify",
           "tail": "cluster", "steps": "cluster"}.get(cell["op"], cell["op"])
    if cell["group"] == "fuzz_records":
        out = {"kernel": cell["kernel"], "h": FUZZ_H, "probes": cell["probes"]}
        out[key] = summary(runs, pairs)
        out["probe_us"] = round(1e6 * out[key]["wall_s"] / cell["probes"], 1)
        return out
    h = sparse_h(cell["n"]) if on_square(cell) else H
    out = {"kernel": cell["kernel"], "n": cell["n"], "d": 2, "h": h, key: summary(runs, pairs)}
    if cell["op"] == "steps":
        out["step_us"] = round(1e6 * out[key]["wall_s"] / out[key]["T"], 2)
    if "mean_distinct_share" in runs[0]:
        out["mean_distinct_share"] = runs[0]["mean_distinct_share"]
    return out


def measure(trees: dict[str, str], grid: list[dict]) -> dict[str, dict]:
    """Every cell of ``grid`` on every tree, alternating, grouped by tree."""
    out = {tree: {"records": [], "fixed_point_records": [], "sweep_records": [],
                  "gap_records": [], "fuzz_records": [], "sparse_records": [],
                  "tail_records": [], "steps_records": []}
           for tree in trees}
    names = list(trees)
    for cell in grid:
        runs = {tree: [] for tree in names}
        repeat, repeats = 0, REPEATS
        while repeat < repeats:
            for tree in (names if repeat % 2 == 0 else names[::-1]):
                shares = repeat == 0 and cell["op"] == "fixed_point"
                runs[tree].append(spawn(trees[tree], dict(cell, shares=shares)))
            if repeat == 0 and (cell["op"] == "steps" or all(
                    runs[tree][0]["call_walls_s"][0] < SHORT_CELL_S for tree in names)):
                repeats = SHORT_REPEATS
            repeat += 1
        first = names[0]
        for tree in names:
            pairs = None if tree == first else paired(runs[tree], runs[first], first)
            rec = record(cell, runs[tree], pairs)
            out[tree][cell["group"]].append(rec)
            print(json.dumps({"tree": tree, "cell": label(cell), **rec}), flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC",
                        help="a source tree to measure, e.g. change=src (repeatable)")
    parser.add_argument("--out", type=Path, help="JSON file to update")
    parser.add_argument("--only", action="append", metavar="PATTERN",
                        help="run only the cells whose label matches (repeatable)")
    parser.add_argument("--cell", help=argparse.SUPPRESS)  # one cell, in a fresh interpreter
    args = parser.parse_args(argv)
    if args.cell is not None:
        print(json.dumps(run_cell(json.loads(args.cell))))
        return 0
    if not args.tree or args.out is None:
        parser.error("--tree (at least once) and --out are required")
    trees = dict(tree.split("=", 1) for tree in args.tree)
    grid = [cell for cell in cells()
            if args.only is None or any(fnmatch.fnmatchcase(label(cell), pattern)
                                        for pattern in args.only)]
    if not grid:
        parser.error(f"no cell matches --only {args.only}")

    setup = {
        "points": "four Gaussian blobs, sigma 0.4, centres uniform in [-3, 3]^2, seed 0",
        "cells": [label(cell) for cell in grid], "d": 2, "h": H,
        "step_budget": STEPS, "stop": f"StopRule(max_iter={STEPS})",
        "trees": list(trees),
        "wall": f"median and quartiles of {REPEATS} runs per tree ({SHORT_REPEATS} where "
                f"the first call of every tree's first run takes under {SHORT_CELL_S} s), "
                f"each in a fresh interpreter after a warm-up on {WARM_UP_N} points; the "
                f"trees alternate per cell and the first tree alternates per repeat; a run "
                f"whose first call takes under {SHORT_CALL_S} s times {CALLS} calls "
                f"and counts their median",
        "paired": "each tree after the first: its wall time over the first tree's in "
                  "each repeat, their median, least and largest, and the repeats in "
                  "which its ratio is below 1",
        "cpu": "time.process_time of the same timed calls, summarised as the wall; it "
               "counts every thread of the process, OpenBLAS worker threads that spin "
               "included, so a single-threaded call can read up to about twice its wall "
               "(see the environment's OPENBLAS_NUM_THREADS and OMP_NUM_THREADS)",
        "peak": "median tracemalloc peak of one further call per run",
        "fixed_point": "cluster with StopRule(move_tol=0.0)",
        "read": "the ops ending in _read also read the cluster's records",
        "sweep": f"bandwidth_sweep over h in {list(SWEEP_H)} with StopRule(move_tol=0.0); "
                 f"T sums the runs' steps",
        "gap": "both terms of the minorizer gap of the first epanechnikov step: "
               "minorizer_gap(bms_step(points, kernel, h), points, kernel, h), the "
               "blurring update computed once, untimed",
        "fuzz": f"run_verify([[0.0, 0.0]], kernel, {FUZZ_H}, fuzz={FUZZ_CASES})",
        "sparse": f"{SPARSE_KERNEL} cluster with StopRule(max_iter={STEPS}) on a uniform "
                  f"square in [-1, 1]^2 (seed 0), standardized, at h = 0.25 * sqrt(400 / n)",
        "sparse_verify": f"run_verify with StopRule(max_iter={STEPS}) on the sparse op's "
                         f"points and bandwidth",
        "tail": f"{SPARSE_KERNEL} cluster with StopRule(move_tol=0.0) on the sparse op's "
                f"points and bandwidth, to the exact fixed point",
        "steps": f"cluster with a list sink and StopRule(max_iter={STEPS_MAX_ITER}, "
                 f"move_tol=0.0) on the blobs, {CALLS} calls per run and {SHORT_REPEATS} "
                 f"runs per tree; step_us is the median wall over T, in us",
    }
    environment = {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "numpy_simd": numpy_simd(),
        # the BLAS thread counts the runs inherit (None: the library's default)
        **{name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    for tree, entry in measure(trees, grid).items():
        data[tree] = {"environment": environment, "setup": setup, **entry}
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
