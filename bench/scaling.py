"""Scaling benchmark: wall time, steps and peak heap of ``cluster`` and
``run_verify`` as the number of points grows.

    PYTHONPATH=src python bench/scaling.py --label change --out BENCH_10.json

The grid is n in {500, 1000, 2000, 4000} points in d = 2, for one flat
truncated kernel (epanechnikov) and one full-support kernel (gaussian), at
bandwidth ``H``.  The points are four Gaussian blobs (sigma 0.4, centres
uniform in [-3, 3]^2, seed 0).  Every operation runs under a fixed step
budget, ``StopRule(max_iter=STEPS)``, so the work per step is what is
compared; ``T`` records the steps actually taken.

A second grid runs one epanechnikov ``cluster`` per n to its exact fixed
point (``StopRule(move_tol=0)``), the regime where blurring collapses the
points onto few distinct positions.  Each of those records ``T``, the mean
share of distinct positions (bitwise-distinct points over n) over the
configurations the steps start from and the share of those configurations
whose a x n pairs (a distinct positions) fit in one block of the pairwise
state, counted in a separate untimed run.

A third record times the fuzz probes of ``run_verify``: one call on a
single point with ``FUZZ_CASES`` probes (configurations of at most 12
points), where the one-step iteration is negligible, for one smoothly
(biweight) and one non-smoothly (epanechnikov) truncated kernel at
bandwidth ``FUZZ_H``, as perfbench's ``verify-fuzz`` workload does.

For every cell the wall time is the best of ``REPEATS`` runs, and the peak
is the ``tracemalloc`` peak of one more run (traced apart, so tracing does
not slow the timed runs).  The records go under ``--label`` in the output
file; entries under other labels are kept, so one file can hold the same
grid measured on two source trees, each run with its own ``src`` on
``PYTHONPATH``.  Uses only the standard library, numpy and blurshift.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import blurshift as bs
from blurshift._pairwise import _BLOCK_ENTRIES

SIZES = (500, 1000, 2000, 4000)
KERNELS = ("epanechnikov", "gaussian")
FIXED_POINT_KERNEL = "epanechnikov"
H = 0.5
STEPS = 3
REPEATS = 3
FUZZ_KERNELS = ("biweight", "epanechnikov")
FUZZ_H = 0.8
FUZZ_CASES = 400


def blobs(n: int) -> np.ndarray:
    """Four Gaussian blobs in the plane (sigma 0.4, centres in [-3, 3]^2)."""
    rng = np.random.default_rng(0)
    centres = rng.uniform(-3.0, 3.0, size=(4, 2))
    return centres[rng.integers(0, 4, size=n)] + rng.normal(scale=0.4, size=(n, 2))


def measure(operation) -> dict:
    """Best wall seconds of ``REPEATS`` calls, then the traced peak of one."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        steps = operation()
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        operation()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"wall_s": round(best, 6), "T": steps, "peak_mib": round(peak / 2**20, 3)}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def distinct_share(points: np.ndarray) -> float:
    """Bitwise-distinct rows of ``points`` over their number."""
    keys = np.ascontiguousarray(points).view(np.dtype((np.void, 8 * points.shape[1])))
    return np.unique(keys.ravel()).size / points.shape[0]


def state_shares(points: np.ndarray, kernel, stop) -> tuple[float, float]:
    """Mean distinct share, and share of one-block states, over the
    configurations the steps start from."""
    shares, one_block = [], []

    def observe(t, state, nxt, move):
        shares.append(distinct_share(state.cfg.points))
        one_block.append(state.distinct.a * state.n <= _BLOCK_ENTRIES)

    bs.engine._iterate(points, kernel, H, stop, observe)
    return float(np.mean(shares)), float(np.mean(one_block))


def run_fixed_point() -> list[dict]:
    stop = bs.StopRule(move_tol=0.0)
    kernel = bs.builtin(FIXED_POINT_KERNEL)
    records = []
    for n in SIZES:
        points = blobs(n)
        record = {"kernel": FIXED_POINT_KERNEL, "n": n, "d": 2, "h": H}
        record["cluster"] = measure(lambda: bs.cluster(points, kernel, H, stop=stop).T)
        shares = state_shares(points, kernel, stop)
        record["mean_distinct_share"] = round(shares[0], 4)
        record["one_block_share"] = round(shares[1], 4)
        print(json.dumps(record), flush=True)
        records.append(record)
    return records


def run_fuzz() -> list[dict]:
    records = []
    for kernel_id in FUZZ_KERNELS:
        kernel = bs.builtin(kernel_id)
        record = {"kernel": kernel_id, "h": FUZZ_H, "probes": FUZZ_CASES}
        record["verify"] = measure(
            lambda: bs.run_verify([[0.0, 0.0]], kernel, FUZZ_H, fuzz=FUZZ_CASES).T)
        record["probe_us"] = round(1e6 * record["verify"]["wall_s"] / FUZZ_CASES, 1)
        print(json.dumps(record), flush=True)
        records.append(record)
    return records


def run_grid() -> list[dict]:
    stop = bs.StopRule(max_iter=STEPS)
    records = []
    for kernel_id in KERNELS:
        kernel = bs.builtin(kernel_id)
        for n in SIZES:
            points = blobs(n)
            record = {"kernel": kernel_id, "n": n, "d": 2, "h": H}
            record["cluster"] = measure(lambda: bs.cluster(points, kernel, H, stop=stop).T)
            record["verify"] = measure(lambda: bs.run_verify(points, kernel, H, stop=stop).T)
            print(json.dumps(record), flush=True)
            records.append(record)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="key the records are stored under, e.g. parent or change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to update")
    args = parser.parse_args(argv)

    import scipy

    entry = {
        "environment": {
            "nproc": nproc(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "setup": {
            "points": "four Gaussian blobs, sigma 0.4, centres uniform in [-3, 3]^2, seed 0",
            "sizes": list(SIZES), "d": 2, "h": H, "kernels": list(KERNELS),
            "step_budget": STEPS, "stop": f"StopRule(max_iter={STEPS})",
            "wall": f"best of {REPEATS} runs",
            "peak": "tracemalloc peak of one further run",
            "fixed_point": f"{FIXED_POINT_KERNEL} cluster per n with StopRule(move_tol=0.0)",
            "one_block": f"a * n <= {_BLOCK_ENTRIES}, a the distinct positions of a state",
            "fuzz": f"run_verify([[0.0, 0.0]], kernel, {FUZZ_H}, fuzz={FUZZ_CASES}) "
                    f"for {', '.join(FUZZ_KERNELS)}",
        },
        "records": run_grid(),
        "fixed_point_records": run_fixed_point(),
        "fuzz_records": run_fuzz(),
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = entry
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
