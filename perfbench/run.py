"""Benchmark entry point for blurshift.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn in one process.
``--trace 0`` times whole operations with no instrumentation and reports the
end-to-end metrics; ``--trace 1`` runs the traced pass in ``tracing.py`` and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``src/blurshift`` next to
this directory the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED_PATH = BENCH_DIR / "expected.json"
SETUP_REPEATS = 5
# Reference set-up wall seconds on the 2-CPU Xeon VM the bounds were set on;
# setup_s is the measured set-up time rescaled to that host speed.
SETUP_REF_NOMINAL_S = 0.45
# Nominal wall seconds of one pass over a corpus on the same VM: a run makes
# round(--seconds / PASS_SECONDS) passes, however fast the host or the code.
PASS_SECONDS = 9.0
REF_POINTS = 300
REF_REPEATS = 10
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Fresh-interpreter set-up: import the library and build one workload's corpus.
SETUP_CODE = """
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.prepare_corpus(workloads.WORKLOADS[sys.argv[3]], Path(sys.argv[4]))
"""

# The same fresh-interpreter work without blurshift: import numpy and scipy's
# sparse graph module, draw as many point sets of the same size and, for the
# CLI workload, write as many CSV files in the same format.
SETUP_REF_CODE = """
import sys
from pathlib import Path
import numpy as np
import scipy.sparse.csgraph
n, count, write, target = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4])
target.mkdir(parents=True, exist_ok=True)
for i in range(count):
    pts = np.random.default_rng([0, i]).uniform(-1.0, 1.0, size=(n, 2))
    if write:
        with open(target / f"{i}.csv", "w", encoding="utf-8") as fh:
            fh.write("x0,x1\\n")
            for row in pts:
                fh.write(",".join(format(float(v), ".17g") for v in row) + "\\n")
    else:
        (pts - pts.mean(axis=0)) / pts.std(axis=0)
"""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Cap every BLAS/OpenMP pool at the usable CPU count (before numpy loads)."""
    cap = nproc()
    for var in BLAS_ENV:
        os.environ[var] = str(cap)
    return cap


def import_library():
    """Import blurshift from this checkout's ``src``, never from site-packages."""
    if not (SRC / "blurshift" / "__init__.py").is_file():
        print(f"error: no blurshift sources under {SRC}; "
              "run from the root of a source checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    import blurshift

    if Path(blurshift.__file__).resolve().parent != (SRC / "blurshift").resolve():
        print(f"error: imported blurshift from {blurshift.__file__}, not from {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return blurshift


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.machine() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(wl, seed: int, blas_cap: int) -> dict:
    import numpy
    import scipy

    return {"nproc": nproc(), "cpu_model": cpu_model(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_thread_cap": blas_cap, "seed": seed,
            "workload": wl.name, "params": wl.describe(), "git_commit": git_commit()}


class Ledger:
    """Counts attempted and failed operations; a failure is an exception or a
    failed correctness gate, and its reasons go to standard error."""

    def __init__(self, wl, expected: dict):
        self.wl = wl
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            for err in errors:
                print(f"FAIL {self.wl.name} {label}: {err}", file=sys.stderr)
        return not errors

    def attempt(self, inst, label: str = "op", execute=None) -> float:
        """Run, time and gate one operation; return its wall seconds.

        ``execute`` replaces ``workloads.execute`` (the traced run passes an
        instrumented one).
        """
        import workloads

        execute = execute or workloads.execute
        start = time.perf_counter()
        try:
            raw = execute(self.wl, inst)
        except Exception:  # an operation that raises is a counted failure
            elapsed = time.perf_counter() - start
            self.record(f"{label} instance {inst.index}", [traceback.format_exc()])
            return elapsed
        elapsed = time.perf_counter() - start
        self.check(inst, raw, label)
        return elapsed

    def check(self, inst, raw, label: str = "op") -> bool:
        import workloads

        outcome = workloads.reduce(self.wl, inst, raw)
        want = self.expected[str(inst.index)]
        return self.record(f"{label} instance {inst.index}",
                           workloads.gate(self.wl, inst, outcome, want))


def _interpreter_seconds(code: str, args: list[str], target: Path) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, *args, str(target)],
                   check=True, timeout=120, cwd=ROOT)
    elapsed = time.perf_counter() - start
    shutil.rmtree(target, ignore_errors=True)
    return elapsed


def measure_setup(wl, workdir: Path) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh interpreters that import the library and build
    the workload's corpus, and of the reference interpreters (``SETUP_REF_CODE``)
    timed before the first and after every set-up."""
    import workloads

    ref_args = [str(wl.n), str(workloads.CORPUS_SIZE), str(int(wl.kind == "cli"))]
    refs = [_interpreter_seconds(SETUP_REF_CODE, ref_args, workdir / "setup-ref")]
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(_interpreter_seconds(
            SETUP_CODE, [str(BENCH_DIR), str(SRC), wl.name], workdir / "setup"))
        refs.append(_interpreter_seconds(SETUP_REF_CODE, ref_args, workdir / "setup-ref"))
    return setups, refs


def peak_heap_mib(ledger: Ledger, inst) -> float:
    """tracemalloc peak of one operation, in an untimed pass."""
    import workloads

    tracemalloc.start()
    try:
        raw = workloads.execute(ledger.wl, inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ledger.check(inst, raw, "heap pass")
    return peak / 2**20


def reference_kernel() -> float:
    """Wall seconds of a fixed numpy kernel that does not use blurshift.

    Its work resembles dense blurring steps (pairwise differences, squared
    distances, exponential weights, weighted sums) on fixed points.  Timed
    between operations, it tracks the speed the shared host gives this
    process at that moment.
    """
    import numpy as np

    x = np.random.default_rng(0).uniform(-1.0, 1.0, size=(REF_POINTS, 2))
    start = time.perf_counter()
    for _ in range(REF_REPEATS):
        diff = x[:, None, :] - x[None, :, :]
        w = np.exp(-np.einsum("ijk,ijk->ij", diff, diff))
        (w[:, :, None] * x[None, :, :]).sum(axis=1)
    return time.perf_counter() - start


def adjacent_means(refs: list[float]) -> list[float]:
    """Mean of each pair of neighbouring reference times."""
    return [0.5 * (a + b) for a, b in zip(refs, refs[1:])]


def timed_passes(ledger: Ledger, corpus, first: int, passes: int):
    """``passes`` whole passes over the corpus, starting at instance ``first``.

    Every pass visits every instance once, so each run times the same set of
    inputs whatever its seed.  A reference-kernel time is taken before the
    first operation and after every operation.  Returns each operation's wall
    seconds, the mean of the reference times just before and just after it,
    and every reference time.
    """
    order = [corpus[(first + k) % len(corpus)] for k in range(len(corpus))]
    times: list[float] = []
    refs = [reference_kernel()]
    for _ in range(passes):
        for inst in order:
            times.append(ledger.attempt(inst))
            refs.append(reference_kernel())
    return times, adjacent_means(refs), refs


def p75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end(ledger: Ledger, corpus, seed: int, seconds: float, workdir: Path):
    import workloads

    first = seed % len(corpus)
    setup, setup_refs = measure_setup(ledger.wl, workdir)
    setup_ratios = [s / r for s, r in zip(setup, adjacent_means(setup_refs))]
    ledger.attempt(corpus[first], "warm-up")
    heap = peak_heap_mib(ledger, corpus[first])
    passes = max(1, round(seconds / PASS_SECONDS))
    times, around, refs = timed_passes(ledger, corpus, first, passes)
    ratios = [t / r for t, r in zip(times, around)]
    metrics = {
        "solve_ref": (statistics.median(ratios), "ratio"),
        "solve_p75_ref": (p75(ratios), "ratio"),
        "solve_total_ref": (sum(times) / sum(around), "ratio"),
        "peak_heap_mb": (heap, "MiB"),
        "setup_s": (SETUP_REF_NOMINAL_S * statistics.median(setup_ratios), "s"),
    }
    notes = [f"{len(times)} timed operations ({passes} passes over {len(corpus)} "
             f"instances); solve_p75_ref has {sum(r > p75(ratios) for r in ratios)} "
             "operations beyond it",
             "solve_*_ref: operation wall time over the reference kernel's "
             f"(median {1e3 * statistics.median(refs):.2f} ms, {len(refs)} samples)",
             f"setup_s: {SETUP_REF_NOMINAL_S} s x median over {len(setup)} fresh-"
             "interpreter set-ups of (set-up wall time) / (mean reference set-up "
             f"wall time just before and after it; median {statistics.median(setup_refs):.3f} s)"]
    extra = {"setup_raw_s": (statistics.median(setup), "s"),
             "solve_s": (statistics.median(times), "s"),
             "solve_p75_s": (p75(times), "s"),
             "fail_frac": (ledger.failed / max(ledger.attempted, 1), "ratio")}
    if ledger.wl.fuzz:
        extra["fuzz_cases_per_s"] = (
            ledger.wl.fuzz / workloads.fuzz_seconds(ledger.wl, ledger.wl.fuzz), "1/s")
    samples = {"solve_s": times, "solve_ref": ratios, "reference_s": refs,
               "setup_raw_s": setup, "setup_reference_s": setup_refs}
    return metrics, extra, notes, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_cap = cap_blas_threads()
    import_library()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from all, {', '.join(workloads.WORKLOADS)}")
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    results = {}
    for name in names:
        print(f"## workload {name}")
        results[name] = run(workloads.WORKLOADS[name], expected[name], args.seed,
                            args.seconds, bool(args.trace), blas_cap)
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


def run(wl, expected: dict, seed: int, seconds: float, trace: bool,
        blas_cap: int) -> dict:
    """Measure one workload, print its report and return its result object."""
    import workloads

    env = environment(wl, seed, blas_cap)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    ledger = Ledger(wl, expected)
    try:
        corpus = workloads.prepare_corpus(wl, workdir)
        if trace:
            import tracing

            metrics, extra, notes, spans = tracing.traced_run(
                ledger, corpus, seed, seconds, workdir)
            samples = {}
        else:
            metrics, extra, notes, samples = end_to_end(
                ledger, corpus, seed, seconds, workdir)
            spans = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# env {json.dumps(env, sort_keys=True)}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    record = {"env": env, "result": result, "notes": notes,
              "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "samples": samples}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    return result


if __name__ == "__main__":
    sys.exit(main())
