"""Workload definitions: seeded input corpora, the timed operation and its gate.

Each workload owns a corpus of ``CORPUS_SIZE`` instances.  Instance ``i`` is
generated from ``numpy.random.default_rng([tag, i])`` so it is the same on
every machine, and ``expected.json`` holds what the library returned for
every instance when that file was recorded.  A run with seed ``s`` visits the
corpus starting at instance ``s % CORPUS_SIZE``; see NOTES.md for why runs
cover the whole corpus instead of one instance.

The library only ever receives the generated points (or, for the CLI
workload, a CSV file holding them).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io as stdio
import json
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import blurshift
from blurshift.engine import StopRule

# the package re-exports a function named ``cluster``, which shadows the module
cli_mod = importlib.import_module("blurshift.cli")
cluster_mod = importlib.import_module("blurshift.cluster")
verify_mod = importlib.import_module("blurshift.verify")

CORPUS_SIZE = 16
REP_TOL = 1e-9  # representatives must agree to this share of the data scale
D = 2  # every generator draws points in the plane


def two_blobs(rng: np.random.Generator, n: int) -> np.ndarray:
    half = n // 2
    a = rng.normal([-2.0, 0.0], 0.35, size=(half, 2))
    b = rng.normal([2.0, 0.5], 0.35, size=(n - half, 2))
    return np.vstack([a, b])


def uniform_square(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(n, 2))


def two_moons(rng: np.random.Generator, n: int) -> np.ndarray:
    half = n // 2
    t1 = rng.uniform(0.0, np.pi, half)
    t2 = rng.uniform(0.0, np.pi, n - half)
    upper = np.column_stack([np.cos(t1), np.sin(t1)])
    lower = np.column_stack([1.0 - np.cos(t2), 0.5 - np.sin(t2)])
    pts = np.vstack([upper, lower])
    return pts + rng.normal(0.0, 0.06, size=pts.shape)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: inputs, the operation, and its parameters.

    ``kind`` selects the operation: ``cli`` runs ``blurshift.cli.main`` on a
    CSV file, ``cluster`` calls ``standardize`` then ``cluster``, ``verify``
    calls ``standardize`` then ``run_verify``.
    """

    name: str
    kind: str
    tag: int
    generate: Callable[[np.random.Generator, int], np.ndarray]
    n: int
    kernel: str
    h: float
    stop: StopRule
    fuzz: int = 0

    def points(self, instance: int) -> np.ndarray:
        rng = np.random.default_rng([self.tag, instance])
        return self.generate(rng, self.n)

    def describe(self) -> dict:
        return {"n": self.n, "d": D, "h": self.h, "kernel": self.kernel,
                "kind": self.kind, "max_iter": self.stop.max_iter,
                "move_tol": self.stop.move_tol, "fuzz": self.fuzz,
                "corpus_size": CORPUS_SIZE}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="cli-gauss-dense",
            kind="cli", tag=1, generate=two_blobs, n=280, kernel="gaussian", h=0.4,
            stop=StopRule(max_iter=15, move_tol=0.0)),
        Workload(
            name="sparse-exact-epan",
            kind="cluster", tag=2, generate=uniform_square, n=400,
            kernel="epanechnikov", h=0.25, stop=StopRule(move_tol=0.0)),
        Workload(
            name="verify-fuzz",
            kind="verify", tag=3, generate=two_moons, n=260, kernel="biweight",
            h=0.8, stop=StopRule(), fuzz=400),
    )
}


@dataclass
class Instance:
    """One prepared corpus instance: the raw points and, for the CLI, files."""

    index: int
    raw: np.ndarray
    scale: float  # bounding-box diagonal of the points the result is reported in
    csv_path: Path | None = None
    out_path: Path | None = None
    trace_path: Path | None = None


def write_points_csv(points: np.ndarray, path: Path) -> None:
    """CSV with a header row and every coordinate at full (17 digit) precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{k}" for k in range(points.shape[1])) + "\n")
        for row in points:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def _bbox_diagonal(points: np.ndarray) -> float:
    return float(np.linalg.norm(np.ptp(points, axis=0)))


def prepare(wl: Workload, index: int, workdir: Path) -> Instance:
    raw = wl.points(index)
    if wl.kind == "cli":
        # the CLI reports representatives in the original coordinates
        inst = Instance(index, raw, _bbox_diagonal(raw))
        inst.csv_path = workdir / f"{wl.name}-{index}.csv"
        inst.out_path = workdir / f"{wl.name}-{index}.json"
        inst.trace_path = workdir / f"{wl.name}-{index}.jsonl"
        write_points_csv(raw, inst.csv_path)
        return inst
    std = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    return Instance(index, raw, _bbox_diagonal(std))


def prepare_corpus(wl: Workload, workdir: Path) -> list[Instance]:
    workdir.mkdir(parents=True, exist_ok=True)
    return [prepare(wl, i, workdir) for i in range(CORPUS_SIZE)]


def cli_argv(wl: Workload, inst: Instance) -> list[str]:
    return ["cluster", "--input", str(inst.csv_path), "--kernel", wl.kernel,
            "--h", repr(wl.h), "--standardize",
            "--max-iter", str(wl.stop.max_iter), "--move-tol", repr(wl.stop.move_tol),
            "--out", str(inst.out_path), "--trace", str(inst.trace_path)]


@dataclass
class Outcome:
    """What one operation returned, reduced to the fields the gate compares."""

    summary: dict
    errors: list[str] = field(default_factory=list)


def _labels_digest(labels) -> str:
    text = ",".join(str(int(v)) for v in labels)
    return hashlib.sha256(text.encode()).hexdigest()


def _cluster_summary(labels, reps, T: int, M: int, stop_reason: str) -> dict:
    labels = np.asarray(labels)
    sizes = sorted(np.bincount(labels)[1:].tolist(), reverse=True)
    return {"T": int(T), "M": int(M), "stop_reason": stop_reason,
            "labels_sha256": _labels_digest(labels), "sizes": sizes,
            "representatives": [[float(x) for x in row] for row in reps]}


def execute(wl: Workload, inst: Instance):
    """Run one workload operation; this is the part that is timed.

    Library entry points are looked up on their modules at call time so a
    traced run can wrap them.
    """
    if wl.kind == "cli":
        for path in (inst.out_path, inst.trace_path):
            path.unlink(missing_ok=True)
        captured = stdio.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli_mod.main(cli_argv(wl, inst))
        return code, captured.getvalue()
    kernel = blurshift.get_kernel(wl.kernel)
    points, _ = cluster_mod.standardize(inst.raw)
    if wl.kind == "cluster":
        return cluster_mod.cluster(points, kernel, wl.h, stop=wl.stop)
    return verify_mod.run_verify(points, kernel, wl.h, fuzz=wl.fuzz, stop=wl.stop)


def reduce(wl: Workload, inst: Instance, raw) -> Outcome:
    """Reduce what ``execute`` returned to the fields the gate compares."""
    if wl.kind == "cli":
        return _reduce_cli(inst, *raw)
    if wl.kind == "cluster":
        return Outcome(_cluster_summary(raw.labels, raw.representatives, raw.T,
                                        raw.M, raw.stop_reason))
    return Outcome({"passed": raw.passed, "fuzz_cases": raw.fuzz_cases,
                    "fuzz_mismatches": raw.fuzz_mismatches,
                    "checks": [c.name for c in raw.checks],
                    "failed_checks": [c.name for c in raw.checks if not c.passed],
                    "T": raw.T, "stop_reason": raw.stop_reason})


_CLI_LINE = re.compile(r"clusters=(\d+) T=(\d+) stop=(\w+)")


def _reduce_cli(inst: Instance, code: int, stdout: str) -> Outcome:
    if code != 0:
        return Outcome({}, [f"cli exited with code {code}"])
    try:
        payload = json.loads(inst.out_path.read_text(encoding="utf-8"))
        trace = [json.loads(line) for line in
                 inst.trace_path.read_text(encoding="utf-8").splitlines()]
    except (OSError, ValueError) as exc:
        return Outcome({}, [f"cli output unreadable: {exc}"])
    summary = _cluster_summary(payload["labels"], payload["representatives"],
                               payload["T"], payload["M"], payload["stop_reason"])
    errors = []
    if [rec.get("t") for rec in trace] != list(range(1, payload["T"] + 1)):
        errors.append(f"trace has {len(trace)} lines, expected T={payload['T']}")
    match = _CLI_LINE.search(stdout)
    if match is None or (int(match[1]), int(match[2]), match[3]) != (
            payload["M"], payload["T"], payload["stop_reason"]):
        errors.append(f"cli summary line disagrees with its JSON: {stdout!r}")
    return Outcome(summary, errors)


def gate(wl: Workload, inst: Instance, outcome: Outcome, expected: dict) -> list[str]:
    """Compare an outcome with the recorded expectation; return the failures."""
    errors = list(outcome.errors)
    got = outcome.summary
    if not got:
        return errors or ["operation produced no output"]
    if wl.kind == "verify":
        if not got["passed"]:
            errors.append(f"verify checks failed: {got['failed_checks']}")
        if got["fuzz_mismatches"] != 0:
            errors.append(f"{got['fuzz_mismatches']} fuzz mismatches")
        if got["fuzz_cases"] != wl.fuzz:
            errors.append(f"ran {got['fuzz_cases']} fuzz cases, expected {wl.fuzz}")
        if got["checks"] != expected["checks"]:
            errors.append(f"check list {got['checks']} != {expected['checks']}")
        return errors
    for key in ("T", "M", "stop_reason", "labels_sha256", "sizes"):
        if got[key] != expected[key]:
            errors.append(f"{key}: got {got[key]!r}, expected {expected[key]!r}")
    reps, want = np.asarray(got["representatives"]), np.asarray(expected["representatives"])
    if reps.shape != want.shape:
        errors.append(f"representatives shape {reps.shape} != {want.shape}")
    else:
        worst = float(np.max(np.abs(reps - want), initial=0.0))
        if not worst <= REP_TOL * inst.scale:
            errors.append(f"representatives off by {worst:.3e} "
                          f"(limit {REP_TOL * inst.scale:.3e})")
    return errors


def fuzz_seconds(wl: Workload, cases: int) -> float:
    """Median wall seconds of ``run_verify`` with ``cases`` fuzz probes on a
    single point, where the iteration is one trivial step and the fuzz loop
    is the whole cost (the probes do not depend on the points)."""
    kernel = blurshift.get_kernel(wl.kernel)
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        verify_mod.run_verify([[0.0] * D], kernel, wl.h, fuzz=cases)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)
