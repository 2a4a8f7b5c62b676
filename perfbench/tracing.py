"""Traced pass: per-layer metrics from spans recorded around library calls.

Nothing inside the library is changed.  The traced pass

1. alternates untraced operations with instrumented ones on one instance.
   Instrumentation swaps module attributes (``run_bms``, ``cluster``,
   ``standardize``, the CLI's io calls, ``run_verify``) for wrappers that
   record spans, and gives ``run_bms`` a sink that timestamps every
   iteration.  The difference of the two medians is ``trace.overhead_s``;
2. replays one captured ``run_bms`` run (``REPLAYS`` times) step by step
   with the same public calls ``run_bms`` makes, timing each call, and
   asserts that every replayed ``IterationRecord`` and the final
   configuration are bitwise-equal to the captured ones.  Per-layer times
   are medians over all replayed iterations; ``trace.unattributed_ms`` is
   the real iteration time (from ``run_bms`` sink timestamps) minus the
   median replayed sum of ``run_bms``'s calls;
3. probes the layers a workload's operation does not reach (the verify
   step and fuzz loop, io on the non-CLI workloads) on the same inputs.

Spans form the tree operation -> entry point -> ``run_bms`` -> iteration
for real runs and replay -> iteration -> layer call for the replay; each
replayed iteration names the real iteration span it replays (``replays``).
They stay in memory and are returned at the end.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import statistics
import struct
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

import workloads
from blurshift import diagnostics, io
from blurshift.config import as_configuration, pairwise_sqdist, profile_args
from blurshift.engine import (
    IterationRecord,
    bms_step,
    gradient,
    minorizer_gap,
    objective,
)
from blurshift.graph import build_graph, classify, is_fixed_point
import blurshift.engine as engine_mod

PROBE_REPEATS = 3
REPLAYS = 3
FUZZ_PROBE_CASES = 400

# run_bms's per-iteration calls, in its order: their sum is the attributed time
RUN_BMS_LAYERS = ("graph.build_graph", "graph.classify", "engine.bms_step",
                  "engine.objective", "diagnostics.diameter",
                  "diagnostics.component_diameter")

PER_LAYER = {
    "config.pairwise_sqdist_ms": "ms",
    "kernels.g_ms": "ms",
    "engine.bms_step_ms": "ms",
    "engine.objective_ms": "ms",
    "engine.gradient_ms": "ms",
    "engine.minorizer_gap_ms": "ms",
    "engine.iter_ms": "ms",
    "engine.iterations": "count",
    "engine.run_bms_calls": "count",
    "engine.distinct_frac": "ratio",
    "engine.pairs_evaluated": "count",
    "graph.build_graph_ms": "ms",
    "graph.classify_ms": "ms",
    "graph.is_fixed_point_ms": "ms",
    "graph.edge_density": "ratio",
    "graph.largest_component": "count",
    "diagnostics.diameter_ms": "ms",
    "diagnostics.component_diameter_ms": "ms",
    "diagnostics.nesting_ms": "ms",
    "cluster.standardize_ms": "ms",
    "cluster.grouping_ms": "ms",
    "verify.step_ms": "ms",
    "verify.fuzz_case_ms": "ms",
    "io.load_points_ms": "ms",
    "io.emit_trace_ms": "ms",
    "io.write_json_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans: id, parent id, name, start and end (perf_counter s)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, parent: int | None,
            **attrs) -> dict:
        span = {"id": len(self.spans) + 1, "parent": parent, "name": name,
                "start": start, "end": end, **attrs}
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = self.add(name, time.perf_counter(), math.nan, parent, **attrs)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def children(self, span: dict, name: str) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"] and s["name"] == name]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def median_ms(spans) -> float:
    return 1e3 * statistics.median(duration(s) for s in spans)


@dataclass
class Capture:
    """One ``run_bms`` call seen by the instrumentation."""

    cfg0: object
    kernel: object
    h: float
    stop: object
    run: object
    iter_s: list[float]
    iter_span_ids: list[int]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Swap library entry points for span-recording wrappers, wherever a
    blurshift module binds them; yield the list that collects every
    ``run_bms`` call made meanwhile."""
    captures: list[Capture] = []
    real_run_bms = engine_mod.run_bms
    signature = inspect.signature(real_run_bms)

    def run_bms(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        user_sink = bound.arguments["sink"]
        stamps: list[float] = []

        def sink(record):
            stamps.append(time.perf_counter())
            if user_sink is not None:
                user_sink(record)

        bound.arguments["sink"] = sink
        with tracer.span("engine.run_bms") as span:
            run = real_run_bms(*bound.args, **bound.kwargs)
        edges = [span["start"], *stamps]
        ids = [tracer.add("engine.iteration", edges[t - 1], edges[t], span["id"], t=t)["id"]
               for t in range(1, len(edges))]
        args = bound.arguments
        captures.append(Capture(args["cfg0"], args["kernel"], args["h"], args["stop"],
                                run, np.diff(edges).tolist(), ids))
        return run

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
        return wrapper

    targets = [(engine_mod.run_bms, run_bms)] + [(fn, wrap(name, fn)) for fn, name in (
        (workloads.cluster_mod.cluster, "cluster.cluster"),
        (workloads.cluster_mod.standardize, "cluster.standardize"),
        (io.load_points, "io.load_points"), (io.emit_trace, "io.emit_trace"),
        (io.write_json, "io.write_json"),
        (workloads.verify_mod.run_verify, "verify.run_verify"))]
    # every blurshift module that bound one of the targets under some name
    patches = [(mod, attr, value, wrapper)
               for name, mod in list(sys.modules.items()) if name.split(".")[0] == "blurshift"
               for attr, value in list(vars(mod).items())
               for fn, wrapper in targets if value is fn]
    try:
        for mod, attr, _, wrapper in patches:
            setattr(mod, attr, wrapper)
        yield captures
    finally:
        for mod, attr, value, _ in patches:
            setattr(mod, attr, value)


def _bits(value) -> object:
    return struct.pack("<d", value) if isinstance(value, float) else value


def record_mismatches(got: IterationRecord, want: IterationRecord) -> list[str]:
    return [f"t={want.t} {f.name}: replay {getattr(got, f.name)!r} "
            f"!= run_bms {getattr(want, f.name)!r}"
            for f in fields(IterationRecord)
            if _bits(getattr(got, f.name)) != _bits(getattr(want, f.name))]


def run_mismatches(got, want) -> list[str]:
    """Bitwise disagreements between two ``BmsRun`` results."""
    if len(got.records) != len(want.records):
        return [f"T={len(got.records)} != T={len(want.records)}"]
    errors = [e for a, b in zip(got.records, want.records) for e in record_mismatches(a, b)]
    if got.final.points.tobytes() != want.final.points.tobytes():
        errors.append("final configurations differ")
    return errors


def replay(tracer: Tracer, cap: Capture) -> tuple[list[dict], list[str]]:
    """Re-run ``cap`` one iteration at a time with ``run_bms``'s public calls.

    Returns per-iteration counters and every bitwise disagreement with the
    captured run.
    """
    kernel, h, stop = cap.kernel, cap.h, cap.stop
    cfg = as_configuration(cap.cfg0)
    move_tol = stop.move_tol
    if move_tol is None:
        move_tol = 1e-12 * diagnostics.diameter(cfg)
    dirs = diagnostics.direction_set(cfg.d)
    want = cap.run.records
    errors: list[str] = []
    counters: list[dict] = []
    call = tracer.call
    with tracer.span("replay"):
        for t in range(1, stop.max_iter + 1):
            replays = cap.iter_span_ids[t - 1] if t <= len(cap.iter_span_ids) else None
            with tracer.span("replay.iteration", t=t, replays=replays):
                g = call("graph.build_graph", build_graph, cfg, kernel, h)
                cls = call("graph.classify", classify, g, cfg, kernel, h)
                nxt = call("engine.bms_step", bms_step, cfg, kernel, h)
                max_move = float(np.max(np.linalg.norm(nxt.points - cfg.points, axis=1)))
                record = IterationRecord(
                    t=t,
                    objective=call("engine.objective", objective, cfg, kernel, h),
                    diameter=call("diagnostics.diameter", diagnostics.diameter, cfg),
                    comp_diameter=call("diagnostics.component_diameter",
                                       diagnostics.component_diameter, cfg, g.components),
                    max_move=max_move, n_components=g.M, closed=cls.closed,
                    singular=cls.singular, stable=cls.stable)
                # probes of layers run_bms does not call, on the same state
                sqd = call("config.pairwise_sqdist", pairwise_sqdist, cfg.points)
                call("kernels.g", kernel.g, profile_args(sqd, h))
                call("engine.gradient", gradient, cfg, kernel, h)
                call("engine.minorizer_gap", minorizer_gap, nxt, cfg, kernel, h)
                call("graph.is_fixed_point", is_fixed_point, cfg, kernel, h)
                call("diagnostics.nesting", diagnostics.interval_nesting_violation,
                     cfg, nxt, dirs)
            counters.append({
                "edges": int(np.count_nonzero(g.adjacency)) // 2,
                "pairs": cfg.n * (cfg.n - 1) // 2,
                "distinct": int(np.unique(cfg.points, axis=0).shape[0]),
                "largest": max(len(c) for c in g.components),
            })
            if t > len(want):
                errors.append(f"replay runs past run_bms's T={len(want)}")
                break
            errors += record_mismatches(record, want[t - 1])
            fixed = np.array_equal(nxt.points, cfg.points)
            cfg = nxt
            if (stop.exact_fixed_point and fixed) or max_move < move_tol:
                break
    if len(counters) != len(want):
        errors.append(f"replay stopped at T={len(counters)}, run_bms at T={len(want)}")
    elif cfg.points.tobytes() != cap.run.final.points.tobytes():
        errors.append("replayed final configuration differs from run_bms's")
    return counters, errors


def _median_seconds(fn, repeats: int = PROBE_REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def traced_run(ledger, corpus, seed: int, seconds: float, workdir):
    """Per-layer metrics for one workload; see the module docstring."""
    wl = ledger.wl
    inst = corpus[seed % len(corpus)]
    tracer = Tracer()
    kernel = workloads.blurshift.get_kernel(wl.kernel)
    points, _ = workloads.cluster_mod.standardize(inst.raw)
    op_captures: list[list[Capture]] = []
    results = []

    def instrumented_execute(op_wl, op_inst):
        with instrumented(tracer) as caps, tracer.span("operation", workload=op_wl.name,
                                                       instance=op_inst.index):
            raw = workloads.execute(op_wl, op_inst)
        op_captures.append(caps)
        results.append(raw)
        return raw

    ledger.attempt(inst, "warm-up")
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(ledger.attempt(inst))
        traced.append(ledger.attempt(inst, "traced op", instrumented_execute))

    if not op_captures:
        raise RuntimeError("no instrumented operation completed; see the failures above")
    if wl.kind == "verify":
        # run_verify has its own loop; capture the same iteration from cluster()
        with instrumented(tracer) as caps, tracer.span("probe.cluster"):
            result = workloads.cluster_mod.cluster(points, kernel, wl.h, stop=wl.stop)
        run_caps = caps
    else:
        run_caps = op_captures[-1]
        result = results[-1] if wl.kind == "cluster" else None

    if not run_caps:
        raise RuntimeError("the operation made no run_bms call to replay")
    cap = run_caps[0]
    replays = [replay(tracer, cap) for _ in range(REPLAYS)]
    for k, (_, errors) in enumerate(replays, 1):
        ledger.record(f"replay {k}", errors)
    counters = replays[0][0]
    for extra in run_caps[1:]:  # e.g. the CLI's second run for --trace must repeat the first
        ledger.record("repeated run_bms", run_mismatches(extra.run, cap.run))

    metrics = {}
    iters = tracer.named("replay.iteration")
    for name in ("config.pairwise_sqdist", "kernels.g", "engine.bms_step",
                 "engine.objective", "engine.gradient", "engine.minorizer_gap",
                 "graph.build_graph", "graph.classify", "graph.is_fixed_point",
                 "diagnostics.diameter", "diagnostics.component_diameter",
                 "diagnostics.nesting"):
        metrics[f"{name}_ms"] = median_ms(
            s for it in iters for s in tracer.children(it, name))
    first_runs = [caps[0] for caps in op_captures if caps] or run_caps
    metrics["engine.iter_ms"] = 1e3 * statistics.median(
        s for c in first_runs for s in c.iter_s)
    metrics["engine.iterations"] = len(counters)
    metrics["engine.run_bms_calls"] = len(op_captures[-1])
    metrics["engine.distinct_frac"] = statistics.fmean(
        c["distinct"] for c in counters) / cap.run.final.n
    pairs = sum(c["pairs"] for c in counters)
    metrics["engine.pairs_evaluated"] = pairs
    metrics["graph.edge_density"] = sum(c["edges"] for c in counters) / pairs
    metrics["graph.largest_component"] = statistics.median(c["largest"] for c in counters)

    metrics["cluster.standardize_ms"] = median_ms(tracer.named("cluster.standardize"))
    metrics["cluster.grouping_ms"] = 1e3 * statistics.median(
        duration(s) - sum(duration(c) for c in tracer.children(s, "engine.run_bms"))
        for s in tracer.named("cluster.cluster"))

    steps = []
    with tracer.span("probe.verify_steps"):
        step_s = _median_seconds(lambda: steps.append(
            workloads.verify_mod.run_verify(points, kernel, wl.h, stop=wl.stop)))
    metrics["verify.step_ms"] = 1e3 * step_s / steps[-1].total_steps
    with tracer.span("probe.fuzz"):
        fuzz_s = workloads.fuzz_seconds(wl, FUZZ_PROBE_CASES)
    metrics["verify.fuzz_case_ms"] = 1e3 * fuzz_s / FUZZ_PROBE_CASES

    if wl.kind == "cli":
        for name in ("io.load_points", "io.emit_trace", "io.write_json"):
            metrics[f"{name}_ms"] = median_ms(tracer.named(name))
    else:
        csv_path = workdir / "probe.csv"
        workloads.write_points_csv(inst.raw, csv_path)
        payload = result.to_json_dict()
        with tracer.span("probe.io"):
            metrics["io.load_points_ms"] = 1e3 * _median_seconds(
                lambda: io.load_points(csv_path))
            metrics["io.emit_trace_ms"] = 1e3 * _median_seconds(
                lambda: io.emit_trace(cap.run.records, workdir / "probe.jsonl"))
            metrics["io.write_json_ms"] = 1e3 * _median_seconds(
                lambda: io.write_json(payload, workdir / "probe.json"))

    metrics["trace.unattributed_ms"] = metrics["engine.iter_ms"] - statistics.median(
        sum(1e3 * duration(s) for name in RUN_BMS_LAYERS for s in tracer.children(it, name))
        for it in iters)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    assert set(metrics) == set(PER_LAYER), set(metrics) ^ set(PER_LAYER)
    notes = [f"traced pass on instance {inst.index}: {len(untraced)} untraced and "
             f"{len(traced)} instrumented operations, replay of T={len(counters)} "
             f"iterations bitwise-checked against run_bms",
             "io.* on non-CLI workloads, verify.* on non-verify workloads and the "
             "engine/graph/diagnostics probes not called by run_bms are timed on "
             "this workload's inputs, outside its operation"]
    t0 = tracer.spans[0]["start"] if tracer.spans else 0.0
    spans = [{**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in tracer.spans]
    return ({k: (v, PER_LAYER[k]) for k, v in metrics.items()}, {}, notes, spans)
