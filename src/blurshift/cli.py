"""Command-line surface: clustering runs, traces, verification, oracles.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage or input parse error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .cluster import bandwidth_sweep, cluster, standardize
from .diagnostics import DEFAULT_DIRECTION_SEED
from .engine import StopRule, run_bms
from .io import ParseError, emit_trace, load_points, write_csv, write_json
from .kernels import BUILTIN_IDS, get_kernel
from .oracles import compare_sim_to_oracle, population_sequence
from .verify import run_verify

__all__ = ["main", "build_parser"]

MAX_SWEEP_BANDWIDTHS = 10_000  # checked before the sweep's grid is built


def _add_input_args(p: argparse.ArgumentParser, with_h: bool = True) -> None:
    p.add_argument("--input", required=True, help="CSV or JSON point file")
    p.add_argument("--kernel", required=True,
                   help=f"kernel id ({', '.join(BUILTIN_IDS)}) or JSON descriptor path")
    if with_h:
        p.add_argument("--h", type=float, required=True, help="bandwidth (> 0)")
    p.add_argument("--standardize", action="store_true",
                   help="z-score the data per axis before running")


def _add_stop_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--move-tol", type=float, default=None,
                   help="stop when the largest point move falls below this "
                        "(default 1e-12 x initial diameter; 0 disables)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blurshift",
                                     description="Blurring mean shift clustering engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster a point set")
    _add_input_args(p)
    _add_stop_args(p)
    p.add_argument("--merge-tol", type=float, default=None,
                   help="single-linkage radius for grouping terminal points "
                        "(default 1e-8 x data diameter)")
    p.add_argument("--out", required=True, help="result JSON path")
    p.add_argument("--trace", default=None, help="optional JSONL trace path")

    p = sub.add_parser("trace", help="run the iteration and emit only the trace")
    _add_input_args(p)
    _add_stop_args(p)
    p.add_argument("--out", required=True, help="JSONL trace path")

    p = sub.add_parser("verify", help="run the invariant check suite")
    _add_input_args(p)
    _add_stop_args(p)
    p.add_argument("--fuzz", type=int, default=0,
                   help="number of randomized fixed-point/singularity cross-checks")
    p.add_argument("--directions", type=int, default=256)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_DIRECTION_SEED)
    p.add_argument("--report", default=None, help="JSON report path")
    p.add_argument("--inject-descent", action="store_true",
                   help="corrupt one objective value to self-test the harness")

    p = sub.add_parser("oracle", help="closed-form reference recurrences")
    osub = p.add_subparsers(dest="oracle_kind", required=True)

    ps = osub.add_parser("simplex", help="regular-simplex radius recurrence vs engine")
    ps.add_argument("--kernel", required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--d", type=int, required=True)
    ps.add_argument("--h", type=float, required=True)
    ps.add_argument("--r0", type=float, required=True)
    ps.add_argument("--steps", type=int, required=True)
    ps.add_argument("--out", default=None, help="CSV path (default: stdout)")

    pp = osub.add_parser("population", help="Gaussian population variance recurrence")
    pp.add_argument("--s0", type=float, required=True)
    pp.add_argument("--h", type=float, required=True)
    pp.add_argument("--steps", type=int, required=True)
    pp.add_argument("--out", default=None, help="CSV path (default: stdout)")

    p = sub.add_parser("sweep", help="one clustering run per bandwidth on a grid")
    _add_input_args(p, with_h=False)
    _add_stop_args(p)
    p.add_argument("--h-min", type=float, required=True)
    p.add_argument("--h-max", type=float, required=True)
    p.add_argument("--h-step", type=float, required=True)
    p.add_argument("--merge-tol", type=float, default=None)
    p.add_argument("--out", required=True, help="CSV path")
    return parser


def _load(args):
    cfg = load_points(args.input)
    stats = None
    if args.standardize:
        points, stats = standardize(cfg)
        return points, stats
    return cfg.points, None


def _stop_rule(args) -> StopRule:
    return StopRule(max_iter=args.max_iter, move_tol=args.move_tol)


def _cmd_cluster(args) -> int:
    kernel = get_kernel(args.kernel)
    points, stats = _load(args)
    # a trace takes the records from a sink as the run goes: read from the
    # result, they would be built by a second run
    records = []
    result = cluster(points, kernel, args.h, stop=_stop_rule(args), merge_tol=args.merge_tol,
                     sink=None if args.trace is None else records.append)
    if args.trace is not None:
        emit_trace(records, args.trace)
    payload = result.to_json_dict()
    if stats is not None:
        payload["representatives"] = [
            [float(x) for x in row] for row in stats.inverse(result.representatives)
        ]
    write_json(payload, args.out)
    print(f"clusters={result.M} T={result.T} stop={result.stop_reason}")
    return 0


def _cmd_trace(args) -> int:
    kernel = get_kernel(args.kernel)
    points, _ = _load(args)
    import os

    from .io import trace_line

    fh = open(args.out, "w", encoding="utf-8")
    try:
        with fh:
            run_bms(points, kernel, args.h, stop=_stop_rule(args),
                    sink=lambda rec: fh.write(trace_line(rec) + "\n"),
                    keep_records=False)
    except BaseException:
        # an empty or cut trace would read as a shorter valid run
        os.remove(args.out)
        raise
    return 0


def _cmd_verify(args) -> int:
    kernel = get_kernel(args.kernel)
    points, _ = _load(args)
    report = run_verify(points, kernel, args.h, directions=args.directions,
                        seed=args.seed, fuzz=args.fuzz, stop=_stop_rule(args),
                        inject_descent=args.inject_descent)
    if args.report is not None:
        write_json(report.to_json_dict(), args.report)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{status} {check.name}")
    print(f"verify: {'pass' if report.passed else 'FAIL'} "
          f"(T={report.T}, stop={report.stop_reason}, "
          f"stable {report.stable_steps}/{report.total_steps} steps)")
    return 0 if report.passed else 1


def _emit_table(header, rows, out) -> None:
    if out is None:
        print(",".join(header))
        from .io import _fmt

        for row in rows:
            print(",".join(_fmt(x) for x in row))
    else:
        write_csv(header, rows, out)


def _cmd_oracle(args) -> int:
    if args.oracle_kind == "simplex":
        kernel = get_kernel(args.kernel)
        comparison = compare_sim_to_oracle(kernel, args.n, args.d, args.h,
                                           args.r0, args.steps)
        _emit_table(["t", "r_oracle", "r_sim", "ratio"], comparison.rows, args.out)
        print(f"max_rel_err={comparison.max_rel_err:.3e}", file=sys.stderr)
        return 0
    seq = population_sequence(args.s0, args.h, args.steps)
    rows = []
    for t, s in enumerate(seq, start=1):
        ratio = seq[t] / s**3 if t < len(seq) and s > 0 else float("nan")
        rows.append((t, float(s), float(ratio)))
    _emit_table(["t", "s", "ratio"], rows, args.out)
    return 0


def _cmd_sweep(args) -> int:
    kernel = get_kernel(args.kernel)
    points, _ = _load(args)
    for flag, value in (("--h-min", args.h_min), ("--h-max", args.h_max)):
        if not np.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if not args.h_step > 0:
        raise ValueError(f"--h-step must be positive, got {args.h_step}")
    count = np.floor((args.h_max - args.h_min) / args.h_step + 1e-9) + 1
    if count > MAX_SWEEP_BANDWIDTHS:
        raise ValueError(f"the grid has {count:.0f} bandwidths, more than "
                         f"{MAX_SWEEP_BANDWIDTHS}; raise --h-step")
    grid = [args.h_min + k * args.h_step for k in range(int(count))]
    entries = bandwidth_sweep(points, kernel, grid, stop=_stop_rule(args),
                              merge_tol=args.merge_tol)
    _emit_table(["h", "M", "T", "L_final"],
                [(e.h, e.M, e.T, e.L_final) for e in entries], args.out)
    return 0


_COMMANDS = {
    "cluster": _cmd_cluster,
    "trace": _cmd_trace,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves a parser as it was
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
