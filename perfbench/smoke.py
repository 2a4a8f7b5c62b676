"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it records expected outputs at a tiny size, then runs the
timed and the traced pass once each and checks that every metric named in
BENCHMARK.json is printed with its unit and that the gate passes.  Finally
it corrupts one expected value and checks that the gate fails, so a broken
gate cannot go unnoticed.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys

import run

SMOKE_N = 24
SMOKE_FUZZ = 20
SMOKE_SECONDS = 0.2


def run_captured(wl, expected, trace: bool) -> tuple[str, str, dict]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = run.run(wl, expected, seed=7, seconds=SMOKE_SECONDS, trace=trace,
                         blas_cap=1)
    return out.getvalue(), err.getvalue(), result


def check_workload(wl, spec: dict) -> list[str]:
    import record_expected

    problems = []
    expected = record_expected.record(wl, run.OUT_DIR / "smoke-record")
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        text, err, result = run_captured(wl, expected, trace)
        if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
            problems.append(f"{wl.name} trace={trace}: gate failed: {result}\n{err}")
        names = {m["name"]: m["unit"] for m in spec[group]}
        if set(result["metrics"]) != set(names):
            problems.append(f"{wl.name} trace={trace}: metrics "
                            f"{sorted(set(result['metrics']) ^ set(names))} mismatch")
        printed = dict(names, **({} if trace else {"solve_s": "s", "fail_frac": "ratio"}))
        for name, unit in printed.items():
            if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                       for line in text.splitlines()):
                problems.append(f"{wl.name}: {name} not printed with unit {unit}")
        for name, unit in names.items():
            if result["metrics"].get(name, {}).get("unit") != unit:
                problems.append(f"{wl.name}: {name} reported without unit {unit}")

    # every instance now expects a wrong value: the gate must fail every operation
    if wl.kind == "verify":
        broken = {k: dict(v, checks=v["checks"][:-1]) for k, v in expected.items()}
    else:
        broken = {k: dict(v, M=v["M"] + 1) for k, v in expected.items()}
    _, err, result = run_captured(wl, broken, False)
    if result["correct"] or result["failed"] != result["attempted"] or "FAIL" not in err:
        problems.append(f"{wl.name}: a wrong expected value did not fail the gate: {result}")
    return problems


def main() -> int:
    run.cap_blas_threads()
    run.import_library()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        print("BENCHMARK.json workloads differ from workloads.py", file=sys.stderr)
        return 1
    problems = []
    try:
        for wl in workloads.WORKLOADS.values():
            tiny = dataclasses.replace(wl, n=SMOKE_N, fuzz=min(wl.fuzz, SMOKE_FUZZ))
            found = check_workload(tiny, spec)
            print(f"smoke {wl.name}: {'ok' if not found else 'FAILED'}")
            problems += found
    finally:
        shutil.rmtree(run.OUT_DIR / "smoke-record", ignore_errors=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
