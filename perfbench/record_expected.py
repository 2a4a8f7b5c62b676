"""Record ``expected.json``: what the library returns for every corpus instance.

    python3 perfbench/record_expected.py

The file is the reference the correctness gate compares against, so record
it only at a commit whose outputs are known good, and never to make a
failing gate pass.  Recording refuses outputs that already fail a check that
needs no reference (a CLI error, a failed verify check, a fuzz mismatch).
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def record(wl, workdir) -> dict:
    import workloads

    out = {}
    for inst in workloads.prepare_corpus(wl, workdir):
        outcome = workloads.reduce(wl, inst, workloads.execute(wl, inst))
        errors = list(outcome.errors)
        if wl.kind == "verify":
            errors += workloads.gate(wl, inst, outcome, outcome.summary)
        if errors:
            raise SystemExit(f"{wl.name} instance {inst.index}: {errors}")
        out[str(inst.index)] = outcome.summary
    return out


def main() -> int:
    run.cap_blas_threads()
    run.import_library()
    import workloads

    workdir = run.OUT_DIR / "record"
    try:
        expected = {name: record(wl, workdir / name)
                    for name, wl in workloads.WORKLOADS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    for name, table in expected.items():
        print(f"{name}: T={[row['T'] for row in table.values()]}")
    print(f"wrote {run.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
