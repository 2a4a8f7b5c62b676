"""Golden outputs: digests of the library's and the CLI's results on a small
committed corpus.

The corpus is four CSV files beside this script: one per dimension
d = 1, 2, 3 (40-60 points) and a larger one in d = 2 (200 points).  Each
holds three clouds of points plus a duplicated point, a ``-0.0`` coordinate
and a pair at exactly the joining radius ``beta * h`` of the built-in
truncated kernels, at the corpus bandwidth ``H``.  The pairs of the large
file's first configuration do not fit in one block of the pairwise state,
and every truncated run on it collapses until they do, so its runs cross
between the state's two representations.

``golden.json`` records, for every input:

- the sha256 of every ``run_bms`` run (all admissible kernels, at most
  ``MAX_ITER`` steps): the bits
  of every record field, then the final points' bytes, with the readable
  final record, ``T`` and the stop reason beside it for diffing;
- for the three small inputs, the sha256 of each file the in-process CLI
  writes for ``cluster --out --trace``, ``verify --fuzz 50 --report`` and
  ``sweep`` (epanechnikov, biweight and gaussian), with the exit code.

``tests/test_golden.py`` recomputes all of it and compares.  Regenerate
only when a change moves bits on purpose, and list what moved::

    PYTHONPATH=src python tests/golden/regenerate.py           # digests
    PYTHONPATH=src python tests/golden/regenerate.py --inputs  # CSVs too
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

import blurshift as bs
from blurshift.io import load_points
from blurshift.cli import main as cli_main

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import representable_boundary_pair  # noqa: E402

GOLDEN = HERE / "golden.json"
INPUTS = {"d1.csv": (1, 40, 11), "d2.csv": (2, 50, 12), "d3.csv": (3, 60, 13),
          "d2_large.csv": (2, 200, 15)}
CLI_INPUTS = ("d1.csv", "d2.csv", "d3.csv")
CLI_KERNELS = ("epanechnikov", "biweight", "gaussian")
SWEEP = ("0.5", "1.5", "0.5")  # --h-min, --h-max, --h-step

# Gaussian clouds keep drifting together for thousands of steps after they
# collapse; every other run stops on its own before this
MAX_ITER = 60

# distance and bandwidth whose profile argument is the support boundary 1.0
# of every built-in truncated kernel, bitwise
V, H = representable_boundary_pair(1.0)


def make_points(d: int, n: int, seed: int) -> np.ndarray:
    """Three clouds of ``n`` points in total, with the planted structure."""
    rng = np.random.default_rng(seed)
    centres = np.array([[-3.0] * d, [0.0] * d, [2.5] + [1.0] * (d - 1)])
    pts = np.round(centres[rng.integers(0, 3, size=n)]
                   + rng.normal(scale=0.45, size=(n, d)), 6)
    pts[1] = pts[0]           # a duplicated point
    pts[2] = 0.0
    pts[2, 0] = -0.0          # a -0.0 coordinate ...
    pts[3] = pts[2]
    pts[3, 0] = V             # ... and a pair at exactly beta * H from it
    return pts


def write_inputs() -> None:
    for name, (d, n, seed) in INPUTS.items():
        rows = make_points(d, n, seed)
        (HERE / name).write_text(
            "".join(",".join(repr(float(x)) for x in row) + "\n" for row in rows))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digest(run: bs.BmsRun) -> str:
    """sha256 of every record field's bits, then the final points' bytes."""
    digest = hashlib.sha256()
    for record in run.records:
        digest.update(struct.pack(
            "<qddddq???", record.t, record.objective, record.diameter,
            record.comp_diameter, record.max_move, record.n_components,
            record.closed, record.singular, record.stable))
    digest.update(np.ascontiguousarray(run.final.points, dtype="<f8").tobytes())
    return digest.hexdigest()


def _cli(args: list[str], outputs: list[str], workdir: Path) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli_main(args)
    files = {}
    for name in outputs:
        path = workdir / name
        files[name] = _sha256(path.read_bytes()) if path.exists() else None
        path.unlink(missing_ok=True)
    return {"exit": code, "files": files}


def compute() -> dict:
    """Every golden value, from the committed CSVs."""
    golden = {"h": H, "inputs": {}, "run_bms": {}, "cli": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in INPUTS:
            path = HERE / name
            golden["inputs"][name] = _sha256(path.read_bytes())
            points = load_points(path)
            stem = path.stem
            for kid in bs.ASSUMPTION1_IDS:
                run = bs.run_bms(points, bs.builtin(kid), H,
                                 stop=bs.StopRule(max_iter=MAX_ITER))
                golden["run_bms"][f"{stem}/{kid}"] = {
                    "sha256": run_digest(run),
                    "T": run.T,
                    "stop_reason": run.stop_reason,
                    "final_record": dataclasses.asdict(run.records[-1]),
                }
            if name not in CLI_INPUTS:
                continue
            common = ["--input", str(path), "--max-iter", str(MAX_ITER)]
            for kid in CLI_KERNELS:
                key = f"{stem}/{kid}"
                with_h = common + ["--kernel", kid, "--h", repr(H)]
                golden["cli"][f"{key}/cluster"] = _cli(
                    ["cluster", *with_h, "--out", str(work / "out.json"),
                     "--trace", str(work / "trace.jsonl")],
                    ["out.json", "trace.jsonl"], work)
                golden["cli"][f"{key}/verify"] = _cli(
                    ["verify", *with_h, "--fuzz", "50",
                     "--report", str(work / "report.json")],
                    ["report.json"], work)
                h_min, h_max, h_step = SWEEP
                golden["cli"][f"{key}/sweep"] = _cli(
                    ["sweep", *common, "--kernel", kid, "--h-min", h_min,
                     "--h-max", h_max, "--h-step", h_step,
                     "--out", str(work / "sweep.csv")],
                    ["sweep.csv"], work)
    return golden


def main(argv: list[str]) -> int:
    if argv == ["--inputs"]:
        write_inputs()
    elif argv:
        print(__doc__, file=sys.stderr)
        return 2
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
