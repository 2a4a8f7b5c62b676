"""The library runs without scipy, which only the tests use as a reference."""

import subprocess
import sys
from pathlib import Path

GOLDEN_D2 = Path(__file__).parent / "golden" / "d2.csv"

# Run in a fresh interpreter in which every scipy import fails.
_WITHOUT_SCIPY = """
import json, sys
from pathlib import Path
sys.modules["scipy"] = None
import numpy as np
import blurshift as bs
from blurshift import cli

pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(300, 2))
for kernel_id in ("epanechnikov", "gaussian"):
    result = bs.cluster(pts, bs.builtin(kernel_id), 0.3, stop=bs.StopRule(max_iter=5))
    assert result.M >= 1 and result.labels.shape == (300,)
report = bs.run_verify(pts[:40], bs.builtin("biweight"), 0.8, fuzz=50,
                       stop=bs.StopRule(max_iter=3))
assert report.passed and report.fuzz_cases == 50
assert bs.build_graph(pts[:50], bs.builtin("epanechnikov"), 0.3).M >= 1
out = sys.argv[2]
assert cli.main(["cluster", "--input", sys.argv[1], "--kernel", "epanechnikov",
                 "--h", "1.0", "--out", out]) == 0
assert json.loads(Path(out).read_text())["M"] >= 1
assert not any(name == "scipy" or name.startswith("scipy.") for name in sys.modules
               if sys.modules[name] is not None)
"""


def test_library_and_cli_run_without_scipy(tmp_path, cli_env):
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(GOLDEN_D2), str(tmp_path / "out.json")],
        env=cli_env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
