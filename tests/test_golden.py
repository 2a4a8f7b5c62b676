"""Outputs on the committed golden corpus are bitwise those recorded in
``tests/golden/golden.json`` (see ``tests/golden/regenerate.py``)."""

import json

from golden.regenerate import GOLDEN, compute


def test_outputs_match_golden_corpus():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(compute()))  # the JSON round trip of the file
    moved = [f"{section}/{key}"
             for section in want
             if isinstance(want[section], dict)
             for key in sorted(set(want[section]) | set(got[section]))
             if want[section].get(key) != got[section].get(key)]
    assert got["h"] == want["h"]
    assert not moved, (
        f"{len(moved)} golden outputs moved: {moved}; if on purpose, regenerate "
        "with tests/golden/regenerate.py and list what moved")
