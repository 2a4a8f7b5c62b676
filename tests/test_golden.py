"""Outputs on the committed golden corpus are bitwise those recorded in
``tests/golden/golden.json`` (see ``tests/golden/regenerate.py``)."""

import json

import blurshift as bs
from blurshift._pairwise import _BLOCK_ENTRIES
from blurshift.engine import _iterate
from blurshift.io import load_points
from golden.regenerate import GOLDEN, H, HERE, MAX_ITER, compute


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


def test_large_input_crosses_one_block():
    # every truncated run on d2_large.csv starts with more pairs than one
    # block of the pairwise state holds and collapses to fewer
    points = load_points(HERE / "d2_large.csv")
    for kid in bs.ASSUMPTION1_IDS:
        kernel = bs.builtin(kid)
        if not kernel.truncated:
            continue
        pairs = []
        _iterate(points, kernel, H, bs.StopRule(max_iter=MAX_ITER),
                 lambda t, state, nxt, move: pairs.append(state.distinct.a * state.n))
        assert pairs[0] > _BLOCK_ENTRIES, kid
        assert min(pairs) <= _BLOCK_ENTRIES, kid
