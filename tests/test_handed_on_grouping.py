"""Each step after the first is handed the grouping of its points, built
from the blurred distinct rows of the step before; it must be bitwise the
grouping of the n points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blurshift as bs
import blurshift.engine as engine_mod
from blurshift._pairwise import DistinctRows
from blurshift.io import load_points
from golden.regenerate import H, HERE, INPUTS, MAX_ITER


def _assert_same_grouping(got, want):
    for name in ("first", "inv"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert (mine is None) == (theirs is None), name
        if mine is not None:
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
    assert got.rows.shape == want.rows.shape
    assert got.rows.tobytes() == want.rows.tobytes()


def _checking(monkeypatch):
    """Make every state of the iteration check the grouping it is handed;
    returns the list of the configurations' sizes, one per handed grouping."""
    handed = []
    real = engine_mod.PairwiseState

    class Checked(real):
        def __init__(self, cfg, kernel, h, reads=frozenset(), distinct=None):
            if distinct is not None:
                points = bs.as_configuration(cfg).points
                _assert_same_grouping(distinct, DistinctRows(points))
                handed.append(len(points))
            super().__init__(cfg, kernel, h, reads, distinct)

    monkeypatch.setattr(engine_mod, "PairwiseState", Checked)
    return handed


@pytest.mark.parametrize("kernel_id", bs.ASSUMPTION1_IDS)
def test_handed_grouping_is_the_grouping_of_the_points(kernel_id, monkeypatch):
    handed = _checking(monkeypatch)
    kernel = bs.builtin(kernel_id)
    for name in INPUTS:
        points = load_points(HERE / name)
        del handed[:]
        run = bs.run_bms(points, kernel, H, stop=bs.StopRule(max_iter=MAX_ITER))
        assert len(handed) == run.T - 1, name
        del handed[:]
        report = bs.run_verify(points, kernel, H, directions=8,
                               stop=bs.StopRule(max_iter=min(run.T, 8)))
        assert len(handed) == report.T - 1, name


@st.composite
def _collapsing_points(draw):
    """More than 128 points on a few sites, some of them repeated and some
    with -0.0 where another has +0.0, so that groups meet as they blur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    d = draw(st.integers(1, 3), label="d")
    sites = rng.choice([0.0, -0.0, 0.25, -0.25, 0.5], size=(draw(st.integers(2, 12)), d))
    sites[rng.random(sites.shape) < 0.3] *= -1.0  # signed zeros among them
    n = draw(st.integers(129, 260), label="n")
    points = sites[rng.integers(sites.shape[0], size=n)]
    points[rng.random(n) < 0.2] += rng.uniform(-0.1, 0.1, size=d)  # a few loose points
    return points


@settings(max_examples=40, deadline=None, derandomize=True)
@given(points=_collapsing_points(),
       kernel_id=st.sampled_from(["epanechnikov", "gaussian", "biweight", "tricube"]))
def test_handed_grouping_with_duplicates_and_signed_zeros(points, kernel_id):
    with pytest.MonkeyPatch.context() as monkeypatch:
        handed = _checking(monkeypatch)
        kernel = bs.builtin(kernel_id)
        stop = bs.StopRule(max_iter=6, exact_fixed_point=False, move_tol=0.0)
        try:
            run = bs.run_bms(points, kernel, 0.3, stop=stop)
        except ValueError as exc:  # tricube leaves an isolated group no weight
            assert "zero total weight" in str(exc)
            return
        assert len(handed) == run.T - 1 == 5
    cfg = bs.as_configuration(points)  # each step grouping its n points
    for _ in range(run.T):
        cfg = bs.bms_step(cfg, kernel, 0.3)
    assert run.final.points.tobytes() == cfg.points.tobytes()


def test_signed_zero_groups_meet_after_a_step():
    # (+0.0, 1) and (-0.0, 1) are two groups of bytes at one position: their
    # weight rows are equal, so they blur to the same bytes and become one
    points = np.array([[0.0, 1.0], [-0.0, 1.0], [3.0, 3.0]])[np.arange(150) % 3]
    before = DistinctRows(points)
    assert before.a == 3
    moved = before.expand(np.array([[0.0, 1.0], [0.0, 1.0], [3.0, 3.0]]))
    after = before.after(moved)
    assert after.a == 2
    _assert_same_grouping(after, DistinctRows(moved))


@pytest.mark.parametrize("merge", [False, True], ids=["apart", "merging"])
def test_handed_grouping_with_and_without_a_merge(merge):
    # 150 points on 5 positions, blurred to 5 new positions, or to 4 where
    # two groups meet; where none meet the grouping keeps before's groups
    rng = np.random.default_rng(7)
    sites = rng.normal(size=(5, 2))
    points = sites[rng.permutation(np.arange(150) % 5)]
    before = DistinctRows(points)
    assert before.a == 5
    moved_rows = before.rows + 0.5
    if merge:
        moved_rows[3] = moved_rows[1]
    moved = before.expand(moved_rows)
    after = before.after(moved)
    _assert_same_grouping(after, DistinctRows(moved))
    assert after.a == (4 if merge else 5)
    if not merge:
        assert after.first is before.first and after.inv is before.inv


def _unique_bytes_grouping(points):
    """The grouping by ``np.unique`` over each row's bytes as one void key:
    the formula the sort of int64 words replaced, kept as the reference."""
    n = points.shape[0]
    rows = np.ascontiguousarray(points)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    if first.size == n:
        return points, None, None
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rows[first[order]], first[order], rank[inv]


def _assert_reference_grouping(got, points):
    rows, first, inv = _unique_bytes_grouping(points)
    want = DistinctRows.__new__(DistinctRows)
    want.rows, want.first, want.inv = rows, first, inv
    _assert_same_grouping(got, want)


@st.composite
def _duplicated_rows(draw):
    """1 to 300 rows in d = 1 to 4, drawn
    from a few sites whose coordinates include +0.0 and -0.0, or from as
    many sites as rows; and a map of the sites onto fewer, as blurring
    would merge them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    d = draw(st.integers(1, 4), label="d")
    n = draw(st.integers(1, 300), label="n")
    count = draw(st.sampled_from([1, 2, 5, 20, n]), label="sites")
    sites = rng.choice([0.0, -0.0, 1.0, -1.0, rng.normal()], size=(count, d))
    if count == n:  # as many distinct sites as rows, almost surely
        sites = rng.normal(size=(count, d))
    merged = rng.integers(max(1, count // 2), size=count)
    return sites, rng.integers(count, size=n), sites[merged]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn=_duplicated_rows())
def test_grouping_matches_the_unique_bytes_reference(drawn):
    sites, pick, merged = drawn
    points = sites[pick]
    grouping = DistinctRows(points)
    _assert_reference_grouping(grouping, points)
    # each group moves to where the merged sites take its first point, so
    # that its points coincide, as blurring leaves them
    moved = grouping.expand(grouping.at_first(merged[pick]))
    _assert_reference_grouping(grouping.after(moved), moved)



def _lexsorts(monkeypatch):
    """Count the calls of ``np.lexsort`` (the grouping's sort of every word)."""
    calls = []
    real = np.lexsort

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted)
    return calls


def _apart_rows(case, m):
    """``m`` bitwise-distinct rows in d = 3: with distinct first coordinates,
    or in pairs that share the first coordinate's word and differ in a later
    one or only in the sign of a later zero, or with one pair that differs
    only in the sign of a zero in the first coordinate."""
    rows = np.random.default_rng(m).normal(size=(m, 3))
    if case == "later_word":
        rows[1::2, 0] = rows[::2, 0]
    elif case == "later_signed_zero":
        rows[1::2] = rows[::2]
        rows[::2, 2], rows[1::2, 2] = 0.0, -0.0
    elif case == "first_signed_zero":
        rows[1] = rows[0]
        rows[0, 0], rows[1, 0] = 0.0, -0.0
    return rows


# the cases whose first words some two rows share: those take the full sort
_APART_CASES = {"first_apart": 0, "later_word": 1, "later_signed_zero": 1,
                "first_signed_zero": 0}


@pytest.mark.parametrize("case", list(_APART_CASES))
def test_first_word_test_gives_the_full_sort(case, monkeypatch):
    # rows all apart: the grouping sorts every word only where some two
    # share their first word, and gives the grouping of the full sort
    points = _apart_rows(case, 200)
    calls = _lexsorts(monkeypatch)
    grouping = DistinctRows(points)
    assert len(calls) == _APART_CASES[case]
    _assert_reference_grouping(grouping, points)
    assert grouping.first is None and grouping.rows is points
    # handed on: 200 points on 40 positions, blurred to 40 rows all apart,
    # which keep before's groups
    before = DistinctRows(np.random.default_rng(1).normal(size=(40, 3))[np.arange(200) % 40])
    moved = before.expand(_apart_rows(case, 40))
    del calls[:]
    after = before.after(moved)
    assert len(calls) == _APART_CASES[case]
    _assert_reference_grouping(after, moved)
    assert after.first is before.first and after.inv is before.inv
