"""What a pass computes for the reads its caller declares: the margin test at
its default tolerance from an interval of squared distances (``"stable"``),
the components without the degrees (``"labels"``) and with them
(``"closed"``), each bitwise what the exact margin and the full matrix
give; and the gradient, whose boundary flag reads the margin only for a
non-smoothly truncated kernel."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import blurshift as bs
from blurshift import _pairwise, engine, verify
from blurshift._pairwise import (_BLOCK_ENTRIES, _STABILITY_TOL, PairwiseState,
                                 _unstable_interval)
from blurshift.config import pairwise_sqdist, profile_args
from blurshift.engine import StopRule
from conftest import forced_source, representable_boundary_pair

_SAMPLED = bs.kernel_from_descriptor({
    "id": "sampled", "samples": {"u": [0.0, 0.3, 1.0], "k": [1.0, 0.6, 0.0]},
    "beta": math.sqrt(2.0), "class": "non_smoothly_truncated"})
_TRUNCATED = {**{k: bs.builtin(k) for k in bs.BUILTIN_IDS if bs.builtin(k).truncated},
              "sampled": _SAMPLED}


def _fails(s, radius, tol):
    # _block_margin's test of one squared distance: |fl(sqrt(s)) - radius| <= tol
    return abs(math.sqrt(s) - radius) <= tol


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _bisect_least(holds):
    # the smallest non-negative float (inf included) where a monotone test
    # holds, by bisection over the ordered bit patterns
    lo, hi = 0, _bits(math.inf)
    if holds(0.0):
        return 0.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(_float(mid)):
            hi = mid
        else:
            lo = mid
    return _float(hi)


# --- the interval ------------------------------------------------------------

_RADII = [1e-160, 1e-100, 0.01, 0.7071067811865476, 1.0, math.sqrt(2.0) * 0.8,
          math.sqrt(2.0) * 1.004, 3.0, 1e100, 1.3e154, 1e200, 1e300]


@pytest.mark.parametrize("radius", _RADII + [float(r) for r in np.random.default_rng(1)
                                              .uniform(0.1, 10.0, 20)])
def test_interval_equals_bisection_and_the_direct_test(radius):
    tol = _STABILITY_TOL * radius
    lo, hi = _unstable_interval(radius, tol)
    assert lo == _bisect_least(lambda s: math.sqrt(s) - radius >= -tol)
    beyond = _bisect_least(lambda s: math.sqrt(s) - radius > tol)
    assert hi == math.nextafter(beyond, 0.0)
    # every float within 40 of either end fails exactly when it lies inside
    for end in (lo, hi):
        if not math.isfinite(end):
            continue
        s = end
        for _ in range(40):
            s = math.nextafter(s, 0.0)
        for _ in range(80):
            assert _fails(s, radius, tol) == (lo <= s <= hi), (radius, s)
            s = math.nextafter(s, math.inf)
    assert not _fails(0.0, radius, tol) and lo > 0.0


def test_interval_at_the_ends_of_the_float_range():
    # a radius whose square underflows or overflows: the interval is empty
    # or holds only the squares that reach it
    for radius in (5e-324, 1e-322, 2.0 ** -1000, 1.7976931348623157e308):
        for tol in (0.0, _STABILITY_TOL * radius):
            lo, hi = _unstable_interval(radius, tol)
            assert lo == _bisect_least(lambda s: math.sqrt(s) - radius >= -tol)
            assert hi == math.nextafter(
                _bisect_least(lambda s: math.sqrt(s) - radius > tol), 0.0)


@pytest.mark.parametrize("radius", [1e-300, 1.0, 1e300])
def test_interval_is_none_where_the_tolerance_reaches_the_radius(radius):
    # the interval would hold s = 0, every point's distance to itself
    assert _fails(0.0, radius, radius)
    assert _unstable_interval(radius, radius) is None
    assert _unstable_interval(radius, 2.0 * radius) is None
    # just below the radius the subtraction cancels: an end may lie far
    # from its guess, and the interval is then None too, or else exact
    for tol in (math.nextafter(radius, 0.0), 0.75 * radius, 0.5 * radius, 0.25 * radius):
        interval = _unstable_interval(radius, tol)
        if interval is not None:
            assert interval[0] == _bisect_least(lambda s: math.sqrt(s) - radius >= -tol)
            assert interval[1] == math.nextafter(
                _bisect_least(lambda s: math.sqrt(s) - radius > tol), 0.0)
    assert _unstable_interval(radius, 0.5 * radius) is not None


# --- the "stable" read against the exact margin -------------------------------

def _planted(data, kernel, layout):
    """About 12 to 300 points with pairs planted at ``beta * h (1 +- k ulp)``
    and at ``beta * h +- tol (+- k ulp)``: one block, several blocks of
    distinct rows, groups of coincident points, or a grid."""
    h = data.draw(st.sampled_from([0.5, 1.004, 2.0 ** -40, 3.0 * 2.0 ** 30]), label="h")
    d = data.draw(st.integers(1, 3), label="d")
    radius = kernel.beta * h
    tol = _STABILITY_TOL * radius
    n = {"one block": 12, "blocks": 200, "grouped": 240, "grid": 600}[layout]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    side = 30.0 if layout == "grid" else 3.0
    pts = rng.uniform(0.0, side, size=(n, d)) * radius
    if layout == "grouped":
        pts[1::3] = pts[::3][:pts[1::3].shape[0]]
    for _ in range(data.draw(st.integers(1, 6), label="planted")):
        base = data.draw(st.sampled_from(["radius", "radius - tol", "radius + tol"]))
        steps = data.draw(st.integers(-3, 3), label="ulps")
        dist = {"radius": radius, "radius - tol": radius - tol, "radius + tol": radius + tol}[base]
        for _ in range(abs(steps)):
            dist = math.nextafter(dist, math.inf if steps > 0 else 0.0)
        i, j = rng.choice(n, size=2, replace=False)
        pts[j] = pts[i]
        pts[j, 0] = pts[i, 0] + dist
    return pts, h


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_stable_read_equals_the_margin_test(data):
    kernel_id = data.draw(st.sampled_from(sorted(_TRUNCATED)), label="kernel")
    kernel = _TRUNCATED[kernel_id]
    layout = data.draw(st.sampled_from(["one block", "blocks", "grouped", "grid"]), label="layout")
    pts, h = _planted(data, kernel, layout)
    # every pair evaluated: no state takes the grid, but on the grid layout
    with forced_source(**({} if layout == "grid" else {"grid": math.inf})) as taken:
        _assert_stable_read_equals_the_margin_test(pts, kernel, h, layout, taken)


def _assert_stable_read_equals_the_margin_test(pts, kernel, h, layout, taken):
    state = PairwiseState(pts, kernel, h, {"stable"})
    assert state._stable is not None and state._margin is None
    assert state._boundary_hit is None
    assert (taken[0] == "grid") == (layout == "grid")
    if layout == "grouped":
        assert state.distinct.inv is not None
    elif layout == "blocks":
        assert state.distinct.inv is None and state.n * state.distinct.a > _BLOCK_ENTRIES
    # the exact margin scans every pair, whatever the grid
    exact = PairwiseState(pts, kernel, h, {"margin"}).margin
    want = exact > _STABILITY_TOL * kernel.beta * h
    assert state.stable() == want
    assert PairwiseState(pts, kernel, h).stable() == want  # a later pass of its own
    assert state.stable(_STABILITY_TOL * kernel.beta * h) == want  # the margin's


def test_planted_pairs_reach_both_answers():
    # the configurations above are unstable where a pair sits at the
    # radius and stable where it sits beyond the tolerance
    kernel, h = bs.builtin("epanechnikov"), 0.5
    radius = kernel.beta * h
    tol = _STABILITY_TOL * radius
    pts = np.array([[0.0], [radius], [10.0]])
    assert not PairwiseState(pts, kernel, h, {"stable"}).stable()
    pts[1] = 2.0 * (radius + tol)  # 2 x keeps the distance exact
    pts[0] = radius + tol
    assert PairwiseState(pts, kernel, h, {"stable"}).stable() == (
        PairwiseState(pts, kernel, h, {"margin"}).margin > tol)


@pytest.mark.parametrize("n", [12, 300])
def test_tolerance_at_the_radius_falls_back_to_the_exact_margin(n, monkeypatch):
    # a tolerance that reaches the radius would put the self pairs in the
    # interval: the pass then reads the margin, which skips them
    kernel, h = bs.builtin("biweight"), 0.5
    pts = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 2))
    for factor in (1.0, 2.0):
        monkeypatch.setattr(_pairwise, "_STABILITY_TOL", factor)
        state = PairwiseState(pts, kernel, h, {"stable"})
        assert state._stable is None and state._margin is not None
        assert state.stable() == (state.margin > factor * kernel.beta * h)
    # half the radius: the subtraction is exact at the interval's ends
    monkeypatch.setattr(_pairwise, "_STABILITY_TOL", 0.5)
    state = PairwiseState(pts, kernel, h, {"stable"})
    assert state._stable is not None and state._margin is None
    assert state.stable() == (PairwiseState(pts, kernel, h, {"margin"}).margin
                              > 0.5 * kernel.beta * h)


def test_user_tolerance_reads_the_exact_margin():
    kernel, h = bs.builtin("epanechnikov"), 0.5
    pts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(300, 2))
    state = PairwiseState(pts, kernel, h, {"stable"})
    default = state.stable()
    assert state._margin is None
    for tol in (0.0, 1e-3, 0.05):
        assert state.stable(tol) == (state.margin > tol)
    assert state._margin is not None
    assert state.stable() == default


# --- components without degrees ------------------------------------------------

def _reference_components(pts, kernel, h):
    joined = kernel.g(profile_args(pairwise_sqdist(pts), h)) != 0.0
    np.fill_diagonal(joined, False)
    _, raw = connected_components(joined, directed=False)
    seen = {}
    labels = np.array([seen.setdefault(c, len(seen)) for c in raw])
    closed = all(np.all(joined[np.ix_(c, c)] | np.eye(c.size, dtype=bool))
                 for c in (np.flatnonzero(labels == m) for m in range(len(seen))))
    return labels, closed


@pytest.mark.parametrize("kernel_id", sorted(_TRUNCATED))
@pytest.mark.parametrize("layout", ["one block", "blocks", "grouped", "grid"])
def test_labels_without_degrees_equal_connected_components(kernel_id, layout):
    # every pair evaluated: no state takes the grid, but on the grid layout
    with forced_source(**({} if layout == "grid" else {"grid": math.inf})) as taken:
        _assert_labels_equal_connected_components(kernel_id, layout, taken)


def _assert_labels_equal_connected_components(kernel_id, layout, taken):
    kernel, h = _TRUNCATED[kernel_id], 0.5
    radius = kernel.beta * h
    rng = np.random.default_rng(7)
    n = {"one block": 12, "blocks": 200, "grouped": 240, "grid": 600}[layout]
    pts = rng.uniform(0.0, 30.0 if layout == "grid" else 6.0, size=(n, 2)) * radius
    if layout == "grouped":  # every third point on the one before, and a group of ten apart
        pts[1::3] = pts[::3][:pts[1::3].shape[0]]
        pts[-10:] = 100.0 * radius
    want, closed = _reference_components(pts, kernel, h)
    state = PairwiseState(pts, kernel, h, {"labels"})
    assert (taken[0] == "grid") == (layout == "grid")
    # only a grouped kernel with g(0) = 0 counts degrees for its labels
    apart = kernel.g0 == 0.0 and state.distinct.inv is not None
    assert (state._degree is not None) == apart
    assert np.array_equal(state.labels, want) and state.M == want.max() + 1
    assert state.closed == closed
    with_degrees = PairwiseState(pts, kernel, h, {"closed"})
    assert with_degrees._degree is not None
    assert np.array_equal(with_degrees.labels, want) and with_degrees.closed == closed
    assert np.array_equal(with_degrees._degree, state._degree)
    assert (struct.pack("<d", with_degrees.component_diameter)
            == struct.pack("<d", PairwiseState(pts, kernel, h).component_diameter))


def test_grouped_tricube_labels_keep_lone_groups_apart():
    # g(0) = 0: a group of coincident points with no other point in reach
    # is not joined, so its labels need the degrees the "labels" read counts
    tricube, h = bs.builtin("tricube"), 0.5
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(300, 2))
    pts[290:] = 50.0
    state = PairwiseState(pts, tricube, h, {"labels"})
    assert state.distinct.inv is not None and state._degree is not None
    assert len(set(state.labels[290:])) == 10
    assert np.array_equal(state.labels, _reference_components(pts, tricube, h)[0])


def test_classify_graph_and_records_keep_their_values():
    # classify reads the exact margin and the degrees; a record the default
    # margin test and the degrees
    kernel = bs.builtin("epanechnikov")
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(260, 2))
    h = 0.3
    graph = bs.build_graph(pts, kernel, h)
    cls = bs.classify(graph, pts, kernel, h)
    every = PairwiseState(pts, kernel, h, {"margin", "closed", "singular", "labels"})
    assert (cls.closed, cls.singular, cls.margin) == (every.closed, every.singular, every.margin)
    assert cls.stable == (every.margin > _STABILITY_TOL * kernel.beta * h)
    assert np.array_equal(graph.labels, every.labels)
    records = []
    bs.run_bms(pts, kernel, h, stop=StopRule(max_iter=4), sink=records.append)
    plain = []
    cfg = bs.as_configuration(pts)
    for record in records:
        state = PairwiseState(cfg, kernel, h)
        plain.append((state.M, state.closed, state.stable(), state.component_diameter))
        cfg = bs.as_configuration(state.update())
    assert [(r.n_components, r.closed, r.stable, r.comp_diameter) for r in records] == plain


def test_run_verify_states_hold_no_degrees(monkeypatch):
    # run_verify reads the default margin test and the component count: its
    # states compute neither the exact margin nor any degree
    seen = []
    iterate = verify._iterate

    def observed(points, kernel, h, stop, on_step, reads):
        def step(t, state, nxt, max_move):
            seen.append((state._degree, state._margin, state._stable, state._roots))
            on_step(t, state, nxt, max_move)
        return iterate(points, kernel, h, stop, step, reads)

    monkeypatch.setattr(verify, "_iterate", observed)
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(260, 2))
    report = bs.run_verify(pts, bs.builtin("biweight"), 0.3, stop=StopRule(max_iter=3))
    assert report.passed and len(seen) == 3
    for degree, margin, stable, roots in seen:
        assert degree is None and margin is None
        assert stable is not None and roots is not None


def test_one_component_skips_the_crossing_test(monkeypatch):
    # every pair joined: the first chunk leaves every root at 0, and no
    # later chunk lists a crossing pair or calls _union
    calls = []
    union = _pairwise._union

    def counted(labels, u, v):
        calls.append(u.size)
        return union(labels, u, v)

    monkeypatch.setattr(_pairwise, "_union", counted)
    chunks = []
    join_chunk = _pairwise._Pass._join_chunk

    def chunk(self, *args):
        chunks.append(self.state._roots.any())
        join_chunk(self, *args)

    monkeypatch.setattr(_pairwise._Pass, "_join_chunk", chunk)
    pts = np.random.default_rng(8).uniform(-1.0, 1.0, size=(300, 2))
    state = PairwiseState(pts, bs.builtin("epanechnikov"), 10.0, {"labels"})
    assert len(chunks) > 2 and chunks[0] and not any(chunks[1:])
    assert len(calls) == 1
    assert state.M == 1 and not state._roots.any()


# --- the gradient's boundary flag --------------------------------------------

@pytest.mark.parametrize("kernel_id", bs.ASSUMPTION1_IDS)
@pytest.mark.parametrize("n", [12, 300])
def test_gradient_reads_the_margin_only_where_a_pair_can_hit_the_boundary(kernel_id, n):
    # a pair at exactly beta * h: the vector and the flag are bitwise those
    # of a state that reads the margin, whatever the kernel
    kernel = bs.builtin(kernel_id)
    v, h = representable_boundary_pair(1.0)
    pts = np.random.default_rng(4).uniform(-1.5, 1.5, size=(n, 2))
    pts[0], pts[1] = (0.0, 0.0), (v, 0.0)
    got = engine.gradient(pts, kernel, h)
    want = PairwiseState(pts, kernel, h, {"moments", "margin"})
    assert got.grad.tobytes() == want.gradient().tobytes()
    assert got.nonsmooth_boundary is want.boundary_hit
    assert got.nonsmooth_boundary is (
        kernel.truncation is bs.TruncationClass.NON_SMOOTHLY_TRUNCATED)


def test_smooth_gradient_state_runs_one_pass(monkeypatch):
    passes = []
    run = PairwiseState._pass

    def counted(self, reads, *args, **kwargs):
        passes.append(set(reads))
        return run(self, reads, *args, **kwargs)

    monkeypatch.setattr(PairwiseState, "_pass", counted)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(260, 2))
    result = engine.gradient(pts, bs.builtin("biweight"), 0.8)
    assert passes == [{"moments"}]
    assert result.nonsmooth_boundary is False


@pytest.mark.parametrize("kernel_id", ["epanechnikov", "gaussian"])
@pytest.mark.parametrize("n", [12, 300])
def test_no_pass_fills_nothing(kernel_id, n, monkeypatch):
    # a state that declares nothing runs no pass, nor does a full-support
    # kernel's margin; the gap's two terms take one pass, where the next
    # points split the groups too, and build_graph one pass for its joins
    # and labels together, or none for a full-support kernel
    runs = []
    run = _pairwise._Pass.run

    def counted(self):
        runs.append(self.source)
        return run(self)

    monkeypatch.setattr(_pairwise._Pass, "run", counted)
    kernel, h = bs.builtin(kernel_id), 0.5
    pts = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 2))
    pts[n // 2:] = pts[:n - n // 2]  # coincident points, grouped when n > 128
    state = PairwiseState(pts, kernel, h)
    assert (state.distinct.inv is None) == (n == 12)
    if not kernel.truncated:
        assert state.margin == math.inf and state.boundary_hit is False
    assert runs == []
    engine.minorizer_gap(0.5 * pts + 0.125, pts, kernel, h)
    assert len(runs) == 1
    engine.minorizer_gap(pts + np.linspace(0.0, 1e-3, n)[:, None], pts, kernel, h)
    assert len(runs) == 2
    graph = bs.build_graph(pts, kernel, h)
    assert len(runs) == 2 + kernel.truncated
    want = PairwiseState(pts, kernel, h, {"labels"})
    assert np.array_equal(graph.labels, want.labels)
    assert np.array_equal(graph.adjacency, want.distinct.expand(want.joined_rows())
                          & ~np.eye(n, dtype=bool))
