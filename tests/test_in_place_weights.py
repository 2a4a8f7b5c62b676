"""The in-place kernel evaluators of the pairwise pass: each writes the
weights over the profile arguments, and the profile into a slab of its own,
bit for bit what the kernel's own ``g`` and ``profile`` give."""

import math
from dataclasses import replace

import numpy as np
import pytest

import blurshift as bs
from blurshift import kernels
from blurshift._pairwise import PairwiseState
from blurshift.kernels import in_place

_SAMPLED = bs.kernel_from_descriptor({
    "id": "sampled", "samples": {"u": [0.0, 0.3, 1.0], "k": [1.0, 0.6, 0.0]},
    "beta": math.sqrt(2.0), "class": "non_smoothly_truncated"})


def _arguments(kernel):
    """Profile arguments at 0, at 1 and k ulp either side of it, at the
    support boundary, subnormal, large and random, as the pass makes them
    (non-negative, never NaN)."""
    one = [1.0]
    for _ in range(4):
        one += [math.nextafter(one[-1], 2.0)]
    below = [1.0]
    for _ in range(4):
        below += [math.nextafter(below[-1], 0.0)]
    special = [0.0, 5e-324, 2.0 ** -1070, 2.2250738585072014e-308, 1e-300, 0.5,
               2.0, 1e300, 1.7976931348623157e308, math.inf, *one, *below]
    if kernel.boundary_u is not None:
        special.append(kernel.boundary_u)
    rng = np.random.default_rng(11)
    return np.concatenate([special, rng.uniform(0.0, 3.0, 20_000), rng.uniform(0.0, 1e-300, 500),
                           np.exp(rng.uniform(-700.0, 700.0, 2000))])


def _assert_in_place_bits(kernel, u):
    with np.errstate(over="ignore", under="ignore"):  # (1 + 1e308)**2 overflows in both
        want_g, want_k = kernel.g(u), kernel.profile(u)
        for contiguous in (True, False):
            if contiguous:
                g, k = u.copy(), np.empty_like(u)
            else:  # a column of a wider buffer, as a lone column's slab is
                g = np.zeros((u.size, 2))[:, 0]
                k = np.zeros((u.size, 2))[:, 1]
                g[...] = u
            into = in_place(kernel)
            into(g, k)
            assert g.tobytes() == want_g.tobytes(), (kernel.id, contiguous)
            assert k.tobytes() == want_k.tobytes(), (kernel.id, contiguous)
            g = u.copy()
            into(g, None)  # the weights alone
            assert g.tobytes() == want_g.tobytes(), (kernel.id, contiguous)


@pytest.mark.parametrize("kernel_id", bs.BUILTIN_IDS)
def test_builtin_evaluator_keeps_the_kernel_bits(kernel_id):
    kernel = bs.builtin(kernel_id)
    _assert_in_place_bits(kernel, _arguments(kernel))
    # 2-D, as a block of j-rows is
    u = _arguments(kernel)[:20_000].reshape(200, 100)
    g = u.copy()
    with np.errstate(over="ignore"):
        in_place(kernel)(g, None)
        assert g.tobytes() == kernel.g(u).tobytes()


@pytest.mark.parametrize("kernel_id", ["epanechnikov", "biweight", "triweight", "quadweight",
                                       "three_halves", "gaussian", "cauchy"])
def test_polynomial_kernels_and_gaussian_have_their_own_evaluator(kernel_id):
    kernel = bs.builtin(kernel_id)
    assert in_place(kernel) is kernels._IN_PLACE[kernel.g][1]


def test_custom_kernels_take_the_generic_evaluator():
    # a sampled profile, and a built-in's g with another profile, call the
    # kernel's own functions
    _assert_in_place_bits(_SAMPLED, _arguments(_SAMPLED))
    base = bs.builtin("biweight")
    calls = []

    def profile(u):
        calls.append(u.shape)
        return base.profile(u)

    mixed = replace(base, profile=profile)
    assert in_place(mixed) is not in_place(base)
    _assert_in_place_bits(mixed, _arguments(mixed))
    assert calls


@pytest.mark.parametrize("kernel", [_SAMPLED, bs.builtin("biweight"), bs.builtin("gaussian")],
                         ids=lambda k: k.id)
@pytest.mark.parametrize("n", [12, 300])
def test_pass_weights_equal_the_kernel_on_the_matrix(kernel, n):
    # the update and the objective of a state, in one block (n = 12) or
    # several, from the in-place weights, against the n x n reference
    h = 0.6
    pts = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 2))
    u = bs.config.profile_args(bs.config.pairwise_sqdist(pts), h)
    w, k = kernel.g(u), kernel.profile(u)
    den = np.zeros(n)
    num = np.zeros((n, 2))
    rows = np.zeros(n)
    for j in range(n):  # one j at a time in ascending order from +0.0
        den += w[j]
        num += w[j][:, None] * pts[j]
        rows += k[j]
    objective = 0.0
    for value in rows:
        objective += value
    state = PairwiseState(pts, kernel, h, {"update", "objective"})
    assert state.update().tobytes() == (num / den[:, None]).tobytes()
    assert state.objective == objective + 0.0
