"""The single-point evaluations sum in the pinned orders, not through BLAS:
``ms_step`` adds its weighted points one j at a time in ascending order, and
``kernel_value``/``g_value`` add the squared coordinates in
``pairwise_sqdist``'s order.  Compared bit for bit with explicit loops, so the
results cannot depend on the BLAS kernel (CI reruns this file under other
OpenBLAS core types)."""

import struct

import numpy as np
import pytest

import blurshift as bs
from blurshift.engine import ms_step


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


def _squared_norm(v) -> float:
    """((v_0^2 + v_1^2) + v_2^2) + ..., one coordinate at a time."""
    total = 0.0
    for x in v:
        total += float(x) * float(x)
    return total


def _ms_step_reference(query, data, kernel, h):
    """Weights from explicit squared distances, then the numerator and the
    denominator summed over ascending j from +0.0; None for a zero total."""
    sq = np.array([_squared_norm(float(q) - float(y) for q, y in zip(query, row))
                   for row in data])
    w = kernel.g(sq / (2.0 * h * h))
    num = [0.0] * data.shape[1]
    den = 0.0
    for wj, row in zip(w, data):
        den += float(wj)
        for k, y in enumerate(row):
            num[k] += float(wj) * float(y)
    return None if den == 0.0 else np.array(num) / den


def _points(rng, n, d):
    # coordinates spread over many magnitudes, a few signed zeros, so any
    # other summation order rounds differently somewhere
    pts = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 3, size=(n, d))
    pts[rng.integers(0, n, size=2), 0] = -0.0
    return pts


@pytest.mark.parametrize("kernel_id,h", [("gaussian", 2.0), ("cauchy", 0.7),
                                         ("epanechnikov", 3.0), ("biweight", 4.0)])
@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_ms_step_sums_ascending_j(kernel_id, h, d):
    kernel = bs.builtin(kernel_id)
    rng = np.random.default_rng([d, len(kernel_id)])
    for n in (1, 2, 33, 300):
        data = _points(rng, n, d)
        query = data[0] + rng.normal(scale=0.1, size=d)
        want = _ms_step_reference(query, data, kernel, h)
        if want is None:
            with pytest.raises(bs.IsolatedQueryError):
                ms_step(query, data, kernel, h)
        else:
            assert ms_step(query, data, kernel, h).tobytes() == want.tobytes(), (d, n)


@pytest.mark.parametrize("kernel_id", ["gaussian", "cauchy", "logistic", "epanechnikov",
                                       "cosine", "biweight"])
def test_kernel_value_and_g_value_sum_coordinates_in_order(kernel_id):
    kernel = bs.builtin(kernel_id)
    rng = np.random.default_rng(len(kernel_id))
    for d in (1, 2, 3, 4, 5, 8, 16, 33):
        for _ in range(20):
            v = rng.normal(size=d) * 10.0 ** rng.integers(-2, 1, size=d)
            h = float(rng.uniform(0.5, 3.0)) * np.sqrt(d)
            u = np.float64(_squared_norm(v)) / (2.0 * h * h)
            assert _bits(bs.kernel_value(kernel, v, h)) == _bits(kernel.profile(u))
            assert _bits(bs.g_value(kernel, v, h)) == _bits(kernel.g(u))
