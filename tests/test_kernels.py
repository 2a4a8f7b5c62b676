import json
import math

import numpy as np
import pytest

import blurshift as bs
from blurshift.kernels import TruncationClass


class TestProfileValues:
    def test_epanechnikov_profile(self):
        k = bs.builtin("epanechnikov")
        assert bs.eval_k(k, 0.0) == 1.0
        assert bs.eval_k(k, 2.0) == 0.0
        assert bs.eval_k(k, 0.25) == 0.75

    def test_gaussian_profile(self):
        k = bs.builtin("gaussian")
        assert bs.eval_k(k, 0.5) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_weight_values(self):
        epa = bs.builtin("epanechnikov")
        assert bs.eval_g(epa, 0.5) == 1.0
        assert bs.eval_g(epa, 1.5) == 0.0
        # boundary uses the left derivative
        assert bs.eval_g(epa, 1.0) == 1.0
        biw = bs.builtin("biweight")
        assert bs.eval_g(biw, 0.25) == pytest.approx(1.5, abs=1e-12)

    def test_all_builtins_normalized_at_zero(self):
        for kid in bs.ASSUMPTION1_IDS:
            assert bs.eval_k(bs.builtin(kid), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_negative_argument_rejected(self):
        k = bs.builtin("gaussian")
        with pytest.raises(ValueError):
            bs.eval_k(k, -0.1)
        with pytest.raises(ValueError):
            bs.eval_g(k, -1e-9)

    def test_vectorized_evaluation(self):
        k = bs.builtin("triweight")
        u = np.linspace(0, 3, 50)
        vals = bs.eval_k(k, u)
        assert vals.shape == u.shape
        assert np.all(np.diff(vals) <= 0)


def _assert_formula_bits(kernel, profile, weight):
    # the kernel's profile and g against one-line formulas, at special and
    # random arguments and at scalars, which give the formula's type (a
    # numpy float, or a 0-d array from np.where)
    one = np.array([1.0])
    special = np.concatenate([
        [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 1e308, -1e308],
        np.nextafter(one, 2.0), np.nextafter(one, 0.0)])
    u = np.concatenate([special, np.random.default_rng(5).uniform(-0.5, 2.5, 10**5)])
    with np.errstate(over="ignore"):  # (1e308)**p and (1 + 1e308)**2 overflow in both
        for public, formula in ((kernel.profile, profile), (kernel.g, weight)):
            assert public(u).tobytes() == formula(u).tobytes()
            for x in special:
                value, want = public(x), formula(np.asarray(x))
                assert type(value) is type(want) and np.shape(value) == ()
                assert np.asarray(value).tobytes() == np.asarray(want).tobytes()


class TestVectorForms:
    def test_kernel_value_at_origin(self):
        k = bs.builtin("gaussian")
        for h in (0.1, 1.0, 7.5):
            assert bs.kernel_value(k, np.zeros(3), h) == 1.0

    def test_kernel_value_epanechnikov(self):
        k = bs.builtin("epanechnikov")
        h = 0.8
        assert bs.kernel_value(k, [h, 0.0], h) == pytest.approx(0.5, abs=1e-12)
        assert bs.kernel_value(k, [2 * h, 0.0], h) == 0.0

    def test_g_value_boundary_membership(self):
        # at distance exactly beta*h the flat-weight kernel still joins
        epa = bs.builtin("epanechnikov")
        h = 1.3
        v = np.array([epa.beta * h, 0.0])
        assert bs.g_value(epa, v, h) == 1.0
        assert bs.g_value(epa, 1.5 * v, h) == 0.0

    def test_g_value_gaussian(self):
        k = bs.builtin("gaussian")
        assert bs.g_value(k, [2.0], 2.0) == pytest.approx(math.exp(-0.5), abs=1e-12)

    @pytest.mark.parametrize("kernel_id, p", [("epanechnikov", 1.0), ("biweight", 2.0),
                                              ("three_halves", 1.5), ("triweight", 3.0),
                                              ("quadweight", 4.0)])
    def test_polynomial_weights_keep_the_where_formula_bits(self, kernel_id, p):
        # the profile and the weights of scalar and per-query calls (which
        # run the pass's in-place evaluator, kernels.in_place) keep every
        # bit of the formula, the non-finite and signed-zero cases
        # included: (1 - u)_+^p, and 1 or 0 for p = 1, else
        # p (1 - u)_+^(p - 1) inside the support
        def weight(u):
            if p == 1.0:
                return np.where(u <= 1.0, 1.0, 0.0)
            t = np.maximum(1.0 - u, 0.0)
            return np.where(u <= 1.0, p * t ** (p - 1.0), 0.0)

        _assert_formula_bits(bs.builtin(kernel_id), lambda u: np.maximum(1 - u, 0) ** p, weight)

    @pytest.mark.parametrize("kernel_id, profile, weight", [
        ("gaussian", lambda u: np.exp(-u), lambda u: np.exp(-u)),
        ("cauchy", lambda u: 1 / (1 + u), lambda u: 1 / (1 + u) ** 2),
    ], ids=["gaussian", "cauchy"])
    def test_gaussian_and_cauchy_keep_the_formula_bits(self, kernel_id, profile, weight):
        _assert_formula_bits(bs.builtin(kernel_id), profile, weight)

    def test_bad_bandwidth(self):
        k = bs.builtin("gaussian")
        for h in (0.0, -1.0):
            with pytest.raises(ValueError):
                bs.kernel_value(k, [1.0], h)
            with pytest.raises(ValueError):
                bs.g_value(k, [1.0], h)


class TestTruncation:
    def test_classification_of_builtins(self):
        beta, cls = bs.classify_truncation(bs.builtin("epanechnikov"))
        assert beta == pytest.approx(math.sqrt(2.0))
        assert cls is TruncationClass.NON_SMOOTHLY_TRUNCATED

        beta, cls = bs.classify_truncation(bs.builtin("gaussian"))
        assert math.isinf(beta)
        assert cls is TruncationClass.NON_TRUNCATED

        beta, cls = bs.classify_truncation(bs.builtin("biweight"))
        assert beta == pytest.approx(math.sqrt(2.0))
        assert cls is TruncationClass.SMOOTHLY_TRUNCATED

    def test_recomputed_class_matches_stored(self):
        for kid in bs.ASSUMPTION1_IDS:
            spec = bs.builtin(kid)
            _, cls = bs.classify_truncation(spec)
            assert cls is spec.truncation, kid

    def test_truncated_support(self):
        for kid in ("epanechnikov", "cosine", "biweight", "three_halves"):
            spec = bs.builtin(kid)
            radii = np.linspace(0.05, 3.0, 200)
            vals = spec.profile(radii**2 / 2.0)
            inside = radii < spec.beta
            assert np.all(vals[inside] > 0), kid
            assert np.all(vals[~inside] == 0), kid


class TestAssumptionValidation:
    def test_tricube_fails_convexity(self):
        report = bs.validate_assumption1(bs.builtin("tricube"))
        assert not report.passed
        assert "convex" in report.failed_checks()

    def test_admissible_builtins_pass(self):
        for kid in bs.ASSUMPTION1_IDS:
            report = bs.validate_assumption1(bs.builtin(kid))
            assert report.passed, (kid, report.failed_checks())

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            bs.validate_assumption1(bs.builtin("gaussian"), grid_size=2)


class TestWeightProperties:
    """Sampled analogues of the subgradient-selection properties."""

    def test_supporting_line(self):
        # k(u) - k(v) >= -g(v) (u - v) for random u, v
        rng = np.random.default_rng(1)
        u = rng.uniform(0, 4, 2000)
        v = rng.uniform(0, 4, 2000)
        for kid in bs.ASSUMPTION1_IDS:
            spec = bs.builtin(kid)
            lhs = bs.eval_k(spec, u) - bs.eval_k(spec, v)
            rhs = -bs.eval_g(spec, v) * (u - v)
            assert np.all(lhs >= rhs - 1e-12), kid

    def test_zero_weight_implies_zero_profile(self):
        grid = np.linspace(0, 5, 4001)
        for kid in bs.ASSUMPTION1_IDS:
            spec = bs.builtin(kid)
            g = bs.eval_g(spec, grid)
            k = bs.eval_k(spec, grid)
            assert np.all(k[g == 0.0] == 0.0), kid

    def test_weight_nonnegative_nonincreasing(self):
        grid = np.linspace(0, 5, 4001)
        for kid in bs.ASSUMPTION1_IDS:
            g = bs.eval_g(bs.builtin(kid), grid)
            assert np.all(g >= 0), kid
            assert np.all(np.diff(g) <= 1e-15), kid

    def test_quadratic_minorizer(self):
        # H(v|v') = (G(v')/2)(|v'|^2 - |v|^2) + K(v') touches K at v' and
        # stays below it everywhere
        rng = np.random.default_rng(7)
        for kid in bs.ASSUMPTION1_IDS:
            spec = bs.builtin(kid)
            for _ in range(1000):
                d = int(rng.integers(1, 6))
                h = float(rng.uniform(0.5, 2.0))
                v = rng.normal(0, 1.2, d)
                vp = rng.normal(0, 1.2, d)
                gv = bs.g_value(spec, vp, h)
                hv = 0.5 * gv * (np.dot(vp, vp) - np.dot(v, v)) / h**2 + bs.kernel_value(spec, vp, h)
                assert hv <= bs.kernel_value(spec, v, h) + 1e-12
                hvv = bs.kernel_value(spec, vp, h)
                assert abs(hvv - bs.kernel_value(spec, vp, h)) <= 1e-12


class TestBoundaryRatio:
    def test_flat_kernel_ratio_is_one(self):
        assert bs.builtin("epanechnikov").alpha == 1.0

    def test_cosine_ratio(self):
        spec = bs.builtin("cosine")
        assert spec.alpha == pytest.approx(2.0 / math.pi, rel=1e-12)
        # matches the sampled infimum of g(u)/g(0) over the support
        grid = np.linspace(1e-9, spec.boundary_u, 100_000)
        g = bs.eval_g(spec, grid)
        sampled = np.min(g[g > 0] / spec.g0)
        assert spec.alpha == pytest.approx(sampled, rel=1e-12)

    def test_ratio_present_only_for_sharp_truncation(self):
        for kid in bs.ASSUMPTION1_IDS:
            spec = bs.builtin(kid)
            if spec.truncation is TruncationClass.NON_SMOOTHLY_TRUNCATED:
                assert spec.alpha is not None and 0 < spec.alpha <= 1.0
            else:
                assert spec.alpha is None


class TestCustomKernels:
    def test_alias_descriptor(self):
        spec = bs.kernel_from_descriptor({"profile": "gaussian"})
        assert spec.id == "gaussian"

    def test_sampled_triangle_profile(self):
        desc = {
            "id": "tri",
            "samples": {"u": [0.0, 1.0, 1.5], "k": [1.0, 0.0, 0.0]},
            "beta": math.sqrt(2.0),
            "class": "non_smoothly_truncated",
        }
        spec = bs.kernel_from_descriptor(desc)
        assert bs.eval_k(spec, 0.5) == pytest.approx(0.5)
        assert bs.eval_k(spec, 2.0) == 0.0
        assert bs.eval_g(spec, 0.5) == pytest.approx(1.0)
        assert bs.eval_g(spec, 1.0) == pytest.approx(1.0)  # left slope at knot
        assert bs.eval_g(spec, 1.2) == pytest.approx(0.0)
        assert spec.g0 == pytest.approx(1.0)
        assert spec.alpha == pytest.approx(1.0)

    def test_sampled_profile_normalized(self):
        desc = {
            "samples": {"u": [0.0, 2.0], "k": [4.0, 0.0]},
            "beta": 2.0,
            "class": "non_smoothly_truncated",
        }
        spec = bs.kernel_from_descriptor(desc)
        assert bs.eval_k(spec, 0.0) == 1.0

    def test_missing_declarations_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            bs.kernel_from_descriptor({"samples": {"u": [0.0, 1.0], "k": [1.0, 0.0]}})
        with pytest.raises(ValueError, match="profile|samples"):
            bs.kernel_from_descriptor({})
        with pytest.raises(ValueError, match="truncation class"):
            bs.kernel_from_descriptor({
                "samples": {"u": [0.0, 1.0], "k": [1.0, 0.0]},
                "beta": 1.0, "class": "nope",
            })

    def test_non_truncated_class_rejected_for_samples(self):
        # the interpolant is zero beyond the last sample, so a declared
        # infinite support would contradict it
        with pytest.raises(ValueError, match="'class' cannot be 'non_truncated'"):
            bs.kernel_from_descriptor({
                "samples": {"u": [0.0, 1.0, 2.0], "k": [1.0, 0.5, 0.25]},
                "beta": 1.0, "class": "non_truncated",
            })

    def test_truncated_beta_must_be_finite_and_positive(self, tmp_path):
        for beta in (math.inf, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="'beta' must be finite and positive"):
                bs.kernel_from_descriptor({
                    "samples": {"u": [0.0, 1.0], "k": [1.0, 0.0]},
                    "beta": beta, "class": "smoothly_truncated",
                })
        # JSON parses 1e400 to inf
        path = tmp_path / "kern.json"
        path.write_text('{"samples": {"u": [0, 1], "k": [1, 0]}, "beta": 1e400, '
                        '"class": "non_smoothly_truncated"}')
        with pytest.raises(ValueError, match="'beta' must be finite and positive"):
            bs.load_kernel_json(path)

    def test_beta_contradicted_by_the_samples_rejected(self):
        # with beta = 0.5 this profile would join two points 1.5 h apart
        # (u = 1.125, where k = 0.4375 and g = 0.5)
        for u, k, beta in (([0.0, 1.0, 2.0], [1.0, 0.5, 0.0], 0.5),
                           ([0.0, 0.5, 1.0], [1.0, 0.5, 0.0], 1.4142),  # below sqrt(2)
                           ([0.0, 1.0, 2.0], [1.0, 0.0, 0.0], math.sqrt(1.8)),  # inside a ramp
                           ([0.0, 1.0, 2.0], [1.0, 0.5, 0.2], 1.99)):  # k jumps at u = 2
            with pytest.raises(ValueError, match="'beta' .* contradicts the samples"):
                bs.kernel_from_descriptor({"samples": {"u": u, "k": k}, "beta": beta,
                                           "class": "non_smoothly_truncated"})
        # a beta rounded from sqrt(2 u) of the support's end, or above it, is kept
        for u, k, beta in (([0.0, 0.5, 1.0], [1.0, 0.5, 0.0], math.sqrt(2.0)),
                           ([0.0, 1.5], [1.0, 0.0], math.sqrt(3.0)),
                           ([0.0, 1.0, 2.0], [1.0, 0.5, 0.2], 2.0),
                           ([0.0, 1.0, 2.0], [1.0, 0.0, 0.0], 1.5)):
            spec = bs.kernel_from_descriptor({"samples": {"u": u, "k": k}, "beta": beta,
                                              "class": "non_smoothly_truncated"})
            assert spec.beta == beta

    def test_bad_sample_grids_rejected(self):
        for u, k in ([[0.5, 1.0], [1.0, 0.0]], [[0.0], [1.0]], [[0.0, 0.0], [1.0, 0.0]]):
            with pytest.raises(ValueError):
                bs.kernel_from_descriptor({
                    "samples": {"u": u, "k": k},
                    "beta": 1.0, "class": "non_smoothly_truncated",
                })

    def test_non_finite_sample_grid_rejected_by_name(self):
        # NaN passes a test of np.diff(u) <= 0: these grids gave g(0) = nan,
        # zeroed every weight, and reached only the beta check
        for u in ([0.0, math.nan, 1.0], [0.0, 0.5, math.nan], [0.0, 0.5, math.inf]):
            with pytest.raises(ValueError, match="sample grid 'u' must be finite"):
                bs.kernel_from_descriptor({"samples": {"u": u, "k": [1.0, 0.5, 0.0]},
                                           "beta": math.sqrt(2.0),
                                           "class": "non_smoothly_truncated"})

    @pytest.mark.parametrize("samples,match", [
        ({"u": [0.0, 1.0], "k": [1.0, math.nan]}, "sample values must be finite"),
        ({"u": [0.0, 1.0], "k": [math.inf, 0.0]}, "sample values must be finite"),
        ({"u": [0.0, 1.0], "k": [0.0, 0.0]}, "profile must be positive at 0"),
        ({"u": [0.0, 1.0], "k": [-1.0, 0.0]}, "profile must be positive at 0"),
        ({"u": [0.0, 1.0], "k": [None, 0.0]}, "sample values must be finite"),  # null is NaN
        ({"u": [0.0, 1.0], "k": {"0": 1.0}}, "numeric lists 'u' and 'k'"),
        ({"u": [0.0, 1.0], "k": ["one", 0.0]}, "numeric lists 'u' and 'k'"),
        ({"u": [0.0, 1.0]}, "numeric lists 'u' and 'k'"),
    ], ids=["nan-k", "inf-k", "zero-k0", "negative-k0", "null-k", "object-k", "text-k", "no-k"])
    def test_bad_sample_values_rejected_by_name(self, samples, match):
        with pytest.raises(ValueError, match=match):
            bs.kernel_from_descriptor({"samples": samples, "beta": math.sqrt(2.0),
                                       "class": "non_smoothly_truncated"})

    def test_descriptor_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "kern.json"
        path.write_text('["gaussian"]')
        with pytest.raises(ValueError, match="kernel descriptor must be a JSON object"):
            bs.load_kernel_json(path)

    def test_load_from_json_file(self, tmp_path):
        path = tmp_path / "kern.json"
        path.write_text(json.dumps({
            "samples": {"u": [0.0, 1.0, 1.5], "k": [1.0, 0.0, 0.0]},
            "beta": math.sqrt(2.0),
            "class": "non_smoothly_truncated",
        }))
        spec = bs.load_kernel_json(path)
        assert bs.eval_k(spec, 0.25) == pytest.approx(0.75)
        assert bs.get_kernel(str(path)).id == spec.id

    def test_unknown_kernel_id(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            bs.get_kernel("nonexistent")
