import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tamedlmc.numerics import RngStream, normal_cdf
from tamedlmc.metrics import (
    cdf_from_pdf,
    fit_rate,
    histogram,
    ks_statistic,
    marginal_support,
    sliced_wasserstein,
    wasserstein_1d,
)


def brute_force_w1d(xs, ys, p):
    # exhaustive search over couplings of equal-size empirical measures
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    best = math.inf
    for perm in itertools.permutations(range(len(ys))):
        cost = np.mean(np.abs(xs - ys[list(perm)]) ** p)
        best = min(best, cost)
    return best ** (1.0 / p)


def assignment_wasserstein(a, b, p):
    # exact d-dimensional W_p between equal-size clouds by exhaustive
    # assignment enumeration
    n = a.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean(np.linalg.norm(a - b[list(perm)], axis=1) ** p)
        best = min(best, cost)
    return best ** (1.0 / p)


class TestWasserstein1D:
    def test_identical(self):
        xs = np.array([0.3, -1.2, 5.0])
        assert wasserstein_1d(xs, xs.copy(), p=1) == 0.0

    def test_two_point_coupling(self):
        # oracle: enumerate both couplings of {0,2} against {1,3}
        assert wasserstein_1d([0, 2], [1, 3], p=1) == pytest.approx(
            brute_force_w1d([0, 2], [1, 3], 1)
        )
        assert wasserstein_1d([0, 2], [1, 3], p=1) == pytest.approx(1.0)

    def test_single_point(self):
        assert wasserstein_1d([0.0], [3.0], p=2) == pytest.approx(3.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for i in range(100):
            n = int(rng.integers(1, 7))
            xs = rng.standard_normal(n) * 3
            ys = rng.standard_normal(n) * 2 + 1
            p = float(rng.choice([1, 2, 3]))
            assert wasserstein_1d(xs, ys, p) == pytest.approx(
                brute_force_w1d(xs, ys, p), rel=1e-12
            ), i

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda n: st.tuples(*2 * [st.lists(
            st.floats(-100.0, 100.0, allow_nan=False), min_size=n, max_size=n)])),
        st.sampled_from([1, 2]),
    )
    def test_matches_brute_force_property(self, samples, p):
        xs, ys = samples
        assert wasserstein_1d(xs, ys, p) == pytest.approx(brute_force_w1d(xs, ys, p), rel=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            c = rng.standard_normal(n)
            dab = wasserstein_1d(a, b, 2)
            assert dab == pytest.approx(wasserstein_1d(b, a, 2))
            assert wasserstein_1d(a, a, 2) == 0.0
            assert dab <= wasserstein_1d(a, c, 2) + wasserstein_1d(c, b, 2) + 1e-12

    def test_order_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.standard_normal(20)
            b = rng.standard_normal(20)
            assert wasserstein_1d(a, b, 1) <= wasserstein_1d(a, b, 2) + 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein_1d([1, 2], [1], p=1)
        with pytest.raises(ValueError):
            wasserstein_1d([], [], p=1)


class TestSlicedWasserstein:
    def test_identical(self):
        a = np.random.default_rng(0).standard_normal((30, 4))
        assert sliced_wasserstein(a, a.copy(), stream=RngStream(0, 0)) == 0.0

    def test_translation(self):
        # E <t, u>^2 = |t|^2 / d for uniform directions: distance |t|/sqrt(2)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((200, 2))
        t = np.array([3.0, -1.0])
        d = sliced_wasserstein(a, a + t, p=2, n_proj=1000, stream=RngStream(1, 0))
        assert d == pytest.approx(np.linalg.norm(t) / math.sqrt(2.0), rel=0.05)

    def test_d1_equals_exact(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((40, 1))
        b = rng.standard_normal((40, 1)) + 0.5
        sw = sliced_wasserstein(a, b, p=2, n_proj=17, stream=RngStream(2, 0))
        assert sw == pytest.approx(wasserstein_1d(a.ravel(), b.ravel(), 2), rel=1e-12)

    def test_lower_bounds_assignment(self):
        rng = np.random.default_rng(6)
        for i in range(100):
            n = int(rng.integers(2, 7)) if i < 80 else int(rng.integers(7, 9))
            a = rng.standard_normal((n, 2))
            b = rng.standard_normal((n, 2)) + rng.standard_normal(2)
            exact = assignment_wasserstein(a, b, 2)
            sw = sliced_wasserstein(a, b, p=2, n_proj=64, stream=RngStream(10 + i, 0))
            assert sw <= exact + 1e-12, i

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sliced_wasserstein(np.zeros((3, 2)), np.zeros((4, 2)), stream=RngStream(0, 0))


class TestKS:
    def test_exact_quantile_grid(self):
        # inverse-transform points at quantiles (i - 1/2)/N give KS 1/(2N)
        for n in (5, 50, 400):
            quantiles = (np.arange(1, n + 1) - 0.5) / n
            from scipy.special import ndtri

            xs = ndtri(quantiles)
            assert ks_statistic(xs, normal_cdf) == pytest.approx(1.0 / (2 * n), rel=1e-9)

    def test_single_median_sample(self):
        assert ks_statistic([0.0], normal_cdf) == pytest.approx(0.5)

    def test_far_left_mass(self):
        xs = np.full(10, -1e9)
        assert ks_statistic(xs, normal_cdf) == pytest.approx(1.0)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            xs = rng.standard_normal(int(rng.integers(1, 200)))
            stat = ks_statistic(xs, normal_cdf)
            assert 0.0 <= stat <= 1.0


class TestFitRate:
    def test_exact_linear(self):
        lams = [0.1, 0.05, 0.01]
        fit = fit_rate(lams, lams)
        assert fit.slope == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_square_root(self):
        lams = np.array([0.2, 0.1, 0.05, 0.01])
        fit = fit_rate(lams, np.sqrt(lams))
        assert fit.slope == pytest.approx(0.5)

    @pytest.mark.parametrize("slope", [0.5, 1.0, 2.0])
    def test_planted_slopes(self, slope):
        lams = np.array([0.2, 0.1, 0.05, 0.02, 0.01])
        fit = fit_rate(lams, 3.0 * lams**slope)
        assert abs(fit.slope - slope) <= 0.02

    def test_multiplicative_noise(self):
        rng = np.random.default_rng(9)
        lams = np.logspace(-3, -1, 12)
        dists = 2.0 * lams * (1.0 + 0.01 * rng.standard_normal(12))
        fit = fit_rate(lams, dists)
        assert 0.95 <= fit.slope <= 1.05

    def test_points_recorded(self):
        fit = fit_rate([0.1, 0.2], [0.3, 0.6])
        assert fit.to_dict().keys() == {"slope", "intercept", "r_squared"}

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_rate([0.1], [0.1])
        with pytest.raises(ValueError):
            fit_rate([0.1, -0.2], [0.1, 0.2])
        with pytest.raises(ValueError):
            fit_rate([0.1, 0.2], [0.0, 0.2])


class TestHistogram:
    def test_single_bin_mass(self):
        h = histogram(np.full(100, 0.5), n_bins=4, value_range=(0.0, 1.0))
        width = 0.25
        assert h.densities[2] == pytest.approx(1.0 / width)
        assert h.densities[0] == h.densities[1] == h.densities[3] == 0.0
        assert h.inside_fraction == 1.0

    def test_uniform(self):
        xs = RngStream(13, 0).normal(2_000_000)
        xs = normal_cdf(xs)  # exactly uniform on (0, 1)
        h = histogram(xs, n_bins=10, value_range=(0.0, 1.0))
        assert np.all(np.abs(h.densities - 1.0) < 0.02)

    def test_outside_mass_reported(self):
        xs = np.array([-5.0, 0.5, 5.0, 0.2])
        h = histogram(xs, n_bins=2, value_range=(0.0, 1.0))
        assert h.inside_fraction == pytest.approx(0.5)
        assert np.sum(h.densities) * h.bin_width == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([1.0], n_bins=0, value_range=(0, 1))
        with pytest.raises(ValueError):
            histogram([1.0], n_bins=2, value_range=(1, 0))


class TestCdfFromPdf:
    def test_matches_gaussian_cdf(self):
        pdf = lambda x: np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2 * math.pi)
        cdf = cdf_from_pdf(pdf, -10.0, 10.0)
        xs = np.linspace(-4, 4, 41)
        # trapezoid rule on the 4096-point grid carries O(h^2) ~ 1e-6 error
        assert np.max(np.abs(cdf(xs) - normal_cdf(xs))) < 3e-6

    def test_clamped_outside(self):
        pdf = lambda x: np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2 * math.pi)
        cdf = cdf_from_pdf(pdf, -8.0, 8.0)
        assert cdf(-100.0) == 0.0
        assert cdf(100.0) == pytest.approx(1.0, abs=1e-9)

    def test_support_growth(self):
        pdf = lambda x: np.exp(-0.5 * (np.asarray(x) - 6.0) ** 2) / math.sqrt(2 * math.pi)
        lo, hi = marginal_support(pdf)
        assert hi > 12.0
        cdf = cdf_from_pdf(pdf, lo, hi)
        assert cdf(hi) == pytest.approx(1.0, abs=1e-6)
