import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from derivatives import finite_diff_gradient, finite_diff_jacobian
from tamedlmc.numerics import (
    QuadratureError,
    RngStream,
    integrate_semi_infinite,
    normal_cdf,
)


class TestRngStream:
    def test_same_address_same_sequence(self):
        a = RngStream(42, 3)
        b = RngStream(42, 3)
        xa = np.concatenate([a.normal(10) for _ in range(10)])
        xb = np.concatenate([b.normal(10) for _ in range(10)])
        assert np.array_equal(xa, xb)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0)
        b = RngStream(42, 1)
        assert not np.array_equal(a.normal(100), b.normal(100))

    def test_chunking_invariance(self):
        # drawing (B, d) blocks consumes the same values as repeated
        # per-step draws; the vectorized sampler's noise blocks rely on it
        whole = RngStream(7, 0).normal((50, 3)).ravel()
        s = RngStream(7, 0)
        piecewise = np.concatenate([s.normal(3) for _ in range(50)])
        assert np.array_equal(whole, piecewise)

    def test_stream_independence_chi_square(self):
        # pair up uniformized draws from two streams; bin counts should be
        # consistent with the uniform law on the unit square
        n = 100_000
        u = normal_cdf(RngStream(2024, 0).normal(n))
        v = normal_cdf(RngStream(2024, 1).normal(n))
        k = 10
        counts, _, _ = np.histogram2d(u, v, bins=k, range=[[0, 1], [0, 1]])
        expected = n / k**2
        stat = float(np.sum((counts - expected) ** 2 / expected))
        # chi2(99) 0.999 quantile
        from scipy.stats import chi2

        assert stat < chi2.ppf(0.999, k * k - 1)

    def test_moments(self):
        x = RngStream(1, 0).normal(1_000_000)
        assert abs(x.mean()) < 4.0 / math.sqrt(1e6)
        assert abs(x.var() - 1.0) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(1, -1)


def numpy_stream(seed, i):
    # the oracle: PCG64 seeded through numpy's own SeedSequence
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,)))


def assert_same_stream(stream, seed, i):
    oracle = numpy_stream(seed, i)
    assert (stream.master_seed, stream.stream_index) == (seed, i)
    assert stream._gen.bit_generator.state == oracle.state
    assert np.array_equal(stream.normal(5), np.random.Generator(oracle).standard_normal(5))


# one, four and five 32-bit words of entropy, and anything below 2**160
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**96, 2**128 - 1),
                  st.integers(2**128, 2**160 - 1), st.integers(0, 2**160 - 1))
INDICES = st.integers(0, 2**32 - 1)


class TestFamilySeeding:
    """RngStream.family reproduces numpy's SeedSequence for every member."""

    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, indices=st.lists(INDICES, max_size=6))
    def test_family_and_singles_match_numpy(self, seed, indices):
        family = RngStream.family(seed, indices)
        assert len(family) == len(indices)
        for stream, i in zip(family, indices):
            assert_same_stream(stream, seed, i)
            assert_same_stream(RngStream(seed, i), seed, i)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n=st.integers(0, 40), workers=st.integers(1, 4),
           worker=st.integers(0, 3))
    def test_worker_partition_matches_singles(self, seed, n, workers, worker):
        # one part of a partition of the indices: an int64 slice that
        # need not start at 0, and may be empty
        part = np.array_split(np.arange(n), workers)[worker % workers]
        family = RngStream.family(seed, part)
        assert [s.stream_index for s in family] == part.tolist()
        for stream, i in zip(family, part.tolist()):
            assert_same_stream(stream, seed, i)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(max_value=-1), i=INDICES)
    def test_negative_seed_refused(self, seed, i):
        with pytest.raises(ValueError, match="non-negative"):
            RngStream(seed, i)
        with pytest.raises(ValueError, match="non-negative"):
            RngStream.family(seed, [])

    @pytest.mark.parametrize("i", [-1, 2**32, 2**64])
    def test_index_out_of_range_refused(self, i):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            RngStream(0, i)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            RngStream.family(0, [0, i])


class TestNormalCdf:
    def test_scipy_oracle(self):
        from scipy.special import ndtr

        xs = np.concatenate([RngStream(5, 0).normal(100_000) * 3.0,
                             np.linspace(-40.0, 40.0, 8001)])
        assert np.max(np.abs(normal_cdf(xs) - ndtr(xs))) <= 1e-14

    def test_shapes(self):
        assert type(normal_cdf(0.0)) is np.float64 and normal_cdf(0.0) == 0.5
        assert normal_cdf(np.zeros((2, 3))).shape == (2, 3)
        assert normal_cdf(np.empty(0)).shape == (0,)


class TestIntegrateSemiInfinite:
    def test_exponential(self):
        res = integrate_semi_infinite(lambda r: math.exp(-r))
        assert abs(res.value - 1.0) < 1e-10
        assert abs(res.value - 1.0) <= res.abs_error_estimate
        assert res.evaluations >= 1

    def test_gaussian_moment(self):
        res = integrate_semi_infinite(lambda r: r * math.exp(-r * r))
        assert abs(res.value - 0.5) < 1e-10
        assert abs(res.value - 0.5) <= res.abs_error_estimate

    def test_gamma_oracle(self):
        # integral of r^3.5 e^-r equals Gamma(4.5)
        res = integrate_semi_infinite(lambda r: r**3.5 * math.exp(-r))
        exact = math.exp(math.lgamma(4.5))
        assert abs(res.value - exact) < 1e-8
        assert abs(res.value - exact) <= res.abs_error_estimate

    @pytest.mark.parametrize(
        "f,exact",
        [
            (lambda r: math.exp(-3 * r), 1.0 / 3.0),
            (lambda r: r**2 * math.exp(-r), 2.0),
            (lambda r: math.exp(-0.5 * r * r), math.sqrt(math.pi / 2)),
            (lambda r: r**5 * math.exp(-2 * r), 120.0 / 64.0),
        ],
    )
    def test_error_estimate_honest(self, f, exact):
        res = integrate_semi_infinite(f)
        assert abs(res.value - exact) <= res.abs_error_estimate

    def test_slow_polynomial_decay_still_converges(self):
        # integrable but only polynomially decaying: arctan limit pi/2
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = integrate_semi_infinite(lambda r: 1.0 / (1.0 + r * r))
        assert res.value == pytest.approx(math.pi / 2, abs=1e-6)

    def test_divergent_integrand(self):
        import warnings

        with pytest.raises(QuadratureError), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            integrate_semi_infinite(lambda r: 1.0 / (1.0 + r))

    def test_non_decaying_integrand(self):
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(lambda r: 1.0)

    def test_evaluation_budget(self):
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(lambda r: math.exp(-r), max_evaluations=10)


class TestFiniteDifferences:
    def test_quadratic(self):
        grad = finite_diff_gradient(lambda th: 0.5 * float(th @ th), np.array([1.0, 2.0]), step=1e-5)
        assert np.allclose(grad, [1.0, 2.0], atol=1e-8)

    def test_constant(self):
        grad = finite_diff_gradient(lambda th: 3.0, np.array([0.3, -0.7, 2.0]))
        assert np.allclose(grad, 0.0)

    def test_double_well_point(self):
        # oracle: gradient (|theta|^2 - 1) theta evaluated at (2, 0)
        theta = np.array([2.0, 0.0])
        expected = (theta @ theta - 1.0) * theta
        u = lambda th: 0.25 * float(th @ th) ** 2 - 0.5 * float(th @ th)
        grad = finite_diff_gradient(u, theta)
        assert np.allclose(grad, expected, atol=1e-6)

    def test_jacobian_identity(self):
        jac = finite_diff_jacobian(lambda th: th.copy(), np.array([0.5, -1.0, 2.0]))
        assert np.allclose(jac, np.eye(3), atol=1e-9)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda th: 0.0, np.zeros(2), step=0.0)
