import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import expit, gammaln

from derivatives import dense_hessian, finite_diff_gradient, finite_diff_jacobian
from tamedlmc import potentials
from tamedlmc.metrics import marginal_support
from tamedlmc.numerics import RngStream
from tamedlmc.potentials import (
    TargetSpec,
    check_assumption_2,
    check_assumption_3,
    check_assumption_4,
    default_mixture_center,
    hessian_diff_norm,
    hessian_norm,
    hessian_vector_product,
    make_double_well,
    make_gaussian,
    make_target,
    marginal_pdf,
    override_constants,
)

ALL_NAMES = ["gaussian", "mixture", "double-well"]


def random_points(seed, n, d, radius):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    pts *= radius * rng.random((n, 1)) ** (1.0 / d) / np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


class TestBuiltins:
    def test_gaussian(self):
        t = make_gaussian(2)
        assert np.allclose(t.h(np.zeros(2)), 0.0)
        assert t.U(np.array([3.0, 4.0])) == pytest.approx(12.5)
        assert (t.r, t.nu, t.L, t.K, t.a_tilde, t.b_tilde, t.L_grad) == (0, 0, 1, 1, 1, 1, 1)

    def test_mixture_constants(self):
        # d = 4 makes |a_dot| = 2 exact in floating point
        t = make_target("mixture", 4)
        assert np.allclose(t.h(np.zeros(4)), 0.0, atol=1e-15)
        assert t.L == pytest.approx(17.0)
        assert t.K == pytest.approx(2.0)
        assert (t.a_tilde, t.b_tilde) == (0.5, 2.0)
        assert t.L_grad == pytest.approx(64.0)

    def test_mixture_far_field(self):
        t = make_target("mixture", 4)
        a = default_mixture_center(4)
        theta = 1e4 * a
        assert np.allclose(t.h(theta), theta - a, atol=1e-12)

    def test_mixture_no_overflow(self):
        t = make_target("mixture", 4)
        a = default_mixture_center(4)
        for sign in (+1.0, -1.0):
            theta = sign * 1e4 / 4.0 * a  # <a, theta> = +/- 1e4
            assert np.all(np.isfinite(t.h(theta)))
            assert np.isfinite(t.U(theta))
            assert np.all(np.isfinite(dense_hessian(t, theta)))

    def test_double_well(self):
        t = make_double_well(3)
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            assert np.allclose(t.h(u), 0.0, atol=1e-14)
        assert np.allclose(t.h(np.array([2.0, 0.0, 0.0])), [6.0, 0.0, 0.0])
        assert (t.r, t.nu, t.L, t.K, t.a, t.b, t.r_bar, t.L_grad) == (2, 1, 1, 2, 0.5, 1, 0, 3)

    def test_batched_evaluation(self):
        for name in ALL_NAMES:
            t = make_target(name, 5)
            pts = random_points(3, 40, 5, 4.0)
            batch = t.h(pts)
            rows = np.stack([t.h(p) for p in pts])
            assert np.array_equal(batch, rows)
            assert np.array_equal(t.U(pts), np.array([t.U(p) for p in pts]))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_facts_survive_pickling(self, name):
        # a target pickles, facts included, so it can cross a process boundary
        t = make_target(name, 3)
        back = pickle.loads(pickle.dumps(t))
        xs = np.linspace(-2.0, 2.0, 5)
        assert np.array_equal(back.marginal(xs), t.marginal(xs))
        assert back.second_moment(2.0) == t.second_moment(2.0)
        assert (back.exact_draw is None) == (name != "gaussian")
        pts = random_points(4, 6, 3, 3.0)
        assert np.array_equal(hessian_diff_norm(back, pts, pts[::-1]), hessian_diff_norm(t, pts, pts[::-1]))

    def test_building_does_no_quadrature(self, monkeypatch):
        # normalizers and moments are computed on first use, not per target
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature while building a target")

        for rule in ("integrate_semi_infinite", "_double_well_log_numerators", "panel_rule"):
            monkeypatch.setattr(potentials, rule, refuse)
        for name in ALL_NAMES:
            t = make_target(name, 137)
            assert t.marginal is not None and t.second_moment is not None

    def test_make_target_unknown(self):
        with pytest.raises(ValueError):
            make_target("banana", 2)

    def test_spec_validation(self):
        g = make_gaussian(2)
        parts = dict(U=g.U, drift_parts=g.drift_parts, hess_parts=g.hess_parts)
        with pytest.raises(ValueError):
            TargetSpec(name="bad", d=2, **parts, r=2, nu=0, L=1, K=1, L_grad=1)
        with pytest.raises(ValueError):
            TargetSpec(name="bad", d=2, **parts, r=0, nu=0, L=1, K=1, L_grad=1,
                       a=1, b=1, r_bar=0, a_tilde=1, b_tilde=1)

    def test_override(self):
        t = override_constants(make_double_well(2), L=0.01)
        assert t.L == 0.01
        with pytest.raises(ValueError):
            override_constants(make_double_well(2), name="x")


class TestGradientConsistency:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("d", [2, 10])
    def test_gradient_matches_finite_differences(self, name, d):
        t = make_target(name, d)
        for i, theta in enumerate(random_points(100 + d, 100, d, 5.0)):
            fd = finite_diff_gradient(t.U, theta)
            h = t.h(theta)
            assert np.linalg.norm(h - fd) <= 1e-6 * (1.0 + np.linalg.norm(h)), (name, i)

    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("d", [2, 10])
    def test_hessian_matches_finite_differences(self, name, d):
        t = make_target(name, d)
        for theta in random_points(200 + d, 25, d, 5.0):
            jac = finite_diff_jacobian(t.h, theta)
            hess = dense_hessian(t, theta)
            scale = 1.0 + np.abs(hess)
            assert np.all(np.abs(hess - jac) <= 1e-5 * scale)


def oracle_log_radial(d, x, extra, beta=1.0):
    # log of int_0^inf 2 s^(d-2+extra) exp(-beta (q^2/4 - q/2)) ds, q = s^2 + x^2,
    # by adaptive quadrature split at the peak and shifted by its value
    x2 = x * x
    c = d - 2 + extra
    u = 0.5 * ((1.0 - x2) + math.sqrt((x2 - 1.0) ** 2 + 4.0 * c / beta))
    peak = math.sqrt(max(u, 0.0))

    def log_f(s):
        q = s * s + x2
        return (c * math.log(s) if c else 0.0) - beta * (0.25 * q * q - 0.5 * q)

    top = log_f(peak)

    def g(s):
        return math.exp(log_f(s) - top) if s > 0 or c == 0 else 0.0

    total = 0.0
    for a, b in ((0.0, peak), (peak, peak + 10.0)):
        if b > a:
            total += quad(g, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return math.log(2.0 * total) + top


def oracle_double_well_pdf(d, x):
    # the first marginal by the radial formula: numerator over x, the
    # normalizer as the same integral at x = 0 with s^(d-1)
    log_den = oracle_log_radial(d, 0.0, 1)
    log_scale = gammaln(d / 2.0) - gammaln((d - 1.0) / 2.0) - 0.5 * math.log(math.pi)
    return math.exp(log_scale + oracle_log_radial(d, x, 0) - log_den)


class TestMarginals:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 10, 100, 1000])
    def test_double_well_matches_adaptive_quadrature(self, d):
        md = marginal_pdf(make_double_well(d))
        lo, hi = marginal_support(md.pdf)
        xs = np.linspace(lo, hi, 41)
        expect = np.array([oracle_double_well_pdf(d, x) for x in xs])
        assert np.all(expect > 0.0)
        assert np.max(np.abs(md.pdf(xs) / expect - 1.0)) <= 1e-12

    def test_double_well_shapes_and_symmetry(self):
        pdf = marginal_pdf(make_double_well(7)).pdf
        assert type(pdf(0.25)) is float
        assert type(pdf(np.float64(0.25))) is float
        grid = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        assert pdf(grid).shape == (2, 3, 4)
        assert pdf(np.empty(0)).shape == (0,)
        xs = np.random.default_rng(8).uniform(-4, 4, 3000)  # more than one block
        assert np.array_equal(pdf(xs), pdf(-xs))
        assert np.array_equal(pdf(xs[:5]), np.array([pdf(x) for x in xs[:5]]))
        # far tails underflow to zero, not to nan
        for d in (2, 7):
            far = marginal_pdf(make_double_well(d)).pdf(np.array([40.0, -1e5, 1e10, 1e50]))
            assert far.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_gaussian_mode(self):
        md = marginal_pdf(make_gaussian(7))
        assert md.pdf(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-12)

    def test_mixture_symmetry(self):
        md = marginal_pdf(make_target("mixture", 16))
        xs = np.random.default_rng(5).uniform(-6, 6, 100)
        assert np.array_equal(md.pdf(xs), md.pdf(-xs))

    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("d", [2, 20, 100])
    def test_normalization(self, name, d):
        md = marginal_pdf(make_target(name, d))
        assert abs(md.normalization_check - 1.0) <= 1e-10

    def test_positive(self):
        md = marginal_pdf(make_double_well(10))
        xs = np.linspace(-3, 3, 31)
        assert np.all(md.pdf(xs) >= 0.0)

    def test_unsupported_target(self):
        g = make_gaussian(2)
        t = TargetSpec(name="custom", d=2, U=g.U, drift_parts=g.drift_parts,
                       hess_parts=g.hess_parts, r=0, nu=0, L=1, K=1, L_grad=1,
                       a_tilde=1, b_tilde=1)
        with pytest.raises(ValueError):
            marginal_pdf(t)


class TestLawFacts:
    """The normalizers and second moments against adaptive quadrature."""

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 10, 100, 1000])
    def test_double_well(self, d, beta):
        log_z = potentials._double_well_log_radial(d + 1, beta)
        assert abs(math.expm1(log_z - oracle_log_radial(d, 0.0, 1, beta))) <= 1e-12
        m2 = math.exp(oracle_log_radial(d, 0.0, 3, beta) - oracle_log_radial(d, 0.0, 1, beta))
        assert make_double_well(d).second_moment(beta) == pytest.approx(m2, rel=1e-12, abs=0)

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("d", [1, 2, 10, 100])
    def test_mixture(self, d, beta):
        a = float(np.linalg.norm(default_mixture_center(d)))

        def g(u):
            return math.exp(-0.5 * beta * (u - a) ** 2 + beta * np.logaddexp(0.0, -2.0 * a * u))

        lo, hi = -a - 40.0 / math.sqrt(beta), a + 40.0 / math.sqrt(beta)
        pts = [-a, 0.0, a]
        z = quad(g, lo, hi, points=pts, limit=200, epsabs=0.0, epsrel=1e-13)[0]
        m2 = quad(lambda u: u * u * g(u), lo, hi, points=pts, limit=200, epsabs=0.0,
                  epsrel=1e-13)[0]
        expect = m2 / z + (d - 1) / beta
        assert make_target("mixture", d).second_moment(beta) == pytest.approx(
            expect, rel=1e-13, abs=0)

    def test_logistic(self):
        z = np.concatenate([np.linspace(-800.0, 800.0, 100_001), RngStream(6, 0).normal(10_000)])
        assert np.max(np.abs(potentials._logistic(z) - expit(z))) <= 1e-14


class TestAssumptionCheckers:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_builtins_pass(self, name):
        t = make_target(name, 5)
        n = 2000
        assert check_assumption_2(t, n, 10.0, RngStream(0, 0)).ok
        assert check_assumption_3(t, n, 10.0, RngStream(0, 1)).ok
        assert check_assumption_4(t, n, 10.0, RngStream(0, 2)).ok

    def test_gaussian_equality_case(self):
        # h is the identity: the Lipschitz bound holds with equality
        rep = check_assumption_2(make_gaussian(3), 5000, 10.0, RngStream(1, 0))
        assert rep.ok

    def test_falsification_control(self):
        t = override_constants(make_double_well(4), L=0.01)
        rep = check_assumption_2(t, 2000, 10.0, RngStream(2, 0))
        assert not rep.ok
        v = rep.violations[0]
        assert v["lhs"] > v["rhs"]
        assert v["theta_prime"] is not None

    def test_report_keeps_first_records_and_exact_count(self):
        # 9,703 of 10,000 pairs break the Hessian bound at L_grad = 0.5 (the
        # count `check --dim 10 --seed 1 --override L_grad=0.5` reports);
        # only the 10 records the payload lists are built
        t = override_constants(make_double_well(10), L_grad=0.5)
        rep = check_assumption_4(t, 10_000, 10.0, RngStream(1, 2))
        assert rep.n_violations == 9703
        assert len(rep.violations) == 10
        assert not rep.ok
        # records are the first violating pairs in draw order, over both
        # inequalities of assumption 2 in turn
        t = override_constants(make_double_well(4), L=0.01)
        rep = check_assumption_2(t, 6, 10.0, RngStream(2, 0))
        xs = potentials._uniform_in_ball(RngStream(2, 0), 4, 10.0, 6)
        assert rep.n_violations == 6
        assert [v["theta"] for v in rep.violations] == xs.tolist()

    def test_report_shape(self):
        rep = check_assumption_3(make_gaussian(2), 100, 5.0, RngStream(3, 0))
        d = rep.to_dict()
        assert d["target"] == "gaussian"
        assert d["assumption"] == "assumption-3"
        assert d["points"] == 100
        assert d["violations"] == []

    def test_points_validation(self):
        with pytest.raises(ValueError):
            check_assumption_2(make_gaussian(2), 0, 5.0, RngStream(0, 0))


def dense_norm(mats):
    # the oracle: the largest |eigenvalue| of each stacked symmetric matrix
    return np.max(np.abs(np.linalg.eigvalsh(mats)), axis=-1)


def power_iteration_norm(mat, iters=50, tol=1e-10):
    # the power iteration the exact norms replaced: it stops when two
    # iterates agree, which is no bound on the norm
    v = np.ones(mat.shape[0]) / np.sqrt(mat.shape[0])
    v[0] += 0.5
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(iters):
        w = mat @ v
        norm_w = np.linalg.norm(w)
        v = w / norm_w
        if abs(norm_w - prev) <= tol * max(1.0, norm_w):
            return norm_w
        prev = norm_w
    return prev


class TestOperatorNorm:
    def test_matches_svd(self):
        # the structured norms against the 2-norm of the dense matrices; the
        # difference is judged on the scale of its terms, since it cancels
        for name in ALL_NAMES:
            t = make_target(name, 8)
            xs, ys = random_points(7, 20, 8, 6.0), random_points(8, 20, 8, 6.0)
            hx, hy = dense_hessian(t, xs), dense_hessian(t, ys)
            svd_x = np.linalg.norm(hx, 2, axis=(1, 2))
            svd_y = np.linalg.norm(hy, 2, axis=(1, 2))
            svd_diff = np.linalg.norm(hx - hy, 2, axis=(1, 2))
            tol = 1e-12 * (svd_x + svd_y + 1.0)
            assert np.all(np.abs(hessian_diff_norm(t, xs, ys) - svd_diff) <= tol), name
            assert np.allclose(hessian_norm(t, xs), svd_x, rtol=1e-12, atol=0.0), name

    def test_zero(self):
        # H(x) - H(x) = 0 exactly; so is H(x) - H(-x) for the even double-well
        for name in ALL_NAMES:
            for d in (1, 2, 3, 10):
                t = make_target(name, d)
                xs = random_points(d, 30, d, 8.0)
                assert np.array_equal(hessian_diff_norm(t, xs, xs), np.zeros(30)), (name, d)
                if name == "double-well":
                    assert np.array_equal(hessian_diff_norm(t, xs, -xs), np.zeros(30)), d


class TestExactHessianNorms:
    def test_power_iteration_regression(self):
        # RngStream(222, 2) draws a d=10 double-well pair on which the
        # replaced power iteration read |H(x) - H(y)| 7.3% low
        t = override_constants(make_double_well(10), L_grad=1e-6)
        rep = check_assumption_4(t, 1, 10.0, RngStream(222, 2))
        assert len(rep.violations) == 1
        v = rep.violations[0]
        x, y = np.array(v["theta"]), np.array(v["theta_prime"])
        diff = dense_hessian(t, x) - dense_hessian(t, y)
        exact = dense_norm(diff)
        assert power_iteration_norm(diff) < 0.95 * exact
        assert hessian_diff_norm(t, x[None], y[None])[0] == pytest.approx(exact, rel=1e-12)
        assert v["lhs"] == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(ALL_NAMES),
        d=st.sampled_from([1, 2, 3, 10, 100]),
        log_radius=st.floats(-3.0, 2.0),
        scales=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_structured_matches_dense(self, name, d, log_radius, scales, seed):
        # random pairs and parallel pairs y = t x (t = 0, 1, -1 included by
        # hypothesis); at d=1 the 2x2 problem's spurious zero eigenvalue must
        # not enter the norm
        t = make_target(name, d)
        n = len(scales)
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((2 * n, d)) * 10.0**log_radius
        ys = np.concatenate([rng.standard_normal((n, d)) * 10.0**log_radius,
                             np.array(scales)[:, None] * xs[n:]])
        ws = rng.standard_normal((2 * n, d))
        hx, hy = dense_hessian(t, xs), dense_hessian(t, ys)
        norm_x, norm_y = dense_norm(hx), dense_norm(hy)
        tol = 1e-12 * (norm_x + norm_y + 1.0)
        assert np.all(np.abs(hessian_diff_norm(t, xs, ys) - dense_norm(hx - hy)) <= tol)
        assert np.all(np.abs(hessian_norm(t, xs) - norm_x) <= tol)
        hv = np.einsum("nij,nj->ni", hy, ws)
        assert np.all(np.abs(hessian_vector_product(t, ys, ws) - hv) <= tol[:, None] * (1.0 + np.abs(ws)))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_product_bits_and_out(self, name):
        # H(y) w is c (v.w) v + s w to the bit, whether written into a new
        # array or into w itself
        t = make_target(name, 7)
        ys, ws = random_points(8, 40, 7, 5.0), random_points(9, 40, 7, 1.0)
        s, c, v = t.hess_parts(ys)
        expected = (c * np.einsum("...i,...i->...", v, ws))[..., None] * v + s[..., None] * ws
        assert np.array_equal(hessian_vector_product(t, ys, ws), expected)
        scratch = ws.copy()
        assert hessian_vector_product(t, ys, scratch, out=scratch) is scratch
        assert np.array_equal(scratch, expected)
