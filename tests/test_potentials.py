import math
import pickle

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit, gammaln

from tamedlmc import potentials
from tamedlmc.metrics import marginal_support
from tamedlmc.numerics import RngStream, finite_diff_gradient, finite_diff_jacobian
from tamedlmc.potentials import (
    TargetSpec,
    check_assumption_2,
    check_assumption_3,
    check_assumption_4,
    default_mixture_center,
    make_double_well,
    make_gaussian,
    make_target,
    marginal_pdf,
    operator_norm,
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
        assert t.r_star == 8

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
            assert np.all(np.isfinite(t.hess(theta)))

    def test_double_well(self):
        t = make_double_well(3)
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            assert np.allclose(t.h(u), 0.0, atol=1e-14)
        assert np.allclose(t.h(np.array([2.0, 0.0, 0.0])), [6.0, 0.0, 0.0])
        assert (t.r, t.nu, t.L, t.K, t.a, t.b, t.r_bar, t.L_grad) == (2, 1, 1, 2, 0.5, 1, 0, 3)
        assert t.r_star == 24

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
        # targets cross process boundaries to the chain workers
        t = make_target(name, 3)
        back = pickle.loads(pickle.dumps(t))
        xs = np.linspace(-2.0, 2.0, 5)
        assert np.array_equal(back.marginal(xs), t.marginal(xs))
        assert back.second_moment(2.0) == t.second_moment(2.0)
        assert (back.exact_draw is None) == (name != "gaussian")

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
        with pytest.raises(ValueError):
            TargetSpec(name="bad", d=2, U=lambda x: 0.0, h=lambda x: x,
                       hess=lambda x: np.eye(2), r=2, nu=0, L=1, K=1, L_grad=1)
        with pytest.raises(ValueError):
            TargetSpec(name="bad", d=2, U=lambda x: 0.0, h=lambda x: x,
                       hess=lambda x: np.eye(2), r=0, nu=0, L=1, K=1, L_grad=1,
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
            hess = t.hess(theta)
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
        t = TargetSpec(name="custom", d=2, U=lambda x: 0.0, h=lambda x: x,
                       hess=lambda x: np.eye(2), r=0, nu=0, L=1, K=1, L_grad=1,
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


class TestOperatorNorm:
    def test_matches_svd(self):
        # power iteration approaches the norm from below; 50 iterations get
        # within ~1e-4 relative even on nearly degenerate spectra
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((8, 8))
            sym = a + a.T
            exact = np.linalg.norm(sym, 2)
            est = operator_norm(sym)
            assert est <= exact * (1 + 1e-10)
            assert est == pytest.approx(exact, rel=1e-2)

    def test_exact_on_separated_spectrum(self):
        mat = np.diag([3.0, -1.0, 0.5])
        assert operator_norm(mat) == pytest.approx(3.0, rel=1e-10)

    def test_zero(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0
