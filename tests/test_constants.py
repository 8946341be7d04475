import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from oracle_constants import oracle_by_report_key, second_path
from tamedlmc.numerics import RngStream
from tamedlmc.potentials import (
    hessian_norm, make_double_well, make_gaussian, make_target, override_constants,
)
from tamedlmc.constants import (
    certified_moduli,
    certify_derived_constants,
    derive_constants,
    log_contraction_integral,
)

ALL_NAMES = ["gaussian", "mixture", "double-well"]


def rel_err(a, b):
    a, b = mpf(a), mpf(b)
    if b == 0:
        return abs(a)
    return abs(a - b) / abs(b)


class TestBarConstants:
    def test_double_well(self):
        m = certified_moduli(make_double_well(2))
        assert float(m.a_bar) == 0.25
        assert abs(float(m.b_bar) - 14.0) < 1e-12
        assert abs(float(m.b_bar_prime) - 14.5) < 1e-12
        assert abs(float(m.R) - math.sqrt(8.0)) < 1e-12

    def test_gaussian(self):
        m = certified_moduli(make_gaussian(3))
        assert (float(m.a_bar), float(m.b_bar), float(m.b_bar_prime)) == (1.0, 1.0, 1.0)
        assert m.R is None

    def test_mixture(self):
        m = certified_moduli(make_target("mixture", 4))
        assert (float(m.a_bar), float(m.b_bar), float(m.b_bar_prime)) == (0.5, 2.0, 2.0)


class TestLipschitzConstants:
    def test_double_well(self):
        m = certified_moduli(make_double_well(2))
        assert m.grad_h0_norm == 1.0
        assert abs(float(m.R_bar) - math.sqrt(2.0)) < 1e-12
        assert abs(float(m.L_bar) - (1 + 2 * math.sqrt(2)) ** 2) < 1e-10
        # C_grad = 2 max(2^0 * 3, |hess(0)| = 1) = 6
        assert abs(float(m.C_grad) - 6.0) < 1e-8
        assert float(m.L_bar_grad) == 3.0

    def test_gaussian(self):
        m = certified_moduli(make_gaussian(2))
        assert m.grad_h0_norm == 1.0
        assert float(m.R_bar) == 0.0
        assert float(m.L_bar) == 1.0
        assert abs(float(m.C_grad) - 2.0) < 1e-8
        assert abs(float(m.L_bar_grad) - 1.0 / 3.0) < 1e-15


class TestStepSizeLimits:
    # a_bar^2/(8K^4) meets 1 at K = (a_bar^2/8)^(1/4) and 1/a_bar^2 at
    # K = (a_bar^4/8)^(1/4); each arm draws a_bar in its range and K a
    # factor u below (or above) the crossings, so that arm is the minimum
    @settings(max_examples=120, deadline=None)
    @given(arm=st.sampled_from(["1", "a_bar^2/(8K^4)", "1/a_bar^2"]),
           name=st.sampled_from(["double-well", "gaussian"]),
           fraction=st.floats(0.0, 1.0), u=st.floats(0.2, 0.9))
    def test_limits_are_the_formula(self, arm, name, fraction, u):
        if arm == "1":
            a_bar = 0.1 + 0.9 * fraction
            K = u * (a_bar**2 / 8) ** 0.25
        elif arm == "1/a_bar^2":
            a_bar = 1.5 + 8.5 * fraction
            K = u * (a_bar**4 / 8) ** 0.25
        else:
            a_bar = 0.1 + 9.9 * fraction
            K = max(a_bar**2 / 8, a_bar**4 / 8) ** 0.25 / u
        # a_bar is a/2 on the double-well (r > 0) and a_tilde on the Gaussian (r = 0)
        if name == "double-well":
            t = override_constants(make_double_well(2), a=2 * a_bar, K=K)
        else:
            t = override_constants(make_gaussian(2), a_tilde=a_bar, K=K)
        m = certified_moduli(t)
        assert float(m.a_bar) == a_bar
        # the formula on the exact rationals of the float inputs, rounded once
        a, k = Fraction(a_bar), Fraction(K)
        arms = {"1": Fraction(1), "a_bar^2/(8K^4)": a**2 / (8 * k**4), "1/a_bar^2": 1 / a**2}
        assert min(arms.values()) == arms[arm]
        assert m.lambda_max == float(min(arms.values()))
        assert m.lambda_1_max == float(min(arms["1"], arms["a_bar^2/(8K^4)"]))


class TestSpotValues:
    def test_kappa_and_c0(self):
        dc = derive_constants(make_gaussian(2), beta=1.0, d=2)
        assert float(dc.kappa) == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert float(dc.c0) == pytest.approx(1 / math.sqrt(2) + 8.0, rel=1e-14)

    def test_kappa_tilde_flat_targets(self):
        # r = 0 collapses the M1 powers: kappa_tilde(p) = 1/(2 sqrt 2)
        for name in ("gaussian", "mixture"):
            dc = derive_constants(make_target(name, 4), beta=1.0, d=4)
            for v in dc.kappa_tilde.values():
                assert rel_err(v, 1 / (2 * mp.sqrt(2))) < mpf("1e-40")

    def test_drift_example(self):
        dc = derive_constants(make_gaussian(2), beta=1.0, d=2)
        assert float(dc.M_V[2]) == pytest.approx(math.sqrt(7.0), rel=1e-14)
        assert float(dc.c_V1[2]) == 1.0
        assert float(dc.c_V2[2]) == 8.0

    def test_c_v1_linear_in_p(self):
        dc = derive_constants(make_gaussian(3), beta=1.0, d=3, p_list=[2, 4, 6])
        cv1 = dc.c_V1
        assert float(cv1[4]) == pytest.approx(2 * float(cv1[2]))
        assert float(cv1[6]) == pytest.approx(3 * float(cv1[2]))

    def test_double_well_c_v1(self):
        dc = derive_constants(make_double_well(2), beta=1.0, d=2)
        assert float(dc.c_V1[2]) == 0.25

    def test_contraction_radii(self):
        dc = derive_constants(make_gaussian(2), beta=1.0, d=2)
        assert float(dc.R1_bar) == pytest.approx(2 * math.sqrt(15.0), rel=1e-14)
        assert float(dc.R2_bar) == pytest.approx(2 * math.sqrt(63.0), rel=1e-14)

    def test_c_bar_11(self):
        assert float(derive_constants(make_gaussian(2), 1.0, 2).C_bar_11) == 16384.0
        assert float(derive_constants(make_double_well(2), 1.0, 2).C_bar_11) == 16384.0 * 256.0

    def test_c_star_conventions(self):
        dc = derive_constants(make_gaussian(2), beta=1.0, d=2, p_list=[0, 1, 2])
        cs = dc.c_star
        assert float(cs[0]) == 1.0
        assert rel_err(cs[1], dc.c0) == 0
        assert cs[2] == max(dc.c0, dc.c3[2])

    def test_epsilon_at_most_one(self):
        for name in ALL_NAMES:
            for d in (2, 25):
                dc = derive_constants(make_target(name, d), beta=1.0, d=d)
                assert dc.epsilon <= 1

    def test_monotone_in_dimension(self):
        lo = derive_constants(make_gaussian(2), beta=1.0, d=2)
        hi = derive_constants(make_gaussian(10), beta=1.0, d=10)
        assert hi.c_V2[2] > lo.c_V2[2]
        assert hi.R2_bar > lo.R2_bar

    def test_degenerate_flat_targets(self):
        dc = derive_constants(make_gaussian(2), beta=1.0, d=2, v2_integral=3.0)
        assert float(dc.C0) == 0.0
        assert float(dc.C3) == 0.0
        assert dc.C1 == mp.inf and dc.C4 == mp.inf
        assert dc.degenerate_exponents
        rep = dc.to_report()["constants"]
        assert rep["C0"]["degenerate"] is True
        assert rep["C1"]["representable"] is False

    def test_double_well_c0_attained_by_contraction_rate(self):
        dc = derive_constants(make_double_well(2), beta=1.0, d=2)
        assert dc.C0 == dc.c_dot / 4
        assert dc.C0 > 0

    def test_lambda_ordering(self):
        for name in ALL_NAMES:
            dc = derive_constants(make_target(name, 3), beta=1.0, d=3)
            assert dc.lambda_max <= dc.lambda_1_max <= 1.0

    def test_v2_gaussian_value(self):
        dc = derive_constants(make_gaussian(7), beta=2.0, d=7, v2_integral=1 + 7 / 2.0)
        assert dc.C1 is not None and dc.C1 == mp.inf  # degenerate r = 0
        dw = derive_constants(make_double_well(3), beta=1.0, d=3, v2_integral=4.0)
        assert dw.C1 is not None and dw.C1 < mp.inf


def quad_log_contraction_integral(beta, L_bar, R1_bar):
    # the contraction integral by adaptive double-precision quadrature,
    # split where the mass concentrates
    from scipy.integrate import quad

    alpha, gamma = math.sqrt(beta * L_bar / 8.0), math.sqrt(8.0 / (beta * L_bar))
    top = (alpha * R1_bar + gamma) ** 2
    width = 1.0 / (2.0 * alpha * (alpha * R1_bar + gamma))
    pts = [p for p in (R1_bar - k * width for k in (1.0, 5.0, 25.0)) if 0.0 < p < R1_bar]
    val = quad(lambda s: math.exp((alpha * s + gamma) ** 2 - top), 0.0, R1_bar, points=pts,
               limit=400, epsabs=0.0, epsrel=1e-13)[0]
    return top + math.log(val)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("L_bar", [1.0, 3.0, 17.0, 100.0])
@pytest.mark.parametrize("R1_bar", [0.5, 2.0, 5.0, 20.0])
def test_contraction_integral_matches_adaptive_quadrature(beta, L_bar, R1_bar):
    expect = quad_log_contraction_integral(beta, L_bar, R1_bar)
    assert abs(log_contraction_integral(beta, L_bar, R1_bar) - expect) <= 1e-12 * abs(expect)


class TestSecondPathAgreement:
    SCALARS = [
        "a_bar", "b_bar", "b_bar_prime", "R_bar", "L_bar", "C_grad", "L_bar_grad",
        "kappa", "c0", "kappa_star", "R1_bar", "R2_bar", "epsilon", "c_hat", "c_dot",
        "C_bar_11", "C_bar_21", "C_bar_12", "C_bar_22", "C_bar_0", "C_bar_1",
        "C_bar_3", "C_bar_5", "C2", "C5", "C0", "C3",
    ]
    ATTR = {
        "kappa": "kappa", "c0": "c0", "kappa_star": "kappa_star",
        "C_bar_11": "C_bar_11", "C_bar_21": "C_bar_21",
        "C_bar_12": "C_bar_12", "C_bar_22": "C_bar_22",
    }

    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("beta,d", [(1.0, 2), (1.0, 100), (2.0, 7)])
    def test_agreement(self, name, beta, d):
        target = make_target(name, d)
        v2 = 1.0 + d / beta
        dc = derive_constants(target, beta=beta, d=d, v2_integral=v2)
        oracle = second_path(target, beta, d, dc.grad_h0_norm, v2_integral=v2)

        def check(key, mine, theirs):
            # representable values must agree to 1e-12 relative; values that
            # leave double range are carried and compared in log space
            assert mine is not None, key
            if theirs == 0:
                assert mine == 0, key
                return
            if abs(mp.log10(abs(theirs))) <= 300:
                assert rel_err(mine, theirs) < mpf("1e-12"), (key, mine, theirs)
            else:
                assert abs(mp.log10(mine) - mp.log10(theirs)) < mpf("1e-9"), (key, mine, theirs)

        for key in self.SCALARS:
            check(key, getattr(dc, self.ATTR.get(key, key)), oracle[key])

        for key in ("C_bar_2", "C_bar_4", "C1", "C4"):
            if key in oracle:
                check(key, getattr(dc, key), oracle[key])

        for p, v in oracle["c_star"].items():
            check(f"c_star({p})", dc.c_star[p], v)
        for p, v in oracle["tables"]["c3"].items():
            check(f"c3({p})", dc.c3[p], v)
        for p, v in oracle["tables"]["M_V"].items():
            check(f"M_V({p})", dc.M_V[p], v)


class TestReportAgainstSecondPath:
    """The JSON report, key by key, against the independent second path."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("beta,d,p_list", [(1.0, 100, [0, 5]), (2.0, 10, [0, 1, 3, 7])])
    def test_report_entries(self, name, beta, d, p_list):
        target = make_target(name, d)
        v2 = 1.0 + d / beta
        rep = json.loads(json.dumps(
            derive_constants(target, beta, d, p_list=p_list, v2_integral=v2).to_report(), allow_nan=False))
        entries = rep["constants"]
        expected = oracle_by_report_key(second_path(target, beta, d, rep["grad_h0_norm"], v2_integral=v2))
        assert set(expected) <= set(entries), sorted(set(expected) - set(entries))
        assert {f"c_star({p})" for p in p_list} <= set(entries)
        for key, theirs in expected.items():
            entry = entries[key]
            # 1e-12 relative inside double range, 1e-9 in log10 outside it
            if theirs == 0:
                assert entry["value"] == 0.0, key
            elif abs(mp.log10(abs(theirs))) <= 300:
                assert entry["representable"] is True, key
                assert rel_err(entry["value"], theirs) <= mpf("1e-12"), (key, entry, theirs)
            else:
                assert entry["representable"] is False, key
                assert abs(mpf(entry["log10_value"]) - mp.log10(theirs)) <= mpf("1e-9"), (key, entry, theirs)


class TestReport:
    def test_symbol_keys_and_flags(self):
        t = make_double_well(100)
        dc = derive_constants(t, beta=1.0, d=100, v2_integral=11.46)
        rep = dc.to_report()
        cons = rep["constants"]
        for key in ("a_bar", "b_bar", "kappa", "c_0", "epsilon", "c_hat",
                    "C0", "C1", "C2", "C3", "C4", "C5", "lambda_max"):
            assert key in cons, key
            assert "formula_ref" in cons[key]
        assert cons["lambda_max"]["value"] == 1 / 2048
        # the horizon constants exceed double range here and carry log10 only
        for key in ("c_hat", "C1", "C2"):
            assert cons[key]["representable"] is False
            assert cons[key]["log10_value"] is not None
        assert cons["a_bar"]["representable"] is True
        assert rep["notes"]

    def test_gaussian_report_values(self):
        rep = derive_constants(make_gaussian(2), beta=1.0, d=2).to_report()
        assert rep["constants"]["lambda_max"]["value"] == 0.125


class TestCertificates:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_builtins_certified(self, name):
        t = make_target(name, 4)
        dc = derive_constants(t, beta=1.0, d=4)
        reports = certify_derived_constants(t, dc, 1000, 10.0, RngStream(0, 9))
        for rep in reports:
            assert rep.ok, (name, rep.assumption, rep.violations[:1])
        names = {rep.assumption for rep in reports}
        assert names == {"dissipativity-r+2", "dissipativity-quadratic",
                         "one-sided-lipschitz", "hessian-growth", "taylor-remainder"}

    def test_grad_h0_norms(self):
        # |hess(0)|, exact: identity -> 1; mixture -> |I - a a^T| = |a|^2 - 1 = 3
        # (|a|^2 = 4 exactly at d = 4); double-well -> |-I| = 1
        for t, expected in ((make_gaussian(3), 1.0), (make_target("mixture", 4), 3.0),
                            (make_double_well(3), 1.0)):
            assert hessian_norm(t, np.zeros((1, t.d)))[0] == expected, t.name
            assert derive_constants(t, beta=1.0, d=t.d).grad_h0_norm == expected, t.name

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_certified_moduli_match_pipeline(self, name):
        # check derives only the base stage, and the pipeline holds it as is
        t = make_target(name, 4)
        dc = derive_constants(t, beta=1.0, d=4)
        moduli = certified_moduli(t)
        assert set(vars(moduli)) == {"a_bar", "b_bar", "b_bar_prime", "R", "R_bar", "L_bar",
                                     "C_grad", "L_bar_grad", "grad_h0_norm",
                                     "lambda_max", "lambda_1_max"}
        for key, value in vars(moduli).items():
            assert getattr(dc, key) == value, key
