"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Tolerances are fixed here and match the package's documented
guarantees; several criteria take minutes (they re-run the published
experiment protocol at desk scale)."""

import itertools
import json
import math

import numpy as np
from mpmath import mp, mpf

from derivatives import dense_hessian, finite_diff_gradient, finite_diff_jacobian
from oracle_constants import second_path
from tamedlmc.cli import main as cli_main
from tamedlmc.constants import derive_constants
from tamedlmc.metrics import (
    cdf_from_pdf,
    fit_rate,
    ks_statistic,
    marginal_support,
    sliced_wasserstein,
    wasserstein_1d,
)
from tamedlmc.numerics import RngStream
from tamedlmc.potentials import make_target, marginal_pdf
from tamedlmc.sampler import (
    DivergenceError,
    SamplerConfig,
    gaussian_chain_std,
    reference_measure,
    run_chains,
)

ALL_NAMES = ["gaussian", "mixture", "double-well"]


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num:2d} [{status}] {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def ball_points(seed, n, d, radius):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    pts *= radius * rng.random((n, 1)) ** (1.0 / d) / np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


def test_criterion_01_gradient_hessian_consistency():
    worst_g, worst_h = 0.0, 0.0
    for name in ALL_NAMES:
        for d in (2, 10):
            t = make_target(name, d)
            for theta in ball_points(d, 100, d, 5.0):
                fd = finite_diff_gradient(t.U, theta)
                h = t.h(theta)
                rel = np.linalg.norm(h - fd) / (1.0 + np.linalg.norm(h))
                worst_g = max(worst_g, rel)
                jac = finite_diff_jacobian(t.h, theta)
                hess = dense_hessian(t, theta)
                hrel = np.max(np.abs(hess - jac) / (1.0 + np.abs(hess)))
                worst_h = max(worst_h, hrel)
    ok = worst_g <= 1e-6 and worst_h <= 1e-5
    report(1, ok, f"gradient/Hessian vs finite differences: "
                  f"max rel {worst_g:.2e} (<=1e-6), {worst_h:.2e} (<=1e-5)")


def test_criterion_02_assumption_certification(tmp_path):
    codes = {}
    for name in ALL_NAMES:
        codes[name] = cli_main([
            "check", "--target", name, "--points", "10000", "--radius", "10",
            "--seed", "0", "--out", str(tmp_path / f"{name}.json"),
        ])
    falsified = cli_main([
        "check", "--target", "double-well", "--points", "10000", "--radius", "10",
        "--seed", "0", "--override", "L=0.01",
    ])
    ok = all(c == 0 for c in codes.values()) and falsified == 1
    report(2, ok, f"check exit codes {codes} (want all 0), L=0.01 override -> {falsified} (want 1)")


def test_criterion_03_constants_pipeline():
    checks = []

    dc_g = derive_constants(make_target("gaussian", 2), beta=1.0, d=2, v2_integral=3.0)
    checks.append(("lambda_max gaussian", dc_g.lambda_max == 0.125))
    checks.append(("kappa", abs(float(dc_g.kappa) - 1 / math.sqrt(2)) < 1e-15))
    checks.append(("c0 gaussian d=2", abs(float(dc_g.c0) - (1 / math.sqrt(2) + 8.0)) < 1e-12))

    dc_dw = derive_constants(make_target("double-well", 2), beta=1.0, d=2, v2_integral=4.0)
    checks.append(("lambda_max double-well", dc_dw.lambda_max == 1.0 / 2048.0))
    checks.append(("a_bar double-well", float(dc_dw.a_bar) == 0.25))
    checks.append(("b_bar double-well", abs(float(dc_dw.b_bar) - 14.0) < 1e-12))

    # second-path transcription agreement: 1e-12 relative, 1e-9 in log10
    # for values outside double range
    compared = 0
    agree = True
    for name, d in [("gaussian", 2), ("mixture", 2), ("double-well", 2), ("double-well", 100)]:
        target = make_target(name, d)
        v2 = 1.0 + d
        dc = derive_constants(target, beta=1.0, d=d, v2_integral=v2)
        oracle = second_path(target, 1.0, d, dc.grad_h0_norm, v2_integral=v2)
        pairs = [
            (dc.a_bar, oracle["a_bar"]), (dc.b_bar, oracle["b_bar"]),
            (dc.L_bar, oracle["L_bar"]), (dc.c0, oracle["c0"]),
            (dc.kappa_star, oracle["kappa_star"]), (dc.epsilon, oracle["epsilon"]),
            (dc.c_hat, oracle["c_hat"]), (dc.c_dot, oracle["c_dot"]),
            (dc.C_bar_0, oracle["C_bar_0"]), (dc.C_bar_1, oracle["C_bar_1"]),
            (dc.C_bar_3, oracle["C_bar_3"]), (dc.C2, oracle["C2"]),
            (dc.C5, oracle["C5"]),
        ]
        if "C1" in oracle:
            pairs += [(dc.C1, oracle["C1"]), (dc.C4, oracle["C4"])]
        for mine, theirs in pairs:
            compared += 1
            if abs(mp.log10(abs(theirs))) <= 300:
                agree &= abs(mine - theirs) <= mpf("1e-12") * abs(theirs)
            else:
                agree &= abs(mp.log10(mine) - mp.log10(theirs)) < mpf("1e-9")
    checks.append((f"second-path agreement ({compared} values)", agree))

    ok = all(flag for _, flag in checks)
    report(3, ok, "; ".join(f"{nm}={'ok' if fl else 'BAD'}" for nm, fl in checks))


def test_criterion_04_gaussian_stationary_rate():
    grid = [0.2, 0.1, 0.05, 0.025, 0.0125]
    dists = [abs(gaussian_chain_std(lam, 1.0) - 1.0) for lam in grid]
    fit = fit_rate(grid, dists)
    slope_ok = 0.90 <= fit.slope <= 1.10

    lam, n_chains = 0.1, 10_000
    cfg = SamplerConfig(lam=lam, beta=1.0, d=1, n_chains=n_chains, horizon=50.0,
                        master_seed=1)
    m = run_chains(cfg, make_target("gaussian", 1))
    emp = float(np.std(m.samples[:, 0], ddof=1))
    sig = gaussian_chain_std(lam, 1.0, cfg.n_steps)
    se = sig / math.sqrt(2 * n_chains)
    z = abs(emp - sig) / se
    ok = slope_ok and z <= 4.0
    report(4, ok, f"analytic W2 slope {fit.slope:.4f} in [0.90,1.10]; "
                  f"empirical std {emp:.4f} vs {sig:.4f} (z={z:.2f} <= 4)")


def test_criterion_05_double_well_bias_decreases():
    # The theorem-level numeric bounds are astronomically larger than any
    # observable distance (see the constants report), so the measurable
    # counterpart is checked instead: first-marginal W1 against a fine-step
    # reference decreases monotonically in the step size.
    t = make_target("double-well", 2)
    grid = [0.1, 0.05, 0.025, 0.01]
    n = 10_000
    ref = reference_measure(t, 1.0, horizon=15.0, fine_step=1e-4,
                            master_seed=777, n_draws=n)
    dists = []
    for lam in grid:
        cfg = SamplerConfig(lam=lam, beta=1.0, d=2, n_chains=n, horizon=15.0,
                            master_seed=123)
        m = run_chains(cfg, t)
        dists.append(wasserstein_1d(m.samples[:, 0], ref.samples[:, 0], p=1))
    fit = fit_rate(grid, dists)
    monotone = all(a > b for a, b in zip(dists, dists[1:]))
    ok = monotone and fit.slope > 0.0 and fit.r_squared >= 0.8
    report(5, ok, f"W1 to reference {['%.4f' % d for d in dists]} monotone={monotone}, "
                  f"slope {fit.slope:.3f} > 0, r^2 {fit.r_squared:.3f} >= 0.8")


def test_criterion_06_desk_scale_histograms():
    # desk preset: d=20, 500 chains, horizon 400
    ks_values = {}
    for name in ALL_NAMES:
        t = make_target(name, 20)
        md = marginal_pdf(t)
        cdf = cdf_from_pdf(md.pdf, *marginal_support(md.pdf))
        lams = [0.001, 0.1] if name == "double-well" else [0.001]
        for lam in lams:
            cfg = SamplerConfig(lam=lam, beta=1.0, d=20, n_chains=500,
                                horizon=400.0, master_seed=42)
            m = run_chains(cfg, t)
            ks_values[(name, lam)] = ks_statistic(m.samples[:, 0], cdf)
    small_ok = all(ks_values[(name, 0.001)] <= 0.08 for name in ALL_NAMES)
    order_ok = ks_values[("double-well", 0.001)] <= ks_values[("double-well", 0.1)]
    ok = small_ok and order_ok
    detail = ", ".join(f"{k[0]}@{k[1]:g}: {v:.4f}" for k, v in ks_values.items())
    report(6, ok, f"KS {detail}; all lam=0.001 <= 0.08 and bias shrinks for double-well")


def test_criterion_07_moment_stability():
    results = []
    for name in ALL_NAMES:
        t = make_target(name, 5)
        dc = derive_constants(t, beta=1.0, d=5)
        lam = dc.lambda_1_max / 2.0
        a_bar, kappa, c0 = float(dc.a_bar), float(dc.kappa), float(dc.c0)
        # each checkpoint is its own n-step run; chain i reads the same
        # stream in every run, so it passes through the same iterates
        for n in (10, 100, 1000):
            cfg = SamplerConfig(lam=lam, beta=1.0, d=5, n_chains=500,
                                horizon=lam * n, master_seed=101)
            assert cfg.n_steps == n
            sq = np.sum(run_chains(cfg, t).samples ** 2, axis=1)
            se = float(np.std(sq, ddof=1) / math.sqrt(sq.size))
            bound = c0 * (1.0 + 1.0 / (a_bar * kappa)) + 5.0 * se
            results.append((name, n, float(np.mean(sq)), bound))
    ok = all(mean <= bound for _, _, mean, bound in results)
    worst = max(results, key=lambda r: r[2] / r[3])
    report(7, ok, f"mean |theta_n|^2 <= c0(1+1/(a_bar kappa)) + 5 SE at all "
                  f"checkpoints; tightest {worst[0]} n={worst[1]}: "
                  f"{worst[2]:.2f} <= {worst[3]:.2f}")


def test_criterion_08_taming_stability_contrast():
    t = make_target("double-well", 2)
    horizon = 0.5 * 10_000
    ula_cfg = SamplerConfig(lam=0.5, beta=1.0, d=2, n_chains=100, horizon=horizon,
                            master_seed=7, algorithm="ula")
    try:
        ula_diverged = len(run_chains(ula_cfg, t).meta["diverged_chains"])
    except DivergenceError as exc:
        ula_diverged = len(exc.diverged)
    mtula_cfg = SamplerConfig(lam=0.5, beta=1.0, d=2, n_chains=100, horizon=horizon,
                              master_seed=7, algorithm="mtula")
    m = run_chains(mtula_cfg, t)
    finite_ok = m.samples.shape[0] == 100 and not m.meta["diverged_chains"]
    second_moment = float(np.mean(np.sum(m.samples**2, axis=1)))
    ok = ula_diverged >= 1 and finite_ok and second_moment < 10.0
    report(8, ok, f"ULA diverged chains {ula_diverged} >= 1; tamed chains all finite "
                  f"with E|theta|^2 = {second_moment:.2f} < 10")


def test_criterion_09_metrics_validation():
    rng = np.random.default_rng(90)

    w1_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 7))
        xs = rng.standard_normal(n) * 2
        ys = rng.standard_normal(n) + 0.5
        p = float(rng.choice([1, 2]))
        best = min(
            float(np.mean(np.abs(xs - ys[list(perm)]) ** p))
            for perm in itertools.permutations(range(n))
        ) ** (1.0 / p)
        w1_ok &= abs(wasserstein_1d(xs, ys, p) - best) <= 1e-12 * (1 + best)

    sliced_ok = True
    for i in range(100):
        n = int(rng.integers(2, 7)) if i < 80 else int(rng.integers(7, 9))
        a = rng.standard_normal((n, 2))
        b = rng.standard_normal((n, 2)) + rng.standard_normal(2)
        exact = min(
            float(np.mean(np.linalg.norm(a - b[list(perm)], axis=1) ** 2))
            for perm in itertools.permutations(range(n))
        ) ** 0.5
        sw = sliced_wasserstein(a, b, p=2, n_proj=64, stream=RngStream(900 + i, 0))
        sliced_ok &= sw <= exact + 1e-12

    slopes_ok = True
    lams = np.array([0.2, 0.1, 0.05, 0.02, 0.01])
    for planted in (0.5, 1.0, 2.0):
        fit = fit_rate(lams, 1.7 * lams**planted)
        slopes_ok &= abs(fit.slope - planted) <= 0.02

    ok = w1_ok and sliced_ok and slopes_ok
    report(9, ok, f"W1 vs coupling enumeration: {w1_ok}; sliced <= assignment: "
                  f"{sliced_ok}; planted slopes within 0.02: {slopes_ok}")


def test_criterion_10_determinism(tmp_path):
    args = ["sample", "--target", "double-well", "--dim", "3", "--lambda", "0.01",
            "--chains", "10", "--horizon", "2", "--seed", "5"]
    payloads = []
    for i in range(2):
        out = tmp_path / f"det{i}.csv"
        assert cli_main(args + ["--out", str(out)]) == 0
        payloads.append(out.read_bytes())
    ok = all(p == payloads[0] for p in payloads[1:])
    report(10, ok, f"seeded CSV output byte-identical across reruns ({len(payloads)} runs)")
