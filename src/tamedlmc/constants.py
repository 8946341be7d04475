"""Closed-form evaluation of every convergence-bound constant attached to
the tamed chain, in five stages that each derive their constants once:

1. ``certified_moduli(target)``: the base moduli a_bar, b_bar,
   b_bar_prime, R (dissipativity), R_bar, L_bar (one-sided Lipschitz),
   C_grad, L_bar_grad (Hessian growth), grad_h0_norm = |H(0)| and the
   step-size limits lambda_max, lambda_1_max, from the target alone.
   ``check`` reads only this stage; ``sample`` and ``rate`` read the limits
   from ``TargetSpec.step_size_limits`` without this module.
2. ``derive_moment_constants``: kappa, c0, kappa_star and the per-degree
   tables M1, kappa_tilde, M2, c1, c2, c3, c_star; reads a_bar, b_bar.
3. ``derive_drift_constants``: the per-degree tables M_V, c_V1, c_V2;
   reads a_bar, b_bar_prime.
4. ``derive_contraction_constants``: R1_bar, R2_bar, epsilon (with its
   quadrature-defined integral), c_hat, c_dot; reads L_bar and the drift
   tables at p = 2.
5. ``derive_theorem_constants``: the Wasserstein-bound constants
   C_bar_11..C_bar_5 and C0..C5; reads the moduli and stages 2-4.

``derive_constants`` runs them in this order and holds their outputs,
under the names the stages return, in one ``DerivedConstants``.

Several of these quantities are astronomically large (double exponentials
of the Lipschitz modulus appear), so all derivations run in arbitrary
precision (mpmath) and the report carries log10 values with a
``representable`` flag whenever a constant leaves double range.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from mpmath import mp, mpf

from .numerics import RngStream
from .potentials import (
    CheckReport, TargetSpec, _exceeds, _falls_short, _report, _pow0, _uniform_in_ball, hessian_norm,
    hessian_vector_product, row_norm_sq,
)

mp.dps = 60

_SQRT2 = mp.sqrt(2)

# Representability threshold for the float report: |log10| above this is
# carried in log space only.
_LOG10_LIMIT = 300.0


def _ceil_half(p: int) -> int:
    # binomial index ceil(p/2); the integer-argument reading that keeps
    # C(p, ceil(p/2)) the dominant binomial coefficient
    return (p + 1) // 2


def _comb(n: int, k: int) -> mpf:
    return mpf(math.comb(n, k))


def _v_mp(p: int, w: mpf) -> mpf:
    return (1 + w * w) ** (mpf(p) / 2)


# --- base constants ---

def certified_moduli(target: TargetSpec) -> SimpleNamespace:
    """The base stage, from the target alone: every later stage, the
    certificates and the constants report read it.

    r > 0 branch:
        R = max((4b/a)^{1/(r-r_bar)}, 2^{1/r}), R_bar = (b/a)^{1/(r-r_bar)}
        a_bar = a/2
        b_bar = (b + a/2) R^{r_bar+2} + K^2/(2a)
        b_bar_prime = b_bar + 2^{2/r} a_bar
    r = 0 branch: a_bar = a_tilde, b_bar = b_bar_prime = b_tilde, R absent,
    R_bar = 0.  Then L_bar = L (1 + 2 R_bar)^r, C_grad = 2 max(2^{nu-1}
    L_grad, grad_h0_norm) with grad_h0_norm = |H(0)|, L_bar_grad = 3^{nu-1}
    L_grad, and the step-size limits lambda_max, lambda_1_max in floats
    (``TargetSpec.step_size_limits``).
    """
    K = mpf(target.K)
    if target.r > 0:
        r, r_bar = mpf(target.r), mpf(target.r_bar)
        a, b = mpf(target.a), mpf(target.b)
        R = max((4 * b / a) ** (1 / (r - r_bar)), mpf(2) ** (1 / r))
        R_bar = (b / a) ** (1 / (r - r_bar))
        a_bar = a / 2
        b_bar = (b + a / 2) * R ** (r_bar + 2) + K**2 / (2 * a)
        b_bar_prime = b_bar + mpf(2) ** (2 / r) * a_bar
    else:
        R, R_bar = None, mpf(0)
        a_bar = mpf(target.a_tilde)
        b_bar = b_bar_prime = mpf(target.b_tilde)
    grad_h0_norm = float(hessian_norm(target, np.zeros((1, target.d)))[0])
    lambda_max, lambda_1_max = target.step_size_limits()
    return SimpleNamespace(
        a_bar=a_bar, b_bar=b_bar, b_bar_prime=b_bar_prime, R=R, R_bar=R_bar,
        L_bar=mpf(target.L) * (1 + 2 * R_bar) ** target.r,
        C_grad=2 * max(mpf(2) ** (target.nu - 1) * mpf(target.L_grad), mpf(grad_h0_norm)),
        L_bar_grad=mpf(3) ** (target.nu - 1) * mpf(target.L_grad), grad_h0_norm=grad_h0_norm,
        lambda_max=lambda_max, lambda_1_max=lambda_1_max,
    )


# --- moment constants ---

def derive_moment_constants(target: TargetSpec, moduli: SimpleNamespace, beta: float, d: int, p_list) -> dict:
    """kappa, c0, kappa_star and the per-degree tables kappa_tilde, M1,
    M2, c1, c2, c3, c_star for the requested degrees.

    Tables follow: kappa_tilde/M1/c1 exist for p >= 1, M2/c2/c3 for
    p >= 2; c_star(0) = 1, c_star(1) = c0, c_star(p>=2) = max(c0, c3(p)).
    """
    a_bar, b_bar = moduli.a_bar, moduli.b_bar
    K, r = mpf(target.K), target.r
    beta_mp, d_mp = mpf(beta), mpf(d)

    kappa = 1 / _SQRT2
    c0 = a_bar * kappa + 2 * b_bar + 2 * d_mp / beta_mp + 2 * K**2

    M1: dict[int, mpf] = {}
    kappa_tilde: dict[int, mpf] = {}
    c1: dict[int, mpf] = {}
    M2: dict[int, mpf] = {}
    c2: dict[int, mpf] = {}
    c3: dict[int, mpf] = {}

    def table_p1(p):
        if p in M1 or p < 1:
            return
        m1 = 4 * p * _comb(p, _ceil_half(p)) * (1 + 2 * b_bar + 2 * K**2) ** p / min(
            mpf(1), a_bar
        )
        M1[p] = m1
        kappa_tilde[p] = m1**r / (2 * (1 + m1 ** (2 * r)) ** mpf("0.5"))
        c1[p] = a_bar * kappa_tilde[p] * m1 ** (2 * p) + sum(
            _comb(p, k) * (2 * b_bar + 2 * K**2) ** k * m1 ** (2 * p - 2 * k)
            for k in range(1, p + 1)
        )

    def table_p2(p):
        if p in c3 or p < 2:
            return
        table_p1(p)
        table_p1(p - 1)
        M2[p] = (p * (2 * p - 1) * mpf(2) ** (2 * p - 1) * d_mp / (beta_mp * a_bar * kappa_tilde[p])) ** mpf("0.5")
        c2[p] = (
            c1[p]
            + p * (2 * p - 1) * mpf(2) ** (2 * p - 2) * d_mp / beta_mp * c1[p - 1]
            + p * (2 * p - 1) * mpf(2) ** (4 * p - 3) * beta_mp ** (-p) * mp.factorial(p)
            * mp.binomial(d_mp / 2 + p - 1, p)
        )
        c3[p] = c2[p] + p * (2 * p - 1) * mpf(2) ** (2 * p - 2) * d_mp / beta_mp * M2[p] ** (2 * p - 2)

    needed = sorted({int(p) for p in p_list if p >= 1} | {2})
    for p in needed:
        table_p1(p)
        table_p2(p)

    kappa_star = min(kappa, kappa_tilde[2] / 2)

    c_star: dict[int, mpf] = {}
    for p in sorted({int(p) for p in p_list if p >= 0}):
        if p == 0:
            c_star[p] = mpf(1)
        elif p == 1:
            c_star[p] = c0
        else:
            table_p2(p)
            c_star[p] = max(c0, c3[p])

    return {
        "kappa": kappa,
        "c0": c0,
        "kappa_star": kappa_star,
        "M1": M1,
        "kappa_tilde": kappa_tilde,
        "M2": M2,
        "c1": c1,
        "c2": c2,
        "c3": c3,
        "c_star": c_star,
    }


def derive_drift_constants(moduli: SimpleNamespace, beta: float, d: int, p_list) -> dict:
    """Per-degree drift constants M_V(p) = (1 + (2 b_bar' +
    2 beta^{-1}(d+p-2))/a_bar)^{1/2}, c_V1(p) = a_bar p / 2, and
    c_V2(p) = c_V1(p) v_p(M_V(p))."""
    a_bar, b_bar_prime = moduli.a_bar, moduli.b_bar_prime
    beta_mp, d_mp = mpf(beta), mpf(d)
    M_V, c_V1, c_V2 = {}, {}, {}
    for p in sorted({int(p) for p in p_list if p >= 1}):
        M_V[p] = (1 + (2 * b_bar_prime + 2 * (d_mp + p - 2) / beta_mp) / a_bar) ** mpf("0.5")
        c_V1[p] = a_bar * p / 2
        c_V2[p] = c_V1[p] * _v_mp(p, M_V[p])
    return {"M_V": M_V, "c_V1": c_V1, "c_V2": c_V2}


def _v_of_mv(p: int, drift: dict) -> mpf:
    # v_p(M_V(p)) with v_0(-) = 1 taken without evaluating M_V(0)
    if p == 0:
        return mpf(1)
    return _v_mp(p, drift["M_V"][p])


# --- contraction constants ---

def log_contraction_integral(beta: float, L_bar: float, R1_bar: float) -> float:
    """Natural log of I = int_0^{R1_bar} exp{(s sqrt(beta L_bar / 8) +
    sqrt(8/(beta L_bar)))^2} ds, evaluated with the peak factored out and
    by mpmath's quadrature split where the mass concentrates."""
    alpha = math.sqrt(beta * L_bar / 8.0)
    gamma = math.sqrt(8.0 / (beta * L_bar))
    top = (alpha * R1_bar + gamma) ** 2

    def g(s):
        return mp.exp((alpha * s + gamma) ** 2 - top)

    # mass concentrates at the right endpoint on a scale 1/g'(R1_bar)
    width = 1.0 / max(2.0 * alpha * (alpha * R1_bar + gamma), 1e-12)
    pts = sorted({max(0.0, R1_bar - k * width) for k in (1.0, 5.0, 25.0)})
    val = mp.quad(g, [0.0] + [p for p in pts if 0.0 < p < R1_bar] + [R1_bar])
    return top + float(mp.log(val))


def derive_contraction_constants(moduli: SimpleNamespace, drift: dict, beta: float) -> dict:
    """(R1_bar, R2_bar, epsilon, c_hat, c_dot) of the coupling contraction.

    epsilon is set to its largest admissible value
    min{1, (4 c_V2(2) sqrt(2 pi beta / L_bar) I)^{-1}}, which maximizes
    c_dot; I is the contraction integral above.
    """
    L_bar = moduli.L_bar
    c_v1 = drift["c_V1"][2]
    c_v2 = drift["c_V2"][2]
    beta_mp = mpf(beta)

    R1_bar = 2 * (2 * c_v2 / c_v1 - 1) ** mpf("0.5")
    R2_bar = 2 * (4 * c_v2 * (1 + c_v1) / c_v1 - 1) ** mpf("0.5")

    log_I = mpf(log_contraction_integral(beta, float(L_bar), float(R1_bar)))
    eps_bound = 1 / (4 * c_v2 * mp.sqrt(2 * mp.pi * beta_mp / L_bar) * mp.e**log_I)
    epsilon = min(mpf(1), eps_bound)

    c_hat = 2 * (1 + R2_bar) * mp.e ** (beta_mp * L_bar * R2_bar**2 / 8 + 2 * R2_bar) / epsilon
    c_dot = min(
        1 / (R2_bar * mp.sqrt(8 * mp.pi * beta_mp / L_bar)
             * mp.e ** ((R2_bar * mp.sqrt(beta_mp * L_bar / 8) + mp.sqrt(8 / (beta_mp * L_bar))) ** 2)),
        c_v1 / 2,
        2 * c_v2 * epsilon * c_v1,
    )
    return {
        "R1_bar": R1_bar,
        "R2_bar": R2_bar,
        "epsilon": epsilon,
        "c_hat": c_hat,
        "c_dot": c_dot,
        "log_I": log_I,
    }


# --- report plumbing ---

def _entry(value: mpf | None, formula: str, degenerate: bool = False) -> dict:
    if value is None:
        return {"value": None, "representable": False, "formula_ref": formula,
                "degenerate": degenerate}
    if value == mp.inf:
        return {"value": None, "log10_value": None, "representable": False,
                "formula_ref": formula, "degenerate": True}
    if value == 0:
        return {"value": 0.0, "representable": True, "formula_ref": formula,
                "degenerate": degenerate}
    log10 = float(mp.log10(value))
    if abs(log10) <= _LOG10_LIMIT:
        return {"value": float(value), "log10_value": log10, "representable": True,
                "formula_ref": formula, "degenerate": degenerate}
    return {"log10_value": log10, "representable": False, "formula_ref": formula,
            "degenerate": degenerate}


class DerivedConstants(SimpleNamespace):
    """Every derived constant for one (target, beta, d) triple: the
    outputs of the five stages under the names they return.

    Scalar attributes are mpmath values (exact to working precision);
    per-degree tables (M1 .. c_star, M_V, c_V1, c_V2) are dicts keyed by
    integer degree.  ``to_report`` flattens everything into the JSON
    schema {value | log10_value, representable, formula_ref}.
    """

    @property
    def degenerate_exponents(self) -> bool:
        """True when r = 0 zeroes the decay-rate minimum, which makes the
        time-horizon constants C1, C2_bar, C4, C4_bar blow up."""
        return self.r == 0

    def to_report(self) -> dict:
        rep = {
            "target": self.target_name,
            "beta": self.beta,
            "d": self.d,
            "grad_h0_norm": self.grad_h0_norm,
            "constants": {},
            "notes": self.notes,
        }
        c = rep["constants"]
        deg = self.degenerate_exponents
        c["R"] = _entry(self.R, "max((4b/a)^(1/(r-r_bar)), 2^(1/r)); absent for r=0")
        c["a_bar"] = _entry(self.a_bar, "a/2 if r>0 else a_tilde")
        c["b_bar"] = _entry(self.b_bar, "(b+a/2) R^(r_bar+2) + K^2/(2a) if r>0 else b_tilde")
        c["b_bar_prime"] = _entry(self.b_bar_prime, "b_bar + 2^(2/r) a_bar if r>0 else b_tilde")
        c["R_bar"] = _entry(self.R_bar, "(b/a)^(1/(r-r_bar)) if r>0 else 0")
        c["L_bar"] = _entry(self.L_bar, "L (1+2 R_bar)^r")
        c["C_grad"] = _entry(self.C_grad, "2 max(2^(nu-1) L_grad, |grad_h(0)|)")
        c["L_bar_grad"] = _entry(self.L_bar_grad, "3^(nu-1) L_grad")
        c["kappa"] = _entry(self.kappa, "1/sqrt(2)")
        c["c_0"] = _entry(self.c0, "a_bar kappa + 2 b_bar + 2 d/beta + 2 K^2")
        c["kappa_star"] = _entry(self.kappa_star, "min(kappa, kappa_tilde(2)/2)")
        for p, v in sorted(self.M1.items()):
            c[f"M_1({p})"] = _entry(v, "4p C(p,ceil(p/2)) (1+2 b_bar+2K^2)^p / min(1,a_bar)")
        for p, v in sorted(self.kappa_tilde.items()):
            c[f"kappa_tilde({p})"] = _entry(v, "M_1(p)^r / (2 (1+M_1(p)^(2r))^(1/2))")
        for p, v in sorted(self.M2.items()):
            c[f"M_2({p})"] = _entry(v, "(p(2p-1) 2^(2p-1) d / (beta a_bar kappa_tilde(p)))^(1/2)")
        for p, v in sorted(self.c1.items()):
            c[f"c_1({p})"] = _entry(v, "a_bar kappa_tilde(p) M_1(p)^(2p) + sum_k C(p,k)(2b_bar+2K^2)^k M_1(p)^(2p-2k)")
        for p, v in sorted(self.c2.items()):
            c[f"c_2({p})"] = _entry(v, "c_1(p) + p(2p-1)2^(2p-2) d/beta c_1(p-1) + p(2p-1)2^(4p-3) beta^-p p! C(d/2+p-1,p)")
        for p, v in sorted(self.c3.items()):
            c[f"c_3({p})"] = _entry(v, "c_2(p) + p(2p-1)2^(2p-2) d/beta M_2(p)^(2p-2)")
        for p, v in sorted(self.c_star.items()):
            c[f"c_star({p})"] = _entry(v, "1 if p=0; c_0 if p=1; max(c_0, c_3(p)) if p>=2")
        for p, v in sorted(self.M_V.items()):
            c[f"M_V({p})"] = _entry(v, "(1 + (2 b_bar' + 2(d+p-2)/beta)/a_bar)^(1/2)")
        for p, v in sorted(self.c_V1.items()):
            c[f"c_V1({p})"] = _entry(v, "a_bar p / 2")
        for p, v in sorted(self.c_V2.items()):
            c[f"c_V2({p})"] = _entry(v, "(a_bar p / 2) v_p(M_V(p))")
        c["R_bar_1"] = _entry(self.R1_bar, "2 (2 c_V2(2)/c_V1(2) - 1)^(1/2)")
        c["R_bar_2"] = _entry(self.R2_bar, "2 (4 c_V2(2)(1+c_V1(2))/c_V1(2) - 1)^(1/2)")
        c["epsilon"] = _entry(self.epsilon, "min(1, (4 c_V2(2) sqrt(2 pi beta/L_bar) I)^-1), I the contraction integral")
        c["c_hat"] = _entry(self.c_hat, "2 (1+R_bar_2) exp(beta L_bar R_bar_2^2/8 + 2 R_bar_2) / epsilon")
        c["c_dot"] = _entry(self.c_dot, "min((R_bar_2 sqrt(8 pi beta/L_bar) exp((R_bar_2 sqrt(beta L_bar/8)+sqrt(8/(beta L_bar)))^2))^-1, c_V1(2)/2, 2 c_V2(2) eps c_V1(2))")
        c["C_bar_1_1"] = _entry(self.C_bar_11, "16384 K^8")
        c["C_bar_2_1"] = _entry(self.C_bar_21, "16384 K^8 (1 + c_star(4r+4)(1+1/(a_bar kappa_star))) + 2048 beta^-4 d(d+2)(d+4)(d+6)")
        c["C_bar_1_2"] = _entry(self.C_bar_12, "2^(2r+7) K^4")
        c["C_bar_2_2"] = _entry(self.C_bar_22, "64 K^4 (2^(2r+1) + 2^(2r+1) c_star(2r+2)(1+1/(a_bar kappa_star)) + v_{4r+4}(M_V(4r+4))) + 32 beta^-2 d(d+2)")
        c["C_bar_0"] = _entry(self.C_bar_0, "e^(5 L_bar) (27 L_bar^-1 L_bar_grad^2 + L_bar^-1 L_bar_grad^2 C_bar_1_1/2 + 12 L_bar^-1 C_grad^2 K^2 + sqrt(2/beta) L^2 6^r 2^(2r-2) + sqrt(2/beta) L^2 6^r C_bar_1_2/2 + sqrt(2/beta) C_grad^2/2 + 4 L_bar^-1 K^2)")
        c["C_bar_1"] = _entry(self.C_bar_1, "C_bar_0 + e^(5 L_bar) (five grouped remainder terms)")
        c["C_bar_2"] = _entry(self.C_bar_2, "c_hat e^m1 (1+1/m1)(C_bar_0+3), m1=min(c_dot/4,a_bar/2,a_bar r/2,a_bar kappa_star/4)", degenerate=deg)
        c["C_bar_3"] = _entry(self.C_bar_3, "(2 c_hat e^(c_dot/2)/c_dot)(C_bar_1 + 27/4 + 3 c_star(2)(1+1/(a_bar kappa_star)) + 3 v_4(M_V(4))/4)")
        c["C_bar_4"] = _entry(self.C_bar_4, "sqrt(2 c_hat) e^m3 (1+1/m3)(C_bar_0^(1/2)+1/sqrt(2)), m3=min(c_dot/8,a_bar/4,a_bar r/4,a_bar kappa_star/8)", degenerate=deg)
        c["C_bar_5"] = _entry(self.C_bar_5, "(4 sqrt(2 c_hat) e^(c_dot/4)/c_dot)(C_bar_1^(1/2) + (1+2 sqrt(2))/4 + sqrt(c_star(2)/2)(1+1/(a_bar kappa_star))^(1/2) + v_4(M_V(4))^(1/2)/4)")
        c["C0"] = _entry(self.C0, "min(c_dot/4, a_bar/2, a_bar r/2, a_bar kappa_star/4)", degenerate=deg)
        c["C1"] = _entry(self.C1, "e^C0 (C_bar_0^(1/2) + C_bar_2 + c_hat (3 + v2_integral))", degenerate=deg)
        c["C2"] = _entry(self.C2, "C_bar_1^(1/2) + C_bar_3")
        c["C3"] = _entry(self.C3, "min(c_dot/8, a_bar/4, a_bar r/4, a_bar kappa_star/8)", degenerate=deg)
        c["C4"] = _entry(self.C4, "e^C3 (C_bar_0^(1/2) + C_bar_4 + sqrt(2 c_hat)(1 + (2 + v2_integral)^(1/2)))", degenerate=deg)
        c["C5"] = _entry(self.C5, "C_bar_1^(1/2) + C_bar_5")
        c["lambda_max"] = _entry(mpf(self.lambda_max), "min(1, a_bar^2/(8 K^4), 1/a_bar^2)")
        c["lambda_1_max"] = _entry(mpf(self.lambda_1_max), "min(1, a_bar^2/(8 K^4))")
        if self.v2_integral is not None:
            c["v2_integral"] = {
                "value": self.v2_integral,
                "representable": True,
                "formula_ref": "integral of (1+|theta|^2) under the target law",
            }
        return rep


_NOTES = {
    "one_step_moment_decay": (
        "the 8th-moment one-step bound is evaluated with decay rate "
        "exp(-a_bar kappa_star n/2) and the 4th-moment auxiliary bound with "
        "exp(-a_bar min(r+1, kappa_star/2) n); variants with kappa_tilde(4r+4)/2 "
        "and kappa_tilde(2r+2)/4 in place of the kappa_star terms appear in an "
        "alternative statement of the same bound and are not used here"
    ),
    "drift_table_orientation": (
        "M_V(p) is the square-root expression and c_V1(p) = a_bar p/2; a summary "
        "table variant swaps the two labels and is not followed"
    ),
    "c_star_indicator": (
        "c_star(0) = 1 by convention; a summary table variant adds the indicator "
        "1{p=0} on top of max(c_0, c_3(p) 1{p>=2}) (yielding 1 + c_0 at p = 0) "
        "and is not followed"
    ),
    "C_bar_2_2_tail_term": (
        "C_bar_2_2 includes the additive 32 beta^-2 d(d+2) Brownian-increment "
        "term; a summary table variant omits it and is not followed"
    ),
}


def derive_theorem_constants(
    target: TargetSpec,
    moduli: SimpleNamespace,
    beta: float,
    d: int,
    v2_integral: float | None,
    moment: dict,
    drift: dict,
    contraction: dict,
) -> dict:
    """Final bound constants C_bar_11..C_bar_5 and C0..C5.

    For r = 0 the decay-rate minima vanish, so C0 = C3 = 0 and the
    constants dividing by them (C_bar_2, C_bar_4, hence C1, C4) are
    reported as infinite / degenerate.
    """
    r, nu = target.r, target.nu
    K, L = mpf(target.K), mpf(target.L)
    beta_mp, d_mp = mpf(beta), mpf(d)
    a_bar, L_bar, C_grad, L_bar_grad = moduli.a_bar, moduli.L_bar, moduli.C_grad, moduli.L_bar_grad
    kappa_star = moment["kappa_star"]
    c_star = moment["c_star"]
    c_hat, c_dot = contraction["c_hat"], contraction["c_dot"]
    ks_term = 1 + 1 / (a_bar * kappa_star)

    C_bar_11 = 16384 * K**8
    C_bar_21 = 16384 * K**8 * (1 + c_star[4 * r + 4] * ks_term) + 2048 * beta_mp ** (-4) * d_mp * (d_mp + 2) * (d_mp + 4) * (d_mp + 6)
    C_bar_12 = mpf(2) ** (2 * r + 7) * K**4
    C_bar_22 = 64 * K**4 * (
        mpf(2) ** (2 * r + 1)
        + mpf(2) ** (2 * r + 1) * c_star[2 * r + 2] * ks_term
        + _v_of_mv(4 * r + 4, drift)
    ) + 32 * beta_mp ** (-2) * d_mp * (d_mp + 2)

    e5L = mp.e ** (5 * L_bar)
    sqrt_2_beta = mp.sqrt(2 / beta_mp)
    C_bar_0 = e5L * (
        27 / L_bar * L_bar_grad**2
        + L_bar_grad**2 * C_bar_11 / (2 * L_bar)
        + 12 / L_bar * C_grad**2 * K**2
        + sqrt_2_beta * L**2 * mpf(6) ** r * mpf(2) ** (2 * r - 2)
        + sqrt_2_beta * L**2 * mpf(6) ** r * C_bar_12 / 2
        + sqrt_2_beta * C_grad**2 / 2
        + 4 / L_bar * K**2
    )
    C_bar_1 = C_bar_0 + e5L * (
        L_bar_grad**2 / L_bar * (mpf(27) / 2 + 27 * c_star[2 * nu] * ks_term + C_bar_21 / 2)
        + 12 / L_bar * C_grad**2 * K**2 * (1 + c_star[nu + r + 2] * ks_term)
        + sqrt_2_beta * L**2 * mpf(6) ** r * (
            mpf(2) ** (2 * r - 2) * (1 + c_star[2 * r] * ks_term)
            + _v_of_mv(4 * r, drift) / 2
            + C_bar_22 / 2
        )
        + sqrt_2_beta * C_grad**2 / 2 * (8 * d_mp * (d_mp + 2) + 1 + c_star[2 * nu + 2] * ks_term)
        + 2 / L_bar * K**2 * (1 + 2 * c_star[3 * r + 1] * ks_term)
    )

    m1 = min(c_dot / 4, a_bar / 2, a_bar * r / 2, a_bar * kappa_star / 4)
    m3 = min(c_dot / 8, a_bar / 4, a_bar * r / 4, a_bar * kappa_star / 8)
    v4mv = _v_of_mv(4, drift)
    if m1 > 0:
        C_bar_2 = c_hat * mp.e**m1 * (1 + 1 / m1) * (C_bar_0 + 3)
        C_bar_4 = mp.sqrt(2 * c_hat) * mp.e**m3 * (1 + 1 / m3) * (mp.sqrt(C_bar_0) + 1 / _SQRT2)
    else:
        C_bar_2 = mp.inf
        C_bar_4 = mp.inf
    C_bar_3 = 2 * c_hat * mp.e ** (c_dot / 2) / c_dot * (
        C_bar_1 + mpf(27) / 4 + 3 * c_star[2] * ks_term + 3 * v4mv / 4
    )
    C_bar_5 = 4 * mp.sqrt(2 * c_hat) * mp.e ** (c_dot / 4) / c_dot * (
        mp.sqrt(C_bar_1) + (1 + 2 * _SQRT2) / 4
        + mp.sqrt(c_star[2] / 2) * ks_term ** mpf("0.5")
        + mp.sqrt(v4mv) / 4
    )

    C0, C3 = m1, m3
    v2 = None if v2_integral is None else mpf(v2_integral)
    if v2 is None:
        C1 = C4 = None
    elif m1 > 0:
        C1 = mp.e**C0 * (mp.sqrt(C_bar_0) + C_bar_2 + c_hat * (3 + v2))
        C4 = mp.e**C3 * (mp.sqrt(C_bar_0) + C_bar_4 + mp.sqrt(2 * c_hat) * (1 + mp.sqrt(2 + v2)))
    else:
        C1 = mp.inf
        C4 = mp.inf
    C2 = mp.sqrt(C_bar_1) + C_bar_3
    C5 = mp.sqrt(C_bar_1) + C_bar_5

    return {
        "C_bar_11": C_bar_11, "C_bar_21": C_bar_21,
        "C_bar_12": C_bar_12, "C_bar_22": C_bar_22,
        "C_bar_0": C_bar_0, "C_bar_1": C_bar_1,
        "C_bar_2": C_bar_2, "C_bar_3": C_bar_3,
        "C_bar_4": C_bar_4, "C_bar_5": C_bar_5,
        "C0": C0, "C1": C1, "C2": C2, "C3": C3, "C4": C4, "C5": C5,
    }


def required_degrees(target: TargetSpec) -> dict:
    """Degrees at which the theorem constants consume the per-p tables."""
    r, nu = target.r, target.nu
    c_star_ps = sorted({2, 2 * r, 2 * r + 2, 2 * nu, 2 * nu + 2, nu + r + 2, 3 * r + 1, 4 * r + 4})
    mv_ps = sorted({2, 4} | ({4 * r, 4 * r + 4} if r > 0 else {4}))
    return {"c_star": c_star_ps, "M_V": mv_ps}


def derive_constants(
    target: TargetSpec,
    beta: float,
    d: int,
    p_list=None,
    v2_integral: float | None = None,
) -> DerivedConstants:
    """Evaluate the full constant pipeline for one (target, beta, d).

    ``d`` must be ``target.d``.  v2_integral (the second-moment functional
    of the target law, ``sampler.estimate_v2_integral``) must be supplied
    for the horizon constants C1 and C4.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if d != target.d:
        raise ValueError(f"d={d} does not match target.d={target.d}")
    need = required_degrees(target)
    p_extra = sorted({int(p) for p in (p_list or [])})
    moduli = certified_moduli(target)
    moment = derive_moment_constants(target, moduli, beta, d, sorted(set(need["c_star"]) | set(p_extra)))
    drift = derive_drift_constants(moduli, beta, d, sorted(set(need["M_V"]) | {p for p in p_extra if p >= 1}))
    contraction = derive_contraction_constants(moduli, drift, beta)
    theorem = derive_theorem_constants(target, moduli, beta, d, v2_integral, moment, drift, contraction)
    # a name two stages both return is a TypeError here, not a silent overwrite
    return DerivedConstants(
        target_name=target.name, beta=beta, d=d, r=target.r, v2_integral=v2_integral,
        notes=dict(_NOTES), **vars(moduli), **moment, **drift, **contraction, **theorem,
    )


# --- sampled certificates for the derived moduli ---

def certify_derived_constants(
    target: TargetSpec,
    dc: SimpleNamespace,
    n_points: int,
    radius: float,
    stream: RngStream,
) -> list[CheckReport]:
    """Check the proved consequences of the derived constants at sampled
    points: both dissipativity lower bounds, the one-sided Lipschitz
    bound, Hessian growth, and the Taylor-remainder bound.  ``dc`` is the
    target's ``certified_moduli`` or a ``DerivedConstants``, which holds them."""
    xs = _uniform_in_ball(stream, target.d, radius, n_points)
    ys = _uniform_in_ball(stream, target.d, radius, n_points)
    hx = np.atleast_2d(target.h(xs))
    hy = np.atleast_2d(target.h(ys))
    nx = np.linalg.norm(xs, axis=1)
    ny = np.linalg.norm(ys, axis=1)
    a_bar, b_bar, b_bar_prime = float(dc.a_bar), float(dc.b_bar), float(dc.b_bar_prime)
    ip = np.sum(xs * hx, axis=1)
    diff = xs - ys
    dsq = np.sum(diff * diff, axis=1)
    one_sided = np.sum(diff * (hx - hy), axis=1)
    # |h(x) - h(y) - H(y)(x - y)|, formed in place in diff, which is not
    # needed after: the (n, d) temporaries set the check's peak memory
    remainder = hessian_vector_product(target, ys, diff, out=diff)
    remainder -= hx
    remainder += hy
    growth = 1.0 + _pow0(nx, target.nu) + _pow0(ny, target.nu)
    found = {
        "dissipativity-r+2": _falls_short(ip, a_bar * nx ** (target.r + 2) - b_bar, xs),
        "dissipativity-quadratic": _falls_short(ip, a_bar * nx**2 - b_bar_prime, xs),
        "one-sided-lipschitz": _falls_short(one_sided, -float(dc.L_bar) * dsq, xs, ys),
        "hessian-growth": _exceeds(hessian_norm(target, xs), float(dc.C_grad) * (1.0 + nx ** (target.nu + 1)), xs),
        "taylor-remainder": _exceeds(np.sqrt(row_norm_sq(remainder)), float(dc.L_bar_grad) * growth * dsq, xs, ys),
    }
    return [_report(target, name, n_points, bad) for name, bad in found.items()]
