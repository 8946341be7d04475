"""Independent second-path transcription of the derived-constant formulas.

Every row is re-derived here from the raw target constants through
string-templated expressions evaluated in an mpmath namespace, written
separately from the package implementation so the two transcriptions
cross-check each other.  The contraction integral is evaluated through
its closed form (imaginary error function) rather than quadrature.
"""

import math

from mpmath import erfi, mp, mpf

mp.dps = 60


def _ev(expr: str, ns: dict):
    return eval(expr, {"__builtins__": {}}, ns)


_BASE_ROWS_R_POS = [
    ("R", "max((4*b/a)**(1/(r - r_bar)), mpf(2)**(1/r))"),
    ("a_bar", "a/2"),
    ("b_bar", "(b + a/2)*R**(r_bar + 2) + K**2/(2*a)"),
    ("b_bar_prime", "b_bar + mpf(2)**(2/r)*a_bar"),
    ("R_bar", "(b/a)**(1/(r - r_bar))"),
]

_BASE_ROWS_R_ZERO = [
    ("a_bar", "a_tilde"),
    ("b_bar", "b_tilde"),
    ("b_bar_prime", "b_tilde"),
    ("R_bar", "mpf(0)"),
]

_LIPSCHITZ_ROWS = [
    ("L_bar", "L*(1 + 2*R_bar)**r"),
    ("C_grad", "2*max(mpf(2)**(nu - 1)*L_grad, grad_h0)"),
    ("L_bar_grad", "mpf(3)**(nu - 1)*L_grad"),
]

_MOMENT_SCALAR_ROWS = [
    ("kappa", "1/sqrt(mpf(2))"),
    ("c0", "a_bar*kappa + 2*b_bar + 2*d/beta + 2*K**2"),
]

# per-degree templates; {p} is substituted before evaluation
_M1_T = "4*{p}*comb({p}, ({p} + 1)//2)*(1 + 2*b_bar + 2*K**2)**{p} / min(mpf(1), a_bar)"
_KT_T = "M1[{p}]**r / (2*(1 + M1[{p}]**(2*r))**mpf('0.5'))"
_C1_T = ("a_bar*kt[{p}]*M1[{p}]**(2*{p}) + fsum_terms({p})")
_M2_T = "({p}*(2*{p} - 1)*mpf(2)**(2*{p} - 1)*d/(beta*a_bar*kt[{p}]))**mpf('0.5')"
_C2_T = ("c1[{p}] + {p}*(2*{p} - 1)*mpf(2)**(2*{p} - 2)*d/beta*c1[{p} - 1]"
         " + {p}*(2*{p} - 1)*mpf(2)**(4*{p} - 3)*beta**(-{p})*fact({p})*gbinom(d/2 + {p} - 1, {p})")
_C3_T = "c2[{p}] + {p}*(2*{p} - 1)*mpf(2)**(2*{p} - 2)*d/beta*M2[{p}]**(2*{p} - 2)"

_MV_T = "(1 + (2*b_bar_prime + 2*(d + {p} - 2)/beta)/a_bar)**mpf('0.5')"

_THEOREM_ROWS = [
    ("C_bar_11", "16384*K**8"),
    ("C_bar_21", "16384*K**8*(1 + cs(4*r + 4)*kst) + 2048*beta**-4*d*(d + 2)*(d + 4)*(d + 6)"),
    ("C_bar_12", "mpf(2)**(2*r + 7)*K**4"),
    ("C_bar_22", "64*K**4*(mpf(2)**(2*r + 1) + mpf(2)**(2*r + 1)*cs(2*r + 2)*kst + vmv(4*r + 4))"
                 " + 32*beta**-2*d*(d + 2)"),
    ("C_bar_0", "exp(5*L_bar)*(27/L_bar*L_bar_grad**2 + L_bar_grad**2*C_bar_11/(2*L_bar)"
                " + 12/L_bar*C_grad**2*K**2 + sqrt(2/beta)*L**2*mpf(6)**r*mpf(2)**(2*r - 2)"
                " + sqrt(2/beta)*L**2*mpf(6)**r*C_bar_12/2 + sqrt(2/beta)*C_grad**2/2 + 4/L_bar*K**2)"),
    ("C_bar_1", "C_bar_0 + exp(5*L_bar)*("
                "L_bar_grad**2/L_bar*(mpf(27)/2 + 27*cs(2*nu)*kst + C_bar_21/2)"
                " + 12/L_bar*C_grad**2*K**2*(1 + cs(nu + r + 2)*kst)"
                " + sqrt(2/beta)*L**2*mpf(6)**r*(mpf(2)**(2*r - 2)*(1 + cs(2*r)*kst)"
                "   + vmv(4*r)/2 + C_bar_22/2)"
                " + sqrt(2/beta)*C_grad**2/2*(8*d*(d + 2) + 1 + cs(2*nu + 2)*kst)"
                " + 2/L_bar*K**2*(1 + 2*cs(3*r + 1)*kst))"),
    ("C_bar_3", "2*c_hat*exp(c_dot/2)/c_dot*(C_bar_1 + mpf(27)/4 + 3*cs(2)*kst + 3*vmv(4)/4)"),
    ("C_bar_5", "4*sqrt(2*c_hat)*exp(c_dot/4)/c_dot*(sqrt(C_bar_1) + (1 + 2*sqrt(mpf(2)))/4"
                " + sqrt(cs(2)/2)*kst**mpf('0.5') + sqrt(vmv(4))/4)"),
    ("C2", "sqrt(C_bar_1) + C_bar_3"),
    ("C5", "sqrt(C_bar_1) + C_bar_5"),
]


def second_path(target, beta, d, grad_h0_norm, v2_integral=None):
    """Recompute every derived constant from the raw target constants."""
    r, nu = target.r, target.nu
    ns = {
        "r": mpf(target.r),
        "nu": mpf(target.nu),
        "L": mpf(target.L),
        "K": mpf(target.K),
        "L_grad": mpf(target.L_grad),
        "beta": mpf(beta),
        "d": mpf(d),
        "grad_h0": mpf(grad_h0_norm),
        "mpf": mpf,
        "max": max,
        "min": min,
        "sqrt": mp.sqrt,
        "exp": mp.exp,
        "comb": lambda n, k: mpf(math.comb(n, k)),
        "fact": mp.factorial,
        "gbinom": mp.binomial,
        "pi": mp.pi,
    }
    if target.r > 0:
        ns.update(a=mpf(target.a), b=mpf(target.b), r_bar=mpf(target.r_bar))
        rows = _BASE_ROWS_R_POS
    else:
        ns.update(a_tilde=mpf(target.a_tilde), b_tilde=mpf(target.b_tilde))
        rows = _BASE_ROWS_R_ZERO
    out = {}
    for name, expr in rows + _LIPSCHITZ_ROWS + _MOMENT_SCALAR_ROWS:
        out[name] = ns[name] = _ev(expr, ns)

    # per-degree tables
    cs_degrees = sorted({2, 2 * r, 2 * r + 2, 2 * nu, 2 * nu + 2, nu + r + 2, 3 * r + 1, 4 * r + 4})
    table_degrees = sorted({p for p in cs_degrees if p >= 2} | {2})
    M1, kt, c1, M2, c2, c3 = {}, {}, {}, {}, {}, {}
    ns.update(M1=M1, kt=kt, c1=c1, M2=M2, c2=c2, c3=c3)

    def fsum_terms(p):
        return sum(
            _ev(f"comb({p}, {k})*(2*b_bar + 2*K**2)**{k}*M1[{p}]**(2*{p} - 2*{k})", ns)
            for k in range(1, p + 1)
        )

    ns["fsum_terms"] = fsum_terms

    def fill_p1(p):
        if p >= 1 and p not in M1:
            M1[p] = _ev(_M1_T.format(p=p), ns)
            kt[p] = _ev(_KT_T.format(p=p), ns)
            c1[p] = _ev(_C1_T.format(p=p), ns)

    def fill_p2(p):
        if p >= 2 and p not in c3:
            fill_p1(p)
            fill_p1(p - 1)
            M2[p] = _ev(_M2_T.format(p=p), ns)
            c2[p] = _ev(_C2_T.format(p=p), ns)
            c3[p] = _ev(_C3_T.format(p=p), ns)

    for p in table_degrees:
        fill_p2(p)
    out["kappa_star"] = ns["kappa_star"] = min(ns["kappa"], kt[2] / 2)

    c0 = ns["c0"]

    def cs(p):
        if p == 0:
            return mpf(1)
        if p == 1:
            return c0
        fill_p2(p)
        return max(c0, c3[p])

    mv_degrees = sorted({2, 4} | ({4 * r, 4 * r + 4} if r > 0 else {4}))
    MV = {p: _ev(_MV_T.format(p=p), ns) for p in mv_degrees}

    def vmv(p):
        if p == 0:
            return mpf(1)
        return (1 + MV[p] ** 2) ** (mpf(p) / 2)

    ns["cs"] = cs
    ns["vmv"] = vmv
    ns["kst"] = 1 + 1 / (ns["a_bar"] * ns["kappa_star"])
    out["kappa_tilde_2"] = kt[2]
    out["M_V_2"] = MV[2]
    out["c_V1_2"] = ns["c_V1_2"] = ns["a_bar"] * 2 / 2
    out["c_V2_2"] = ns["c_V2_2"] = ns["c_V1_2"] * (1 + MV[2] ** 2)

    # contraction block; the integral through erfi:
    #   int_0^R1 exp((alpha s + gamma)^2) ds
    #     = sqrt(pi)/(2 alpha) (erfi(alpha R1 + gamma) - erfi(gamma))
    out["R1_bar"] = ns["R1_bar"] = _ev("2*(2*c_V2_2/c_V1_2 - 1)**mpf('0.5')", ns)
    out["R2_bar"] = ns["R2_bar"] = _ev("2*(4*c_V2_2*(1 + c_V1_2)/c_V1_2 - 1)**mpf('0.5')", ns)
    alpha = mp.sqrt(ns["beta"] * ns["L_bar"] / 8)
    gamma = mp.sqrt(8 / (ns["beta"] * ns["L_bar"]))
    contraction_integral = mp.sqrt(mp.pi) / (2 * alpha) * (erfi(alpha * ns["R1_bar"] + gamma) - erfi(gamma))
    ns["I"] = contraction_integral
    out["epsilon"] = ns["epsilon"] = _ev(
        "min(mpf(1), 1/(4*c_V2_2*sqrt(2*pi*beta/L_bar)*I))", ns
    )
    out["c_hat"] = ns["c_hat"] = _ev(
        "2*(1 + R2_bar)*exp(beta*L_bar*R2_bar**2/8 + 2*R2_bar)/epsilon", ns
    )
    out["c_dot"] = ns["c_dot"] = _ev(
        "min(1/(R2_bar*sqrt(8*pi*beta/L_bar)"
        "*exp((R2_bar*sqrt(beta*L_bar/8) + sqrt(8/(beta*L_bar)))**2)),"
        " c_V1_2/2, 2*c_V2_2*epsilon*c_V1_2)", ns
    )

    for name, expr in _THEOREM_ROWS:
        out[name] = ns[name] = _ev(expr, ns)

    m1 = min(ns["c_dot"] / 4, ns["a_bar"] / 2, ns["a_bar"] * r / 2, ns["a_bar"] * ns["kappa_star"] / 4)
    m3 = min(ns["c_dot"] / 8, ns["a_bar"] / 4, ns["a_bar"] * r / 4, ns["a_bar"] * ns["kappa_star"] / 8)
    out["C0"], out["C3"] = m1, m3
    if m1 > 0:
        ns["m1"], ns["m3"] = m1, m3
        out["C_bar_2"] = ns["C_bar_2"] = _ev("c_hat*exp(m1)*(1 + 1/m1)*(C_bar_0 + 3)", ns)
        out["C_bar_4"] = ns["C_bar_4"] = _ev(
            "sqrt(2*c_hat)*exp(m3)*(1 + 1/m3)*(sqrt(C_bar_0) + 1/sqrt(mpf(2)))", ns
        )
        if v2_integral is not None:
            ns["v2"] = mpf(v2_integral)
            out["C1"] = _ev("exp(C0)*(sqrt(C_bar_0) + C_bar_2 + c_hat*(3 + v2))",
                            {**ns, "C0": m1})
            out["C4"] = _ev("exp(C3)*(sqrt(C_bar_0) + C_bar_4 + sqrt(2*c_hat)*(1 + sqrt(2 + v2)))",
                            {**ns, "C3": m3})
    out["lambda_1_max"] = min(mpf(1), ns["a_bar"] ** 2 / (8 * ns["K"] ** 4))
    out["lambda_max"] = min(out["lambda_1_max"], 1 / ns["a_bar"] ** 2)
    out["c_star"] = {p: cs(p) for p in cs_degrees}
    out["tables"] = {"M1": M1, "kappa_tilde": kt, "c1": c1, "M2": M2, "c2": c2, "c3": c3, "M_V": MV}
    return out


# the report's key for each scalar the second path returns under another name
REPORT_KEY = {
    "c0": "c_0", "R1_bar": "R_bar_1", "R2_bar": "R_bar_2",
    "C_bar_11": "C_bar_1_1", "C_bar_21": "C_bar_2_1", "C_bar_12": "C_bar_1_2", "C_bar_22": "C_bar_2_2",
    "kappa_tilde_2": "kappa_tilde(2)", "M_V_2": "M_V(2)", "c_V1_2": "c_V1(2)", "c_V2_2": "c_V2(2)",
}
REPORT_TABLE = {"M1": "M_1", "kappa_tilde": "kappa_tilde", "c1": "c_1", "M2": "M_2",
                "c2": "c_2", "c3": "c_3", "M_V": "M_V"}


def oracle_by_report_key(oracle: dict) -> dict:
    """``second_path``'s output keyed as ``DerivedConstants.to_report``
    keys its entries: scalars renamed, tables flattened to ``name(p)``."""
    out = {REPORT_KEY.get(k, k): v for k, v in oracle.items() if k not in ("c_star", "tables")}
    out.update({f"c_star({p})": v for p, v in oracle["c_star"].items()})
    for table, prefix in REPORT_TABLE.items():
        out.update({f"{prefix}({p})": v for p, v in oracle["tables"][table].items()})
    return out
