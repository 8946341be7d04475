"""Benchmark sampling targets and their structural certificates.

Each target bundles the potential U, its gradient h, the Hessian of U,
and the growth/dissipativity constants under which the tamed chain's
guarantees hold.  Three built-ins ship: an isotropic Gaussian, a
symmetric two-component Gaussian mixture, and the double-well potential
(the canonical non-convex target whose gradient grows cubically).

``U`` and ``h`` accept points of shape (d,) or batches (..., d); ``hess``
takes a single point and returns a (d, d) matrix.  A built-in target also
carries what is known of its law: first marginal, second moment, exact draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import expit

from . import metrics
from .numerics import RngStream, log_gamma, integrate_semi_infinite, normal_cdf


def row_norm_sq(theta: np.ndarray) -> np.ndarray:
    """|theta|^2 along the last axis.

    einsum keeps the reduction order a function of d alone, so batched
    and single-point evaluations agree bit for bit.
    """
    return np.einsum("...i,...i->...", theta, theta)


@dataclass(frozen=True)
class TargetSpec:
    """A potential with gradient, Hessian and assumption constants.

    r and nu are the polynomial growth exponents of the gradient and of
    the Hessian's Lipschitz modulus.  Exactly one of the dissipativity
    parameter groups is populated: (a, b, r_bar) when r > 0, or
    (a_tilde, b_tilde) when r = 0.
    """

    name: str
    d: int
    U: Callable
    h: Callable
    hess: Callable
    r: int
    nu: int
    L: float
    K: float
    L_grad: float
    a: float | None = None
    b: float | None = None
    r_bar: float | None = None
    a_tilde: float | None = None
    b_tilde: float | None = None
    # facts about the law, None where unknown (a hand-built target)
    marginal: Callable | None = None  # first-coordinate density at beta = 1
    second_moment: Callable | None = None  # beta -> E_pi |theta|^2
    exact_draw: Callable | None = None  # (stream, n, beta) -> (n, d) draws

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.r < 0 or self.nu < 0:
            raise ValueError("growth exponents must be non-negative integers")
        poly_branch = all(v is not None for v in (self.a, self.b, self.r_bar))
        flat_branch = all(v is not None for v in (self.a_tilde, self.b_tilde))
        if self.r > 0 and not (poly_branch and not flat_branch):
            raise ValueError("r > 0 requires (a, b, r_bar) and forbids (a_tilde, b_tilde)")
        if self.r == 0 and not (flat_branch and not poly_branch):
            raise ValueError("r = 0 requires (a_tilde, b_tilde) and forbids (a, b, r_bar)")
        if self.r > 0 and not (0 <= self.r_bar < self.r):
            raise ValueError("r_bar must lie in [0, r)")

    @property
    def r_star(self) -> int:
        return max(8 * self.r + 8, 4 * self.nu + 4, 2 * self.nu + 2 * self.r + 4)


# --- built-in potentials (module level so targets pickle across workers) ---

def _gaussian_u(theta):
    theta = np.asarray(theta, dtype=float)
    return 0.5 * row_norm_sq(theta)


def _gaussian_h(theta):
    return np.asarray(theta, dtype=float)


def _gaussian_hess(theta, d):
    return np.eye(d)


def _gaussian_second_moment(beta, d):
    return d / beta


def _gaussian_draw(stream, n, beta, d):
    # N(0, I / beta)
    return stream.normal((n, d)) / math.sqrt(beta)


def _mixture_u(theta, a_dot):
    theta = np.asarray(theta, dtype=float)
    diff = theta - a_dot
    dot = np.einsum("...i,i->...", theta, a_dot)
    # log(1 + exp(-2<a,theta>)) without overflow for large |<a,theta>|
    return 0.5 * row_norm_sq(diff) - np.logaddexp(0.0, -2.0 * dot)


def _mixture_h(theta, a_dot):
    theta = np.asarray(theta, dtype=float)
    # reduction order independent of batch shape: masked, full-batch and
    # single-point updates agree bit for bit
    dot = np.einsum("...i,i->...", theta, a_dot)
    w = expit(-2.0 * dot)  # = 1 / (1 + e^{2<a,theta>}), overflow-safe
    return theta - a_dot + 2.0 * np.multiply.outer(w, a_dot)


def _mixture_hess(theta, a_dot):
    theta = np.asarray(theta, dtype=float)
    x = 2.0 * float(np.sum(theta * a_dot))
    s = 4.0 * expit(x) * expit(-x)  # 4 e^x / (1 + e^x)^2
    return np.eye(a_dot.size) - s * np.outer(a_dot, a_dot)


def _mixture_second_moment(beta, d, a_norm):
    # split theta into the component along a_dot (1-D law below) and the
    # (d-1)-dimensional Gaussian complement
    def g(u):
        return np.exp(
            -0.5 * beta * (u - a_norm) ** 2 + beta * np.logaddexp(0.0, -2.0 * a_norm * u)
        )

    lo, hi = -a_norm - 40.0 / math.sqrt(beta), a_norm + 40.0 / math.sqrt(beta)
    pts = [-a_norm, 0.0, a_norm]
    z, _ = quad(g, lo, hi, points=pts, limit=200)
    m2, _ = quad(lambda u: u * u * g(u), lo, hi, points=pts, limit=200)
    return m2 / z + (d - 1) / beta


def _double_well_u(theta):
    theta = np.asarray(theta, dtype=float)
    sq = row_norm_sq(theta)
    return 0.25 * sq * sq - 0.5 * sq


def _double_well_h(theta):
    theta = np.asarray(theta, dtype=float)
    sq = row_norm_sq(theta)
    return (sq - 1.0)[..., None] * theta if theta.ndim > 1 else (sq - 1.0) * theta


def _double_well_hess(theta):
    theta = np.asarray(theta, dtype=float)
    sq = float(theta @ theta)
    return (sq - 1.0) * np.eye(theta.size) + 2.0 * np.outer(theta, theta)


def _double_well_second_moment(beta, d):
    # E|theta|^2 from the radial law rho^{d-1} exp{-beta(rho^4/4 - rho^2/2)}
    def log_radial(extra):
        def log_f(rho):
            return (d - 1 + extra) * np.log(rho) - beta * (0.25 * rho**4 - 0.5 * rho**2)

        hint = math.sqrt((beta + math.sqrt(beta**2 + 4.0 * beta * (d - 1 + extra))) / (2.0 * beta))
        return _log_integral_peaked(log_f, hint)

    return float(np.exp(log_radial(2) - log_radial(0)))


def make_gaussian(d: int) -> TargetSpec:
    """Isotropic standard Gaussian target: U = |theta|^2 / 2."""
    return TargetSpec(
        name="gaussian",
        d=d,
        U=_gaussian_u,
        h=_gaussian_h,
        hess=functools.partial(_gaussian_hess, d=d),
        r=0,
        nu=0,
        L=1.0,
        K=1.0,
        a_tilde=1.0,
        b_tilde=1.0,
        L_grad=1.0,
        marginal=_gaussian_marginal_pdf,
        second_moment=functools.partial(_gaussian_second_moment, d=d),
        exact_draw=functools.partial(_gaussian_draw, d=d),
    )


def make_gaussian_mixture(d: int, a_dot: np.ndarray | None = None) -> TargetSpec:
    """Symmetric two-component Gaussian mixture with modes at +/- a_dot
    (default: ``default_mixture_center(d)``).

    U = |theta - a_dot|^2 / 2 - log(1 + exp(-2 <a_dot, theta>)); the
    logistic term is evaluated through expit/logaddexp so the gradient
    stays finite for arbitrarily large |<a_dot, theta>|.
    """
    a_dot = np.asarray(default_mixture_center(d) if a_dot is None else a_dot, dtype=float)
    if a_dot.shape != (d,):
        raise ValueError(f"a_dot must have shape ({d},)")
    norm_a = float(np.linalg.norm(a_dot))
    return TargetSpec(
        name="mixture",
        d=d,
        U=functools.partial(_mixture_u, a_dot=a_dot),
        h=functools.partial(_mixture_h, a_dot=a_dot),
        hess=functools.partial(_mixture_hess, a_dot=a_dot),
        r=0,
        nu=0,
        L=1.0 + 4.0 * norm_a**2,
        K=max(1.0, norm_a),
        a_tilde=0.5,
        b_tilde=2.0,
        L_grad=8.0 * norm_a**3,
        marginal=functools.partial(_mixture_marginal_pdf, a1=float(a_dot[0])),
        second_moment=functools.partial(_mixture_second_moment, d=d, a_norm=norm_a),
    )


def make_double_well(d: int) -> TargetSpec:
    """Double-well target: U = |theta|^4 / 4 - |theta|^2 / 2.

    Non-convex with a cubically growing gradient; the representative
    case for taming.
    """
    return TargetSpec(
        name="double-well",
        d=d,
        U=_double_well_u,
        h=_double_well_h,
        hess=_double_well_hess,
        r=2,
        nu=1,
        L=1.0,
        K=2.0,
        a=0.5,
        b=1.0,
        r_bar=0.0,
        L_grad=3.0,
        marginal=functools.partial(_double_well_marginal_pdf, d=d),
        second_moment=functools.partial(_double_well_second_moment, d=d),
    )


def default_mixture_center(d: int) -> np.ndarray:
    """All components equal, |a_dot| = 2 (the non-strongly-convex default)."""
    return np.full(d, 2.0 / np.sqrt(d))


_CONSTRUCTORS = {
    "gaussian": make_gaussian,
    "mixture": make_gaussian_mixture,
    "double-well": make_double_well,
}
TARGET_NAMES = tuple(_CONSTRUCTORS)


def make_target(name: str, d: int) -> TargetSpec:
    """Build one of the built-in targets by name."""
    if name not in _CONSTRUCTORS:
        raise ValueError(f"unknown target {name!r}; expected one of {TARGET_NAMES}")
    return _CONSTRUCTORS[name](d)


def override_constants(target: TargetSpec, **overrides) -> TargetSpec:
    """Replace assumption constants on a target (falsification controls)."""
    allowed = {"r", "nu", "L", "K", "a", "b", "r_bar", "a_tilde", "b_tilde", "L_grad"}
    bad = set(overrides) - allowed
    if bad:
        raise ValueError(f"cannot override {sorted(bad)}; allowed: {sorted(allowed)}")
    return replace(target, **overrides)


# --- first-component marginal densities ---

@dataclass
class MarginalDensity:
    """The target's first marginal (``TargetSpec.marginal``), with its
    support (where the density exceeds 1e-10), its CDF tabulated over
    that support, and the mass that tabulation integrates to (the
    normalization check)."""

    target: TargetSpec
    pdf: Callable
    support: tuple[float, float]
    cdf: Callable
    normalization_check: float


def _golden_section_max(f, lo: float, hi: float, iters: int = 80) -> float:
    """Abscissa of the maximum of a unimodal f on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d_ = a + invphi * (b - a)
    fc, fd = f(c), f(d_)
    for _ in range(iters):
        if fc > fd:
            b, d_, fd = d_, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + invphi * (b - a)
            fd = f(d_)
        if b - a < 1e-12 * (1.0 + abs(a)):
            break
    return 0.5 * (a + b)


def _log_integral_peaked(log_f, peak_hint: float) -> float:
    """log of the semi-infinite integral of exp(log_f), peak-shifted so the
    working integrand stays within double range."""
    if peak_hint > 0:
        r_peak = _golden_section_max(log_f, peak_hint / 8.0, 8.0 * peak_hint + 1.0)
        shift = log_f(r_peak)
    else:
        # no interior maximum: integrand decreasing from the origin
        shift = max(log_f(1e-8), log_f(1.0))

    def g(r):
        if r <= 0.0:
            return 0.0
        return float(np.exp(log_f(r) - shift))

    res = integrate_semi_infinite(g, truncation_tol=1e-16)
    return shift + float(np.log(res.value))


# Gauss-Legendre order of the double-well marginal's fixed rule.  Against
# adaptive quadrature the rule reaches rounding level (~2e-13 in log) from
# 40 nodes for every d in 2..1000; 64 leaves a margin.
_MARGINAL_NODES = 64
# log-drop of the integrand at the ends of the rule's window, under the
# local model kappa t^2 / 2 + t^4 / 4 (the quartic term bounds the window
# where the curvature vanishes: d = 2, x^2 = 1)
_WINDOW_DROP = 45.0
# abscissae per block, so the (block, node) temporaries stay near 0.5 MB
_MARGINAL_BLOCK = 1024


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _double_well_log_numerators(d: int, x2: np.ndarray) -> np.ndarray:
    """log of the integral over r > 0 of r^{(d-3)/2} exp{-(r + x^2)^2/4 +
    (r + x^2)/2}, for each entry of a 1-D array of x^2.

    In the substituted variable s = r^{1/2} the integrand is
    2 s^{d-2} exp(-q^2/4 + q/2) with q = s^2 + x^2, smooth on [0, inf)
    since d - 2 is a non-negative integer.  One Gauss-Legendre rule is
    placed per row on a window around the peak, sized by the curvature of
    the log-integrand there and clipped at s = 0, and summed in log space.
    """
    nodes, weights = _gauss_legendre(_MARGINAL_NODES)
    # peak: u^2 + (x2 - 1) u - (d - 2) = 0 with u = s^2, solved without
    # cancellation on either side of x2 = 1; u = 0 only when d = 2 and
    # x2 >= 1, where the (d - 2) / u term is absent
    b = x2 - 1.0
    disc = np.hypot(b, 2.0 * np.sqrt(d - 2.0))
    u = np.divide(2.0 * (d - 2), b + disc, out=0.5 * (disc - b), where=b > 0.0)
    peak = np.sqrt(u)
    q_peak = u + x2
    kappa = (d - 2) / np.maximum(u, np.finfo(float).tiny) + x2 + 3.0 * u - 1.0
    # half-width t solving kappa t^2 / 2 + t^4 / 4 = _WINDOW_DROP
    width = np.sqrt(4.0 * _WINDOW_DROP / (np.hypot(kappa, 2.0 * np.sqrt(_WINDOW_DROP)) + kappa))
    lo = np.maximum(peak - width, 0.0)
    half = 0.5 * (peak + width - lo)
    s = (lo + half)[:, None] + half[:, None] * nodes
    # the log-integrand relative to its value at the peak, in a form free
    # of cancellation between large terms at large x^2 or d
    dq = (s - peak[:, None]) * (s + peak[:, None])
    rel = -0.25 * dq * (dq + 2.0 * q_peak[:, None] - 2.0)
    log_peak = -0.25 * q_peak * q_peak + 0.5 * q_peak
    if d > 2:
        rel += (d - 2) * np.log(s / peak[:, None])
        log_peak += (d - 2) * np.log(peak)
    return log_peak + np.log(2.0 * half * (np.exp(rel) @ weights))


@functools.cache
def _double_well_log_denominator(d: int) -> float:
    # log of \int_0^inf r^{d/2 - 1} exp{-r^2/4 + r/2} dr with r = s^2
    def log_f(s):
        return np.log(2.0) + (d - 1) * np.log(s) - 0.25 * s**4 + 0.5 * s * s

    hint = np.sqrt(0.5 * (1.0 + np.sqrt(1.0 + 4.0 * (d - 1))))
    return _log_integral_peaked(log_f, hint)


def _double_well_marginal_pdf(x, d: int):
    # the normalizer is computed on the first call for each d, then cached
    x = np.asarray(x, dtype=float)
    log_den = _double_well_log_denominator(d)
    if d == 1:
        # the first marginal is the whole law exp(-U(x)) / Z
        return np.exp(-_double_well_u(x[..., None]) - log_den)
    log_scale = log_gamma(d / 2.0) - log_gamma((d - 1.0) / 2.0) - 0.5 * np.log(np.pi) - log_den
    x2 = np.ravel(x * x)
    log_num = np.empty(x2.size)
    for i in range(0, x2.size, _MARGINAL_BLOCK):
        block = slice(i, i + _MARGINAL_BLOCK)
        log_num[block] = _double_well_log_numerators(d, x2[block])
    out = np.exp(log_scale + log_num).reshape(x.shape)
    return out if out.ndim else float(out)


def _gaussian_marginal_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _mixture_marginal_pdf(x, a1):
    x = np.asarray(x, dtype=float)
    return 0.5 / np.sqrt(2.0 * np.pi) * (
        np.exp(-0.5 * (x - a1) ** 2) + np.exp(-0.5 * (x + a1) ** 2)
    )


def marginal_pdf(target: TargetSpec) -> MarginalDensity:
    """The target's analytic first-component marginal (beta = 1), tabulated."""
    pdf = target.marginal
    if pdf is None:
        raise ValueError(f"no analytic marginal for target {target.name!r}")
    support = metrics.marginal_support(pdf)
    cdf = metrics.cdf_from_pdf(pdf, *support)
    return MarginalDensity(target=target, pdf=pdf, support=support, cdf=cdf,
                           normalization_check=float(cdf(support[1])))


# --- assumption checkers ---

@dataclass
class CheckReport:
    """Outcome of a sampled inequality check.  Violations are data, not
    errors; an empty list certifies the constants on the sampled set."""

    target: str
    assumption: str
    points: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "assumption": self.assumption,
            "points": self.points,
            "n_violations": len(self.violations),
            "violations": self.violations[:10],  # n_violations counts them all
        }


# relative slack absorbing floating-point rounding at equality cases
_CHECK_RTOL = 1e-12


def _uniform_in_ball(stream: RngStream, d: int, radius: float, n: int) -> np.ndarray:
    """n points uniform in the centered radius-ball, derived purely from
    Gaussian draws (direction from a normalized draw, radius through the
    probability transform of one more coordinate)."""
    if n < 1:
        raise ValueError("n_points must be >= 1")
    g = stream.normal((n, d + 1))
    dirs = g[:, :d]
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    u = normal_cdf(g[:, d])
    return radius * (u ** (1.0 / d))[:, None] * (dirs / norms)


def _violation(theta, theta_prime, lhs, rhs):
    return {
        "theta": np.asarray(theta).tolist(),
        "theta_prime": None if theta_prime is None else np.asarray(theta_prime).tolist(),
        "lhs": float(lhs),
        "rhs": float(rhs),
    }


def _pow0(x, e):
    # |theta|^e with the 0^0 = 1 convention used throughout
    return np.ones_like(x) if e == 0 else x**e


def check_assumption_2(
    target: TargetSpec, n_points: int, radius: float, stream: RngStream
) -> CheckReport:
    """Sampled check of the polynomial Lipschitz and growth bounds on h:
    |h(x)-h(y)| <= L (1+|x|+|y|)^r |x-y| and |h(x)| <= K (1+|x|^{r+1})."""
    xs = _uniform_in_ball(stream, target.d, radius, n_points)
    ys = _uniform_in_ball(stream, target.d, radius, n_points)
    hx = np.atleast_2d(target.h(xs))
    hy = np.atleast_2d(target.h(ys))
    nx = np.linalg.norm(xs, axis=1)
    ny = np.linalg.norm(ys, axis=1)
    violations = []

    lhs = np.linalg.norm(hx - hy, axis=1)
    rhs = target.L * (1.0 + nx + ny) ** target.r * np.linalg.norm(xs - ys, axis=1)
    for i in np.nonzero(lhs > rhs + _CHECK_RTOL * (1.0 + rhs))[0]:
        violations.append(_violation(xs[i], ys[i], lhs[i], rhs[i]))

    lhs_g = np.linalg.norm(hx, axis=1)
    rhs_g = target.K * (1.0 + nx ** (target.r + 1))
    for i in np.nonzero(lhs_g > rhs_g + _CHECK_RTOL * (1.0 + rhs_g))[0]:
        violations.append(_violation(xs[i], None, lhs_g[i], rhs_g[i]))

    return CheckReport(target.name, "assumption-2", n_points, violations)


def check_assumption_3(
    target: TargetSpec, n_points: int, radius: float, stream: RngStream
) -> CheckReport:
    """Sampled check of convexity at infinity (r > 0) or dissipativity
    (r = 0)."""
    xs = _uniform_in_ball(stream, target.d, radius, n_points)
    violations = []
    if target.r > 0:
        ys = _uniform_in_ball(stream, target.d, radius, n_points)
        hx = np.atleast_2d(target.h(xs))
        hy = np.atleast_2d(target.h(ys))
        nx = np.linalg.norm(xs, axis=1)
        ny = np.linalg.norm(ys, axis=1)
        diff = xs - ys
        dsq = np.sum(diff * diff, axis=1)
        lhs = np.sum(diff * (hx - hy), axis=1)
        rhs = target.a * dsq * (nx**target.r + ny**target.r) - target.b * dsq * (
            _pow0(nx, target.r_bar) + _pow0(ny, target.r_bar)
        )
        for i in np.nonzero(lhs < rhs - _CHECK_RTOL * (1.0 + np.abs(rhs)))[0]:
            violations.append(_violation(xs[i], ys[i], lhs[i], rhs[i]))
    else:
        hx = np.atleast_2d(target.h(xs))
        lhs = np.sum(xs * hx, axis=1)
        rhs = target.a_tilde * np.sum(xs * xs, axis=1) - target.b_tilde
        for i in np.nonzero(lhs < rhs - _CHECK_RTOL * (1.0 + np.abs(rhs)))[0]:
            violations.append(_violation(xs[i], None, lhs[i], rhs[i]))
    return CheckReport(target.name, "assumption-3", n_points, violations)


def operator_norm(mat: np.ndarray, iters: int = 50, tol: float = 1e-10) -> float:
    """Operator norm of a symmetric matrix by power iteration."""
    d = mat.shape[0]
    v = np.ones(d) / np.sqrt(d)
    v[0] += 0.5  # break symmetry against orthogonal starts
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(iters):
        w = mat @ v
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        if abs(norm_w - prev) <= tol * max(1.0, norm_w):
            return float(norm_w)
        prev = norm_w
    return float(prev)


def check_assumption_4(
    target: TargetSpec, n_points: int, radius: float, stream: RngStream
) -> CheckReport:
    """Sampled check of the Hessian Lipschitz bound
    |H(x) - H(y)| <= L_grad (1+|x|+|y|)^nu |x-y| in operator norm."""
    xs = _uniform_in_ball(stream, target.d, radius, n_points)
    ys = _uniform_in_ball(stream, target.d, radius, n_points)
    violations = []
    for i in range(n_points):
        diff = target.hess(xs[i]) - target.hess(ys[i])
        lhs = operator_norm(diff)
        rhs = (
            target.L_grad
            * (1.0 + np.linalg.norm(xs[i]) + np.linalg.norm(ys[i])) ** target.nu
            * np.linalg.norm(xs[i] - ys[i])
        )
        if lhs > rhs + _CHECK_RTOL * (1.0 + rhs):
            violations.append(_violation(xs[i], ys[i], lhs, rhs))
    return CheckReport(target.name, "assumption-4", n_points, violations)
