"""Benchmark sampling targets and their structural certificates.

Each target bundles the potential U, the parts of its gradient h and of
the Hessian of U, and the growth/dissipativity constants under which the
tamed chain's guarantees hold.  Three built-ins ship: an isotropic
Gaussian, a symmetric two-component Gaussian mixture, and the double-well
potential (the canonical non-convex target whose gradient grows cubically).

``U`` and ``h`` accept points of shape (d,) or batches (..., d).  The drift
is h = a theta + c and the Hessian a scalar times I plus a rank-one term,
which gives its operator norms exactly in O(d) per point.  A built-in
target also carries what is known of its law: first marginal, second
moment, exact draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import metrics
# integrate_semi_infinite is bound here, unused, for the benchmark's traced
# run, which wraps it under this module's name
from .numerics import (
    RngStream, gauss_legendre, integrate_semi_infinite, normal_cdf, panel_rule,
)


def row_norm_sq(theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|theta|^2 along the last axis (into ``out`` when given).

    einsum keeps the reduction order a function of d alone, so batched
    and single-point evaluations agree bit for bit.
    """
    return np.einsum("...i,...i->...", theta, theta, out=out)


@dataclass(frozen=True)
class TargetSpec:
    """A potential, the parts of its gradient and Hessian, and assumption
    constants.

    r and nu are the polynomial growth exponents of the gradient and of
    the Hessian's Lipschitz modulus.  Exactly one of the dissipativity
    parameter groups is populated: (a, b, r_bar) when r > 0, or
    (a_tilde, b_tilde) when r = 0.
    """

    name: str
    d: int
    U: Callable
    # (theta (..., d), |theta|^2 (...)) -> (a, c) with h = a theta + c: a is
    # a float or (...), c is None or (..., d)
    drift_parts: Callable
    # (..., d) -> (scale (...), coef (...), vec (..., d)) with
    # hess = scale I + coef vec vec^T
    hess_parts: Callable
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

    def h(self, theta) -> np.ndarray:
        """The gradient a theta + c of U at theta (d,) or (..., d)."""
        theta = np.asarray(theta, dtype=float)
        a, c = self.drift_parts(theta, row_norm_sq(theta))
        h = np.expand_dims(a, -1) * theta
        return h if c is None else h + c

    def step_size_limits(self) -> tuple[float, float]:
        """(lambda_max, lambda_1_max) = (min{1, a_bar^2/(8K^4), 1/a_bar^2},
        min{1, a_bar^2/(8K^4)}), with a_bar = a/2 when r > 0, else a_tilde:
        exact in rationals of the float fields, each rounded once."""
        from fractions import Fraction  # about 2 ms of import, for sample and rate alone

        a_bar = Fraction(self.a) / 2 if self.r > 0 else Fraction(self.a_tilde)
        lam_1 = min(Fraction(1), a_bar**2 / (8 * Fraction(self.K) ** 4))
        return float(min(lam_1, 1 / a_bar**2)), float(lam_1)


# The assumption constants a falsification control may replace, with the
# type of each: ``override_constants`` and ``check --override`` read it.
CONSTANT_TYPES = {"r": int, "nu": int, "L": float, "K": float, "L_grad": float, "a": float,
                  "b": float, "r_bar": float, "a_tilde": float, "b_tilde": float}


# --- built-in potentials (module-level functions, so a target pickles) ---

def _gaussian_u(theta):
    theta = np.asarray(theta, dtype=float)
    return 0.5 * row_norm_sq(theta)


def _gaussian_drift_parts(theta, sq):
    return 1.0, None


def _gaussian_hess_parts(theta):
    shape = np.shape(theta)
    return np.ones(shape[:-1]), np.zeros(shape[:-1]), np.zeros(shape)


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


def _logistic(z):
    # 1 / (1 + e^{-z}), overflow-safe for any z
    return np.exp(-np.logaddexp(0.0, -z))


def _mixture_drift_parts(theta, sq, a_dot):
    # h = theta - a_dot + 2 w a_dot with w = 1 / (1 + e^{2<a,theta>}), and
    # 2 w - 1 = -tanh(<a, theta>); the reduction order is independent of
    # batch shape, so masked, full-batch and single-point updates agree bit
    # for bit
    dot = np.einsum("...i,i->...", theta, a_dot)
    return 1.0, np.multiply.outer(-np.tanh(dot), a_dot)


def _mixture_hess_parts(theta, a_dot):
    x = 2.0 * np.einsum("...i,i->...", theta, a_dot)
    s = 4.0 * _logistic(x) * _logistic(-x)  # 4 e^x / (1 + e^x)^2
    return np.ones_like(s), -s, np.broadcast_to(a_dot, np.shape(theta))


def _mixture_second_moment(beta, d, a_norm):
    # split theta into the component along a_dot (1-D law below) and the
    # (d-1)-dimensional Gaussian complement
    def g(u):
        return np.exp(
            -0.5 * beta * (u - a_norm) ** 2 + beta * np.logaddexp(0.0, -2.0 * a_norm * u)
        )

    reach = 40.0 / math.sqrt(beta)
    u, w = panel_rule([-a_norm - reach, -a_norm, 0.0, a_norm, a_norm + reach])
    mass = w * g(u)
    return float(mass @ (u * u) / np.sum(mass)) + (d - 1) / beta


def _double_well_u(theta):
    theta = np.asarray(theta, dtype=float)
    sq = row_norm_sq(theta)
    return 0.25 * sq * sq - 0.5 * sq


def _double_well_drift_parts(theta, sq):
    return sq - 1.0, None


def _double_well_hess_parts(theta):
    # (|theta|^2 - 1) I + 2 theta theta^T
    scale = row_norm_sq(theta) - 1.0
    return scale, np.full_like(scale, 2.0), theta


def _double_well_second_moment(beta, d):
    # E|theta|^2 = the radial law rho^{d-1} exp{-beta(rho^4/4 - rho^2/2)}'s
    # integral of rho^{d+1} over its integral of rho^{d-1}
    log_m2 = _double_well_log_radial(d + 3, beta) - _double_well_log_radial(d + 1, beta)
    return float(np.exp(log_m2))


def make_gaussian(d: int) -> TargetSpec:
    """Isotropic standard Gaussian target: U = |theta|^2 / 2."""
    return TargetSpec(
        name="gaussian",
        d=d,
        U=_gaussian_u,
        drift_parts=_gaussian_drift_parts,
        hess_parts=_gaussian_hess_parts,
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
    logistic term is evaluated through logaddexp so the gradient
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
        drift_parts=functools.partial(_mixture_drift_parts, a_dot=a_dot),
        hess_parts=functools.partial(_mixture_hess_parts, a_dot=a_dot),
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
        drift_parts=_double_well_drift_parts,
        hess_parts=_double_well_hess_parts,
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
    bad = set(overrides) - set(CONSTANT_TYPES)
    if bad:
        raise ValueError(f"cannot override {sorted(bad)}; allowed: {sorted(CONSTANT_TYPES)}")
    return replace(target, **overrides)


# --- first-component marginal densities ---

@dataclass
class MarginalDensity:
    """The target's first marginal (``TargetSpec.marginal``), with its
    support (where the density exceeds 1e-10), its CDF tabulated over
    that support, and the mass that tabulation integrates to (the
    normalization check)."""

    pdf: Callable
    support: tuple[float, float]
    cdf: Callable
    normalization_check: float


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


def _double_well_log_numerators(d: int, x2: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """log of the integral over r > 0 of r^{(d-3)/2} exp{-beta((r + x^2)^2/4
    - (r + x^2)/2)}, for each entry of a 1-D array of x^2.

    In the substituted variable s = r^{1/2} the integrand is
    2 s^{d-2} exp{-beta(q^2/4 - q/2)} with q = s^2 + x^2, smooth on
    [0, inf) since d - 2 is a non-negative integer.  One Gauss-Legendre
    rule is placed per row on a window around the peak, sized by the
    curvature of the log-integrand there and clipped at s = 0, and summed
    in log space.
    """
    nodes, weights = gauss_legendre(_MARGINAL_NODES)
    # peak: u^2 + (x2 - 1) u - (d - 2) / beta = 0 with u = s^2, solved
    # without cancellation on either side of x2 = 1; u = 0 only when d = 2
    # and x2 >= 1, where the (d - 2) / u term is absent
    b = x2 - 1.0
    disc = np.hypot(b, 2.0 * np.sqrt((d - 2) / beta))
    u = np.divide(2.0 * (d - 2) / beta, b + disc, out=0.5 * (disc - b), where=b > 0.0)
    peak = np.sqrt(u)
    q_peak = u + x2
    # (d - 2) / u + beta (x2 + 3u - 1), expanded so that beta = 1 rounds alike
    kappa = (d - 2) / np.maximum(u, np.finfo(float).tiny) + beta * x2 + 3.0 * beta * u - beta
    # half-width t solving kappa t^2 / 2 + beta t^4 / 4 = _WINDOW_DROP
    width = np.sqrt(4.0 * _WINDOW_DROP
                    / (np.hypot(kappa, 2.0 * np.sqrt(beta * _WINDOW_DROP)) + kappa))
    lo = np.maximum(peak - width, 0.0)
    half = 0.5 * (peak + width - lo)
    s = (lo + half)[:, None] + half[:, None] * nodes
    # the log-integrand relative to its value at the peak, in a form free
    # of cancellation between large terms at large x^2 or d
    dq = (s - peak[:, None]) * (s + peak[:, None])
    rel = -0.25 * beta * dq * (dq + 2.0 * q_peak[:, None] - 2.0)
    log_peak = beta * (-0.25 * q_peak * q_peak + 0.5 * q_peak)
    if d > 2:
        rel += (d - 2) * np.log(s / peak[:, None])
        log_peak += (d - 2) * np.log(peak)
    return log_peak + np.log(2.0 * half * (np.exp(rel) @ weights))


@functools.cache
def _double_well_log_radial(n: int, beta: float) -> float:
    # log of \int_0^inf 2 s^{n-2} exp{-beta(s^4/4 - s^2/2)} ds, the rule above at
    # x^2 = 0: the radial integral of rho^{n-2} under the d-dimensional law
    return float(_double_well_log_numerators(n, np.zeros(1), beta)[0])


def _double_well_marginal_pdf(x, d: int):
    # the normalizer is computed on the first call for each d, then cached
    x = np.asarray(x, dtype=float)
    log_den = _double_well_log_radial(d + 1, 1.0)
    if d == 1:
        # the first marginal is the whole law exp(-U(x)) / Z
        return np.exp(-_double_well_u(x[..., None]) - log_den)
    log_scale = math.lgamma(d / 2.0) - math.lgamma((d - 1.0) / 2.0) - 0.5 * np.log(np.pi) - log_den
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
    return MarginalDensity(pdf=pdf, support=support, cdf=cdf,
                           normalization_check=float(cdf(support[1])))


# --- assumption checkers ---

# violation records a report keeps; n_violations counts them all
_REPORTED = 10


@dataclass
class CheckReport:
    """Outcome of a sampled inequality check.  Violations are data, not
    errors; a zero count certifies the constants on the sampled set.
    ``violations`` holds the first ``_REPORTED`` records only."""

    target: str
    assumption: str
    points: int
    n_violations: int
    violations: list

    @property
    def ok(self) -> bool:
        return self.n_violations == 0

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "assumption": self.assumption,
            "points": self.points,
            "n_violations": self.n_violations,
            "violations": self.violations,
        }


def _report(target: TargetSpec, assumption: str, points: int, *found) -> CheckReport:
    """A report over the (count, first records) pairs of ``_exceeds`` and
    ``_falls_short``, in order."""
    records = [r for _, rs in found for r in rs][:_REPORTED]
    return CheckReport(target.name, assumption, points, sum(n for n, _ in found), records)


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


def _violations(bad, lhs, rhs, xs, ys=None) -> tuple[int, list]:
    # how many rows ``bad`` holds at, and JSON-ready records of the first few
    rows = np.flatnonzero(bad)
    return rows.size, [{"theta": xs[i].tolist(), "theta_prime": None if ys is None else ys[i].tolist(),
                        "lhs": float(lhs[i]), "rhs": float(rhs[i])} for i in rows[:_REPORTED]]


def _exceeds(lhs, rhs, xs, ys=None) -> tuple[int, list]:
    # the rows breaking lhs <= rhs beyond rounding
    return _violations(lhs > rhs + _CHECK_RTOL * (1.0 + rhs), lhs, rhs, xs, ys)


def _falls_short(lhs, rhs, xs, ys=None) -> tuple[int, list]:
    # the rows breaking lhs >= rhs beyond rounding
    return _violations(lhs < rhs - _CHECK_RTOL * (1.0 + np.abs(rhs)), lhs, rhs, xs, ys)


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
    rhs = target.L * (1.0 + nx + ny) ** target.r * np.linalg.norm(xs - ys, axis=1)
    return _report(target, "assumption-2", n_points,
                   _exceeds(np.linalg.norm(hx - hy, axis=1), rhs, xs, ys),
                   _exceeds(np.linalg.norm(hx, axis=1), target.K * (1.0 + nx ** (target.r + 1)), xs))


def check_assumption_3(
    target: TargetSpec, n_points: int, radius: float, stream: RngStream
) -> CheckReport:
    """Sampled check of convexity at infinity (r > 0) or dissipativity
    (r = 0)."""
    xs = _uniform_in_ball(stream, target.d, radius, n_points)
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
        found = _falls_short(lhs, rhs, xs, ys)
    else:
        hx = np.atleast_2d(target.h(xs))
        rhs = target.a_tilde * np.sum(xs * xs, axis=1) - target.b_tilde
        found = _falls_short(np.sum(xs * hx, axis=1), rhs, xs)
    return _report(target, "assumption-3", n_points, found)


def hessian_norm(target: TargetSpec, xs: np.ndarray) -> np.ndarray:
    """|H(x)| in operator norm for each row of xs (n, d): s + c|v|^2 along v
    and s on its complement (d >= 2)."""
    xs = np.asarray(xs, dtype=float)
    s, c, v = target.hess_parts(xs)
    along = np.abs(s + c * row_norm_sq(v))
    return along if target.d == 1 else np.maximum(np.abs(s), along)


def hessian_diff_norm(target: TargetSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """|H(x) - H(y)| in operator norm for each row pair of xs, ys (n, d).

    H(x) - H(y) = (s_x - s_y) I + c_x u u^T - c_y v v^T.  On span{u, v} it
    is a symmetric 2x2 matrix in the basis (u/|u|, w/|w|), w = v minus its
    projection on u; a missing basis direction gives eigenvalue s_x - s_y,
    as does the complement of the span (non-empty when d >= 3).
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    sx, cx, u = target.hess_parts(xs)
    sy, cy, v = target.hess_parts(ys)
    shift = sx - sy
    uu, vv = row_norm_sq(u), row_norm_sq(v)
    if target.d == 1:
        return np.abs(shift + cx * uu - cy * vv)
    uv = np.einsum("...i,...i->...", u, v)
    has_u = uu > 0.0
    ratio = np.where(has_u, uv / np.where(has_u, uu, 1.0), 0.0)
    # squared coordinates (p^2, q^2) of v in the basis, (|v|^2, 0) when u = 0
    p2 = np.where(has_u, uv * ratio, vv)
    w = ratio[..., None] * u
    np.subtract(v, w, out=w)  # in place: the (n, d) temporaries set the check's peak memory
    q2 = np.where(has_u, row_norm_sq(w), 0.0)
    # [[a, b], [b, e]] = c_x |u|^2 e1 e1^T - c_y (p, q)(p, q)^T, b up to sign
    a = cx * uu - cy * p2
    e = -cy * q2
    b = cy * np.sqrt(p2 * q2)
    # eigenvalues shift + (a + e)/2 +/- hypot((a - e)/2, b)
    out = np.abs(shift + 0.5 * (a + e)) + np.hypot(0.5 * (a - e), b)
    return np.maximum(out, np.abs(shift)) if target.d > 2 else out


def hessian_vector_product(target: TargetSpec, ys: np.ndarray, ws: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """H(y) w for each row pair of ys, ws (n, d), written into ``out`` when
    given; ``out`` may be ``ws`` itself."""
    ys, ws = np.asarray(ys, dtype=float), np.asarray(ws, dtype=float)
    s, c, v = target.hess_parts(ys)
    rank_one = (c * np.einsum("...i,...i->...", v, ws))[..., None] * v
    out = np.multiply(s[..., None], ws, out=out)
    out += rank_one
    return out


def check_assumption_4(
    target: TargetSpec, n_points: int, radius: float, stream: RngStream
) -> CheckReport:
    """Sampled check of the Hessian Lipschitz bound
    |H(x) - H(y)| <= L_grad (1+|x|+|y|)^nu |x-y| in operator norm."""
    xs = _uniform_in_ball(stream, target.d, radius, n_points)
    ys = _uniform_in_ball(stream, target.d, radius, n_points)
    rhs = (target.L_grad * (1.0 + np.linalg.norm(xs, axis=1) + np.linalg.norm(ys, axis=1)) ** target.nu
           * np.linalg.norm(xs - ys, axis=1))
    return _report(target, "assumption-4", n_points, _exceeds(hessian_diff_norm(target, xs, ys), rhs, xs, ys))
